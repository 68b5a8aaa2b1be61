//! Trace exporters: JSONL and Chrome `trace_event` JSON.
//!
//! The Chrome format is the `{"traceEvents":[...]}` object form consumed
//! by Perfetto and `chrome://tracing`.  Mapping:
//!
//! * transitions become instant events (`"ph":"i"`, scope `"t"`) on
//!   `pid` 0 with one `tid` per simulated node, so each node gets its own
//!   track;
//! * periodic samples become counter events (`"ph":"C"`), which the
//!   viewers render as stacked time-series charts (free-pool level,
//!   threshold, cumulative misses, port backlog);
//! * `"M"` metadata events name the process and per-node threads.
//!
//! Timestamps: the trace_event `ts` field is nominally microseconds; we
//! write one simulated cycle per microsecond so viewer timelines read
//! directly in cycles.

use crate::event::{Event, TimedEvent};
use std::fmt::Write as _;
use std::io::{self, Write};

/// Write events as JSON Lines (one object per line) to `w`.
pub fn jsonl<W: Write>(events: &[TimedEvent], w: &mut W) -> io::Result<()> {
    let mut line = String::with_capacity(128);
    for te in events {
        line.clear();
        te.write_json(&mut line);
        line.push('\n');
        w.write_all(line.as_bytes())?;
    }
    Ok(())
}

/// Render events as a JSONL string.
pub fn jsonl_string(events: &[TimedEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96);
    for te in events {
        te.write_json(&mut out);
        out.push('\n');
    }
    out
}

fn push_meta(out: &mut String, name: &str, pid: u32, tid: u32, arg_key: &str, arg_val: &str) {
    let _ = write!(
        out,
        "{{\"ph\":\"M\",\"name\":\"{name}\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"{arg_key}\":\"{arg_val}\"}}}}"
    );
}

fn push_instant(out: &mut String, name: &str, ts: u64, tid: u32, args: &str) {
    let _ = write!(
        out,
        "{{\"ph\":\"i\",\"s\":\"t\",\"name\":\"{name}\",\"pid\":0,\"tid\":{tid},\"ts\":{ts},\"args\":{{{args}}}}}"
    );
}

fn push_counter(out: &mut String, name: &str, ts: u64, tid: u32, series: &str) {
    // Counter tracks are keyed by (pid, name); embedding the node in the
    // name gives each node its own chart.
    let _ = write!(
        out,
        "{{\"ph\":\"C\",\"name\":\"{name}\",\"pid\":0,\"tid\":{tid},\"ts\":{ts},\"args\":{{{series}}}}}"
    );
}

/// Render events as a Chrome `trace_event` JSON document
/// (`{"traceEvents":[...]}`), loadable in Perfetto or `chrome://tracing`.
///
/// `nodes` sizes the thread-name metadata; pass the machine's node count.
pub fn chrome_trace(events: &[TimedEvent], nodes: usize) -> String {
    let mut out = String::with_capacity(events.len() * 160 + 1024);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if first {
            first = false;
        } else {
            out.push(',');
        }
    };

    sep(&mut out);
    push_meta(&mut out, "process_name", 0, 0, "name", "ascoma");
    for n in 0..nodes {
        sep(&mut out);
        let label = format!("node {n}");
        push_meta(&mut out, "thread_name", 0, n as u32, "name", &label);
    }

    for te in events {
        let ts = te.cycle;
        let tid = te.event.node().0 as u32;
        sep(&mut out);
        match te.event {
            Event::PageMapped { page, mode, .. } => {
                let args = format!("\"page\":{},\"mode\":\"{}\"", page.0, mode.name());
                push_instant(&mut out, "page_mapped", ts, tid, &args);
            }
            Event::PageUpgraded {
                page, threshold, ..
            } => {
                let args = format!("\"page\":{},\"threshold\":{threshold}", page.0);
                push_instant(&mut out, "page_upgraded", ts, tid, &args);
            }
            Event::UpgradeDeclined { page, .. } => {
                let args = format!("\"page\":{}", page.0);
                push_instant(&mut out, "upgrade_declined", ts, tid, &args);
            }
            Event::PageEvicted { page, cause, .. } => {
                let args = format!("\"page\":{},\"cause\":\"{}\"", page.0, cause.name());
                push_instant(&mut out, "page_evicted", ts, tid, &args);
            }
            Event::DaemonEpoch {
                epoch,
                examined,
                reclaimed,
                deficit,
                reached_target,
                ..
            } => {
                let args = format!(
                    "\"epoch\":{epoch},\"examined\":{examined},\"reclaimed\":{reclaimed},\"deficit\":{deficit},\"reached_target\":{reached_target}"
                );
                push_instant(&mut out, "daemon_epoch", ts, tid, &args);
            }
            Event::ThresholdBackoff {
                from,
                to,
                kind,
                relocation_disabled,
                ..
            } => {
                let args = format!(
                    "\"from\":{from},\"to\":{to},\"dir\":\"{}\",\"relocation_disabled\":{relocation_disabled}",
                    kind.name()
                );
                push_instant(&mut out, "threshold_backoff", ts, tid, &args);
            }
            Event::RefetchCrossing {
                page,
                count,
                threshold,
                ..
            } => {
                let args = format!(
                    "\"page\":{},\"count\":{count},\"threshold\":{threshold}",
                    page.0
                );
                push_instant(&mut out, "refetch_crossing", ts, tid, &args);
            }
            Event::FreePoolSample {
                node,
                free,
                resident,
                deficit,
                low,
            } => {
                let name = format!("free_pool/node{}", node.0);
                let series = format!(
                    "\"free\":{free},\"resident\":{resident},\"deficit\":{deficit},\"low\":{low}"
                );
                push_counter(&mut out, &name, ts, tid, &series);
            }
            Event::ThresholdSample { node, threshold } => {
                let name = format!("threshold/node{}", node.0);
                let series = format!("\"threshold\":{threshold}");
                push_counter(&mut out, &name, ts, tid, &series);
            }
            Event::MissSample {
                node,
                total,
                remote,
            } => {
                let name = format!("misses/node{}", node.0);
                let series = format!("\"total\":{total},\"remote\":{remote}");
                push_counter(&mut out, &name, ts, tid, &series);
            }
            Event::NetSample {
                node,
                backlog,
                messages,
                queued,
            } => {
                let name = format!("net/node{}", node.0);
                let series =
                    format!("\"backlog\":{backlog},\"messages\":{messages},\"queued\":{queued}");
                push_counter(&mut out, &name, ts, tid, &series);
            }
            Event::MemSample {
                node,
                l1_hits,
                l1_misses,
                bus_queued,
                dram_queued,
            } => {
                let name = format!("mem/node{}", node.0);
                let series = format!(
                    "\"l1_hits\":{l1_hits},\"l1_misses\":{l1_misses},\"bus_queued\":{bus_queued},\"dram_queued\":{dram_queued}"
                );
                push_counter(&mut out, &name, ts, tid, &series);
            }
            Event::MissServiced {
                page,
                loc,
                refetch,
                cycles,
                ..
            } => {
                let args = format!(
                    "\"page\":{},\"loc\":\"{}\",\"refetch\":{refetch},\"cycles\":{cycles}",
                    page.0,
                    loc.name()
                );
                push_instant(&mut out, "miss_serviced", ts, tid, &args);
            }
            Event::NetDelay { queued, .. } => {
                let args = format!("\"queued\":{queued}");
                push_instant(&mut out, "net_delay", ts, tid, &args);
            }
            Event::RemapCost { page, cycles, .. } => {
                let args = format!("\"page\":{},\"cycles\":{cycles}", page.0);
                push_instant(&mut out, "remap_cost", ts, tid, &args);
            }
            Event::ReclaimLatency {
                reclaimed, cycles, ..
            } => {
                let args = format!("\"reclaimed\":{reclaimed},\"cycles\":{cycles}");
                push_instant(&mut out, "reclaim_latency", ts, tid, &args);
            }
        }
    }

    out.push_str("],\"displayTimeUnit\":\"ns\"}");
    out
}

/// Minimal structural validation that `text` is one JSON value.
///
/// Checks bracket/brace balance outside strings, string termination and
/// escape validity — enough to catch exporter bugs in tests without a
/// JSON dependency.  Returns `Err` with a description on failure.
pub fn validate_json(text: &str) -> Result<(), String> {
    let mut stack: Vec<char> = Vec::new();
    let mut chars = text.chars().peekable();
    let mut in_string = false;
    let mut saw_value = false;
    while let Some(c) = chars.next() {
        if in_string {
            match c {
                '"' => in_string = false,
                '\\' => match chars.next() {
                    Some('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') => {}
                    Some('u') => {
                        for _ in 0..4 {
                            match chars.next() {
                                Some(h) if h.is_ascii_hexdigit() => {}
                                _ => return Err("bad \\u escape".into()),
                            }
                        }
                    }
                    other => return Err(format!("bad escape {other:?}")),
                },
                _ => {}
            }
            continue;
        }
        match c {
            '"' => {
                in_string = true;
                saw_value = true;
            }
            '{' => stack.push('}'),
            '[' => stack.push(']'),
            '}' | ']' => match stack.pop() {
                Some(expected) if expected == c => saw_value = true,
                Some(expected) => return Err(format!("expected '{expected}', found '{c}'")),
                None => return Err(format!("unmatched '{c}'")),
            },
            _ => {
                if !c.is_whitespace() {
                    saw_value = true;
                }
            }
        }
    }
    if in_string {
        return Err("unterminated string".into());
    }
    if !stack.is_empty() {
        return Err(format!("{} unclosed bracket(s)", stack.len()));
    }
    if !saw_value {
        return Err("empty document".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EvictCause, MapMode};
    use ascoma_sim::addr::VPage;
    use ascoma_sim::NodeId;

    fn sample_events() -> Vec<TimedEvent> {
        vec![
            TimedEvent {
                cycle: 10,
                event: Event::PageMapped {
                    node: NodeId(0),
                    page: VPage(4),
                    mode: MapMode::Scoma,
                },
            },
            TimedEvent {
                cycle: 20,
                event: Event::FreePoolSample {
                    node: NodeId(1),
                    free: 3,
                    resident: 9,
                    deficit: 0,
                    low: 3,
                },
            },
            TimedEvent {
                cycle: 30,
                event: Event::PageEvicted {
                    node: NodeId(0),
                    page: VPage(4),
                    cause: EvictCause::Daemon,
                },
            },
        ]
    }

    #[test]
    fn jsonl_round_trips_lines() {
        let evs = sample_events();
        let mut buf = Vec::new();
        jsonl(&evs, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 3);
        for line in text.lines() {
            validate_json(line).unwrap();
        }
        assert_eq!(text, jsonl_string(&evs));
    }

    #[test]
    fn chrome_trace_is_valid_json_with_expected_phases() {
        let doc = chrome_trace(&sample_events(), 2);
        validate_json(&doc).unwrap();
        assert!(doc.starts_with("{\"traceEvents\":["));
        assert!(doc.contains("\"ph\":\"M\""));
        assert!(doc.contains("\"ph\":\"i\""));
        assert!(doc.contains("\"ph\":\"C\""));
        assert!(doc.contains("\"thread_name\""));
        assert!(doc.contains("free_pool/node1"));
    }

    #[test]
    fn chrome_trace_empty_is_still_valid() {
        let doc = chrome_trace(&[], 1);
        validate_json(&doc).unwrap();
    }

    #[test]
    fn validator_rejects_garbage() {
        assert!(validate_json("{\"a\":1").is_err());
        assert!(validate_json("{\"a\":\"unterminated}").is_err());
        assert!(validate_json("[}").is_err());
        assert!(validate_json("").is_err());
        assert!(validate_json("{\"a\":[1,2,{\"b\":\"x\\n\"}]}").is_ok());
    }
}
