//! Re-import of JSONL event streams written by [`crate::sink::JsonlSink`]
//! / [`crate::export::jsonl`], so archived traces can be summarized,
//! digested, and diffed offline exactly like in-memory ones.

use crate::event::{BackoffKind, Event, EvictCause, MapMode, MissLoc, TimedEvent};
use crate::json::{parse, Json};
use ascoma_sim::addr::VPage;
use ascoma_sim::NodeId;

fn u64_field(obj: &Json, key: &str) -> Result<u64, String> {
    obj.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing or non-integer field \"{key}\""))
}

fn u32_field(obj: &Json, key: &str) -> Result<u32, String> {
    let v = u64_field(obj, key)?;
    u32::try_from(v).map_err(|_| format!("field \"{key}\" out of u32 range"))
}

fn bool_field(obj: &Json, key: &str) -> Result<bool, String> {
    obj.get(key)
        .and_then(Json::as_bool)
        .ok_or_else(|| format!("missing or non-bool field \"{key}\""))
}

fn str_field<'a>(obj: &'a Json, key: &str) -> Result<&'a str, String> {
    obj.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing or non-string field \"{key}\""))
}

fn node_field(obj: &Json) -> Result<NodeId, String> {
    let v = u64_field(obj, "node")?;
    u16::try_from(v)
        .map(NodeId)
        .map_err(|_| "field \"node\" out of u16 range".to_string())
}

fn page_field(obj: &Json) -> Result<VPage, String> {
    u64_field(obj, "page").map(VPage)
}

fn parse_mode(name: &str) -> Result<MapMode, String> {
    match name {
        "home" => Ok(MapMode::Home),
        "numa" => Ok(MapMode::Numa),
        "scoma" => Ok(MapMode::Scoma),
        "scoma_refault" => Ok(MapMode::ScomaRefault),
        "replica" => Ok(MapMode::Replica),
        other => Err(format!("unknown map mode \"{other}\"")),
    }
}

fn parse_cause(name: &str) -> Result<EvictCause, String> {
    match name {
        "daemon" => Ok(EvictCause::Daemon),
        "victim" => Ok(EvictCause::Victim),
        "replica_collapse" => Ok(EvictCause::ReplicaCollapse),
        other => Err(format!("unknown evict cause \"{other}\"")),
    }
}

fn parse_dir(name: &str) -> Result<BackoffKind, String> {
    match name {
        "raise" => Ok(BackoffKind::Raise),
        "drop" => Ok(BackoffKind::Drop),
        other => Err(format!("unknown back-off direction \"{other}\"")),
    }
}

fn parse_loc(name: &str) -> Result<MissLoc, String> {
    MissLoc::ALL
        .into_iter()
        .find(|l| l.name() == name)
        .ok_or_else(|| format!("unknown miss location \"{name}\""))
}

/// Parse one JSONL event line back into a [`TimedEvent`].
pub fn parse_event_line(line: &str) -> Result<TimedEvent, String> {
    let obj = parse(line).map_err(|e| e.to_string())?;
    let cycle = u64_field(&obj, "t")?;
    let kind = str_field(&obj, "kind")?;
    let node = node_field(&obj)?;
    let event = match kind {
        "page_mapped" => Event::PageMapped {
            node,
            page: page_field(&obj)?,
            mode: parse_mode(str_field(&obj, "mode")?)?,
        },
        "page_upgraded" => Event::PageUpgraded {
            node,
            page: page_field(&obj)?,
            threshold: u32_field(&obj, "threshold")?,
        },
        "upgrade_declined" => Event::UpgradeDeclined {
            node,
            page: page_field(&obj)?,
        },
        "page_evicted" => Event::PageEvicted {
            node,
            page: page_field(&obj)?,
            cause: parse_cause(str_field(&obj, "cause")?)?,
        },
        "daemon_epoch" => Event::DaemonEpoch {
            node,
            epoch: u64_field(&obj, "epoch")?,
            examined: u32_field(&obj, "examined")?,
            reclaimed: u32_field(&obj, "reclaimed")?,
            deficit: u32_field(&obj, "deficit")?,
            reached_target: bool_field(&obj, "reached_target")?,
        },
        "threshold_backoff" => Event::ThresholdBackoff {
            node,
            from: u32_field(&obj, "from")?,
            to: u32_field(&obj, "to")?,
            kind: parse_dir(str_field(&obj, "dir")?)?,
            relocation_disabled: bool_field(&obj, "relocation_disabled")?,
        },
        "refetch_crossing" => Event::RefetchCrossing {
            node,
            page: page_field(&obj)?,
            count: u32_field(&obj, "count")?,
            threshold: u32_field(&obj, "threshold")?,
        },
        "free_pool" => Event::FreePoolSample {
            node,
            free: u32_field(&obj, "free")?,
            resident: u32_field(&obj, "resident")?,
            deficit: u32_field(&obj, "deficit")?,
            low: u32_field(&obj, "low")?,
        },
        "threshold" => Event::ThresholdSample {
            node,
            threshold: u32_field(&obj, "threshold")?,
        },
        "miss" => Event::MissSample {
            node,
            total: u64_field(&obj, "total")?,
            remote: u64_field(&obj, "remote")?,
        },
        "net" => Event::NetSample {
            node,
            backlog: u64_field(&obj, "backlog")?,
            messages: u64_field(&obj, "messages")?,
            queued: u64_field(&obj, "queued")?,
        },
        "mem" => Event::MemSample {
            node,
            l1_hits: u64_field(&obj, "l1_hits")?,
            l1_misses: u64_field(&obj, "l1_misses")?,
            bus_queued: u64_field(&obj, "bus_queued")?,
            dram_queued: u64_field(&obj, "dram_queued")?,
        },
        "miss_serviced" => Event::MissServiced {
            node,
            page: page_field(&obj)?,
            loc: parse_loc(str_field(&obj, "loc")?)?,
            refetch: bool_field(&obj, "refetch")?,
            cycles: u64_field(&obj, "cycles")?,
        },
        "net_delay" => Event::NetDelay {
            node,
            queued: u64_field(&obj, "queued")?,
        },
        "remap_cost" => Event::RemapCost {
            node,
            page: page_field(&obj)?,
            cycles: u64_field(&obj, "cycles")?,
        },
        "reclaim_latency" => Event::ReclaimLatency {
            node,
            reclaimed: u32_field(&obj, "reclaimed")?,
            cycles: u64_field(&obj, "cycles")?,
        },
        other => return Err(format!("unknown event kind \"{other}\"")),
    };
    Ok(TimedEvent { cycle, event })
}

/// Parse a whole JSONL document (one event object per line; blank lines
/// skipped) back into the event stream that produced it.  Errors name
/// the offending 1-based line.
pub fn parse_jsonl(text: &str) -> Result<Vec<TimedEvent>, String> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let te = parse_event_line(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        events.push(te);
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::jsonl_string;

    fn exemplars() -> Vec<TimedEvent> {
        let n = NodeId(2);
        let p = VPage(9);
        vec![
            TimedEvent {
                cycle: 1,
                event: Event::PageMapped {
                    node: n,
                    page: p,
                    mode: MapMode::Scoma,
                },
            },
            TimedEvent {
                cycle: 2,
                event: Event::PageUpgraded {
                    node: n,
                    page: p,
                    threshold: 64,
                },
            },
            TimedEvent {
                cycle: 3,
                event: Event::UpgradeDeclined { node: n, page: p },
            },
            TimedEvent {
                cycle: 4,
                event: Event::PageEvicted {
                    node: n,
                    page: p,
                    cause: EvictCause::ReplicaCollapse,
                },
            },
            TimedEvent {
                cycle: 5,
                event: Event::DaemonEpoch {
                    node: n,
                    epoch: 7,
                    examined: 32,
                    reclaimed: 4,
                    deficit: 2,
                    reached_target: true,
                },
            },
            TimedEvent {
                cycle: 6,
                event: Event::ThresholdBackoff {
                    node: n,
                    from: 64,
                    to: 96,
                    kind: BackoffKind::Raise,
                    relocation_disabled: false,
                },
            },
            TimedEvent {
                cycle: 7,
                event: Event::RefetchCrossing {
                    node: n,
                    page: p,
                    count: 64,
                    threshold: 64,
                },
            },
            TimedEvent {
                cycle: 8,
                event: Event::FreePoolSample {
                    node: n,
                    free: 10,
                    resident: 22,
                    deficit: 0,
                    low: 3,
                },
            },
            TimedEvent {
                cycle: 9,
                event: Event::ThresholdSample {
                    node: n,
                    threshold: 96,
                },
            },
            TimedEvent {
                cycle: 10,
                event: Event::MissSample {
                    node: n,
                    total: 1000,
                    remote: 400,
                },
            },
            TimedEvent {
                cycle: 11,
                event: Event::NetSample {
                    node: n,
                    backlog: 3,
                    messages: 5000,
                    queued: 77,
                },
            },
            TimedEvent {
                cycle: 12,
                event: Event::MemSample {
                    node: n,
                    l1_hits: 999,
                    l1_misses: 11,
                    bus_queued: 40,
                    dram_queued: 12,
                },
            },
            TimedEvent {
                cycle: 13,
                event: Event::MissServiced {
                    node: n,
                    page: p,
                    loc: MissLoc::Remote3,
                    refetch: true,
                    cycles: 312,
                },
            },
            TimedEvent {
                cycle: 14,
                event: Event::NetDelay { node: n, queued: 9 },
            },
            TimedEvent {
                cycle: 15,
                event: Event::RemapCost {
                    node: n,
                    page: p,
                    cycles: 500,
                },
            },
            TimedEvent {
                cycle: 16,
                event: Event::ReclaimLatency {
                    node: n,
                    reclaimed: 4,
                    cycles: 2100,
                },
            },
        ]
    }

    #[test]
    fn every_variant_round_trips() {
        let evs = exemplars();
        let text = jsonl_string(&evs);
        let back = parse_jsonl(&text).unwrap();
        assert_eq!(back, evs);
    }

    #[test]
    fn blank_lines_are_skipped() {
        let evs = exemplars();
        let mut text = String::from("\n");
        text.push_str(&jsonl_string(&evs));
        text.push('\n');
        assert_eq!(parse_jsonl(&text).unwrap(), evs);
    }

    #[test]
    fn errors_name_the_line() {
        let mapped = "{\"t\":1,\"kind\":\"page_mapped\",\"node\":0,\"page\":1,\"mode\":\"numa\"}";
        let bogus = "{\"t\":2,\"kind\":\"bogus\",\"node\":0}";
        // Archives written while the back-off auto-tuner existed may hold
        // its two event kinds; they are unknown kinds now.
        let phase_change = "{\"t\":17,\"kind\":\"phase_change\",\"node\":0,\"window\":4,\"from\":\"baseline\",\"to\":\"hot\",\"cause\":\"refetch_high\",\"dwell\":4}";
        let tune_applied = "{\"t\":18,\"kind\":\"tune_applied\",\"node\":0,\"window\":4,\"inc_from\":32,\"inc_to\":64,\"period_from\":50000,\"period_to\":100000,\"cause\":\"refetch_high\"}";
        for (line, kind) in [
            (bogus, "bogus"),
            (phase_change, "phase_change"),
            (tune_applied, "tune_applied"),
        ] {
            let err = parse_jsonl(&format!("{mapped}\n{line}\n")).unwrap_err();
            assert!(err.starts_with("line 2:"), "{err}");
            assert!(err.contains(kind), "{err}");
        }
    }

    #[test]
    fn missing_fields_are_rejected() {
        let err = parse_event_line("{\"t\":1,\"kind\":\"page_mapped\",\"node\":0}").unwrap_err();
        assert!(err.contains("page"));
    }
}
