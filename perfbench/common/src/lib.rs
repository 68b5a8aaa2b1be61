//! Plumbing shared by the benchmark binaries: the command line, the
//! metric catalogue, the result line, spans, host probes and statistics.
//!
//! Every binary prints, as the last line of its standard output, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`.  Untraced runs
//! (`--trace 0`) report exactly [`END_TO_END`]; traced runs (`--trace 1`)
//! report exactly [`PER_LAYER`].  Both lists must match `BENCHMARK.json`
//! (tested in `tests/catalogue.rs`).

// Wall-clock and process-clock reads are this crate's whole purpose.
#![allow(clippy::disallowed_methods)]

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Instant;

/// End-to-end metrics, measured with tracing off: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("sim_mops_per_s", "Mop/s"),
    ("states_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, measured by a separate traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.build_s", "s"),
    ("machine.cell_ms_p50", "ms"),
    ("machine.cell_ms_p90", "ms"),
    ("machine.cell_samples", "count"),
    ("machine.ns_per_op", "ns"),
    ("machine.em3d_share", "fraction"),
    ("parallel.busy_frac", "fraction"),
    ("parallel.idle_tail_s", "s"),
    ("grid.repeat_share", "fraction"),
    ("sim.cycles", "count"),
    ("miss.home", "count"),
    ("miss.rac", "count"),
    ("miss.scoma", "count"),
    ("miss.remote", "count"),
    ("proto.fetches", "count"),
    ("proto.fetch_3hop", "count"),
    ("proto.invalidations", "count"),
    ("net.messages", "count"),
    ("net.queued_cycles", "count"),
    ("vm.upgrades", "count"),
    ("vm.downgrades", "count"),
    ("vm.daemon_runs", "count"),
    ("vm.daemon_failures", "count"),
    ("vm.pages_reclaimed", "count"),
    ("vm.blocks_flushed", "count"),
    ("layer.sched_ns", "ns"),
    ("layer.tlb_ns", "ns"),
    ("layer.l1_ns", "ns"),
    ("layer.pt_touch_ns", "ns"),
    ("layer.dir_fetch_ns", "ns"),
    ("layer.net_send_ns", "ns"),
    ("layer.explained_frac", "fraction"),
    ("obs.events", "count"),
    ("obs.event_mb", "MB"),
    ("obs.overhead_s", "s"),
    ("obs.overhead_frac", "fraction"),
    ("obs.rss_mb", "MB"),
    ("check.bfs_states", "count"),
    ("check.dpor_states", "count"),
    ("check.dpor_frac", "fraction"),
    ("check.transitions", "count"),
    ("check.bfs_s", "s"),
    ("check.dpor_s", "s"),
    ("check.bytes_per_state", "B"),
    ("host.calib_ns", "ns"),
    ("bench.trace_overhead_frac", "fraction"),
];

/// The parsed command line:
/// `--workload W --seed N --seconds S --trace 0|1 [--reference CSV]
/// [--spans FILE]`.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed; 0 keeps every generator's built-in seed.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// Reference results the simulator outputs are checked against.
    pub reference: PathBuf,
    /// Where a traced run writes its spans (JSON lines).
    pub spans: Option<PathBuf>,
}

impl Args {
    /// Parse `args` (without the program name); `Err` names the problem.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut out = Args {
            workload: String::new(),
            seed: 0,
            seconds: 10.0,
            trace: false,
            reference: PathBuf::from("results/figures.csv"),
            spans: None,
        };
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut val = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => out.workload = val()?,
                "--seed" => {
                    let v = val()?;
                    out.seed = v.parse().map_err(|_| format!("bad seed '{v}'"))?;
                }
                "--seconds" => {
                    let v = val()?;
                    out.seconds = v
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| format!("bad seconds '{v}'"))?;
                }
                "--trace" => {
                    out.trace = match val()?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("bad trace flag '{v}'")),
                    }
                }
                "--reference" => out.reference = PathBuf::from(val()?),
                "--spans" => out.spans = Some(PathBuf::from(val()?)),
                other => return Err(format!("unknown option '{other}'")),
            }
        }
        if out.workload.is_empty() {
            return Err("--workload is required".into());
        }
        Ok(out)
    }

    /// Parse the process arguments, exiting with status 2 on error.
    pub fn from_env() -> Args {
        Args::parse(std::env::args().skip(1)).unwrap_or_else(|e| die(&e))
    }
}

/// Print `error: msg` and exit with status 2 (no result line).
pub fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// A run's outcome: the output check and the metrics to print.
#[derive(Debug, Default)]
pub struct Report {
    /// Cells or configurations run and checked.
    pub attempted: u64,
    /// How many of them failed the output check.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Record one metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Report 0 for every per-layer metric of the layers (name prefixes,
    /// e.g. `"check."`) this workload does not run.
    pub fn not_run(&mut self, layers: &[&str]) {
        for (name, _) in PER_LAYER {
            if layers.iter().any(|l| name.starts_with(l)) {
                self.set(name, 0.0);
            }
        }
    }

    /// Record one checked operation and whether it passed.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// The result line.  Panics unless the metrics are exactly
    /// `catalogue` and every value is finite.
    pub fn json(&self, catalogue: &[(&str, &str)]) -> String {
        let names: Vec<&str> = catalogue.iter().map(|(n, _)| *n).collect();
        let have: Vec<&str> = self.metrics.keys().copied().collect();
        let mut want = names.clone();
        want.sort_unstable();
        assert_eq!(have, want, "metric set differs from the catalogue");
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        );
        for (i, (name, unit)) in catalogue.iter().enumerate() {
            let v = self.metrics[name];
            assert!(v.is_finite(), "metric {name} is not finite: {v}");
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}");
        }
        s.push_str("}}");
        s
    }

    /// Print the result line for `trace` mode and exit: status 0 when
    /// every check passed, 1 otherwise.
    pub fn finish(&self, trace: bool) -> ! {
        let catalogue = if trace { PER_LAYER } else { END_TO_END };
        println!("{}", self.json(catalogue));
        std::process::exit(if self.failed == 0 && self.attempted > 0 {
            0
        } else {
            1
        });
    }
}

/// Seconds since the first call in this process (monotonic).
pub fn now_s() -> f64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// Tracing overhead of a traced pass against the untraced passes run
/// just `before` and `after` it (their mean cancels warm-up and drift).
pub fn overhead_frac(traced: f64, before: f64, after: f64) -> f64 {
    traced / ((before + after) / 2.0) - 1.0
}

/// Time `f`, returning its value and its wall seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = now_s();
    let r = f();
    (r, now_s() - t0)
}

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `machine.simulate`.
    pub name: &'static str,
    /// Start, seconds since the process epoch ([`now_s`]).
    pub start: f64,
    /// End, seconds since the process epoch.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Cell or configuration the span belongs to (shared by all its
    /// spans).
    pub id: u64,
    /// Worker thread that ran it (0 = the main thread).
    pub worker: usize,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// Spans kept in memory and written out once, at the end of the run.
#[derive(Debug, Default)]
pub struct Spans {
    /// Recorded spans, in recording order.
    pub spans: Vec<Span>,
}

impl Spans {
    /// Record a span; returns its index (for use as a parent).
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Time `f` as a span named `name` on the main thread.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        id: u64,
        f: impl FnOnce() -> R,
    ) -> (R, usize) {
        let start = now_s();
        let r = f();
        let idx = self.push(Span {
            name,
            start,
            end: now_s(),
            parent,
            id,
            worker: 0,
        });
        (r, idx)
    }

    /// Total seconds of every span named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut s = String::new();
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                s,
                "{{\"idx\": {i}, \"name\": \"{}\", \"start_s\": {:?}, \"end_s\": {:?}, \
                 \"parent\": {parent}, \"id\": {}, \"worker\": {}}}",
                sp.name, sp.start, sp.end, sp.id, sp.worker
            );
        }
        s
    }

    /// Write the spans to `path` (creating its directory) when given.
    pub fn write(&self, path: Option<&PathBuf>) {
        let Some(path) = path else { return };
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = std::fs::write(path, self.to_jsonl()) {
            eprintln!("warning: cannot write spans to {}: {e}", path.display());
        }
    }
}

/// A small stable index for the calling thread (0 for the first thread
/// that asks, normally the main thread).
pub fn worker_index() -> usize {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local!(static IDX: usize = NEXT.fetch_add(1, Ordering::Relaxed));
    IDX.with(|i| *i)
}

/// User+system CPU seconds of this process, all threads, from
/// `/proc/self/stat` (clock ticks of 1/100 s, the Linux `USER_HZ`).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
    (tick(11) + tick(12)) as f64 / 100.0
}

fn status_kb(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.0)
}

/// Peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

/// Current resident set (`VmRSS`) in MB.
pub fn rss_mb() -> f64 {
    status_kb("VmRSS:") / 1024.0
}

/// Polls `VmRSS` on a background thread, so a traced run can take the
/// resident peak of one span (`VmHWM` only ever grows).
pub struct RssSampler {
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    peak_kb: std::sync::Arc<std::sync::atomic::AtomicU64>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl RssSampler {
    /// Start polling every 2 ms.
    pub fn start() -> RssSampler {
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
        use std::sync::Arc;
        let stop = Arc::new(AtomicBool::new(false));
        let peak_kb = Arc::new(AtomicU64::new(0));
        let (s, p) = (stop.clone(), peak_kb.clone());
        let thread = std::thread::spawn(move || {
            while !s.load(Ordering::Relaxed) {
                p.fetch_max(status_kb("VmRSS:") as u64, Ordering::Relaxed);
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        });
        RssSampler {
            stop,
            peak_kb,
            thread: Some(thread),
        }
    }

    /// Restart the peak from the current resident set; returns it in MB.
    pub fn reset(&self) -> f64 {
        let now = status_kb("VmRSS:");
        self.peak_kb
            .store(now as u64, std::sync::atomic::Ordering::Relaxed);
        now / 1024.0
    }

    /// Peak resident set since the last [`RssSampler::reset`], in MB
    /// (including the current value).
    pub fn peak_mb(&self) -> f64 {
        let now = status_kb("VmRSS:") as u64;
        let peak = self
            .peak_kb
            .fetch_max(now, std::sync::atomic::Ordering::Relaxed)
            .max(now);
        peak as f64 / 1024.0
    }
}

impl Drop for RssSampler {
    fn drop(&mut self) {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Host calibration: the median ns per step of a fixed integer kernel
/// (a xorshift walk over a 4 KiB table), so figures from two hosts can be
/// put on one scale.
pub fn calibrate_ns() -> f64 {
    const STEPS: u64 = 2_000_000;
    let mut table = [0u64; 512];
    for (i, t) in table.iter_mut().enumerate() {
        *t = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    let mut samples = Vec::new();
    for _ in 0..7 {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let t0 = now_s();
        for _ in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = &mut table[(x & 511) as usize];
            *slot = slot.wrapping_add(x);
            x = x.wrapping_add(*slot);
        }
        samples.push((now_s() - t0) * 1e9 / STEPS as f64);
        std::hint::black_box(x);
    }
    median(&samples)
}

/// Median of `xs` (mean of the middle pair for even lengths); 0 if empty.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Smallest of `xs`; infinite if empty.
pub fn fastest(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Linear-interpolated percentile `q` in `[0, 1]` of `xs`; 0 if empty.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Passes every run makes, however long one pass takes: the median of
/// two already halves the weight of a single disturbed pass.
pub const MIN_PASSES: usize = 2;

/// Run `pass` (one pass of the workload's fixed work) until the next pass
/// would end past `seconds`, at least [`MIN_PASSES`] times; returns every
/// pass's value with its wall and CPU seconds.  `probe` runs before every
/// pass, after the last, and wherever `pass` calls the hook it is given;
/// time spent probing inside a pass is taken out of that pass's wall and
/// CPU seconds.
pub fn repeat_for<R>(
    seconds: f64,
    mut probe: impl FnMut(),
    mut pass: impl FnMut(&mut dyn FnMut()) -> R,
) -> Vec<(R, f64, f64)> {
    let mut passes: Vec<(R, f64, f64)> = Vec::new();
    let start = now_s();
    loop {
        probe();
        let (mut probe_wall, mut probe_cpu) = (0.0, 0.0);
        let cpu0 = cpu_seconds();
        let (r, wall) = timed(|| {
            pass(&mut || {
                let cpu0 = cpu_seconds();
                let ((), w) = timed(&mut probe);
                probe_wall += w;
                probe_cpu += cpu_seconds() - cpu0;
            })
        });
        let cpu = cpu_seconds() - cpu0 - probe_cpu;
        passes.push((r, wall - probe_wall, cpu));
        let walls: Vec<f64> = passes.iter().map(|o| o.1).collect();
        if passes.len() >= MIN_PASSES && now_s() - start + median(&walls) > seconds {
            probe();
            return passes;
        }
    }
}

/// Print `digest <workload> seed=N <what>=len fnv1a64=H`: a 64-bit FNV-1a
/// over the `Debug` form of `items`, so two commits can be compared
/// exactly at any seed.
pub fn print_digest<T: std::fmt::Debug>(workload: &str, seed: u64, what: &str, items: &[T]) {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for item in items {
        for b in format!("{item:?}").bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    println!(
        "digest {workload} seed={seed} {what}={} fnv1a64={h:016x}",
        items.len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse("--workload checker --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(a.workload, "checker");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 12.0);
        assert!(a.trace);
        assert!(parse("--seed 1").is_err());
        assert!(parse("--workload x --trace 2").is_err());
        assert!(parse("--workload x --bogus").is_err());
        assert!(parse("--workload x --seconds -1").is_err());
    }

    #[test]
    fn percentiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.9), 4.6);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_line_lists_the_catalogue_in_order() {
        let mut r = Report::default();
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            r.set(name, i as f64 + 0.5);
        }
        r.check(true);
        let line = r.json(END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        r.check(false);
        assert!(r.json(END_TO_END).starts_with("{\"correct\": false"));
    }

    #[test]
    #[should_panic(expected = "metric set differs")]
    fn result_line_rejects_a_missing_metric() {
        Report::default().json(END_TO_END);
    }

    #[test]
    fn process_probes_read_proc() {
        assert!(peak_rss_mb() > 0.0);
        assert!(rss_mb() > 0.0);
        assert!(cpu_seconds() >= 0.0);
        assert!(calibrate_ns() > 0.0);
    }
}
