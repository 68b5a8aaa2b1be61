//! Benchmark binary for the `checker` workload.
//!
//! Explores the 1-page remap and AS-COMA conformance configurations
//! exhaustively at a fault budget of one (drop, duplicate, crash or shard
//! loss), BFS then DPOR per configuration, as the bounded-fault gate
//! does.  Built with the `check` feature, which compiles the fault hooks
//! into `proto`/`vm`/`mem` — hence a binary apart from the simulator
//! workloads, which measure the plain release build.
//!
//! ```text
//! perfbench-check --workload checker --seed N --seconds S --trace 0|1 [--spans FILE]
//! ```
//!
//! The inputs are fixed configurations, so the seed changes nothing.
//! Prints a digest of the exploration statistics and, as the last line,
//! the result JSON; exits 1 if an exploration was incomplete, found a
//! violation, or BFS and DPOR disagreed.

// Wall-clock reads are this binary's whole purpose.
#![allow(clippy::disallowed_methods)]

use ascoma_check::conform::{ConformAction, ConformConfig, ConformHarness};
use ascoma_check::explore::{bfs, dpor, Outcome};
use ascoma_check::harness::Harness;
use perfbench_common::{
    calibrate_ns, die, fastest, median, now_s, overhead_frac, print_digest, repeat_for, timed,
    Args, Report, Spans,
};

/// The state cap of the CI gates; both configurations stay far below it.
const MAX_STATES: usize = 4_000_000;
/// Set-ups per timed batch.
const SETUP_BATCH: usize = 2_000;
/// Timed batches at each probe point.
const BATCHES_PER_PROBE: usize = 10;

fn configs() -> [ConformConfig; 2] {
    [
        ConformConfig::remap(2, 1, 2, 3).with_faults(1),
        ConformConfig::ascoma(2, 1, 2, 3).with_faults(1),
    ]
}

/// What one configuration's BFS and DPOR runs found.
#[derive(Debug, Clone, PartialEq)]
struct Explored {
    label: String,
    bfs_states: usize,
    bfs_transitions: usize,
    dpor_states: usize,
    dpor_transitions: usize,
    kinds: Vec<(&'static str, usize)>,
    /// Why the configuration failed the check, if it did.
    failure: Option<String>,
}

fn judge(
    label: String,
    full: &Outcome<ConformAction>,
    reduced: &Outcome<ConformAction>,
) -> Explored {
    let failure = if !full.complete || !reduced.complete {
        Some("incomplete exploration".to_string())
    } else if let Some(cex) = full.violation.as_ref().or(reduced.violation.as_ref()) {
        Some(format!("violation [{}] {}", cex.invariant, cex.detail))
    } else if reduced.states > full.states {
        Some(format!(
            "DPOR expanded: {} > {}",
            reduced.states, full.states
        ))
    } else {
        None
    };
    Explored {
        label,
        bfs_states: full.states,
        bfs_transitions: full.transitions,
        dpor_states: reduced.states,
        dpor_transitions: reduced.transitions,
        kinds: full.kinds.clone(),
        failure,
    }
}

/// One pass: BFS then DPOR on each configuration, calling `probe`
/// between explorations (where the untraced run times set-ups).
fn pass(probe: &mut dyn FnMut()) -> Vec<Explored> {
    configs()
        .into_iter()
        .enumerate()
        .map(|(i, cfg)| {
            if i > 0 {
                probe();
            }
            let h = ConformHarness::new(cfg);
            let full = bfs(&h, MAX_STATES);
            probe();
            judge(cfg.label(), &full, &dpor(&h, MAX_STATES))
        })
        .collect()
}

fn states(e: &[Explored]) -> f64 {
    e.iter()
        .map(|x| (x.bfs_states + x.dpor_states) as f64)
        .sum()
}

fn transitions(e: &[Explored]) -> f64 {
    e.iter()
        .map(|x| (x.bfs_transitions + x.dpor_transitions) as f64)
        .sum()
}

fn check_pass(report: &mut Report, pass: &[Explored]) {
    for e in pass {
        if let Some(f) = &e.failure {
            eprintln!("check failed: {}: {f}", e.label);
        }
        report.check(e.failure.is_none());
    }
}

fn main() {
    let args = Args::from_env();
    if args.workload != "checker" {
        die(&format!(
            "unknown workload '{}' (this binary runs checker)",
            args.workload
        ));
    }
    let calib_ns = calibrate_ns();
    println!("host.calib_ns {calib_ns:.4}");
    let report = if args.trace {
        run_traced(&args, calib_ns)
    } else {
        run(&args)
    };
    report.finish(args.trace);
}

fn run(args: &Args) -> Report {
    // Set-up is what precedes the first transition: the harnesses and
    // their canonical initial states, timed in batches at every probe.
    let mut setups = Vec::new();
    let passes = repeat_for(
        args.seconds,
        || {
            for _ in 0..BATCHES_PER_PROBE {
                let (_, wall) = timed(|| {
                    for _ in 0..SETUP_BATCH {
                        for cfg in configs() {
                            let h = ConformHarness::new(std::hint::black_box(cfg));
                            std::hint::black_box(h.canon(&h.initial()));
                        }
                    }
                });
                setups.push(wall / SETUP_BATCH as f64);
            }
        },
        pass,
    );

    let mut report = Report::default();
    let first = &passes[0].0;
    check_pass(&mut report, first);
    for (p, _, _) in &passes[1..] {
        for (a, b) in first.iter().zip(p) {
            report.check(a == b);
        }
    }
    print_digest("checker", args.seed, "configs", first);

    let walls: Vec<f64> = passes.iter().map(|p| p.1).collect();
    let cpus: Vec<f64> = passes.iter().map(|p| p.2).collect();
    let wall = median(&walls);
    println!("checker: {} passes, wall {walls:?} s", passes.len());
    // A set-up is about a microsecond, and interference on a shared host
    // slows code that small by up to 2x for seconds at a time; the median
    // of the batches reads the interference, the fastest reads the code.
    println!(
        "checker: {} set-up batches, median {:.4e} s, fastest {:.4e} s",
        setups.len(),
        median(&setups),
        fastest(&setups)
    );
    report.set("setup_s", fastest(&setups));
    report.set("wall_s", wall);
    report.set("cpu_s", median(&cpus));
    // Each explored transition is one production protocol operation.
    report.set("sim_mops_per_s", transitions(first) / wall / 1e6);
    report.set("states_per_s", states(first) / wall);
    report.set("peak_rss_mb", perfbench_common::peak_rss_mb());
    report
}

fn run_traced(args: &Args, calib_ns: f64) -> Report {
    let mut report = Report::default();
    let base_mb = perfbench_common::rss_mb();
    // The untraced passes around the traced one, for the overhead.
    let (untraced, before) = timed(|| pass(&mut || {}));

    let mut spans = Spans::default();
    let start = now_s();
    let mut traced = Vec::new();
    for (i, cfg) in configs().into_iter().enumerate() {
        let id = i as u64;
        let (h, _) = spans.time("check.harness", None, id, || ConformHarness::new(cfg));
        let (full, _) = spans.time("check.bfs", None, id, || bfs(&h, MAX_STATES));
        let (reduced, _) = spans.time("check.dpor", None, id, || dpor(&h, MAX_STATES));
        traced.push(judge(cfg.label(), &full, &reduced));
    }
    let traced_wall = now_s() - start;
    let (_, after) = timed(|| pass(&mut || {}));
    // Freed exploration memory stays with the allocator, so take the
    // resident peak over the largest BFS (which keeps every state).
    let largest = traced.iter().map(|e| e.bfs_states).max().unwrap_or(1);
    let bytes_per_state =
        (perfbench_common::peak_rss_mb() - base_mb) * 1024.0 * 1024.0 / largest as f64;

    check_pass(&mut report, &traced);
    for (a, b) in untraced.iter().zip(&traced) {
        report.check(a == b);
    }
    print_digest("checker", args.seed, "configs", &traced);

    let bfs_states: f64 = traced.iter().map(|e| e.bfs_states as f64).sum();
    let dpor_states: f64 = traced.iter().map(|e| e.dpor_states as f64).sum();
    report.set("check.bfs_states", bfs_states);
    report.set("check.dpor_states", dpor_states);
    report.set("check.dpor_frac", dpor_states / bfs_states);
    report.set("check.transitions", transitions(&traced));
    report.set("check.bfs_s", spans.total("check.bfs"));
    report.set("check.dpor_s", spans.total("check.dpor"));
    report.set("check.bytes_per_state", bytes_per_state);
    // Layers this workload does not run: the simulator and its trace
    // generators.
    report.not_run(&[
        "workloads.",
        "machine.",
        "parallel.",
        "grid.",
        "sim.",
        "miss.",
        "proto.",
        "net.",
        "vm.",
        "layer.",
        "obs.",
    ]);
    report.set("host.calib_ns", calib_ns);
    report.set(
        "bench.trace_overhead_frac",
        overhead_frac(traced_wall, before, after),
    );
    spans.write(args.spans.as_ref());
    report
}
