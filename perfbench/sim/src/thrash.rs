//! `measured-thrash`: three serial `simulate_measured` calls — the call
//! `bench report` makes — on cells where relocation thrashes and the
//! observability layer dominates: em3d AS-COMA at 0.7, barnes S-COMA at
//! 0.5 and radix S-COMA at 0.9.  No cell repeats another and the parallel
//! engine is unused.

use std::cell::RefCell;

use crate::check::{self, Reference};
use crate::{build_app, replay};
use ascoma::machine::simulate_measured;
use ascoma::{simulate, simulate_with_sink, Arch, RunResult, SimConfig};
use ascoma_obs::metrics::DEFAULT_WINDOW;
use ascoma_obs::{summarize, MetricsRegistry, TimedEvent, VecSink};
use ascoma_workloads::{App, Trace};
use perfbench_common::{
    die, fastest, median, now_s, overhead_frac, print_digest, repeat_for, timed, Args, Report,
    RssSampler, Spans,
};

/// Set-ups timed at each probe point (before every pass and after the
/// last).
const SETUPS_PER_PROBE: usize = 3;

/// The workload's cells: `(app, architecture, pressure)`.
pub const CELLS: [(App, Arch, f64); 3] = [
    (App::Em3d, Arch::AsComa, 0.7),
    (App::Barnes, Arch::Scoma, 0.5),
    (App::Radix, Arch::Scoma, 0.9),
];

fn build_traces(seed: u64) -> Vec<Trace> {
    let page_bytes = SimConfig::default().geometry.page_bytes();
    CELLS
        .iter()
        .map(|(app, _, _)| build_app(*app, seed, page_bytes))
        .collect()
}

/// One pass: the three measured cells, in order.
pub fn pass(traces: &[Trace]) -> Vec<RunResult> {
    CELLS
        .iter()
        .zip(traces)
        .map(|((_, arch, p), t)| {
            simulate_measured(t, *arch, &SimConfig::at_pressure(*p), DEFAULT_WINDOW).0
        })
        .collect()
}

/// Plain `simulate` on every cell.
pub fn plain(traces: &[Trace]) -> Vec<RunResult> {
    CELLS
        .iter()
        .zip(traces)
        .map(|((_, arch, p), t)| simulate(t, *arch, &SimConfig::at_pressure(*p)))
        .collect()
}

/// Check measured runs: reference and invariants, and equality with
/// plain `simulate` on every field but `obs` and `metrics`.
pub fn check_pass(
    report: &mut Report,
    measured: &[RunResult],
    plain: &[RunResult],
    reference: &Reference,
    seed: u64,
) {
    for (m, p) in measured.iter().zip(plain) {
        check::check_cell(report, m, reference, seed);
        let same = check::unobserved(m) == *p && m.obs.is_some() && m.metrics.is_some();
        if !same {
            eprintln!(
                "check failed: measured {} {} differs from plain simulate",
                m.workload,
                m.arch.name()
            );
        }
        report.check(same);
    }
}

/// The workload: untraced end-to-end metrics, or (with `--trace 1`) the
/// per-layer metrics of one traced pass.
pub fn run(args: &Args, calib_ns: f64) -> Report {
    let reference = Reference::load(&args.reference).unwrap_or_else(|e| die(&e));
    if args.trace {
        return run_traced(args, calib_ns, &reference);
    }
    // Set-up is timed at every probe point of the run and `setup_s` is
    // the fastest: interference on a shared host slows trace building by
    // tens of percent for seconds at a time, which the median of a few
    // set-ups timed together reads as a change.  Each set-up frees the
    // previous trace set first, so the peak holds one.
    let traces = RefCell::new(Vec::new());
    let mut setups = Vec::new();
    let passes = repeat_for(
        args.seconds,
        || {
            for _ in 0..SETUPS_PER_PROBE {
                let mut traces = traces.borrow_mut();
                traces.clear();
                let (built, wall) = timed(|| build_traces(args.seed));
                *traces = built;
                setups.push(wall);
            }
        },
        |_| pass(&traces.borrow()),
    );
    let traces = traces.into_inner();

    let mut report = Report::default();
    let first = &passes[0].0;
    check_pass(&mut report, first, &plain(&traces), &reference, args.seed);
    for (runs, _, _) in &passes[1..] {
        for (a, b) in first.iter().zip(runs) {
            report.check(a == b);
        }
    }
    print_digest("measured-thrash", args.seed, "cells", first);

    let walls: Vec<f64> = passes.iter().map(|p| p.1).collect();
    let cpus: Vec<f64> = passes.iter().map(|p| p.2).collect();
    let wall = median(&walls);
    let ops: f64 = traces.iter().map(|t| t.total_ops() as f64).sum();
    println!("measured-thrash: {} passes, wall {walls:?} s", passes.len());
    println!(
        "measured-thrash: {} set-ups, median {:.4} s, fastest {:.4} s",
        setups.len(),
        median(&setups),
        fastest(&setups)
    );
    report.set("setup_s", fastest(&setups));
    report.set("wall_s", wall);
    report.set("cpu_s", median(&cpus));
    report.set("sim_mops_per_s", ops / wall / 1e6);
    report.set("states_per_s", first.len() as f64 / wall);
    report.set("peak_rss_mb", perfbench_common::peak_rss_mb());
    report
}

fn run_traced(args: &Args, calib_ns: f64, reference: &Reference) -> Report {
    let mut spans = Spans::default();
    let mut report = Report::default();
    let page_bytes = SimConfig::default().geometry.page_bytes();
    let traces: Vec<Trace> = CELLS
        .iter()
        .enumerate()
        .map(|(i, (app, _, _))| {
            spans
                .time("workloads.build", None, i as u64, || {
                    build_app(*app, args.seed, page_bytes)
                })
                .0
        })
        .collect();

    // The untraced passes around the traced one, for the overhead.
    let (untraced, before) = timed(|| pass(&traces));

    // The traced pass: `simulate_measured` taken apart at its public
    // seams (machine with a recording sink, summary, registry fold).
    let sampler = RssSampler::start();
    let mut measured = Vec::new();
    let mut plains = Vec::new();
    let (mut cell_s, mut plain_s) = (Vec::new(), Vec::new());
    let (mut events, mut obs_rss) = (0usize, 0f64);
    for (i, ((_, arch, p), t)) in CELLS.iter().zip(&traces).enumerate() {
        let id = i as u64;
        let cfg = SimConfig::at_pressure(*p);
        let base = sampler.reset();
        let start = now_s();
        let cell = spans.push(perfbench_common::Span {
            name: "cell.measured",
            start,
            end: start,
            parent: None,
            id,
            worker: 0,
        });
        let ((mut r, sink), _) = spans.time("machine.simulate_with_sink", Some(cell), id, || {
            simulate_with_sink(t, *arch, &cfg, VecSink::new())
        });
        let (summary, _) = spans.time("obs.summarize", Some(cell), id, || {
            summarize(&sink.events, t.nodes)
        });
        let (digest, _) = spans.time("obs.fold", Some(cell), id, || {
            MetricsRegistry::from_events(&sink.events, t.nodes, DEFAULT_WINDOW).digest()
        });
        r.obs = Some(summary);
        r.metrics = Some(digest);
        events += sink.events.len();
        drop(sink);
        let end = now_s();
        spans.spans[cell].end = end;
        cell_s.push(end - start);
        let measured_rss = sampler.peak_mb() - base;

        let base = sampler.reset();
        let (pr, idx) = spans.time("machine.simulate", None, id, || simulate(t, *arch, &cfg));
        plain_s.push(spans.spans[idx].secs());
        obs_rss = obs_rss.max(measured_rss - (sampler.peak_mb() - base));
        measured.push(r);
        plains.push(pr);
    }
    drop(sampler);
    let (_, after) = timed(|| pass(&traces));

    check_pass(&mut report, &measured, &plains, reference, args.seed);
    for (a, b) in untraced.iter().zip(&measured) {
        report.check(a == b);
    }

    let busy: f64 = cell_s.iter().sum();
    let plain_busy: f64 = plain_s.iter().sum();
    let ops: f64 = traces.iter().map(|t| t.total_ops() as f64).sum();
    crate::machine_metrics(&mut report, &cell_s, ops, cell_s[0]);
    // Serial: one worker, busy for the whole pass, no idle tail.
    report.set("parallel.busy_frac", 1.0);
    report.set("parallel.idle_tail_s", 0.0);
    let all: Vec<&RunResult> = measured.iter().collect();
    print_digest("measured-thrash", args.seed, "cells", &all);
    report.set("grid.repeat_share", check::repeat_share(&all));
    for (name, v) in check::layer_counts(&all) {
        report.set(name, v);
    }

    let (costs, _) = spans.time("replay", None, 0, || {
        replay::measure(&traces[0], SimConfig::default().geometry)
    });
    for (name, v) in replay::metrics(&costs, &traces[0], &[&plains[0]], plain_s[0]) {
        report.set(name, v);
    }

    report.set("obs.events", events as f64);
    report.set(
        "obs.event_mb",
        (events * std::mem::size_of::<TimedEvent>()) as f64 / 1e6,
    );
    report.set("obs.overhead_s", busy - plain_busy);
    report.set("obs.overhead_frac", (busy - plain_busy) / plain_busy);
    report.set("obs.rss_mb", obs_rss);
    // The checker does not run here.
    report.not_run(&["check."]);
    report.set("workloads.build_s", spans.total("workloads.build"));
    report.set("host.calib_ns", calib_ns);
    report.set(
        "bench.trace_overhead_frac",
        overhead_frac(busy, before, after),
    );
    spans.write(args.spans.as_ref());
    report
}
