//! `paper-grid`: the 126-cell figure grid (six apps at the default size,
//! CC-NUMA once plus four hybrid architectures at the paper's five
//! pressures), untraced, across the host's processors.
//!
//! The traces are built in set-up; each pass then runs the work
//! `ascoma_bench::run_figures_parallel` runs after building its traces:
//! one global queue over every `(app, arch, pressure)` cell on
//! `ascoma::parallel::run_indexed`, reassembled with `assemble_figure`.
//! (That function builds its traces itself, from the generators' fixed
//! seeds, so it can neither take `--seed` nor keep set-up out of the
//! timed work; `tests/grid_engine.rs` pins the two paths together.)

use crate::check::{self, Reference};
use crate::{build_app, replay};
use ascoma::experiments::{assemble_figure, figure_cells, FigureData, PAPER_PRESSURES};
use ascoma::parallel::run_indexed;
use ascoma::{simulate, Arch, RunResult, SimConfig};
use ascoma_workloads::{App, Trace};
use perfbench_common::{
    die, median, now_s, overhead_frac, print_digest, repeat_for, timed, worker_index, Args, Report,
    Span, Spans,
};

/// Set-ups per run, all before the first pass; `setup_s` is their median.
const SETUPS: usize = 7;

/// Build the six apps' traces across `jobs` workers, with each build's
/// span (start, end, worker).
pub fn build_traces(seed: u64, jobs: usize) -> Vec<(Trace, f64, f64, usize)> {
    let page_bytes = SimConfig::default().geometry.page_bytes();
    run_indexed(App::ALL.len(), jobs, |i| {
        let t0 = now_s();
        let t = build_app(App::ALL[i], seed, page_bytes);
        (t, t0, now_s(), worker_index())
    })
}

/// The figure cells of one app, in canonical chart order.
pub fn cells() -> Vec<(Arch, f64)> {
    figure_cells(&PAPER_PRESSURES, SimConfig::default().pressure)
}

/// Run `cell` over every `(trace, arch, pressure)` cell on the shared
/// worker queue; results in app-major canonical order.
fn run_cells<R: Send>(
    traces: &[Trace],
    jobs: usize,
    cell: impl Fn(&Trace, Arch, &SimConfig) -> R + Sync,
) -> Vec<R> {
    let base = SimConfig::default();
    let cells = cells();
    run_indexed(traces.len() * cells.len(), jobs, |i| {
        let (arch, p) = cells[i % cells.len()];
        let cfg = SimConfig {
            pressure: p,
            ..base
        };
        cell(&traces[i / cells.len()], arch, &cfg)
    })
}

/// Reassemble flat app-major runs into one [`FigureData`] per trace.
fn assemble(traces: &[Trace], runs: Vec<RunResult>) -> Vec<FigureData> {
    let per_app = cells().len();
    let mut runs = runs.into_iter();
    traces
        .iter()
        .map(|t| assemble_figure(&t.name, runs.by_ref().take(per_app).collect()))
        .collect()
}

/// One untraced pass over the grid.
pub fn run_grid(traces: &[Trace], jobs: usize) -> Vec<FigureData> {
    assemble(traces, run_cells(traces, jobs, simulate))
}

/// Memory operations one pass simulates: every trace, once per cell.
fn grid_ops(traces: &[Trace]) -> f64 {
    cells().len() as f64 * traces.iter().map(|t| t.total_ops() as f64).sum::<f64>()
}

/// Every run of `figs`, in canonical order.
pub fn runs_of(figs: &[FigureData]) -> Vec<&RunResult> {
    figs.iter()
        .flat_map(|f| f.bars.iter().map(|b| &b.run))
        .collect()
}

/// Check a pass against the reference (and invariants); count into
/// `report`.
pub fn check_pass(report: &mut Report, figs: &[FigureData], reference: &Reference, seed: u64) {
    for r in runs_of(figs) {
        check::check_cell(report, r, reference, seed);
    }
}

/// The workload: untraced end-to-end metrics, or (with `--trace 1`) the
/// per-layer metrics of one traced pass.
pub fn run(args: &Args, calib_ns: f64) -> Report {
    // One worker per host processor, as the `figures` binary defaults to.
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let reference = Reference::load(&args.reference).unwrap_or_else(|e| die(&e));
    if args.trace {
        return run_traced(args, calib_ns, jobs, &reference);
    }
    // Set-up frees the previous trace set first, so the peak holds one.
    // Set-ups all come first: rebuilding between passes makes the
    // resident peak depend on allocator history.
    let mut traces = Vec::new();
    let setups: Vec<f64> = (0..SETUPS)
        .map(|_| {
            traces.clear();
            let (built, wall) = timed(|| build_traces(args.seed, jobs));
            traces = built.into_iter().map(|b| b.0).collect();
            wall
        })
        .collect();
    let passes = repeat_for(args.seconds, || {}, |_| run_grid(&traces, jobs));

    let mut report = Report::default();
    let first = &passes[0].0;
    check_pass(&mut report, first, &reference, args.seed);
    for (figs, _, _) in &passes[1..] {
        for (a, b) in runs_of(first).into_iter().zip(runs_of(figs)) {
            report.check(a == b);
        }
    }
    let first_runs = runs_of(first);
    print_digest("paper-grid", args.seed, "cells", &first_runs);

    let walls: Vec<f64> = passes.iter().map(|p| p.1).collect();
    let cpus: Vec<f64> = passes.iter().map(|p| p.2).collect();
    let wall = median(&walls);
    let ops = grid_ops(&traces);
    println!(
        "paper-grid: {} passes, jobs {jobs}, wall {walls:?} s",
        passes.len()
    );
    report.set("setup_s", median(&setups));
    report.set("wall_s", wall);
    report.set("cpu_s", median(&cpus));
    report.set("sim_mops_per_s", ops / wall / 1e6);
    report.set("states_per_s", first_runs.len() as f64 / wall);
    report.set("peak_rss_mb", perfbench_common::peak_rss_mb());
    report
}

fn run_traced(args: &Args, calib_ns: f64, jobs: usize, reference: &Reference) -> Report {
    let mut spans = Spans::default();
    let mut report = Report::default();

    let built = build_traces(args.seed, jobs);
    for (i, (_, start, end, worker)) in built.iter().enumerate() {
        spans.push(Span {
            name: "workloads.build",
            start: *start,
            end: *end,
            parent: None,
            id: i as u64,
            worker: *worker,
        });
    }
    let traces: Vec<Trace> = built.into_iter().map(|b| b.0).collect();

    // The untraced passes around the traced one, for the overhead.
    let (plain, before) = timed(|| run_grid(&traces, jobs));

    let start = now_s();
    let timed_cells = run_cells(&traces, jobs, |t, arch, cfg| {
        let t0 = now_s();
        let r = simulate(t, arch, cfg);
        (r, t0, now_s(), worker_index())
    });
    let end = now_s();
    let (_, after) = timed(|| run_grid(&traces, jobs));
    let grid = spans.push(Span {
        name: "parallel.run_indexed",
        start,
        end,
        parent: None,
        id: 0,
        worker: worker_index(),
    });
    let per_app = cells().len();
    let mut runs = Vec::with_capacity(timed_cells.len());
    let mut cell_secs = Vec::with_capacity(timed_cells.len());
    for (i, (r, s, e, w)) in timed_cells.into_iter().enumerate() {
        spans.push(Span {
            name: "machine.simulate",
            start: s,
            end: e,
            parent: Some(grid),
            id: i as u64,
            worker: w,
        });
        cell_secs.push(e - s);
        runs.push(r);
    }
    let figs = assemble(&traces, runs);
    check_pass(&mut report, &figs, reference, args.seed);
    for (a, b) in runs_of(&plain).into_iter().zip(runs_of(&figs)) {
        report.check(a == b);
    }
    let all = runs_of(&figs);
    print_digest("paper-grid", args.seed, "cells", &all);

    // Machine and parallel-engine layers, from the cell spans.
    let busy: f64 = cell_secs.iter().sum();
    let em3d = App::ALL.iter().position(|a| *a == App::Em3d).unwrap_or(0);
    let em3d_secs: f64 = cell_secs[em3d * per_app..(em3d + 1) * per_app].iter().sum();
    crate::machine_metrics(&mut report, &cell_secs, grid_ops(&traces), em3d_secs);
    // The idle tail starts when the first worker finds the queue empty.
    let mut last_end = std::collections::BTreeMap::new();
    for s in spans.spans.iter().filter(|s| s.name == "machine.simulate") {
        let e = last_end.entry(s.worker).or_insert(s.end);
        *e = e.max(s.end);
    }
    let first_idle = last_end.values().copied().fold(end, f64::min);
    report.set("parallel.busy_frac", busy / (jobs as f64 * (end - start)));
    report.set("parallel.idle_tail_s", end - first_idle);
    report.set("grid.repeat_share", check::repeat_share(&all));
    for (name, v) in check::layer_counts(&all) {
        report.set(name, v);
    }

    // Per-op replay on the workload's own em3d trace.
    let em3d_runs: Vec<&RunResult> = all[em3d * per_app..(em3d + 1) * per_app].to_vec();
    let (costs, _) = spans.time("replay", None, 0, || {
        replay::measure(&traces[em3d], SimConfig::default().geometry)
    });
    for (name, v) in replay::metrics(&costs, &traces[em3d], &em3d_runs, em3d_secs) {
        report.set(name, v);
    }

    // Layers this workload does not run: the no-op sink and the checker.
    report.not_run(&["obs.", "check."]);
    report.set("workloads.build_s", spans.total("workloads.build"));
    report.set("host.calib_ns", calib_ns);
    report.set(
        "bench.trace_overhead_frac",
        overhead_frac(end - start, before, after),
    );
    spans.write(args.spans.as_ref());
    report
}
