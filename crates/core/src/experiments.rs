//! Experiment presets: the cross-products behind the paper's figures and
//! tables.
//!
//! The paper simulates each application across the five architectures and
//! memory pressures from 10% to 90% (CC-NUMA once, being pressure-
//! independent).  [`run_figure`] produces the data for one application's
//! pair of charts (Figures 2–3); [`run_table6`] reproduces the relocation
//! census at low pressure.

use crate::config::{Arch, SimConfig};
use crate::machine::{simulate, simulate_streamed};
use crate::result::RunResult;
use ascoma_obs::StreamEvent;
use ascoma_sim::Cycles;
use ascoma_workloads::trace::Trace;
use ascoma_workloads::{App, SizeClass};
use std::sync::{mpsc, Mutex};

/// The pressure grid of the paper's charts.
pub const PAPER_PRESSURES: [f64; 5] = [0.1, 0.3, 0.5, 0.7, 0.9];

/// One bar of a figure: an `(arch, pressure)` run plus its relative time.
#[derive(Debug, Clone)]
pub struct FigureBar {
    /// The run's results.
    pub run: RunResult,
    /// Execution time relative to the CC-NUMA baseline.
    pub relative_time: f64,
}

/// The data behind one application's pair of charts.
#[derive(Debug, Clone)]
pub struct FigureData {
    /// Application name.
    pub app: String,
    /// The CC-NUMA baseline run.
    pub baseline: RunResult,
    /// All bars, in chart order (CC-NUMA first, then each architecture
    /// across pressures).
    pub bars: Vec<FigureBar>,
}

/// Run the full chart cross-product for `app`: CC-NUMA once, then
/// S-COMA/AS-COMA/VC-NUMA/R-NUMA at each pressure.
///
/// ```
/// use ascoma::experiments::run_figure;
/// use ascoma::SimConfig;
/// use ascoma_workloads::{App, SizeClass};
///
/// let data = run_figure(App::Ocean, SizeClass::Tiny, &[0.5], &SimConfig::default());
/// // 1 CC-NUMA baseline bar + 4 architectures x 1 pressure.
/// assert_eq!(data.bars.len(), 5);
/// assert_eq!(data.bars[0].relative_time, 1.0);
/// ```
pub fn run_figure(app: App, size: SizeClass, pressures: &[f64], base: &SimConfig) -> FigureData {
    let trace = app.build(size, base.geometry.page_bytes());
    run_figure_on(&trace, pressures, base)
}

/// The canonical cell list behind one figure: the CC-NUMA baseline first
/// (at the base config's pressure — CC-NUMA is pressure-independent), then
/// each hybrid architecture across `pressures`, in chart order.  Both the
/// serial and the cell-parallel engines enumerate exactly this list, which
/// is what makes their outputs byte-identical.
pub fn figure_cells(pressures: &[f64], base_pressure: f64) -> Vec<(Arch, f64)> {
    let mut cells = vec![(Arch::CcNuma, base_pressure)];
    for arch in [Arch::Scoma, Arch::AsComa, Arch::VcNuma, Arch::RNuma] {
        for &p in pressures {
            cells.push((arch, p));
        }
    }
    cells
}

/// Assemble a [`FigureData`] from runs in [`figure_cells`] order (the
/// baseline is `runs[0]`).
pub fn assemble_figure(app: &str, runs: Vec<RunResult>) -> FigureData {
    let baseline = runs[0].clone();
    let bars = runs
        .into_iter()
        .enumerate()
        .map(|(i, run)| {
            let relative_time = if i == 0 {
                1.0
            } else {
                run.relative_to(&baseline)
            };
            FigureBar { run, relative_time }
        })
        .collect();
    FigureData {
        app: app.to_string(),
        baseline,
        bars,
    }
}

/// As [`run_figure`], over an already-built trace.
pub fn run_figure_on(trace: &Trace, pressures: &[f64], base: &SimConfig) -> FigureData {
    run_figure_on_jobs(trace, pressures, base, 1)
}

/// As [`run_figure_on`], fanning the figure's cells across up to `jobs`
/// worker threads.  Output is byte-identical to the serial path (the same
/// cells run in the same canonical order of assembly; each cell is a
/// deterministic function of `(trace, arch, pressure)`).
pub fn run_figure_on_jobs(
    trace: &Trace,
    pressures: &[f64],
    base: &SimConfig,
    jobs: usize,
) -> FigureData {
    let cells = figure_cells(pressures, base.pressure);
    let runs = crate::parallel::run_indexed(cells.len(), jobs, |i| {
        let (arch, p) = cells[i];
        let cfg = SimConfig {
            pressure: p,
            ..*base
        };
        simulate(trace, arch, &cfg)
    });
    assemble_figure(&trace.name, runs)
}

/// Table 6: remote-page census under R-NUMA at 10% memory pressure —
/// "the percentage of remote pages that are refetched at least [threshold]
/// times, and thus will be remapped from CC-NUMA to S-COMA mode in R-NUMA
/// or VC-NUMA, versus the total number of remote pages accessed."
#[derive(Debug, Clone)]
pub struct Table6Row {
    /// Application name.
    pub app: String,
    /// Distinct `(page, node)` remote pages accessed.
    pub total_remote: u64,
    /// Distinct `(page, node)` pages relocated.
    pub relocated: u64,
    /// `relocated / total_remote`.
    pub fraction: f64,
}

/// Run the Table 6 census for one application.
pub fn run_table6(app: App, size: SizeClass, base: &SimConfig) -> Table6Row {
    let trace = app.build(size, base.geometry.page_bytes());
    run_table6_on(&trace, base)
}

/// As [`run_table6`], over an already-built trace.
pub fn run_table6_on(trace: &Trace, base: &SimConfig) -> Table6Row {
    let cfg = SimConfig {
        pressure: 0.1,
        ..*base
    };
    let run = simulate(trace, Arch::RNuma, &cfg);
    Table6Row {
        app: trace.name.clone(),
        total_remote: run.remote_page_node_pairs,
        relocated: run.relocated_page_node_pairs,
        fraction: run.relocated_fraction(),
    }
}

/// Run one `(app, arch, pressure)` cell (used by ablations and tests).
///
/// Builds the trace from scratch; when sweeping several cells of the same
/// app, build the trace once and use [`run_cell_on`] instead.
pub fn run_cell(
    app: App,
    size: SizeClass,
    arch: Arch,
    pressure: f64,
    base: &SimConfig,
) -> RunResult {
    let trace = app.build(size, base.geometry.page_bytes());
    run_cell_on(&trace, arch, pressure, base)
}

/// Run one `(arch, pressure)` cell over an already-built trace.
pub fn run_cell_on(trace: &Trace, arch: Arch, pressure: f64, base: &SimConfig) -> RunResult {
    let cfg = SimConfig { pressure, ..*base };
    simulate(trace, arch, &cfg)
}

/// Where a streamed sweep sends its progress, and how often.
///
/// Holds the producing half of an `mpsc` channel of [`StreamEvent`]s.
/// The sender sits behind a `Mutex` only so the spec can be shared by
/// reference across the worker pool (`mpsc::Sender` is `Send` but not
/// `Sync`); each worker clones a private sender once per cell, so the
/// lock is touched O(cells) times, never per event.
#[derive(Debug)]
pub struct StreamSpec {
    tx: Mutex<mpsc::Sender<StreamEvent>>,
    /// Snapshot cadence in simulated cycles.  0 = markers only: cells
    /// run completely uninstrumented ([`simulate`]'s `NoopSink` path)
    /// and the stream carries just start/finish events — the mode
    /// `perf_baseline --progress` uses so measured timings stay honest.
    pub cadence: Cycles,
    /// Registry series window for instrumented cells (0 disables).
    pub window: Cycles,
}

impl StreamSpec {
    /// A spec streaming to `tx` with the given cadence and window.
    pub fn new(tx: mpsc::Sender<StreamEvent>, cadence: Cycles, window: Cycles) -> Self {
        Self {
            tx: Mutex::new(tx),
            cadence,
            window,
        }
    }

    fn sender(&self) -> mpsc::Sender<StreamEvent> {
        // A poisoned lock only means another worker panicked while
        // cloning; the sender inside is still fine to clone.
        match self.tx.lock() {
            Ok(g) => g.clone(),
            Err(e) => e.into_inner().clone(),
        }
    }
}

/// One schedulable cell of a streamed sweep.
#[derive(Debug, Clone)]
pub struct StreamCell<'t> {
    /// Display label, e.g. `em3d/ASCOMA@0.50`.
    pub label: String,
    /// The (pre-built) trace to run.
    pub trace: &'t Trace,
    /// Architecture under test.
    pub arch: Arch,
    /// Memory pressure for this cell.
    pub pressure: f64,
}

impl<'t> StreamCell<'t> {
    /// A cell with the canonical `app/ARCH@pressure` label.
    pub fn new(trace: &'t Trace, arch: Arch, pressure: f64) -> Self {
        Self {
            label: format!("{}/{}@{:.2}", trace.name, arch.name(), pressure),
            trace,
            arch,
            pressure,
        }
    }
}

/// The canonical streamed sweep for a whole figure grid: every app's
/// [`figure_cells`], apps in caller order — the cell list `bench watch`
/// attaches to.
pub fn figure_stream_cells<'t>(
    traces: &'t [Trace],
    pressures: &[f64],
    base: &SimConfig,
) -> Vec<StreamCell<'t>> {
    let mut cells = Vec::new();
    for trace in traces {
        for (arch, p) in figure_cells(pressures, base.pressure) {
            cells.push(StreamCell::new(trace, arch, p));
        }
    }
    cells
}

/// Run `cells` across up to `jobs` workers, optionally streaming
/// progress, and return results in canonical cell order.
///
/// With `stream == None` this is exactly the plain cell-parallel path.
/// With a spec, each worker sends [`StreamEvent::CellStart`], then (if
/// `cadence > 0`) runs instrumented via [`simulate_streamed`] forwarding
/// per-cell [`StreamEvent::Snap`]s, then sends [`StreamEvent::CellDone`];
/// the caller's receiver is the aggregator that orders nothing and
/// merely tallies.  `GridStart`/`GridDone` bracket the whole sweep.
///
/// Streaming cannot change results: instrumentation only observes, so
/// the returned `Vec<RunResult>` is byte-identical across `stream` on /
/// off and across job counts (`tests/streaming.rs`).  Send failures are
/// ignored — a detached viewer never stalls or kills a sweep.
pub fn run_cells_streamed(
    cells: &[StreamCell<'_>],
    base: &SimConfig,
    jobs: usize,
    stream: Option<&StreamSpec>,
) -> Vec<RunResult> {
    if let Some(sp) = stream {
        let _ = sp.sender().send(StreamEvent::GridStart {
            cells: cells.len() as u64,
        });
    }
    let runs = crate::parallel::run_indexed(cells.len(), jobs, |i| {
        let cell = &cells[i];
        let mut cfg = SimConfig {
            pressure: cell.pressure,
            ..*base
        };
        let Some(sp) = stream else {
            return simulate(cell.trace, cell.arch, &cfg);
        };
        let tx = sp.sender();
        let _ = tx.send(StreamEvent::CellStart {
            cell: i as u64,
            label: cell.label.clone(),
        });
        let run = if sp.cadence == 0 {
            simulate(cell.trace, cell.arch, &cfg)
        } else {
            // Populated node gauges need the periodic sampler; default
            // it to the snapshot cadence when the caller left it off.
            if cfg.obs_sample_period == 0 {
                cfg.obs_sample_period = sp.cadence;
            }
            let snap_tx = tx.clone();
            let (run, _registry) = simulate_streamed(
                cell.trace,
                cell.arch,
                &cfg,
                sp.window,
                sp.cadence,
                move |snap| {
                    let _ = snap_tx.send(StreamEvent::Snap {
                        cell: i as u64,
                        snap,
                    });
                },
            );
            run
        };
        let _ = tx.send(StreamEvent::CellDone {
            cell: i as u64,
            cycles: run.cycles,
        });
        run
    });
    if let Some(sp) = stream {
        let _ = sp.sender().send(StreamEvent::GridDone {
            cells: cells.len() as u64,
        });
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_contains_all_bars() {
        let data = run_figure(
            App::Ocean,
            SizeClass::Tiny,
            &[0.1, 0.9],
            &SimConfig::default(),
        );
        // 1 CC-NUMA + 4 archs x 2 pressures.
        assert_eq!(data.bars.len(), 9);
        assert_eq!(data.bars[0].relative_time, 1.0);
        assert_eq!(data.app, "ocean");
    }

    #[test]
    fn table6_row_is_consistent() {
        let row = run_table6(App::Em3d, SizeClass::Tiny, &SimConfig::default());
        assert!(row.total_remote > 0);
        assert!(row.relocated <= row.total_remote);
        assert!((0.0..=1.0).contains(&row.fraction));
    }

    #[test]
    fn run_cell_respects_pressure() {
        let r = run_cell(
            App::Ocean,
            SizeClass::Tiny,
            Arch::Scoma,
            0.7,
            &SimConfig::default(),
        );
        assert!((r.pressure - 0.7).abs() < 1e-12);
    }
}
