//! The simulator workloads of the repository benchmark.
//!
//! * [`grid`] — `paper-grid`: the 126-cell figure grid, untraced, on the
//!   cell-parallel engine the `figures` binary runs.
//! * [`thrash`] — `measured-thrash`: three serial `simulate_measured`
//!   cells where the observability layer dominates.
//!
//! Both drive the simulator only through its public functions and time
//! each layer from outside, around the calls into it.  [`check`] holds
//! the output check (reference CSV, invariants, digest), [`replay`] the
//! per-operation layer replay.

// Wall-clock reads are this crate's whole purpose.
#![allow(clippy::disallowed_methods)]

pub mod check;
pub mod grid;
pub mod replay;
pub mod thrash;

use ascoma_workloads::apps::{em3d::Em3dParams, radix::RadixParams};
use ascoma_workloads::{App, SizeClass, Trace};
use perfbench_common::{median, percentile, Report};

/// Build `app` at [`SizeClass::Default`].  A non-zero `seed` reseeds the
/// two seeded generators (em3d's graph, radix's scatter orders); seed 0,
/// and every other generator, keep the built-in inputs that
/// `results/figures.csv` was made from.
pub fn build_app(app: App, seed: u64, page_bytes: u64) -> Trace {
    match app {
        App::Em3d => {
            let d = Em3dParams::default();
            Em3dParams {
                seed: d.seed.wrapping_add(seed),
                ..d
            }
            .build(page_bytes)
        }
        App::Radix => {
            let d = RadixParams::default();
            RadixParams {
                seed: d.seed.wrapping_add(seed),
                ..d
            }
            .build(page_bytes)
        }
        other => other.build(SizeClass::Default, page_bytes),
    }
}

/// Whether `seed` changed `app`'s inputs (so the reference rows do not
/// apply to it).
pub fn reseeded(app_name: &str, seed: u64) -> bool {
    seed != 0 && matches!(app_name, "em3d" | "radix")
}

/// The `machine.*` metrics from the cells' span seconds, the memory
/// operations those cells simulated, and the em3d cells' seconds.
pub fn machine_metrics(report: &mut Report, cell_secs: &[f64], ops: f64, em3d_secs: f64) {
    let busy: f64 = cell_secs.iter().sum();
    let cell_ms: Vec<f64> = cell_secs.iter().map(|s| s * 1e3).collect();
    report.set("machine.cell_ms_p50", median(&cell_ms));
    report.set("machine.cell_ms_p90", percentile(&cell_ms, 0.9));
    report.set("machine.cell_samples", cell_ms.len() as f64);
    report.set("machine.ns_per_op", busy * 1e9 / ops);
    report.set("machine.em3d_share", em3d_secs / busy);
}
