//! Output checks for the simulator workloads, and the layer counters
//! summed from [`RunResult`]s.

use ascoma::RunResult;
use perfbench_common::Report;
use std::collections::HashMap;
use std::path::Path;

/// Columns compared against the reference: cycles, the six execution
/// buckets and the five miss-location buckets.
pub type Row = [u64; 12];

/// The committed figure data, keyed by `(app, arch, pressure)`.
#[derive(Debug, Default)]
pub struct Reference {
    rows: HashMap<(String, String, String), Row>,
}

impl Reference {
    /// Read a `figures --csv` file.
    pub fn load(path: &Path) -> Result<Reference, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read reference {}: {e}", path.display()))?;
        Reference::parse(&text)
    }

    /// Parse `figures --csv` output (one header line per app).
    pub fn parse(text: &str) -> Result<Reference, String> {
        let mut rows = HashMap::new();
        for (n, line) in text.lines().enumerate() {
            if line.is_empty() || line.starts_with("app,") {
                continue;
            }
            let f: Vec<&str> = line.split(',').collect();
            if f.len() != 16 {
                return Err(format!("reference line {}: {} fields", n + 1, f.len()));
            }
            let mut row = [0u64; 12];
            for (slot, v) in row.iter_mut().zip(&f[4..]) {
                *slot = v
                    .parse()
                    .map_err(|_| format!("reference line {}: bad number '{v}'", n + 1))?;
            }
            rows.insert((f[0].into(), f[1].into(), f[2].into()), row);
        }
        if rows.is_empty() {
            return Err("reference has no rows".into());
        }
        Ok(Reference { rows })
    }

    /// Compare `run` with its reference row.
    pub fn check(&self, run: &RunResult) -> Result<(), String> {
        let key = key_of(run);
        let want = self
            .rows
            .get(&key)
            .ok_or_else(|| format!("{key:?}: no reference row"))?;
        let got = row_of(run);
        if &got == want {
            Ok(())
        } else {
            Err(format!("{key:?}: got {got:?}, reference {want:?}"))
        }
    }
}

fn key_of(run: &RunResult) -> (String, String, String) {
    (
        run.workload.clone(),
        run.arch.name().to_string(),
        format!("{:.2}", run.pressure),
    )
}

/// The reference columns of `run`, as `figures --csv` prints them.
pub fn row_of(run: &RunResult) -> Row {
    let e = &run.exec;
    let m = run.miss.chart();
    [
        run.cycles, e.u_sh_mem, e.k_base, e.k_overhd, e.u_instr, e.u_lc_mem, e.sync, m[0], m[1],
        m[2], m[3], m[4],
    ]
}

/// Internal consistency every run must have, whatever its inputs: node
/// buckets sum to the machine buckets, the parallel time is the slowest
/// node's total, and each back-off trajectory ends at its final
/// threshold.
pub fn invariants(run: &RunResult) -> Result<(), String> {
    let mut sum = ascoma_sim::stats::ExecBreakdown::default();
    for e in &run.exec_per_node {
        sum.add(e);
    }
    if sum != run.exec {
        return Err(format!("{:?}: node buckets do not sum", key_of(run)));
    }
    let slowest = run.exec_per_node.iter().map(|e| e.total()).max();
    if slowest != Some(run.cycles) {
        return Err(format!("{:?}: cycles != slowest node", key_of(run)));
    }
    let ends: Vec<u32> = run
        .threshold_trajectories
        .iter()
        .map(|t| t.last().map_or(0, |s| s.threshold))
        .collect();
    if ends != run.final_thresholds {
        return Err(format!("{:?}: trajectories disagree", key_of(run)));
    }
    Ok(())
}

/// Check one cell: invariants always, the reference row unless `seed`
/// changed the cell's inputs.  Counts into `report`; prints failures.
pub fn check_cell(report: &mut Report, run: &RunResult, reference: &Reference, seed: u64) {
    let mut res = invariants(run);
    if res.is_ok() && !crate::reseeded(&run.workload, seed) {
        res = reference.check(run);
    }
    if let Err(e) = &res {
        eprintln!("check failed: {e}");
    }
    report.check(res.is_ok());
}

/// `run` without the fields only an observed run fills in.
pub fn unobserved(run: &RunResult) -> RunResult {
    RunResult {
        obs: None,
        metrics: None,
        ..run.clone()
    }
}

/// Layer counters summed over runs (the `mem`/`proto`/`net`/`vm` rows of
/// the per-layer table).
pub fn layer_counts(runs: &[&RunResult]) -> Vec<(&'static str, f64)> {
    let sum = |f: &dyn Fn(&RunResult) -> u64| runs.iter().map(|r| f(r)).sum::<u64>() as f64;
    vec![
        ("sim.cycles", sum(&|r| r.cycles)),
        ("miss.home", sum(&|r| r.miss.home)),
        ("miss.rac", sum(&|r| r.miss.rac)),
        ("miss.scoma", sum(&|r| r.miss.scoma)),
        ("miss.remote", sum(&|r| r.miss.remote())),
        ("proto.fetches", sum(&|r| fetches(r))),
        ("proto.fetch_3hop", sum(&|r| r.proto.fetch_3hop)),
        ("proto.invalidations", sum(&|r| r.proto.invalidations)),
        ("net.messages", sum(&|r| r.net_messages)),
        ("net.queued_cycles", sum(&|r| r.net_queued_cycles)),
        ("vm.upgrades", sum(&|r| r.kernel.upgrades)),
        ("vm.downgrades", sum(&|r| r.kernel.downgrades)),
        ("vm.daemon_runs", sum(&|r| r.kernel.daemon_runs)),
        ("vm.daemon_failures", sum(&|r| r.kernel.daemon_failures)),
        ("vm.pages_reclaimed", sum(&|r| r.kernel.pages_reclaimed)),
        ("vm.blocks_flushed", sum(&|r| r.kernel.blocks_flushed)),
    ]
}

/// Directory fetch transactions of a run (local, 2-hop and 3-hop).
pub fn fetches(r: &RunResult) -> u64 {
    r.proto.fetch_local + r.proto.fetch_2hop + r.proto.fetch_3hop
}

/// Share of `runs` whose simulated statistics equal those of a
/// lower-pressure run of the same app and architecture.
pub fn repeat_share(runs: &[&RunResult]) -> f64 {
    let same = |a: &RunResult, b: &RunResult| {
        RunResult {
            pressure: 0.0,
            ..a.clone()
        } == RunResult {
            pressure: 0.0,
            ..b.clone()
        }
    };
    let repeats = runs
        .iter()
        .filter(|r| {
            runs.iter().any(|o| {
                o.workload == r.workload
                    && o.arch == r.arch
                    && o.pressure < r.pressure
                    && same(o, r)
            })
        })
        .count();
    repeats as f64 / runs.len().max(1) as f64
}
