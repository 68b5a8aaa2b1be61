//! Benchmark binary for the simulator workloads.
//!
//! ```text
//! perfbench-sim --workload paper-grid|measured-thrash --seed N \
//!     --seconds S --trace 0|1 [--reference results/figures.csv] [--spans FILE]
//! ```
//!
//! Prints the simulated-statistics digest and, as the last line, the
//! result JSON; exits 1 if any output check failed.

use perfbench_common::{calibrate_ns, die, Args};
use perfbench_sim::{grid, thrash};

fn main() {
    let args = Args::from_env();
    let calib_ns = calibrate_ns();
    println!("host.calib_ns {calib_ns:.4}");
    let report = match args.workload.as_str() {
        "paper-grid" => grid::run(&args, calib_ns),
        "measured-thrash" => thrash::run(&args, calib_ns),
        other => die(&format!(
            "unknown workload '{other}' (this binary runs paper-grid, measured-thrash)"
        )),
    };
    report.finish(args.trace);
}
