//! The output check: committed reference rows match, and a one-cycle edit
//! to a copy of the reference makes the workload fail.

use ascoma::{simulate, Arch, SimConfig};
use ascoma_workloads::{App, SizeClass};
use perfbench_sim::check::{repeat_share, Reference};
use std::path::{Path, PathBuf};
use std::process::Command;

fn reference_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/figures.csv")
}

fn committed() -> String {
    std::fs::read_to_string(reference_path()).expect("results/figures.csv")
}

/// `text` with one more cycle in the row starting with `prefix`.
fn bump_cycles(text: &str, prefix: &str) -> String {
    let mut hit = 0;
    let out: Vec<String> = text
        .lines()
        .map(|l| {
            if !l.starts_with(prefix) {
                return l.to_string();
            }
            hit += 1;
            let mut f: Vec<String> = l.split(',').map(String::from).collect();
            f[4] = (f[4].parse::<u64>().unwrap() + 1).to_string();
            f.join(",")
        })
        .collect();
    assert_eq!(hit, 1, "{prefix} must name one row");
    out.join("\n") + "\n"
}

#[test]
fn a_cell_matches_its_row_and_not_an_edited_one() {
    let cfg = SimConfig::default();
    let trace = App::Ocean.build(SizeClass::Default, cfg.geometry.page_bytes());
    let run = simulate(&trace, Arch::CcNuma, &cfg);
    let good = Reference::parse(&committed()).unwrap();
    assert_eq!(good.check(&run), Ok(()));
    let bad = Reference::parse(&bump_cycles(&committed(), "ocean,CCNUMA,0.50,")).unwrap();
    assert!(bad.check(&run).is_err());
}

fn run_thrash(reference: &Path) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench-sim"))
        .args([
            "--workload",
            "measured-thrash",
            "--seed",
            "0",
            "--seconds",
            "1",
        ])
        .args(["--trace", "0", "--reference"])
        .arg(reference)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default().to_string();
    (out.status.code().unwrap_or(-1), last)
}

#[test]
fn one_cycle_edit_to_the_reference_fails_the_workload() {
    let (code, last) = run_thrash(&reference_path());
    assert_eq!(code, 0, "{last}");
    assert!(
        last.contains("\"correct\": true") && last.contains("\"failed\": 0,"),
        "{last}"
    );

    let edited = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("figures-edited.csv");
    std::fs::write(&edited, bump_cycles(&committed(), "barnes,SCOMA,0.50,")).unwrap();
    let (code, last) = run_thrash(&edited);
    assert_eq!(code, 1, "{last}");
    assert!(last.contains("\"correct\": false"), "{last}");
    assert!(!last.contains("\"failed\": 0,"), "{last}");
}

#[test]
fn repeat_share_counts_lower_pressure_repeats() {
    let cfg = SimConfig::at_pressure(0.1);
    let trace = App::Ocean.build(SizeClass::Tiny, cfg.geometry.page_bytes());
    let low = simulate(&trace, Arch::Scoma, &cfg);
    let same = ascoma::RunResult {
        pressure: 0.3,
        ..low.clone()
    };
    let other = ascoma::RunResult {
        pressure: 0.5,
        cycles: low.cycles + 1,
        ..low.clone()
    };
    let share = repeat_share(&[&low, &same, &other]);
    assert!((share - 1.0 / 3.0).abs() < 1e-12, "{share}");
}
