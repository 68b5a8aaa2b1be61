//! Golden-determinism fixture: a committed digest of one full
//! [`RunResult`] (em3d at 70% pressure, default size, both the AS-COMA
//! and CC-NUMA architectures), recomputed and compared on every test
//! run.
//!
//! Hot-path work (scheduler, dispatch tables, network caching) must be
//! behavior-preserving to the cycle; this fixture catches any drift in
//! seconds, *without* regenerating the whole equivalence grid.  If a
//! change is intentionally behavior-altering (it should not be, for
//! perf PRs), rebless with:
//!
//! ```text
//! ASCOMA_BLESS=1 cargo test --release --test golden_digest -- --nocapture
//! ```
//!
//! and commit the printed digests.

use ascoma::{simulate, Arch, SimConfig};
use ascoma_workloads::{App, SizeClass};

/// FNV-1a 64-bit over the full `Debug` rendering of the result.  The
/// Debug form covers every public field (exec breakdowns, miss classes,
/// latencies, kernel stats, protocol stats, thresholds, trajectories),
/// so any single-cycle drift anywhere in the result changes the digest.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn digest(arch: Arch) -> u64 {
    let cfg = SimConfig::at_pressure(0.7);
    let trace = App::Em3d.build(SizeClass::Default, cfg.geometry.page_bytes());
    let r = simulate(&trace, arch, &cfg);
    fnv1a(format!("{r:?}").as_bytes())
}

/// Committed digests of the seed behavior (the hot-path rewrite's
/// baseline).
const GOLDEN_ASCOMA: u64 = 0xf6ca_c5ed_3355_8b02;
const GOLDEN_CCNUMA: u64 = 0x0326_d2e3_da8a_d208;

fn check(arch: Arch, golden: u64) {
    let got = digest(arch);
    if std::env::var_os("ASCOMA_BLESS").is_some() {
        println!("golden digest {}: {got:#018x}", arch.name());
        return;
    }
    assert_eq!(
        got,
        golden,
        "em3d@0.7 {} RunResult drifted from the committed golden digest \
         ({got:#018x} != {golden:#018x}); hot-path changes must be \
         behavior-preserving (rebless only for intentional model changes)",
        arch.name()
    );
}

#[test]
fn em3d_ascoma_matches_golden_digest() {
    check(Arch::AsComa, GOLDEN_ASCOMA);
}

#[test]
fn em3d_ccnuma_matches_golden_digest() {
    check(Arch::CcNuma, GOLDEN_CCNUMA);
}
