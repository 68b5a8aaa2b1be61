//! The five memory-architecture policies.
//!
//! The substrates (caches, directory, VM) are identical across the five
//! machines; what differs is *policy*: how a page is first mapped, when a
//! hot CC-NUMA page is upgraded to S-COMA, where the replacement frame
//! comes from, and whether/how the relocation rate backs off under
//! thrashing.  [`PolicyState`] holds one node's policy state and answers
//! those questions for the machine layer.
//!
//! | | initial map | upgrade trigger | frame source | back-off |
//! |---|---|---|---|---|
//! | CC-NUMA  | NUMA | never | — | — |
//! | S-COMA   | S-COMA (mandatory) | — | pool, else immediate victim | none |
//! | R-NUMA   | NUMA | refetch >= 64 (fixed) | pool, else immediate victim | none |
//! | VC-NUMA  | NUMA | refetch >= T | pool, else immediate victim | break-even evaluation every 2 replacements/cached page |
//! | AS-COMA  | S-COMA while pool lasts | refetch >= T | pool (daemon-refilled) only | daemon failure raises T, doubles daemon period, switches to NUMA-first; recovery lowers T |

use crate::config::{Arch, PolicyParams};
pub use ascoma_vm::backoff::{adjust_period, DaemonAdjust};
use ascoma_vm::backoff::{BackoffParams, BackoffState};

/// What mode a faulting page should be mapped in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapChoice {
    /// Back with a local frame (S-COMA).
    Scoma,
    /// Map to the remote home (CC-NUMA).
    Numa,
}

/// Where the frame for an S-COMA mapping/upgrade may come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameSource {
    /// Only the free pool; if empty (after a daemon attempt), give up.
    PoolOnly,
    /// The free pool, else evict a victim page on the spot.
    PoolOrVictim,
}

/// Per-node policy state for one run.
///
/// The threshold automaton itself lives in [`ascoma_vm::backoff`] so
/// the conformance checker can drive the production transition
/// function; this wrapper adds the architecture gate and the VC-NUMA
/// break-even window.
#[derive(Debug, Clone)]
pub struct PolicyState {
    arch: Arch,
    params: PolicyParams,
    /// The threshold/latch automaton (raises, drops, NUMA-first,
    /// relocation-disabled).
    backoff: BackoffState,
    /// VC-NUMA: replacements since the last break-even evaluation.
    vc_replacements: u32,
    /// VC-NUMA: refetches absorbed by pages replaced in this window.
    vc_absorbed: u64,
}

impl PolicyState {
    /// Fresh policy state for `arch`.
    pub fn new(arch: Arch, params: PolicyParams) -> Self {
        let backoff = BackoffState::new(BackoffParams {
            initial_threshold: params.initial_threshold,
            increment: params.threshold_increment,
            cap: params.threshold_cap,
            enabled: params.ascoma_backoff,
        });
        Self {
            arch,
            params,
            backoff,
            vc_replacements: 0,
            vc_absorbed: 0,
        }
    }

    /// The architecture this policy implements.
    pub fn arch(&self) -> Arch {
        self.arch
    }

    /// Current relocation threshold.
    pub fn threshold(&self) -> u32 {
        self.backoff.threshold()
    }

    /// (raises, drops) back-off statistics.
    pub fn backoff_stats(&self) -> (u64, u64) {
        self.backoff.stats()
    }

    /// How to map a faulting remote page, given whether a free frame is
    /// currently available.
    pub fn initial_map(&self, free_frame_available: bool) -> MapChoice {
        match self.arch {
            Arch::CcNuma | Arch::RNuma | Arch::VcNuma => MapChoice::Numa,
            // Pure S-COMA *must* map locally even with no free frame
            // (a victim is evicted on the spot).
            Arch::Scoma => MapChoice::Scoma,
            Arch::AsComa => {
                if self.params.ascoma_scoma_first
                    && !self.backoff.numa_first()
                    && free_frame_available
                {
                    MapChoice::Scoma
                } else {
                    MapChoice::Numa
                }
            }
        }
    }

    /// Whether a refetch notice at `count` should trigger relocation.
    pub fn should_relocate(&self, count: u32) -> bool {
        if !self.arch.relocates() || self.backoff.relocation_disabled() {
            return false;
        }
        count >= self.backoff.threshold()
    }

    /// Where the frame for an S-COMA mapping may come from.
    pub fn frame_source(&self) -> FrameSource {
        match self.arch {
            // R-NUMA "always upgrades pages to S-COMA mode when their
            // refetch threshold is exceeded, even if it must evict another
            // hot page to do so"; VC-NUMA and pure S-COMA share the
            // fault-time-victim mechanism.
            Arch::Scoma | Arch::RNuma | Arch::VcNuma => FrameSource::PoolOrVictim,
            // AS-COMA relies on the daemon-maintained pool and *skips* the
            // relocation when the pool cannot supply a frame.
            Arch::AsComa => FrameSource::PoolOnly,
            Arch::CcNuma => FrameSource::PoolOnly, // never used
        }
    }

    /// Whether this architecture runs the pageout daemon to keep the pool
    /// between `free_min` and `free_target` (S-COMA and AS-COMA;
    /// R-NUMA/VC-NUMA evict at fault time instead, per their papers).
    pub fn uses_daemon(&self) -> bool {
        matches!(self.arch, Arch::Scoma | Arch::AsComa)
    }

    /// AS-COMA: notify that a daemon run finished.  `reached_target`
    /// false = thrashing detected -> raise the threshold, latch NUMA-first
    /// allocation and slow the daemon ("dynamically backs off the rate of
    /// page remappings").  Success at an elevated threshold = cold pages
    /// exist again -> recover one step.  Returns the factor to apply to
    /// the daemon period (2 = double, 1 = keep; recovery may halve).
    pub fn on_daemon_result(&mut self, reached_target: bool) -> DaemonAdjust {
        if self.arch != Arch::AsComa {
            return DaemonAdjust::Keep;
        }
        self.backoff.on_daemon_result(reached_target)
    }

    /// VC-NUMA: record a page replacement that had absorbed
    /// `absorbed_refetches` while S-COMA-resident.  Every
    /// `2 x page_cache_frames` replacements the break-even indicator is
    /// evaluated ("VC-NUMA only checks its backoff indicator when an
    /// average of two replacements per cached page have occurred").
    pub fn on_vc_replacement(&mut self, absorbed_refetches: u32, cache_frames: u32) {
        if self.arch != Arch::VcNuma {
            return;
        }
        self.vc_replacements += 1;
        self.vc_absorbed += absorbed_refetches as u64;
        let window = 2 * cache_frames.max(1);
        if self.vc_replacements >= window {
            let avg = self.vc_absorbed / self.vc_replacements as u64;
            if avg < self.params.vc_break_even as u64 {
                // Replacements are not paying for themselves: back off.
                self.backoff.raise();
            } else if avg >= 2 * self.params.vc_break_even as u64
                && self.backoff.threshold() > self.params.initial_threshold
            {
                self.backoff.lower();
            }
            self.vc_replacements = 0;
            self.vc_absorbed = 0;
        }
    }

    /// Whether relocation has been fully disabled (AS-COMA extreme
    /// back-off).
    pub fn relocation_disabled(&self) -> bool {
        self.backoff.relocation_disabled()
    }

    /// AS-COMA NUMA-first latch state (for tests/reports).
    pub fn numa_first(&self) -> bool {
        self.backoff.numa_first()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> PolicyParams {
        PolicyParams::default()
    }

    #[test]
    fn ccnuma_never_relocates_or_maps_scoma() {
        let p = PolicyState::new(Arch::CcNuma, params());
        assert_eq!(p.initial_map(true), MapChoice::Numa);
        assert!(!p.should_relocate(u32::MAX));
    }

    #[test]
    fn scoma_always_maps_scoma() {
        let p = PolicyState::new(Arch::Scoma, params());
        assert_eq!(p.initial_map(false), MapChoice::Scoma);
        assert_eq!(p.frame_source(), FrameSource::PoolOrVictim);
        assert!(p.uses_daemon());
    }

    #[test]
    fn rnuma_fixed_threshold() {
        let mut p = PolicyState::new(Arch::RNuma, params());
        assert_eq!(p.initial_map(true), MapChoice::Numa);
        assert!(!p.should_relocate(63));
        assert!(p.should_relocate(64));
        // R-NUMA has no back-off: daemon results and replacements are
        // ignored.
        p.on_vc_replacement(0, 10);
        assert_eq!(p.threshold(), 64);
        p.on_daemon_result(false);
        assert_eq!(p.threshold(), 64);
    }

    #[test]
    fn ascoma_prefers_scoma_while_pool_lasts() {
        let p = PolicyState::new(Arch::AsComa, params());
        assert_eq!(p.initial_map(true), MapChoice::Scoma);
        assert_eq!(p.initial_map(false), MapChoice::Numa);
        assert_eq!(p.frame_source(), FrameSource::PoolOnly);
    }

    #[test]
    fn ascoma_backoff_raises_threshold_and_latches_numa() {
        let mut p = PolicyState::new(Arch::AsComa, params());
        assert_eq!(p.on_daemon_result(false), DaemonAdjust::Slow);
        assert_eq!(p.threshold(), 64 + 32);
        assert!(p.numa_first());
        assert_eq!(p.initial_map(true), MapChoice::Numa);
        assert_eq!(p.backoff_stats().0, 1);
    }

    #[test]
    fn ascoma_recovery_lowers_threshold_and_unlatches() {
        let mut p = PolicyState::new(Arch::AsComa, params());
        p.on_daemon_result(false);
        p.on_daemon_result(false);
        assert_eq!(p.threshold(), 128);
        assert_eq!(p.on_daemon_result(true), DaemonAdjust::Hasten);
        assert_eq!(p.threshold(), 96);
        assert!(!p.numa_first());
        // Recovery never goes below the initial threshold.
        p.on_daemon_result(true);
        p.on_daemon_result(true);
        assert_eq!(p.threshold(), 64);
    }

    #[test]
    fn ascoma_disables_relocation_past_cap() {
        let mut p = PolicyState::new(Arch::AsComa, params());
        let steps = (params().threshold_cap / params().threshold_increment) + 2;
        for _ in 0..steps {
            p.on_daemon_result(false);
        }
        assert!(p.relocation_disabled());
        assert!(!p.should_relocate(u32::MAX));
        // Sustained recovery re-enables it.
        for _ in 0..steps {
            p.on_daemon_result(true);
        }
        assert!(!p.relocation_disabled());
        assert!(p.should_relocate(64));
    }

    #[test]
    fn ascoma_backoff_ablation_is_inert() {
        let mut p = PolicyState::new(
            Arch::AsComa,
            PolicyParams {
                ascoma_backoff: false,
                ..params()
            },
        );
        assert_eq!(p.on_daemon_result(false), DaemonAdjust::Keep);
        assert_eq!(p.threshold(), 64);
    }

    #[test]
    fn ascoma_scoma_first_ablation_maps_numa() {
        let p = PolicyState::new(
            Arch::AsComa,
            PolicyParams {
                ascoma_scoma_first: false,
                ..params()
            },
        );
        assert_eq!(p.initial_map(true), MapChoice::Numa);
    }

    #[test]
    fn vcnuma_break_even_raises_on_cheap_replacements() {
        let mut p = PolicyState::new(Arch::VcNuma, params());
        let frames = 4;
        // 2 * frames replacements, each having absorbed only 1 refetch
        // (far below the break-even of 32): the indicator fires.
        for _ in 0..2 * frames {
            p.on_vc_replacement(1, frames);
        }
        assert_eq!(p.threshold(), 64 + 32);
    }

    #[test]
    fn vcnuma_evaluation_is_infrequent() {
        let mut p = PolicyState::new(Arch::VcNuma, params());
        let frames = 100;
        for _ in 0..100 {
            p.on_vc_replacement(0, frames);
        }
        // Only 100 of the 200 replacements needed: no evaluation yet —
        // precisely the laziness the paper criticizes.
        assert_eq!(p.threshold(), 64);
    }

    #[test]
    fn vcnuma_recovers_on_valuable_replacements() {
        let mut p = PolicyState::new(Arch::VcNuma, params());
        let frames = 2;
        for _ in 0..4 {
            p.on_vc_replacement(1, frames);
        }
        assert_eq!(p.threshold(), 96);
        for _ in 0..4 {
            p.on_vc_replacement(100, frames);
        }
        assert_eq!(p.threshold(), 64);
    }

    #[test]
    fn adjust_period_clamps() {
        assert_eq!(adjust_period(100, DaemonAdjust::Keep, 100), 100);
        assert_eq!(adjust_period(100, DaemonAdjust::Slow, 100), 200);
        assert_eq!(adjust_period(200, DaemonAdjust::Hasten, 100), 100);
        assert_eq!(adjust_period(100, DaemonAdjust::Hasten, 100), 100);
        // Slow saturates at 64x initial.
        let mut per = 100;
        for _ in 0..20 {
            per = adjust_period(per, DaemonAdjust::Slow, 100);
        }
        assert_eq!(per, 6400);
    }
}
