//! Simulation configuration (Table 1 plus run control).

use serde::{Deserialize, Serialize};
use trrip_cache::HierarchyConfig;
use trrip_compiler::LayoutKind;
use trrip_core::ClassifierConfig;
use trrip_cpu::CoreConfig;
use trrip_mem::PageSize;
use trrip_os::OverlapPolicy;
use trrip_policies::PolicyKind;

/// Everything one simulation run needs beyond the workload itself.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// The Table 1 core, whose timing parameters are all constants.
    pub core: CoreConfig,
    /// Cache hierarchy (includes the L2 policy under test).
    pub hierarchy: HierarchyConfig,
    /// Page size used by the loader/MMU.
    pub page_size: PageSize,
    /// Mixed-page temperature policy (§4.9).
    pub overlap: OverlapPolicy,
    /// Code layout: PGO (the paper's default) or source order.
    pub layout: LayoutKind,
    /// Temperature classifier percentiles (Figure 8 sweeps hot).
    pub classifier: ClassifierConfig,
    /// Instructions executed before measurement starts (cache and
    /// predictor warm-up; the scaled version of Table 2's fast-forward).
    pub fast_forward: u64,
    /// Instructions measured (the paper runs 400 M; the synthetic traces
    /// reach steady state much sooner).
    pub instructions: u64,
    /// Instructions of the training run used to collect the PGO profile.
    pub train_instructions: u64,
    /// Attach the Figure 3 reuse-distance profiler (costs time).
    pub measure_reuse: bool,
    /// Attach the Figure 7 costly-miss tracker.
    pub track_costly: bool,
}

impl SimConfig {
    /// The paper configuration at the default (CI-friendly) scale with
    /// the given L2 policy.
    #[must_use]
    pub fn paper(policy: PolicyKind) -> SimConfig {
        SimConfig {
            core: CoreConfig,
            hierarchy: HierarchyConfig::paper(policy),
            page_size: PageSize::Size4K,
            overlap: OverlapPolicy::default(),
            layout: LayoutKind::Pgo,
            classifier: ClassifierConfig::llvm_defaults(),
            fast_forward: 300_000,
            instructions: 3_000_000,
            train_instructions: 1_500_000,
            measure_reuse: false,
            track_costly: false,
        }
    }

    /// A fast configuration for unit/integration tests.
    #[must_use]
    pub fn quick(policy: PolicyKind) -> SimConfig {
        SimConfig {
            fast_forward: 30_000,
            instructions: 300_000,
            train_instructions: 200_000,
            ..SimConfig::paper(policy)
        }
    }

    /// Replaces the L2 policy, keeping everything else.
    #[must_use]
    pub fn with_policy(mut self, policy: PolicyKind) -> SimConfig {
        self.hierarchy.l2_policy = policy;
        self
    }

    /// Scales all three run lengths by an integer factor (experiment
    /// binaries expose this as `--scale`).
    #[must_use]
    pub fn scaled(mut self, factor: u64) -> SimConfig {
        self.fast_forward *= factor;
        self.instructions *= factor;
        self.train_instructions *= factor;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trrip_cache::{CacheConfig, Hierarchy, ServedBy, StridePrefetcher};
    use trrip_cpu::BranchPredictor;
    use trrip_policies::{Emissary, SetDueling, Ship};

    #[test]
    fn paper_config_matches_table1() {
        assert_eq!(CoreConfig::DISPATCH_WIDTH, 6);
        assert_eq!(CoreConfig::ROB_ENTRIES, 128);
        assert_eq!(CoreConfig::OOO_HIDE_CYCLES, 21);
        assert_eq!((CoreConfig::FDIP_MAX_LINES, CoreConfig::FDIP_LOOKAHEAD_INSTRS), (2, 48));
        assert_eq!(CoreConfig::L1_HIT_CYCLES, 3);
        assert_eq!(CoreConfig::STARVATION_THRESHOLD, 21);
        assert_eq!(CoreConfig::STARVED_LINES, 8192);
        assert_eq!(CoreConfig::FREQUENCY_GHZ, 2.0);
        assert_eq!(BranchPredictor::BTB_ENTRIES, 1024);
        assert_eq!(BranchPredictor::INDIRECT_BTB_ENTRIES, 512);
        assert_eq!(BranchPredictor::LOOP_ENTRIES, 256);
        assert_eq!(BranchPredictor::GLOBAL_ENTRIES, 1024);
        assert_eq!(BranchPredictor::RAS_DEPTH, 32);
        assert_eq!(BranchPredictor::MISPREDICT_PENALTY, 8);

        // The memory side: three fixed geometries, six latencies and DRAM.
        let geometry = |c: CacheConfig| (c.size_bytes, c.ways);
        assert_eq!(geometry(Hierarchy::L1I), (64 << 10, 4));
        assert_eq!(geometry(Hierarchy::L1D), (64 << 10, 4));
        assert_eq!(geometry(Hierarchy::SLC), (1 << 20, 16));
        assert_eq!((Hierarchy::L1_TAG_CYCLES, Hierarchy::L1_DATA_CYCLES), (1, 3));
        assert_eq!((Hierarchy::L2_TAG_CYCLES, Hierarchy::L2_DATA_CYCLES), (8, 12));
        assert_eq!((Hierarchy::SLC_TAG_CYCLES, Hierarchy::SLC_DATA_CYCLES), (10, 30));
        assert_eq!(Hierarchy::DRAM_LATENCY, 400);
        // §4.3's mechanism sizes.
        assert_eq!(
            (Ship::SHCT_ENTRIES, Ship::COUNTER_BITS, Ship::SIGNATURE_BITS),
            (1 << 18, 2, 14)
        );
        assert_eq!((SetDueling::LEADERS_PER_POLICY, SetDueling::PSEL_BITS), (32, 10));
        assert_eq!([4, 8, 16].map(Emissary::reservation), [2, 4, 8]);
        assert_eq!((StridePrefetcher::TABLE_ENTRIES, StridePrefetcher::DEGREE), (4096, 4));

        let c = SimConfig::paper(PolicyKind::Trrip1);
        assert_eq!(geometry(c.hierarchy.l2), (128 << 10, 8));
        assert_eq!(c.hierarchy.l2_policy, PolicyKind::Trrip1);
    }

    /// The core hides an L1 hit's latency and the hierarchy charges it.
    /// `trrip-cpu` does not depend on `trrip-cache`, so this test is what
    /// ties the two values.
    #[test]
    fn the_core_hides_exactly_an_l1_hit() {
        assert_eq!(CoreConfig::L1_HIT_CYCLES, Hierarchy::L1_DATA_CYCLES);
    }

    /// The core tells an L1 hit from a miss by its cycles alone: an L1
    /// hit costs exactly what the core hides, and every level below
    /// costs more.
    #[test]
    fn only_an_l1_hit_costs_what_the_core_hides() {
        assert_eq!(ServedBy::L1.cycles(), CoreConfig::L1_HIT_CYCLES);
        for level in [ServedBy::L2, ServedBy::Slc, ServedBy::Dram] {
            assert!(level.cycles() > CoreConfig::L1_HIT_CYCLES, "{level:?}");
        }
    }

    #[test]
    fn with_policy_swaps_only_policy() {
        let a = SimConfig::paper(PolicyKind::Srrip);
        let b = a.clone().with_policy(PolicyKind::Clip);
        assert_eq!(b.hierarchy.l2_policy, PolicyKind::Clip);
        assert_eq!(a.instructions, b.instructions);
    }

    #[test]
    fn scaling_multiplies_run_lengths() {
        let c = SimConfig::quick(PolicyKind::Srrip).scaled(3);
        assert_eq!(c.instructions, 900_000);
        assert_eq!(c.fast_forward, 90_000);
    }
}
