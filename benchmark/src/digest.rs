//! FNV-1a-64 digests of what the program produced: one per simulated
//! cell, one per report file. Equal digests across repetitions, engines
//! and the committed golden files are the benchmark's correctness check.

use trrip_cache::AccessStats;
use trrip_sim::SimResult;

/// Incremental FNV-1a over bytes; integers are fed little-endian.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(mut self, bytes: &[u8]) -> Fnv {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn u64(self, v: u64) -> Fnv {
        self.bytes(&v.to_le_bytes())
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of a report file's bytes.
pub fn of_bytes(bytes: &[u8]) -> u64 {
    Fnv::new().bytes(bytes).finish()
}

/// Digest of one cell: the cycle count bit for bit, the instruction
/// count, demand accesses and misses of every cache level by side, and
/// the TLB counters. Any engine that is "bit-identical" must reproduce
/// all of them.
pub fn of_cell(result: &SimResult) -> u64 {
    let level = |h: Fnv, s: &AccessStats| {
        h.u64(s.inst_accesses).u64(s.inst_misses).u64(s.data_accesses).u64(s.data_misses)
    };
    let h = Fnv::new().u64(result.core.cycles.to_bits()).u64(result.core.instructions);
    let h = [&result.l1i, &result.l1d, &result.l2, &result.slc].into_iter().fold(h, level);
    h.u64(result.tlb.hits).u64(result.tlb.misses).finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(of_bytes(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(of_bytes(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(of_bytes(b"foobar"), 0x8594_4171_f739_67e8);
    }

    /// The same cell digests the same twice, whichever source feeds it,
    /// and a different policy digests differently.
    #[test]
    fn cell_digests_repeat_and_tell_cells_apart() {
        use trrip_policies::PolicyKind;
        use trrip_sim::{PreparedWorkload, SimConfig, SimRun};
        use trrip_trace::source::VecSource;
        use trrip_trace::SourceIter;
        use trrip_workloads::{InputSet, TraceGenerator, WorkloadSpec};

        let mut spec = WorkloadSpec::named("digest-test");
        spec.functions = 80;
        spec.hot_rotation = 12;
        let config = SimConfig::quick(PolicyKind::Trrip1);
        let workload =
            PreparedWorkload::prepare(&spec, config.train_instructions, config.classifier);
        let walker = || {
            let object = workload.object(config.layout);
            TraceGenerator::new(&workload.program, object, &workload.spec, InputSet::Eval)
        };
        let cell = |config: &SimConfig, from_vector: bool| {
            let mut run = SimRun::new(&workload, config);
            if from_vector {
                let total = (config.fast_forward + config.instructions) as usize;
                let mut stream =
                    SourceIter::new(VecSource::new(walker().take(total).collect(), 1024));
                run.fast_forward(&mut stream);
                of_cell(&run.measure(&mut stream))
            } else {
                let mut stream = SourceIter::new(walker());
                run.fast_forward(&mut stream);
                of_cell(&run.measure(&mut stream))
            }
        };
        let walked = cell(&config, false);
        assert_eq!(walked, cell(&config, false));
        assert_eq!(walked, cell(&config, true));
        assert_ne!(walked, cell(&config.clone().with_policy(PolicyKind::Srrip), false));
    }

    #[test]
    fn integers_are_fed_little_endian_and_order_matters() {
        assert_eq!(Fnv::new().u64(0x0102).finish(), of_bytes(&[2, 1, 0, 0, 0, 0, 0, 0]));
        assert_ne!(Fnv::new().u64(1).u64(2).finish(), Fnv::new().u64(2).u64(1).finish());
    }
}
