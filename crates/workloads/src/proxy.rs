//! The ten proxy mobile benchmarks (Table 2), as synthetic specs.
//!
//! Each spec's parameters aim at the SRRIP-baseline L2 MPKI of Table 3,
//! but the measured values do not land near it: `table3_mpki` prints the
//! comparison as its raw-MPKI claims. Instruction MPKI is below the
//! paper's on all ten, from 1.7× (`clamscan`) to 20× (`clang`), and data
//! MPKI is up to 1.75× above it (`sqlite`). The defining characteristics:
//!
//! | benchmark | role (paper) | defining parameters here |
//! |---|---|---|
//! | abseil | C++ utility library calls | data-heavy, mid code footprint |
//! | bullet | physics/rendering | small hot code, external-heavy |
//! | clamscan | malware scanning | small code, streaming scans |
//! | clang | AOT compiler | huge code footprint, biggest I-MPKI |
//! | deepsjeng | game search (CPU2017) | small code, L1-resident data |
//! | gcc | compiler (CPU2017) | large code footprint |
//! | omnetpp | discrete-event sim | mid code, pointer-chasing data |
//! | python | interpreter | indirect dispatch, large code |
//! | rapidjson | JSON parsing | tiny hot code, external + data heavy |
//! | sqlite | embedded database | mid-large code |

use crate::spec::WorkloadSpec;

/// All ten proxy benchmarks in the paper's figure order.
#[must_use]
pub fn all() -> Vec<WorkloadSpec> {
    vec![
        abseil(),
        bullet(),
        clamscan(),
        clang(),
        deepsjeng(),
        gcc(),
        omnetpp(),
        python(),
        rapidjson(),
        sqlite(),
    ]
}

/// Looks a spec up by benchmark name.
#[must_use]
pub fn by_name(name: &str) -> Option<WorkloadSpec> {
    all().into_iter().find(|s| s.name == name)
}

fn base(name: &str, train: &str, eval: &str, fast_forward: f64) -> WorkloadSpec {
    let mut s = WorkloadSpec::named(name);
    s.train_input = train.to_owned();
    s.eval_input = eval.to_owned();
    s.paper_fast_forward = fast_forward;
    // Distinct structural seed per benchmark so programs differ.
    s.structure_seed =
        name.bytes().fold(0x5354_5231u64, |a, b| a.wrapping_mul(31).wrapping_add(u64::from(b)));
    s
}

/// `abseil`: C++ library micro-operations; highest data MPKI (17.5),
/// modest instruction MPKI (1.79).
#[must_use]
pub fn abseil() -> WorkloadSpec {
    WorkloadSpec {
        functions: 700,
        avg_function_bytes: 1100,
        hot_rotation: 140,
        cold_visit_prob: 0.03,
        external_functions: 30,
        external_call_prob: 0.04,
        static_data_bytes: 5 << 20,
        load_density: 0.32,
        store_density: 0.14,
        hot_data_bytes: 40 << 10,
        warm_data_bytes: 1 << 20,
        cold_data_bytes: 24 << 20,
        data_hot_frac: 0.971,
        data_warm_frac: 0.013,
        scan_block_frac: 0.02,
        depend_stall_prob: 0.05,
        ..base("abseil", "all tests", "absl_btree_test", 1e9)
    }
}

/// `bullet`: physics for rendering; tiny MPKI on both sides, much of the
/// miss cost in external code (where Emissary shines, §4.6).
#[must_use]
pub fn bullet() -> WorkloadSpec {
    WorkloadSpec {
        functions: 260,
        avg_function_bytes: 900,
        hot_rotation: 12,
        cold_visit_prob: 0.012,
        external_functions: 48,
        avg_external_bytes: 3072,
        external_call_prob: 0.22,
        static_data_bytes: 600 << 10,
        load_density: 0.26,
        store_density: 0.10,
        hot_data_bytes: 40 << 10,
        warm_data_bytes: 256 << 10,
        cold_data_bytes: 2 << 20,
        data_hot_frac: 0.9967,
        data_warm_frac: 0.0015,
        scan_block_frac: 0.01,
        depend_stall_prob: 0.08,
        ..base("bullet", "train", "eval", 1e9)
    }
}

/// `clamscan`: malware scanner; small code, streaming file scans.
#[must_use]
pub fn clamscan() -> WorkloadSpec {
    WorkloadSpec {
        functions: 300,
        avg_function_bytes: 950,
        hot_rotation: 36,
        cold_visit_prob: 0.025,
        external_functions: 36,
        external_call_prob: 0.14,
        static_data_bytes: 450 << 10,
        load_density: 0.30,
        store_density: 0.08,
        hot_data_bytes: 48 << 10,
        warm_data_bytes: 384 << 10,
        cold_data_bytes: 6 << 20,
        data_hot_frac: 0.9975,
        data_warm_frac: 0.001,
        scan_block_frac: 0.015,
        ..base("clamscan", "train", "eval", 1e7)
    }
}

/// `clang`: the AOT compiler proxy; by far the largest code footprint
/// and the highest instruction MPKI (16.7).
#[must_use]
pub fn clang() -> WorkloadSpec {
    WorkloadSpec {
        functions: 4500,
        avg_function_bytes: 1600,
        hot_rotation: 900,
        cold_visit_prob: 0.05,
        external_functions: 40,
        external_call_prob: 0.02,
        call_prob: 0.34,
        static_data_bytes: 120 << 20,
        load_density: 0.30,
        store_density: 0.13,
        hot_data_bytes: 48 << 10,
        warm_data_bytes: 1 << 20,
        cold_data_bytes: 16 << 20,
        data_hot_frac: 0.962,
        data_warm_frac: 0.014,
        scan_block_frac: 0.02,
        depend_stall_prob: 0.04,
        ..base("clang", "ninja clang-check-c", "gcc's ref", 1e8)
    }
}

/// `deepsjeng`: game-tree search; small, cache-friendly, yet its few L2
/// instruction misses respond strongly to TRRIP (-47% MPKI).
#[must_use]
pub fn deepsjeng() -> WorkloadSpec {
    WorkloadSpec {
        functions: 130,
        avg_function_bytes: 1250,
        hot_rotation: 56,
        cold_visit_prob: 0.01,
        external_functions: 8,
        external_call_prob: 0.01,
        static_data_bytes: 96 << 10,
        load_density: 0.24,
        store_density: 0.10,
        hot_data_bytes: 48 << 10,
        warm_data_bytes: 192 << 10,
        cold_data_bytes: 1 << 20,
        data_hot_frac: 0.9973,
        data_warm_frac: 0.0012,
        scan_block_frac: 0.008,
        depend_stall_prob: 0.09,
        depend_stall_cycles: 3,
        ..base("deepsjeng", "train", "ref", 4e9)
    }
}

/// `gcc`: compiler; large code footprint, mid MPKI on both sides.
#[must_use]
pub fn gcc() -> WorkloadSpec {
    WorkloadSpec {
        functions: 2200,
        avg_function_bytes: 1250,
        hot_rotation: 380,
        cold_visit_prob: 0.04,
        external_functions: 24,
        external_call_prob: 0.015,
        call_prob: 0.32,
        static_data_bytes: 10 << 20,
        load_density: 0.29,
        store_density: 0.12,
        hot_data_bytes: 48 << 10,
        warm_data_bytes: 768 << 10,
        cold_data_bytes: 8 << 20,
        data_hot_frac: 0.991,
        data_warm_frac: 0.004,
        scan_block_frac: 0.012,
        ..base("gcc", "train", "ref", 1e8)
    }
}

/// `omnetpp`: discrete-event simulation; pointer-heavy data (D-MPKI
/// 12.3) with mid instruction pressure.
#[must_use]
pub fn omnetpp() -> WorkloadSpec {
    WorkloadSpec {
        functions: 650,
        avg_function_bytes: 1100,
        hot_rotation: 230,
        cold_visit_prob: 0.035,
        external_functions: 30,
        external_call_prob: 0.06,
        indirect_call_prob: 0.30,
        static_data_bytes: 2500 << 10,
        load_density: 0.33,
        store_density: 0.13,
        hot_data_bytes: 40 << 10,
        warm_data_bytes: 1 << 20,
        cold_data_bytes: 20 << 20,
        data_hot_frac: 0.98,
        data_warm_frac: 0.007,
        scan_block_frac: 0.015,
        depend_stall_prob: 0.07,
        ..base("omnetpp", "train", "ref", 4e8)
    }
}

/// `python`: bytecode interpreter; indirect-dispatch heavy with a large
/// code footprint.
#[must_use]
pub fn python() -> WorkloadSpec {
    WorkloadSpec {
        functions: 1300,
        avg_function_bytes: 1300,
        hot_rotation: 320,
        cold_visit_prob: 0.04,
        external_functions: 30,
        external_call_prob: 0.03,
        dispatch_prob: 0.35,
        indirect_call_prob: 0.30,
        static_data_bytes: 16 << 20,
        load_density: 0.31,
        store_density: 0.14,
        hot_data_bytes: 48 << 10,
        warm_data_bytes: 1 << 20,
        cold_data_bytes: 12 << 20,
        data_hot_frac: 0.98,
        data_warm_frac: 0.007,
        scan_block_frac: 0.015,
        ..base("python", "train", "test_statistics", 1e8)
    }
}

/// `rapidjson`: JSON parsing; tiny hot loop, data streaming, heavy
/// external usage (Emissary's best case: 68.7% reduction).
#[must_use]
pub fn rapidjson() -> WorkloadSpec {
    WorkloadSpec {
        functions: 170,
        avg_function_bytes: 850,
        hot_rotation: 20,
        cold_visit_prob: 0.012,
        external_functions: 56,
        avg_external_bytes: 3584,
        external_call_prob: 0.10,
        static_data_bytes: 6 << 20,
        load_density: 0.34,
        store_density: 0.12,
        hot_data_bytes: 32 << 10,
        warm_data_bytes: 768 << 10,
        cold_data_bytes: 16 << 20,
        data_hot_frac: 0.989,
        data_warm_frac: 0.005,
        scan_block_frac: 0.04,
        ..base("rapidjson", "unittest + perftest", "perftest", 1e8)
    }
}

/// `sqlite`: embedded database engine; mid-large code footprint.
#[must_use]
pub fn sqlite() -> WorkloadSpec {
    WorkloadSpec {
        functions: 1000,
        avg_function_bytes: 1150,
        hot_rotation: 170,
        cold_visit_prob: 0.04,
        external_functions: 20,
        external_call_prob: 0.02,
        dispatch_prob: 0.12,
        static_data_bytes: 1 << 20,
        load_density: 0.29,
        store_density: 0.13,
        hot_data_bytes: 48 << 10,
        warm_data_bytes: 640 << 10,
        cold_data_bytes: 6 << 20,
        data_hot_frac: 0.988,
        data_warm_frac: 0.004,
        scan_block_frac: 0.012,
        ..base(
            "sqlite",
            "--shrink-memory --reprepare --size 50",
            "--shrink-memory --reprepare --size 5",
            1e8,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_benchmarks_in_paper_order() {
        let names: Vec<String> = all().into_iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            vec![
                "abseil",
                "bullet",
                "clamscan",
                "clang",
                "deepsjeng",
                "gcc",
                "omnetpp",
                "python",
                "rapidjson",
                "sqlite"
            ]
        );
    }

    #[test]
    fn all_specs_validate() {
        for s in all() {
            assert_eq!(s.validate(), Ok(()), "{} invalid", s.name);
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(by_name("clang").is_some());
        assert!(by_name("doom").is_none());
    }

    #[test]
    fn clang_has_largest_code_footprint() {
        let specs = all();
        let clang_text = by_name("clang").unwrap().approx_text_bytes();
        for s in &specs {
            assert!(clang_text >= s.approx_text_bytes(), "{} bigger than clang", s.name);
        }
    }

    #[test]
    fn structural_seeds_are_distinct() {
        let seeds: Vec<u64> = all().iter().map(|s| s.structure_seed).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len());
    }
}
