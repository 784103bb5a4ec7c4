//! What the equivalence suites share: the heterogeneous row, a row
//! shaped like `overlap_ablation`'s, and what a store holds of a row.

use trrip_mem::PageSize;
use trrip_os::OverlapPolicy;
use trrip_policies::PolicyKind;
use trrip_sim::{CheckpointStore, PreparedWorkload, SimConfig};

/// Whether `store` holds a file under every name a warm start of
/// `workload`'s row of `cells` reads: the row's shared prefix and each
/// cell's overlay. (Whether they load is for a sweep to find out.)
pub fn row_on_file(
    store: &CheckpointStore,
    workload: &PreparedWorkload,
    cells: &[SimConfig],
) -> bool {
    store.prefix_path(workload, cells).is_file()
        && cells.iter().all(|cell| store.overlay_path(workload, cell).is_file())
}

/// Six cells with nothing in common but the stream and the frontend of
/// `config`: L2 size (64–512 kB) and ways (2–16), page size, overlap
/// rule and policy all differ, SRRIP runs twice, and the reuse profiler
/// rides one cell, the costly-miss tracker another.
pub fn mixed_row(config: &SimConfig) -> Vec<SimConfig> {
    let cell = |policy, kb: u64, ways, page_size, overlap| {
        let machine = SimConfig { measure_reuse: false, track_costly: false, ..config.clone() }
            .with_policy(policy);
        let hierarchy = machine.hierarchy.clone().with_l2_size(kb << 10).with_l2_ways(ways);
        SimConfig { hierarchy, page_size, overlap, ..machine }
    };
    let (first, drop, hottest) =
        (OverlapPolicy::FirstByte, OverlapPolicy::DropMixed, OverlapPolicy::Hottest);
    vec![
        cell(PolicyKind::Srrip, 128, 8, PageSize::Size4K, first),
        SimConfig {
            measure_reuse: true,
            ..cell(PolicyKind::Trrip1, 64, 2, PageSize::Size4K, hottest)
        },
        SimConfig {
            track_costly: true,
            ..cell(PolicyKind::Clip, 256, 16, PageSize::Size16K, drop)
        },
        cell(PolicyKind::Emissary, 512, 4, PageSize::Size2M, hottest),
        cell(PolicyKind::Brrip, 128, 8, PageSize::Size2M, first),
        cell(PolicyKind::Srrip, 64, 16, PageSize::Size16K, drop),
    ]
}

/// A row shaped like `overlap_ablation`'s: SRRIP and TRRIP-1 under every
/// pairing of two page sizes and two overlap rules — eight cells over
/// two stream views.
pub fn ablation_row(config: &SimConfig) -> Vec<SimConfig> {
    let mut cells = Vec::new();
    for page_size in [PageSize::Size4K, PageSize::Size16K] {
        for overlap in [OverlapPolicy::FirstByte, OverlapPolicy::DropMixed] {
            for policy in [PolicyKind::Srrip, PolicyKind::Trrip1] {
                cells.push(SimConfig { page_size, overlap, ..config.clone() }.with_policy(policy));
            }
        }
    }
    cells
}
