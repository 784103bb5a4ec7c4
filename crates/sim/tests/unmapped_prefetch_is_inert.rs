//! Only demand accesses allocate frames: a cell drops an FDIP or
//! next-line prefetch into a page the loader did not map, which is what
//! lets a stream view resolve every anonymous frame once per stream. The
//! rule is a change to the model only if such a prefetch ever happens;
//! held here, it does not, on any of the ten proxies, under a policy
//! that keeps the L1-I warm (SRRIP) and one that thrashes the L2 and
//! with it the L1-I's next-line prefetches (BRRIP).
//!
//! One `#[test]` on purpose: the drop counter is process-wide.

use trrip_policies::PolicyKind;
use trrip_sim::{default_jobs, policy_cells, policy_sweep_with, PreparedWorkload, SimConfig};

#[test]
fn no_proxy_prefetches_into_a_page_the_loader_did_not_map() {
    let config = SimConfig::quick(PolicyKind::Srrip);
    let cells = policy_cells(&config, &[PolicyKind::Srrip, PolicyKind::Brrip]);
    let workloads: Vec<PreparedWorkload> = trrip_workloads::proxy::all()
        .iter()
        .map(|spec| PreparedWorkload::prepare(spec, config.train_instructions, config.classifier))
        .collect();
    assert_eq!(workloads.len(), 10, "the ten proxies");

    let before = trrip_obs::snapshot();
    let sweep = policy_sweep_with(default_jobs(), &workloads, &cells, None);
    let moved = trrip_obs::snapshot().since(&before);
    assert_eq!(sweep.results.len(), 20);
    assert!(moved.get("cache.l1_fastpath_bail") > 0, "the L1-I missed, so next-line prefetched");
    assert_eq!(moved.get("cache.prefetch_unmapped_drop"), 0, "a prefetch left the loaded image");
}
