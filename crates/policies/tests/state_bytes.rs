//! Pins every policy's `save_state` bytes after one fixed request script.
//!
//! Checkpoints and overlays on disk hold these bytes, so a change that
//! moves them must step the checkpoint format version. Each policy of
//! [`PolicyKind::PAPER_SET`] is built at 256 sets × 8 ways and driven
//! through the same script: hits and fills (an invalid way first, else
//! `choose_victim` → `on_fill`), with
//! instruction fetches that are hot, warm, cold or untagged, loads,
//! stores and starvation flags. The FNV-1a-64 of the saved bytes is
//! compared with a constant.

use trrip_core::Temperature;
use trrip_mem::{MemoryRequest, PhysAddr, VirtAddr};
use trrip_policies::{PolicyKind, ReplacementPolicy};
use trrip_snap::SnapWriter;

const SETS: usize = 256;
const WAYS: usize = 8;
const STEPS: usize = 40_000;

/// The FNV-1a-64 of each policy's state bytes after the script.
const PINNED: [(PolicyKind, u64); 9] = [
    (PolicyKind::Srrip, 0x4192_cae2_b642_81ed),
    (PolicyKind::Lru, 0xc6ab_8c7c_07f1_78ac),
    (PolicyKind::Brrip, 0x7f60_87e2_ed50_47cb),
    (PolicyKind::Drrip, 0xb6d4_c268_219b_73bb),
    (PolicyKind::Ship, 0x3d37_e44c_b6cc_da4e),
    (PolicyKind::Clip, 0x900f_2736_0187_39c8),
    (PolicyKind::Emissary, 0x02d4_0276_6c9e_5ddd),
    (PolicyKind::Trrip1, 0xea9e_4aa6_806e_8cc4),
    (PolicyKind::Trrip2, 0x8371_cdac_4230_2f94),
];

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// A fixed 64-bit LCG (Knuth's MMIX constants); the high half is the draw.
struct Script(u64);

impl Script {
    fn next(&mut self, bound: usize) -> usize {
        self.0 =
            self.0.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        ((self.0 >> 32) as usize) % bound
    }

    /// One request: a small pool of PCs, so SHiP's signatures both
    /// re-reference and die, over every kind and temperature.
    fn request(&mut self) -> MemoryRequest {
        let pc = 0x40_0000 + 64 * self.next(96) as u64;
        let (paddr, vpc) = (PhysAddr::new(pc), VirtAddr::new(pc));
        let fetch = MemoryRequest::fetch(paddr, vpc);
        let mut req = match self.next(7) {
            0 => fetch.with_temperature(Some(Temperature::Hot)),
            1 => fetch.with_temperature(Some(Temperature::Warm)),
            2 => fetch.with_temperature(Some(Temperature::Cold)),
            3 => fetch,
            4 | 5 => MemoryRequest::load(paddr, vpc),
            _ => MemoryRequest::store(paddr, vpc),
        };
        if self.next(5) == 0 {
            req = req.with_starvation(true);
        }
        req.pc = VirtAddr::new(req.pc.raw() ^ (self.next(4) as u64) << 20);
        req
    }
}

/// Drives `policy` through the script, with a valid bit per line standing
/// in for the cache's tag store.
fn drive(policy: &mut dyn ReplacementPolicy) {
    let mut script = Script(0x7472_7269_7000_0036);
    let mut valid = vec![[false; WAYS]; SETS];
    for _ in 0..STEPS {
        // Most of the traffic lands on a quarter of the sets, so they fill
        // and evict; the rest stay partly invalid.
        let set = if script.next(4) == 0 { script.next(SETS) } else { 4 * script.next(SETS / 4) };
        let req = script.request();
        match script.next(10) {
            0..=4 => {
                let way = script.next(WAYS);
                if valid[set][way] {
                    policy.on_hit(set, way, &req);
                    continue;
                }
                valid[set][way] = true;
                policy.on_fill(set, way, &req);
            }
            5..=8 => {
                let way = match valid[set].iter().position(|v| !v) {
                    Some(way) => way,
                    None => {
                        let way = policy.choose_victim(set);
                        assert!(way < WAYS, "victim {way} of {WAYS} ways");
                        way
                    }
                };
                valid[set][way] = true;
                policy.on_fill(set, way, &req);
            }
            // A step that touches no line; its draw is part of the pinned
            // script.
            _ => {
                let _ = script.next(WAYS);
            }
        }
    }
}

#[test]
fn state_bytes_are_pinned_for_every_policy() {
    assert_eq!(PINNED.map(|(kind, _)| kind), PolicyKind::PAPER_SET);
    let mut moved = Vec::new();
    for (kind, pinned) in PINNED {
        let mut policy = kind.build(SETS, WAYS);
        drive(&mut *policy);
        let mut w = SnapWriter::new();
        policy.save_state(&mut w);
        let digest = fnv1a64(&w.into_bytes());
        if digest != pinned {
            moved.push(format!("(PolicyKind::{kind:?}, {digest:#018x})"));
        }
    }
    assert!(moved.is_empty(), "state bytes moved:\n{}", moved.join(",\n"));
}
