//! Every report: one module per experiment binary, each a [`Figure`]
//! named `FIGURE`. A binary [`regenerate`](crate::regenerate)s one;
//! `all_experiments` the twelve.

use crate::Figure;

pub mod fig1_topdown_system;
pub mod fig2_topdown_proxy;
pub mod fig3_reuse_distance;
pub mod fig6_speedup;
pub mod fig7_costly_coverage;
pub mod fig8_hot_threshold;
pub mod fig9_cache_sensitivity;
pub mod overlap_ablation;
pub mod table1_config;
pub mod table2_benchmarks;
pub mod table3_mpki;
pub mod table4_power_area;
pub mod table5_pages;

/// The paper's twelve tables and figures, in the order they are written.
pub const PAPER: [Figure; 12] = [
    table1_config::FIGURE,
    table2_benchmarks::FIGURE,
    fig1_topdown_system::FIGURE,
    fig2_topdown_proxy::FIGURE,
    fig3_reuse_distance::FIGURE,
    fig6_speedup::FIGURE,
    table3_mpki::FIGURE,
    table4_power_area::FIGURE,
    fig7_costly_coverage::FIGURE,
    fig8_hot_threshold::FIGURE,
    fig9_cache_sensitivity::FIGURE,
    table5_pages::FIGURE,
];

#[cfg(test)]
mod tests {
    use super::*;

    /// `claims.tsv` keys its rows by id: two figures declaring one id
    /// would read as one claim, and an id outside `[a-z0-9_.-]` could
    /// break a row or a `grep` for it.
    #[test]
    fn claim_ids_are_unique_and_plain() {
        let figures = PAPER.iter().chain([&overlap_ablation::FIGURE]);
        let mut ids: Vec<&str> = figures.flat_map(|f| f.claims.iter().map(|c| c.id)).collect();
        for id in &ids {
            let plain = |c: char| c.is_ascii_lowercase() || c.is_ascii_digit() || "_.-".contains(c);
            assert!(!id.is_empty() && id.chars().all(plain), "{id:?}");
        }
        let count = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), count, "claim ids are unique");
    }
}
