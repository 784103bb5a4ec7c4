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
