//! The body of every report: one module per experiment binary, each a
//! [`Figure`](crate::Figure) named `run`. A binary runs one in a
//! [`Session`](crate::Session) of its own; `all_experiments` runs the
//! paper's twelve in one.

pub mod calibrate;
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
