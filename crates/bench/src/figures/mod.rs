//! The figure registry: every table, figure and ablation `bgq-bench` can
//! regenerate, in the paper's order. Each module declares its own entry —
//! name, summary, flag table, `run` — and adding a figure is adding a module
//! and a row here.

use crate::Figure;

mod abl_consistency;
mod abl_contention;
mod abl_contexts;
mod abl_fallback;
mod abl_mapping;
mod abl_region_cache;
mod abl_strided_pack;
mod fig11_nwchem_scf;
mod fig3_latency;
mod fig4_bandwidth;
mod fig5_latency_per_byte;
mod fig6_efficiency;
mod fig7_rank_latency;
mod fig8_strided;
mod fig9_rmw;
mod fig_am;
mod fig_fault;
mod fig_mem;
mod fig_scale;
mod table2_attributes;

/// Every figure, in the order `bgq-bench list` prints them.
pub static FIGURES: &[Figure] = &[
    table2_attributes::FIGURE,
    fig3_latency::FIGURE,
    fig4_bandwidth::FIGURE,
    fig5_latency_per_byte::FIGURE,
    fig6_efficiency::FIGURE,
    fig7_rank_latency::FIGURE,
    fig8_strided::FIGURE,
    fig9_rmw::FIGURE,
    fig11_nwchem_scf::FIGURE,
    abl_fallback::FIGURE,
    abl_contexts::FIGURE,
    abl_consistency::FIGURE,
    abl_region_cache::FIGURE,
    abl_strided_pack::FIGURE,
    abl_contention::FIGURE,
    abl_mapping::FIGURE,
    fig_fault::FIGURE,
    fig_am::FIGURE,
    fig_mem::FIGURE,
    fig_scale::FIGURE,
];
