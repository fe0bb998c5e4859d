//! # bench-suite — regenerating the paper's evaluation (Figures 4–8)
//!
//! Each module corresponds to one figure of the paper's §6 and produces the
//! same rows/series the figure plots: commit counts out of 500 split by
//! promotion round, and commit latency split by promotion round, for basic
//! Paxos and Paxos-CP.
//!
//! Run everything with:
//!
//! ```text
//! cargo run --release -p bench-suite --bin experiments -- all
//! ```
//!
//! or a single figure with `-- fig4a`, `-- fig6`, etc. `--quick` scales the
//! workload down (fewer transactions) for smoke runs. Every experiment is a
//! [`workload::LoadSpec`] run by [`workload::run_load`]. Performance, end to
//! end and per layer, is measured by the separate `benchmark/` crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod openloop;
pub mod readmostly;
pub mod report;
pub mod routes;
pub mod scaling;

pub use figures::{ablation_specs, fig4_specs, fig5_specs, fig6_specs, fig7_specs, fig8_specs};
pub use openloop::{
    format_openloop_summary, format_openloop_table, knee, openloop_ladder, peak_committed_tps,
    OpenLoopSweepConfig,
};
pub use readmostly::{
    format_readmostly_table, read_scaling, readmostly_sweep, ReadMostlySweepConfig,
};
pub use report::{
    format_commit_table, format_latency_table, format_per_replica_table, results_to_json,
};
pub use routes::{format_route_table, route_compare_specs, route_spec};
pub use scaling::{
    batch_sweep_specs, format_pipeline_table, format_scaling_table, group_sweep_specs,
    pipeline_sweep_specs,
};
