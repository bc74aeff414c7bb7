//! # sherman-bench — the experiment harness
//!
//! One binary per table/figure of the Sherman paper (see `src/bin/`), all built
//! on the shared runners in this library:
//!
//! * [`runner`] — end-to-end tree experiments: bulkload a cluster, drive it
//!   with a YCSB-style workload from many client threads, and report
//!   throughput, latency percentiles and the internal distributions used by
//!   Figure 14; also the pipelined read experiments that sweep the
//!   split-phase scheduler's in-flight depth (the `pipeline` binary),
//! * [`churnbench`] — sliding-window churn runs measuring structural deletes,
//!   reclamation and space amplification (beyond the paper, which never
//!   shrinks the tree),
//! * [`scenariobench`] — hostile-scenario runs (shifting hot spots, flash
//!   crowds, sequential appends, scans racing churn) under adaptive memory
//!   pressure: pool exhaustion with typed backpressure, and mid-run
//!   index-cache re-budgeting (the `scenario` binary),
//! * [`lockbench`] — the lock-service microbenchmarks behind Figure 2 and
//!   Figure 16 (no tree involved),
//! * [`offloadbench`] — the server-side traversal offload regime map
//!   (skew × cache budget × tree depth, client-side vs always-offload vs
//!   adaptive placement; the `offload` binary),
//! * [`fabricbench`] — raw `RDMA_WRITE` throughput versus IO size (Figure 3),
//! * [`report`] — plain-text table formatting,
//! * [`args`] — the tiny `--key value` command-line parser shared by the
//!   binaries (every experiment parameter can be overridden).
//!
//! All numbers are measured in the fabric simulator's virtual time; see
//! DESIGN.md for the calibration and EXPERIMENTS.md for paper-vs-measured
//! comparisons.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod args;
pub mod churnbench;
pub mod fabricbench;
pub mod lockbench;
pub mod offloadbench;
#[cfg(test)]
mod pins;
pub mod report;
pub mod runner;
pub mod scenariobench;

pub use args::Args;
pub use churnbench::{run_churn_experiment, run_churn_experiment_on, ChurnExperiment, ChurnResult};
pub use scenariobench::{
    hostile_suite, run_scenario_experiment, run_scenario_experiment_on, MemoryPressure,
    ScenarioExperiment, ScenarioResult,
};
pub use fabricbench::{run_write_size_sweep, WriteSizePoint};
pub use lockbench::{run_lock_experiment, LockExperiment, LockVariant};
pub use offloadbench::{run_offload_experiment, OffloadExperiment, OffloadResult};
pub use report::{fmt_mops, fmt_us, print_table};
pub use runner::{
    run_pipeline_experiment, run_tree_experiment, DrivePath, ExperimentResult,
    PipelineExperiment, PipelineResult, TreeExperiment,
};
