//! Workspace-level facade for the Sherman reproduction.
//!
//! The real functionality lives in the crates under `crates/`; this tiny
//! library exists so that the repository's root-level `examples/` and `tests/`
//! have a single, convenient import surface:
//!
//! * [`sherman`] — the B+Tree index itself ([`sherman::Cluster`],
//!   [`sherman::TreeClient`], [`sherman::TreeOptions`]),
//! * [`sherman_sim`] — the virtual-time RDMA fabric simulator,
//! * [`sherman_workload`] — YCSB-style workload generation,
//! * [`sherman_metrics`] — histograms and run summaries.

pub use sherman;
pub use sherman_cache;
pub use sherman_locks;
pub use sherman_memserver;
pub use sherman_metrics;
pub use sherman_sim;
pub use sherman_workload;

/// Convenience prelude for examples and integration tests.
pub mod prelude {
    pub use sherman::{
        run_clients, Cluster, ClusterConfig, LeafFormat, LockStrategy, NodeCensus, OffloadPolicy,
        OpOutput, OpStats, PipelineOp, PipelineReport, PipelinedResult, Session, ShapeAudit,
        TreeClient, TreeConfig, TreeError, TreeOptions, TreeResult,
    };
    pub use sherman_memserver::{AllocError, EpochRegistry, ReaderHandle};
    pub use sherman_metrics::{
        BackpressureSnapshot, CoherenceGauges, EpochGauges, LatencyHistogram, OffloadGauges,
        OverlapGauges, RunSummary, ThreadReport, ThroughputAggregator,
    };
    pub use sherman_sim::{FabricBackend, FabricConfig, OpVerbStats, TraceEvent};
    pub use sherman_workload::{
        ChurnSpec, KeyDistribution, Mix, Op, ScenarioGenerator, ScenarioShape, ScenarioSpec,
        WorkloadSpec,
    };
}
