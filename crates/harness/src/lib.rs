//! # limpet-harness
//!
//! The experiment platform of limpet-rs: the simulation driver matching
//! openCARP's `bench` binary ([`sim`]), real-thread and simulated-parallel
//! execution ([`threads`]), and one experiment runner per paper figure and
//! table ([`experiments`]). The `figures` binary prints every artifact:
//!
//! ```text
//! cargo run --release -p limpet-harness --bin figures -- --fig2
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod checkpoint;
mod checksum;
pub mod deadline;
pub mod error;
pub mod experiments;
pub mod faults;
pub mod health;
pub mod native;
pub mod persist;
pub mod shutdown;
pub mod sim;
pub mod store;
pub mod threads;

pub use cache::{
    all_pipeline_kinds, model_fingerprint, CacheStats, CompiledKernel, KernelCache,
    QuarantineEntry, ResilientKernel,
};
pub use checkpoint::{
    LoadOutcome, RejectReason, Snapshot, SnapshotStore, StoreStats, SNAPSHOT_FORMAT_VERSION,
};
pub use checksum::{fnv1a, fnv1a_words};
pub use deadline::{backoff_delay, retry_with_backoff, CancelCause, CancelToken};
pub use error::{compile_source, CompileError, ModuleError};
pub use experiments::{
    ablations, available_cores, fig2_checkpointed, fig2_single_thread, fig2_with_jobs,
    fig3_threads32, fig4_scaling, fig5_isa_threads, fig6_roofline, geomean, icc_comparison,
    kernel_stats, layout_ablation, lut_ablation, measure_run_threaded, native_tier_bench,
    trajectory_digest, trajectory_digest_tiered, validate_timing_model, ExperimentOptions,
    NativeBench, NativeBenchRow, Provenance, ThreadTiming, TmValidation, THREAD_COUNTS,
};
pub use faults::FaultKind;
pub use health::{incidents_json, summarize_incidents, HealthPolicy, Incident, IncidentKind, Tier};
pub use native::{
    native_eligible, set_promotion, toolchain_available, NativeKernel, NativeRegistry, NativeSlot,
    NativeStats, CC_TIMEOUT_MARKER, DEFAULT_CC_TIMEOUT,
};
pub use persist::{
    default_cache_dir, native_file_name, DiskCache, DiskCacheStatus, DiskLoad, DiskStats, EntryKey,
    Journal,
};
pub use sim::{model_info, storage_layout, PipelineKind, Simulation, Stimulus, Workload};
pub use store::Reject;
pub use threads::{
    measure_median, measure_median_secs, measure_stream_bandwidth, shard_sizes, ShardedSimulation,
    TimingModel,
};
