//! # serve — the multi-tenant simulation service over the kernel cache
//!
//! The paper's compiler pipeline exists to feed a long-running host
//! simulator; this crate is the service boundary in front of it. The
//! `limpet-serve` daemon accepts simulation jobs — a roster model or
//! inline EasyML source × a pipeline configuration × a workload — over a
//! newline-delimited-JSON protocol on a TCP or Unix socket, runs them on
//! a bounded worker pool over the process-wide
//! [`limpet_harness::KernelCache`] (memory + disk tiers, so every
//! tenant's compile is compile-once per machine), and streams trajectory
//! chunks back with per-connection backpressure.
//!
//! The layering, bottom-up:
//!
//! * [`json`] — a minimal strict JSON codec (the workspace has no serde).
//! * [`queue`] — a bounded MPMC queue with close semantics; one per
//!   connection, it is the backpressure and cancellation primitive.
//! * [`tenant`] — the admission ledger: per-tenant concurrency, per-job
//!   cost, and service-wide depth limits with typed 413/429/503
//!   rejections.
//! * [`scheduler`] — job specs (one JSON codec for wire + journal),
//!   deterministic execution on the harness's resilient simulation path
//!   (faults degrade a job down the tier ladder, never the daemon), the
//!   worker pool, and the one thread that writes its cadence checkpoints.
//! * [`server`] — the daemon: listener, per-connection reader/writer
//!   threads, verb dispatch, journal-backed crash recovery, graceful
//!   shutdown.
//!
//! See `DESIGN.md` §12 for the wire protocol and failure semantics.

#![warn(missing_docs)]

pub mod json;
pub mod queue;
pub mod scheduler;
pub mod server;
pub mod tenant;

pub use json::Json;
pub use queue::Bounded;
pub use scheduler::{
    parse_config, CheckpointRequester, CheckpointWriter, JobOutcome, JobSpec, JobStatus, ModelRef,
    Pool, PoolConfig, QueuedJob, RunCtl,
};
pub use server::{Listen, Server, ServerConfig};
pub use tenant::{Ledger, QuotaConfig, Rejection, TenantUsage};
