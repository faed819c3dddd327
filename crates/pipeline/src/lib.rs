//! The soft-DMA double-buffering engine (§III-C, §III-D, Table II).
//!
//! This crate turns the paper's software-pipelining construction into a
//! reusable executor: a [`schedule`] generator that emits the Table II
//! prologue / steady-state / epilogue, a [`roles`] module that splits
//! hardware threads into data-threads (the soft DMA engines) and
//! compute-threads and pairs them onto cores (§IV-A), an LLC-sized
//! [`buffer`], and a real [`exec`] that runs a stage's callbacks either
//! on the schedule with actual OS threads and barriers or fused on the
//! calling thread.

//!
//! # Fault tolerance
//!
//! The executor never lets a worker panic cross the library boundary:
//! failures come back as typed [`error::PipelineError`] values, a
//! shared abort flag drains surviving threads (no deadlock), and
//! [`fault::FaultPlan`] injects panics/stalls/corruptions/pin-denials
//! for resilience testing. See the `exec` module docs for the model.
//! Opt-in integrity guards ([`exec::IntegrityConfig`]) — buffer
//! canaries and per-block checksums — convert silent corruption into
//! typed [`error::PipelineError::Integrity`] failures.

pub mod affinity;
pub mod buffer;
pub mod cancel;
pub mod error;
pub mod exec;
pub mod fault;
pub mod roles;
pub mod schedule;

pub use affinity::PinStatus;
pub use buffer::{split_disjoint, BufferError, DoubleBuffer};
pub use cancel::{CancelReason, CancelToken};
pub use error::{ConfigError, IntegrityKind, PipelineError};
pub use exec::{
    block_checksum, run_fused, run_pipeline, AdaptiveWatchdog, IntegrityConfig, PipelineCallbacks,
    PipelineConfig, PipelineReport,
};
pub use fault::{FaultPhase, FaultPlan, FaultSite, StallFault};
pub use roles::{Role, RoleAssignment};
pub use schedule::{PipelineStep, Schedule};
