//! Typed errors of the pipeline layer.
//!
//! The executor never panics across its public boundary: configuration
//! mistakes surface as [`ConfigError`], a contained worker panic as
//! [`PipelineError::WorkerPanicked`], and a watchdog expiry as
//! [`PipelineError::StageTimeout`]. `bwfft-core` wraps these in its own
//! error type, which classifies them.

use crate::cancel::CancelReason;
use crate::roles::Role;
use core::time::Duration;

/// Rejected pipeline configuration (the former `assert!`s of
/// `run_pipeline`, as values).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// `loaders.len() != storers.len()` — each data thread needs both.
    MismatchedRoles { loaders: usize, storers: usize },
    /// No thread for one of the roles.
    ZeroThreads { role: Role },
    /// Zero pipeline iterations requested.
    ZeroIters,
    /// A partition unit does not divide the buffer half.
    UnitMismatch {
        what: &'static str,
        unit: usize,
        half_elems: usize,
    },
    /// `pin_cpus` length differs from the thread count.
    PinListMismatch { pins: usize, threads: usize },
    /// The fused schedule got other than one callback per role.
    FusedRoles {
        loaders: usize,
        storers: usize,
        computes: usize,
    },
}

impl core::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ConfigError::MismatchedRoles { loaders, storers } => write!(
                f,
                "one storer per data thread required ({loaders} loaders, {storers} storers)"
            ),
            ConfigError::ZeroThreads { role } => {
                write!(f, "need at least one {role:?} thread")
            }
            ConfigError::ZeroIters => write!(f, "pipeline needs at least one block"),
            ConfigError::UnitMismatch {
                what,
                unit,
                half_elems,
            } => write!(
                f,
                "{what} = {unit} must be >= 1 and divide the buffer half ({half_elems})"
            ),
            ConfigError::PinListMismatch { pins, threads } => write!(
                f,
                "pin_cpus lists {pins} CPUs for {threads} threads (one CPU per thread)"
            ),
            ConfigError::FusedRoles {
                loaders,
                storers,
                computes,
            } => write!(
                f,
                "the fused schedule runs one loader, storer and compute callback \
                 ({loaders} loaders, {storers} storers, {computes} computes)"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// What kind of integrity invariant a guard found violated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IntegrityKind {
    /// A canary word framing a double-buffer half was overwritten —
    /// some phase wrote outside its slice.
    Canary,
    /// The per-block checksum carried load → compute → store changed
    /// between handoffs — buffer contents were silently corrupted.
    Checksum,
    /// The per-run Parseval/energy-budget invariant failed — the output
    /// spectrum's energy does not match the input's.
    Energy,
}

impl core::fmt::Display for IntegrityKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            IntegrityKind::Canary => write!(f, "buffer canary clobbered"),
            IntegrityKind::Checksum => write!(f, "block checksum mismatch"),
            IntegrityKind::Energy => write!(f, "Parseval energy invariant violated"),
        }
    }
}

/// Why a pipeline run failed.
#[derive(Clone, Debug, PartialEq)]
pub enum PipelineError {
    /// The configuration was rejected before any thread started.
    Config(ConfigError),
    /// A worker closure panicked; the run was aborted, all surviving
    /// threads drained, and the panic payload captured here.
    WorkerPanicked {
        role: Role,
        /// Role-local thread index.
        thread: usize,
        /// Pipeline iteration (block index) the worker was executing.
        iter: usize,
        /// Stringified panic payload.
        message: String,
    },
    /// A barrier wait exceeded the configured per-iteration watchdog:
    /// some peer is stalled or wedged.
    StageTimeout {
        role: Role,
        /// Role-local index of the thread whose watchdog fired.
        thread: usize,
        /// Pipeline step index at which the wait timed out.
        iter: usize,
        timeout: Duration,
    },
    /// An integrity guard (canary, checksum, energy invariant) detected
    /// silent data corruption; the run was aborted before the corrupt
    /// block could reach the output.
    Integrity {
        /// Pipeline stage the guard fired in.
        stage: usize,
        /// Block (or step, for canaries) index at the detection point.
        block: usize,
        kind: IntegrityKind,
    },
    /// The run's [`crate::CancelToken`] fired (per-request deadline or
    /// an explicit drain); the workers drained cooperatively at the
    /// next step boundary instead of finishing the schedule.
    Cancelled {
        /// Pipeline step index at which a worker observed the token.
        iter: usize,
        reason: CancelReason,
    },
}

impl From<ConfigError> for PipelineError {
    fn from(e: ConfigError) -> Self {
        PipelineError::Config(e)
    }
}

impl core::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PipelineError::Config(e) => write!(f, "pipeline configuration: {e}"),
            PipelineError::WorkerPanicked {
                role,
                thread,
                iter,
                message,
            } => write!(
                f,
                "{role:?} worker {thread} panicked at pipeline iteration {iter}: {message}"
            ),
            PipelineError::StageTimeout {
                role,
                thread,
                iter,
                timeout,
            } => write!(
                f,
                "{role:?} worker {thread} timed out after {timeout:?} waiting at step {iter} \
                 (a peer is stalled)"
            ),
            PipelineError::Integrity { stage, block, kind } => write!(
                f,
                "integrity guard: {kind} at stage {stage}, block {block}"
            ),
            PipelineError::Cancelled { iter, reason } => {
                write!(f, "run cancelled at step {iter}: {reason}")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_render() {
        let e = PipelineError::Config(ConfigError::MismatchedRoles {
            loaders: 2,
            storers: 1,
        });
        assert!(e.to_string().contains("one storer per data thread"));
        let e = PipelineError::WorkerPanicked {
            role: Role::Compute,
            thread: 1,
            iter: 7,
            message: "boom".into(),
        };
        assert!(e.to_string().contains("iteration 7"));
        assert!(e.to_string().contains("boom"));
        let e = PipelineError::StageTimeout {
            role: Role::Data,
            thread: 0,
            iter: 3,
            timeout: Duration::from_millis(50),
        };
        assert!(e.to_string().contains("timed out"));
        let e = PipelineError::Integrity {
            stage: 1,
            block: 4,
            kind: IntegrityKind::Checksum,
        };
        assert!(e.to_string().contains("checksum mismatch"));
        assert!(e.to_string().contains("stage 1"));
        assert!(IntegrityKind::Canary.to_string().contains("canary"));
        assert!(IntegrityKind::Energy.to_string().contains("Parseval"));
        let e = PipelineError::Cancelled {
            iter: 5,
            reason: CancelReason::Deadline,
        };
        assert!(e.to_string().contains("step 5"));
        assert!(e.to_string().contains("deadline"));
        let e = PipelineError::Cancelled {
            iter: 0,
            reason: CancelReason::Shutdown,
        };
        assert!(e.to_string().contains("shutdown"));
    }

    #[test]
    fn config_error_converts() {
        let e: PipelineError = ConfigError::ZeroThreads { role: Role::Data }.into();
        assert!(matches!(e, PipelineError::Config(_)));
    }
}
