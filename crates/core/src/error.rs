//! The core crate's error taxonomy: everything that can go wrong while
//! planning or executing a transform, as values.
//!
//! `bwfft-core` sits between the pipeline executor, the machine
//! simulator and the planner, so [`CoreError`] wraps each layer's typed
//! error and adds the cross-layer conditions (argument lengths, plan ↔
//! machine mismatches) it checks itself. [`CoreError::is_usage`] is the
//! one place that splits a caller's mistake from a runtime fault: the
//! supervisor never retries the former, and the CLI exits 2 on it.

use crate::plan::PlanError;
use bwfft_machine::EngineError;
use bwfft_num::AllocError;
use bwfft_pipeline::{IntegrityKind, PipelineError};

/// Why a core-level operation failed.
#[derive(Clone, Debug, PartialEq)]
pub enum CoreError {
    /// Plan construction/validation failed.
    Plan(PlanError),
    /// The real executor failed (contained worker panic, watchdog
    /// timeout, or a rejected pipeline configuration).
    Pipeline(PipelineError),
    /// The discrete-event engine failed during simulation.
    Engine(EngineError),
    /// A caller-provided array has the wrong length.
    InputLength {
        what: &'static str,
        expected: usize,
        got: usize,
    },
    /// The plan wants more sockets than the simulated machine has.
    SocketMismatch { plan: usize, machine: usize },
    /// A core-level integrity guard fired (currently the opt-in
    /// whole-run Parseval/energy check; pipeline-level canary/checksum
    /// guards arrive wrapped in [`CoreError::Pipeline`] and are
    /// re-keyed to this variant by [`CoreError::integrity_kind`]'s
    /// callers where a flat view is wanted).
    Integrity {
        /// Stage the guard fired in (0 for whole-run guards).
        stage: usize,
        /// Block index at the detection point (0 for whole-run guards).
        block: usize,
        kind: IntegrityKind,
    },
    /// A buffer allocation was refused; the supervisor answers this by
    /// shrinking the plan's buffer and retrying.
    Allocation(AllocError),
}

impl CoreError {
    /// The integrity kind of this error, whether it is a core-level
    /// guard or a wrapped pipeline guard; `None` for everything else.
    pub fn integrity_kind(&self) -> Option<IntegrityKind> {
        match self {
            CoreError::Integrity { kind, .. } => Some(*kind),
            CoreError::Pipeline(PipelineError::Integrity { kind, .. }) => Some(*kind),
            _ => None,
        }
    }

    /// True for errors caused by caller input (a bad plan, wrong array
    /// lengths, a plan ↔ machine mismatch, a rejected pipeline
    /// configuration) rather than a runtime fault. Retrying, shrinking
    /// or switching executors cannot fix these.
    pub fn is_usage(&self) -> bool {
        matches!(
            self,
            CoreError::Plan(_)
                | CoreError::InputLength { .. }
                | CoreError::SocketMismatch { .. }
                | CoreError::Pipeline(PipelineError::Config(_))
        )
    }
}

impl From<PlanError> for CoreError {
    fn from(e: PlanError) -> Self {
        CoreError::Plan(e)
    }
}

impl From<PipelineError> for CoreError {
    fn from(e: PipelineError) -> Self {
        CoreError::Pipeline(e)
    }
}

impl From<EngineError> for CoreError {
    fn from(e: EngineError) -> Self {
        CoreError::Engine(e)
    }
}

impl From<AllocError> for CoreError {
    fn from(e: AllocError) -> Self {
        CoreError::Allocation(e)
    }
}

impl core::fmt::Display for CoreError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CoreError::Plan(e) => write!(f, "plan: {e}"),
            CoreError::Pipeline(e) => write!(f, "execution: {e}"),
            CoreError::Engine(e) => write!(f, "simulation: {e}"),
            CoreError::InputLength {
                what,
                expected,
                got,
            } => write!(f, "{what} has {got} elements, plan needs {expected}"),
            CoreError::SocketMismatch { plan, machine } => write!(
                f,
                "plan wants {plan} sockets, machine has {machine}"
            ),
            CoreError::Integrity { stage, block, kind } => write!(
                f,
                "integrity guard: {kind} at stage {stage}, block {block}"
            ),
            CoreError::Allocation(e) => write!(f, "allocation: {e}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Plan(e) => Some(e),
            CoreError::Pipeline(e) => Some(e),
            CoreError::Engine(e) => Some(e),
            CoreError::Allocation(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_and_renders_each_layer() {
        let e: CoreError = PlanError::NotPow2("dim", 12).into();
        assert!(e.to_string().starts_with("plan:"));
        let e: CoreError = PipelineError::Config(
            bwfft_pipeline::ConfigError::ZeroIters,
        )
        .into();
        assert!(e.to_string().starts_with("execution:"));
        let e: CoreError = EngineError::UndeclaredBarrier { id: 1 }.into();
        assert!(e.to_string().starts_with("simulation:"));
        let e = CoreError::InputLength {
            what: "data",
            expected: 8,
            got: 4,
        };
        assert!(e.to_string().contains("data has 4"));
        let e = CoreError::SocketMismatch { plan: 2, machine: 1 };
        assert!(e.to_string().contains("2 sockets"));
        let e = CoreError::Integrity {
            stage: 0,
            block: 0,
            kind: IntegrityKind::Energy,
        };
        assert!(e.to_string().contains("Parseval"));
        let e: CoreError = AllocError {
            what: "double buffer",
            bytes: 1 << 40,
        }
        .into();
        assert!(e.to_string().starts_with("allocation:"));
    }

    #[test]
    fn integrity_kind_flattens_both_layers() {
        let core_level = CoreError::Integrity {
            stage: 0,
            block: 0,
            kind: IntegrityKind::Energy,
        };
        assert_eq!(core_level.integrity_kind(), Some(IntegrityKind::Energy));
        let wrapped: CoreError = PipelineError::Integrity {
            stage: 1,
            block: 2,
            kind: IntegrityKind::Checksum,
        }
        .into();
        assert_eq!(wrapped.integrity_kind(), Some(IntegrityKind::Checksum));
        let other = CoreError::SocketMismatch { plan: 2, machine: 1 };
        assert_eq!(other.integrity_kind(), None);
    }

    #[test]
    fn usage_is_caller_input_and_nothing_else() {
        use bwfft_pipeline::{CancelReason, ConfigError, Role};
        let usage: [CoreError; 4] = [
            PlanError::NotPow2("dim", 12).into(),
            CoreError::InputLength {
                what: "data",
                expected: 8,
                got: 4,
            },
            CoreError::SocketMismatch {
                plan: 2,
                machine: 1,
            },
            PipelineError::Config(ConfigError::ZeroIters).into(),
        ];
        for e in &usage {
            assert!(e.is_usage(), "{e:?}");
        }
        let runtime: [CoreError; 8] = [
            PipelineError::WorkerPanicked {
                role: Role::Compute,
                thread: 0,
                iter: 1,
                message: "boom".into(),
            }
            .into(),
            PipelineError::StageTimeout {
                role: Role::Data,
                thread: 0,
                iter: 2,
                timeout: core::time::Duration::from_secs(1),
            }
            .into(),
            PipelineError::Integrity {
                stage: 1,
                block: 4,
                kind: IntegrityKind::Checksum,
            }
            .into(),
            PipelineError::Cancelled {
                iter: 3,
                reason: CancelReason::Deadline,
            }
            .into(),
            // Only the simulator raises `Engine`; a failed simulation
            // is a runtime fault, not caller input.
            EngineError::UndeclaredBarrier { id: 1 }.into(),
            CoreError::Integrity {
                stage: 0,
                block: 0,
                kind: IntegrityKind::Energy,
            },
            AllocError {
                what: "double buffer",
                bytes: 1 << 40,
            }
            .into(),
            CoreError::Pipeline(PipelineError::Cancelled {
                iter: 0,
                reason: CancelReason::Shutdown,
            }),
        ];
        for e in &runtime {
            assert!(!e.is_usage(), "{e:?}");
        }
    }

    #[test]
    fn source_chains_to_the_layer_error() {
        use std::error::Error;
        let e: CoreError = PlanError::NotPow2("dim", 12).into();
        assert!(e.source().is_some());
        let e = CoreError::SocketMismatch { plan: 2, machine: 1 };
        assert!(e.source().is_none());
    }
}
