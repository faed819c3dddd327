//! The facade's error surface, as a facade user sees it.
//!
//! The facade adds no error type of its own: each entry point returns
//! its crate's typed error, and each of those errors classifies itself
//! through its own `is_usage()` ([`CoreError::is_usage`],
//! [`TunerError::is_usage`]). These tests pin that classification and
//! the rendered messages through the re-exported paths.

#[cfg(test)]
mod tests {
    use crate::core::{CoreError, PlanError};
    use crate::num::AllocError;
    use crate::pipeline::{CancelReason, IntegrityKind, PipelineError, Role};
    use crate::tuner::TunerError;
    use std::time::Duration;

    #[test]
    fn usage_classification() {
        let e: CoreError = PlanError::NotPow2("n", 12).into();
        assert!(e.is_usage());
        let e = CoreError::InputLength {
            what: "data",
            expected: 8,
            got: 4,
        };
        assert!(e.is_usage());
        let e: CoreError = PipelineError::StageTimeout {
            role: Role::Data,
            thread: 0,
            iter: 2,
            timeout: Duration::from_secs(1),
        }
        .into();
        assert!(!e.is_usage());
    }

    #[test]
    fn tuner_errors_flatten_and_classify() {
        // Bad wisdom = usage; a failed timing run = runtime fault.
        let e = TunerError::WisdomParse {
            line: 4,
            reason: "bad token".into(),
        };
        assert!(e.is_usage());
        assert!(e.to_string().contains("line 4"));
        let e = TunerError::Exec(CoreError::SocketMismatch {
            plan: 2,
            machine: 1,
        });
        assert!(!e.is_usage());
    }

    #[test]
    fn integrity_and_allocation_flatten_as_runtime_faults() {
        // Pipeline-level guard trip and core-level (energy) guard trip
        // re-key to the same integrity kind; both are runtime faults
        // (exit 1), never usage errors.
        let e: CoreError = PipelineError::Integrity {
            stage: 1,
            block: 4,
            kind: IntegrityKind::Checksum,
        }
        .into();
        assert_eq!(e.integrity_kind(), Some(IntegrityKind::Checksum));
        assert!(!e.is_usage());
        let e = CoreError::Integrity {
            stage: 0,
            block: 0,
            kind: IntegrityKind::Energy,
        };
        assert_eq!(e.integrity_kind(), Some(IntegrityKind::Energy));
        assert!(!e.is_usage());
        assert!(e.to_string().contains("integrity guard"));

        let e: CoreError = AllocError {
            what: "double buffer",
            bytes: 1 << 40,
        }
        .into();
        assert!(matches!(e, CoreError::Allocation(_)));
        assert!(!e.is_usage());
        assert!(e.to_string().contains("allocation"));
    }

    #[test]
    fn cancellation_flattens_as_a_runtime_fault() {
        let e: CoreError = PipelineError::Cancelled {
            iter: 3,
            reason: CancelReason::Deadline,
        }
        .into();
        assert!(matches!(
            e,
            CoreError::Pipeline(PipelineError::Cancelled {
                iter: 3,
                reason: CancelReason::Deadline
            })
        ));
        assert!(!e.is_usage());
        assert!(e.to_string().contains("deadline"));
        let e: CoreError = PipelineError::Cancelled {
            iter: 0,
            reason: CancelReason::Shutdown,
        }
        .into();
        assert!(!e.is_usage());
        assert!(e.to_string().contains("shutdown"));
    }
}
