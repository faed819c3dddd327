//! The tuner's error taxonomy.
//!
//! Follows the workspace convention: every failure is a value, wisdom
//! corruption is reported with the offending line, and nothing panics.
//! [`TunerError::is_usage`] splits caller input (bad wisdom, a plan
//! that fails validation) from runtime faults.

use bwfft_core::{CoreError, Dims, PlanError};

/// Why tuning, caching, or wisdom handling failed.
#[derive(Clone, Debug, PartialEq)]
pub enum TunerError {
    /// A plan assembled from tuned/wisdom parameters failed validation
    /// (e.g. a hand-edited wisdom record with an impossible buffer).
    Plan(PlanError),
    /// Timing a shortlisted candidate on the real executor failed.
    Exec(CoreError),
    /// No candidate in the search space produced a buildable plan that
    /// the cost model accepted.
    EmptySearchSpace { dims: Dims },
    /// Reading or writing the wisdom file failed at the OS level.
    WisdomIo { path: String, detail: String },
    /// The wisdom file exists but its contents do not parse; `line` is
    /// 1-based. Version and host mismatches are *not* errors — they are
    /// typed re-tune reasons (`RetuneReason`).
    WisdomParse { line: usize, reason: String },
}

impl TunerError {
    /// True for errors caused by caller input: a wisdom file that
    /// cannot be read or parsed, or a plan assembled from it that fails
    /// validation. A failed timing run is a runtime fault, whatever
    /// its cause, and so is an empty search space.
    pub fn is_usage(&self) -> bool {
        matches!(
            self,
            TunerError::Plan(_) | TunerError::WisdomIo { .. } | TunerError::WisdomParse { .. }
        )
    }
}

impl From<PlanError> for TunerError {
    fn from(e: PlanError) -> Self {
        TunerError::Plan(e)
    }
}

impl From<CoreError> for TunerError {
    fn from(e: CoreError) -> Self {
        match e {
            CoreError::Plan(p) => TunerError::Plan(p),
            other => TunerError::Exec(other),
        }
    }
}

impl core::fmt::Display for TunerError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TunerError::Plan(e) => write!(f, "tuned plan rejected: {e}"),
            TunerError::Exec(e) => write!(f, "timing run failed: {e}"),
            TunerError::EmptySearchSpace { dims } => {
                write!(f, "no viable plan candidate for {}", dims.label())
            }
            TunerError::WisdomIo { path, detail } => {
                write!(f, "wisdom file {path}: {detail}")
            }
            TunerError::WisdomParse { line, reason } => {
                write!(f, "wisdom line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for TunerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TunerError::Plan(e) => Some(e),
            TunerError::Exec(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_each_variant() {
        let e: TunerError = PlanError::NotPow2("mu", 3).into();
        assert!(e.to_string().contains("rejected"));
        let e: TunerError = CoreError::SocketMismatch { plan: 2, machine: 1 }.into();
        assert!(matches!(e, TunerError::Exec(_)));
        let e = TunerError::EmptySearchSpace {
            dims: Dims::d2(8, 8),
        };
        assert!(e.to_string().contains("2D 8x8"));
        let e = TunerError::WisdomParse {
            line: 3,
            reason: "bad token".into(),
        };
        assert!(e.to_string().contains("line 3"));
        let e = TunerError::WisdomIo {
            path: "/nope".into(),
            detail: "denied".into(),
        };
        assert!(e.to_string().contains("/nope"));
    }

    #[test]
    fn core_plan_errors_flatten_to_plan() {
        let e: TunerError = CoreError::Plan(PlanError::NotPow2("b", 3)).into();
        assert!(matches!(e, TunerError::Plan(_)));
    }

    #[test]
    fn usage_is_bad_wisdom_or_an_invalid_plan() {
        let usage = [
            TunerError::Plan(PlanError::NotPow2("mu", 3)),
            TunerError::WisdomIo {
                path: "/nope".into(),
                detail: "denied".into(),
            },
            TunerError::WisdomParse {
                line: 4,
                reason: "bad token".into(),
            },
        ];
        for e in &usage {
            assert!(e.is_usage(), "{e:?}");
        }
        // A timing run that failed on caller-shaped input is still a
        // runtime fault of the tuner.
        let runtime = [
            TunerError::Exec(CoreError::SocketMismatch {
                plan: 2,
                machine: 1,
            }),
            TunerError::EmptySearchSpace {
                dims: Dims::d2(8, 8),
            },
        ];
        for e in &runtime {
            assert!(!e.is_usage(), "{e:?}");
        }
    }

    #[test]
    fn source_chains() {
        use std::error::Error;
        let e: TunerError = PlanError::NotPow2("mu", 3).into();
        assert!(e.source().is_some());
        let e = TunerError::WisdomParse {
            line: 1,
            reason: "x".into(),
        };
        assert!(e.source().is_none());
    }
}
