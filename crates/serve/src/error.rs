//! Typed admission verdicts: why a request was refused at the door.
//!
//! Load shedding is only usable if the caller can tell *which* limit it
//! hit — a full queue asks for backpressure, an exhausted byte budget
//! asks for smaller requests, an open breaker asks for time. Every
//! rejection therefore carries a [`RejectReason`], and usage mistakes
//! (malformed request descriptors) are kept apart from overload so the
//! CLI can keep its usage-versus-runtime exit-code discipline.

use bwfft_core::PlanError;
use bwfft_num::AllocError;

/// Why [`submit`](crate::FftServer::submit) refused to admit a request.
///
/// All reasons are load shedding: the request never entered the queue
/// and consumed no pooled memory.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// The bounded request queue is at capacity.
    QueueFull { depth: usize, capacity: usize },
    /// Admitting the request's working set would exceed the configured
    /// in-flight byte budget.
    ByteBudget(AllocError),
    /// The buffer pool could not supply the request's working set even
    /// after evicting idle shelves.
    PoolExhausted(AllocError),
    /// The degradation governor is open: the service rejects fast until
    /// a probe request succeeds.
    BreakerOpen,
    /// The server is draining; no new work is admitted.
    ShuttingDown,
}

impl RejectReason {
    /// Short stable token for counters, trace marks, and JSON records.
    pub fn token(&self) -> &'static str {
        match self {
            RejectReason::QueueFull { .. } => "queue_full",
            RejectReason::ByteBudget(_) => "byte_budget",
            RejectReason::PoolExhausted(_) => "pool_exhausted",
            RejectReason::BreakerOpen => "breaker_open",
            RejectReason::ShuttingDown => "shutting_down",
        }
    }
}

impl core::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RejectReason::QueueFull { depth, capacity } => {
                write!(f, "queue full ({depth}/{capacity})")
            }
            RejectReason::ByteBudget(e) => {
                write!(f, "in-flight byte budget exhausted ({e})")
            }
            RejectReason::PoolExhausted(e) => write!(f, "buffer pool exhausted ({e})"),
            RejectReason::BreakerOpen => f.write_str("circuit breaker open"),
            RejectReason::ShuttingDown => f.write_str("server shutting down"),
        }
    }
}

/// A [`submit`](crate::FftServer::submit) error.
#[derive(Debug)]
pub enum ServeError {
    /// Admission control shed the request. This is the overload
    /// contract working as designed, not a fault.
    Rejected { reason: RejectReason },
    /// The request descriptor itself is malformed (plan construction
    /// failed or the payload length disagrees with the dimensions).
    /// Retrying an identical request cannot succeed.
    InvalidRequest { error: PlanError },
    /// The request payload has the wrong number of elements for its
    /// dimensions.
    InputLength { expected: usize, got: usize },
}

impl ServeError {
    /// True for errors that are the caller's mistake rather than the
    /// service's load state — the CLI maps these to usage exits.
    pub fn is_usage(&self) -> bool {
        matches!(
            self,
            ServeError::InvalidRequest { .. } | ServeError::InputLength { .. }
        )
    }
}

impl core::fmt::Display for ServeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ServeError::Rejected { reason } => write!(f, "request rejected: {reason}"),
            ServeError::InvalidRequest { error } => write!(f, "invalid request: {error}"),
            ServeError::InputLength { expected, got } => {
                write!(f, "input of {got} elements does not match dims ({expected})")
            }
        }
    }
}

impl std::error::Error for ServeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reasons_have_stable_tokens_and_render() {
        let reasons = [
            RejectReason::QueueFull {
                depth: 4,
                capacity: 4,
            },
            RejectReason::ByteBudget(AllocError {
                what: "serve admission",
                bytes: 1024,
            }),
            RejectReason::PoolExhausted(AllocError {
                what: "buffer pool",
                bytes: 2048,
            }),
            RejectReason::BreakerOpen,
            RejectReason::ShuttingDown,
        ];
        let tokens: Vec<_> = reasons.iter().map(RejectReason::token).collect();
        assert_eq!(
            tokens,
            [
                "queue_full",
                "byte_budget",
                "pool_exhausted",
                "breaker_open",
                "shutting_down"
            ]
        );
        for r in &reasons {
            assert!(!r.to_string().is_empty());
        }
    }

    #[test]
    fn usage_errors_are_distinguished_from_load_shedding() {
        let shed = ServeError::Rejected {
            reason: RejectReason::BreakerOpen,
        };
        let usage = ServeError::InputLength {
            expected: 512,
            got: 511,
        };
        assert!(!shed.is_usage());
        assert!(usage.is_usage());
        assert!(usage.to_string().contains("511"));
    }
}
