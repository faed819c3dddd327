//! Request descriptors, tickets, and per-request outcomes.
//!
//! A request is a `plan_many`-style descriptor — it names the
//! transform (dimensions, direction, buffer, thread split) separately
//! from the payload, so the server can key plan and buffer caches on
//! the shape alone. Submission returns a [`Ticket`]; the overload
//! contract guarantees every admitted ticket resolves to **exactly
//! one** [`RequestOutcome`].

use bwfft_core::{CoreError, Dims, RecoveryTier};
use bwfft_kernels::Direction;
use bwfft_num::Complex64;
use bwfft_pipeline::FaultPlan;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// One FFT request: the transform descriptor plus its payload.
///
/// Built with [`FftRequest::new`] and chained setters; unset knobs use
/// the planner's defaults (forward direction, default buffer sizing,
/// one data and one compute thread).
#[derive(Clone, Debug)]
pub struct FftRequest {
    pub dims: Dims,
    pub dir: Direction,
    /// Buffer half size in elements; 0 picks the planner default.
    pub buffer_elems: usize,
    /// `(p_d, p_c)` — data and compute threads for the pipelined tier.
    pub threads: (usize, usize),
    /// The signal to transform; must hold exactly `dims.total()`
    /// elements. Returned (transformed) in the completed outcome, so a
    /// steady-state round trip allocates nothing.
    pub input: Vec<Complex64>,
    /// Deadline relative to submission; `None` uses the server default.
    pub deadline: Option<Duration>,
    /// Deterministic fault injection for chaos runs.
    pub fault: Option<FaultPlan>,
}

impl FftRequest {
    pub fn new(dims: Dims, input: Vec<Complex64>) -> Self {
        FftRequest {
            dims,
            dir: Direction::Forward,
            buffer_elems: 0,
            threads: (1, 1),
            input,
            deadline: None,
            fault: None,
        }
    }

    pub fn direction(mut self, dir: Direction) -> Self {
        self.dir = dir;
        self
    }

    pub fn buffer_elems(mut self, b: usize) -> Self {
        self.buffer_elems = b;
        self
    }

    pub fn threads(mut self, p_d: usize, p_c: usize) -> Self {
        self.threads = (p_d, p_c);
        self
    }

    pub fn deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    pub fn fault(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Bytes of pooled working set this request holds while in flight
    /// (the data array plus the work array).
    pub fn working_bytes(&self) -> usize {
        2 * self.dims.total() * core::mem::size_of::<Complex64>()
    }
}

/// How one admitted request ended. Exactly one of these is delivered
/// per ticket.
#[derive(Debug)]
pub enum RequestOutcome {
    /// The transform ran to completion (and, when the caller verifies,
    /// against the reference oracle).
    Completed {
        /// The transformed payload — the same allocation the request
        /// carried in.
        output: Vec<Complex64>,
        /// Executor tier that produced the answer.
        tier: RecoveryTier,
        /// True when the supervisor needed any recovery step.
        recovered: bool,
        /// Submission-to-completion latency.
        latency: Duration,
    },
    /// The deadline fired while the request was queued or running; the
    /// worker observed the cancellation token and freed itself.
    DeadlineExceeded { latency: Duration },
    /// Execution failed with a typed error after the recovery ladder
    /// was exhausted.
    Failed {
        error: CoreError,
        latency: Duration,
    },
}

impl RequestOutcome {
    /// Short stable token for counters and reports.
    pub fn token(&self) -> &'static str {
        match self {
            RequestOutcome::Completed { .. } => "completed",
            RequestOutcome::DeadlineExceeded { .. } => "deadline_exceeded",
            RequestOutcome::Failed { .. } => "failed",
        }
    }

    /// Submission-to-termination latency, whatever the verdict.
    pub fn latency(&self) -> Duration {
        match self {
            RequestOutcome::Completed { latency, .. }
            | RequestOutcome::DeadlineExceeded { latency }
            | RequestOutcome::Failed { latency, .. } => *latency,
        }
    }
}

/// The slot a worker delivers a request's outcome into.
pub(crate) struct OutcomeCell {
    slot: Mutex<Option<RequestOutcome>>,
    ready: Condvar,
}

impl OutcomeCell {
    pub(crate) fn new() -> Arc<OutcomeCell> {
        Arc::new(OutcomeCell {
            slot: Mutex::new(None),
            ready: Condvar::new(),
        })
    }

    pub(crate) fn deliver(&self, outcome: RequestOutcome) {
        let mut slot = self.slot.lock().unwrap_or_else(|e| e.into_inner());
        debug_assert!(slot.is_none(), "second outcome for one request");
        *slot = Some(outcome);
        self.ready.notify_all();
    }

    fn take_blocking(&self) -> RequestOutcome {
        let mut slot = self.slot.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(outcome) = slot.take() {
                return outcome;
            }
            slot = self
                .ready
                .wait(slot)
                .unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Handle to one admitted request.
pub struct Ticket {
    /// Server-assigned request id (1-based, unique per server). The
    /// same id keys the request's metrics phase timings and its
    /// flight-recorder entry, so a dumped span tree reconciles with the
    /// ticket's outcome.
    pub(crate) id: u64,
    pub(crate) cell: Arc<OutcomeCell>,
}

impl Ticket {
    /// The server-assigned request id (matches the `id` field of this
    /// request's `bwfft-flight/1` entry, when the flight recorder is
    /// armed).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Blocks until the request terminates and returns its single
    /// outcome. Always returns: the drain contract delivers an outcome
    /// for every admitted request, including across shutdown.
    pub fn wait(self) -> RequestOutcome {
        self.cell.take_blocking()
    }
}

impl core::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Ticket").field("id", &self.id).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn descriptor_setters_compose() {
        let req = FftRequest::new(Dims::d2(16, 32), vec![Complex64::default(); 512])
            .direction(Direction::Inverse)
            .buffer_elems(128)
            .threads(2, 2)
            .deadline(Duration::from_millis(5));
        assert_eq!(req.dir, Direction::Inverse);
        assert_eq!(req.buffer_elems, 128);
        assert_eq!(req.threads, (2, 2));
        assert_eq!(req.deadline, Some(Duration::from_millis(5)));
        // data + work, 16 bytes per element.
        assert_eq!(req.working_bytes(), 2 * 512 * 16);
    }

    #[test]
    fn ticket_delivers_exactly_one_outcome_across_threads() {
        let cell = OutcomeCell::new();
        let ticket = Ticket {
            id: 7,
            cell: Arc::clone(&cell),
        };
        assert_eq!(ticket.id(), 7);
        let deliverer = std::thread::spawn(move || {
            cell.deliver(RequestOutcome::DeadlineExceeded {
                latency: Duration::from_millis(1),
            });
        });
        let outcome = ticket.wait();
        assert_eq!(outcome.token(), "deadline_exceeded");
        assert_eq!(outcome.latency(), Duration::from_millis(1));
        deliverer.join().unwrap();
    }
}
