//! Property tests of the admission controller.
//!
//! Three properties the unit tests only spot-check:
//!
//! 1. **Budgets are invariants, not hints** — under any submission
//!    sequence, the tracked in-flight bytes never exceed the configured
//!    byte budget and the queue depth never exceeds its capacity
//!    (observed step-by-step in the `workers = 0` synchronous mode,
//!    where nothing drains between submissions).
//! 2. **Drain accounting always balances** — whatever mix of shapes,
//!    deadlines, and oversized requests was thrown at the server,
//!    shutdown terminates and
//!    `submitted == completed + deadline_exceeded + failed`, with
//!    rejections matching the submit-side errors one for one.
//! 3. **Concurrent drains deliver exactly one outcome per ticket** —
//!    with real workers, every admitted ticket resolves, and the
//!    per-ticket outcome tally equals the report's counters.

use bwfft_core::Dims;
use bwfft_num::signal::random_complex;
use bwfft_serve::{FftRequest, FftServer, RequestOutcome, ServeConfig, ServeError};
use proptest::prelude::*;
use std::time::Duration;

/// The conformance shapes the soak harness rotates through.
fn shape(i: usize) -> (Dims, usize) {
    match i % 3 {
        0 => (Dims::d2(16, 32), 128),
        1 => (Dims::d3(8, 8, 16), 128),
        _ => (Dims::d3(8, 16, 16), 256),
    }
}

fn request(shape_i: usize, seed: u64) -> FftRequest {
    let (dims, b) = shape(shape_i);
    FftRequest::new(dims, random_complex(dims.total(), seed)).buffer_elems(b)
}

/// Tally of one run's per-ticket outcomes.
#[derive(Default, PartialEq, Eq, Debug)]
struct Tally {
    completed: u64,
    deadline_exceeded: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, outcome: &RequestOutcome) {
        match outcome {
            RequestOutcome::Completed { .. } => self.completed += 1,
            RequestOutcome::DeadlineExceeded { .. } => self.deadline_exceeded += 1,
            RequestOutcome::Failed { .. } => self.failed += 1,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn budgets_bound_inflight_bytes_and_queue_depth(
        capacity in 1usize..6,
        budget_requests in 1usize..4,
        submissions in 4usize..20,
        seed in 0u64..1_000_000,
    ) {
        // Budget expressed in requests of the largest shape, so some
        // sequences exhaust bytes before depth and some the reverse.
        let unit = request(2, 0).working_bytes();
        let budget = budget_requests * unit;
        let server = FftServer::start(ServeConfig {
            workers: 0,
            queue_capacity: capacity,
            byte_budget: Some(budget),
            ..ServeConfig::default()
        });
        let mut submitted = 0u64;
        let mut rejected = 0u64;
        for i in 0..submissions {
            let shape_i = ((seed >> (i % 32)) % 3) as usize;
            match server.submit(request(shape_i, seed + i as u64)) {
                Ok(_ticket) => submitted += 1,
                Err(ServeError::Rejected { .. }) => rejected += 1,
                Err(other) => return Err(TestCaseError::Fail(other.to_string())),
            }
            // The invariants hold after *every* step, not just at the
            // end: nothing drains in workers = 0 mode.
            prop_assert!(server.in_flight_bytes() <= budget);
            prop_assert!(server.queue_depth() <= capacity);
        }
        let snap = server.stats();
        prop_assert_eq!(snap.submitted, submitted);
        prop_assert_eq!(snap.rejected.total(), rejected);
    }

    #[test]
    fn drain_terminates_with_balanced_accounting(
        capacity in 1usize..8,
        budget_requests in 1usize..4,
        submissions in 1usize..24,
        expired_mask in 0u32..256,
        seed in 0u64..1_000_000,
    ) {
        let unit = request(2, 0).working_bytes();
        let mut server = FftServer::start(ServeConfig {
            workers: 0,
            queue_capacity: capacity,
            byte_budget: Some(budget_requests * unit),
            ..ServeConfig::default()
        });
        let mut tickets = Vec::new();
        let mut rejected = 0u64;
        for i in 0..submissions {
            let shape_i = ((seed >> (i % 32)) % 3) as usize;
            let mut req = request(shape_i, seed + i as u64);
            if expired_mask & (1 << (i % 8)) != 0 {
                // Already-expired deadline: must still terminate with
                // exactly one typed outcome at drain.
                req = req.deadline(Duration::ZERO);
            }
            match server.submit(req) {
                Ok(t) => tickets.push(t),
                Err(ServeError::Rejected { .. }) => rejected += 1,
                Err(other) => return Err(TestCaseError::Fail(other.to_string())),
            }
        }
        let report = server.shutdown();
        prop_assert!(report.holds(), "unbalanced report: {:?}", report);
        prop_assert_eq!(report.submitted, tickets.len() as u64);
        prop_assert_eq!(report.rejected.total(), rejected);
        let mut tally = Tally::default();
        for t in tickets {
            tally.add(&t.wait());
        }
        prop_assert_eq!(tally.completed, report.completed);
        prop_assert_eq!(tally.deadline_exceeded, report.deadline_exceeded);
        prop_assert_eq!(tally.failed, report.failed);
        // Everything admitted released its working set.
        prop_assert_eq!(server.in_flight_bytes(), 0);
    }

    #[test]
    fn concurrent_drain_delivers_exactly_one_outcome_per_ticket(
        workers in 1usize..3,
        submissions in 1usize..12,
        seed in 0u64..1_000_000,
    ) {
        let mut server = FftServer::start(ServeConfig {
            workers,
            queue_capacity: 4,
            ..ServeConfig::default()
        });
        let mut tickets = Vec::new();
        let mut rejected = 0u64;
        for i in 0..submissions {
            match server.submit(request(i % 3, seed + i as u64)) {
                Ok(t) => tickets.push(t),
                Err(ServeError::Rejected { .. }) => rejected += 1,
                Err(other) => return Err(TestCaseError::Fail(other.to_string())),
            }
        }
        let report = server.shutdown();
        prop_assert!(report.holds(), "unbalanced report: {:?}", report);
        prop_assert_eq!(report.submitted + rejected, submissions as u64);
        let mut tally = Tally::default();
        for t in tickets {
            // Terminates for every admitted ticket (the contract).
            tally.add(&t.wait());
        }
        prop_assert_eq!(tally.completed, report.completed);
        prop_assert_eq!(tally.deadline_exceeded, report.deadline_exceeded);
        prop_assert_eq!(tally.failed, report.failed);
    }
}
