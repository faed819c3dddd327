//! Chaos/soak harness: randomized fault schedules against the
//! supervisor.
//!
//! Each iteration draws a fault plan (or none) from a seeded generator,
//! runs a small transform under [`Supervisor`] with every integrity
//! guard armed, and checks the outcome against an *independent* oracle:
//! the naive `O(n²)` DFT of `bwfft-kernels::reference`, which shares no
//! code with any tier (the reference tier's row-column loops are
//! themselves an escalation tier, so they cannot judge it). The harness
//! asserts the recovery contract:
//!
//! * **never a wrong answer** — a run that returns `Ok` must match the
//!   oracle to FFT tolerance (a mismatch is counted as a silent
//!   corruption, the one thing the whole subsystem exists to prevent);
//! * **never a panic** — injected worker panics are contained and
//!   either recovered from or surfaced as typed errors;
//! * **deterministic** — the same seed produces the same outcome
//!   counters, attempt counts and tier distribution.
//!
//! The `soak` CLI subcommand and `tests/soak.rs` drive this module; the
//! CI smoke tier runs it with a fixed seed.

use bwfft_core::exec_real::ExecConfig;
use bwfft_core::CoreError;
use bwfft_core::{Dims, FftPlan, RecoveryTier, RetryPolicy, SupervisedReport, Supervisor};
use bwfft_kernels::reference::{dft2_naive, dft3_naive};
use bwfft_kernels::Direction;
use bwfft_num::compare::{fft_tolerance, rel_l2_error};
use bwfft_num::signal::random_complex;
use bwfft_num::Complex64;
use bwfft_pipeline::fault::silence_injected_panic_reports;
use bwfft_pipeline::{AdaptiveWatchdog, FaultPhase, FaultPlan, IntegrityConfig, Role};
use bwfft_serve::{FftRequest, FftServer, RequestOutcome, ServeConfig, ServeError};
use std::time::Duration;

/// xorshift64* — tiny, dependency-free, and good enough to scatter
/// fault sites around the schedule. Distinct from `SplitMix64` in
/// `bwfft-num` so signal data and fault schedules are decorrelated
/// even under equal seeds.
#[derive(Clone, Debug)]
pub struct XorShift64Star(u64);

impl XorShift64Star {
    pub fn new(seed: u64) -> Self {
        // State must be nonzero; fold the seed through an odd constant
        // so small seeds (0, 1, 2, …) still diverge immediately.
        XorShift64Star(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform-ish draw in `0..n` (modulo bias is irrelevant here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// The fault classes the generator draws from, also the index space of
/// [`SoakReport::fault_counts`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SoakFault {
    None = 0,
    Panic = 1,
    Stall = 2,
    Corrupt = 3,
    AllocBudget = 4,
    DenyPinning = 5,
}

const FAULT_KINDS: usize = 6;

/// Soak run parameters.
#[derive(Clone, Debug)]
pub struct SoakConfig {
    /// Fault-injected iterations to run.
    pub iters: usize,
    /// Seed for the fault/signal generator; equal seeds give equal
    /// reports.
    pub seed: u64,
    /// Injected stall length. Kept short: the executor joins stalled
    /// workers, so every stall is paid in wall-clock.
    pub stall: Duration,
    /// Supervisor budget used for every iteration.
    pub policy: RetryPolicy,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            iters: 200,
            seed: 0xB147_F00D,
            stall: Duration::from_millis(10),
            policy: RetryPolicy {
                backoff_base: Duration::from_micros(100),
                backoff_cap: Duration::from_millis(2),
                // No injected fault should time out: the stalls are
                // 10 ms, so a 1 s floor keeps "never a hang" armed
                // without letting a descheduled barrier wait on a
                // loaded host turn a clean run into a recovered one
                // (which would make equal seeds give unequal reports).
                watchdog: Some(AdaptiveWatchdog {
                    min: Duration::from_secs(1),
                    ..AdaptiveWatchdog::default()
                }),
                ..RetryPolicy::default()
            },
        }
    }
}

/// Aggregated soak outcome.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SoakReport {
    /// Iterations executed.
    pub iterations: usize,
    /// Runs that succeeded first-try with no recovery steps.
    pub clean: usize,
    /// Runs that succeeded after at least one recovery step.
    pub recovered: usize,
    /// Runs that ended in a typed error (every tier exhausted). Still a
    /// contract success: typed, not wrong, not a panic.
    pub typed_errors: usize,
    /// Runs that returned `Ok` with output that does NOT match the
    /// oracle. The invariant under test: this must stay zero.
    pub silent_corruptions: usize,
    /// Successful runs by finishing tier `[pipelined, fused, reference]`.
    pub tier_finishes: [usize; 3],
    /// Iterations by injected fault class, indexed by [`SoakFault`].
    pub fault_counts: [usize; FAULT_KINDS],
    /// Total executor attempts across all iterations.
    pub total_attempts: usize,
}

impl SoakReport {
    /// The soak contract: every iteration accounted for, zero silent
    /// corruptions.
    pub fn holds(&self) -> bool {
        self.silent_corruptions == 0
            && self.clean + self.recovered + self.typed_errors + self.silent_corruptions
                == self.iterations
    }

    /// Human-readable one-screen summary.
    pub fn render(&self) -> String {
        format!(
            "soak: {} iterations — {} clean, {} recovered, {} typed errors, \
             {} silent corruptions\n\
             finishes by tier: pipelined {}, fused {}, reference {}\n\
             faults injected: none {}, panic {}, stall {}, corrupt {}, \
             alloc {}, pin-deny {}\n\
             total attempts: {}\n\
             contract: {}",
            self.iterations,
            self.clean,
            self.recovered,
            self.typed_errors,
            self.silent_corruptions,
            self.tier_finishes[0],
            self.tier_finishes[1],
            self.tier_finishes[2],
            self.fault_counts[0],
            self.fault_counts[1],
            self.fault_counts[2],
            self.fault_counts[3],
            self.fault_counts[4],
            self.fault_counts[5],
            self.total_attempts,
            if self.holds() { "HOLDS" } else { "VIOLATED" },
        )
    }
}

/// The small shapes the soak rotates through, with their buffer sizes:
/// one 2D, two 3D, all a few blocks long so every schedule region
/// (prologue / steady state / epilogue) sees faults.
pub const SOAK_SHAPES: [(Dims, usize); 3] = [
    (Dims::Two { n: 16, m: 32 }, 128),
    (Dims::Three { k: 8, n: 8, m: 16 }, 128),
    (Dims::Three { k: 8, n: 16, m: 16 }, 256),
];

fn shape_for(rng: &mut XorShift64Star) -> (Dims, usize) {
    SOAK_SHAPES[rng.below(SOAK_SHAPES.len() as u64) as usize]
}

fn random_phase(rng: &mut XorShift64Star, role: Role) -> FaultPhase {
    match role {
        Role::Compute => FaultPhase::Compute,
        Role::Data => {
            if rng.below(2) == 0 {
                FaultPhase::Load
            } else {
                FaultPhase::Store
            }
        }
    }
}

fn random_site(rng: &mut XorShift64Star, blocks: usize) -> (Role, usize, usize, FaultPhase) {
    let role = if rng.below(2) == 0 {
        Role::Data
    } else {
        Role::Compute
    };
    // Thread indices up to 2: index 1 hits only the pipelined executor
    // (fused runs with thread-0 semantics), index 0 hits both.
    let thread = rng.below(2) as usize;
    let iter = rng.below(blocks as u64) as usize;
    let phase = random_phase(rng, role);
    (role, thread, iter, phase)
}

/// Draws one fault plan (possibly empty) for an iteration.
fn random_fault(
    rng: &mut XorShift64Star,
    blocks: usize,
    stall: Duration,
) -> (SoakFault, FaultPlan) {
    match rng.below(FAULT_KINDS as u64) {
        0 => (SoakFault::None, FaultPlan::none()),
        1 => {
            let (role, thread, iter, phase) = random_site(rng, blocks);
            (
                SoakFault::Panic,
                FaultPlan::panic_at_phase(role, thread, iter, phase),
            )
        }
        2 => {
            let (role, thread, iter, phase) = random_site(rng, blocks);
            (
                SoakFault::Stall,
                FaultPlan::stall_at_phase(role, thread, iter, phase, stall),
            )
        }
        3 => {
            let (role, thread, iter, phase) = random_site(rng, blocks);
            (
                SoakFault::Corrupt,
                FaultPlan::corrupt_at(role, thread, iter, phase),
            )
        }
        4 => {
            // From "one halving recovers" down to "nothing fits, land
            // on the reference tier".
            let budgets = [2048u64, 1024, 256, 16];
            let budget = budgets[rng.below(budgets.len() as u64) as usize];
            (
                SoakFault::AllocBudget,
                FaultPlan::none().with_alloc_budget(budget as usize),
            )
        }
        _ => (SoakFault::DenyPinning, FaultPlan::none().with_denied_pinning()),
    }
}

/// The independent oracle: the naive forward DFT. At the soak's sizes
/// (at most 2,048 points) it costs about 80k complex multiply-adds.
fn oracle(dims: Dims, x: &[Complex64]) -> Vec<Complex64> {
    match dims {
        Dims::Two { n, m } => dft2_naive(x, n, m, Direction::Forward),
        Dims::Three { k, n, m } => dft3_naive(x, k, n, m, Direction::Forward),
    }
}

/// Runs the soak: `cfg.iters` randomized fault-injected supervised
/// transforms. Returns `Err` only if an iteration's *plan construction*
/// fails (a harness bug, not a recovery outcome) — every executor
/// outcome, including typed failures, is folded into the report.
pub fn run_soak(cfg: &SoakConfig) -> Result<SoakReport, CoreError> {
    silence_injected_panic_reports();
    let mut rng = XorShift64Star::new(cfg.seed);
    let supervisor = Supervisor::new(cfg.policy.clone());
    let mut report = SoakReport::default();

    for _ in 0..cfg.iters {
        let (dims, b) = shape_for(&mut rng);
        let plan = FftPlan::builder(dims)
            .buffer_elems(b)
            .threads(2, 2)
            .build()?;
        let blocks = plan.iters_per_socket();
        let (kind, fault) = random_fault(&mut rng, blocks, cfg.stall);
        report.fault_counts[kind as usize] += 1;

        let x = random_complex(dims.total(), rng.next_u64());
        let want = oracle(dims, &x);

        let mut data = x;
        let mut work = vec![Complex64::ZERO; dims.total()];
        let exec_cfg = ExecConfig {
            fault: Some(fault),
            integrity: IntegrityConfig::full(),
            verify_energy: true,
            ..ExecConfig::default()
        };

        report.iterations += 1;
        match supervisor.run(&plan, &mut data, &mut work, &exec_cfg) {
            Ok(rep) => {
                report.total_attempts += rep.attempts;
                if rel_l2_error(&data, &want) <= fft_tolerance(want.len()) {
                    record_success(&mut report, &rep);
                } else {
                    report.silent_corruptions += 1;
                }
            }
            Err(_) => {
                // Typed failure: acceptable under the contract. (Any
                // panic would have unwound through this call instead.)
                report.typed_errors += 1;
            }
        }
    }
    Ok(report)
}

fn record_success(report: &mut SoakReport, rep: &SupervisedReport) {
    if rep.recovered() {
        report.recovered += 1;
    } else {
        report.clean += 1;
    }
    let t = match rep.tier {
        RecoveryTier::Pipelined => 0,
        RecoveryTier::Fused => 1,
        RecoveryTier::Reference => 2,
    };
    report.tier_finishes[t] += 1;
}

// ---------------------------------------------------------------------------
// Serve overload matrix
// ---------------------------------------------------------------------------

/// The overload scenarios the serve soak rotates through, also the
/// index space of [`ServeSoakReport::scenario_counts`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeScenario {
    /// Burst arrivals into a shallow queue: shedding expected.
    Burst = 0,
    /// Requests larger than the byte budget mixed with ones that fit.
    Oversized = 1,
    /// Injected faults mid-flight: the supervisor must recover or fail
    /// typed, never corrupt.
    Faults = 2,
    /// Shutdown racing submissions, with some already-expired
    /// deadlines in the queue.
    ShutdownRace = 3,
}

const SERVE_SCENARIOS: usize = 4;

/// Serve soak parameters. Each iteration is one full server lifecycle
/// (start → submissions → drain → per-ticket verification).
#[derive(Clone, Debug)]
pub struct ServeSoakConfig {
    /// Server lifecycles to run (scenarios rotate).
    pub iters: usize,
    /// Seed for scenario draws and signal data.
    pub seed: u64,
}

impl Default for ServeSoakConfig {
    fn default() -> Self {
        ServeSoakConfig {
            iters: 12,
            seed: 0x5E7E_F00D,
        }
    }
}

/// Aggregated serve-soak outcome. Worker scheduling makes the exact
/// split between counters run-dependent; the *contract* columns
/// (`oracle_mismatches`, `unbalanced_lifecycles`) must stay zero on
/// every run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServeSoakReport {
    /// Server lifecycles executed.
    pub lifecycles: usize,
    /// Iterations by scenario, indexed by [`ServeScenario`].
    pub scenario_counts: [usize; SERVE_SCENARIOS],
    /// Submission attempts across all lifecycles.
    pub attempts: u64,
    /// Admitted past every admission check.
    pub submitted: u64,
    pub completed: u64,
    pub rejected: u64,
    pub deadline_exceeded: u64,
    pub failed: u64,
    /// Completions that needed supervisor recovery.
    pub recovered: u64,
    /// Completions whose output did NOT match the naive-DFT oracle. The
    /// invariant under test: must stay zero.
    pub oracle_mismatches: u64,
    /// Lifecycles whose drained report failed its own accounting, or
    /// whose per-ticket outcome tally disagreed with it. Must stay
    /// zero: every submission terminates with exactly one typed
    /// outcome.
    pub unbalanced_lifecycles: u64,
    /// Breaker degradations observed across the Faults lifecycles
    /// (downward transitions in the drained report).
    pub breaker_trips: u64,
    /// `breaker:*`-triggered flight-recorder dumps captured across the
    /// Faults lifecycles. The observability contract: one dump per
    /// degradation, so this must equal `breaker_trips`.
    pub flight_dumps: u64,
    /// Flight dumps that failed reconciliation — a request id the
    /// lifecycle never issued, an outcome disagreeing with the ticket's
    /// own, or a `bwfft-flight/1` round trip that was not
    /// byte-identical. Must stay zero.
    pub unreconciled_dumps: u64,
}

impl ServeSoakReport {
    /// The serve contract: every attempt accounted for (admitted or
    /// shed), every admitted request terminated exactly once, no
    /// completed output diverged from the oracle.
    pub fn holds(&self) -> bool {
        self.oracle_mismatches == 0
            && self.unbalanced_lifecycles == 0
            && self.attempts == self.submitted + self.rejected
            && self.submitted == self.completed + self.deadline_exceeded + self.failed
            && self.flight_dumps == self.breaker_trips
            && self.unreconciled_dumps == 0
    }

    /// Human-readable one-screen summary.
    pub fn render(&self) -> String {
        format!(
            "serve soak: {} lifecycles — {} attempts: {} completed, \
             {} rejected, {} deadline-exceeded, {} failed ({} recovered)\n\
             scenarios: burst {}, oversized {}, faults {}, shutdown-race {}\n\
             oracle mismatches: {}, unbalanced lifecycles: {}\n\
             breaker trips: {}, flight dumps: {}, unreconciled dumps: {}\n\
             contract: {}",
            self.lifecycles,
            self.attempts,
            self.completed,
            self.rejected,
            self.deadline_exceeded,
            self.failed,
            self.recovered,
            self.scenario_counts[0],
            self.scenario_counts[1],
            self.scenario_counts[2],
            self.scenario_counts[3],
            self.oracle_mismatches,
            self.unbalanced_lifecycles,
            self.breaker_trips,
            self.flight_dumps,
            self.unreconciled_dumps,
            if self.holds() { "HOLDS" } else { "VIOLATED" },
        )
    }
}

/// One lifecycle's submissions: inputs kept for oracle checks.
struct ServeProbe {
    dims: Dims,
    input: Vec<Complex64>,
    ticket: bwfft_serve::Ticket,
}

/// Runs the concurrent overload matrix against `bwfft-serve`. Each
/// iteration builds a fresh server under one [`ServeScenario`], throws
/// a randomized batch at it, drains, and verifies every ticket:
/// completed outputs against the naive-DFT oracle, and the per-ticket
/// outcome tally against the drained [`bwfft_serve::ServeReport`].
pub fn run_serve_soak(cfg: &ServeSoakConfig) -> Result<ServeSoakReport, ServeError> {
    silence_injected_panic_reports();
    let mut rng = XorShift64Star::new(cfg.seed);
    let mut report = ServeSoakReport::default();

    for i in 0..cfg.iters {
        let scenario = match i % SERVE_SCENARIOS {
            0 => ServeScenario::Burst,
            1 => ServeScenario::Oversized,
            2 => ServeScenario::Faults,
            _ => ServeScenario::ShutdownRace,
        };
        report.lifecycles += 1;
        report.scenario_counts[scenario as usize] += 1;

        // The smallest shape's working set prices the byte budget so
        // the Oversized scenario always has requests that cannot fit.
        let small_bytes = 2 * Dims::d2(16, 32).total() * std::mem::size_of::<Complex64>();
        let flight = (scenario == ServeScenario::Faults)
            .then(|| bwfft_metrics::FlightRecorder::new(16));
        let server_cfg = match scenario {
            ServeScenario::Burst => ServeConfig {
                workers: 2,
                queue_capacity: 2,
                ..ServeConfig::default()
            },
            ServeScenario::Oversized => ServeConfig {
                workers: 1,
                queue_capacity: 8,
                byte_budget: Some(small_bytes + small_bytes / 2),
                ..ServeConfig::default()
            },
            ServeScenario::Faults => ServeConfig {
                workers: 2,
                queue_capacity: 8,
                // Same guard set as the supervisor soak: injected
                // corruption must fail typed, never complete wrong.
                integrity: IntegrityConfig::full(),
                verify_energy: true,
                // Hair-trigger breaker: the guaranteed expired-deadline
                // request in every Faults batch trips it, and the
                // flight recorder must produce a reconcilable dump for
                // every degradation (checked after the drain).
                breaker: bwfft_serve::BreakerConfig {
                    failure_threshold: 1,
                    success_threshold: 2,
                    probe_interval: 4,
                },
                metrics: Some(std::sync::Arc::new(bwfft_metrics::Registry::new())),
                flight: flight.clone(),
                ..ServeConfig::default()
            },
            ServeScenario::ShutdownRace => ServeConfig {
                workers: 2,
                queue_capacity: 8,
                ..ServeConfig::default()
            },
        };
        let mut server = FftServer::start(server_cfg);

        let batch = 4 + rng.below(5) as usize;
        let mut probes = Vec::with_capacity(batch);
        let mut rejected = 0u64;
        for j in 0..batch {
            let (dims, b) = match scenario {
                // Keep every request admissible-by-size except in the
                // Oversized scenario, where the larger 3D shapes bust
                // the byte budget by construction.
                ServeScenario::Oversized => shape_for(&mut rng),
                _ => (Dims::d2(16, 32), 128),
            };
            let input = random_complex(dims.total(), rng.next_u64());
            let mut req = FftRequest::new(dims, input.clone())
                .buffer_elems(b)
                .threads(2, 2);
            if scenario == ServeScenario::Faults {
                if j == 0 {
                    // Guaranteed breaker failure: an already-expired
                    // deadline terminates `DeadlineExceeded`, which the
                    // hair-trigger breaker answers with a degradation —
                    // and the flight recorder must dump it.
                    req = req.deadline(Duration::ZERO);
                } else {
                    let (role, thread, iter, phase) = random_site(&mut rng, 4);
                    req = match rng.below(2) {
                        0 => req.fault(FaultPlan::panic_at_phase(role, thread, iter, phase)),
                        _ => req.fault(FaultPlan::corrupt_at(role, thread, iter, phase)),
                    };
                }
            }
            if scenario == ServeScenario::ShutdownRace && rng.below(3) == 0 {
                // Already expired: must still terminate exactly once.
                req = req.deadline(Duration::ZERO);
            }
            report.attempts += 1;
            match server.submit(req) {
                Ok(ticket) => probes.push(ServeProbe { dims, input, ticket }),
                Err(ServeError::Rejected { .. }) => rejected += 1,
                // A usage error here is a harness bug, not an outcome.
                Err(e) => return Err(e),
            }
        }

        // ShutdownRace drains immediately with work still queued and
        // in flight; the other scenarios drain after the batch too —
        // the report is only meaningful once drained.
        let drained = server.shutdown();

        let mut completed = 0u64;
        let mut deadline_exceeded = 0u64;
        let mut failed = 0u64;
        let mut outcome_tokens: std::collections::HashMap<u64, &'static str> =
            std::collections::HashMap::new();
        for probe in probes {
            let id = probe.ticket.id();
            let outcome = probe.ticket.wait();
            outcome_tokens.insert(id, outcome.token());
            match outcome {
                RequestOutcome::Completed { output, .. } => {
                    completed += 1;
                    let want = oracle(probe.dims, &probe.input);
                    if rel_l2_error(&output, &want) > fft_tolerance(want.len()) {
                        report.oracle_mismatches += 1;
                    }
                }
                RequestOutcome::DeadlineExceeded { .. } => deadline_exceeded += 1,
                RequestOutcome::Failed { .. } => failed += 1,
            }
        }

        if let Some(flight) = &flight {
            // One dump per breaker degradation, and every dump's span
            // trees must reconcile with the per-ticket tally: known
            // request ids, agreeing outcomes, byte-stable JSON.
            report.breaker_trips += drained
                .breaker_transitions
                .iter()
                .filter(|t| t.to > t.from)
                .count() as u64;
            for dump in flight.take_dumps() {
                if dump.trigger.starts_with("breaker:") {
                    report.flight_dumps += 1;
                }
                let reconciles = dump.requests.iter().all(|r| {
                    outcome_tokens.get(&r.request_id) == Some(&r.outcome.as_str())
                }) && bwfft_metrics::FlightDump::from_json(&dump.to_json())
                    .map(|back| back.to_json() == dump.to_json())
                    .unwrap_or(false);
                if !reconciles {
                    report.unreconciled_dumps += 1;
                }
            }
        }

        // Exactly-one-outcome accounting: the drained report must
        // balance on its own *and* agree with what the tickets said.
        let balanced = drained.holds()
            && drained.completed == completed
            && drained.deadline_exceeded == deadline_exceeded
            && drained.failed == failed
            && drained.rejected.total() == rejected;
        if !balanced {
            report.unbalanced_lifecycles += 1;
        }
        report.submitted += drained.submitted;
        report.completed += completed;
        report.rejected += rejected;
        report.deadline_exceeded += deadline_exceeded;
        report.failed += failed;
        report.recovered += drained.recovered_runs;
    }
    Ok(report)
}

// ---------------------------------------------------------------------------
// Out-of-core kill/restart drill
// ---------------------------------------------------------------------------

/// What the drill does to the kept workspace between the kill and the
/// resume, also the index space of
/// [`OocKillSoakReport::tamper_counts`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OocTamper {
    /// Resume the workspace exactly as the dead process left it.
    None = 0,
    /// Tear bytes off the journal tail — the on-disk state after a
    /// power cut mid-append.
    TornTail = 1,
    /// Append raw garbage after the last clean frame — a torn append
    /// that made it partway to disk.
    GarbageTail = 2,
    /// Flip one payload bit inside a journal-credited scratch block —
    /// storage corruption the resume re-verification must refuse.
    ScratchFlip = 3,
}

const OOC_TAMPERS: usize = 4;

/// Kill/restart drill parameters. Every iteration spawns a real
/// `bwfft-cli ooc` child, aborts it at a seeded (stage, block) point,
/// optionally tampers with the kept workspace, and resumes.
#[derive(Clone, Debug)]
pub struct OocKillSoakConfig {
    /// Path to the `bwfft-cli` binary to spawn. Defaults to the
    /// running executable (the CLI drills itself); integration tests
    /// point this at `CARGO_BIN_EXE_bwfft-cli`.
    pub cli: std::path::PathBuf,
    /// Kill → (tamper) → resume cycles. The crash stage rotates so any
    /// `iters >= 5` covers every stage.
    pub iters: usize,
    /// Seed for crash blocks and tamper draws.
    pub seed: u64,
    /// Transform length for every cycle.
    pub n: usize,
    /// Working-memory budget — small, so every stage has many blocks
    /// and a mid-stage kill leaves real work on both sides.
    pub budget_bytes: usize,
    /// Parent directory for the per-cycle workspaces (default: the
    /// system temp dir).
    pub parent: Option<std::path::PathBuf>,
}

impl Default for OocKillSoakConfig {
    fn default() -> Self {
        OocKillSoakConfig {
            cli: std::env::current_exe().unwrap_or_default(),
            iters: 10,
            seed: 0x0CC1_4B17,
            n: 1 << 12,
            budget_bytes: 16 * 1024,
            parent: None,
        }
    }
}

/// Aggregated kill/restart outcome. The contract columns
/// (`wrong_answers`, `panics`, `unbounded_rework`,
/// `unexpected_child_exits`) must stay zero on every run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OocKillSoakReport {
    /// Kill → resume cycles executed.
    pub iterations: usize,
    /// Children that really died at the armed crash point (SIGABRT).
    pub kills: usize,
    /// Resumes that completed with a passing oracle.
    pub resumed_ok: usize,
    /// Resumes the checkpoint layer *refused* with a typed error —
    /// the correct outcome for [`OocTamper::ScratchFlip`].
    pub detected_corruptions: usize,
    /// Cycles by tamper mode, indexed by [`OocTamper`].
    pub tamper_counts: [usize; OOC_TAMPERS],
    /// Resumes whose child printed a failing oracle line or silently
    /// accepted corrupted scratch. Must stay zero.
    pub wrong_answers: usize,
    /// Resume children that died by signal or printed a panic instead
    /// of a typed error. Must stay zero.
    pub panics: usize,
    /// Resumes whose rework exceeded one stage's blocks. Must stay
    /// zero: the bound is the whole point of the journal.
    pub unbounded_rework: usize,
    /// Children that neither aborted at the crash point (kill leg) nor
    /// produced the expected typed/clean outcome (resume leg). Must
    /// stay zero.
    pub unexpected_child_exits: usize,
    /// Blocks the resumes skipped as journal-credited.
    pub total_skipped_blocks: u64,
    /// Blocks the resumes re-executed.
    pub total_rework_blocks: u64,
}

impl OocKillSoakReport {
    /// The crash-safety contract: every kill really killed, every
    /// resume either finished right or refused typed, rework bounded.
    pub fn holds(&self) -> bool {
        self.wrong_answers == 0
            && self.panics == 0
            && self.unbounded_rework == 0
            && self.unexpected_child_exits == 0
            && self.kills == self.iterations
            && self.resumed_ok + self.detected_corruptions == self.iterations
    }

    /// Human-readable one-screen summary.
    pub fn render(&self) -> String {
        format!(
            "ooc kill soak: {} cycles — {} killed, {} resumed clean, \
             {} corruptions refused typed\n\
             tampers: none {}, torn-tail {}, garbage-tail {}, scratch-flip {}\n\
             skipped {} block(s), reworked {} block(s)\n\
             wrong answers: {}, panics: {}, unbounded rework: {}, \
             unexpected exits: {}\n\
             contract: {}",
            self.iterations,
            self.kills,
            self.resumed_ok,
            self.detected_corruptions,
            self.tamper_counts[0],
            self.tamper_counts[1],
            self.tamper_counts[2],
            self.tamper_counts[3],
            self.total_skipped_blocks,
            self.total_rework_blocks,
            self.wrong_answers,
            self.panics,
            self.unbounded_rework,
            self.unexpected_child_exits,
            if self.holds() { "HOLDS" } else { "VIOLATED" },
        )
    }
}

/// Blocks streamed by `stage`, mirroring the executor's geometry: the
/// stage reads its source matrix in `br`-row bands.
fn ooc_stage_blocks(p: &bwfft_ooc::OocPlan, stage: usize) -> usize {
    let (r, c) = match stage {
        1 | 2 => (p.n2, p.n1),
        _ => (p.n1, p.n2),
    };
    let br = (p.half_elems / c).min(r).max(1);
    r / br
}

/// The store each stage writes — the one whose journal-credited blocks
/// a scratch-flip tamper corrupts.
fn ooc_stage_dst(stage: usize) -> &'static str {
    ["t1.bin", "s1.bin", "t2.bin", "s2.bin", "output.bin"][stage]
}

/// Parses the CLI's machine-parseable `resume:` line into
/// (resumed, skipped_blocks, reverified_blocks, rework_blocks).
fn parse_resume_line(stdout: &str) -> Option<(bool, u64, u64, u64)> {
    let line = stdout.lines().find(|l| l.starts_with("resume: "))?;
    let mut resumed = None;
    let mut skipped = None;
    let mut reverified = None;
    let mut rework = None;
    for pair in line.trim_start_matches("resume: ").split_whitespace() {
        let (k, v) = pair.split_once('=')?;
        match k {
            "resumed" => resumed = v.parse().ok(),
            "skipped_blocks" => skipped = v.parse().ok(),
            "reverified_blocks" => reverified = v.parse().ok(),
            "rework_blocks" => rework = v.parse().ok(),
            _ => {}
        }
    }
    Some((resumed?, skipped?, reverified?, rework?))
}

/// Runs one `bwfft-cli ooc` child and captures its output.
fn spawn_ooc_child(
    cfg: &OocKillSoakConfig,
    dir: &std::path::Path,
    extra: &[&str],
) -> Result<std::process::Output, bwfft_ooc::OocError> {
    let n = cfg.n.to_string();
    let budget = cfg.budget_bytes.to_string();
    let seed = cfg.seed.to_string();
    std::process::Command::new(&cfg.cli)
        .arg("ooc")
        .args(["--n", &n, "--budget", &budget, "--seed", &seed])
        .args(["--workspace"])
        .arg(dir)
        .args(extra)
        .output()
        .map_err(|e| bwfft_ooc::OocError::io("spawn ooc child", e))
}

/// Runs the kill/restart drill: real child processes aborted at seeded
/// (stage, block) points across every stage, workspaces torn and
/// bit-flipped between kill and resume, then resumed and verified.
/// Returns `Err` only on harness failures (the CLI binary cannot be
/// spawned, a workspace cannot be prepared) — every child outcome,
/// including refusals, is folded into the report.
pub fn run_ooc_kill_soak(cfg: &OocKillSoakConfig) -> Result<OocKillSoakReport, bwfft_ooc::OocError> {
    use std::os::unix::process::ExitStatusExt;

    let plan = bwfft_ooc::plan(
        cfg.n,
        &bwfft_ooc::OocConfig {
            budget_bytes: cfg.budget_bytes,
            ..bwfft_ooc::OocConfig::default()
        },
    )?;
    let parent = cfg
        .parent
        .clone()
        .unwrap_or_else(std::env::temp_dir);
    let mut rng = XorShift64Star::new(cfg.seed);
    let mut report = OocKillSoakReport::default();

    for i in 0..cfg.iters {
        report.iterations += 1;
        let stage = i % bwfft_ooc::STAGE_NAMES.len();
        let blocks = ooc_stage_blocks(&plan, stage);
        let block = rng.below(blocks as u64) as usize;
        let tamper = match rng.below(OOC_TAMPERS as u64) {
            0 => OocTamper::None,
            1 => OocTamper::TornTail,
            2 => OocTamper::GarbageTail,
            _ => OocTamper::ScratchFlip,
        };
        report.tamper_counts[tamper as usize] += 1;

        let dir = parent.join(format!("ooc-kill-{}-{i}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        // Kill leg: the child must die by SIGABRT at the armed point,
        // leaving a journal behind.
        let crash = format!("{stage},{block}");
        let out = spawn_ooc_child(cfg, &dir, &["--crash-at", &crash])?;
        let aborted = out.status.signal().is_some();
        let journal = dir.join(bwfft_ooc::JOURNAL_FILE);
        if aborted && journal.exists() {
            report.kills += 1;
        } else {
            report.unexpected_child_exits += 1;
            let _ = std::fs::remove_dir_all(&dir);
            continue;
        }

        // Tamper leg: damage the workspace the way real crashes do.
        match tamper {
            OocTamper::None => {}
            OocTamper::TornTail => {
                // Tear up to ~a third of a frame off the tail: at most
                // the last committed record is lost.
                let len = std::fs::metadata(&journal)
                    .map_err(|e| bwfft_ooc::OocError::io("stat journal", e))?
                    .len();
                let torn = len.saturating_sub(1 + rng.below(16));
                let f = std::fs::OpenOptions::new()
                    .write(true)
                    .open(&journal)
                    .map_err(|e| bwfft_ooc::OocError::io("open journal", e))?;
                f.set_len(torn)
                    .map_err(|e| bwfft_ooc::OocError::io("tear journal", e))?;
            }
            OocTamper::GarbageTail => {
                use std::io::Write;
                let mut f = std::fs::OpenOptions::new()
                    .append(true)
                    .open(&journal)
                    .map_err(|e| bwfft_ooc::OocError::io("open journal", e))?;
                f.write_all(b"57 deadbeef {\"kind\":\"blo")
                    .map_err(|e| bwfft_ooc::OocError::io("garbage append", e))?;
            }
            OocTamper::ScratchFlip => {
                use std::os::unix::fs::FileExt;
                // Byte 0 of the crashed stage's destination sits in
                // block 0, which the journal credits (blocks 0..=B
                // committed before the abort) and `--resume-verify
                // all` must therefore re-check.
                let victim = dir.join(ooc_stage_dst(stage));
                let f = std::fs::OpenOptions::new()
                    .read(true)
                    .write(true)
                    .open(&victim)
                    .map_err(|e| bwfft_ooc::OocError::io("open scratch", e))?;
                let mut b = [0u8; 1];
                f.read_exact_at(&mut b, 0)
                    .map_err(|e| bwfft_ooc::OocError::io("read scratch", e))?;
                b[0] ^= 0x10;
                f.write_all_at(&b, 0)
                    .map_err(|e| bwfft_ooc::OocError::io("flip scratch", e))?;
            }
        }

        // Resume leg: full re-verification, then judge the outcome.
        let out = spawn_ooc_child(cfg, &dir, &["--resume", "--resume-verify", "all"])?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        if out.status.signal().is_some() || stderr.contains("panicked") {
            report.panics += 1;
        } else if tamper == OocTamper::ScratchFlip {
            // The one tamper a resume must *refuse*: typed exit 1
            // naming the corrupt block, nothing resumed, no output.
            if out.status.code() == Some(1) && stderr.contains("scratch") {
                report.detected_corruptions += 1;
            } else if out.status.success() {
                report.wrong_answers += 1;
            } else {
                report.unexpected_child_exits += 1;
            }
        } else if out.status.success() {
            match parse_resume_line(&stdout) {
                Some((true, skipped, _reverified, rework))
                    if stdout.contains("ooc contract holds") =>
                {
                    report.resumed_ok += 1;
                    report.total_skipped_blocks += skipped;
                    report.total_rework_blocks += rework;
                    if rework > blocks as u64 {
                        report.unbounded_rework += 1;
                    }
                }
                _ => report.wrong_answers += 1,
            }
        } else {
            report.unexpected_child_exits += 1;
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_soak_holds_and_is_deterministic() {
        let cfg = SoakConfig {
            iters: 24,
            seed: 7,
            ..SoakConfig::default()
        };
        let a = run_soak(&cfg).unwrap();
        let b = run_soak(&cfg).unwrap();
        assert!(a.holds(), "contract violated:\n{}", a.render());
        assert_eq!(a, b, "same seed must give the same soak report");
        assert_eq!(a.iterations, 24);
    }

    #[test]
    fn different_seeds_usually_differ() {
        let a = run_soak(&SoakConfig {
            iters: 16,
            seed: 1,
            ..SoakConfig::default()
        })
        .unwrap();
        let b = run_soak(&SoakConfig {
            iters: 16,
            seed: 2,
            ..SoakConfig::default()
        })
        .unwrap();
        // Fault draws differ with overwhelming probability.
        assert_ne!(a.fault_counts, b.fault_counts);
    }

    #[test]
    fn serve_soak_contract_holds_across_the_matrix() {
        let cfg = ServeSoakConfig { iters: 8, seed: 11 };
        let r = run_serve_soak(&cfg).unwrap();
        assert!(r.holds(), "contract violated:\n{}", r.render());
        assert_eq!(r.lifecycles, 8);
        // The rotation covers every scenario within 8 lifecycles.
        assert!(r.scenario_counts.iter().all(|&c| c == 2));
        assert!(r.completed > 0, "{}", r.render());
        // Oversized requests bust the byte budget regardless of worker
        // timing, so the matrix always exercises load shedding.
        assert!(r.rejected > 0, "{}", r.render());
        // Every Faults lifecycle trips its hair-trigger breaker at
        // least once, and holds() already pinned dumps == trips with
        // zero unreconciled.
        assert!(
            r.breaker_trips as usize >= r.scenario_counts[ServeScenario::Faults as usize],
            "{}",
            r.render()
        );
    }

    #[test]
    fn serve_soak_fault_lifecycles_recover_or_fail_typed() {
        // Scenario index 2 (Faults) only: every completion matched the
        // oracle (holds() checked it) even with panics and corruption
        // injected mid-flight.
        let r = run_serve_soak(&ServeSoakConfig { iters: 4, seed: 99 }).unwrap();
        assert!(r.holds(), "contract violated:\n{}", r.render());
        assert_eq!(r.scenario_counts[ServeScenario::Faults as usize], 1);
        // The injected breaker trip produced its parseable, reconciled
        // flight dump (equality is part of holds()).
        assert!(r.breaker_trips >= 1, "{}", r.render());
        assert_eq!(r.unreconciled_dumps, 0);
    }

    #[test]
    fn rng_is_stable() {
        // Pin the generator: wisdom files and CI logs reference seeds,
        // so silently changing the stream would invalidate them.
        let mut r = XorShift64Star::new(42);
        let first = r.next_u64();
        let mut r2 = XorShift64Star::new(42);
        assert_eq!(first, r2.next_u64());
        assert_ne!(r.next_u64(), first);
    }
}
