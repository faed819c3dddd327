//! Recoverable execution: retry, backoff, buffer shrinking, and
//! executor escalation around [`exec_real`](crate::exec_real).
//!
//! The [`Supervisor`] turns a single fallible `execute_with` call into a
//! bounded recovery state machine:
//!
//! ```text
//!   attempt ──ok──────────────────────────▶ done
//!      │
//!      ├─ usage error ─────────────────────▶ fail (no retry)
//!      ├─ allocation error ─▶ halve buffer ─▶ attempt   (floor ⇒ escalate)
//!      └─ runtime error ──▶ backoff, retry ─▶ attempt   (budget ⇒ escalate)
//!
//!   escalate: pipelined → fused → reference → fail
//! ```
//!
//! Every step is recorded twice: as a [`RecoveryEvent`] in the returned
//! [`SupervisedReport`] (machine-readable) and, when a trace collector
//! is attached, as a [`MarkKind::Recovery`] mark so `--profile` output
//! shows what recovery cost. Retries restore the caller's input from a
//! snapshot taken on entry, so every retry starts from a consistent
//! state regardless of how far the failed attempt got. The caller's
//! plan is borrowed: a tier copies it only to shrink its buffer.
//!
//! Backoff is deterministic (`base · factor^(attempt-1)`, capped): given
//! the same seed/fault plan, a supervised run takes the same attempts,
//! the same escalation path, and reaches the same verdict — a property
//! the soak harness asserts.

use crate::error::CoreError;
use crate::exec_real::{execute_as, execute_with, ExecConfig, ExecReport};
use crate::host::ExecutorKind;
use crate::plan::{FftPlan, PlanError};
use crate::reference::execute_reference;
use bwfft_num::{try_vec_zeroed, Complex64};
use bwfft_pipeline::{AdaptiveWatchdog, PipelineError};
use bwfft_trace::MarkKind;
use std::time::Duration;

/// The escalation ladder. Deliberately *not* [`ExecutorKind`]: tiers
/// include the reference executor, which is a recovery concept — plans
/// never dispatch to it on their own.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RecoveryTier {
    /// The full soft-DMA pipelined executor.
    Pipelined,
    /// The single-threaded fused executor (no handoffs, no barriers).
    Fused,
    /// The row-column reference executor (no shared state at all).
    Reference,
}

impl RecoveryTier {
    /// The next tier down the ladder, `None` at the bottom.
    fn next(self) -> Option<RecoveryTier> {
        match self {
            RecoveryTier::Pipelined => Some(RecoveryTier::Fused),
            RecoveryTier::Fused => Some(RecoveryTier::Reference),
            RecoveryTier::Reference => None,
        }
    }
}

impl core::fmt::Display for RecoveryTier {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            RecoveryTier::Pipelined => "pipelined",
            RecoveryTier::Fused => "fused",
            RecoveryTier::Reference => "reference",
        })
    }
}

/// What the supervisor did at one recovery step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryAction {
    /// Re-run the same tier after a backoff sleep.
    Retry,
    /// Halve the plan's buffer and re-run (answer to an allocation
    /// refusal).
    ShrinkBuffer,
    /// Give up on this tier and move to the next one.
    Escalate,
}

impl core::fmt::Display for RecoveryAction {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            RecoveryAction::Retry => "retry",
            RecoveryAction::ShrinkBuffer => "shrink-buffer",
            RecoveryAction::Escalate => "escalate",
        })
    }
}

/// One recorded recovery step.
#[derive(Clone, Debug)]
pub struct RecoveryEvent {
    /// Tier the failed attempt ran on.
    pub tier: RecoveryTier,
    /// 1-based attempt number within that tier.
    pub attempt: usize,
    /// What the supervisor did about it.
    pub action: RecoveryAction,
    /// Rendered error that triggered the step.
    pub error: String,
    /// Backoff slept before the next attempt (zero for shrink and
    /// escalate steps, which act immediately).
    pub backoff: Duration,
}

/// Retry/backoff/escalation budget.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Attempts per tier before escalating (≥ 1).
    pub max_attempts: usize,
    /// First retry's backoff.
    pub backoff_base: Duration,
    /// Multiplier between consecutive backoffs.
    pub backoff_factor: u32,
    /// Upper bound on any single backoff sleep.
    pub backoff_cap: Duration,
    /// Buffer halvings per tier before treating allocation failure as
    /// unrecoverable at that tier.
    pub max_shrinks: usize,
    /// Per-attempt watchdog installed when the caller's [`ExecConfig`]
    /// doesn't already carry one, so a stalled attempt costs a bounded
    /// slice of the retry budget instead of hanging the supervisor.
    pub watchdog: Option<AdaptiveWatchdog>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 2,
            backoff_base: Duration::from_millis(1),
            backoff_factor: 2,
            backoff_cap: Duration::from_millis(250),
            max_shrinks: 8,
            watchdog: Some(AdaptiveWatchdog::default()),
        }
    }
}

impl RetryPolicy {
    /// Deterministic exponential backoff before attempt `attempt + 1`:
    /// `base · factor^(attempt-1)`, capped.
    pub fn backoff_for(&self, attempt: usize) -> Duration {
        let exp = attempt.saturating_sub(1).min(31) as u32;
        let factor = self.backoff_factor.max(1).saturating_pow(exp);
        self.backoff_base
            .saturating_mul(factor)
            .min(self.backoff_cap)
    }
}

/// What a supervised run reports: which tier finally produced the
/// answer, the total attempt count, the full recovery trail, and the
/// executor report when a real executor (not the reference) ran.
#[derive(Clone, Debug)]
pub struct SupervisedReport {
    /// Tier that produced the returned transform.
    pub tier: RecoveryTier,
    /// Total attempts across all tiers (1 for a clean first-try run).
    pub attempts: usize,
    /// Every recovery step taken, in order. Empty for a clean run.
    pub events: Vec<RecoveryEvent>,
    /// The executor's own report; `None` when the reference tier
    /// answered.
    pub exec: Option<ExecReport>,
}

impl SupervisedReport {
    /// True when the run needed any recovery step.
    pub fn recovered(&self) -> bool {
        !self.events.is_empty()
    }
}

/// Retry/backoff/escalation wrapper around the core executors.
#[derive(Clone, Debug, Default)]
pub struct Supervisor {
    policy: RetryPolicy,
}

impl Supervisor {
    pub fn new(policy: RetryPolicy) -> Self {
        Supervisor { policy }
    }

    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// Runs the plan under supervision. On success `data` holds the
    /// transform (as with [`execute_with`]) no matter which tier
    /// produced it. On failure every tier's budget was exhausted (or
    /// the error was a usage error, returned immediately: retrying a
    /// wrong argument cannot fix it).
    pub fn run(
        &self,
        plan: &FftPlan,
        data: &mut [Complex64],
        work: &mut [Complex64],
        cfg: &ExecConfig,
    ) -> Result<SupervisedReport, CoreError> {
        self.run_from(ExecutorKind::Pipelined, plan, data, work, cfg)
    }

    /// [`run`](Self::run), with the ladder entered at the later of
    /// `start` and `plan.executor`: a fused start (or a plan already
    /// degraded to the fused executor) skips the pipelined tier.
    pub fn run_from(
        &self,
        start: ExecutorKind,
        plan: &FftPlan,
        data: &mut [Complex64],
        work: &mut [Complex64],
        cfg: &ExecConfig,
    ) -> Result<SupervisedReport, CoreError> {
        // Snapshot for retry-from-consistent-state. A failed attempt
        // leaves `data`/`work` unspecified; each retry restores the
        // input first. Allocated fallibly exactly once, up front: a
        // refused snapshot is a typed Allocation error before any
        // attempt runs, and every retry reuses this one buffer, so
        // concurrent supervised callers never re-allocate (and never
        // double-count an allocation budget) on the restore path.
        let mut snapshot: Vec<Complex64> = try_vec_zeroed(data.len(), "supervisor snapshot")?;
        snapshot.copy_from_slice(data);

        let mut cfg = cfg.clone();
        cfg.adaptive_watchdog = cfg.adaptive_watchdog.or(self.policy.watchdog);

        let mut events: Vec<RecoveryEvent> = Vec::new();
        let mut attempts_total = 0usize;
        let mut tier = if start == ExecutorKind::Fused || plan.executor == ExecutorKind::Fused {
            RecoveryTier::Fused
        } else {
            RecoveryTier::Pipelined
        };
        // The caller's plan, borrowed; a tier owns a copy only once it
        // has shrunk the buffer.
        let mut shrunk: Option<FftPlan> = None;
        let mut last_err: Option<CoreError> = None;

        loop {
            let mut attempt = 0usize;
            let mut shrinks = 0usize;
            let outcome = loop {
                attempt += 1;
                attempts_total += 1;
                if attempts_total > 1 {
                    data.copy_from_slice(&snapshot);
                }
                let tier_plan = shrunk.as_ref().unwrap_or(plan);
                let result: Result<Option<ExecReport>, CoreError> = match tier {
                    RecoveryTier::Reference => execute_reference(tier_plan, data).map(|()| None),
                    RecoveryTier::Fused => {
                        execute_as(ExecutorKind::Fused, tier_plan, data, work, &cfg).map(Some)
                    }
                    RecoveryTier::Pipelined => execute_with(tier_plan, data, work, &cfg).map(Some),
                };
                match result {
                    Ok(exec) => break Ok(exec),
                    Err(e) if e.is_usage() => return Err(e),
                    // Cancellation (deadline or drain) is a verdict,
                    // not a fault: retrying or escalating a cancelled
                    // request would keep burning its worker past the
                    // deadline. Return the typed error immediately.
                    Err(e @ CoreError::Pipeline(PipelineError::Cancelled { .. })) => {
                        return Err(e)
                    }
                    Err(e @ CoreError::Allocation(_)) => {
                        last_err = Some(e.clone());
                        if shrinks >= self.policy.max_shrinks {
                            break Err(e);
                        }
                        let old_b = tier_plan.buffer_elems;
                        match shrink_plan(tier_plan, old_b / 2) {
                            Ok(smaller) => {
                                shrinks += 1;
                                self.record(
                                    &cfg,
                                    &mut events,
                                    RecoveryEvent {
                                        tier,
                                        attempt,
                                        action: RecoveryAction::ShrinkBuffer,
                                        error: format!(
                                            "{e}; buffer {old_b} -> {}",
                                            smaller.buffer_elems
                                        ),
                                        backoff: Duration::ZERO,
                                    },
                                );
                                shrunk = Some(smaller);
                            }
                            // Can't shrink further (one-pencil floor or
                            // divisibility): this tier is out of moves.
                            Err(_) => break Err(e),
                        }
                    }
                    Err(e) => {
                        last_err = Some(e.clone());
                        if attempt >= self.policy.max_attempts {
                            break Err(e);
                        }
                        let backoff = self.policy.backoff_for(attempt);
                        self.record(
                            &cfg,
                            &mut events,
                            RecoveryEvent {
                                tier,
                                attempt,
                                action: RecoveryAction::Retry,
                                error: e.to_string(),
                                backoff,
                            },
                        );
                        std::thread::sleep(backoff);
                    }
                }
            };

            match outcome {
                Ok(exec) => {
                    if let (Some(t), true) = (&cfg.trace, !events.is_empty()) {
                        t.mark(
                            MarkKind::Recovery,
                            format!(
                                "recovered at {tier} after {attempts_total} attempts"
                            ),
                            None,
                        );
                    }
                    return Ok(SupervisedReport {
                        tier,
                        attempts: attempts_total,
                        events,
                        exec,
                    });
                }
                Err(e) => match tier.next() {
                    Some(next) => {
                        self.record(
                            &cfg,
                            &mut events,
                            RecoveryEvent {
                                tier,
                                attempt,
                                action: RecoveryAction::Escalate,
                                error: format!("{e}; {tier} -> {next}"),
                                backoff: Duration::ZERO,
                            },
                        );
                        tier = next;
                        // Each tier starts from the caller's plan, not
                        // the shrunken one the failed tier ended with.
                        shrunk = None;
                    }
                    None => {
                        return Err(last_err.unwrap_or(e));
                    }
                },
            }
        }
    }

    /// Records one recovery step in the event trail and, when tracing,
    /// as a [`MarkKind::Recovery`] mark (value = backoff slept, ns).
    fn record(&self, cfg: &ExecConfig, events: &mut Vec<RecoveryEvent>, ev: RecoveryEvent) {
        if let Some(t) = &cfg.trace {
            let ns = (!ev.backoff.is_zero()).then_some(ev.backoff.as_nanos() as f64);
            t.mark(
                MarkKind::Recovery,
                format!("{} {} attempt {}: {}", ev.action, ev.tier, ev.attempt, ev.error),
                ns,
            );
        }
        if let Some(reg) = &cfg.metrics {
            // Recovery is the cold path by construction, so the
            // rare-path name lookups are fine here.
            reg.add("core.recovery.events", 1);
            reg.add(&format!("core.recovery.{}", ev.action), 1);
            if !ev.backoff.is_zero() {
                reg.observe("core.recovery.backoff_ns", ev.backoff.as_nanos() as u64);
            }
        }
        events.push(ev);
    }
}

/// Rebuilds the plan with a smaller buffer, revalidating every buffer
/// constraint through the builder (pow-2, pencil divisibility, socket
/// split). Pinning and executor choice carry over unchanged.
fn shrink_plan(plan: &FftPlan, new_b: usize) -> Result<FftPlan, PlanError> {
    if new_b == 0 {
        return Err(PlanError::BufferTooSmall { needed: 1, got: 0 });
    }
    let mut rebuilt = FftPlan::builder(plan.dims)
        .direction(plan.dir)
        .mu(plan.mu)
        .buffer_elems(new_b)
        .threads(plan.p_d, plan.p_c)
        .sockets(plan.sockets)
        .non_temporal(plan.non_temporal)
        .build()?;
    rebuilt.pin_cpus = plan.pin_cpus.clone();
    rebuilt.executor = plan.executor;
    rebuilt.degradations = plan.degradations.clone();
    Ok(rebuilt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec_real::execute;
    use crate::plan::Dims;
    use bwfft_num::compare::assert_fft_close;
    use bwfft_num::signal::random_complex;
    use bwfft_pipeline::{FaultPlan, Role};
    use bwfft_trace::{TraceCollector, TraceEvent};
    use std::sync::Arc;

    fn small_plan() -> FftPlan {
        FftPlan::builder(Dims::d3(8, 8, 16))
            .buffer_elems(128)
            .threads(2, 2)
            .build()
            .unwrap()
    }

    fn fast_policy() -> RetryPolicy {
        RetryPolicy {
            backoff_base: Duration::from_micros(100),
            backoff_cap: Duration::from_millis(2),
            ..RetryPolicy::default()
        }
    }

    fn oracle(plan: &FftPlan, x: &[bwfft_num::Complex64]) -> Vec<bwfft_num::Complex64> {
        let mut d = x.to_vec();
        let mut w = vec![bwfft_num::Complex64::ZERO; x.len()];
        execute(plan, &mut d, &mut w).unwrap();
        d
    }

    #[test]
    fn clean_run_is_single_attempt_on_pipelined() {
        let plan = small_plan();
        let x = random_complex(plan.dims.total(), 200);
        let mut data = x.clone();
        let mut work = vec![bwfft_num::Complex64::ZERO; x.len()];
        let sup = Supervisor::new(fast_policy());
        let rep = sup
            .run(&plan, &mut data, &mut work, &ExecConfig::default())
            .unwrap();
        assert_eq!(rep.tier, RecoveryTier::Pipelined);
        assert_eq!(rep.attempts, 1);
        assert!(!rep.recovered());
        assert!(rep.exec.is_some());
        assert_fft_close(&data, &oracle(&plan, &x));
    }

    #[test]
    fn fused_start_runs_the_fused_tier_on_the_callers_plan() {
        let plan = small_plan();
        assert_eq!(plan.executor, ExecutorKind::Pipelined);
        let x = random_complex(plan.dims.total(), 209);
        let mut want = x.clone();
        let mut work = vec![bwfft_num::Complex64::ZERO; x.len()];
        crate::exec_real::execute_fused(&plan, &mut want, &mut work).unwrap();
        let mut data = x.clone();
        let sup = Supervisor::new(fast_policy());
        let rep = sup
            .run_from(
                ExecutorKind::Fused,
                &plan,
                &mut data,
                &mut work,
                &ExecConfig::default(),
            )
            .unwrap();
        assert_eq!(rep.tier, RecoveryTier::Fused);
        assert_eq!(rep.attempts, 1);
        assert_eq!(rep.exec.map(|e| e.executor), Some(ExecutorKind::Fused));
        assert_eq!(data, want);
    }

    #[test]
    fn a_fused_plan_starts_at_the_fused_tier() {
        let mut plan = small_plan();
        plan.executor = ExecutorKind::Fused;
        let x = random_complex(plan.dims.total(), 210);
        let mut data = x.clone();
        let mut work = vec![bwfft_num::Complex64::ZERO; x.len()];
        let sup = Supervisor::new(fast_policy());
        let rep = sup
            .run_from(
                ExecutorKind::Pipelined,
                &plan,
                &mut data,
                &mut work,
                &ExecConfig::default(),
            )
            .unwrap();
        assert_eq!(rep.tier, RecoveryTier::Fused);
        assert_eq!(rep.exec.map(|e| e.executor), Some(ExecutorKind::Fused));
        assert_fft_close(&data, &oracle(&plan, &x));
    }

    #[test]
    fn persistent_pipelined_panic_escalates_to_fused() {
        let plan = small_plan();
        let x = random_complex(plan.dims.total(), 201);
        let mut data = x.clone();
        let mut work = vec![bwfft_num::Complex64::ZERO; x.len()];
        // Deterministic injected panic in a compute thread: every
        // pipelined retry hits it again, so the supervisor must
        // escalate to the fused executor... which as every role's
        // thread 0 also hits the fault, so it lands on reference.
        let cfg = ExecConfig {
            fault: Some(FaultPlan::panic_at(Role::Compute, 0, 1)),
            ..ExecConfig::default()
        };
        let sup = Supervisor::new(fast_policy());
        let rep = sup.run(&plan, &mut data, &mut work, &cfg).unwrap();
        assert_eq!(rep.tier, RecoveryTier::Reference);
        assert!(rep.recovered());
        // Trail: retry(pipelined), escalate(pipelined→fused),
        // retry(fused), escalate(fused→reference).
        let escalations: Vec<_> = rep
            .events
            .iter()
            .filter(|e| e.action == RecoveryAction::Escalate)
            .collect();
        assert_eq!(escalations.len(), 2);
        assert_eq!(escalations[0].tier, RecoveryTier::Pipelined);
        assert_eq!(escalations[1].tier, RecoveryTier::Fused);
        assert!(rep.exec.is_none());
        assert_fft_close(&data, &oracle(&plan, &x));
    }

    #[test]
    fn data_thread_panic_recovers_on_fused() {
        let plan = small_plan();
        let x = random_complex(plan.dims.total(), 202);
        let mut data = x.clone();
        let mut work = vec![bwfft_num::Complex64::ZERO; x.len()];
        // Data thread 1 exists only in the pipelined executor (fused is
        // thread 0 of every role), so the fused tier recovers.
        let cfg = ExecConfig {
            fault: Some(FaultPlan::panic_at(Role::Data, 1, 0)),
            ..ExecConfig::default()
        };
        let sup = Supervisor::new(fast_policy());
        let rep = sup.run(&plan, &mut data, &mut work, &cfg).unwrap();
        assert_eq!(rep.tier, RecoveryTier::Fused);
        assert!(rep.exec.is_some());
        assert_fft_close(&data, &oracle(&plan, &x));
    }

    #[test]
    fn allocation_refusal_shrinks_buffer_then_succeeds() {
        let plan = small_plan(); // double buffer = 2·128·16 = 4096 bytes
        let x = random_complex(plan.dims.total(), 203);
        let mut data = x.clone();
        let mut work = vec![bwfft_num::Complex64::ZERO; x.len()];
        // Budget admits 2·32·16 = 1024 bytes: two halvings needed.
        let cfg = ExecConfig {
            fault: Some(FaultPlan::none().with_alloc_budget(1024)),
            ..ExecConfig::default()
        };
        let sup = Supervisor::new(fast_policy());
        let rep = sup.run(&plan, &mut data, &mut work, &cfg).unwrap();
        assert_eq!(rep.tier, RecoveryTier::Pipelined);
        let shrinks: Vec<_> = rep
            .events
            .iter()
            .filter(|e| e.action == RecoveryAction::ShrinkBuffer)
            .collect();
        assert_eq!(shrinks.len(), 2);
        assert_fft_close(&data, &oracle(&plan, &x));
    }

    #[test]
    fn impossible_allocation_budget_lands_on_reference() {
        let plan = small_plan();
        let x = random_complex(plan.dims.total(), 204);
        let mut data = x.clone();
        let mut work = vec![bwfft_num::Complex64::ZERO; x.len()];
        // Nothing fits: pipelined shrinks to its floor, fused's scratch
        // is also over budget, reference ignores the budget entirely.
        let cfg = ExecConfig {
            fault: Some(FaultPlan::none().with_alloc_budget(16)),
            ..ExecConfig::default()
        };
        let sup = Supervisor::new(fast_policy());
        let rep = sup.run(&plan, &mut data, &mut work, &cfg).unwrap();
        assert_eq!(rep.tier, RecoveryTier::Reference);
        assert_fft_close(&data, &oracle(&plan, &x));
    }

    #[test]
    fn usage_errors_return_immediately_without_retries() {
        let plan = small_plan();
        let mut short = vec![bwfft_num::Complex64::ZERO; 7];
        let mut work = vec![bwfft_num::Complex64::ZERO; 7];
        let sup = Supervisor::new(fast_policy());
        let err = sup
            .run(&plan, &mut short, &mut work, &ExecConfig::default())
            .unwrap_err();
        assert!(matches!(err, CoreError::InputLength { .. }));
    }

    #[test]
    fn recovery_marks_appear_in_trace() {
        let plan = small_plan();
        let x = random_complex(plan.dims.total(), 205);
        let mut data = x.clone();
        let mut work = vec![bwfft_num::Complex64::ZERO; x.len()];
        let trace = Arc::new(TraceCollector::new());
        let cfg = ExecConfig {
            fault: Some(FaultPlan::panic_at(Role::Compute, 0, 1)),
            trace: Some(trace.clone()),
            ..ExecConfig::default()
        };
        let sup = Supervisor::new(fast_policy());
        let rep = sup.run(&plan, &mut data, &mut work, &cfg).unwrap();
        assert!(rep.recovered());
        let marks: Vec<String> = trace
            .take_events()
            .into_iter()
            .filter_map(|e| match e {
                TraceEvent::Mark(m) if m.kind == MarkKind::Recovery => Some(m.label),
                _ => None,
            })
            .collect();
        // One mark per recorded event plus the final "recovered at".
        assert_eq!(marks.len(), rep.events.len() + 1);
        assert!(marks.iter().any(|l| l.contains("escalate pipelined")));
        assert!(marks.iter().any(|l| l.contains("recovered at reference")));
    }

    #[test]
    fn supervised_run_is_deterministic_for_a_fixed_fault_plan() {
        let plan = small_plan();
        let x = random_complex(plan.dims.total(), 206);
        let cfg = ExecConfig {
            fault: Some(FaultPlan::panic_at(Role::Compute, 1, 2)),
            ..ExecConfig::default()
        };
        let sup = Supervisor::new(fast_policy());
        let mut trails = Vec::new();
        for _ in 0..2 {
            let mut data = x.clone();
            let mut work = vec![bwfft_num::Complex64::ZERO; x.len()];
            let rep = sup.run(&plan, &mut data, &mut work, &cfg).unwrap();
            trails.push((
                rep.tier,
                rep.attempts,
                rep.events
                    .iter()
                    .map(|e| (e.tier, e.attempt, e.action))
                    .collect::<Vec<_>>(),
            ));
        }
        assert_eq!(trails[0], trails[1]);
    }

    #[test]
    fn cancelled_run_returns_immediately_without_recovery() {
        use bwfft_pipeline::{CancelReason, CancelToken};
        let plan = small_plan();
        let x = random_complex(plan.dims.total(), 208);
        let mut data = x.clone();
        let mut work = vec![bwfft_num::Complex64::ZERO; x.len()];
        let token = CancelToken::new();
        token.cancel();
        let trace = Arc::new(TraceCollector::new());
        let cfg = ExecConfig {
            cancel: Some(token),
            trace: Some(trace.clone()),
            ..ExecConfig::default()
        };
        let sup = Supervisor::new(fast_policy());
        let err = sup.run(&plan, &mut data, &mut work, &cfg).unwrap_err();
        assert!(
            matches!(
                err,
                CoreError::Pipeline(PipelineError::Cancelled {
                    reason: CancelReason::Shutdown,
                    ..
                })
            ),
            "expected Cancelled, got {err:?}"
        );
        // No retry, no escalation: a cancelled request must free its
        // worker, not climb the recovery ladder.
        let recovery_marks = trace
            .take_events()
            .into_iter()
            .filter(|e| matches!(e, TraceEvent::Mark(m) if m.kind == MarkKind::Recovery))
            .count();
        assert_eq!(recovery_marks, 0);
    }

    #[test]
    fn backoff_is_deterministic_and_capped() {
        let p = RetryPolicy {
            backoff_base: Duration::from_millis(3),
            backoff_factor: 2,
            backoff_cap: Duration::from_millis(10),
            ..RetryPolicy::default()
        };
        assert_eq!(p.backoff_for(1), Duration::from_millis(3));
        assert_eq!(p.backoff_for(2), Duration::from_millis(6));
        assert_eq!(p.backoff_for(3), Duration::from_millis(10)); // capped
        assert_eq!(p.backoff_for(40), Duration::from_millis(10));
    }

    #[test]
    fn stall_fault_with_watchdog_times_out_and_recovers() {
        let plan = small_plan();
        let x = random_complex(plan.dims.total(), 207);
        let mut data = x.clone();
        let mut work = vec![bwfft_num::Complex64::ZERO; x.len()];
        // Stall a *non-zero* thread: the fused executor runs with
        // thread-0 semantics, so the fault only bites the pipelined
        // tier. The stall is finite (the executor joins stalled
        // workers before returning) but well past the watchdog budget,
        // so each pipelined attempt ends in a StageTimeout.
        let cfg = ExecConfig {
            fault: Some(FaultPlan::stall_at(
                Role::Compute,
                1,
                1,
                Duration::from_millis(400),
            )),
            adaptive_watchdog: Some(AdaptiveWatchdog {
                multiplier: 4.0,
                min: Duration::from_millis(20),
                warmup: Duration::from_millis(100),
            }),
            ..ExecConfig::default()
        };
        let policy = RetryPolicy {
            max_attempts: 1, // a stalled attempt is expensive: escalate at once
            ..fast_policy()
        };
        let sup = Supervisor::new(policy);
        let rep = sup.run(&plan, &mut data, &mut work, &cfg).unwrap();
        assert_eq!(rep.tier, RecoveryTier::Fused);
        assert!(rep
            .events
            .iter()
            .any(|e| e.action == RecoveryAction::Escalate && e.error.contains("timed")));
        assert_fft_close(&data, &oracle(&plan, &x));
    }
}
