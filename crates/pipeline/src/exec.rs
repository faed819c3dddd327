//! The real multithreaded pipeline executor.
//!
//! Runs the Table II schedule with OS threads: `p_d` data threads and
//! `p_c` compute threads iterate the schedule in lockstep, separated by
//! two barriers per step — a data-side barrier between the store and
//! load phases (they recycle the same buffer half) and a global barrier
//! closing the step (the paper's `#pragma omp barrier`).
//!
//! The executor is transform-agnostic: callers provide per-thread
//! load/compute/store callbacks; `bwfft-core` instantiates them with
//! the `R`/`W` matrices and batched FFT kernels, and the tests here use
//! trivial arithmetic to verify the orchestration itself.
//!
//! # Fault model
//!
//! A barrier-synchronized pipeline dies ugly by default: one panicking
//! worker unwinds past its barrier arrivals and every surviving thread
//! deadlocks. This executor therefore:
//!
//! * wraps every Load/Compute/Store callback invocation in
//!   [`std::panic::catch_unwind`];
//! * replaces `std::sync::Barrier` with an abort-aware barrier that
//!   re-checks a shared abort flag while waiting, so when any worker
//!   trips the flag all peers *drain* (exit their step loop) instead of
//!   waiting forever;
//! * optionally arms a per-wait watchdog ([`PipelineConfig::iter_timeout`])
//!   that converts a stalled peer into a typed
//!   [`PipelineError::StageTimeout`];
//! * joins every thread and returns the first failure as a typed
//!   [`PipelineError::WorkerPanicked`] / `StageTimeout` value — the
//!   panic never crosses the library boundary.
//!
//! A truly wedged worker (one that never returns from its callback) is
//! *detected* by peers through the watchdog, but `run_pipeline` still
//! joins it before returning: the executor uses scoped threads, so the
//! typed error is produced as soon as the straggler's callback returns.
//! Injected faults ([`crate::fault::FaultPlan`]) are always finite.

use crate::affinity::{self, PinStatus};
use crate::buffer::{partition, DoubleBuffer};
use crate::cancel::CancelToken;
use crate::error::{ConfigError, IntegrityKind, PipelineError};
use crate::fault::{FaultPhase, FaultPlan};
use crate::roles::Role;
use crate::schedule::{PipelineStep, Schedule};
use bwfft_num::{lock_tolerant, Complex64};
use bwfft_trace::{MarkKind, Phase, ThreadTracer, TraceCollector, TraceRole};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Per-data-thread loader: `(block, offset_in_block, share)` — fill
/// `share` with the block's elements starting at `offset_in_block`.
pub type LoadFn<'a> = Box<dyn FnMut(usize, usize, &mut [Complex64]) + Send + 'a>;

/// Per-data-thread storer: `(block, whole_half)` — write this thread's
/// packet share of the block to the destination array.
pub type StoreFn<'a> = Box<dyn FnMut(usize, &[Complex64]) + Send + 'a>;

/// Per-compute-thread kernel: `(block, offset_in_block, share)` —
/// transform `share` in place.
pub type ComputeFn<'a> = Box<dyn FnMut(usize, usize, &mut [Complex64]) + Send + 'a>;

/// The per-thread callbacks of one pipeline run.
pub struct PipelineCallbacks<'a> {
    pub loaders: Vec<LoadFn<'a>>,
    pub storers: Vec<StoreFn<'a>>,
    pub computes: Vec<ComputeFn<'a>>,
}

/// Execution configuration.
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// Number of blocks (`knm/b` in the paper).
    pub iters: usize,
    /// Indivisible unit (elements) for partitioning loads across data
    /// threads — typically `μ`.
    pub load_unit: usize,
    /// Indivisible unit (elements) for partitioning compute across
    /// compute threads — the pencil size `m·s`.
    pub compute_unit: usize,
    /// Optional CPU pinning: one CPU id per thread, data threads first
    /// then compute threads.
    pub pin_cpus: Option<Vec<usize>>,
    /// Watchdog: longest a thread may wait at one barrier before the
    /// run is aborted with [`PipelineError::StageTimeout`]. `None`
    /// disables the watchdog (waits are unbounded, as with
    /// `std::sync::Barrier`). Superseded per-wait by
    /// [`adaptive_watchdog`](Self::adaptive_watchdog) when that is set.
    pub iter_timeout: Option<Duration>,
    /// Faults to inject (tests / resilience drills). `None` ≡ no faults.
    pub fault: Option<FaultPlan>,
    /// Pipeline stage index stamped onto recorded trace spans (a
    /// multi-stage FFT runs one pipeline per stage).
    pub stage: usize,
    /// Span/mark sink. `None` (the default) disables tracing: worker
    /// loops then skip every clock read, so the hot path is unchanged.
    pub trace: Option<Arc<TraceCollector>>,
    /// Measured-epoch watchdog: barrier-wait budgets derived from the
    /// slowest *observed* step instead of a caller-guessed constant.
    /// Takes precedence over [`iter_timeout`](Self::iter_timeout).
    pub adaptive_watchdog: Option<AdaptiveWatchdog>,
    /// Integrity guards (canaries, per-block checksums). Disabled by
    /// default: a disabled guard costs nothing on the hot path.
    pub integrity: IntegrityConfig,
    /// Cooperative cancellation: workers poll the token at every step
    /// boundary and abort the run with [`PipelineError::Cancelled`]
    /// when it fires (per-request deadline or explicit drain). `None`
    /// (the default) skips the poll entirely.
    pub cancel: Option<CancelToken>,
}

/// Which integrity guards a pipeline run arms.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IntegrityConfig {
    /// Verify the buffer's canary regions at each handoff barrier; a
    /// clobbered canary aborts the run with
    /// [`PipelineError::Integrity`] of kind
    /// [`IntegrityKind::Canary`].
    pub canaries: bool,
    /// Carry an order-independent per-block checksum load → compute →
    /// store: each phase accumulates its share's checksum and the last
    /// thread to arrive at the next phase compares, so silent buffer
    /// corruption between handoffs aborts the run with
    /// [`IntegrityKind::Checksum`] instead of producing a wrong answer.
    pub checksums: bool,
}

impl IntegrityConfig {
    /// All guards on.
    pub fn full() -> Self {
        IntegrityConfig {
            canaries: true,
            checksums: true,
        }
    }

    /// True when any guard is armed.
    pub fn enabled(self) -> bool {
        self.canaries || self.checksums
    }
}

/// Order-independent checksum of a complex slice: the wrapping sum of
/// every component's bit pattern. Addition commutes, so partial sums
/// over any disjoint cover of a block combine to the same total — each
/// thread checksums only its own share, under the load *or* the compute
/// partition, with no extra synchronization.
/// Four independent accumulators break the loop-carried dependency so
/// the reduction vectorizes; wrapping addition commutes, so the total
/// is identical to the naive fold. This runs once per phase per block —
/// it is the dominant cost of `IntegrityConfig::checksums` and must
/// stay near memory speed.
#[inline]
pub fn block_checksum(xs: &[Complex64]) -> u64 {
    let mut lanes = [0u64; 4];
    let mut chunks = xs.chunks_exact(4);
    for c in &mut chunks {
        for (lane, v) in lanes.iter_mut().zip(c) {
            *lane = lane
                .wrapping_add(v.re.to_bits())
                .wrapping_add(v.im.to_bits());
        }
    }
    let mut sum = lanes
        .iter()
        .fold(0u64, |acc, lane| acc.wrapping_add(*lane));
    for v in chunks.remainder() {
        sum = sum
            .wrapping_add(v.re.to_bits())
            .wrapping_add(v.im.to_bits());
    }
    sum
}

/// One checksum accumulator: partial sums and an arrival count.
#[derive(Default)]
struct ChecksumSlot {
    sum: AtomicU64,
    arrivals: AtomicUsize,
}

impl ChecksumSlot {
    /// Adds a partial checksum; returns the arrival count including this
    /// one. AcqRel ordering makes every earlier arrival's partial sum
    /// visible to the last arriver, which does the comparison.
    fn add(&self, partial: u64) -> usize {
        self.sum.fetch_add(partial, Ordering::AcqRel);
        self.arrivals.fetch_add(1, Ordering::AcqRel) + 1
    }

    fn total(&self) -> u64 {
        self.sum.load(Ordering::Acquire)
    }
}

/// Per-block checksum ledger: one slot per (block, handoff point).
///
/// `loaded[blk]` is accumulated by the data threads as they load,
/// `pre_compute[blk]` by the compute threads just before the kernel
/// (last arriver compares it against `loaded[blk]`), `computed[blk]`
/// just after the kernel, and `pre_store[blk]` by the data threads just
/// before the store (last arriver compares against `computed[blk]`).
/// The pipeline's own barriers order each accumulation phase before its
/// comparison phase, so no extra synchronization is needed.
struct ChecksumLedger {
    loaded: Vec<ChecksumSlot>,
    pre_compute: Vec<ChecksumSlot>,
    computed: Vec<ChecksumSlot>,
    pre_store: Vec<ChecksumSlot>,
}

impl ChecksumLedger {
    fn new(blocks: usize) -> Self {
        let make = || (0..blocks).map(|_| ChecksumSlot::default()).collect();
        ChecksumLedger {
            loaded: make(),
            pre_compute: make(),
            computed: make(),
            pre_store: make(),
        }
    }
}

/// Watchdog policy that scales with measured iteration time.
///
/// Until the first step completes there is no measurement, so waits get
/// the generous `warmup` budget; afterwards each wait may last at most
/// `multiplier ×` the slowest step seen so far, floored at `min` so
/// micro-benchmarks with nanosecond steps don't turn scheduler jitter
/// into spurious [`PipelineError::StageTimeout`]s.
#[derive(Clone, Copy, Debug)]
pub struct AdaptiveWatchdog {
    /// Budget multiple of the slowest observed step.
    pub multiplier: f64,
    /// Lower bound on the derived budget.
    pub min: Duration,
    /// Budget used before any step has been measured.
    pub warmup: Duration,
}

impl Default for AdaptiveWatchdog {
    fn default() -> Self {
        AdaptiveWatchdog {
            multiplier: 8.0,
            min: Duration::from_millis(50),
            warmup: Duration::from_secs(5),
        }
    }
}

impl Default for PipelineConfig {
    /// A placeholder config: 1 block, unit partitions, no pinning, no
    /// watchdog, no faults. Callers override `iters` and the units.
    fn default() -> Self {
        PipelineConfig {
            iters: 1,
            load_unit: 1,
            compute_unit: 1,
            pin_cpus: None,
            iter_timeout: None,
            fault: None,
            stage: 0,
            trace: None,
            adaptive_watchdog: None,
            integrity: IntegrityConfig::default(),
            cancel: None,
        }
    }
}

/// What a successful run reports back.
#[derive(Clone, Debug, Default)]
pub struct PipelineReport {
    /// Blocks processed (the configured `iters`).
    pub blocks: usize,
    /// One pin status per thread (data threads first), empty when no
    /// pinning was requested.
    pub pin_status: Vec<PinStatus>,
    /// Number of pin requests that were not honored.
    pub pin_failures: usize,
}

/// How a barrier wait ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum WaitOutcome {
    /// All expected threads arrived; proceed.
    Released,
    /// The shared abort flag was tripped by a peer; drain.
    Aborted,
    /// The watchdog expired before the peers arrived.
    TimedOut,
}

/// First-failure cell shared by all pipeline threads: records the first
/// typed error and flips the abort flag every barrier wait polls.
struct FailureCell {
    aborted: AtomicBool,
    first: Mutex<Option<PipelineError>>,
}

impl FailureCell {
    fn new() -> Self {
        FailureCell {
            aborted: AtomicBool::new(false),
            first: Mutex::new(None),
        }
    }

    #[inline]
    fn is_aborted(&self) -> bool {
        self.aborted.load(Ordering::Acquire)
    }

    /// Records `err` if it is the first failure and trips the abort
    /// flag either way.
    fn trip(&self, err: PipelineError) {
        let mut guard = lock_tolerant(&self.first);
        guard.get_or_insert(err);
        drop(guard);
        self.aborted.store(true, Ordering::Release);
    }

    fn into_error(self) -> Option<PipelineError> {
        self.first
            .into_inner()
            .unwrap_or_else(|e| e.into_inner())
    }
}

/// A reusable counting barrier whose waiters poll the shared abort flag
/// and an optional watchdog deadline instead of blocking indefinitely.
///
/// Unlike `std::sync::Barrier`, a wait here can end three ways
/// ([`WaitOutcome`]); after any `Aborted`/`TimedOut` outcome the caller
/// must drain (the barrier is left untouched — no thread reuses it once
/// the run is aborted).
struct AbortableBarrier {
    expected: usize,
    state: Mutex<BarrierState>,
    cvar: Condvar,
}

struct BarrierState {
    count: usize,
    generation: u64,
}

/// How often waiters re-check the abort flag. Pure failure-path
/// latency: on the happy path waiters are woken by the last arrival.
const ABORT_POLL: Duration = Duration::from_millis(2);

impl AbortableBarrier {
    fn new(expected: usize) -> Self {
        AbortableBarrier {
            expected,
            state: Mutex::new(BarrierState {
                count: 0,
                generation: 0,
            }),
            cvar: Condvar::new(),
        }
    }

    fn wait(&self, fail: &FailureCell, timeout: Option<Duration>) -> WaitOutcome {
        if fail.is_aborted() {
            return WaitOutcome::Aborted;
        }
        let mut state = lock_tolerant(&self.state);
        let generation = state.generation;
        state.count += 1;
        if state.count == self.expected {
            state.count = 0;
            state.generation = state.generation.wrapping_add(1);
            drop(state);
            self.cvar.notify_all();
            return WaitOutcome::Released;
        }
        let start = Instant::now();
        loop {
            let (next, _) = self
                .cvar
                .wait_timeout(state, ABORT_POLL)
                .unwrap_or_else(|e| e.into_inner());
            state = next;
            if state.generation != generation {
                return WaitOutcome::Released;
            }
            if fail.is_aborted() {
                return WaitOutcome::Aborted;
            }
            if let Some(t) = timeout {
                if start.elapsed() >= t {
                    return WaitOutcome::TimedOut;
                }
            }
        }
    }
}

/// Renders a caught panic payload for the typed error.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Runs one contained phase. Returns `true` to continue, `false` when
/// the phase panicked (the failure cell is tripped with the payload).
fn contained_phase(
    fail: &FailureCell,
    role: Role,
    thread: usize,
    iter: usize,
    phase: impl FnOnce(),
) -> bool {
    match catch_unwind(AssertUnwindSafe(phase)) {
        Ok(()) => true,
        Err(payload) => {
            fail.trip(PipelineError::WorkerPanicked {
                role,
                thread,
                iter,
                message: panic_message(payload),
            });
            false
        }
    }
}

/// Prefix of injected-fault panic messages —
/// [`crate::fault::silence_injected_panic_reports`] keys on it.
pub const INJECTED_FAULT_PREFIX: &str = "injected fault";

/// Shared per-run context the worker loops borrow.
struct RunCtx<'r> {
    buffer: &'r DoubleBuffer,
    schedule: &'r Schedule,
    data_barrier: &'r AbortableBarrier,
    global_barrier: &'r AbortableBarrier,
    fail: &'r FailureCell,
    timeout: Option<Duration>,
    fault: &'r FaultPlan,
    stage: usize,
    trace: Option<&'r TraceCollector>,
    watchdog: Option<AdaptiveWatchdog>,
    /// Slowest observed step, ns (0 = nothing measured yet). Feeds the
    /// adaptive watchdog so stall detection uses measured, not assumed,
    /// iteration times.
    epoch_ns: &'r AtomicU64,
    integrity: IntegrityConfig,
    /// Checksum ledger; present iff `integrity.checksums`.
    ledger: Option<&'r ChecksumLedger>,
    /// Data / compute thread counts (checksum arrival quotas).
    p_d: usize,
    p_c: usize,
    /// Cooperative cancellation token; polled at step boundaries.
    cancel: Option<&'r CancelToken>,
}

impl RunCtx<'_> {
    /// Sleeps if a stall fault targets `(role, thread, phase)` at block
    /// `blk`, recording the injection as a trace mark.
    fn maybe_stall(&self, role: Role, thread: usize, blk: usize, phase: FaultPhase) {
        if let Some((iter, dur)) = self.fault.stall_for(role, thread, phase) {
            if iter == blk {
                if let Some(t) = self.trace {
                    t.mark(
                        MarkKind::FaultInjected,
                        format!("stall: {role:?} worker {thread} at block {blk} ({phase:?})"),
                        Some(dur.as_nanos() as f64),
                    );
                }
                std::thread::sleep(dur);
            }
        }
    }

    /// True when a panic fault targets `(role, thread, phase)` at block
    /// `blk`; records the injection as a trace mark when it is about to
    /// fire.
    fn injects_panic(&self, role: Role, thread: usize, blk: usize, phase: FaultPhase) -> bool {
        let fires = self.fault.panic_site_for(role, thread, phase) == Some(blk);
        if fires {
            if let Some(t) = self.trace {
                t.mark(
                    MarkKind::FaultInjected,
                    format!("panic: {role:?} worker {thread} at block {blk} ({phase:?})"),
                    None,
                );
            }
        }
        fires
    }

    /// Silently corrupts one element of `share` if a corruption fault
    /// targets `(role, thread, phase)` at block `blk`. Called *after*
    /// the phase's checksum was accumulated, so the corruption models a
    /// stray write between handoffs: only the next integrity guard (or
    /// nothing, when guards are off) stands between it and the output.
    fn maybe_corrupt(
        &self,
        role: Role,
        thread: usize,
        blk: usize,
        phase: FaultPhase,
        share: &mut [Complex64],
    ) {
        if self.fault.corrupt_for(role, thread, phase) == Some(blk) && !share.is_empty() {
            if let Some(t) = self.trace {
                t.mark(
                    MarkKind::FaultInjected,
                    format!("corrupt: {role:?} worker {thread} at block {blk} ({phase:?})"),
                    None,
                );
            }
            // A deliberately *visible* corruption (O(1) absolute, not a
            // low-bit flip): detectable by the checksum guard exactly,
            // and by energy/reference comparisons when guards are off.
            let v = share[0];
            share[0] = Complex64::new(v.re + 1.0, v.im - 1.0);
        }
    }

    /// Canary sweep at a handoff barrier (thread 0 of the data role
    /// only — one sweep per step is enough and keeps the cost O(1)).
    /// Returns false after tripping the failure cell.
    fn canaries_ok(&self, thread: usize, step: usize) -> bool {
        if !self.integrity.canaries || thread != 0 {
            return true;
        }
        if self.buffer.check_canaries() {
            return true;
        }
        self.fail.trip(PipelineError::Integrity {
            stage: self.stage,
            block: step,
            kind: IntegrityKind::Canary,
        });
        false
    }

    /// Accumulates `partial` into `slot` and, when this call is the last
    /// of `quota` arrivals, compares against `reference`'s total.
    /// Returns false after tripping the failure cell on a mismatch.
    fn checksum_handoff(
        &self,
        slot: &ChecksumSlot,
        reference: &ChecksumSlot,
        quota: usize,
        partial: u64,
        blk: usize,
    ) -> bool {
        if slot.add(partial) == quota && slot.total() != reference.total() {
            self.fail.trip(PipelineError::Integrity {
                stage: self.stage,
                block: blk,
                kind: IntegrityKind::Checksum,
            });
            return false;
        }
        true
    }

    /// Record a completed step duration for the adaptive watchdog.
    fn note_epoch(&self, elapsed: Duration) {
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.epoch_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// The barrier-wait budget for the next wait: the adaptive policy's
    /// derived budget when armed, else the static `iter_timeout`.
    fn effective_timeout(&self) -> Option<Duration> {
        match self.watchdog {
            Some(w) => {
                let measured = self.epoch_ns.load(Ordering::Relaxed);
                if measured == 0 {
                    Some(w.warmup)
                } else {
                    let scaled = (measured as f64 * w.multiplier.max(1.0)).min(u64::MAX as f64);
                    Some(Duration::from_nanos(scaled as u64).max(w.min))
                }
            }
            None => self.timeout,
        }
    }

    /// Polls the cancellation token at a step boundary. Returns false —
    /// after tripping the failure cell with a typed `Cancelled` error —
    /// when the token has fired; the caller drains like any other
    /// abort. Costs one atomic load per step when a token is present,
    /// nothing when it is not.
    fn cancel_ok(&self, step: usize) -> bool {
        if let Some(reason) = self.cancel.and_then(CancelToken::fired) {
            self.fail.trip(PipelineError::Cancelled { iter: step, reason });
            return false;
        }
        true
    }

    /// Pin the calling thread per config, honoring `deny_pinning`.
    fn pin(&self, pins: &Option<Vec<usize>>, slot: usize) -> Option<PinStatus> {
        let cpu = pins.as_ref().map(|p| p[slot])?;
        Some(if self.fault.deny_pinning {
            PinStatus::Failed { cpu, errno: 0 }
        } else {
            affinity::pin_current_thread(cpu)
        })
    }
}

/// The data-thread worker loop (store, data barrier, load, global
/// barrier per step). Returns when the schedule completes or the run
/// aborts.
fn data_thread_loop(ctx: &RunCtx<'_>, j: usize, load: &mut LoadFn<'_>, store: &mut StoreFn<'_>, load_range: core::ops::Range<usize>) {
    let mut tracer = ThreadTracer::new(ctx.trace, TraceRole::Data, j, ctx.stage);
    for step in ctx.schedule.steps() {
        if ctx.fail.is_aborted() || !ctx.cancel_ok(step.step) {
            return;
        }
        if let Some(blk) = step.store {
            ctx.maybe_stall(Role::Data, j, blk, FaultPhase::Store);
            // Safety: between the previous global barrier and the data
            // barrier below, half `blk % 2` is only read (by data
            // threads); compute threads work on the other half
            // (schedule invariant).
            let half = unsafe { ctx.buffer.half(PipelineStep::half_of(blk)) };
            if let Some(ledger) = ctx.ledger {
                // Last arriver compares against the post-compute sum:
                // corruption after the kernel stops (most of) the block
                // from reaching the output as a silent wrong answer.
                let partial = block_checksum(&half[load_range.clone()]);
                if !ctx.checksum_handoff(
                    &ledger.pre_store[blk],
                    &ledger.computed[blk],
                    ctx.p_d,
                    partial,
                    blk,
                ) {
                    return;
                }
            }
            let inject = ctx.injects_panic(Role::Data, j, blk, FaultPhase::Store);
            let span = tracer.start();
            let ok = contained_phase(ctx.fail, Role::Data, j, blk, || {
                if inject {
                    panic!("{INJECTED_FAULT_PREFIX}: Data worker {j} at iteration {blk} (store)");
                }
                store(blk, half);
            });
            tracer.finish(span, Phase::Store, blk);
            if !ok {
                return;
            }
        }
        let budget = ctx.effective_timeout();
        let span = tracer.start();
        let outcome = ctx.data_barrier.wait(ctx.fail, budget);
        tracer.finish(span, Phase::BarrierData, step.step);
        match outcome {
            WaitOutcome::Released => {}
            WaitOutcome::Aborted => return,
            WaitOutcome::TimedOut => {
                ctx.fail.trip(PipelineError::StageTimeout {
                    role: Role::Data,
                    thread: j,
                    iter: step.step,
                    timeout: budget.unwrap_or_default(),
                });
                return;
            }
        }
        if !ctx.canaries_ok(j, step.step) {
            return;
        }
        if let Some(blk) = step.load {
            ctx.maybe_stall(Role::Data, j, blk, FaultPhase::Load);
            let range = load_range.clone();
            // Safety: load shares are disjoint across data threads; all
            // stores of this half completed at the data barrier; compute
            // is on the other half.
            let share =
                unsafe { ctx.buffer.half_range_mut(PipelineStep::half_of(blk), range.clone()) };
            let inject = ctx.injects_panic(Role::Data, j, blk, FaultPhase::Load);
            let span = tracer.start();
            let ok = contained_phase(ctx.fail, Role::Data, j, blk, || {
                if inject {
                    panic!("{INJECTED_FAULT_PREFIX}: Data worker {j} at iteration {blk}");
                }
                load(blk, range.start, share);
            });
            tracer.finish(span, Phase::Load, blk);
            if !ok {
                return;
            }
            // Safety: reborrow of this thread's own disjoint share (the
            // closure above consumed the first view).
            let share =
                unsafe { ctx.buffer.half_range_mut(PipelineStep::half_of(blk), range.clone()) };
            if let Some(ledger) = ctx.ledger {
                ledger.loaded[blk].add(block_checksum(share));
            }
            ctx.maybe_corrupt(Role::Data, j, blk, FaultPhase::Load, share);
        }
        let budget = ctx.effective_timeout();
        let span = tracer.start();
        let outcome = ctx.global_barrier.wait(ctx.fail, budget);
        tracer.finish(span, Phase::BarrierGlobal, step.step);
        match outcome {
            WaitOutcome::Released => {}
            WaitOutcome::Aborted => return,
            WaitOutcome::TimedOut => {
                ctx.fail.trip(PipelineError::StageTimeout {
                    role: Role::Data,
                    thread: j,
                    iter: step.step,
                    timeout: budget.unwrap_or_default(),
                });
                return;
            }
        }
        if !ctx.canaries_ok(j, step.step) {
            return;
        }
    }
}

/// The compute-thread worker loop (compute, global barrier per step).
fn compute_thread_loop(ctx: &RunCtx<'_>, j: usize, compute: &mut ComputeFn<'_>, compute_range: core::ops::Range<usize>) {
    let mut tracer = ThreadTracer::new(ctx.trace, TraceRole::Compute, j, ctx.stage);
    let adaptive = ctx.watchdog.is_some();
    for step in ctx.schedule.steps() {
        if ctx.fail.is_aborted() || !ctx.cancel_ok(step.step) {
            return;
        }
        // Only compute-active steps feed the watchdog measurement:
        // prologue steps are genuinely short (no kernel work yet) and
        // would otherwise shrink the budget below the steady-state step
        // time. A compute step's duration spans the global barrier, so
        // it approximates the whole pipeline's step time.
        let step_started = if adaptive && step.compute.is_some() {
            Some(Instant::now())
        } else {
            None
        };
        if let Some(blk) = step.compute {
            ctx.maybe_stall(Role::Compute, j, blk, FaultPhase::Compute);
            let range = compute_range.clone();
            // Safety: compute shares are disjoint across compute threads
            // and the compute half is untouched by data threads this
            // step.
            let share =
                unsafe { ctx.buffer.half_range_mut(PipelineStep::half_of(blk), range.clone()) };
            if let Some(ledger) = ctx.ledger {
                // Last arriver compares against the loaders' sum: any
                // corruption between the load handoff and the kernel is
                // caught before its output can be stored.
                let partial = block_checksum(share);
                if !ctx.checksum_handoff(
                    &ledger.pre_compute[blk],
                    &ledger.loaded[blk],
                    ctx.p_c,
                    partial,
                    blk,
                ) {
                    return;
                }
            }
            let inject = ctx.injects_panic(Role::Compute, j, blk, FaultPhase::Compute);
            let span = tracer.start();
            let ok = contained_phase(ctx.fail, Role::Compute, j, blk, || {
                if inject {
                    panic!("{INJECTED_FAULT_PREFIX}: Compute worker {j} at iteration {blk}");
                }
                compute(blk, range.start, share);
            });
            tracer.finish(span, Phase::Compute, blk);
            if !ok {
                return;
            }
            // Safety: reborrow of this thread's own disjoint share.
            let share =
                unsafe { ctx.buffer.half_range_mut(PipelineStep::half_of(blk), range.clone()) };
            if let Some(ledger) = ctx.ledger {
                ledger.computed[blk].add(block_checksum(share));
            }
            ctx.maybe_corrupt(Role::Compute, j, blk, FaultPhase::Compute, share);
        }
        let budget = ctx.effective_timeout();
        let span = tracer.start();
        let outcome = ctx.global_barrier.wait(ctx.fail, budget);
        tracer.finish(span, Phase::BarrierGlobal, step.step);
        match outcome {
            WaitOutcome::Released => {}
            WaitOutcome::Aborted => return,
            WaitOutcome::TimedOut => {
                ctx.fail.trip(PipelineError::StageTimeout {
                    role: Role::Compute,
                    thread: j,
                    iter: step.step,
                    timeout: budget.unwrap_or_default(),
                });
                return;
            }
        }
        if let Some(started) = step_started {
            ctx.note_epoch(started.elapsed());
        }
    }
}

/// Validates the configuration against the callbacks and buffer.
fn validate(
    buffer: &DoubleBuffer,
    cfg: &PipelineConfig,
    callbacks: &PipelineCallbacks<'_>,
) -> Result<(), ConfigError> {
    let b = buffer.half_elems();
    let p_d = callbacks.loaders.len();
    let p_c = callbacks.computes.len();
    if callbacks.storers.len() != p_d {
        return Err(ConfigError::MismatchedRoles {
            loaders: p_d,
            storers: callbacks.storers.len(),
        });
    }
    if p_d == 0 {
        return Err(ConfigError::ZeroThreads { role: Role::Data });
    }
    if p_c == 0 {
        return Err(ConfigError::ZeroThreads { role: Role::Compute });
    }
    if cfg.iters == 0 {
        return Err(ConfigError::ZeroIters);
    }
    if cfg.load_unit == 0 || !b.is_multiple_of(cfg.load_unit) {
        return Err(ConfigError::UnitMismatch {
            what: "load_unit",
            unit: cfg.load_unit,
            half_elems: b,
        });
    }
    if cfg.compute_unit == 0 || !b.is_multiple_of(cfg.compute_unit) {
        return Err(ConfigError::UnitMismatch {
            what: "compute_unit",
            unit: cfg.compute_unit,
            half_elems: b,
        });
    }
    if let Some(pins) = &cfg.pin_cpus {
        if pins.len() != p_d + p_c {
            return Err(ConfigError::PinListMismatch {
                pins: pins.len(),
                threads: p_d + p_c,
            });
        }
    }
    Ok(())
}

/// Runs the software pipeline. `buffer.half_elems()` is the block size
/// `b`; it must be divisible by both units.
///
/// On success, returns a [`PipelineReport`] with per-thread pin
/// statuses. On failure, returns the first typed [`PipelineError`]:
/// configuration problems before any thread starts, contained worker
/// panics and watchdog timeouts after all threads have drained and
/// joined.
pub fn run_pipeline(
    buffer: &DoubleBuffer,
    cfg: &PipelineConfig,
    callbacks: PipelineCallbacks,
) -> Result<PipelineReport, PipelineError> {
    validate(buffer, cfg, &callbacks)?;
    let b = buffer.half_elems();
    let p_d = callbacks.loaders.len();
    let p_c = callbacks.computes.len();

    let schedule = Schedule::new(cfg.iters);
    let load_ranges: Vec<_> = partition(b / cfg.load_unit, p_d)
        .into_iter()
        .map(|r| r.start * cfg.load_unit..r.end * cfg.load_unit)
        .collect();
    let compute_ranges: Vec<_> = partition(b / cfg.compute_unit, p_c)
        .into_iter()
        .map(|r| r.start * cfg.compute_unit..r.end * cfg.compute_unit)
        .collect();

    let fail = FailureCell::new();
    let data_barrier = AbortableBarrier::new(p_d);
    let global_barrier = AbortableBarrier::new(p_d + p_c);
    let empty_fault = FaultPlan::none();
    let epoch_ns = AtomicU64::new(0);
    let ledger = cfg
        .integrity
        .checksums
        .then(|| ChecksumLedger::new(cfg.iters));
    let ctx = RunCtx {
        buffer,
        schedule: &schedule,
        data_barrier: &data_barrier,
        global_barrier: &global_barrier,
        fail: &fail,
        timeout: cfg.iter_timeout,
        fault: cfg.fault.as_ref().unwrap_or(&empty_fault),
        stage: cfg.stage,
        trace: cfg.trace.as_deref(),
        watchdog: cfg.adaptive_watchdog,
        epoch_ns: &epoch_ns,
        integrity: cfg.integrity,
        ledger: ledger.as_ref(),
        p_d,
        p_c,
        cancel: cfg.cancel.as_ref(),
    };
    let ctx_ref = &ctx;
    let pins = cfg.pin_cpus.clone();
    let pin_slots: Mutex<Vec<Option<PinStatus>>> = Mutex::new(vec![None; p_d + p_c]);
    let pin_slots_ref = &pin_slots;

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(p_d + p_c);
        // Data threads.
        for (j, (mut load, mut store)) in callbacks
            .loaders
            .into_iter()
            .zip(callbacks.storers)
            .enumerate()
        {
            let pins = pins.clone();
            let range = load_ranges[j].clone();
            handles.push((Role::Data, j, scope.spawn(move || {
                if let Some(st) = ctx_ref.pin(&pins, j) {
                    lock_tolerant(pin_slots_ref)[j] = Some(st);
                }
                data_thread_loop(ctx_ref, j, &mut load, &mut store, range);
            })));
        }
        // Compute threads.
        for (j, mut compute) in callbacks.computes.into_iter().enumerate() {
            let pins = pins.clone();
            let range = compute_ranges[j].clone();
            handles.push((Role::Compute, j, scope.spawn(move || {
                if let Some(st) = ctx_ref.pin(&pins, p_d + j) {
                    lock_tolerant(pin_slots_ref)[p_d + j] = Some(st);
                }
                compute_thread_loop(ctx_ref, j, &mut compute, range);
            })));
        }
        for (role, j, h) in handles {
            // Worker panics are contained inside the loops; a join error
            // here means the runtime around them failed — still typed.
            if let Err(payload) = h.join() {
                fail.trip(PipelineError::WorkerPanicked {
                    role,
                    thread: j,
                    iter: 0,
                    message: panic_message(payload),
                });
            }
        }
    });

    let pin_status: Vec<PinStatus> = lock_tolerant(&pin_slots).iter().copied().flatten().collect();
    let pin_failures = affinity::warn_on_failures(&pin_status);

    match fail.into_error() {
        Some(err) => Err(err),
        None => Ok(PipelineReport {
            blocks: cfg.iters,
            pin_status,
            pin_failures,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::silence_injected_panic_reports;
    use bwfft_num::signal::random_complex;
    use bwfft_num::AlignedVec;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    /// A shared output array the storers write through; ranges are
    /// disjoint so a mutex-free cell would do, but tests prefer safety.
    struct Out(Mutex<Vec<Complex64>>);

    fn run_identity_pipeline(p_d: usize, p_c: usize, blocks: usize, b: usize) {
        run_identity_pipeline_with(p_d, p_c, blocks, b, IntegrityConfig::default());
    }

    fn run_identity_pipeline_with(
        p_d: usize,
        p_c: usize,
        blocks: usize,
        b: usize,
        integrity: IntegrityConfig,
    ) {
        // Pipeline that computes out[block] = 2·x[block] (identity
        // permutation on store) — verifies plumbing and scheduling.
        let n = blocks * b;
        let x = random_complex(n, 99);
        let out = Out(Mutex::new(vec![Complex64::ZERO; n]));
        let buffer = DoubleBuffer::new(b);
        let x_ref = &x;
        let out_ref = &out;

        let loaders: Vec<LoadFn> = (0..p_d)
            .map(|_| {
                Box::new(move |blk: usize, off: usize, share: &mut [Complex64]| {
                    let start = blk * b + off;
                    share.copy_from_slice(&x_ref[start..start + share.len()]);
                }) as LoadFn
            })
            .collect();
        let storers: Vec<StoreFn> = (0..p_d)
            .map(|j| {
                Box::new(move |blk: usize, half: &[Complex64]| {
                    // Thread j writes its contiguous quarter.
                    let ranges = partition(b, p_d);
                    let r = ranges[j].clone();
                    let mut guard = out_ref.0.lock().unwrap_or_else(|e| e.into_inner());
                    guard[blk * b + r.start..blk * b + r.end].copy_from_slice(&half[r]);
                }) as StoreFn
            })
            .collect();
        let computes: Vec<ComputeFn> = (0..p_c)
            .map(|_| {
                Box::new(move |_blk: usize, _off: usize, share: &mut [Complex64]| {
                    for v in share.iter_mut() {
                        *v = *v * 2.0;
                    }
                }) as ComputeFn
            })
            .collect();

        let report = run_pipeline(
            &buffer,
            &PipelineConfig {
                iters: blocks,
                integrity,
                ..PipelineConfig::default()
            },
            PipelineCallbacks {
                loaders,
                storers,
                computes,
            },
        )
        .expect("fault-free pipeline must succeed");
        assert_eq!(report.blocks, blocks);
        assert!(report.pin_status.is_empty());

        let got = out.0.into_inner().unwrap_or_else(|e| e.into_inner());
        for (i, (g, e)) in got.iter().zip(&x).enumerate() {
            assert_eq!(*g, *e * 2.0, "element {i}");
        }
    }

    #[test]
    fn pipeline_computes_correctly_1x1() {
        run_identity_pipeline(1, 1, 4, 64);
    }

    #[test]
    fn pipeline_computes_correctly_2x2() {
        run_identity_pipeline(2, 2, 8, 64);
    }

    #[test]
    fn pipeline_computes_correctly_4x4() {
        run_identity_pipeline(4, 4, 6, 96);
    }

    #[test]
    fn pipeline_single_block() {
        run_identity_pipeline(2, 2, 1, 32);
    }

    /// Callbacks that do nothing — scaffolding for orchestration tests.
    fn noop_callbacks<'a>(p_d: usize, p_c: usize) -> PipelineCallbacks<'a> {
        PipelineCallbacks {
            loaders: (0..p_d).map(|_| Box::new(|_, _, _: &mut [Complex64]| {}) as LoadFn).collect(),
            storers: (0..p_d).map(|_| Box::new(|_, _: &[Complex64]| {}) as StoreFn).collect(),
            computes: (0..p_c)
                .map(|_| Box::new(|_, _, _: &mut [Complex64]| {}) as ComputeFn)
                .collect(),
        }
    }

    #[test]
    fn compute_sees_every_block_exactly_once() {
        let b = 32;
        let blocks = 10;
        let buffer = DoubleBuffer::new(b);
        let count = AtomicUsize::new(0);
        let count_ref = &count;
        let seen = Mutex::new(Vec::<usize>::new());
        let seen_ref = &seen;
        run_pipeline(
            &buffer,
            &PipelineConfig {
                iters: blocks,
                ..PipelineConfig::default()
            },
            PipelineCallbacks {
                loaders: vec![Box::new(|_, _, _| {})],
                storers: vec![Box::new(|_, _| {})],
                computes: vec![Box::new(move |blk, _, _| {
                    count_ref.fetch_add(1, Ordering::SeqCst);
                    seen_ref.lock().unwrap_or_else(|e| e.into_inner()).push(blk);
                })],
            },
        )
        .unwrap();
        assert_eq!(count.load(Ordering::SeqCst), blocks);
        let mut blocks_seen = seen.into_inner().unwrap_or_else(|e| e.into_inner());
        blocks_seen.sort_unstable();
        assert_eq!(blocks_seen, (0..blocks).collect::<Vec<_>>());
    }

    #[test]
    fn store_happens_after_compute_of_same_block() {
        // Record orderings via a log.
        let b = 16;
        let blocks = 6;
        let buffer = DoubleBuffer::new(b);
        let log = Mutex::new(Vec::<(char, usize)>::new());
        let log_ref = &log;
        run_pipeline(
            &buffer,
            &PipelineConfig {
                iters: blocks,
                ..PipelineConfig::default()
            },
            PipelineCallbacks {
                loaders: vec![Box::new(move |blk, _, _| {
                    log_ref.lock().unwrap_or_else(|e| e.into_inner()).push(('L', blk));
                })],
                storers: vec![Box::new(move |blk, _| {
                    log_ref.lock().unwrap_or_else(|e| e.into_inner()).push(('S', blk));
                })],
                computes: vec![Box::new(move |blk, _, _| {
                    log_ref.lock().unwrap_or_else(|e| e.into_inner()).push(('C', blk));
                })],
            },
        )
        .unwrap();
        let events = log.into_inner().unwrap_or_else(|e| e.into_inner());
        for blk in 0..blocks {
            let lpos = events.iter().position(|e| *e == ('L', blk)).unwrap();
            let cpos = events.iter().position(|e| *e == ('C', blk)).unwrap();
            let spos = events.iter().position(|e| *e == ('S', blk)).unwrap();
            assert!(lpos < cpos && cpos < spos, "block {blk}: L{lpos} C{cpos} S{spos}");
        }
    }

    #[test]
    fn data_written_by_loader_reaches_computer_intact() {
        // Loader writes a known pattern; compute verifies it before
        // overwriting; store verifies the compute result.
        let b = 64;
        let blocks = 5;
        let buffer = DoubleBuffer::new(b);
        let failures = AtomicUsize::new(0);
        let f = &failures;
        run_pipeline(
            &buffer,
            &PipelineConfig {
                iters: blocks,
                ..PipelineConfig::default()
            },
            PipelineCallbacks {
                loaders: vec![Box::new(move |blk, off, share| {
                    for (i, v) in share.iter_mut().enumerate() {
                        *v = Complex64::new(blk as f64, (off + i) as f64);
                    }
                })],
                storers: vec![Box::new(move |blk, half| {
                    for (i, v) in half.iter().enumerate() {
                        if *v != Complex64::new(blk as f64 + 1.0, i as f64) {
                            f.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                })],
                computes: vec![Box::new(move |blk, off, share| {
                    for (i, v) in share.iter_mut().enumerate() {
                        if *v != Complex64::new(blk as f64, (off + i) as f64) {
                            f.fetch_add(1, Ordering::SeqCst);
                        }
                        *v = Complex64::new(blk as f64 + 1.0, (off + i) as f64);
                    }
                })],
            },
        )
        .unwrap();
        assert_eq!(failures.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn pinning_request_does_not_break_execution() {
        let b = 16;
        let buffer = DoubleBuffer::new(b);
        let touched = AtomicUsize::new(0);
        let t = &touched;
        let mut callbacks = noop_callbacks(1, 1);
        callbacks.computes = vec![Box::new(move |_, _, _| {
            t.fetch_add(1, Ordering::SeqCst);
        })];
        let report = run_pipeline(
            &buffer,
            &PipelineConfig {
                iters: 2,
                pin_cpus: Some(vec![0, 0]),
                ..PipelineConfig::default()
            },
            callbacks,
        )
        .unwrap();
        assert_eq!(touched.load(Ordering::SeqCst), 2);
        // Pinning was requested, so every thread reports a status.
        assert_eq!(report.pin_status.len(), 2);
    }

    #[test]
    fn denied_pinning_is_reported_not_fatal() {
        let buffer = DoubleBuffer::new(16);
        let report = run_pipeline(
            &buffer,
            &PipelineConfig {
                iters: 2,
                pin_cpus: Some(vec![0, 0]),
                fault: Some(FaultPlan::none().with_denied_pinning()),
                ..PipelineConfig::default()
            },
            noop_callbacks(1, 1),
        )
        .unwrap();
        assert_eq!(report.pin_failures, 2);
        assert!(report.pin_status.iter().all(|s| !s.is_pinned()));
    }

    #[test]
    fn mismatched_role_counts_rejected() {
        let buffer = DoubleBuffer::new(8);
        let err = run_pipeline(
            &buffer,
            &PipelineConfig::default(),
            PipelineCallbacks {
                loaders: vec![Box::new(|_, _, _| {}), Box::new(|_, _, _| {})],
                storers: vec![Box::new(|_, _| {})],
                computes: vec![Box::new(|_, _, _| {})],
            },
        )
        .unwrap_err();
        assert_eq!(
            err,
            PipelineError::Config(ConfigError::MismatchedRoles {
                loaders: 2,
                storers: 1
            })
        );
        assert!(err.to_string().contains("one storer per data thread"));
    }

    #[test]
    fn bad_units_and_zero_iters_rejected() {
        let buffer = DoubleBuffer::new(10);
        let err = run_pipeline(
            &buffer,
            &PipelineConfig {
                iters: 2,
                load_unit: 3, // does not divide 10
                ..PipelineConfig::default()
            },
            noop_callbacks(1, 1),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            PipelineError::Config(ConfigError::UnitMismatch { what: "load_unit", .. })
        ));

        let err = run_pipeline(
            &buffer,
            &PipelineConfig {
                iters: 0,
                ..PipelineConfig::default()
            },
            noop_callbacks(1, 1),
        )
        .unwrap_err();
        assert_eq!(err, PipelineError::Config(ConfigError::ZeroIters));

        let err = run_pipeline(
            &buffer,
            &PipelineConfig {
                iters: 1,
                pin_cpus: Some(vec![0]),
                ..PipelineConfig::default()
            },
            noop_callbacks(1, 1),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            PipelineError::Config(ConfigError::PinListMismatch { pins: 1, threads: 2 })
        ));
    }

    #[test]
    fn injected_compute_panic_yields_typed_error_without_deadlock() {
        silence_injected_panic_reports();
        let buffer = DoubleBuffer::new(32);
        let err = run_pipeline(
            &buffer,
            &PipelineConfig {
                iters: 6,
                fault: Some(FaultPlan::panic_at(Role::Compute, 0, 3)),
                iter_timeout: Some(Duration::from_secs(5)),
                ..PipelineConfig::default()
            },
            noop_callbacks(2, 2),
        )
        .unwrap_err();
        match err {
            PipelineError::WorkerPanicked {
                role,
                thread,
                iter,
                message,
            } => {
                assert_eq!(role, Role::Compute);
                assert_eq!(thread, 0);
                assert_eq!(iter, 3);
                assert!(message.starts_with(INJECTED_FAULT_PREFIX));
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
    }

    #[test]
    fn user_panic_in_storer_is_contained() {
        silence_injected_panic_reports();
        let buffer = DoubleBuffer::new(16);
        let mut callbacks = noop_callbacks(1, 1);
        callbacks.storers = vec![Box::new(|blk, _| {
            if blk == 1 {
                panic!("user store bug on block {blk}");
            }
        })];
        let err = run_pipeline(
            &buffer,
            &PipelineConfig {
                iters: 4,
                ..PipelineConfig::default()
            },
            callbacks,
        )
        .unwrap_err();
        match err {
            PipelineError::WorkerPanicked { role, iter, message, .. } => {
                assert_eq!(role, Role::Data);
                assert_eq!(iter, 1);
                assert!(message.contains("user store bug"));
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
    }

    #[test]
    fn stall_beyond_watchdog_yields_stage_timeout() {
        let buffer = DoubleBuffer::new(16);
        let err = run_pipeline(
            &buffer,
            &PipelineConfig {
                iters: 4,
                iter_timeout: Some(Duration::from_millis(40)),
                fault: Some(FaultPlan::stall_at(
                    Role::Compute,
                    0,
                    1,
                    Duration::from_millis(400),
                )),
                ..PipelineConfig::default()
            },
            noop_callbacks(1, 1),
        )
        .unwrap_err();
        assert!(
            matches!(err, PipelineError::StageTimeout { .. }),
            "expected StageTimeout, got {err:?}"
        );
    }

    #[test]
    fn cancelled_token_aborts_before_any_work() {
        let buffer = DoubleBuffer::new(16);
        let token = CancelToken::new();
        token.cancel();
        let touched = AtomicUsize::new(0);
        let t = &touched;
        let mut callbacks = noop_callbacks(1, 1);
        callbacks.computes = vec![Box::new(move |_, _, _| {
            t.fetch_add(1, Ordering::SeqCst);
        })];
        let err = run_pipeline(
            &buffer,
            &PipelineConfig {
                iters: 4,
                cancel: Some(token),
                ..PipelineConfig::default()
            },
            callbacks,
        )
        .unwrap_err();
        assert_eq!(
            err,
            PipelineError::Cancelled {
                iter: 0,
                reason: crate::cancel::CancelReason::Shutdown
            }
        );
        assert_eq!(touched.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn expired_deadline_yields_deadline_cancellation() {
        let buffer = DoubleBuffer::new(16);
        let token = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        let err = run_pipeline(
            &buffer,
            &PipelineConfig {
                iters: 4,
                cancel: Some(token),
                ..PipelineConfig::default()
            },
            noop_callbacks(1, 1),
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                PipelineError::Cancelled {
                    reason: crate::cancel::CancelReason::Deadline,
                    ..
                }
            ),
            "expected deadline cancellation, got {err:?}"
        );
    }

    #[test]
    fn mid_run_cancel_drains_all_threads() {
        // A compute callback cancels the run at block 1; every thread
        // must drain (the scope join below would hang otherwise) and
        // the typed error must surface.
        let buffer = DoubleBuffer::new(32);
        let token = CancelToken::new();
        let cancel_from_worker = token.clone();
        let mut callbacks = noop_callbacks(2, 2);
        callbacks.computes = (0..2)
            .map(|_| {
                let tok = cancel_from_worker.clone();
                Box::new(move |blk: usize, _: usize, _: &mut [Complex64]| {
                    if blk == 1 {
                        tok.cancel();
                    }
                }) as ComputeFn
            })
            .collect();
        let err = run_pipeline(
            &buffer,
            &PipelineConfig {
                iters: 8,
                cancel: Some(token),
                iter_timeout: Some(Duration::from_secs(5)),
                ..PipelineConfig::default()
            },
            callbacks,
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                PipelineError::Cancelled {
                    reason: crate::cancel::CancelReason::Shutdown,
                    ..
                }
            ),
            "expected shutdown cancellation, got {err:?}"
        );
    }

    #[test]
    fn stall_within_watchdog_budget_is_harmless() {
        let buffer = DoubleBuffer::new(16);
        run_pipeline(
            &buffer,
            &PipelineConfig {
                iters: 3,
                iter_timeout: Some(Duration::from_secs(5)),
                fault: Some(FaultPlan::stall_at(
                    Role::Data,
                    0,
                    1,
                    Duration::from_millis(5),
                )),
                ..PipelineConfig::default()
            },
            noop_callbacks(1, 1),
        )
        .unwrap();
    }

    #[test]
    fn unused_aligned_vec_reexport_compiles() {
        // Keep AlignedVec in the dependency surface tests exercise.
        let v: AlignedVec<Complex64> = AlignedVec::zeroed(4);
        assert_eq!(v.len(), 4);
    }

    #[test]
    fn traced_run_records_all_phases_with_stage() {
        use bwfft_trace::TraceEvent;
        let blocks = 4;
        let buffer = DoubleBuffer::new(32);
        let collector = Arc::new(TraceCollector::new());
        run_pipeline(
            &buffer,
            &PipelineConfig {
                iters: blocks,
                stage: 7,
                trace: Some(Arc::clone(&collector)),
                ..PipelineConfig::default()
            },
            noop_callbacks(2, 2),
        )
        .unwrap();
        let events = collector.take_events();
        let spans: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Span(s) => Some(s),
                TraceEvent::Mark(_) => None,
            })
            .collect();
        assert!(!spans.is_empty());
        assert!(spans.iter().all(|s| s.stage == 7));
        for phase in [
            Phase::Load,
            Phase::Compute,
            Phase::Store,
            Phase::BarrierData,
            Phase::BarrierGlobal,
        ] {
            assert!(
                spans.iter().any(|s| s.phase == phase),
                "missing {phase:?} spans"
            );
        }
        // Every block gets loaded by both data threads and computed by
        // both compute threads.
        for blk in 0..blocks {
            let loads = spans
                .iter()
                .filter(|s| s.phase == Phase::Load && s.block == blk)
                .count();
            assert_eq!(loads, 2, "block {blk} load spans");
            let computes = spans
                .iter()
                .filter(|s| s.phase == Phase::Compute && s.block == blk)
                .count();
            assert_eq!(computes, 2, "block {blk} compute spans");
        }
        // Role attribution is consistent with the phase.
        assert!(spans
            .iter()
            .all(|s| match s.phase {
                Phase::Load | Phase::Store | Phase::BarrierData => s.role == TraceRole::Data,
                Phase::Compute => s.role == TraceRole::Compute,
                Phase::BarrierGlobal => true,
            }));
    }

    #[test]
    fn untraced_run_leaves_collector_untouched() {
        let buffer = DoubleBuffer::new(16);
        run_pipeline(
            &buffer,
            &PipelineConfig {
                iters: 3,
                ..PipelineConfig::default()
            },
            noop_callbacks(1, 1),
        )
        .unwrap();
    }

    #[test]
    fn injected_faults_appear_as_trace_marks() {
        use bwfft_trace::TraceEvent;
        silence_injected_panic_reports();
        let buffer = DoubleBuffer::new(16);
        let collector = Arc::new(TraceCollector::new());
        let err = run_pipeline(
            &buffer,
            &PipelineConfig {
                iters: 4,
                trace: Some(Arc::clone(&collector)),
                fault: Some(FaultPlan::panic_at(Role::Compute, 0, 2)),
                iter_timeout: Some(Duration::from_secs(5)),
                ..PipelineConfig::default()
            },
            noop_callbacks(1, 1),
        )
        .unwrap_err();
        assert!(matches!(err, PipelineError::WorkerPanicked { .. }));
        let events = collector.take_events();
        let mark = events
            .iter()
            .find_map(|e| match e {
                TraceEvent::Mark(m) if m.kind == MarkKind::FaultInjected => Some(m),
                _ => None,
            })
            .expect("fault injection must record a FaultInjected mark");
        assert!(
            mark.label.contains("Compute worker 0 at block 2"),
            "mark label: {}",
            mark.label
        );
    }

    #[test]
    fn stall_fault_marks_carry_duration() {
        use bwfft_trace::TraceEvent;
        let buffer = DoubleBuffer::new(16);
        let collector = Arc::new(TraceCollector::new());
        run_pipeline(
            &buffer,
            &PipelineConfig {
                iters: 3,
                trace: Some(Arc::clone(&collector)),
                fault: Some(FaultPlan::stall_at(
                    Role::Data,
                    0,
                    1,
                    Duration::from_millis(3),
                )),
                ..PipelineConfig::default()
            },
            noop_callbacks(1, 1),
        )
        .unwrap();
        let events = collector.take_events();
        let mark = events
            .iter()
            .find_map(|e| match e {
                TraceEvent::Mark(m) if m.kind == MarkKind::FaultInjected => Some(m),
                _ => None,
            })
            .expect("stall must record a FaultInjected mark");
        assert!(mark.label.starts_with("stall:"), "label: {}", mark.label);
        assert_eq!(mark.value_ns, Some(3e6));
    }

    #[test]
    fn adaptive_watchdog_times_out_stalled_peer() {
        // Fast measured epochs (noop steps) make the derived budget the
        // `min` floor; a 400 ms stall at block 2 then trips the
        // watchdog without any caller-assumed iteration time.
        let buffer = DoubleBuffer::new(16);
        let err = run_pipeline(
            &buffer,
            &PipelineConfig {
                iters: 6,
                adaptive_watchdog: Some(AdaptiveWatchdog {
                    multiplier: 8.0,
                    min: Duration::from_millis(40),
                    warmup: Duration::from_secs(5),
                }),
                fault: Some(FaultPlan::stall_at(
                    Role::Compute,
                    0,
                    2,
                    Duration::from_millis(400),
                )),
                ..PipelineConfig::default()
            },
            noop_callbacks(1, 1),
        )
        .unwrap_err();
        match err {
            PipelineError::StageTimeout { timeout, .. } => {
                // The reported budget is the measured-epoch derivation,
                // not the warmup: steps are microseconds, so the floor
                // (40 ms) applies.
                assert!(timeout >= Duration::from_millis(40));
                assert!(timeout < Duration::from_secs(5));
            }
            other => panic!("expected StageTimeout, got {other:?}"),
        }
    }

    #[test]
    fn full_integrity_guards_pass_on_fault_free_runs() {
        // The guards must never false-positive: same correctness check
        // as the plain identity runs, with every guard armed.
        run_identity_pipeline_with(1, 1, 4, 64, IntegrityConfig::full());
        run_identity_pipeline_with(2, 2, 8, 64, IntegrityConfig::full());
        run_identity_pipeline_with(4, 3, 6, 96, IntegrityConfig::full());
    }

    #[test]
    fn load_phase_corruption_is_caught_by_checksum_guard() {
        let buffer = DoubleBuffer::new(32);
        let err = run_pipeline(
            &buffer,
            &PipelineConfig {
                iters: 5,
                integrity: IntegrityConfig {
                    checksums: true,
                    canaries: false,
                },
                fault: Some(FaultPlan::corrupt_at(Role::Data, 0, 1, FaultPhase::Load)),
                iter_timeout: Some(Duration::from_secs(5)),
                ..PipelineConfig::default()
            },
            noop_callbacks(2, 2),
        )
        .unwrap_err();
        assert_eq!(
            err,
            PipelineError::Integrity {
                stage: 0,
                block: 1,
                kind: crate::error::IntegrityKind::Checksum,
            }
        );
    }

    #[test]
    fn compute_phase_corruption_is_caught_before_store() {
        let buffer = DoubleBuffer::new(32);
        let err = run_pipeline(
            &buffer,
            &PipelineConfig {
                iters: 5,
                integrity: IntegrityConfig::full(),
                fault: Some(FaultPlan::corrupt_at(
                    Role::Compute,
                    0,
                    2,
                    FaultPhase::Compute,
                )),
                iter_timeout: Some(Duration::from_secs(5)),
                ..PipelineConfig::default()
            },
            noop_callbacks(1, 1),
        )
        .unwrap_err();
        assert_eq!(
            err,
            PipelineError::Integrity {
                stage: 0,
                block: 2,
                kind: crate::error::IntegrityKind::Checksum,
            }
        );
    }

    #[test]
    fn corruption_with_guards_off_is_silent() {
        // Documents the hazard the guards exist for: with checksums off
        // the corrupted run completes "successfully".
        let buffer = DoubleBuffer::new(32);
        run_pipeline(
            &buffer,
            &PipelineConfig {
                iters: 5,
                fault: Some(FaultPlan::corrupt_at(Role::Data, 0, 1, FaultPhase::Load)),
                ..PipelineConfig::default()
            },
            noop_callbacks(1, 1),
        )
        .unwrap();
    }

    #[test]
    fn clobbered_canary_aborts_run() {
        let mut buffer = DoubleBuffer::new(32);
        // Simulate an out-of-slice write landing in the middle guard.
        let probe = crate::buffer::CANARY_ELEMS + 32;
        buffer.storage_mut()[probe] = Complex64::ZERO;
        let err = run_pipeline(
            &buffer,
            &PipelineConfig {
                iters: 4,
                integrity: IntegrityConfig {
                    canaries: true,
                    checksums: false,
                },
                iter_timeout: Some(Duration::from_secs(5)),
                ..PipelineConfig::default()
            },
            noop_callbacks(1, 1),
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                PipelineError::Integrity {
                    kind: crate::error::IntegrityKind::Canary,
                    ..
                }
            ),
            "expected canary integrity error, got {err:?}"
        );
    }

    #[test]
    fn store_phase_panic_is_contained() {
        silence_injected_panic_reports();
        let buffer = DoubleBuffer::new(16);
        let err = run_pipeline(
            &buffer,
            &PipelineConfig {
                iters: 4,
                fault: Some(FaultPlan::panic_at_phase(
                    Role::Data,
                    0,
                    1,
                    FaultPhase::Store,
                )),
                iter_timeout: Some(Duration::from_secs(5)),
                ..PipelineConfig::default()
            },
            noop_callbacks(1, 1),
        )
        .unwrap_err();
        match err {
            PipelineError::WorkerPanicked {
                role,
                iter,
                message,
                ..
            } => {
                assert_eq!(role, Role::Data);
                assert_eq!(iter, 1);
                assert!(message.contains("(store)"), "message: {message}");
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
    }

    #[test]
    fn checksum_is_order_independent_over_partitions() {
        let xs = random_complex(64, 7);
        let whole = block_checksum(&xs);
        for parts in [1usize, 2, 3, 5, 64] {
            let split: u64 = partition(64, parts)
                .into_iter()
                .map(|r| block_checksum(&xs[r]))
                .fold(0u64, u64::wrapping_add);
            assert_eq!(split, whole, "parts={parts}");
        }
    }

    #[test]
    fn adaptive_watchdog_scales_with_slow_steps() {
        // Steps that legitimately take ~20 ms must not be killed by the
        // 1 ms floor: the 8× multiplier of the measured epoch dominates.
        let buffer = DoubleBuffer::new(16);
        let mut callbacks = noop_callbacks(1, 1);
        callbacks.computes = vec![Box::new(|_, _, _| {
            std::thread::sleep(Duration::from_millis(20));
        })];
        run_pipeline(
            &buffer,
            &PipelineConfig {
                iters: 4,
                adaptive_watchdog: Some(AdaptiveWatchdog {
                    multiplier: 8.0,
                    min: Duration::from_millis(1),
                    warmup: Duration::from_secs(5),
                }),
                ..PipelineConfig::default()
            },
            callbacks,
        )
        .unwrap();
    }
}
