//! The concurrent request executor: bounded queue, admission control,
//! deadline cancellation, degradation governor, graceful drain.
//!
//! The overload contract, in one paragraph: `submit` either admits a
//! request (returning a [`Ticket`] that is guaranteed to resolve to
//! exactly one [`RequestOutcome`]) or sheds it immediately with a typed
//! [`ServeError::Rejected`] — the service never queues unboundedly and
//! never makes the caller guess. Admission walks the cheap checks
//! first: drain flag, queue depth, then the in-flight byte budget
//! (through the same [`check_alloc_budget`] discipline the executors
//! use), then the breaker, and finally the shape-keyed
//! [`BufferPool`], whose exhaustion is just another typed rejection.
//! Admitted requests carry a [`CancelToken`] armed with their deadline;
//! workers poll it at pipeline barriers, so a timed-out request frees
//! its worker instead of hanging it. Shutdown stops admission, drains
//! the queue (every queued request still terminates with its one
//! outcome), joins the workers, and returns a [`ServeReport`] whose
//! accounting must balance: `submitted == completed +
//! deadline_exceeded + failed`.
//!
//! Every outcome, rejection and plan-cache event is counted once, in
//! the server's [`Registry`]; a [`ServeReport`] is a read of those
//! counters, so a scrape and a report can never disagree.

use crate::breaker::{Admission, Breaker, BreakerConfig, BreakerLevel, BreakerTransition};
use crate::error::{RejectReason, ServeError};
use crate::request::{FftRequest, OutcomeCell, RequestOutcome, Ticket};
use bwfft_core::exec_real::ExecConfig;
use bwfft_core::{
    execute_reference, CoreError, ExecutorKind, FftPlan, HostProfile, RecoveryTier, RetryPolicy,
    Supervisor,
};
use bwfft_metrics::{Counter, FlightRecorder, Gauge, Histogram, Registry};
use bwfft_num::{check_alloc_budget, lock_tolerant, BufferPool, Complex64, PoolStats, PooledBuf};
use bwfft_pipeline::{CancelReason, CancelToken, FaultPlan, IntegrityConfig, PipelineError};
use bwfft_trace::{MarkKind, TraceCollector};
use bwfft_tuner::{CacheStats, HostFingerprint, PlanCache, PlanVariant, Tuner, TunerOptions};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Service configuration. The defaults are deliberately small: two
/// workers, a sixteen-deep queue, no budgets — callers that want the
/// overload contract to bite set `byte_budget` / `pool_cap_bytes`.
#[derive(Clone)]
pub struct ServeConfig {
    /// Worker threads executing requests. `0` is a synchronous mode
    /// used by deterministic tests: nothing runs until
    /// [`FftServer::shutdown`] drains the queue inline.
    pub workers: usize,
    /// Bounded queue depth; submissions beyond it are shed.
    pub queue_capacity: usize,
    /// Cap on the working-set bytes of all in-flight (queued +
    /// executing) requests, enforced at admission.
    pub byte_budget: Option<usize>,
    /// Byte cap of the buffer pool (idle + outstanding). Defaults to
    /// `byte_budget` when unset.
    pub pool_cap_bytes: Option<usize>,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline: Option<Duration>,
    /// Degradation governor thresholds.
    pub breaker: BreakerConfig,
    /// Per-request recovery budget (retries, backoff, escalation).
    pub retry: RetryPolicy,
    /// Ceiling on the `max_attempts` a per-request [`RetryPolicy`]
    /// override may request. `None` admits any override; with a
    /// ceiling set, over-budget requests are shed typed
    /// (`retry_budget`) at admission — one caller cannot buy unbounded
    /// retry work on a shared service.
    pub retry_ceiling: Option<usize>,
    /// Pipeline integrity guards armed for every request.
    pub integrity: IntegrityConfig,
    /// Arm the whole-run Parseval/energy check on every request, so
    /// corruption that slips between the block-level guards still
    /// fails typed instead of completing wrong.
    pub verify_energy: bool,
    /// Mark sink for admission, breaker, and drain events.
    pub trace: Option<Arc<TraceCollector>>,
    /// The registry every serve and plan-cache counter, phase histogram
    /// and state gauge lives in, pre-registered at start and updated
    /// per request with single relaxed atomics. `None` gives the server
    /// a private registry: counting never switches off, this field only
    /// decides who else can scrape it. A registry belongs to one live
    /// server — a second server on the same registry would sum into
    /// the same cells, and neither report would be its own.
    pub metrics: Option<Arc<Registry>>,
    /// Flight recorder. When set, every finished request deposits its
    /// span tree, and breaker degradations / integrity trips / worker
    /// panics freeze a `bwfft-flight/1` dump of the last K requests.
    pub flight: Option<Arc<FlightRecorder>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            queue_capacity: 16,
            byte_budget: None,
            pool_cap_bytes: None,
            default_deadline: None,
            breaker: BreakerConfig::default(),
            retry: RetryPolicy::default(),
            retry_ceiling: None,
            integrity: IntegrityConfig::default(),
            verify_energy: false,
            trace: None,
            metrics: None,
            flight: None,
        }
    }
}

/// Rejections by reason: a read of the `serve.rejected.<reason>`
/// counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RejectCounts {
    pub queue_full: u64,
    pub byte_budget: u64,
    pub pool_exhausted: u64,
    pub breaker_open: u64,
    pub shutting_down: u64,
    pub retry_budget: u64,
}

impl RejectCounts {
    pub fn total(&self) -> u64 {
        self.by_reason().iter().map(|(_, n)| n).sum()
    }

    /// `(RejectReason::token(), count)` for every reason, in field order.
    pub fn by_reason(&self) -> [(&'static str, u64); 6] {
        [
            ("queue_full", self.queue_full),
            ("byte_budget", self.byte_budget),
            ("pool_exhausted", self.pool_exhausted),
            ("breaker_open", self.breaker_open),
            ("shutting_down", self.shutting_down),
            ("retry_budget", self.retry_budget),
        ]
    }
}

/// What the service did over its lifetime (or up to a
/// [`FftServer::stats`] read): a view of the server's registry counters
/// plus the breaker trail and buffer-pool totals.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Requests admitted past every admission check.
    pub submitted: u64,
    pub completed: u64,
    pub deadline_exceeded: u64,
    pub failed: u64,
    /// Completions that needed any supervisor recovery step.
    pub recovered_runs: u64,
    /// Shed at admission (disjoint from `submitted`).
    pub rejected: RejectCounts,
    /// Completions by producing tier: pipelined, fused, reference.
    pub tier_completed: [u64; 3],
    /// Breaker position when the report was taken.
    pub breaker_level: BreakerLevel,
    /// Every breaker transition, in order.
    pub breaker_transitions: Vec<BreakerTransition>,
    /// Buffer-pool counters.
    pub pool: PoolStats,
    /// Sharded plan-cache counters: every admitted request resolves its
    /// plan through the cache, so repeated shapes show up as hits here.
    pub plan_cache: CacheStats,
}

impl ServeReport {
    /// Admitted requests that have terminated so far.
    pub fn outcomes(&self) -> u64 {
        self.completed + self.deadline_exceeded + self.failed
    }

    /// The drained-service invariant, computed from the registry
    /// counters: every admitted request terminated with exactly one
    /// outcome, and the per-tier completions sum to the total. Only
    /// meaningful after [`FftServer::shutdown`].
    pub fn holds(&self) -> bool {
        self.submitted == self.outcomes()
            && self.tier_completed.iter().sum::<u64>() == self.completed
    }
}

struct QueueState {
    queue: VecDeque<QueuedRequest>,
    shutting_down: bool,
    /// Working-set bytes of queued + executing requests. Decremented
    /// when a request's outcome is delivered.
    in_flight_bytes: usize,
}

struct QueuedRequest {
    /// Server-assigned id; mirrors [`Ticket::id`].
    id: u64,
    plan: Arc<FftPlan>,
    data: PooledBuf<Complex64>,
    work: PooledBuf<Complex64>,
    /// The request's own payload allocation, reused as output storage.
    result: Vec<Complex64>,
    token: CancelToken,
    tier: RecoveryTier,
    fault: Option<FaultPlan>,
    /// Per-request policy overrides (admission already enforced the
    /// retry ceiling); `None` fields fall back to the server defaults.
    retry: Option<RetryPolicy>,
    integrity: Option<IntegrityConfig>,
    verify_energy: Option<bool>,
    submitted_at: Instant,
    bytes: usize,
    cell: Arc<OutcomeCell>,
}

/// Pre-registered metric handles (the serving hot path never touches
/// the registry's shard locks) and the only place serve events are
/// counted. Named `Instruments` because
/// `bwfft_bench::record::ServeMetrics` already names the bench-record
/// column set.
struct Instruments {
    queue_wait_ns: Histogram,
    plan_resolve_ns: Histogram,
    execute_ns: Histogram,
    /// Execute time of requests the supervisor had to recover — the
    /// "recovery" phase of the per-request timing quartet.
    recovery_ns: Histogram,
    request_ns: Histogram,
    submitted: Counter,
    completed: Counter,
    deadline_exceeded: Counter,
    failed: Counter,
    rejected: Counter,
    recovered_runs: Counter,
    /// `serve.completed.<tier>`, indexed by [`tier_index`].
    tier_completed: [Counter; 3],
    /// `serve.rejected.<token>`, indexed by [`reject_index`];
    /// `rejected` counts the same events in total.
    rejected_by: [Counter; 6],
    queue_depth: Gauge,
    in_flight_bytes: Gauge,
    /// Breaker position as its ladder index: 0 normal … 3 open.
    breaker_level: Gauge,
    pool_hit_rate: Gauge,
}

impl Instruments {
    fn new(reg: &Registry) -> Instruments {
        Instruments {
            queue_wait_ns: reg.histogram("serve.queue_wait_ns"),
            plan_resolve_ns: reg.histogram("serve.plan_resolve_ns"),
            execute_ns: reg.histogram("serve.execute_ns"),
            recovery_ns: reg.histogram("serve.recovery_ns"),
            request_ns: reg.histogram("serve.request_ns"),
            submitted: reg.counter("serve.submitted"),
            completed: reg.counter("serve.completed"),
            deadline_exceeded: reg.counter("serve.deadline_exceeded"),
            failed: reg.counter("serve.failed"),
            rejected: reg.counter("serve.rejected"),
            recovered_runs: reg.counter("serve.recovered_runs"),
            tier_completed: [
                RecoveryTier::Pipelined,
                RecoveryTier::Fused,
                RecoveryTier::Reference,
            ]
            .map(|tier| reg.counter(&format!("serve.completed.{tier}"))),
            rejected_by: RejectCounts::default()
                .by_reason()
                .map(|(token, _)| reg.counter(&format!("serve.rejected.{token}"))),
            queue_depth: reg.gauge("serve.queue_depth"),
            in_flight_bytes: reg.gauge("serve.in_flight_bytes"),
            breaker_level: reg.gauge("serve.breaker_level"),
            pool_hit_rate: reg.gauge("serve.pool_hit_rate"),
        }
    }
}

fn breaker_gauge_value(level: BreakerLevel) -> f64 {
    match level {
        BreakerLevel::Normal => 0.0,
        BreakerLevel::Fused => 1.0,
        BreakerLevel::Reference => 2.0,
        BreakerLevel::Open => 3.0,
    }
}

struct Shared {
    queue: Mutex<QueueState>,
    available: Condvar,
    breaker: Breaker,
    pool: BufferPool<Complex64>,
    /// Sharded plan cache (DESIGN.md §10): default-knob requests are
    /// tuned once per shape, explicit-knob requests are pinned
    /// variants; either way repeated shapes skip plan construction.
    plan_cache: PlanCache,
    supervisor: Supervisor,
    integrity: IntegrityConfig,
    verify_energy: bool,
    trace: Option<Arc<TraceCollector>>,
    metrics: Arc<Registry>,
    inst: Instruments,
    flight: Option<Arc<FlightRecorder>>,
    next_request_id: AtomicU64,
    byte_budget: Option<usize>,
    retry_ceiling: Option<usize>,
    queue_capacity: usize,
    default_deadline: Option<Duration>,
}

fn tier_index(tier: RecoveryTier) -> usize {
    match tier {
        RecoveryTier::Pipelined => 0,
        RecoveryTier::Fused => 1,
        RecoveryTier::Reference => 2,
    }
}

/// Position of `reason` in [`RejectCounts::by_reason`].
fn reject_index(reason: &RejectReason) -> usize {
    match reason {
        RejectReason::QueueFull { .. } => 0,
        RejectReason::ByteBudget(_) => 1,
        RejectReason::PoolExhausted(_) => 2,
        RejectReason::BreakerOpen => 3,
        RejectReason::ShuttingDown => 4,
        RejectReason::RetryBudget { .. } => 5,
    }
}

/// The concurrent FFT service.
pub struct FftServer {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl FftServer {
    /// Starts the worker threads and returns the running server.
    pub fn start(cfg: ServeConfig) -> FftServer {
        let pool_cap = cfg.pool_cap_bytes.or(cfg.byte_budget);
        let metrics = cfg.metrics.unwrap_or_default();
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState {
                queue: VecDeque::new(),
                shutting_down: false,
                in_flight_bytes: 0,
            }),
            available: Condvar::new(),
            breaker: Breaker::new(cfg.breaker),
            pool: BufferPool::new(pool_cap),
            plan_cache: PlanCache::with_registry(
                Tuner::new(TunerOptions {
                    // Model-only: admission must never spend time on
                    // measurement reps; the analytic model picks knobs.
                    model_only: true,
                    ..TunerOptions::for_host(&HostProfile::detect())
                }),
                HostFingerprint::detect(),
                &metrics,
            ),
            supervisor: Supervisor::new(cfg.retry),
            integrity: cfg.integrity,
            verify_energy: cfg.verify_energy,
            trace: cfg.trace,
            inst: Instruments::new(&metrics),
            metrics,
            flight: cfg.flight,
            next_request_id: AtomicU64::new(0),
            byte_budget: cfg.byte_budget,
            retry_ceiling: cfg.retry_ceiling,
            queue_capacity: cfg.queue_capacity,
            default_deadline: cfg.default_deadline,
        });
        let workers = (0..cfg.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("bwfft-serve-{i}"))
                    .spawn(move || worker_loop(&shared))
            })
            .filter_map(Result::ok)
            .collect();
        FftServer { shared, workers }
    }

    /// Admits or sheds one request. On admission the returned ticket is
    /// guaranteed to resolve to exactly one outcome, even across
    /// shutdown. On rejection the request's payload comes back inside
    /// the error-free path — the service holds nothing for it.
    pub fn submit(&self, req: FftRequest) -> Result<Ticket, ServeError> {
        // Usage validation first: a malformed descriptor is the
        // caller's bug, not load, and must not depend on service state.
        let total = req.dims.total();
        if req.input.len() != total {
            return Err(ServeError::InputLength {
                expected: total,
                got: req.input.len(),
            });
        }
        let shared = &self.shared;
        let plan_t0 = Instant::now();
        let plan = self.plan_for(&req)?;
        shared
            .inst
            .plan_resolve_ns
            .record_duration(plan_t0.elapsed());

        // Retry-budget ceiling: a per-request policy override must not
        // buy more recovery work than the server is willing to sell.
        // Checked before any state is held — the verdict depends only
        // on the request and the configuration.
        if let (Some(ceiling), Some(policy)) = (shared.retry_ceiling, req.retry.as_ref()) {
            if policy.max_attempts > ceiling {
                return Err(self.reject(RejectReason::RetryBudget {
                    requested: policy.max_attempts,
                    ceiling,
                }));
            }
        }

        let bytes = req.working_bytes();
        let mut q = lock_tolerant(&shared.queue);
        if q.shutting_down {
            return Err(self.reject(RejectReason::ShuttingDown));
        }
        let depth = q.queue.len();
        if depth >= shared.queue_capacity {
            return Err(self.reject(RejectReason::QueueFull {
                depth,
                capacity: shared.queue_capacity,
            }));
        }
        if let Err(e) =
            check_alloc_budget("serve admission", q.in_flight_bytes + bytes, shared.byte_budget)
        {
            return Err(self.reject(RejectReason::ByteBudget(e)));
        }
        let (tier, probe) = match shared.breaker.admit() {
            Admission::Reject => return Err(self.reject(RejectReason::BreakerOpen)),
            Admission::Admit { tier, probe } => (tier, probe),
        };
        let mut data = match shared.pool.acquire(total) {
            Ok(b) => b,
            Err(e) => return Err(self.reject(RejectReason::PoolExhausted(e))),
        };
        let work = match shared.pool.acquire(total) {
            Ok(b) => b,
            Err(e) => return Err(self.reject(RejectReason::PoolExhausted(e))),
        };

        let submitted_at = Instant::now();
        let token = match req.deadline.or(shared.default_deadline) {
            Some(d) => CancelToken::with_deadline(submitted_at + d),
            None => CancelToken::new(),
        };
        data.as_mut_slice().copy_from_slice(&req.input);
        let id = shared.next_request_id.fetch_add(1, Ordering::Relaxed) + 1;
        let cell = OutcomeCell::new();
        let ticket = Ticket {
            id,
            cell: Arc::clone(&cell),
        };
        if probe {
            if let Some(trace) = shared.trace.as_ref() {
                trace.mark(MarkKind::Serve, "probe admitted", None);
            }
        }
        q.queue.push_back(QueuedRequest {
            id,
            plan,
            data,
            work,
            result: req.input,
            token,
            tier,
            fault: req.fault,
            retry: req.retry,
            integrity: req.integrity,
            verify_energy: req.verify_energy,
            submitted_at,
            bytes,
            cell,
        });
        q.in_flight_bytes += bytes;
        shared.inst.submitted.inc();
        shared.inst.queue_depth.set(q.queue.len() as f64);
        shared.inst.in_flight_bytes.set(q.in_flight_bytes as f64);
        drop(q);
        shared.available.notify_one();
        Ok(ticket)
    }

    /// Stops admitting, finishes all in-flight and queued work, joins
    /// the workers, and reports. Idempotent: a second call returns the
    /// same final report.
    pub fn shutdown(&mut self) -> ServeReport {
        self.begin_drain();
        for h in self.workers.drain(..) {
            // A worker that panicked already delivered no further
            // outcomes; the residual drain below still terminates every
            // queued request, keeping the exactly-one-outcome contract.
            let _ = h.join();
        }
        self.drain_residual();
        if let Some(trace) = self.shared.trace.as_ref() {
            trace.mark(MarkKind::Serve, "drain complete", None);
        }
        self.stats()
    }

    /// The service's counters so far, read from its registry. Drain
    /// accounting (`holds`) is only expected to balance after
    /// [`shutdown`](Self::shutdown). Also re-syncs the one state the
    /// registry does not count itself — the buffer pool's totals — and
    /// refreshes the queue, byte, breaker and pool-hit-rate gauges, so
    /// a `Registry::snapshot()` taken next agrees with this report.
    pub fn stats(&self) -> ServeReport {
        let shared = &self.shared;
        let inst = &shared.inst;
        let pool = shared.pool.stats();
        let breaker_level = shared.breaker.level();
        let reg = &shared.metrics;
        reg.set_counter("serve.pool.hits", pool.hits);
        reg.set_counter("serve.pool.misses", pool.misses);
        reg.set_counter("serve.pool.exhausted", pool.exhausted);
        reg.set_gauge("serve.pool.idle_bytes", pool.idle_bytes as f64);
        reg.set_gauge(
            "serve.pool.outstanding_bytes",
            pool.outstanding_bytes as f64,
        );
        let acquires = pool.hits + pool.misses;
        inst.pool_hit_rate.set(if acquires == 0 {
            0.0
        } else {
            pool.hits as f64 / acquires as f64
        });
        inst.breaker_level.set(breaker_gauge_value(breaker_level));
        {
            let q = lock_tolerant(&shared.queue);
            inst.queue_depth.set(q.queue.len() as f64);
            inst.in_flight_bytes.set(q.in_flight_bytes as f64);
        }
        let [queue_full, byte_budget, pool_exhausted, breaker_open, shutting_down, retry_budget] =
            inst.rejected_by.each_ref().map(Counter::get);
        ServeReport {
            submitted: inst.submitted.get(),
            completed: inst.completed.get(),
            deadline_exceeded: inst.deadline_exceeded.get(),
            failed: inst.failed.get(),
            recovered_runs: inst.recovered_runs.get(),
            rejected: RejectCounts {
                queue_full,
                byte_budget,
                pool_exhausted,
                breaker_open,
                shutting_down,
                retry_budget,
            },
            tier_completed: inst.tier_completed.each_ref().map(Counter::get),
            breaker_level,
            breaker_transitions: shared.breaker.transitions(),
            pool,
            plan_cache: shared.plan_cache.stats(),
        }
    }

    /// Queued (not yet executing) requests.
    pub fn queue_depth(&self) -> usize {
        lock_tolerant(&self.shared.queue).queue.len()
    }

    /// Working-set bytes of queued + executing requests.
    pub fn in_flight_bytes(&self) -> usize {
        lock_tolerant(&self.shared.queue).in_flight_bytes
    }

    /// The degradation governor's current position.
    pub fn breaker_level(&self) -> BreakerLevel {
        self.shared.breaker.level()
    }

    fn plan_for(&self, req: &FftRequest) -> Result<Arc<FftPlan>, ServeError> {
        // Default knobs (buffer 0 = planner default, single-threaded)
        // mean the caller left the choice to us: route through the
        // tuner so the whole service shares one model-picked plan per
        // shape. Explicit knobs pin a variant entry instead — tuned and
        // pinned plans for the same shape never alias.
        // On tuner failure (a shape the model cannot cost) fall
        // through to a plain default-knob build so the request still
        // gets the typed builder verdict.
        if req.buffer_elems == 0 && req.threads == (1, 1) {
            if let Ok(plan) = self.shared.plan_cache.get_or_tune(req.dims, req.dir) {
                return Ok(plan);
            }
        }
        let variant = PlanVariant {
            buffer_elems: req.buffer_elems,
            p_d: req.threads.0,
            p_c: req.threads.1,
        };
        self.shared
            .plan_cache
            .get_or_build(req.dims, req.dir, variant, || {
                FftPlan::builder(req.dims)
                    .direction(req.dir)
                    .buffer_elems(req.buffer_elems)
                    .threads(req.threads.0, req.threads.1)
                    .build()
            })
            .map_err(|error| ServeError::InvalidRequest { error })
    }

    fn reject(&self, reason: RejectReason) -> ServeError {
        let inst = &self.shared.inst;
        inst.rejected_by[reject_index(&reason)].inc();
        inst.rejected.inc();
        if let Some(trace) = self.shared.trace.as_ref() {
            trace.mark(MarkKind::Serve, format!("reject: {reason}"), None);
        }
        ServeError::Rejected { reason }
    }

    fn begin_drain(&self) {
        let mut q = lock_tolerant(&self.shared.queue);
        if !q.shutting_down {
            q.shutting_down = true;
            if let Some(trace) = self.shared.trace.as_ref() {
                trace.mark(MarkKind::Serve, "drain: admission closed", None);
            }
        }
        drop(q);
        self.shared.available.notify_all();
    }

    /// Executes anything still queued on the calling thread. With
    /// `workers > 0` the queue is normally empty by the time the
    /// workers have joined; with `workers == 0` this *is* the executor.
    fn drain_residual(&self) {
        loop {
            let req = lock_tolerant(&self.shared.queue).queue.pop_front();
            match req {
                Some(r) => execute_request(&self.shared, r),
                None => return,
            }
        }
    }
}

impl Drop for FftServer {
    fn drop(&mut self) {
        self.begin_drain();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        self.drain_residual();
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let req = {
            let mut q = lock_tolerant(&shared.queue);
            loop {
                if let Some(r) = q.queue.pop_front() {
                    break Some(r);
                }
                if q.shutting_down {
                    break None;
                }
                q = shared
                    .available
                    .wait(q)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        match req {
            Some(r) => execute_request(shared, r),
            None => return,
        }
    }
}

/// Runs one admitted request to its single outcome: executes at the
/// breaker-assigned tier, classifies the verdict, feeds the breaker,
/// releases the pooled working set, and only then delivers the outcome
/// (so a waiter that immediately resubmits sees the freed budget and a
/// settled breaker).
fn execute_request(shared: &Arc<Shared>, req: QueuedRequest) {
    let QueuedRequest {
        id,
        plan,
        mut data,
        mut work,
        mut result,
        token,
        tier,
        fault,
        retry,
        integrity,
        verify_energy,
        submitted_at,
        bytes,
        cell,
    } = req;
    let overrides = ExecOverrides {
        retry,
        integrity,
        verify_energy,
    };

    let inst = &shared.inst;
    inst.queue_wait_ns.record_duration(submitted_at.elapsed());
    // With the flight recorder armed each request gets its own span
    // sink, so the recorder can keep whole per-request span trees; the
    // shared profile collector still receives every mark.
    let flight_trace = shared
        .flight
        .as_ref()
        .map(|_| Arc::new(TraceCollector::new()));
    let flight_start_ns = shared.flight.as_ref().map(|f| f.now_ns());
    let exec_t0 = Instant::now();

    let trace = flight_trace.clone().or_else(|| shared.trace.clone());
    let verdict = run_at_tier(
        shared, &plan, &mut data, &mut work, &token, tier, &fault, &overrides, trace,
    );
    let latency = submitted_at.elapsed();

    // Classify flight-dump triggers before the verdict is consumed:
    // integrity trips and worker panics dump; recoverable noise the
    // supervisor absorbed does not.
    let error_trigger = match &verdict {
        Err(e) if e.integrity_kind().is_some() => Some("integrity"),
        Err(CoreError::Pipeline(PipelineError::WorkerPanicked { .. })) => Some("panic"),
        _ => None,
    };

    let ok = verdict.is_ok();
    let outcome = match verdict {
        Ok((tier, recovered)) => {
            inst.completed.inc();
            inst.tier_completed[tier_index(tier)].inc();
            if recovered {
                inst.recovered_runs.inc();
            }
            result.copy_from_slice(data.as_slice());
            RequestOutcome::Completed {
                output: result,
                tier,
                recovered,
                latency,
            }
        }
        Err(CoreError::Pipeline(PipelineError::Cancelled {
            reason: CancelReason::Deadline,
            ..
        })) => {
            inst.deadline_exceeded.inc();
            RequestOutcome::DeadlineExceeded { latency }
        }
        Err(error) => {
            inst.failed.inc();
            RequestOutcome::Failed { error, latency }
        }
    };
    let transition = breaker_feedback(shared, ok);

    let exec = exec_t0.elapsed();
    inst.execute_ns.record_duration(exec);
    if matches!(
        outcome,
        RequestOutcome::Completed {
            recovered: true,
            ..
        }
    ) {
        inst.recovery_ns.record_duration(exec);
    }
    inst.request_ns.record_duration(latency);
    inst.breaker_level
        .set(breaker_gauge_value(shared.breaker.level()));

    if let (Some(flight), Some(start_ns)) = (shared.flight.as_ref(), flight_start_ns) {
        let events = flight_trace
            .as_ref()
            .map(|t| t.take_events())
            .unwrap_or_default();
        let tier_tok = match &outcome {
            RequestOutcome::Completed { tier, .. } => tier.to_string(),
            _ => String::new(),
        };
        flight.record_raw(
            id,
            plan.dims.label(),
            outcome.token().to_string(),
            tier_tok,
            start_ns,
            flight.now_ns(),
            events,
        );
        // Trigger matrix: a breaker *degradation* (never the recovery
        // climb back up), an integrity trip, a worker panic. The
        // current request is recorded first, so it is always part of
        // the dump it caused.
        if let Some(t) = transition.as_ref() {
            if t.to > t.from {
                flight.trigger(&format!(
                    "breaker:{}->{}",
                    t.from.token(),
                    t.to.token()
                ));
            }
        }
        if let Some(cause) = error_trigger {
            flight.trigger(cause);
        }
    }

    // Return the working set and release the admission budget before
    // the outcome becomes visible.
    drop(data);
    drop(work);
    {
        let mut q = lock_tolerant(&shared.queue);
        q.in_flight_bytes -= bytes;
        inst.queue_depth.set(q.queue.len() as f64);
        inst.in_flight_bytes.set(q.in_flight_bytes as f64);
    }
    cell.deliver(outcome);
}

/// Per-request execution policy overrides, already past admission.
struct ExecOverrides {
    retry: Option<RetryPolicy>,
    integrity: Option<IntegrityConfig>,
    verify_energy: Option<bool>,
}

#[allow(clippy::too_many_arguments)]
fn run_at_tier(
    shared: &Shared,
    plan: &FftPlan,
    data: &mut PooledBuf<Complex64>,
    work: &mut PooledBuf<Complex64>,
    token: &CancelToken,
    tier: RecoveryTier,
    fault: &Option<FaultPlan>,
    overrides: &ExecOverrides,
    trace: Option<Arc<TraceCollector>>,
) -> Result<(RecoveryTier, bool), CoreError> {
    if let Some(reason) = token.fired() {
        // Expired while queued: never touch a worker's executor.
        return Err(CoreError::Pipeline(PipelineError::Cancelled {
            iter: 0,
            reason,
        }));
    }
    match tier {
        RecoveryTier::Reference => {
            execute_reference(plan, data.as_mut_slice())?;
            Ok((RecoveryTier::Reference, false))
        }
        start => {
            let cfg = ExecConfig {
                fault: fault.clone(),
                trace,
                metrics: Some(Arc::clone(&shared.metrics)),
                integrity: overrides.integrity.unwrap_or(shared.integrity),
                verify_energy: overrides.verify_energy.unwrap_or(shared.verify_energy),
                cancel: Some(token.clone()),
                ..ExecConfig::default()
            };
            let mut plan = plan.clone();
            if start == RecoveryTier::Fused {
                plan.executor = ExecutorKind::Fused;
            }
            // A per-request retry policy gets its own supervisor —
            // construction is a couple of field copies, nothing shared.
            let rep = match overrides.retry.clone() {
                Some(policy) => Supervisor::new(policy).run(
                    &plan,
                    data.as_mut_slice(),
                    work.as_mut_slice(),
                    &cfg,
                )?,
                None => shared
                    .supervisor
                    .run(&plan, data.as_mut_slice(), work.as_mut_slice(), &cfg)?,
            };
            Ok((rep.tier, rep.recovered()))
        }
    }
}

fn breaker_feedback(shared: &Shared, ok: bool) -> Option<BreakerTransition> {
    let transition = if ok {
        shared.breaker.on_success()
    } else {
        shared.breaker.on_failure()
    };
    if let (Some(t), Some(trace)) = (transition.as_ref(), shared.trace.as_ref()) {
        trace.mark(MarkKind::Serve, t.to_string(), None);
    }
    transition
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwfft_core::Dims;
    use bwfft_num::compare::{fft_tolerance, rel_l2_error};
    use bwfft_num::signal::random_complex;

    const DIMS: Dims = Dims::Two { n: 16, m: 32 };
    const TOTAL: usize = 512;

    fn request(seed: u64) -> FftRequest {
        FftRequest::new(DIMS, random_complex(TOTAL, seed)).buffer_elems(128)
    }

    fn reference_of(seed: u64) -> Vec<Complex64> {
        let plan = FftPlan::builder(DIMS).buffer_elems(128).build().unwrap();
        let mut data = random_complex(TOTAL, seed);
        execute_reference(&plan, &mut data).unwrap();
        data
    }

    #[test]
    fn completed_requests_match_the_reference_and_accounting_balances() {
        let mut server = FftServer::start(ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        });
        // Two waves: the second reuses the first wave's shelved
        // buffers, so the steady state is allocation-free.
        for wave in 0..2 {
            let tickets: Vec<(u64, Ticket)> = (0..4)
                .map(|i| {
                    let seed = wave * 4 + i;
                    (seed, server.submit(request(seed)).unwrap())
                })
                .collect();
            for (seed, t) in tickets {
                match t.wait() {
                    RequestOutcome::Completed { output, .. } => {
                        let expect = reference_of(seed);
                        assert!(rel_l2_error(&output, &expect) <= fft_tolerance(TOTAL));
                    }
                    other => panic!("request {seed} did not complete: {other:?}"),
                }
            }
        }
        // No registry configured: the server counts into a private one.
        let report = server.shutdown();
        assert!(report.holds(), "{report:?}");
        assert_eq!(report.completed, 8);
        assert_eq!(report.tier_completed, [8, 0, 0]);
        assert_eq!(report.rejected.total(), 0);
        // Steady state reuses pooled buffers: 8 requests, far fewer
        // allocations than acquires.
        assert!(report.pool.hits > 0);
    }

    #[test]
    fn repeated_shapes_resolve_plans_through_the_cache() {
        let mut server = FftServer::start(ServeConfig {
            workers: 0,
            ..ServeConfig::default()
        });
        // Explicit knobs pin one variant entry: the first submission
        // builds it, the rest hit.
        let tickets: Vec<Ticket> = (0..3)
            .map(|s| server.submit(request(s)).unwrap())
            .collect();
        let stats = server.stats().plan_cache;
        assert_eq!((stats.hits, stats.misses), (2, 1), "{stats:?}");
        // Default knobs route through the tuner under a separate
        // (non-aliasing) tuned entry: one more miss, then a hit.
        let deft = server
            .submit(FftRequest::new(DIMS, random_complex(TOTAL, 99)))
            .unwrap();
        let deft2 = server
            .submit(FftRequest::new(DIMS, random_complex(TOTAL, 100)))
            .unwrap();
        let report = server.shutdown();
        for t in tickets {
            assert!(matches!(t.wait(), RequestOutcome::Completed { .. }));
        }
        assert!(matches!(deft.wait(), RequestOutcome::Completed { .. }));
        assert!(matches!(deft2.wait(), RequestOutcome::Completed { .. }));
        assert!(report.holds(), "{report:?}");
        assert_eq!(report.plan_cache.misses, 2, "{:?}", report.plan_cache);
        assert_eq!(report.plan_cache.hits, 3, "{:?}", report.plan_cache);
    }

    #[test]
    fn over_ceiling_retry_budgets_are_shed_typed() {
        let mut server = FftServer::start(ServeConfig {
            workers: 0,
            retry_ceiling: Some(3),
            ..ServeConfig::default()
        });
        // Over the ceiling: shed at the door, nothing queued.
        let greedy = RetryPolicy {
            max_attempts: 8,
            ..RetryPolicy::default()
        };
        let err = server.submit(request(1).retry(greedy)).unwrap_err();
        match err {
            ServeError::Rejected {
                reason: reason @ RejectReason::RetryBudget { requested: 8, ceiling: 3 },
            } => assert_eq!(reason.token(), "retry_budget"),
            other => panic!("wrong rejection: {other}"),
        }
        assert_eq!(server.queue_depth(), 0);
        // At the ceiling: admitted and completed with its own budget.
        let frugal = RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        };
        let t = server.submit(request(2).retry(frugal)).unwrap();
        let report = server.shutdown();
        assert!(matches!(t.wait(), RequestOutcome::Completed { .. }));
        assert!(report.holds(), "{report:?}");
        assert_eq!(report.rejected.retry_budget, 1);
        assert_eq!(report.completed, 1);
    }

    #[test]
    fn without_a_ceiling_any_retry_override_is_admitted() {
        let mut server = FftServer::start(ServeConfig {
            workers: 0,
            ..ServeConfig::default()
        });
        let greedy = RetryPolicy {
            max_attempts: 64,
            ..RetryPolicy::default()
        };
        let t = server.submit(request(1).retry(greedy)).unwrap();
        let report = server.shutdown();
        assert!(matches!(t.wait(), RequestOutcome::Completed { .. }));
        assert!(report.holds(), "{report:?}");
        assert_eq!(report.rejected.total(), 0);
    }

    #[test]
    fn per_request_integrity_override_recovers_injected_corruption() {
        bwfft_pipeline::fault::silence_injected_panic_reports();
        // Server default: guards OFF. The request arms the full set
        // itself — corruption must be detected on its run and recovered
        // (pipelined detects, fused has no handoffs to corrupt).
        let mut server = FftServer::start(ServeConfig {
            workers: 1,
            retry: RetryPolicy {
                backoff_base: Duration::from_micros(100),
                backoff_cap: Duration::from_millis(2),
                ..RetryPolicy::default()
            },
            ..ServeConfig::default()
        });
        let seed = 77;
        let req = request(seed)
            .threads(2, 2)
            .integrity(IntegrityConfig::full())
            .verify_energy(true)
            .fault(FaultPlan::corrupt_at(
                bwfft_pipeline::Role::Data,
                0,
                1,
                bwfft_pipeline::FaultPhase::Load,
            ));
        let t = server.submit(req).unwrap();
        let report = server.shutdown();
        match t.wait() {
            RequestOutcome::Completed {
                output, recovered, ..
            } => {
                assert!(recovered, "guards must have caught the corruption");
                let expect = reference_of(seed);
                assert!(rel_l2_error(&output, &expect) <= fft_tolerance(TOTAL));
            }
            other => panic!("expected recovered completion, got {other:?}"),
        }
        assert!(report.holds(), "{report:?}");
        assert_eq!(report.recovered_runs, 1);
    }

    #[test]
    fn queue_depth_is_bounded_and_overflow_is_shed() {
        let mut server = FftServer::start(ServeConfig {
            workers: 0,
            queue_capacity: 2,
            ..ServeConfig::default()
        });
        let t1 = server.submit(request(1)).unwrap();
        let t2 = server.submit(request(2)).unwrap();
        let err = server.submit(request(3)).unwrap_err();
        match err {
            ServeError::Rejected {
                reason: RejectReason::QueueFull { depth, capacity },
            } => {
                assert_eq!((depth, capacity), (2, 2));
            }
            other => panic!("wrong rejection: {other}"),
        }
        assert_eq!(server.queue_depth(), 2);
        let report = server.shutdown();
        assert!(matches!(t1.wait(), RequestOutcome::Completed { .. }));
        assert!(matches!(t2.wait(), RequestOutcome::Completed { .. }));
        assert!(report.holds(), "{report:?}");
        assert_eq!(report.rejected.queue_full, 1);
        assert_eq!(report.completed, 2);
    }

    #[test]
    fn byte_budget_sheds_before_any_buffer_is_taken() {
        let one_request = 2 * TOTAL * core::mem::size_of::<Complex64>();
        let mut server = FftServer::start(ServeConfig {
            workers: 0,
            byte_budget: Some(one_request),
            ..ServeConfig::default()
        });
        let t = server.submit(request(1)).unwrap();
        assert_eq!(server.in_flight_bytes(), one_request);
        let err = server.submit(request(2)).unwrap_err();
        match err {
            ServeError::Rejected {
                reason: RejectReason::ByteBudget(e),
            } => {
                assert_eq!(e.what, "serve admission");
                assert_eq!(e.bytes, 2 * one_request);
            }
            other => panic!("wrong rejection: {other}"),
        }
        let report = server.shutdown();
        assert!(matches!(t.wait(), RequestOutcome::Completed { .. }));
        assert!(report.holds());
        assert_eq!(report.rejected.byte_budget, 1);
        assert_eq!(server.in_flight_bytes(), 0);
    }

    #[test]
    fn pool_exhaustion_is_a_typed_admission_rejection() {
        let one_request = 2 * TOTAL * core::mem::size_of::<Complex64>();
        let mut server = FftServer::start(ServeConfig {
            workers: 0,
            pool_cap_bytes: Some(one_request),
            ..ServeConfig::default()
        });
        let _t = server.submit(request(1)).unwrap();
        let err = server.submit(request(2)).unwrap_err();
        assert!(matches!(
            err,
            ServeError::Rejected {
                reason: RejectReason::PoolExhausted(_)
            }
        ));
        let report = server.shutdown();
        assert!(report.holds());
        assert_eq!(report.rejected.pool_exhausted, 1);
        assert_eq!(report.pool.exhausted, 1);
    }

    #[test]
    fn expired_deadline_terminates_without_executing() {
        let mut server = FftServer::start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        let t = server
            .submit(request(1).deadline(Duration::ZERO))
            .unwrap();
        match t.wait() {
            RequestOutcome::DeadlineExceeded { .. } => {}
            other => panic!("expected deadline miss, got {other:?}"),
        }
        let report = server.shutdown();
        assert!(report.holds());
        assert_eq!(report.deadline_exceeded, 1);
        assert_eq!(report.completed, 0);
    }

    #[test]
    fn malformed_descriptors_are_usage_errors_not_load_shedding() {
        let mut server = FftServer::start(ServeConfig {
            workers: 0,
            ..ServeConfig::default()
        });
        let short = FftRequest::new(DIMS, vec![Complex64::default(); TOTAL - 1]);
        assert!(matches!(
            server.submit(short),
            Err(ServeError::InputLength { expected: 512, got: 511 })
        ));
        // Dimension 12 is not a power of two: plan construction fails.
        let bad = FftRequest::new(Dims::d2(12, 32), vec![Complex64::default(); 384]);
        match server.submit(bad) {
            Err(e @ ServeError::InvalidRequest { .. }) => assert!(e.is_usage()),
            other => panic!("expected invalid request, got {other:?}"),
        }
        let report = server.shutdown();
        // Usage errors are neither admissions nor rejections.
        assert_eq!(report.submitted, 0);
        assert_eq!(report.rejected.total(), 0);
    }

    #[test]
    fn breaker_trips_to_open_probes_and_recovers_deterministically() {
        let reg = Arc::new(Registry::new());
        let mut server = FftServer::start(ServeConfig {
            workers: 1,
            breaker: BreakerConfig {
                failure_threshold: 2,
                success_threshold: 2,
                probe_interval: 3,
            },
            metrics: Some(Arc::clone(&reg)),
            ..ServeConfig::default()
        });
        // Six deadline misses walk the breaker Normal -> Fused ->
        // Reference -> Open. Sequential submit-then-wait keeps every
        // state change ordered.
        for seed in 0..6 {
            let t = server
                .submit(request(seed).deadline(Duration::ZERO))
                .unwrap();
            assert!(matches!(t.wait(), RequestOutcome::DeadlineExceeded { .. }));
        }
        assert_eq!(server.breaker_level(), BreakerLevel::Open);
        // Open: two rejections, then the third submission is the probe.
        for seed in [10, 11] {
            assert!(matches!(
                server.submit(request(seed)),
                Err(ServeError::Rejected {
                    reason: RejectReason::BreakerOpen
                })
            ));
        }
        let probe = server.submit(request(12)).unwrap();
        match probe.wait() {
            RequestOutcome::Completed { tier, .. } => {
                assert_eq!(tier, RecoveryTier::Reference);
            }
            other => panic!("probe should complete, got {other:?}"),
        }
        assert_eq!(server.breaker_level(), BreakerLevel::Reference);
        // Two successes per step back up: Reference -> Fused -> Normal.
        for seed in 13..17 {
            let t = server.submit(request(seed)).unwrap();
            assert!(matches!(t.wait(), RequestOutcome::Completed { .. }));
        }
        assert_eq!(server.breaker_level(), BreakerLevel::Normal);
        let report = server.shutdown();
        assert!(report.holds(), "{report:?}");
        let trail: Vec<(BreakerLevel, &str)> = report
            .breaker_transitions
            .iter()
            .map(|t| (t.to, t.trigger))
            .collect();
        assert_eq!(
            trail,
            [
                (BreakerLevel::Fused, "consecutive failures"),
                (BreakerLevel::Reference, "consecutive failures"),
                (BreakerLevel::Open, "consecutive failures"),
                (BreakerLevel::Reference, "probe success"),
                (BreakerLevel::Fused, "consecutive successes"),
                (BreakerLevel::Normal, "consecutive successes"),
            ]
        );
        assert_eq!(report.rejected.breaker_open, 2);
        // The probe and the two requests after it finish on the
        // reference tier, the last two on fused.
        assert_eq!(report.tier_completed, [0, 2, 3]);
        assert_report_matches_registry(&report, &reg);
    }

    #[test]
    fn shutdown_rejects_new_work_and_drains_queued_requests() {
        let reg = Arc::new(Registry::new());
        let mut server = FftServer::start(ServeConfig {
            workers: 0,
            metrics: Some(Arc::clone(&reg)),
            ..ServeConfig::default()
        });
        let tickets: Vec<Ticket> =
            (0..3).map(|s| server.submit(request(s)).unwrap()).collect();
        let report = server.shutdown();
        assert!(report.holds(), "{report:?}");
        assert_eq!(report.completed, 3);
        for t in tickets {
            assert!(matches!(t.wait(), RequestOutcome::Completed { .. }));
        }
        // Admission is closed after shutdown; the report is idempotent.
        assert!(matches!(
            server.submit(request(9)),
            Err(ServeError::Rejected {
                reason: RejectReason::ShuttingDown
            })
        ));
        let again = server.shutdown();
        assert_eq!(again.completed, 3);
        assert_eq!(again.rejected.shutting_down, 1);
        assert_report_matches_registry(&again, &reg);
    }

    #[test]
    fn injected_faults_recover_through_the_supervisor_and_count() {
        use bwfft_pipeline::Role;
        let mut server = FftServer::start(ServeConfig {
            workers: 1,
            retry: RetryPolicy {
                backoff_base: Duration::from_micros(50),
                backoff_cap: Duration::from_millis(1),
                ..RetryPolicy::default()
            },
            ..ServeConfig::default()
        });
        bwfft_pipeline::fault::silence_injected_panic_reports();
        let req = request(1)
            .threads(1, 1)
            .fault(FaultPlan::panic_at(Role::Compute, 0, 0));
        let t = server.submit(req).unwrap();
        match t.wait() {
            RequestOutcome::Completed {
                output, recovered, ..
            } => {
                assert!(recovered, "persistent fault must need recovery");
                let expect = reference_of(1);
                assert!(rel_l2_error(&output, &expect) <= fft_tolerance(TOTAL));
            }
            other => panic!("expected recovered completion, got {other:?}"),
        }
        let report = server.shutdown();
        assert!(report.holds());
        assert_eq!(report.recovered_runs, 1);
    }

    #[test]
    fn metrics_registry_reflects_the_request_lifecycle() {
        let reg = Arc::new(Registry::new());
        let mut server = FftServer::start(ServeConfig {
            workers: 1,
            retry_ceiling: Some(1),
            metrics: Some(Arc::clone(&reg)),
            ..ServeConfig::default()
        });
        // Registered at start: the first scrape already lists them.
        let first = reg.snapshot().counters;
        assert_eq!(first.get("tuner.plan_cache.misses"), Some(&0));
        assert_eq!(first.get("serve.rejected.retry_budget"), Some(&0));
        for seed in 0..3 {
            let t = server.submit(request(seed)).unwrap();
            assert!(matches!(t.wait(), RequestOutcome::Completed { .. }));
        }
        let greedy = RetryPolicy {
            max_attempts: 2,
            ..RetryPolicy::default()
        };
        assert!(server.submit(request(3).retry(greedy)).is_err());
        // No stats() call: outcome, rejection and plan-cache counters
        // are live (the rejected request resolved its plan too).
        let c = reg.snapshot().counters;
        assert_eq!((c["serve.submitted"], c["serve.completed"]), (3, 3));
        assert_eq!((c["serve.rejected"], c["serve.rejected.retry_budget"]), (1, 1));
        assert_eq!(c["tuner.plan_cache.misses"], 1, "{c:?}");
        assert_eq!(c["tuner.plan_cache.hits"], 3, "{c:?}");
        // stats() re-syncs the buffer-pool totals and the gauges.
        let live = server.stats();
        assert!(live.holds(), "{live:?}");
        let snap = reg.snapshot();
        for h in [
            "serve.request_ns",
            "serve.queue_wait_ns",
            "serve.plan_resolve_ns",
            "serve.execute_ns",
        ] {
            let hist = snap.histograms.get(h).unwrap_or_else(|| panic!("{h}"));
            let resolved = if h == "serve.plan_resolve_ns" { 4 } else { 3 };
            assert_eq!(hist.count, resolved, "{h}: {hist:?}");
            assert!(hist.quantile(0.99) >= Some(hist.min), "{h}");
        }
        // All three succeeded on the normal tier with pooled reuse.
        assert_eq!(snap.gauges.get("serve.breaker_level"), Some(&0.0));
        assert!(snap.gauges.get("serve.pool_hit_rate").copied().unwrap_or(0.0) > 0.0);
        assert_eq!(snap.gauges.get("serve.queue_depth"), Some(&0.0));
        let report = server.shutdown();
        assert!(report.holds(), "{report:?}");
        assert_report_matches_registry(&report, &reg);
    }

    /// Every `ServeReport` field against its registry counter.
    fn assert_report_matches_registry(report: &ServeReport, reg: &Registry) {
        let c = reg.snapshot().counters;
        let counter = |name: &str| *c.get(name).unwrap_or_else(|| panic!("{name} missing"));
        assert_eq!(report.submitted, counter("serve.submitted"));
        assert_eq!(report.completed, counter("serve.completed"));
        assert_eq!(report.deadline_exceeded, counter("serve.deadline_exceeded"));
        assert_eq!(report.failed, counter("serve.failed"));
        assert_eq!(report.recovered_runs, counter("serve.recovered_runs"));
        assert_eq!(report.rejected.total(), counter("serve.rejected"));
        for (token, n) in report.rejected.by_reason() {
            assert_eq!(n, counter(&format!("serve.rejected.{token}")), "{token}");
        }
        for (tier, n) in ["pipelined", "fused", "reference"]
            .iter()
            .zip(report.tier_completed)
        {
            assert_eq!(n, counter(&format!("serve.completed.{tier}")), "{tier}");
        }
        assert_eq!(report.plan_cache.hits, counter("tuner.plan_cache.hits"));
        assert_eq!(report.plan_cache.misses, counter("tuner.plan_cache.misses"));
        assert_eq!(
            report.plan_cache.evictions,
            counter("tuner.plan_cache.evictions")
        );
        assert_eq!(report.pool.hits, counter("serve.pool.hits"));
        assert_eq!(report.pool.misses, counter("serve.pool.misses"));
        assert_eq!(report.pool.exhausted, counter("serve.pool.exhausted"));
    }

    #[test]
    fn flight_recorder_dumps_every_breaker_degradation_with_matching_ids() {
        let reg = Arc::new(Registry::new());
        let flight = FlightRecorder::new(8);
        let mut server = FftServer::start(ServeConfig {
            workers: 1,
            breaker: BreakerConfig {
                failure_threshold: 2,
                success_threshold: 2,
                probe_interval: 3,
            },
            metrics: Some(Arc::clone(&reg)),
            flight: Some(Arc::clone(&flight)),
            ..ServeConfig::default()
        });
        // Six sequential deadline misses: Normal -> Fused -> Reference
        // -> Open, one flight dump per degradation.
        let mut ids = Vec::new();
        for seed in 0..6 {
            let t = server
                .submit(request(seed).deadline(Duration::ZERO))
                .unwrap();
            ids.push(t.id());
            assert!(matches!(t.wait(), RequestOutcome::DeadlineExceeded { .. }));
        }
        let dumps = flight.dumps();
        let triggers: Vec<&str> = dumps.iter().map(|d| d.trigger.as_str()).collect();
        assert_eq!(
            triggers,
            [
                "breaker:normal->fused",
                "breaker:fused->reference",
                "breaker:reference->open",
            ]
        );
        // The request that caused each trip is part of its own dump,
        // and every dumped id belongs to a ticket we hold.
        for (dump, expect_last) in dumps.iter().zip([ids[1], ids[3], ids[5]]) {
            let last = dump.requests.last().expect("dump has requests");
            assert_eq!(last.request_id, expect_last);
            assert_eq!(last.outcome, "deadline_exceeded");
            for r in &dump.requests {
                assert!(ids.contains(&r.request_id), "unknown id {}", r.request_id);
            }
            // Dumps survive a JSON round trip byte-identically.
            let json = dump.to_json();
            let back = crate::server::tests::parse_dump(&json);
            assert_eq!(back.to_json(), json);
        }
        let report = server.shutdown();
        assert!(report.holds(), "{report:?}");
        let snap = reg.snapshot();
        assert_eq!(snap.counters.get("serve.deadline_exceeded"), Some(&6));
        assert_eq!(snap.gauges.get("serve.breaker_level"), Some(&3.0));
    }

    fn parse_dump(json: &str) -> bwfft_metrics::FlightDump {
        bwfft_metrics::FlightDump::from_json(json).expect("flight dump parses")
    }
}
