//! The `serve2d_small` workload: 64×64 requests to `serve::FftServer`
//! with default knobs (the server's tuner picks the plan), one worker,
//! a 4096-deep queue, no budgets.
//!
//! Offered load comes from one generator thread. In an open-loop phase
//! request `i` is due at `start + i·gap` whatever happened before it, and
//! is timed from that due time, so a stall is charged to every request
//! it delays; how late the generator itself ran is recorded as lag. One
//! collector thread waits the tickets in order, checks each output
//! against its input's reference, and drops it, so memory stays flat
//! however long the run. Each completion time is the earlier of two
//! upper bounds: when the collector saw it, and when `submit` returned
//! plus the server's own submission-to-completion latency.
//!
//! Phase A offers a fixed 600 req/s. Phase B measures capacity C with a
//! fixed number of requests in flight, then bisects the offered rate over
//! `[0.3·C, C]`; a step passes when p99 from due time is within the 5 ms
//! limit, nothing fails or is refused, and generator lag p99 is within
//! 1 ms. The highest passing rate is `max_rate_rps`. It is reported as a
//! layer metric rather than gated: where a step lands against the
//! latency cliff put its ten-run spread at 33% on a shared two-CPU
//! host, against about half that for C, which `throughput_gflops`
//! reports instead.

use crate::exec;
use crate::measure::{self, median, ms, percentile, summarize, us, Accuracy, PeakHeap, Reference};
use crate::spans::SpanLog;
use crate::{BenchError, Opts, Outcome, Result};
use bwfft_core::metrics::pseudo_flops;
use bwfft_core::{Dims, HostProfile};
use bwfft_kernels::Direction;
use bwfft_metrics::{HistogramSnapshot, Registry};
use bwfft_num::signal::{random_complex, SplitMix64};
use bwfft_num::Complex64;
use bwfft_pipeline::exec::block_checksum;
use bwfft_serve::{FftRequest, FftServer, RequestOutcome, ServeConfig, ServeError, Ticket};
use bwfft_tuner::{HostFingerprint, PlanCache, Tuner, TunerOptions};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// p99 latency limit from due time.
const LIMIT: Duration = Duration::from_millis(5);
/// Generator-lag p99 limit for a bisection step to count.
const LAG_LIMIT: Duration = Duration::from_millis(1);
/// Requests kept in flight while measuring capacity.
const IN_FLIGHT: usize = 64;
/// Phase-A requests per peak-heap sample: a stall that queues requests
/// raises the peak of the windows it covers, not the median.
const HEAP_WINDOW: usize = 100;

struct Sizing {
    dims: Dims,
    /// Distinct inputs the requests cycle through.
    pool: usize,
    setup_reps: usize,
    warmup: Duration,
    rate_a: f64,
    secs_a: f64,
    capacity_secs: f64,
    steps: usize,
    step_secs: f64,
    traced_secs: f64,
    traced_ops: usize,
}

fn sizing(opts: &Opts) -> Sizing {
    if opts.quick {
        Sizing {
            dims: Dims::d2(16, 16),
            pool: 4,
            setup_reps: 2,
            warmup: Duration::from_millis(20),
            rate_a: 200.0,
            secs_a: 0.3,
            capacity_secs: 0.1,
            steps: 2,
            step_secs: 0.1,
            traced_secs: 0.2,
            traced_ops: 3,
        }
    } else {
        // The gated metrics come from phase A and the capacity phase, so
        // they get 80% of the budget; the bisection gets the rest.
        Sizing {
            dims: Dims::d2(64, 64),
            pool: 64,
            setup_reps: 41,
            warmup: Duration::from_millis(300),
            rate_a: 600.0,
            secs_a: 0.6 * opts.seconds,
            capacity_secs: 0.2 * opts.seconds,
            steps: 6,
            step_secs: 0.2 * opts.seconds / 6.0,
            traced_secs: 5.0,
            traced_ops: 200,
        }
    }
}

/// The request inputs and their references.
struct Inputs {
    dims: Dims,
    data: Vec<Vec<Complex64>>,
    refs: Vec<Reference>,
}

fn input_seeds(seed: u64, count: usize) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed);
    (0..count).map(|_| rng.next_u64()).collect()
}

fn inputs(opts: &Opts, s: &Sizing) -> Result<Inputs> {
    let plan = exec::plan_for(s.dims)?;
    let data: Vec<_> = input_seeds(opts.seed, s.pool)
        .into_iter()
        .map(|sd| random_complex(s.dims.total(), sd))
        .collect();
    let refs = data
        .iter()
        .map(|x| exec::reference_of(&plan, x))
        .collect::<Result<_>>()?;
    Ok(Inputs {
        dims: s.dims,
        data,
        refs,
    })
}

pub fn input_digest(seed: u64, quick: bool) -> u64 {
    let s = sizing(&Opts {
        seed,
        seconds: 1.0,
        trace: false,
        quick,
        flip_bit: false,
    });
    input_seeds(seed, s.pool).into_iter().fold(0u64, |acc, sd| {
        acc.wrapping_mul(31)
            .wrapping_add(block_checksum(&random_complex(s.dims.total(), sd)))
    })
}

fn server_config(metrics: Option<Arc<Registry>>) -> ServeConfig {
    ServeConfig {
        workers: 1,
        queue_capacity: 4096,
        metrics,
        ..ServeConfig::default()
    }
}

fn request(inputs: &Inputs, idx: usize) -> FftRequest {
    FftRequest::new(inputs.dims, inputs.data[idx].clone()).threads(1, 1)
}

/// How a phase offers load.
#[derive(Clone, Copy)]
enum Offer {
    /// Open loop: `count` requests, one every `1/rps` seconds.
    Rate { rps: f64, count: usize },
    /// Closed loop: keep `slots` requests in flight for `secs`.
    InFlight { slots: usize, secs: Duration },
}

/// A counting semaphore over in-flight requests.
struct Slots {
    free: Mutex<usize>,
    freed: Condvar,
}

impl Slots {
    fn acquire(&self) {
        let mut free = self.free.lock().unwrap_or_else(|e| e.into_inner());
        while *free == 0 {
            free = self.freed.wait(free).unwrap_or_else(|e| e.into_inner());
        }
        *free -= 1;
    }

    fn release(&self) {
        *self.free.lock().unwrap_or_else(|e| e.into_inner()) += 1;
        self.freed.notify_one();
    }
}

/// What one load phase saw.
#[derive(Default)]
struct Load {
    /// Latency from due time of every admitted request, ns.
    lat_ns: Vec<f64>,
    /// How late each submission started, ns.
    lag_ns: Vec<f64>,
    attempted: u64,
    rejected: u64,
    /// Failed outcomes plus wrong outputs.
    failed: u64,
    within_limit: u64,
    completed: u64,
    /// Completion time of each correct output, s after the phase start.
    done_s: Vec<f64>,
    /// Start of the phase to the last completion, s.
    elapsed_s: f64,
    acc: Accuracy,
}

impl Load {
    fn p99_ns(&mut self, of_lag: bool) -> f64 {
        let v = if of_lag {
            &mut self.lag_ns
        } else {
            &mut self.lat_ns
        };
        v.sort_by(f64::total_cmp);
        percentile(v, 99.0)
    }

    /// Completions per second: the median over ten equal time windows
    /// of the phase, so a neighbour's burst that stalls part of it moves
    /// only the windows it covers.
    fn rate(&self) -> f64 {
        const WINDOWS: usize = 10;
        let span = self.elapsed_s.max(1e-9);
        if self.done_s.len() < 10 * WINDOWS {
            return self.completed as f64 / span;
        }
        let width = span / WINDOWS as f64;
        let mut counts = [0.0f64; WINDOWS];
        for &t in &self.done_s {
            counts[((t / width) as usize).min(WINDOWS - 1)] += 1.0;
        }
        median(&counts) / width
    }
}

struct Pending {
    idx: usize,
    due: Instant,
    sent: Instant,
    ticket: Ticket,
    flip: bool,
}

/// Offers one phase of load, waits for every outcome and checks every
/// output. With `heap`, an open-loop phase samples peak heap once per
/// [`HEAP_WINDOW`] requests.
fn drive(
    server: &FftServer,
    inputs: &Inputs,
    offer: Offer,
    flip_last: bool,
    heap: Option<&mut PeakHeap>,
) -> Result<Load> {
    let (tx, rx) = mpsc::channel::<Pending>();
    let start = Instant::now() + Duration::from_millis(1);
    let (slots, expected) = match offer {
        Offer::InFlight { slots, .. } => (
            Some(Slots {
                free: Mutex::new(slots),
                freed: Condvar::new(),
            }),
            0,
        ),
        Offer::Rate { count, .. } => (None, count),
    };
    std::thread::scope(|scope| -> Result<Load> {
        let slots = slots.as_ref();
        let collector = scope.spawn(move || collect(rx, inputs, start, slots, expected));
        let generator = scope
            .spawn(move || generate(server, inputs, offer, flip_last, start, slots, heap, tx));
        let generated = generator
            .join()
            .map_err(|_| BenchError::new("the generator thread panicked"))?;
        let mut load = collector
            .join()
            .map_err(|_| BenchError::new("the collector thread panicked"))?;
        (load.lag_ns, load.attempted, load.rejected) = generated?;
        Ok(load)
    })
}

/// Sleeps until shortly before `due`, then spins to it: a plain sleep
/// on this host wakes 50-300 µs late, and that lateness would be charged
/// to the server.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(200);
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// Submits the phase's requests on schedule; returns the generator lag
/// samples, the attempt count and the rejection count. Dropping `tx` on
/// return ends the collector.
#[allow(clippy::too_many_arguments)]
fn generate(
    server: &FftServer,
    inputs: &Inputs,
    offer: Offer,
    flip_last: bool,
    start: Instant,
    slots: Option<&Slots>,
    mut heap: Option<&mut PeakHeap>,
    tx: mpsc::Sender<Pending>,
) -> Result<(Vec<f64>, u64, u64)> {
    // Sized up front, so the bookkeeping does not grow inside a heap
    // window.
    let mut lag_ns = match offer {
        Offer::Rate { count, .. } => Vec::with_capacity(count),
        Offer::InFlight { .. } => Vec::new(),
    };
    let (mut attempted, mut rejected) = (0u64, 0u64);
    for i in 0.. {
        let due = match offer {
            Offer::Rate { rps, count } if i < count => {
                start + Duration::from_secs_f64(i as f64 / rps)
            }
            Offer::InFlight { secs, .. } if Instant::now() < start + secs => start,
            _ => break,
        };
        if let Some(h) = heap.as_deref_mut() {
            if i > 0 && i % HEAP_WINDOW == 0 {
                h.sample();
            }
            if i % HEAP_WINDOW == 0 {
                h.arm();
            }
        }
        let idx = i % inputs.data.len();
        let req = request(inputs, idx);
        if let Some(s) = slots {
            s.acquire();
        }
        wait_until(due);
        let sub = Instant::now();
        let scheduled = matches!(offer, Offer::Rate { .. });
        if scheduled {
            lag_ns.push(sub.saturating_duration_since(due).as_nanos() as f64);
        }
        attempted += 1;
        match server.submit(req) {
            Ok(ticket) => {
                let last = matches!(offer, Offer::Rate { count, .. } if i + 1 == count);
                let pending = Pending {
                    idx,
                    // A closed loop has no schedule: time from submit.
                    due: if scheduled { due } else { sub },
                    sent: Instant::now(),
                    ticket,
                    flip: flip_last && last,
                };
                if tx.send(pending).is_err() {
                    break;
                }
            }
            Err(ServeError::Rejected { .. }) => {
                rejected += 1;
                if let Some(s) = slots {
                    s.release();
                }
            }
            Err(e) => return Err(e.into()),
        }
    }
    if let Some(h) = heap {
        h.sample();
    }
    Ok((lag_ns, attempted, rejected))
}

/// Waits, times and checks every admitted request; `expected` sizes the
/// sample vectors up front.
fn collect(
    rx: mpsc::Receiver<Pending>,
    inputs: &Inputs,
    start: Instant,
    slots: Option<&Slots>,
    expected: usize,
) -> Load {
    let mut load = Load {
        lat_ns: Vec::with_capacity(expected),
        done_s: Vec::with_capacity(expected),
        ..Load::default()
    };
    let mut last = start;
    for p in rx {
        let outcome = p.ticket.wait();
        let seen = Instant::now();
        if let Some(s) = slots {
            s.release();
        }
        let done = seen.min(p.sent + outcome.latency());
        last = last.max(done);
        let from_due = done.saturating_duration_since(p.due);
        load.lat_ns.push(from_due.as_nanos() as f64);
        match outcome {
            RequestOutcome::Completed { mut output, .. } => {
                if p.flip {
                    measure::flip_sign_bit(&mut output);
                }
                let a = inputs.refs[p.idx].accuracy(&output);
                load.acc = load.acc.worst(a);
                if a.within_cap() {
                    load.completed += 1;
                    load.done_s
                        .push(done.saturating_duration_since(start).as_secs_f64());
                    if from_due <= LIMIT {
                        load.within_limit += 1;
                    }
                } else {
                    load.failed += 1;
                }
            }
            RequestOutcome::DeadlineExceeded { .. } | RequestOutcome::Failed { .. } => {
                load.failed += 1;
            }
        }
    }
    load.elapsed_s = last.saturating_duration_since(start).as_secs_f64();
    load
}

/// Server start to first completion, `reps` times; returns each time,
/// ns, and the worst output error. The set-up request names its knobs
/// (the planner default that exec2d_small runs), so the server builds
/// its plan directly on the cache miss. A default-knob request would add
/// the tuner's cold model search, which on a shared two-CPU host took
/// 1.5 ms in some runs and 2.7 ms in others, wider than the bound;
/// `tuner.plan_build_us` reports it instead.
fn set_up(inputs: &Inputs, reps: usize, out: &mut Outcome) -> Result<(Vec<f64>, Accuracy)> {
    let knobs = exec::plan_for(inputs.dims)?;
    let mut setup_ns = Vec::with_capacity(reps);
    let mut acc = Accuracy::default();
    for _ in 0..reps {
        let t0 = Instant::now();
        let mut server = FftServer::start(server_config(None));
        let req = request(inputs, 0).buffer_elems(knobs.buffer_elems);
        let outcome = server.submit(req)?.wait();
        setup_ns.push(t0.elapsed().as_nanos() as f64);
        let ok = match &outcome {
            RequestOutcome::Completed { output, .. } => {
                let a = inputs.refs[0].accuracy(output);
                acc = acc.worst(a);
                a.within_cap()
            }
            _ => false,
        };
        out.check(ok);
        server.shutdown();
    }
    Ok((setup_ns, acc))
}

/// A fresh plan cache configured exactly like the server's.
fn plan_cache() -> PlanCache {
    PlanCache::new(
        Tuner::new(TunerOptions {
            model_only: true,
            ..TunerOptions::for_host(&HostProfile::detect())
        }),
        HostFingerprint::detect(),
    )
}

pub fn run(opts: &Opts) -> Result<Outcome> {
    let s = sizing(opts);
    let inputs = inputs(opts, &s)?;
    let mut out = Outcome::default();
    let mut acc = Accuracy::default();

    let (setup_ns, setup_acc) = set_up(&inputs, s.setup_reps.max(1), &mut out)?;
    acc = acc.worst(setup_acc);

    // Timed pass on one long-lived server. What it holds once warm (its
    // queue, plan cache and pools) is the held part of `peak_heap_mib`.
    let before = measure::live_heap_bytes();
    let mut server = FftServer::start(server_config(None));
    let mut phase = |offer: Offer, flip: bool, heap: Option<&mut PeakHeap>, out: &mut Outcome| {
        let load = drive(&server, &inputs, offer, flip, heap)?;
        out.attempted += load.attempted;
        out.failed += load.failed + load.rejected;
        acc = acc.worst(load.acc);
        Ok::<Load, BenchError>(load)
    };
    let warm = Offer::InFlight {
        slots: IN_FLIGHT,
        secs: s.warmup,
    };
    phase(warm, false, None, &mut out)?;
    let count_a = (s.rate_a * s.secs_a).ceil() as usize;
    // Memory is read over phase A alone: near capacity a step's backlog
    // grows with how close to C the search happens to probe.
    let mut heap = PeakHeap::new(measure::live_heap_bytes().saturating_sub(before));
    let mut a = phase(
        Offer::Rate {
            rps: s.rate_a,
            count: count_a,
        },
        opts.flip_bit,
        Some(&mut heap),
        &mut out,
    )?;
    let saturated = Offer::InFlight {
        slots: IN_FLIGHT,
        secs: Duration::from_secs_f64(s.capacity_secs),
    };
    let capacity = phase(saturated, false, None, &mut out)?.rate();
    let (mut lo, mut hi) = (0.3 * capacity, capacity);
    let mut best = None;
    for step in 0..s.steps {
        let rps = 0.5 * (lo + hi);
        let count = (rps * s.step_secs).ceil() as usize;
        let mut r = phase(Offer::Rate { rps, count }, false, None, &mut out)?;
        let p99 = r.p99_ns(false);
        let lag = r.p99_ns(true);
        let pass = p99 <= LIMIT.as_nanos() as f64
            && r.failed == 0
            && r.rejected == 0
            && lag <= LAG_LIMIT.as_nanos() as f64;
        out.note(format!(
            "max-rate step {step}: {rps:.0} req/s, p99 {:.3} ms, lag p99 {:.3} ms -> {}",
            ms(p99),
            ms(lag),
            if pass { "pass" } else { "fail" }
        ));
        if pass {
            best = Some(rps);
            lo = rps;
        } else {
            hi = rps;
        }
    }
    let report = server.shutdown();
    out.check(report.holds());
    let max_rate = best.unwrap_or_else(|| {
        out.note("no max-rate step met the limit; reporting the search's lower bound");
        0.3 * capacity
    });

    let n = s.dims.total();
    let lag_p99 = a.p99_ns(true);
    let sa = summarize(&a.lat_ns)?;
    out.e2e("latency_p50_ms", ms(sa.p50), "ms");
    out.e2e("latency_tail_ms", ms(sa.tail), "ms");
    out.e2e(
        "throughput_gflops",
        capacity * pseudo_flops(n) / 1e9,
        "Gflop/s",
    );
    out.e2e(
        "goodput_rps",
        a.within_limit as f64 / a.elapsed_s.max(1e-9),
        "1/s",
    );
    out.e2e("setup_s", median(&setup_ns) / 1e9, "s");
    out.e2e("peak_heap_mib", heap.median_mib()?, "MiB");
    out.note(sa.describe(&format!("phase A at {} req/s", s.rate_a)));
    out.note(format!(
        "phase B: capacity {capacity:.0} req/s with {IN_FLIGHT} in flight (throughput_gflops \
         is capacity x 5N log2 N); max_rate_rps {max_rate:.0}"
    ));
    out.note(format!(
        "set-up: median of {} server starts; outputs: max_rel_err {:.3e} ({:.1} ULP, cap {})",
        setup_ns.len(),
        acc.max_rel_err,
        acc.ulps,
        measure::ULP_CAP
    ));

    if opts.trace {
        let stream_gbs = measure::host_layers(&mut out, opts.quick);
        out.layer("serve.capacity_rps", capacity, "1/s");
        out.layer("serve.max_rate_rps", max_rate, "1/s");
        out.layer("serve.gen_lag_ms_p99", ms(lag_p99), "ms");
        out.layer("serve.rejected", report.rejected.total() as f64, "count");
        out.layer("serve.failed", report.failed as f64, "count");
        out.layer(
            "serve.deadline_exceeded",
            report.deadline_exceeded as f64,
            "count",
        );
        acc = acc.worst(trace_pass(&s, &inputs, sa.p50, stream_gbs, &mut out)?);
        measure::check_layers(&mut out, acc.max_rel_err);
    }
    Ok(out)
}

/// Phase A again with a metrics registry attached (its phase histograms
/// give the serve layers), the tuner timed on a fresh cache, and the
/// executor ledger of the plan the server resolves.
fn trace_pass(
    s: &Sizing,
    inputs: &Inputs,
    untraced_p50_ns: f64,
    stream_gbs: f64,
    out: &mut Outcome,
) -> Result<Accuracy> {
    let registry = Arc::new(Registry::new());
    let mut server = FftServer::start(server_config(Some(Arc::clone(&registry))));
    let count = |load: &Load, out: &mut Outcome| {
        out.attempted += load.attempted;
        out.failed += load.failed + load.rejected;
    };
    let warm = drive(
        &server,
        inputs,
        Offer::InFlight {
            slots: IN_FLIGHT,
            secs: s.warmup,
        },
        false,
        None,
    )?;
    count(&warm, out);
    let before = registry.snapshot();
    let offer = Offer::Rate {
        rps: s.rate_a,
        count: (s.rate_a * s.traced_secs).ceil() as usize,
    };
    let t = drive(&server, inputs, offer, false, None)?;
    count(&t, out);
    let report = server.stats();
    let snap = registry.snapshot().diff(&before);
    server.shutdown();
    let hist = |name: &str| {
        snap.histograms
            .get(name)
            .cloned()
            .unwrap_or_else(HistogramSnapshot::empty)
    };
    let mean = |h: &HistogramSnapshot| h.mean().unwrap_or(0.0);
    let p99 = |h: &HistogramSnapshot| h.p99().unwrap_or(0) as f64;
    let (queue, resolve, execute, request) = (
        hist("serve.queue_wait_ns"),
        hist("serve.plan_resolve_ns"),
        hist("serve.execute_ns"),
        hist("serve.request_ns"),
    );
    out.layer("serve.queue_wait_ms_mean", ms(mean(&queue)), "ms");
    out.layer("serve.queue_wait_ms_p99", ms(p99(&queue)), "ms");
    out.layer("serve.plan_resolve_us_mean", us(mean(&resolve)), "us");
    out.layer("serve.execute_ms_mean", ms(mean(&execute)), "ms");
    out.layer("serve.execute_ms_p99", ms(p99(&execute)), "ms");
    out.layer(
        "serve.overhead_ms_mean",
        ms(mean(&request) - mean(&execute)),
        "ms",
    );
    let traced = summarize(&t.lat_ns)?;
    out.layer(
        "bench.trace_overhead_pct",
        measure::pct_change(traced.p50, untraced_p50_ns),
        "%",
    );
    let lookups = report.plan_cache.hits + report.plan_cache.misses;
    out.layer(
        "tuner.plan_cache_hit_ratio",
        report.plan_cache.hits as f64 / lookups.max(1) as f64,
        "ratio",
    );
    out.note(format!(
        "traced serve pass: {} requests; plan cache {} hits of {lookups} lookups; registry \
         p99s are log2-bucket upper bounds",
        t.attempted, report.plan_cache.hits
    ));

    // The tuner, timed cold: a fresh cache per build, like a server start.
    let mut build_ns = Vec::new();
    let mut plan = None;
    for _ in 0..5 {
        let cache = plan_cache();
        let t0 = Instant::now();
        let p = cache.get_or_tune(s.dims, Direction::Forward)?;
        build_ns.push(t0.elapsed().as_nanos() as f64);
        plan = Some(p);
    }
    out.layer("tuner.plan_build_us", us(median(&build_ns)), "us");
    let plan = plan.ok_or_else(|| BenchError::new("the tuner produced no plan"))?;
    out.note(format!("served {}", exec::describe_plan(&plan)));

    let log = SpanLog::new();
    exec::trace_layers(
        &plan,
        &inputs.data[0],
        &inputs.refs[0],
        s.traced_ops,
        &log,
        out,
    )?;
    let spans = log.snapshot();
    exec::ledger(&plan, &spans, None, stream_gbs, out);
    out.spans = spans;
    Ok(t.acc)
}
