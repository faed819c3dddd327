//! Open-loop latency driver for `bwfft-serve` (DESIGN.md §11).
//!
//! A closed-loop driver (submit, wait, submit) can never overload the
//! service it measures — the arrival rate adapts to the completion
//! rate, so queues stay empty and the tail looks flat. This driver is
//! **open-loop**: requests are submitted on a fixed inter-arrival
//! schedule (or as one burst with [`ServeBenchConfig::arrival`] zero)
//! regardless of how far behind the workers are. Overload then shows
//! up exactly where the serve contract says it must: as typed
//! admission rejections, deadline misses, and breaker degradation —
//! all of which are counted into the record, not averaged away.
//!
//! The output feeds the `bwfft-bench/1` schema's service columns
//! ([`ServeMetrics`]): requests/sec over the drained run, p50/p99
//! completed-request latency (nearest-rank percentiles over the raw
//! sample), and the full outcome accounting from the drained
//! [`ServeReport`].

use crate::record::{BenchReport, ServeMetrics, SuiteResult};
use crate::stats::{self, StatsConfig};
use crate::HarnessError;
use bwfft_core::Dims;
use bwfft_metrics::{FlightRecorder, Registry};
use bwfft_num::signal::random_complex;
use bwfft_serve::{FftRequest, FftServer, RequestOutcome, ServeConfig, ServeError, ServeReport};
use bwfft_tuner::HostFingerprint;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One open-loop run's shape and load profile.
#[derive(Clone, Debug)]
pub struct ServeBenchConfig {
    pub dims: Dims,
    pub buffer_elems: usize,
    /// `(p_d, p_c)` per request.
    pub threads: (usize, usize),
    /// Total submissions (admitted or not).
    pub requests: usize,
    /// Inter-arrival gap; `Duration::ZERO` submits one burst.
    pub arrival: Duration,
    pub workers: usize,
    pub queue_capacity: usize,
    pub byte_budget: Option<usize>,
    /// Per-request deadline, if any.
    pub deadline: Option<Duration>,
    pub seed: u64,
    /// Metrics registry handed to the server. `None` gives the server a
    /// private one: the metrics-off side of an overhead pair.
    pub metrics: Option<Arc<Registry>>,
    /// Flight recorder handed to the server.
    pub flight: Option<Arc<FlightRecorder>>,
}

impl Default for ServeBenchConfig {
    fn default() -> Self {
        ServeBenchConfig {
            dims: Dims::d2(16, 32),
            buffer_elems: 128,
            threads: (1, 1),
            requests: 32,
            arrival: Duration::ZERO,
            workers: 2,
            queue_capacity: 16,
            byte_budget: None,
            deadline: None,
            seed: 42,
            metrics: None,
            flight: None,
        }
    }
}

/// Everything one run produced: the schema columns, the drained
/// server report, and the raw completed-latency sample (sorted
/// ascending, nanoseconds) for statistical post-processing.
#[derive(Clone, Debug)]
pub struct ServeBenchResult {
    pub metrics: ServeMetrics,
    pub report: ServeReport,
    pub latencies_ns: Vec<f64>,
    pub elapsed: Duration,
}

/// Nearest-rank percentile of an ascending-sorted sample (`p` in
/// percent). Empty samples report 0.0 — an all-rejected run has no
/// latency distribution, and the outcome counts carry the story.
pub fn percentile(sorted_ns: &[f64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let p = p.clamp(0.0, 100.0);
    let rank = ((p / 100.0) * sorted_ns.len() as f64).ceil() as usize;
    sorted_ns[rank.saturating_sub(1).min(sorted_ns.len() - 1)]
}

/// Runs the open-loop schedule against a fresh server and drains it.
///
/// Rejections are an expected measurement outcome, not an error —
/// only *usage* errors (a malformed descriptor, which means the bench
/// config itself is wrong) abort the run.
pub fn run_open_loop(cfg: &ServeBenchConfig) -> Result<ServeBenchResult, ServeError> {
    let mut server = FftServer::start(ServeConfig {
        workers: cfg.workers,
        queue_capacity: cfg.queue_capacity,
        byte_budget: cfg.byte_budget,
        default_deadline: cfg.deadline,
        metrics: cfg.metrics.clone(),
        flight: cfg.flight.clone(),
        ..ServeConfig::default()
    });
    let total = cfg.dims.total();
    let started = Instant::now();
    let mut tickets = Vec::with_capacity(cfg.requests);
    for i in 0..cfg.requests {
        let req = FftRequest::new(cfg.dims, random_complex(total, cfg.seed + i as u64))
            .buffer_elems(cfg.buffer_elems)
            .threads(cfg.threads.0, cfg.threads.1);
        match server.submit(req) {
            Ok(t) => tickets.push(t),
            // Shed load is the phenomenon under measurement; the
            // server has already counted it by reason.
            Err(ServeError::Rejected { .. }) => {}
            Err(usage) => return Err(usage),
        }
        if !cfg.arrival.is_zero() && i + 1 < cfg.requests {
            std::thread::sleep(cfg.arrival);
        }
    }
    let report = server.shutdown();
    let mut latencies_ns: Vec<f64> = Vec::with_capacity(tickets.len());
    for t in tickets {
        if let RequestOutcome::Completed { latency, .. } = t.wait() {
            latencies_ns.push(latency.as_nanos() as f64);
        }
    }
    let elapsed = started.elapsed();
    latencies_ns.sort_by(f64::total_cmp);
    let secs = elapsed.as_secs_f64();
    let metrics = ServeMetrics {
        requests_per_sec: if secs > 0.0 {
            report.completed as f64 / secs
        } else {
            0.0
        },
        p50_ns: percentile(&latencies_ns, 50.0),
        p99_ns: percentile(&latencies_ns, 99.0),
        submitted: report.submitted,
        completed: report.completed,
        rejected: report.rejected.total(),
        deadline_exceeded: report.deadline_exceeded,
        failed: report.failed,
        // Completions below the pipelined tier: fused + reference.
        degraded: report.tier_completed[1] + report.tier_completed[2],
        // Downward transitions; BreakerLevel orders Normal < … < Open.
        breaker_trips: report
            .breaker_transitions
            .iter()
            .filter(|t| t.to > t.from)
            .count() as u64,
        plan_cache_hits: report.plan_cache.hits,
        plan_cache_misses: report.plan_cache.misses,
    };
    Ok(ServeBenchResult {
        metrics,
        report,
        latencies_ns,
        elapsed,
    })
}

/// Runs one open-loop case and folds it into a single-suite
/// `bwfft-bench/1` record (suite kind `"serve"`), so the ordinary
/// `compare` gate — median CI separation plus the p99 threshold —
/// applies to service latency exactly as it does to executor time.
pub fn run_serve_suite(
    cfg: &ServeBenchConfig,
    stats_cfg: &StatsConfig,
) -> Result<BenchReport, HarnessError> {
    let key = format!("serve:{}:w{}", cfg.dims.label(), cfg.workers);
    let run = run_open_loop(cfg).map_err(|error| HarnessError::Serve {
        key: key.clone(),
        error,
    })?;
    let summary =
        stats::summarize(&run.latencies_ns, stats_cfg).map_err(|error| HarnessError::Stats {
            key: key.clone(),
            error,
        })?;
    let gflops = if summary.median_ns > 0.0 {
        bwfft_core::metrics::pseudo_flops(cfg.dims.total()) / summary.median_ns
    } else {
        0.0
    };
    let suite = SuiteResult {
        key,
        label: cfg.dims.label(),
        executor: "serve".to_string(),
        p_d: cfg.threads.0,
        p_c: cfg.threads.1,
        buffer_elems: cfg.buffer_elems,
        warmup: 0,
        stats: summary,
        gflops,
        stages: Vec::new(),
        serve: Some(run.metrics),
        ooc: None,
        real: None,
    };
    Ok(BenchReport {
        schema: crate::record::SCHEMA_VERSION.to_string(),
        git_rev: crate::record::detect_git_rev(),
        suite_kind: "serve".to_string(),
        seed: cfg.seed,
        fingerprint: HostFingerprint::detect(),
        anchor_machine: "serve-local".to_string(),
        stream_gbs: 0.0,
        suites: vec![suite],
    })
}

/// Runs the serve suite twice on identical schedules — metrics off,
/// then metrics on — and returns `(off, on)`. The server counts into a
/// registry either way; "off" keeps it private, "on" shares a caller's
/// registry and arms the flight recorder. Gating `on` against `off`
/// with the ordinary compare threshold is the instrumentation-overhead
/// contract: exporting and recording must cost less than the gate's
/// percentage on the median service latency.
pub fn run_serve_suite_paired(
    cfg: &ServeBenchConfig,
    stats_cfg: &StatsConfig,
) -> Result<(BenchReport, BenchReport), HarnessError> {
    let off_cfg = ServeBenchConfig {
        metrics: None,
        flight: None,
        ..cfg.clone()
    };
    // A discarded warmup pass absorbs one-time costs (plan search,
    // allocator growth, page faults) that would otherwise be billed
    // entirely to whichever half runs first and swamp the ~0.1%
    // instrument cost this pair exists to measure.
    let _ = run_serve_suite(&off_cfg, stats_cfg)?;
    let off = run_serve_suite(&off_cfg, stats_cfg)?;
    let on_cfg = ServeBenchConfig {
        metrics: Some(Arc::new(Registry::new())),
        flight: Some(FlightRecorder::new(16)),
        ..cfg.clone()
    };
    let on = run_serve_suite(&on_cfg, stats_cfg)?;
    Ok((off, on))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&s, 50.0), 2.0);
        assert_eq!(percentile(&s, 99.0), 4.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 100.0), 4.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn burst_run_accounts_for_every_request() {
        let cfg = ServeBenchConfig {
            requests: 12,
            workers: 2,
            queue_capacity: 4,
            ..ServeBenchConfig::default()
        };
        let run = run_open_loop(&cfg).unwrap();
        assert!(run.report.holds(), "unbalanced: {:?}", run.report);
        assert_eq!(
            run.report.submitted + run.metrics.rejected,
            cfg.requests as u64
        );
        assert_eq!(run.latencies_ns.len() as u64, run.report.completed);
        assert!(run.latencies_ns.windows(2).all(|w| w[0] <= w[1]));
        // Every submission resolves its plan before admission, and all
        // share one shape: exactly one build, the rest are cache hits.
        assert_eq!(run.metrics.plan_cache_misses, 1);
        assert_eq!(run.metrics.plan_cache_hits, cfg.requests as u64 - 1);
        if run.report.completed > 0 {
            assert!(run.metrics.p50_ns > 0.0);
            assert!(run.metrics.p99_ns >= run.metrics.p50_ns);
            assert!(run.metrics.requests_per_sec > 0.0);
        }
    }

    #[test]
    fn paced_run_with_room_completes_everything() {
        // Generous capacity and a gentle schedule: nothing sheds.
        let cfg = ServeBenchConfig {
            requests: 6,
            arrival: Duration::from_micros(200),
            workers: 2,
            queue_capacity: 16,
            ..ServeBenchConfig::default()
        };
        let run = run_open_loop(&cfg).unwrap();
        assert_eq!(run.metrics.rejected, 0);
        assert_eq!(run.metrics.completed, 6);
        assert_eq!(run.metrics.failed, 0);
    }

    #[test]
    fn serve_suite_record_round_trips_with_metrics() {
        let cfg = ServeBenchConfig {
            requests: 8,
            ..ServeBenchConfig::default()
        };
        let rep = run_serve_suite(&cfg, &StatsConfig::default()).unwrap();
        assert_eq!(rep.suite_kind, "serve");
        assert_eq!(rep.suites.len(), 1);
        let m = rep.suites[0].serve.as_ref().unwrap();
        assert_eq!(
            m.submitted,
            m.completed + m.deadline_exceeded + m.failed
        );
        let back = crate::record::from_json(&crate::record::to_json(&rep)).unwrap();
        assert_eq!(back, rep);
    }
}
