//! Plan-aware glue for the observability layer: builds the
//! [`RunMeta`] a [`bwfft_trace::aggregate()`] pass needs (per-stage I/O
//! volumes, the machine's achievable bandwidth) from an [`FftPlan`],
//! and renders a collector into a [`TraceReport`] in one call.
//!
//! Lives in `bwfft-core` rather than `bwfft-trace` because only the
//! planner knows how many bytes each stage moves; the trace crate is
//! deliberately ignorant of FFTs.

use crate::metrics::{self, COMPLEX64_BYTES};
use crate::plan::FftPlan;
use bwfft_trace::{aggregate, RunMeta, StageIo, TraceCollector, TraceReport};

/// Build aggregation metadata for a plan.
///
/// Every out-of-cache stage streams the whole array once in and once
/// out (`2·N·16` bytes), and contributes `5·N·log2(fft_size)` of the
/// `5·N·log2(N)` pseudo-flop convention (stage sizes multiply to `N`
/// along each axis factorization).
pub fn run_meta(plan: &FftPlan, executor: &str, stream_gbs: Option<f64>) -> RunMeta {
    let total = plan.dims.total();
    let stage_bytes = (2.0 * total as f64 * COMPLEX64_BYTES) as u64;
    let stage_io = plan
        .stages()
        .iter()
        .enumerate()
        .map(|(s, stage)| StageIo {
            stage: s,
            bytes_moved: stage_bytes,
            pseudo_flops: 5.0 * total as f64 * (stage.fft_size as f64).log2(),
        })
        .collect();
    RunMeta {
        label: plan.dims.label(),
        executor: executor.to_string(),
        stream_gbs,
        stage_io,
    }
}

/// Drain a collector and aggregate its events against the plan's
/// metadata. `stream_gbs` (the machine's STREAM bandwidth, GB/s)
/// enables the %-of-achievable roofline column; pass `None` when the
/// host's bandwidth is unknown.
pub fn profile_report(
    collector: &TraceCollector,
    plan: &FftPlan,
    executor: &str,
    stream_gbs: Option<f64>,
) -> TraceReport {
    let events = collector.take_events();
    aggregate(&events, &run_meta(plan, executor, stream_gbs))
}

/// The achievable-peak Gflop/s bound for this plan at the given STREAM
/// bandwidth — the roofline the profile compares against (§V).
pub fn achievable_peak_gflops(plan: &FftPlan, stream_gbs: f64) -> f64 {
    metrics::achievable_peak_gflops_for(
        plan.dims.total(),
        plan.dims.stages(),
        stream_gbs,
        COMPLEX64_BYTES,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Dims;

    fn plan_2d() -> FftPlan {
        FftPlan::builder(Dims::d2(16, 32))
            .buffer_elems(128)
            .threads(2, 2)
            .build()
            .unwrap()
    }

    #[test]
    fn run_meta_covers_every_stage() {
        let plan = plan_2d();
        let meta = run_meta(&plan, "pipelined", Some(40.0));
        assert_eq!(meta.stage_io.len(), plan.stages().len());
        assert_eq!(meta.executor, "pipelined");
        assert_eq!(meta.stream_gbs, Some(40.0));
        let total = plan.dims.total();
        for io in &meta.stage_io {
            assert_eq!(io.bytes_moved, (total * 32) as u64);
            assert!(io.pseudo_flops > 0.0);
        }
        // Stage pseudo-flops sum to the 5·N·log2(N) convention.
        let sum: f64 = meta.stage_io.iter().map(|io| io.pseudo_flops).sum();
        assert!((sum - metrics::pseudo_flops(total)).abs() < 1e-6);
    }

    #[test]
    fn achievable_peak_matches_metrics() {
        let plan = plan_2d();
        let direct = metrics::achievable_peak_gflops(plan.dims.total(), 2, 40.0);
        assert_eq!(achievable_peak_gflops(&plan, 40.0), direct);
    }

    #[test]
    fn profile_report_drains_collector() {
        let plan = plan_2d();
        let collector = TraceCollector::new();
        collector.mark(bwfft_trace::MarkKind::TunerTrial, "t", Some(1.0));
        let rep = profile_report(&collector, &plan, "pipelined", None);
        assert_eq!(rep.label, plan.dims.label());
        assert_eq!(rep.marks.len(), 1);
        assert!(collector.is_empty());
    }
}
