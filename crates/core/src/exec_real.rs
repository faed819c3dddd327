//! Real multithreaded execution of a plan on the host.
//!
//! Each stage runs the Table II pipeline with actual threads: data
//! threads stream blocks between the arrays and the shared buffer
//! (non-temporal stores through the stage's write matrix), compute
//! threads run batched Stockham kernels in place. Stages ping-pong
//! between the caller's `data` and `work` arrays; the final result is
//! copied back into `data` when the stage count is odd. One builder
//! (`stage_callbacks`) makes each stage's tasks; the fused executor
//! runs the same tasks with one thread per role on the fused schedule.

use crate::error::CoreError;
use crate::host::{DegradationReason, ExecutorKind};
use crate::plan::FftPlan;
use bwfft_kernels::batch::BatchFft;
use bwfft_kernels::transpose::{
    load_contiguous, store_through_write_matrix, write_matrix_packets,
};
use bwfft_num::{check_alloc_budget, try_vec_zeroed, Complex64};
use bwfft_pipeline::buffer::partition;
use bwfft_pipeline::exec::{
    ComputeFn, LoadFn, PipelineCallbacks, PipelineConfig, PipelineReport, StoreFn,
};
use bwfft_pipeline::{
    run_fused, run_pipeline, AdaptiveWatchdog, CancelToken, DoubleBuffer, FaultPlan,
    IntegrityConfig, IntegrityKind, PinStatus, PipelineError,
};
use bwfft_spl::gather_scatter::{StagePerm, WriteMatrix};
use bwfft_trace::{MarkKind, TraceCollector};
use core::marker::PhantomData;
use std::sync::Arc;

/// Knobs for a single execution: the fault-tolerance watchdog, the
/// (test-only in spirit, but public) fault-injection plan, and the
/// optional observability collector.
#[derive(Clone, Debug, Default)]
pub struct ExecConfig {
    /// Deterministic fault injection (worker panic, stall, denied
    /// pinning) forwarded to the pipeline executor.
    pub fault: Option<FaultPlan>,
    /// Span/mark sink for `--profile` runs. `None` (the default) keeps
    /// the executor's hot path clock-free.
    pub trace: Option<Arc<TraceCollector>>,
    /// Watchdog: if any pipeline barrier waits longer than its budget
    /// (derived from observed iteration times, or constant with
    /// [`AdaptiveWatchdog::fixed`]), the run aborts with
    /// `PipelineError::StageTimeout` instead of hanging.
    pub adaptive_watchdog: Option<AdaptiveWatchdog>,
    /// Pipeline integrity guards (buffer canaries, per-block
    /// checksums), forwarded to every stage's pipeline run. Off by
    /// default.
    pub integrity: IntegrityConfig,
    /// Opt-in whole-run Parseval check: after the transform, the output
    /// spectrum's energy must equal `N ×` the input's (both transform
    /// directions are unnormalized). A violation surfaces as
    /// [`CoreError::Integrity`] with [`IntegrityKind::Energy`].
    pub verify_energy: bool,
    /// Cooperative cancellation: forwarded to every stage's pipeline
    /// run (polled at step boundaries) and checked per block by the
    /// fused executor. A fired token surfaces as
    /// [`PipelineError::Cancelled`] wrapped in [`CoreError::Pipeline`].
    pub cancel: Option<CancelToken>,
    /// Metrics registry for recovery accounting (`core.recovery.*`).
    /// `None` (the default) keeps execution metric-free; the supervisor
    /// is the only consumer, so the per-block hot path never sees it.
    pub metrics: Option<Arc<bwfft_metrics::Registry>>,
}

/// What a successful execution reports back: which executor actually
/// ran, why (if degraded), and how thread pinning went.
#[derive(Clone, Debug, Default)]
pub struct ExecReport {
    /// The executor the run dispatched to.
    pub executor: ExecutorKind,
    /// Degradation reasons copied from the plan (empty when pipelined).
    pub degradations: Vec<DegradationReason>,
    /// Per-thread pin outcomes from the last stage (data threads first,
    /// then compute). Empty when unpinned or fused.
    pub pin_status: Vec<PinStatus>,
    /// How many of those pin requests were not honored.
    pub pin_failures: usize,
}

/// A raw shared view of the stage's destination array. Store callbacks
/// on different data threads write disjoint packet ranges; the schedule
/// and the injectivity of the write permutation make that sound. The
/// view holds the array's unique borrow for its lifetime.
pub(crate) struct SharedDst<'a> {
    ptr: *mut Complex64,
    len: usize,
    _dst: PhantomData<&'a mut [Complex64]>,
}

// SAFETY: `ptr`/`len` describe a slice uniquely borrowed for `'a`
// (`_dst`), so sending or sharing the view cannot outlive or alias a
// safe borrow; the element writes it permits are governed by
// `slice_mut`'s contract.
unsafe impl Send for SharedDst<'_> {}
unsafe impl Sync for SharedDst<'_> {}

impl<'a> SharedDst<'a> {
    fn new(dst: &'a mut [Complex64]) -> Self {
        SharedDst {
            ptr: dst.as_mut_ptr(),
            len: dst.len(),
            _dst: PhantomData,
        }
    }

    /// # Safety
    /// Callers must write only to element indices no other thread
    /// touches during the lifetime of the returned slice.
    #[allow(clippy::mut_from_ref)]
    unsafe fn slice_mut(&self) -> &mut [Complex64] {
        core::slice::from_raw_parts_mut(self.ptr, self.len)
    }
}

/// Runs `n_stages` stages that ping-pong between the caller's arrays —
/// stage `s` reads `data` when `s` is even and `work` when it is odd,
/// and writes the other — then leaves the result in `data`.
pub(crate) fn run_stages(
    data: &mut [Complex64],
    work: &mut [Complex64],
    n_stages: usize,
    mut stage: impl FnMut(usize, &[Complex64], &SharedDst<'_>) -> Result<(), PipelineError>,
) -> Result<(), PipelineError> {
    for s in 0..n_stages {
        let (src, dst): (&[Complex64], &mut [Complex64]) = if s % 2 == 0 {
            (&*data, &mut *work)
        } else {
            (&*work, &mut *data)
        };
        stage(s, src, &SharedDst::new(dst))?;
    }
    if n_stages % 2 == 1 {
        data.copy_from_slice(work);
    }
    Ok(())
}

/// One stage's three tasks as pipeline callbacks — the single builder
/// both schedules run. `p_d` loaders copy block-contiguous shares of
/// `src`, `p_d` storers write disjoint packet ranges of each `b`-element
/// block through the write matrix of `perm`, and `p_c` compute tasks
/// each own the kernel `kernel()` makes for them.
pub(crate) fn stage_callbacks<'a>(
    src: &'a [Complex64],
    dst: &'a SharedDst<'_>,
    b: usize,
    perm: StagePerm,
    non_temporal: bool,
    (p_d, p_c): (usize, usize),
    kernel: impl FnMut() -> ComputeFn<'a>,
) -> PipelineCallbacks<'a> {
    let n_packets = write_matrix_packets(&WriteMatrix::new(perm, b, 0));
    PipelineCallbacks {
        loaders: (0..p_d)
            .map(|_| {
                Box::new(move |blk: usize, off: usize, share: &mut [Complex64]| {
                    load_contiguous(src, share, blk * b + off, 0..share.len());
                }) as LoadFn
            })
            .collect(),
        storers: partition(n_packets, p_d)
            .into_iter()
            .map(|range| {
                Box::new(move |blk: usize, half: &[Complex64]| {
                    let w = WriteMatrix::new(perm, b, blk);
                    // SAFETY: packet ranges are disjoint across threads
                    // and the write permutation is injective, so
                    // destination addresses are disjoint too.
                    let dst_all = unsafe { dst.slice_mut() };
                    store_through_write_matrix(half, dst_all, &w, range.clone(), non_temporal);
                }) as StoreFn
            })
            .collect(),
        computes: core::iter::repeat_with(kernel).take(p_c).collect(),
    }
}

fn check_lengths(plan: &FftPlan, data: &[Complex64], work: &[Complex64]) -> Result<(), CoreError> {
    let total = plan.dims.total();
    if data.len() != total {
        return Err(CoreError::InputLength {
            what: "data",
            expected: total,
            got: data.len(),
        });
    }
    if work.len() != total {
        return Err(CoreError::InputLength {
            what: "work",
            expected: total,
            got: work.len(),
        });
    }
    Ok(())
}

/// Executes the plan: transforms `data` (row-major input), using `work`
/// as a same-sized workspace. On success `data` holds the transform
/// (unnormalized, like FFTW/MKL) and the report says which executor ran
/// and how pinning went. On failure (contained worker panic, watchdog
/// timeout, bad argument lengths) the typed error names the condition;
/// the arrays' contents are then unspecified but the process is intact.
pub fn execute(
    plan: &FftPlan,
    data: &mut [Complex64],
    work: &mut [Complex64],
) -> Result<ExecReport, CoreError> {
    execute_with(plan, data, work, &ExecConfig::default())
}

/// [`execute`] with explicit fault-tolerance knobs.
pub fn execute_with(
    plan: &FftPlan,
    data: &mut [Complex64],
    work: &mut [Complex64],
    cfg: &ExecConfig,
) -> Result<ExecReport, CoreError> {
    execute_as(plan.executor, plan, data, work, cfg)
}

/// [`execute_with`] on the executor `kind` instead of the plan's own,
/// so the supervisor's fused tier runs the caller's plan without a
/// copy.
pub(crate) fn execute_as(
    kind: ExecutorKind,
    plan: &FftPlan,
    data: &mut [Complex64],
    work: &mut [Complex64],
    cfg: &ExecConfig,
) -> Result<ExecReport, CoreError> {
    check_lengths(plan, data, work)?;

    // A profiled run records *why* it was degraded alongside the
    // timing, so the report explains itself.
    if let Some(t) = &cfg.trace {
        for d in &plan.degradations {
            t.mark(MarkKind::Degradation, d.to_string(), None);
        }
    }

    let energy_in = cfg.verify_energy.then(|| spectral_energy(data));

    // Graceful degradation: a plan built against a host profile that
    // cannot sustain the pipeline dispatches to the fused executor.
    let report = if kind == ExecutorKind::Fused {
        fused_impl(plan, data, work, cfg)?
    } else {
        pipelined_impl(plan, data, work, cfg)?
    };

    if let Some(e_in) = energy_in {
        verify_parseval(plan, data, e_in)?;
    }
    Ok(report)
}

fn pipelined_impl(
    plan: &FftPlan,
    data: &mut [Complex64],
    work: &mut [Complex64],
    cfg: &ExecConfig,
) -> Result<ExecReport, CoreError> {
    let buffer = alloc_double_buffer(plan, cfg)?;
    let mut last_report = PipelineReport::default();
    run_stages(data, work, plan.stages().len(), |s, src, dst| {
        let callbacks = plan_stage_callbacks(plan, s, src, dst, (plan.p_d, plan.p_c));
        run_pipeline(&buffer, &stage_config(plan, s, cfg), callbacks).map(|r| last_report = r)
    })?;
    Ok(ExecReport {
        executor: ExecutorKind::Pipelined,
        degradations: plan.degradations.clone(),
        pin_failures: last_report.pin_failures,
        pin_status: last_report.pin_status,
    })
}

/// Allocates the shared double buffer through the fallible path,
/// honoring an injected allocation budget ([`FaultPlan::fail_alloc_over`]).
fn alloc_double_buffer(plan: &FftPlan, cfg: &ExecConfig) -> Result<DoubleBuffer, CoreError> {
    let bytes = 2 * plan.buffer_elems * core::mem::size_of::<Complex64>();
    let budget = cfg.fault.as_ref().and_then(|f| f.fail_alloc_over);
    check_alloc_budget("double buffer", bytes, budget)?;
    Ok(DoubleBuffer::try_new(plan.buffer_elems)?)
}

/// Sum of squared magnitudes. Four fixed accumulator lanes break the
/// additive dependency chain so the loop vectorizes; the lane count is
/// constant, so the (re-associated) rounding is still deterministic and
/// sits far inside `verify_parseval`'s 1e-6 relative tolerance.
fn spectral_energy(xs: &[Complex64]) -> f64 {
    let mut lanes = [0.0f64; 4];
    let mut chunks = xs.chunks_exact(4);
    for c in &mut chunks {
        for (lane, v) in lanes.iter_mut().zip(c) {
            *lane += v.re * v.re + v.im * v.im;
        }
    }
    let tail: f64 = chunks
        .remainder()
        .iter()
        .map(|v| v.re * v.re + v.im * v.im)
        .sum();
    lanes.iter().sum::<f64>() + tail
}

/// Parseval/energy-budget invariant: for an unnormalized length-`N`
/// transform (either direction), output energy = `N ×` input energy.
fn verify_parseval(
    plan: &FftPlan,
    out: &[Complex64],
    energy_in: f64,
) -> Result<(), CoreError> {
    let n = plan.dims.total() as f64;
    let expected = n * energy_in;
    let got = spectral_energy(out);
    // Relative tolerance well above FFT rounding (~ε·log N) but far
    // below any real corruption; absolute floor covers all-zero input.
    if (got - expected).abs() > 1e-6 * expected.abs() + 1e-12 {
        return Err(CoreError::Integrity {
            stage: 0,
            block: 0,
            kind: IntegrityKind::Energy,
        });
    }
    Ok(())
}

/// The plan's stage `s` as callbacks for `threads` (data, compute): the
/// stage's write matrix, and one batched kernel per compute thread.
fn plan_stage_callbacks<'a>(
    plan: &'a FftPlan,
    s: usize,
    src: &'a [Complex64],
    dst: &'a SharedDst<'_>,
    threads: (usize, usize),
) -> PipelineCallbacks<'a> {
    let stage = &plan.stages()[s];
    let kernel = || -> ComputeFn<'a> {
        let mut fft = BatchFft::new(stage.fft_size, stage.lanes, plan.dir);
        Box::new(move |_blk: usize, _off: usize, share: &mut [Complex64]| fft.run(share))
    };
    let (b, nt) = (plan.buffer_elems, plan.non_temporal);
    stage_callbacks(src, dst, b, stage.perm, nt, threads, kernel)
}

/// Stage `s`'s pipeline configuration under the caller's knobs.
fn stage_config(plan: &FftPlan, s: usize, cfg: &ExecConfig) -> PipelineConfig {
    PipelineConfig {
        // Blocks are issued socket-major: block index
        // `socket·iters_per_socket + i` reads the socket's local slab
        // contiguously, matching §IV-B's per-socket parallelism. The
        // real executor runs the sockets' block streams back-to-back on
        // the host's threads; the simulator runs them concurrently.
        iters: plan.iters_per_socket() * plan.sockets,
        load_unit: plan.mu.min(plan.buffer_elems),
        compute_unit: plan.stages()[s].pencil_elems(),
        pin_cpus: plan.pin_cpus.clone(),
        fault: cfg.fault.clone(),
        stage: s,
        trace: cfg.trace.clone(),
        adaptive_watchdog: cfg.adaptive_watchdog,
        integrity: cfg.integrity,
        cancel: cfg.cancel.clone(),
    }
}

/// Executes the plan *without* the soft-DMA pipeline: the same stage
/// callbacks with one thread per role, run on the fused schedule — one
/// thread does load → compute → store per block (no double buffer, no
/// role split). Bitwise identical to [`execute`]; this is the
/// host-side counterfactual matched by
/// [`crate::exec_sim::simulate_no_overlap`], used by the host
/// benchmarks to measure what the overlap machinery itself buys — and
/// the fallback target of the graceful-degradation policy.
pub fn execute_fused(
    plan: &FftPlan,
    data: &mut [Complex64],
    work: &mut [Complex64],
) -> Result<ExecReport, CoreError> {
    fused_impl(plan, data, work, &ExecConfig::default())
}

fn fused_impl(
    plan: &FftPlan,
    data: &mut [Complex64],
    work: &mut [Complex64],
    cfg: &ExecConfig,
) -> Result<ExecReport, CoreError> {
    check_lengths(plan, data, work)?;
    let b = plan.buffer_elems;
    let bytes = b * core::mem::size_of::<Complex64>();
    let budget = cfg.fault.as_ref().and_then(|f| f.fail_alloc_over);
    check_alloc_budget("fused scratch", bytes, budget)?;
    let mut scratch = try_vec_zeroed::<Complex64>(b, "fused scratch")?;
    // The pipelined stage's own callbacks with one thread per role,
    // run on the fused schedule (load → compute → store per block): the
    // strictly serial counterfactual the pipelined profile is compared
    // against, and the same arithmetic by construction.
    run_stages(data, work, plan.stages().len(), |s, src, dst| {
        let callbacks = plan_stage_callbacks(plan, s, src, dst, (1, 1));
        run_fused(&mut scratch, &stage_config(plan, s, cfg), callbacks).map(drop)
    })?;
    Ok(ExecReport {
        executor: ExecutorKind::Fused,
        degradations: plan.degradations.clone(),
        pin_status: Vec::new(),
        pin_failures: 0,
    })
}

/// Applies the `1/N` normalization (after an inverse transform).
pub fn normalize(data: &mut [Complex64]) {
    let s = 1.0 / data.len() as f64;
    for v in data.iter_mut() {
        *v = v.scale(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Dims;
    use bwfft_kernels::reference::{dft2_naive, dft3_naive};
    use bwfft_kernels::Direction;
    use bwfft_num::compare::assert_fft_close;
    use bwfft_num::signal::random_complex;

    #[allow(clippy::too_many_arguments)]
    fn run_3d(
        k: usize,
        n: usize,
        m: usize,
        b: usize,
        p_d: usize,
        p_c: usize,
        sk: usize,
        x: &[Complex64],
    ) -> Vec<Complex64> {
        let plan = FftPlan::builder(Dims::d3(k, n, m))
            .buffer_elems(b)
            .threads(p_d, p_c)
            .sockets(sk)
            .build()
            .unwrap();
        let mut data = x.to_vec();
        let mut work = vec![Complex64::ZERO; x.len()];
        execute(&plan, &mut data, &mut work).unwrap();
        data
    }

    #[test]
    fn small_3d_matches_naive() {
        let (k, n, m) = (8usize, 8, 8);
        let x = random_complex(k * n * m, 70);
        let got = run_3d(k, n, m, 128, 1, 1, 1, &x);
        let expect = dft3_naive(&x, k, n, m, Direction::Forward);
        assert_fft_close(&got, &expect);
    }

    #[test]
    fn rectangular_3d_matches_naive() {
        let (k, n, m) = (4usize, 16, 8);
        let x = random_complex(k * n * m, 71);
        let got = run_3d(k, n, m, 64, 2, 2, 1, &x);
        let expect = dft3_naive(&x, k, n, m, Direction::Forward);
        assert_fft_close(&got, &expect);
    }

    #[test]
    fn multithreaded_matches_single_threaded() {
        let (k, n, m) = (8usize, 16, 16);
        let x = random_complex(k * n * m, 72);
        let a = run_3d(k, n, m, 256, 1, 1, 1, &x);
        let b = run_3d(k, n, m, 256, 3, 2, 1, &x);
        // Identical arithmetic order per pencil ⇒ bitwise equality.
        assert_eq!(a, b);
    }

    #[test]
    fn numa_slab_pencil_matches_single_socket() {
        let (k, n, m) = (8usize, 8, 16);
        let x = random_complex(k * n * m, 73);
        let single = run_3d(k, n, m, 128, 2, 2, 1, &x);
        let dual = run_3d(k, n, m, 128, 2, 2, 2, &x);
        assert_eq!(single, dual, "NUMA decomposition must be exact");
    }

    #[test]
    fn small_2d_matches_naive() {
        let (n, m) = (16usize, 32);
        let x = random_complex(n * m, 74);
        let plan = FftPlan::builder(Dims::d2(n, m))
            .buffer_elems(128)
            .threads(2, 2)
            .build()
            .unwrap();
        let mut data = x.clone();
        let mut work = vec![Complex64::ZERO; x.len()];
        execute(&plan, &mut data, &mut work).unwrap();
        let expect = dft2_naive(&x, n, m, Direction::Forward);
        assert_fft_close(&data, &expect);
    }

    #[test]
    fn forward_inverse_roundtrip_3d() {
        let (k, n, m) = (8usize, 8, 8);
        let x = random_complex(k * n * m, 75);
        let mut data = x.clone();
        let mut work = vec![Complex64::ZERO; x.len()];
        let fwd = FftPlan::builder(Dims::d3(k, n, m))
            .buffer_elems(128)
            .threads(2, 2)
            .build()
            .unwrap();
        execute(&fwd, &mut data, &mut work).unwrap();
        let inv = FftPlan::builder(Dims::d3(k, n, m))
            .buffer_elems(128)
            .threads(2, 2)
            .direction(Direction::Inverse)
            .build()
            .unwrap();
        execute(&inv, &mut data, &mut work).unwrap();
        normalize(&mut data);
        assert_fft_close(&data, &x);
    }

    #[test]
    fn temporal_stores_compute_the_same_values() {
        // The ablation knob changes instructions, not semantics.
        let (k, n, m) = (4usize, 8, 8);
        let x = random_complex(k * n * m, 76);
        let nt_plan = FftPlan::builder(Dims::d3(k, n, m))
            .buffer_elems(64)
            .build()
            .unwrap();
        let t_plan = FftPlan::builder(Dims::d3(k, n, m))
            .buffer_elems(64)
            .non_temporal(false)
            .build()
            .unwrap();
        let mut a = x.clone();
        let mut wa = vec![Complex64::ZERO; x.len()];
        execute(&nt_plan, &mut a, &mut wa).unwrap();
        let mut b = x.clone();
        let mut wb = vec![Complex64::ZERO; x.len()];
        execute(&t_plan, &mut b, &mut wb).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn impulse_gives_flat_spectrum() {
        let (k, n, m) = (8usize, 8, 8);
        let mut data = bwfft_num::signal::impulse(k * n * m, 0);
        let plan = FftPlan::builder(Dims::d3(k, n, m))
            .buffer_elems(64)
            .build()
            .unwrap();
        let mut work = vec![Complex64::ZERO; data.len()];
        execute(&plan, &mut data, &mut work).unwrap();
        for v in &data {
            assert!((v.re - 1.0).abs() < 1e-10 && v.im.abs() < 1e-10);
        }
    }

    #[test]
    fn tone_gives_single_3d_spike() {
        // x[z,y,x] = ω^(−2·z) tone along z → spike at (k−2? ) use SPL
        // oracle instead: separable tone along the fastest dim.
        let (k, n, m) = (4usize, 4, 16);
        let mut data = vec![Complex64::ZERO; k * n * m];
        // Tone along x with frequency 3, constant along y and z.
        for z in 0..k {
            for y in 0..n {
                for xx in 0..m {
                    data[z * n * m + y * m + xx] =
                        Complex64::root_of_unity(-(3 * xx as i64), m as u64);
                }
            }
        }
        let plan = FftPlan::builder(Dims::d3(k, n, m))
            .buffer_elems(64)
            .build()
            .unwrap();
        let mut work = vec![Complex64::ZERO; data.len()];
        execute(&plan, &mut data, &mut work).unwrap();
        // Spike at (0, 0, 3) with magnitude k·n·m.
        let spike = data[3];
        assert!((spike.re - (k * n * m) as f64).abs() < 1e-8, "{spike}");
        let energy_elsewhere: f64 = data
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 3)
            .map(|(_, v)| v.abs())
            .fold(0.0, f64::max);
        assert!(energy_elsewhere < 1e-8);
    }
}

#[cfg(test)]
mod pinning_tests {
    use super::*;
    use crate::plan::Dims;
    use bwfft_num::signal::random_complex;
    use bwfft_pipeline::RoleAssignment;

    #[test]
    fn pinned_plan_matches_unpinned() {
        // A Kaby-Lake-shaped role assignment: 4 cores × 2 HT → 4 data
        // + 4 compute, siblings paired per core. On hosts with fewer
        // CPUs the pins degrade to no-ops; results are unaffected.
        let roles = RoleAssignment::paired(1, 4, 2);
        let (k, n, m) = (8usize, 8, 16);
        let x = random_complex(k * n * m, 77);
        let pinned = FftPlan::builder(Dims::d3(k, n, m))
            .buffer_elems(128)
            .pinned(&roles)
            .build()
            .unwrap();
        assert_eq!(pinned.p_d, 4);
        assert_eq!(pinned.p_c, 4);
        assert_eq!(pinned.pin_cpus.as_ref().unwrap().len(), 8);
        let plain = FftPlan::builder(Dims::d3(k, n, m))
            .buffer_elems(128)
            .threads(4, 4)
            .build()
            .unwrap();
        let mut a = x.clone();
        let mut wa = vec![Complex64::ZERO; x.len()];
        execute(&pinned, &mut a, &mut wa).unwrap();
        let mut b = x.clone();
        let mut wb = vec![Complex64::ZERO; x.len()];
        execute(&plain, &mut b, &mut wb).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn pin_list_orders_data_threads_first() {
        let roles = RoleAssignment::paired(1, 2, 2);
        let plan = FftPlan::builder(Dims::d3(8, 8, 8))
            .buffer_elems(64)
            .pinned(&roles)
            .build()
            .unwrap();
        let cpus = plan.pin_cpus.as_ref().unwrap();
        // Intel pairing: HT 1 of each core is a data thread (odd ids),
        // HT 0 computes (even ids).
        assert_eq!(cpus, &vec![1usize, 3, 0, 2]);
    }
}

#[cfg(test)]
mod fused_tests {
    use super::*;
    use crate::plan::Dims;
    use bwfft_num::signal::random_complex;

    #[test]
    fn fused_executor_matches_pipelined() {
        let (k, n, m) = (8usize, 16, 16);
        let x = random_complex(k * n * m, 78);
        let plan = FftPlan::builder(Dims::d3(k, n, m))
            .buffer_elems(256)
            .threads(2, 2)
            .build()
            .unwrap();
        let mut a = x.clone();
        let mut wa = vec![Complex64::ZERO; x.len()];
        execute(&plan, &mut a, &mut wa).unwrap();
        let mut b = x.clone();
        let mut wb = vec![Complex64::ZERO; x.len()];
        execute_fused(&plan, &mut b, &mut wb).unwrap();
        assert_eq!(a, b, "fused and pipelined must agree bitwise");
    }

    #[test]
    fn fused_executor_2d() {
        let (n, m) = (16usize, 32);
        let x = random_complex(n * m, 79);
        let plan = FftPlan::builder(Dims::d2(n, m))
            .buffer_elems(128)
            .build()
            .unwrap();
        let mut a = x.clone();
        let mut wa = vec![Complex64::ZERO; x.len()];
        execute(&plan, &mut a, &mut wa).unwrap();
        let mut b = x.clone();
        let mut wb = vec![Complex64::ZERO; x.len()];
        execute_fused(&plan, &mut b, &mut wb).unwrap();
        assert_eq!(a, b);
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use crate::host::HostProfile;
    use crate::plan::Dims;
    use crate::profile;
    use bwfft_num::signal::random_complex;

    #[test]
    fn traced_pipelined_run_produces_stage_profiles() {
        let (n, m) = (32usize, 32);
        let x = random_complex(n * m, 80);
        let plan = FftPlan::builder(Dims::d2(n, m))
            .buffer_elems(128)
            .threads(2, 2)
            .build()
            .unwrap();
        let collector = Arc::new(TraceCollector::new());
        let mut data = x.clone();
        let mut work = vec![Complex64::ZERO; x.len()];
        let cfg = ExecConfig {
            trace: Some(Arc::clone(&collector)),
            ..Default::default()
        };
        let report = execute_with(&plan, &mut data, &mut work, &cfg).unwrap();
        assert_eq!(report.executor, ExecutorKind::Pipelined);

        let rep = profile::profile_report(&collector, &plan, "pipelined", Some(40.0));
        assert_eq!(rep.stages.len(), 2, "2D plan has two stages");
        for s in &rep.stages {
            assert!(s.wall_ns > 0);
            assert!(
                (0.0..=1.0).contains(&s.overlap_fraction),
                "overlap {}",
                s.overlap_fraction
            );
            assert!(s.load_busy_ns > 0, "stage {} load busy", s.stage);
            assert!(s.compute_busy_ns > 0, "stage {} compute busy", s.stage);
            assert!(s.store_busy_ns > 0, "stage {} store busy", s.stage);
            assert!(s.achieved_gbs.is_some());
            assert!(s.percent_of_achievable.is_some());
        }
        let sum: u64 = rep.stages.iter().map(|s| s.wall_ns).sum();
        assert!(
            sum <= rep.total_wall_ns,
            "stage walls {sum} must not exceed total {}",
            rep.total_wall_ns
        );
        // Tracing must not corrupt the transform.
        let mut expect = x.clone();
        let mut w2 = vec![Complex64::ZERO; x.len()];
        execute(&plan, &mut expect, &mut w2).unwrap();
        assert_eq!(data, expect);
    }

    #[test]
    fn degraded_run_records_degradation_mark_and_serial_profile() {
        // Satellite: a profiled degraded run must show *why* the
        // executor was downgraded, as a trace event.
        let (k, n, m) = (8usize, 8, 8);
        let x = random_complex(k * n * m, 81);
        let host = HostProfile { cpus: 1, pin_works: true, llc_bytes: None };
        let plan = FftPlan::builder(Dims::d3(k, n, m))
            .buffer_elems(64)
            .threads(2, 2)
            .host(host)
            .build()
            .unwrap();
        assert_eq!(plan.executor, ExecutorKind::Fused);
        let collector = Arc::new(TraceCollector::new());
        let mut data = x.clone();
        let mut work = vec![Complex64::ZERO; x.len()];
        let cfg = ExecConfig {
            trace: Some(Arc::clone(&collector)),
            ..Default::default()
        };
        execute_with(&plan, &mut data, &mut work, &cfg).unwrap();

        let rep = profile::profile_report(&collector, &plan, "fused", None);
        let degradation = rep
            .marks
            .iter()
            .find(|mk| mk.kind == MarkKind::Degradation)
            .expect("degraded run must record a Degradation mark");
        assert!(
            degradation.label.contains("usable CPU"),
            "label: {}",
            degradation.label
        );
        // Fused is strictly serial: spans exist but never overlap.
        assert_eq!(rep.stages.len(), 3);
        for s in &rep.stages {
            assert!(s.compute_busy_ns > 0);
            assert_eq!(s.overlap_fraction, 0.0, "fused must not overlap");
        }
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::host::HostProfile;
    use crate::plan::Dims;
    use bwfft_kernels::Direction;
    use bwfft_num::compare::assert_fft_close;
    use bwfft_num::signal::random_complex;
    use bwfft_pipeline::Role;
    use std::time::Duration;

    #[test]
    fn length_mismatch_is_typed_not_a_panic() {
        let plan = FftPlan::builder(Dims::d3(8, 8, 8))
            .buffer_elems(64)
            .build()
            .unwrap();
        let mut data = vec![Complex64::ZERO; 100];
        let mut work = vec![Complex64::ZERO; 512];
        let err = execute(&plan, &mut data, &mut work).unwrap_err();
        assert!(matches!(
            err,
            CoreError::InputLength { what: "data", expected: 512, got: 100 }
        ));
    }

    #[test]
    fn injected_panic_propagates_as_typed_core_error() {
        bwfft_pipeline::fault::silence_injected_panic_reports();
        let plan = FftPlan::builder(Dims::d3(8, 8, 8))
            .buffer_elems(64)
            .threads(1, 1)
            .build()
            .unwrap();
        let x = random_complex(512, 90);
        let mut data = x.clone();
        let mut work = vec![Complex64::ZERO; 512];
        let cfg = ExecConfig {
            adaptive_watchdog: Some(AdaptiveWatchdog::fixed(Duration::from_secs(2))),
            fault: Some(FaultPlan::panic_at(Role::Compute, 0, 1)),
            ..Default::default()
        };
        let err = execute_with(&plan, &mut data, &mut work, &cfg).unwrap_err();
        match err {
            CoreError::Pipeline(PipelineError::WorkerPanicked { role, iter, .. }) => {
                assert_eq!(role, Role::Compute);
                assert_eq!(iter, 1);
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
    }

    #[test]
    fn single_thread_host_degrades_to_fused_with_identical_output() {
        // The acceptance criterion: a plan built for a 1-CPU host must
        // record the degradation, run fused, and still produce output
        // bit-identical to the unconstrained pipelined plan (and
        // correct vs the reference oracle via forward∘inverse).
        let (k, n, m) = (8usize, 8, 16);
        let x = random_complex(k * n * m, 91);
        let host = HostProfile { cpus: 1, pin_works: true, llc_bytes: None };
        let degraded = FftPlan::builder(Dims::d3(k, n, m))
            .buffer_elems(128)
            .threads(2, 2)
            .host(host)
            .build()
            .unwrap();
        assert_eq!(degraded.executor, ExecutorKind::Fused);
        assert_eq!(
            degraded.degradations,
            vec![DegradationReason::SingleThreadedHost { cpus: 1 }]
        );

        let mut a = x.clone();
        let mut wa = vec![Complex64::ZERO; x.len()];
        let report = execute(&degraded, &mut a, &mut wa).unwrap();
        assert_eq!(report.executor, ExecutorKind::Fused);
        assert_eq!(report.degradations, degraded.degradations);

        // Bit-identical to the pipelined plan on the same shape.
        let full = FftPlan::builder(Dims::d3(k, n, m))
            .buffer_elems(128)
            .threads(2, 2)
            .build()
            .unwrap();
        assert_eq!(full.executor, ExecutorKind::Pipelined);
        let mut b = x.clone();
        let mut wb = vec![Complex64::ZERO; x.len()];
        execute(&full, &mut b, &mut wb).unwrap();
        assert_eq!(a, b, "degraded output must be bit-identical");

        // And round-trips through the degraded inverse.
        let inv = FftPlan::builder(Dims::d3(k, n, m))
            .buffer_elems(128)
            .threads(2, 2)
            .direction(Direction::Inverse)
            .host(host)
            .build()
            .unwrap();
        assert_eq!(inv.executor, ExecutorKind::Fused);
        execute(&inv, &mut a, &mut wa).unwrap();
        normalize(&mut a);
        assert_fft_close(&a, &x);
    }

    #[test]
    fn unconstrained_host_stays_pipelined() {
        let plan = FftPlan::builder(Dims::d3(8, 8, 8))
            .buffer_elems(64)
            .host(HostProfile::unconstrained())
            .build()
            .unwrap();
        assert_eq!(plan.executor, ExecutorKind::Pipelined);
        assert!(plan.degradations.is_empty());
    }

    #[test]
    fn alloc_budget_fault_yields_typed_allocation_error() {
        let plan = FftPlan::builder(Dims::d3(8, 8, 8))
            .buffer_elems(64)
            .build()
            .unwrap();
        let mut data = vec![Complex64::ZERO; 512];
        let mut work = vec![Complex64::ZERO; 512];
        // The double buffer needs 2·64·16 = 2048 bytes; budget 1 KiB.
        let cfg = ExecConfig {
            fault: Some(FaultPlan::none().with_alloc_budget(1024)),
            ..Default::default()
        };
        let err = execute_with(&plan, &mut data, &mut work, &cfg).unwrap_err();
        match err {
            CoreError::Allocation(e) => {
                assert_eq!(e.what, "double buffer");
                assert_eq!(e.bytes, 2048);
            }
            other => panic!("expected Allocation, got {other:?}"),
        }
    }

    #[test]
    fn fused_scratch_respects_alloc_budget() {
        let host = HostProfile { cpus: 1, pin_works: true, llc_bytes: None };
        let plan = FftPlan::builder(Dims::d3(8, 8, 8))
            .buffer_elems(64)
            .threads(2, 2)
            .host(host)
            .build()
            .unwrap();
        assert_eq!(plan.executor, ExecutorKind::Fused);
        let mut data = vec![Complex64::ZERO; 512];
        let mut work = vec![Complex64::ZERO; 512];
        let cfg = ExecConfig {
            fault: Some(FaultPlan::none().with_alloc_budget(512)),
            ..Default::default()
        };
        let err = execute_with(&plan, &mut data, &mut work, &cfg).unwrap_err();
        assert!(
            matches!(err, CoreError::Allocation(_)),
            "expected Allocation, got {err:?}"
        );
    }

    #[test]
    fn integrity_guards_and_energy_check_pass_on_clean_runs() {
        let (k, n, m) = (8usize, 8, 8);
        let x = random_complex(k * n * m, 92);
        let plan = FftPlan::builder(Dims::d3(k, n, m))
            .buffer_elems(128)
            .threads(2, 2)
            .build()
            .unwrap();
        let mut data = x.clone();
        let mut work = vec![Complex64::ZERO; x.len()];
        let cfg = ExecConfig {
            integrity: IntegrityConfig::full(),
            verify_energy: true,
            ..Default::default()
        };
        execute_with(&plan, &mut data, &mut work, &cfg).unwrap();
        // Guards must not perturb the numbers.
        let mut expect = x.clone();
        let mut w2 = vec![Complex64::ZERO; x.len()];
        execute(&plan, &mut expect, &mut w2).unwrap();
        assert_eq!(data, expect);
    }

    #[test]
    fn corruption_is_detected_by_checksum_guard_end_to_end() {
        use bwfft_pipeline::FaultPhase;
        let plan = FftPlan::builder(Dims::d3(8, 8, 8))
            .buffer_elems(64)
            .threads(1, 1)
            .build()
            .unwrap();
        let x = random_complex(512, 93);
        let mut data = x.clone();
        let mut work = vec![Complex64::ZERO; 512];
        let cfg = ExecConfig {
            integrity: IntegrityConfig::full(),
            adaptive_watchdog: Some(AdaptiveWatchdog::fixed(Duration::from_secs(5))),
            fault: Some(FaultPlan::corrupt_at(
                bwfft_pipeline::Role::Data,
                0,
                1,
                FaultPhase::Load,
            )),
            ..Default::default()
        };
        let err = execute_with(&plan, &mut data, &mut work, &cfg).unwrap_err();
        assert_eq!(err.integrity_kind(), Some(IntegrityKind::Checksum));
    }

    #[test]
    fn corruption_with_guards_off_fails_energy_check() {
        use bwfft_pipeline::FaultPhase;
        let plan = FftPlan::builder(Dims::d3(8, 8, 8))
            .buffer_elems(64)
            .threads(1, 1)
            .build()
            .unwrap();
        let x = random_complex(512, 94);
        let mut data = x.clone();
        let mut work = vec![Complex64::ZERO; 512];
        let cfg = ExecConfig {
            verify_energy: true,
            fault: Some(FaultPlan::corrupt_at(
                bwfft_pipeline::Role::Data,
                0,
                1,
                FaultPhase::Load,
            )),
            ..Default::default()
        };
        let err = execute_with(&plan, &mut data, &mut work, &cfg).unwrap_err();
        assert_eq!(err.integrity_kind(), Some(IntegrityKind::Energy));
    }

    #[test]
    fn fused_honors_panic_fault_as_typed_error() {
        let host = HostProfile { cpus: 1, pin_works: true, llc_bytes: None };
        let plan = FftPlan::builder(Dims::d3(8, 8, 8))
            .buffer_elems(64)
            .threads(2, 2)
            .host(host)
            .build()
            .unwrap();
        assert_eq!(plan.executor, ExecutorKind::Fused);
        let mut data = vec![Complex64::ZERO; 512];
        let mut work = vec![Complex64::ZERO; 512];
        let cfg = ExecConfig {
            fault: Some(FaultPlan::panic_at(Role::Compute, 0, 1)),
            ..Default::default()
        };
        let err = execute_with(&plan, &mut data, &mut work, &cfg).unwrap_err();
        match err {
            CoreError::Pipeline(PipelineError::WorkerPanicked { iter, message, .. }) => {
                assert_eq!(iter, 1);
                assert!(message.contains("fused"), "message: {message}");
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
    }

    #[test]
    fn cancelled_token_aborts_both_executors_with_typed_error() {
        use bwfft_pipeline::{CancelReason, CancelToken};
        // Pipelined path.
        let plan = FftPlan::builder(Dims::d3(8, 8, 8))
            .buffer_elems(64)
            .threads(2, 2)
            .build()
            .unwrap();
        let token = CancelToken::new();
        token.cancel();
        let cfg = ExecConfig {
            cancel: Some(token),
            ..Default::default()
        };
        let mut data = vec![Complex64::ZERO; 512];
        let mut work = vec![Complex64::ZERO; 512];
        let err = execute_with(&plan, &mut data, &mut work, &cfg).unwrap_err();
        assert!(
            matches!(
                err,
                CoreError::Pipeline(PipelineError::Cancelled {
                    reason: CancelReason::Shutdown,
                    ..
                })
            ),
            "pipelined: expected Cancelled, got {err:?}"
        );
        // Fused path: an already-expired deadline cancels at block 0.
        let token = CancelToken::with_deadline(std::time::Instant::now());
        let cfg = ExecConfig {
            cancel: Some(token),
            ..Default::default()
        };
        let err = execute_fused_cfg(&plan, &mut data, &mut work, &cfg).unwrap_err();
        assert!(
            matches!(
                err,
                CoreError::Pipeline(PipelineError::Cancelled {
                    iter: 0,
                    reason: CancelReason::Deadline,
                })
            ),
            "fused: expected Cancelled, got {err:?}"
        );
    }

    /// The fused executor's fault contract over every (role, phase) site
    /// at the first, a middle and the last block: a thread-0 panic is a
    /// typed error naming the fused executor; thread-1 sites, stalls and
    /// corruption sites leave the output bitwise equal to a clean run.
    #[test]
    fn fused_fault_sites_follow_the_thread0_rule() {
        use bwfft_pipeline::FaultPhase;
        bwfft_pipeline::fault::silence_injected_panic_reports();
        let host = HostProfile {
            cpus: 1,
            pin_works: true,
            llc_bytes: None,
        };
        let plan = FftPlan::builder(Dims::d3(8, 8, 16))
            .buffer_elems(128)
            .threads(2, 2)
            .host(host)
            .build()
            .unwrap();
        assert_eq!(plan.executor, ExecutorKind::Fused);
        let x = random_complex(plan.dims.total(), 95);
        let run = |fault: FaultPlan| {
            let mut data = x.clone();
            let mut work = vec![Complex64::ZERO; x.len()];
            let cfg = ExecConfig {
                fault: Some(fault),
                ..Default::default()
            };
            execute_with(&plan, &mut data, &mut work, &cfg).map(|_| data)
        };
        let clean = run(FaultPlan::none()).unwrap();
        let last = plan.dims.total() / plan.buffer_elems - 1;
        let stall = Duration::from_millis(1);
        for (role, phase) in [
            (Role::Data, FaultPhase::Load),
            (Role::Data, FaultPhase::Store),
            (Role::Compute, FaultPhase::Compute),
        ] {
            for blk in [0, last / 2, last] {
                let site = format!("{role:?} {phase:?} block {blk}");
                match run(FaultPlan::panic_at_phase(role, 0, blk, phase)) {
                    Err(CoreError::Pipeline(PipelineError::WorkerPanicked {
                        role: r,
                        thread: 0,
                        iter,
                        message,
                    })) => {
                        assert_eq!((r, iter), (role, blk), "{site}");
                        assert!(message.contains("fused"), "{site}: {message}");
                    }
                    other => panic!("{site}: expected WorkerPanicked, got {other:?}"),
                }
                for fault in [
                    FaultPlan::panic_at_phase(role, 1, blk, phase),
                    FaultPlan::stall_at_phase(role, 1, blk, phase, stall),
                    FaultPlan::stall_at_phase(role, 0, blk, phase, stall),
                    FaultPlan::corrupt_at(role, 0, blk, phase),
                    FaultPlan::corrupt_at(role, 1, blk, phase),
                ] {
                    let out =
                        run(fault.clone()).unwrap_or_else(|e| panic!("{site} {fault:?}: {e}"));
                    assert_eq!(out, clean, "{site} {fault:?}");
                }
            }
        }
    }

    /// Test-only shim: fused executor with an explicit config.
    fn execute_fused_cfg(
        plan: &FftPlan,
        data: &mut [Complex64],
        work: &mut [Complex64],
        cfg: &ExecConfig,
    ) -> Result<ExecReport, CoreError> {
        fused_impl(plan, data, work, cfg)
    }
}
