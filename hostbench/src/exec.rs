//! The executor workloads (`exec3d_large`, `exec2d_small`) and the
//! traced per-layer pass they share with `serve2d_small`.
//!
//! The timed pass is one caller in a closed loop around
//! `exec_real::execute_with`; the input is restored and every output
//! checked against `execute_reference` outside the timed region.
//!
//! The traced pass splits an executor call into its layers from the
//! outside: a *replay* of the same plan through public functions only —
//! `BatchFft::with_variant`, `DoubleBuffer::try_new`, then
//! `run_pipeline` with benchmark-owned callbacks around
//! `load_contiguous`, `BatchFft::run` and `store_through_write_matrix`,
//! mirroring `exec_real::run_stage` — must be bitwise equal to the real
//! call, and `core.residual_ms` (real − replay) is the time the ledger
//! cannot attribute.

use crate::measure::{self, median, ms, summarize, us, Accuracy, PeakHeap, Reference};
use crate::spans::{per_op_sum, SpanLog};
use crate::{BenchError, Opts, Outcome, Result};
use bwfft_core::exec_real::{execute_fused, execute_with, ExecConfig};
use bwfft_core::metrics::{achievable_peak_gflops_for, pseudo_flops, COMPLEX64_BYTES};
use bwfft_core::plan::StageSpec;
use bwfft_core::{execute_reference, profile, Dims, ExecutorKind, FftPlan, Supervisor};
use bwfft_kernels::batch::BatchFft;
use bwfft_kernels::transpose::{load_contiguous, store_through_write_matrix, write_matrix_packets};
use bwfft_num::signal::random_complex;
use bwfft_num::{try_vec_zeroed, AlignedVec, Complex64};
use bwfft_pipeline::exec::{
    block_checksum, ComputeFn, LoadFn, PipelineCallbacks, PipelineConfig, StoreFn,
};
use bwfft_pipeline::{run_pipeline, DoubleBuffer};
use bwfft_spl::gather_scatter::WriteMatrix;
use bwfft_trace::TraceCollector;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-workload sizing.
struct Shape {
    dims: Dims,
    /// Untimed calls before the timed pass.
    warmup: usize,
    /// Set-up repetitions; `setup_s` is their median.
    setup_reps: usize,
    /// Operations in the traced pass.
    traced_ops: usize,
}

fn shape(name: &str, quick: bool) -> Shape {
    match (name, quick) {
        ("exec3d_large", false) => Shape {
            dims: Dims::d3(128, 128, 128),
            warmup: 3,
            setup_reps: 5,
            traced_ops: 5,
        },
        ("exec3d_large", true) => Shape {
            dims: Dims::d3(16, 16, 16),
            warmup: 1,
            setup_reps: 2,
            traced_ops: 2,
        },
        (_, false) => Shape {
            dims: Dims::d2(64, 64),
            warmup: 200,
            setup_reps: 21,
            traced_ops: 500,
        },
        (_, true) => Shape {
            dims: Dims::d2(16, 16),
            warmup: 5,
            setup_reps: 2,
            traced_ops: 5,
        },
    }
}

/// The plan every executor workload runs: planner-default buffer, one
/// data and one compute thread, non-temporal stores.
pub fn plan_for(dims: Dims) -> Result<FftPlan> {
    Ok(FftPlan::builder(dims).threads(1, 1).build()?)
}

pub fn describe_plan(plan: &FftPlan) -> String {
    format!(
        "plan: {} b={} p_d={} p_c={} kernel={} nt={} executor={:?}",
        plan.dims.label(),
        plan.buffer_elems,
        plan.p_d,
        plan.p_c,
        plan.kernel.token(),
        plan.non_temporal,
        plan.executor
    )
}

pub fn input_digest(name: &str, seed: u64, quick: bool) -> u64 {
    block_checksum(&random_complex(shape(name, quick).dims.total(), seed))
}

/// `execute_reference` of `input` under `plan`'s dims and direction.
pub fn reference_of(plan: &FftPlan, input: &[Complex64]) -> Result<Reference> {
    let mut r = input.to_vec();
    execute_reference(plan, &mut r)?;
    Ok(Reference::new(r))
}

fn bitwise_eq(a: &[Complex64], b: &[Complex64]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
}

fn nanos(d: Duration) -> f64 {
    d.as_nanos() as f64
}

pub fn run(name: &str, opts: &Opts) -> Result<Outcome> {
    let shape = shape(name, opts.quick);
    let n = shape.dims.total();
    let input = random_complex(n, opts.seed);
    let reference = reference_of(&plan_for(shape.dims)?, &input)?;
    let mut out = Outcome::default();
    let mut acc = Accuracy::default();
    let cfg = ExecConfig::default();
    let mut check = |out: &mut Outcome, ok: bool, data: &[Complex64]| {
        let a = reference.accuracy(data);
        acc = acc.worst(a);
        out.check(ok && a.within_cap());
    };

    // Set-up: plan build, array allocation and the first call, repeated
    // so `setup_s` is a median. Input generation is excluded.
    let mut setup_ns = Vec::with_capacity(shape.setup_reps);
    let mut state = None;
    let mut held = 0;
    for _ in 0..shape.setup_reps.max(1) {
        drop(state.take()); // free the previous repetition first
        let before = measure::live_heap_bytes();
        let t0 = Instant::now();
        let plan = plan_for(shape.dims)?;
        let mut data = AlignedVec::<Complex64>::try_zeroed(n)?;
        let mut work = AlignedVec::<Complex64>::try_zeroed(n)?;
        data.copy_from_slice(&input);
        let first = execute_with(&plan, &mut data, &mut work, &cfg);
        setup_ns.push(nanos(t0.elapsed()));
        check(&mut out, first.is_ok(), &data);
        state = Some((plan, data, work));
        held = measure::live_heap_bytes().saturating_sub(before);
    }
    let (plan, mut data, mut work) =
        state.ok_or_else(|| BenchError::new("set-up produced no plan"))?;
    out.note(describe_plan(&plan));

    for _ in 0..shape.warmup {
        data.copy_from_slice(&input);
        let r = execute_with(&plan, &mut data, &mut work, &cfg);
        check(&mut out, r.is_ok(), &data);
    }

    // Timed pass: one closed-loop caller until the budget is spent.
    let mut lat_ns = Vec::new();
    let mut heap = PeakHeap::new(held);
    let (mut good, mut good_ns) = (0u64, 0.0f64);
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    loop {
        data.copy_from_slice(&input);
        heap.arm();
        let t0 = Instant::now();
        let r = execute_with(&plan, &mut data, &mut work, &cfg);
        let dt = nanos(t0.elapsed());
        heap.sample();
        lat_ns.push(dt);
        let last = Instant::now() >= deadline;
        if last && opts.flip_bit {
            measure::flip_sign_bit(&mut data);
        }
        let failed_before = out.failed;
        check(&mut out, r.is_ok(), &data);
        if out.failed == failed_before {
            good += 1;
            good_ns += dt;
        }
        if last {
            break;
        }
    }
    drop((data, work));

    let s = summarize(&lat_ns)?;
    out.e2e("latency_p50_ms", ms(s.p50), "ms");
    out.e2e("latency_tail_ms", ms(s.tail), "ms");
    out.e2e("throughput_gflops", pseudo_flops(n) / s.p50, "Gflop/s");
    out.e2e(
        "goodput_rps",
        good as f64 / (good_ns / 1e9).max(1e-9),
        "1/s",
    );
    out.e2e("setup_s", median(&setup_ns) / 1e9, "s");
    out.e2e("peak_heap_mib", heap.median_mib()?, "MiB");
    out.note(s.describe("timed pass"));
    out.note(format!(
        "set-up: median of {} repetitions; outputs: max_rel_err {:.3e} ({:.1} ULP, cap {})",
        setup_ns.len(),
        acc.max_rel_err,
        acc.ulps,
        measure::ULP_CAP
    ));

    if opts.trace {
        let log = SpanLog::new();
        let stream_gbs = measure::host_layers(&mut out, opts.quick);
        trace_layers(&plan, &input, &reference, shape.traced_ops, &log, &mut out)?;
        let spans = log.snapshot();
        ledger(&plan, &spans, Some(s.p50), stream_gbs, &mut out);
        out.spans = spans;
        measure::check_layers(&mut out, acc.max_rel_err);
    }
    Ok(out)
}

/// The traced pass over `plan`: per operation, the real `execute_with`,
/// the replay, `execute_fused`, `execute_reference`, `Supervisor::run`
/// and — for pipelined plans — a no-op `run_pipeline`, each under its
/// own span. Every output is checked; the replay, fused and supervised
/// outputs must be bitwise equal to the real call's. For pipelined
/// plans a final few `execute_with` calls with `ExecConfig::trace` armed
/// give the executor's own overlap fraction.
pub fn trace_layers(
    plan: &FftPlan,
    input: &[Complex64],
    reference: &Reference,
    ops: usize,
    log: &SpanLog,
    out: &mut Outcome,
) -> Result<()> {
    let n = input.len();
    let mut data = AlignedVec::<Complex64>::try_zeroed(n)?;
    let mut work = AlignedVec::<Complex64>::try_zeroed(n)?;
    let mut data2 = AlignedVec::<Complex64>::try_zeroed(n)?;
    let mut work2 = AlignedVec::<Complex64>::try_zeroed(n)?;
    let mut scratch = input.to_vec();
    let pipelined = plan.executor == ExecutorKind::Pipelined;
    let noop_buffer = DoubleBuffer::try_new(plan.buffer_elems)?;
    let cfg = ExecConfig::default();
    let supervisor = Supervisor::default();
    let mut mismatches = 0u64;

    for op in 0..ops as u64 {
        log.time("op", op, None, |root| -> Result<()> {
            data.copy_from_slice(input);
            let r = log.time("core.execute_with", op, Some(root), |_| {
                execute_with(plan, &mut data, &mut work, &cfg)
            });
            out.check(r.is_ok() && reference.accuracy(&data).within_cap());

            data2.copy_from_slice(input);
            let r = log.time("core.replay", op, Some(root), |id| {
                replay(plan, &mut data2, &mut work2, log, op, id)
            });
            let same = r.is_ok() && bitwise_eq(&data2, &data);
            mismatches += u64::from(!same);
            out.check(same);

            data2.copy_from_slice(input);
            let r = log.time("core.execute_fused", op, Some(root), |_| {
                execute_fused(plan, &mut data2, &mut work2)
            });
            out.check(r.is_ok() && bitwise_eq(&data2, &data));

            scratch.copy_from_slice(input);
            let r = log.time("core.execute_reference", op, Some(root), |_| {
                execute_reference(plan, &mut scratch)
            });
            out.check(r.is_ok() && bitwise_eq(&scratch, &reference.data));

            data2.copy_from_slice(input);
            let r = log.time("core.supervisor_run", op, Some(root), |_| {
                supervisor.run(plan, &mut data2, &mut work2, &cfg)
            });
            out.check(r.is_ok() && bitwise_eq(&data2, &data));

            if !pipelined {
                return Ok(());
            }
            log.time("pipeline.run_noop", op, Some(root), |id| {
                noop_pipeline(plan, &noop_buffer, log, op, id)
            })
        })?;
    }
    out.layer("core.replay_mismatches", mismatches as f64, "count");
    if !pipelined {
        return Ok(());
    }

    let mut overlap = Vec::new();
    for _ in 0..ops.min(5) {
        let collector = Arc::new(TraceCollector::new());
        let traced = ExecConfig {
            trace: Some(Arc::clone(&collector)),
            ..ExecConfig::default()
        };
        data.copy_from_slice(input);
        let r = execute_with(plan, &mut data, &mut work, &traced);
        out.check(r.is_ok() && reference.accuracy(&data).within_cap());
        let rep = profile::profile_report(&collector, plan, "pipelined", None);
        overlap.push(rep.overall_overlap_fraction().unwrap_or(0.0));
    }
    out.layer("pipeline.overlap_fraction", median(&overlap), "ratio");
    Ok(())
}

/// Derives the kernels/pipeline/core ledger from the spans of
/// [`trace_layers`]. Every value is a median over traced operations of
/// that operation's sum. `untraced_p50_ns`, the timed pass's median
/// `execute_with` call when the workload has one, adds the %-of-STREAM
/// roofline and the tracing overhead.
pub fn ledger(
    plan: &FftPlan,
    spans: &[crate::spans::Span],
    untraced_p50_ns: Option<f64>,
    stream_gbs: f64,
    out: &mut Outcome,
) {
    let n = plan.dims.total();
    let stages = plan.stages().len();
    let sum = |name| per_op_sum(spans, name);
    let med = |name| median(&sum(name));
    let diff =
        |a: Vec<f64>, b: Vec<f64>| -> Vec<f64> { a.iter().zip(&b).map(|(x, y)| x - y).collect() };

    let execute = sum("core.execute_with");
    let run_pipe = sum("pipeline.run_pipeline");
    let loads = sum("kernels.load");
    let stores = sum("kernels.store");
    let data_busy: Vec<f64> = loads.iter().zip(&stores).map(|(l, s)| l + s).collect();

    out.layer("kernels.batch_new_us", us(med("kernels.batch_new")), "us");
    out.layer("kernels.batch_run_ms", ms(med("kernels.batch_run")), "ms");
    out.layer(
        "kernels.batch_gflops",
        pseudo_flops(n) / med("kernels.batch_run").max(1.0),
        "Gflop/s",
    );
    out.layer("kernels.load_ms", ms(median(&loads)), "ms");
    out.layer("kernels.store_ms", ms(median(&stores)), "ms");
    out.layer(
        "kernels.store_gbs",
        (n * stages) as f64 * COMPLEX64_BYTES / median(&stores).max(1.0),
        "GB/s",
    );
    out.layer("kernels.store_packets", store_packets(plan) as f64, "count");

    if plan.executor == ExecutorKind::Pipelined {
        // A role's wait is the pipeline call minus that role's busy
        // callbacks.
        out.layer(
            "pipeline.dbuf_alloc_us",
            us(med("pipeline.dbuf_alloc")),
            "us",
        );
        out.layer("pipeline.run_noop_us", us(med("pipeline.run_noop")), "us");
        out.layer(
            "pipeline.data_wait_ms",
            ms(median(&diff(run_pipe.clone(), data_busy))),
            "ms",
        );
        out.layer(
            "pipeline.compute_wait_ms",
            ms(median(&diff(run_pipe, sum("kernels.batch_run")))),
            "ms",
        );
    }

    out.layer("core.execute_ms", ms(median(&execute)), "ms");
    out.layer("core.replay_ms", ms(med("core.replay")), "ms");
    out.layer(
        "core.residual_ms",
        ms(median(&diff(execute.clone(), sum("core.replay")))),
        "ms",
    );
    out.layer("core.fused_ms", ms(med("core.execute_fused")), "ms");
    out.layer("core.reference_ms", ms(med("core.execute_reference")), "ms");
    out.layer(
        "core.supervisor_overhead_ms",
        ms(median(&diff(sum("core.supervisor_run"), execute.clone()))),
        "ms",
    );
    if let Some(p50) = untraced_p50_ns {
        let peak = achievable_peak_gflops_for(n, stages, stream_gbs, COMPLEX64_BYTES);
        out.layer(
            "core.pct_of_stream_peak",
            100.0 * (pseudo_flops(n) / p50) / peak,
            "%",
        );
        out.layer(
            "bench.trace_overhead_pct",
            measure::pct_change(median(&execute), p50),
            "%",
        );
    }
}

/// Packets one call stores through the write matrices, all stages.
fn store_packets(plan: &FftPlan) -> usize {
    let iters = plan.iters_per_socket() * plan.sockets;
    plan.stages()
        .iter()
        .map(|st| iters * write_matrix_packets(&WriteMatrix::new(st.perm, plan.buffer_elems, 0)))
        .sum()
}

/// Runs `plan` the way `exec_real::execute_with` does, through public
/// functions only, recording a span around each layer call.
pub fn replay(
    plan: &FftPlan,
    data: &mut [Complex64],
    work: &mut [Complex64],
    log: &SpanLog,
    op: u64,
    parent: u64,
) -> Result<()> {
    match plan.executor {
        ExecutorKind::Pipelined => replay_pipelined(plan, data, work, log, op, parent),
        ExecutorKind::Fused => replay_fused(plan, data, work, log, op, parent),
    }
}

/// Mirrors the fused executor: one thread, load → kernel → store per
/// block through a single scratch block.
fn replay_fused(
    plan: &FftPlan,
    data: &mut [Complex64],
    work: &mut [Complex64],
    log: &SpanLog,
    op: u64,
    parent: u64,
) -> Result<()> {
    let b = plan.buffer_elems;
    let mut buf = log.time("core.fused_scratch_alloc", op, Some(parent), |_| {
        try_vec_zeroed::<Complex64>(b, "replay scratch")
    })?;
    for (s, stage) in plan.stages().iter().enumerate() {
        let (src, dst): (&[Complex64], &mut [Complex64]) = if s % 2 == 0 {
            (&*data, &mut *work)
        } else {
            (&*work, &mut *data)
        };
        let mut kernel = log.time("kernels.batch_new", op, Some(parent), |_| {
            BatchFft::with_variant(stage.fft_size, stage.lanes, plan.dir, plan.kernel)
        });
        log.time("core.replay_stage", op, Some(parent), |id| {
            for blk in 0..src.len() / b {
                log.time("kernels.load", op, Some(id), |_| {
                    load_contiguous(src, &mut buf, blk * b, 0..b)
                });
                log.time("kernels.batch_run", op, Some(id), |_| kernel.run(&mut buf));
                let w = WriteMatrix::new(stage.perm, b, blk);
                log.time("kernels.store", op, Some(id), |_| {
                    store_through_write_matrix(
                        &buf,
                        dst,
                        &w,
                        0..write_matrix_packets(&w),
                        plan.non_temporal,
                    )
                });
            }
        });
    }
    if plan.stages().len() % 2 == 1 {
        log.time("core.final_copy", op, Some(parent), |_| {
            data.copy_from_slice(work)
        });
    }
    Ok(())
}

/// Mirrors the pipelined executor's stages. Supports the
/// single-data-thread plans this benchmark runs: with one data thread
/// the store callback owns the destination outright, so the replay
/// needs no shared-pointer handoff.
fn replay_pipelined(
    plan: &FftPlan,
    data: &mut [Complex64],
    work: &mut [Complex64],
    log: &SpanLog,
    op: u64,
    parent: u64,
) -> Result<()> {
    if plan.p_d != 1 {
        return Err(BenchError::new(
            "the replay mirrors pipelined plans with one data thread",
        ));
    }
    let buffer = log.time("pipeline.dbuf_alloc", op, Some(parent), |_| {
        DoubleBuffer::try_new(plan.buffer_elems)
    })?;
    for (s, stage) in plan.stages().iter().enumerate() {
        // Stages alternate data→work→data→…, as in the executor.
        let (src, dst): (&[Complex64], &mut [Complex64]) = if s % 2 == 0 {
            (&*data, &mut *work)
        } else {
            (&*work, &mut *data)
        };
        log.time("core.replay_stage", op, Some(parent), |id| {
            replay_stage(plan, stage, s, &buffer, src, dst, log, op, id)
        })?;
    }
    if plan.stages().len() % 2 == 1 {
        log.time("core.final_copy", op, Some(parent), |_| {
            data.copy_from_slice(work)
        });
    }
    Ok(())
}

type Intervals = Vec<(u64, u64)>;

#[allow(clippy::too_many_arguments)]
fn replay_stage(
    plan: &FftPlan,
    stage: &StageSpec,
    stage_idx: usize,
    buffer: &DoubleBuffer,
    src: &[Complex64],
    dst: &mut [Complex64],
    log: &SpanLog,
    op: u64,
    parent: u64,
) -> Result<()> {
    let b = plan.buffer_elems;
    let nt = plan.non_temporal;
    let perm = stage.perm;
    let packets = write_matrix_packets(&WriteMatrix::new(perm, b, 0));
    let kernels: Vec<BatchFft> = (0..plan.p_c)
        .map(|_| {
            log.time("kernels.batch_new", op, Some(parent), |_| {
                BatchFft::with_variant(stage.fft_size, stage.lanes, plan.dir, plan.kernel)
            })
        })
        .collect();

    // Callbacks time themselves into thread-owned interval lists, which
    // become spans once the pipeline has joined.
    let mut load_iv = Intervals::new();
    let mut store_iv = Intervals::new();
    let mut compute_iv: Vec<Intervals> = vec![Intervals::new(); plan.p_c];
    let lt = &mut load_iv;
    let st = &mut store_iv;
    let loaders: Vec<LoadFn> = vec![Box::new(move |blk, off, share: &mut [Complex64]| {
        let t0 = log.now();
        load_contiguous(src, share, blk * b + off, 0..share.len());
        lt.push((t0, log.now()));
    })];
    let storers: Vec<StoreFn> = vec![Box::new(move |blk, half: &[Complex64]| {
        let t0 = log.now();
        let w = WriteMatrix::new(perm, b, blk);
        store_through_write_matrix(half, dst, &w, 0..packets, nt);
        st.push((t0, log.now()));
    })];
    let computes: Vec<ComputeFn> = kernels
        .into_iter()
        .zip(compute_iv.iter_mut())
        .map(|(mut kernel, ct)| {
            Box::new(move |_blk, _off, share: &mut [Complex64]| {
                let t0 = log.now();
                kernel.run(share);
                ct.push((t0, log.now()));
            }) as ComputeFn
        })
        .collect();
    let cfg = PipelineConfig {
        iters: plan.iters_per_socket() * plan.sockets,
        load_unit: plan.mu.min(b),
        compute_unit: stage.pencil_elems(),
        pin_cpus: plan.pin_cpus.clone(),
        stage: stage_idx,
        ..PipelineConfig::default()
    };
    let mut run_id = 0;
    log.time("pipeline.run_pipeline", op, Some(parent), |id| {
        run_id = id;
        run_pipeline(
            buffer,
            &cfg,
            PipelineCallbacks {
                loaders,
                storers,
                computes,
            },
        )
    })?;
    for (name, ivs) in [("kernels.load", &load_iv), ("kernels.store", &store_iv)] {
        for &(a, z) in ivs {
            log.record(name, op, Some(run_id), a, z);
        }
    }
    for &(a, z) in compute_iv.iter().flatten() {
        log.record("kernels.batch_run", op, Some(run_id), a, z);
    }
    Ok(())
}

/// `run_pipeline` with empty callbacks at each stage's iteration count
/// and units: the thread spawn and barrier skeleton alone.
fn noop_pipeline(
    plan: &FftPlan,
    buffer: &DoubleBuffer,
    log: &SpanLog,
    op: u64,
    parent: u64,
) -> Result<()> {
    for (s, stage) in plan.stages().iter().enumerate() {
        let cfg = PipelineConfig {
            iters: plan.iters_per_socket() * plan.sockets,
            load_unit: plan.mu.min(plan.buffer_elems),
            compute_unit: stage.pencil_elems(),
            pin_cpus: plan.pin_cpus.clone(),
            stage: s,
            ..PipelineConfig::default()
        };
        let callbacks = PipelineCallbacks {
            loaders: (0..plan.p_d)
                .map(|_| Box::new(|_, _, _: &mut [Complex64]| {}) as LoadFn)
                .collect(),
            storers: (0..plan.p_d)
                .map(|_| Box::new(|_, _: &[Complex64]| {}) as StoreFn)
                .collect(),
            computes: (0..plan.p_c)
                .map(|_| Box::new(|_, _, _: &mut [Complex64]| {}) as ComputeFn)
                .collect(),
        };
        log.time("pipeline.run_noop_stage", op, Some(parent), |_| {
            run_pipeline(buffer, &cfg, callbacks)
        })?;
    }
    Ok(())
}
