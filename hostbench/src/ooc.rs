//! The `ooc1d` workload: a 1D transform of 2^20 points through the
//! out-of-core tier under a 4 MiB budget (a quarter of the payload).
//!
//! The input store is filled once; each timed call is one
//! `ooc::exec::execute` into the same output store. The first output is
//! verified by `ooc::oracle::verify` (direct-DFT spot bins plus a
//! streamed Parseval check); every later output must carry the same
//! order-independent payload fingerprint, so every timed output is
//! checked. Stores live under `.bench_work/` in the working directory
//! and go through the page cache (nothing is fsync'd without a
//! checkpoint journal), so the run measures syscalls and copies, not
//! the disk.

use crate::measure::{self, median, ms, summarize, us, PeakHeap};
use crate::spans::{per_op_sum, SpanLog};
use crate::{BenchError, Opts, Outcome, Result};
use bwfft_core::metrics::pseudo_flops;
use bwfft_kernels::batch::BatchFft;
use bwfft_kernels::Direction;
use bwfft_num::Complex64;
use bwfft_ooc::{
    fill_random, fill_random_fingerprinted, input_fingerprint, OocConfig, OocPlan, OocReport,
    OocStore, OracleConfig, OracleReport, Workspace,
};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Scratch root, relative to the working directory.
pub const WORK_DIR: &str = ".bench_work";

struct Sizing {
    n: usize,
    setup_reps: usize,
    warmup: usize,
    traced_ops: usize,
}

fn sizing(quick: bool) -> Sizing {
    if quick {
        Sizing {
            n: 1 << 12,
            setup_reps: 2,
            warmup: 1,
            traced_ops: 2,
        }
    } else {
        Sizing {
            n: 1 << 20,
            setup_reps: 3,
            warmup: 2,
            traced_ops: 5,
        }
    }
}

fn config(n: usize) -> OocConfig {
    OocConfig {
        budget_bytes: n * 16 / 4,
        ..OocConfig::default()
    }
}

/// The input store plus the workspace that owns it.
struct Input {
    _ws: Workspace,
    store: OocStore,
}

fn make_input(root: &Path, plan: &OocPlan) -> Result<Input> {
    let ws = Workspace::create_under(root)?;
    let store = OocStore::create(&ws.path("input.bin"), plan.n1, plan.n2, plan.stride_cols_n2)?;
    Ok(Input { _ws: ws, store })
}

/// One output store in its own workspace (scratch stores land there).
struct Output {
    ws: Workspace,
    store: OocStore,
}

fn make_output(root: &Path, plan: &OocPlan) -> Result<Output> {
    let ws = Workspace::create_under(root)?;
    let store = OocStore::create(
        &ws.path("output.bin"),
        plan.n2,
        plan.n1,
        plan.stride_cols_n1,
    )?;
    Ok(Output { ws, store })
}

pub fn input_digest(seed: u64, quick: bool) -> Result<u64> {
    in_work_root(|root| {
        let s = sizing(quick);
        let plan = bwfft_ooc::plan(s.n, &config(s.n))?;
        let input = make_input(root, &plan)?;
        Ok(fill_random_fingerprinted(&input.store, seed)?)
    })
}

/// Runs `f` with the scratch root created; afterwards removes the root
/// if nothing else is using it (best effort).
fn in_work_root<T>(f: impl FnOnce(&Path) -> Result<T>) -> Result<T> {
    let root = PathBuf::from(WORK_DIR);
    std::fs::create_dir_all(&root)?;
    let out = f(&root);
    let _ = std::fs::remove_dir(&root);
    out
}

/// The oracle's error relative to `Σ|x|`, the scale its tolerance uses.
fn oracle_rel_err(rep: &OracleReport, cfg: &OracleConfig) -> f64 {
    rep.max_abs_err * cfg.rel_tol / rep.tol.max(f64::MIN_POSITIVE)
}

pub fn run(opts: &Opts) -> Result<Outcome> {
    in_work_root(|root| run_in(root, opts))
}

fn run_in(root: &Path, opts: &Opts) -> Result<Outcome> {
    let s = sizing(opts.quick);
    let cfg = config(s.n);
    let oracle_cfg = OracleConfig::default();
    let mut out = Outcome::default();

    let plan0 = bwfft_ooc::plan(s.n, &cfg)?;
    let input = make_input(root, &plan0)?;
    let t0 = Instant::now();
    fill_random(&input.store, opts.seed)?;
    let fill_ns = t0.elapsed().as_nanos() as f64;

    // Set-up: plan, workspace, output store and the first execute;
    // filling the input is excluded. Repeated; `setup_s` is the median.
    let mut setup_ns = Vec::with_capacity(s.setup_reps);
    let mut state = None;
    let mut held = 0;
    for _ in 0..s.setup_reps.max(1) {
        drop(state.take()); // free the previous repetition first
        let before = measure::live_heap_bytes();
        let t0 = Instant::now();
        let plan = bwfft_ooc::plan(s.n, &cfg)?;
        let output = make_output(root, &plan)?;
        let first = bwfft_ooc::execute(&plan, &cfg, &output.ws, &input.store, &output.store);
        setup_ns.push(t0.elapsed().as_nanos() as f64);
        out.check(first.is_ok());
        first?;
        state = Some((plan, output));
        held = measure::live_heap_bytes().saturating_sub(before);
    }
    let (plan, output) = state.ok_or_else(|| BenchError::new("set-up produced no plan"))?;

    let t0 = Instant::now();
    let oracle = bwfft_ooc::verify(&input.store, &output.store, &plan, &oracle_cfg);
    let oracle_ns = t0.elapsed().as_nanos() as f64;
    out.check(oracle.is_ok());
    let oracle = oracle?;
    let expected_fp = input_fingerprint(&output.store)?;
    let check_output = |out: &mut Outcome, ran: bool| -> Result<()> {
        let same = input_fingerprint(&output.store)? == expected_fp;
        out.check(ran && same);
        Ok(())
    };

    for _ in 0..s.warmup {
        let r = bwfft_ooc::execute(&plan, &cfg, &output.ws, &input.store, &output.store);
        check_output(&mut out, r.is_ok())?;
    }

    let mut lat_ns = Vec::new();
    let mut heap = PeakHeap::new(held);
    let (mut good, mut good_ns) = (0u64, 0.0f64);
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    loop {
        heap.arm();
        let t0 = Instant::now();
        let r = bwfft_ooc::execute(&plan, &cfg, &output.ws, &input.store, &output.store);
        let dt = t0.elapsed().as_nanos() as f64;
        heap.sample();
        lat_ns.push(dt);
        let last = Instant::now() >= deadline;
        if last && opts.flip_bit {
            let mut one = [Complex64::ZERO];
            output.store.read_row_segment(0, 0, &mut one)?;
            measure::flip_sign_bit(&mut one);
            output.store.write_row_segment(0, 0, &one)?;
        }
        let failed_before = out.failed;
        check_output(&mut out, r.is_ok())?;
        if out.failed == failed_before {
            good += 1;
            good_ns += dt;
        }
        if last {
            break;
        }
    }
    let sm = summarize(&lat_ns)?;
    out.e2e("latency_p50_ms", ms(sm.p50), "ms");
    out.e2e("latency_tail_ms", ms(sm.tail), "ms");
    out.e2e("throughput_gflops", pseudo_flops(s.n) / sm.p50, "Gflop/s");
    out.e2e(
        "goodput_rps",
        good as f64 / (good_ns / 1e9).max(1e-9),
        "1/s",
    );
    out.e2e("setup_s", median(&setup_ns) / 1e9, "s");
    out.e2e("peak_heap_mib", heap.median_mib()?, "MiB");
    let rel_err = oracle_rel_err(&oracle, &oracle_cfg);
    out.note(format!(
        "plan: n={} split {}x{} half={} budget={} B",
        plan.n, plan.n1, plan.n2, plan.half_elems, cfg.budget_bytes
    ));
    out.note(sm.describe("timed pass"));
    out.note(format!(
        "set-up: median of {} repetitions; oracle: {} spot bins, max err {:.3e} of sum|x| \
         (tolerance {:.0e}); later outputs checked by payload fingerprint",
        setup_ns.len(),
        oracle.bins_checked,
        rel_err,
        oracle_cfg.rel_tol
    ));

    if opts.trace {
        measure::host_layers(&mut out, opts.quick);
        let log = SpanLog::new();
        let mut reports: Vec<OocReport> = Vec::new();
        for op in 0..s.traced_ops as u64 {
            let r = log.time("ooc.execute", op, None, |_| {
                bwfft_ooc::execute(&plan, &cfg, &output.ws, &input.store, &output.store)
            });
            check_output(&mut out, r.is_ok())?;
            reports.push(r?);
        }
        let op = s.traced_ops as u64;
        log.time("ooc.fill", op, None, |_| {
            fill_random(&input.store, opts.seed)
        })?;
        let verified = log.time("ooc.oracle", op, None, |_| {
            bwfft_ooc::verify(&input.store, &output.store, &plan, &oracle_cfg)
        });
        out.check(verified.is_ok());
        kernel_replay(&plan, &log, op + 1);
        let spans = log.snapshot();
        ooc_layers(&spans, &reports, fill_ns, oracle_ns, sm.p50, &mut out);
        out.spans = spans;
        measure::check_layers(&mut out, rel_err);
    }
    Ok(out)
}

/// The stride-1 batched kernels the four-step's two DFT stages run —
/// `n2` rows of `DFT_n1`, then `n1` rows of `DFT_n2` — timed from the
/// outside over one in-memory copy of the payload.
fn kernel_replay(plan: &OocPlan, log: &SpanLog, op: u64) {
    let mut buf = bwfft_num::signal::random_complex(plan.n, 1);
    for m in [plan.n1, plan.n2] {
        let mut k = log.time("kernels.batch_new", op, None, |_| {
            BatchFft::new(m, 1, Direction::Forward)
        });
        log.time("kernels.batch_run", op, None, |_| k.run(&mut buf));
    }
}

fn ooc_layers(
    spans: &[crate::spans::Span],
    reports: &[OocReport],
    fill_ns: f64,
    oracle_ns: f64,
    untraced_p50_ns: f64,
    out: &mut Outcome,
) {
    let med = |f: &dyn Fn(&OocReport) -> f64| median(&reports.iter().map(f).collect::<Vec<_>>());
    let execute = median(&per_op_sum(spans, "ooc.execute"));
    let io = med(&|r| r.io_ns as f64);
    let n = reports.first().map_or(0, |r| r.n);
    let batch_run = median(&per_op_sum(spans, "kernels.batch_run"));
    out.layer("ooc.fill_ms", ms(fill_ns), "ms");
    out.layer("ooc.execute_ms", ms(execute), "ms");
    out.layer("ooc.io_ms", ms(io), "ms");
    out.layer("ooc.non_io_ms", ms(execute - io), "ms");
    out.layer("ooc.storage_gbs", med(&|r| r.storage_gbs()), "GB/s");
    out.layer("ooc.bytes_read", med(&|r| r.bytes_read as f64), "bytes");
    out.layer(
        "ooc.bytes_written",
        med(&|r| r.bytes_written as f64),
        "bytes",
    );
    out.layer(
        "ooc.retries",
        reports.iter().map(|r| f64::from(r.retries)).sum(),
        "count",
    );
    out.layer(
        "ooc.serial_fallbacks",
        reports.iter().map(|r| f64::from(r.serial_fallbacks)).sum(),
        "count",
    );
    out.layer("ooc.oracle_ms", ms(oracle_ns), "ms");
    out.layer(
        "kernels.batch_new_us",
        us(median(&per_op_sum(spans, "kernels.batch_new"))),
        "us",
    );
    out.layer("kernels.batch_run_ms", ms(batch_run), "ms");
    out.layer(
        "kernels.batch_gflops",
        pseudo_flops(n) / batch_run.max(1.0),
        "Gflop/s",
    );
    out.layer(
        "bench.trace_overhead_pct",
        measure::pct_change(execute, untraced_p50_ns),
        "%",
    );
}
