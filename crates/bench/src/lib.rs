//! `bwfft-bench` — the statistical benchmark harness and the shared
//! utilities behind the figure/table regeneration binaries.
//!
//! Two layers live here:
//!
//! * **The measured harness** (DESIGN.md §9): [`stats`] (MAD outlier
//!   rejection, median, bootstrap CIs), [`measure`] (the
//!   warmup/time/trace loop over the real executors), [`suite`] (the
//!   canonical paper-derived case list), [`record`] (the versioned
//!   `bwfft-bench/1` JSON schema written to `BENCH_<gitrev>.json`),
//!   and [`compare`] (the regression gate pairing two BENCH files).
//!   [`run_suite`] ties them together; `bwfft-cli bench` and
//!   `scripts/perf_gate.sh` drive it.
//! * **Model-figure helpers**: every binary in `src/bin/` regenerates
//!   one table or figure of the paper (see DESIGN.md §4 for the index)
//!   and prints an aligned text table with the same rows/series the
//!   paper plots. Absolute numbers are *model* numbers from the
//!   machine simulator; the reproduction contract is the shape: who
//!   wins, by what factor, where crossovers fall. EXPERIMENTS.md
//!   records paper-vs-measured for each artifact.

pub mod compare;
pub mod measure;
pub mod record;
pub mod serve_bench;
pub mod stats;
pub mod suite;

use bwfft_baselines::{simulate_baseline, BaselineKind};
use bwfft_core::exec_sim::{simulate, SimOptions};
use bwfft_core::{Dims, FftPlan};
use bwfft_machine::stats::PerfReport;
use bwfft_machine::MachineSpec;
use bwfft_tuner::HostFingerprint;
use std::fmt;

use measure::{measure_plan, measure_plan_paired, Measured, MeasureConfig};
use record::{BenchReport, StageMetric, SuiteResult};
use stats::StatsConfig;
use suite::{suite, SuiteCase, SuiteKind};

/// Why a suite run could not produce a record. Each variant names the
/// suite key so a CI failure is attributable without a backtrace.
#[derive(Debug)]
pub enum HarnessError {
    Plan { key: String, error: bwfft_core::PlanError },
    Exec { key: String, error: bwfft_core::CoreError },
    Stats { key: String, error: stats::StatsError },
    Serve { key: String, error: bwfft_serve::ServeError },
    Ooc { key: String, error: bwfft_ooc::OocError },
}

impl fmt::Display for HarnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HarnessError::Plan { key, error } => write!(f, "suite {key}: planning failed: {error}"),
            HarnessError::Exec { key, error } => write!(f, "suite {key}: execution failed: {error}"),
            HarnessError::Stats { key, error } => write!(f, "suite {key}: statistics failed: {error}"),
            HarnessError::Serve { key, error } => write!(f, "suite {key}: serving failed: {error}"),
            HarnessError::Ooc { key, error } => {
                write!(f, "suite {key}: out-of-core run failed: {error}")
            }
        }
    }
}

impl std::error::Error for HarnessError {}

/// Runs the canonical suite and assembles the versioned record.
/// `anchor` supplies the STREAM roofline the per-stage
/// `percent_of_stream` column is computed against; `progress` (when
/// true) prints one line per case as it completes.
pub fn run_suite(
    kind: SuiteKind,
    measure_cfg: &MeasureConfig,
    stats_cfg: &StatsConfig,
    anchor: &MachineSpec,
    progress: bool,
) -> Result<BenchReport, HarnessError> {
    let stream_gbs = anchor.total_dram_bw_gbs();
    let mut suites = Vec::new();
    for case in suite(kind) {
        let plan = case.build_plan().map_err(|error| HarnessError::Plan {
            key: case.key.clone(),
            error,
        })?;
        let measured =
            measure_plan(&plan, measure_cfg, Some(stream_gbs)).map_err(|error| {
                HarnessError::Exec {
                    key: case.key.clone(),
                    error,
                }
            })?;
        let result = suite_result(&case, &plan, measured, measure_cfg, stats_cfg)?;
        if progress {
            println!(
                "  {:<34} median {:>10.3} ms  ±{:>4.1}%  {:>6.2} GF/s  ({} reps, {} rejected)",
                case.key,
                result.stats.median_ns / 1e6,
                result.stats.ci_halfwidth_pct(),
                result.gflops,
                result.stats.n_raw,
                result.stats.rejected()
            );
        }
        suites.push(result);
    }
    // The storage tier rides along on the trajectory suites (not smoke:
    // verify.sh has its own ooc smoke, and not the paired integrity
    // run, whose gate pairs in-memory reps only). The rows are new keys
    // (`ooc:*`), which the compare gate treats as unpaired — additive,
    // never a regression against pre-ooc baselines.
    if matches!(kind, SuiteKind::Fast | SuiteKind::Full) {
        for case in ooc_suite_cases(kind) {
            let result = ooc_suite_result(&case, measure_cfg, stats_cfg)?;
            if progress {
                println!(
                    "  {:<34} median {:>10.3} ms  ±{:>4.1}%  {:>6.2} GB/s storage  ({} reps)",
                    case.key,
                    result.stats.median_ns / 1e6,
                    result.stats.ci_halfwidth_pct(),
                    result.ooc.as_ref().map_or(0.0, |m| m.storage_gbs),
                    result.stats.n_raw
                );
            }
            suites.push(result);
        }
        // Real-transform rows ride along the same way: new keys
        // (`r2c:*`, `conv:*`) the compare gate treats as unpaired, so
        // they are additive against pre-real baselines. The `real`
        // column carries the acceptance number — packed bytes/element
        // must sit below the complex path's measured in the same loop.
        for case in real_suite_cases(kind) {
            let result = real_suite_result(&case, measure_cfg, stats_cfg)?;
            if progress {
                let (bpe, cbpe) = result
                    .real
                    .as_ref()
                    .map_or((0.0, 0.0), |m| (m.bytes_per_elem, m.complex_bytes_per_elem));
                println!(
                    "  {:<34} median {:>10.3} ms  ±{:>4.1}%  {:>5.1} vs {:>5.1} B/elem  ({} reps)",
                    case.key,
                    result.stats.median_ns / 1e6,
                    result.stats.ci_halfwidth_pct(),
                    bpe,
                    cbpe,
                    result.stats.n_raw
                );
            }
            suites.push(result);
        }
    }
    Ok(assemble_report(kind, measure_cfg, anchor, stream_gbs, suites))
}

/// One storage-tier trajectory case: a 1D size streamed under a budget
/// a quarter of its payload, so every stage really blocks.
struct OocSuiteCase {
    key: String,
    n: usize,
    budget_bytes: usize,
}

fn ooc_suite_cases(kind: SuiteKind) -> Vec<OocSuiteCase> {
    let mut sizes = vec![1usize << 14];
    if matches!(kind, SuiteKind::Full) {
        sizes.push(1 << 16);
    }
    sizes
        .into_iter()
        .map(|n| OocSuiteCase {
            key: format!("ooc:n{n}"),
            n,
            budget_bytes: n * 16 / 4,
        })
        .collect()
}

/// Measures one out-of-core case: warmup runs untimed, then `reps`
/// timed end-to-end runs (stream + oracle each rep), summarized like
/// any other suite row. The traced stage columns stay empty — storage
/// attribution lives in the `ooc` column instead.
fn ooc_suite_result(
    case: &OocSuiteCase,
    measure_cfg: &MeasureConfig,
    stats_cfg: &StatsConfig,
) -> Result<SuiteResult, HarnessError> {
    let cfg = bwfft_ooc::OocConfig {
        budget_bytes: case.budget_bytes,
        ..bwfft_ooc::OocConfig::default()
    };
    let oracle_cfg = bwfft_ooc::OracleConfig::default();
    let run = || {
        bwfft_ooc::run_generated(case.n, measure_cfg.seed, &cfg, &oracle_cfg).map_err(|error| {
            HarnessError::Ooc {
                key: case.key.clone(),
                error,
            }
        })
    };
    for _ in 0..measure_cfg.warmup {
        run()?;
    }
    let mut times_ns = Vec::with_capacity(measure_cfg.reps);
    let mut last = run()?;
    times_ns.push(last.report.wall_ns as f64);
    for _ in 1..measure_cfg.reps {
        last = run()?;
        times_ns.push(last.report.wall_ns as f64);
    }
    let summary = stats::summarize(&times_ns, stats_cfg).map_err(|error| HarnessError::Stats {
        key: case.key.clone(),
        error,
    })?;
    let gflops = if summary.median_ns > 0.0 {
        5.0 * case.n as f64 * (case.n as f64).log2() / summary.median_ns
    } else {
        0.0
    };
    Ok(SuiteResult {
        key: case.key.clone(),
        label: format!("n{}", case.n),
        executor: "ooc".to_string(),
        p_d: last.plan.p_d,
        p_c: last.plan.p_c,
        buffer_elems: last.plan.half_elems,
        warmup: measure_cfg.warmup,
        stats: summary,
        gflops,
        stages: Vec::new(),
        serve: None,
        ooc: Some(record::OocMetrics {
            storage_gbs: last.report.storage_gbs(),
            bytes_read: last.report.bytes_read,
            bytes_written: last.report.bytes_written,
            io_ns: last.report.io_ns,
            retries: last.report.retries as u64,
            serial_fallbacks: last.report.serial_fallbacks as u64,
            faults_hit: last.report.faults_hit as u64,
            resumed_bytes: last.report.resumed_bytes,
            reverified_blocks: last.report.reverified_blocks,
        }),
        real: None,
    })
}

/// One real-transform trajectory case: a 1D size run through the
/// packed half-spectrum path (`conv == false`) or the fused spectral
/// convolution (`conv == true`), against the same-size complex path
/// timed back to back in the same rep loop.
struct RealSuiteCase {
    key: String,
    n: usize,
    conv: bool,
}

fn real_suite_cases(kind: SuiteKind) -> Vec<RealSuiteCase> {
    let mut sizes = vec![1usize << 14];
    if matches!(kind, SuiteKind::Full) {
        sizes.push(1 << 16);
    }
    let mut out = Vec::new();
    for n in sizes {
        out.push(RealSuiteCase {
            key: format!("r2c:n{n}"),
            n,
            conv: false,
        });
        out.push(RealSuiteCase {
            key: format!("conv:n{n}"),
            n,
            conv: true,
        });
    }
    out
}

/// Measures one real-transform case. Each timed rep runs the real
/// path and the same-size complex path back to back on the same
/// input, so the `real` column's ratio has machine drift cancelled
/// out. Byte counts follow the array-I/O model (DESIGN.md §13): what
/// each path reads and writes at its boundary, not internal transform
/// traffic — `r2c` moves `8n` real bytes in and `16·(n/2+1)` packed
/// bytes out where the complex path moves `16n` in and `16n` out; the
/// fused convolution never materializes the product spectrum where
/// the complex pipeline writes and re-reads both full spectra.
fn real_suite_result(
    case: &RealSuiteCase,
    measure_cfg: &MeasureConfig,
    stats_cfg: &StatsConfig,
) -> Result<SuiteResult, HarnessError> {
    use bwfft_kernels::batch::BatchFft;
    use bwfft_kernels::realfft::{RealFft1d, SpectralConv1d};
    use bwfft_kernels::Direction;
    use bwfft_num::Complex64;

    let n = case.n;
    let half = n / 2 + 1;
    let mut rng = bwfft_num::signal::SplitMix64::new(measure_cfg.seed);
    let x: Vec<f64> = (0..n).map(|_| rng.next_f64() * 2.0 - 1.0).collect();
    let kernel: Vec<f64> = (0..n).map(|_| rng.next_f64() * 2.0 - 1.0).collect();
    let xc: Vec<Complex64> = x.iter().map(|&v| Complex64::new(v, 0.0)).collect();

    let mut real_plan = RealFft1d::new(n);
    let mut conv_plan = SpectralConv1d::new(&kernel);
    let mut fwd = BatchFft::new(n, 1, Direction::Forward);
    let mut inv = BatchFft::new(n, 1, Direction::Inverse);
    let mut spec = vec![Complex64::ZERO; half];
    let mut buf_r = vec![0.0f64; n];
    let mut buf_c = vec![Complex64::ZERO; n];
    let mut gspec = xc.clone();
    fwd.run(&mut gspec);

    // One matched rep: (real-path ns, complex-path ns).
    let mut rep = |real_plan: &mut RealFft1d, conv_plan: &mut SpectralConv1d| {
        let real_ns = if case.conv {
            buf_r.copy_from_slice(&x);
            let t = std::time::Instant::now();
            conv_plan.run(&mut buf_r);
            t.elapsed().as_nanos() as f64
        } else {
            let t = std::time::Instant::now();
            real_plan.r2c(&x, &mut spec);
            t.elapsed().as_nanos() as f64
        };
        let complex_ns = if case.conv {
            buf_c.copy_from_slice(&xc);
            let t = std::time::Instant::now();
            fwd.run(&mut buf_c);
            for (a, b) in buf_c.iter_mut().zip(&gspec) {
                *a *= *b;
            }
            inv.run(&mut buf_c);
            let scale = 1.0 / n as f64;
            for v in buf_c.iter_mut() {
                *v = v.scale(scale);
            }
            t.elapsed().as_nanos() as f64
        } else {
            buf_c.copy_from_slice(&xc);
            let t = std::time::Instant::now();
            fwd.run(&mut buf_c);
            t.elapsed().as_nanos() as f64
        };
        (real_ns, complex_ns)
    };
    for _ in 0..measure_cfg.warmup {
        rep(&mut real_plan, &mut conv_plan);
    }
    let mut real_ns = Vec::with_capacity(measure_cfg.reps);
    let mut complex_ns = Vec::with_capacity(measure_cfg.reps);
    for _ in 0..measure_cfg.reps {
        let (r, c) = rep(&mut real_plan, &mut conv_plan);
        real_ns.push(r);
        complex_ns.push(c);
    }
    let summary = stats::summarize(&real_ns, stats_cfg).map_err(|error| HarnessError::Stats {
        key: case.key.clone(),
        error,
    })?;
    let complex_summary =
        stats::summarize(&complex_ns, stats_cfg).map_err(|error| HarnessError::Stats {
            key: case.key.clone(),
            error,
        })?;

    let (packed_bytes, complex_bytes) = if case.conv {
        // Fused: x in, result out, kernel spectrum in; the product
        // spectrum is never materialized. Complex pipeline: x in,
        // spectrum out, kernel spectrum in, product out, product in,
        // result out.
        (
            (8 * n + 8 * n + 16 * half) as u64,
            (16 * n as u64) * 6,
        )
    } else {
        ((8 * n + 16 * half) as u64, 32 * n as u64)
    };
    let median_ns = summary.median_ns;
    let gflops = if median_ns > 0.0 {
        5.0 * n as f64 * (n as f64).log2() / median_ns
    } else {
        0.0
    };
    Ok(SuiteResult {
        key: case.key.clone(),
        label: format!("n{n}"),
        executor: "realfft".to_string(),
        p_d: 0,
        p_c: 1,
        buffer_elems: 0,
        warmup: measure_cfg.warmup,
        stats: summary,
        gflops,
        stages: Vec::new(),
        serve: None,
        ooc: None,
        real: Some(record::RealMetrics {
            packed_bytes,
            complex_bytes,
            bytes_per_elem: packed_bytes as f64 / n as f64,
            complex_bytes_per_elem: complex_bytes as f64 / n as f64,
            effective_gbs: if median_ns > 0.0 {
                packed_bytes as f64 / median_ns
            } else {
                0.0
            },
            complex_median_ns: complex_summary.median_ns,
        }),
    })
}

/// Runs the canonical suite with rep-level paired measurement (see
/// [`measure_plan_paired`]) and returns both records as
/// `(plain, guarded)`. This is what the integrity-overhead gate runs:
/// comparing the pair with the ordinary regression gate asserts the
/// guards' cost with machine drift cancelled out.
pub fn run_suite_paired(
    kind: SuiteKind,
    measure_cfg: &MeasureConfig,
    stats_cfg: &StatsConfig,
    anchor: &MachineSpec,
    progress: bool,
) -> Result<(BenchReport, BenchReport), HarnessError> {
    let stream_gbs = anchor.total_dram_bw_gbs();
    let mut plain_suites = Vec::new();
    let mut guarded_suites = Vec::new();
    for case in suite(kind) {
        let plan = case.build_plan().map_err(|error| HarnessError::Plan {
            key: case.key.clone(),
            error,
        })?;
        let (plain, guarded) = measure_plan_paired(&plan, measure_cfg, Some(stream_gbs))
            .map_err(|error| HarnessError::Exec {
                key: case.key.clone(),
                error,
            })?;
        let plain = suite_result(&case, &plan, plain, measure_cfg, stats_cfg)?;
        let guarded = suite_result(&case, &plan, guarded, measure_cfg, stats_cfg)?;
        if progress {
            let delta = if plain.stats.median_ns > 0.0 {
                (guarded.stats.median_ns - plain.stats.median_ns) / plain.stats.median_ns * 100.0
            } else {
                0.0
            };
            println!(
                "  {:<34} plain {:>10.3} ms  guarded {:>10.3} ms  ({:+.1}%)",
                case.key,
                plain.stats.median_ns / 1e6,
                guarded.stats.median_ns / 1e6,
                delta
            );
        }
        plain_suites.push(plain);
        guarded_suites.push(guarded);
    }
    Ok((
        assemble_report(kind, measure_cfg, anchor, stream_gbs, plain_suites),
        assemble_report(kind, measure_cfg, anchor, stream_gbs, guarded_suites),
    ))
}

/// Folds one case's measurement into the record row the BENCH schema
/// stores — shared by the plain and paired suite runners.
fn suite_result(
    case: &SuiteCase,
    plan: &FftPlan,
    measured: Measured,
    measure_cfg: &MeasureConfig,
    stats_cfg: &StatsConfig,
) -> Result<SuiteResult, HarnessError> {
    let summary = stats::summarize(&measured.times_ns, stats_cfg).map_err(|error| {
        HarnessError::Stats {
            key: case.key.clone(),
            error,
        }
    })?;
    let gflops = if summary.median_ns > 0.0 {
        plan.pseudo_flops() / summary.median_ns
    } else {
        0.0
    };
    Ok(SuiteResult {
        key: case.key.clone(),
        label: case.dims.label(),
        executor: measured.executor,
        p_d: plan.p_d,
        p_c: plan.p_c,
        buffer_elems: plan.buffer_elems,
        warmup: measure_cfg.warmup,
        stats: summary,
        gflops,
        stages: measured
            .trace
            .stages
            .iter()
            .map(|s| StageMetric {
                stage: s.stage,
                overlap_fraction: s.overlap_fraction,
                achieved_gbs: s.achieved_gbs,
                percent_of_stream: s.percent_of_achievable,
            })
            .collect(),
        serve: None,
        ooc: None,
        real: None,
    })
}

fn assemble_report(
    kind: SuiteKind,
    measure_cfg: &MeasureConfig,
    anchor: &MachineSpec,
    stream_gbs: f64,
    suites: Vec<SuiteResult>,
) -> BenchReport {
    BenchReport {
        schema: record::SCHEMA_VERSION.to_string(),
        git_rev: record::detect_git_rev(),
        suite_kind: kind.label().to_string(),
        seed: measure_cfg.seed,
        fingerprint: HostFingerprint::detect(),
        anchor_machine: anchor.name.to_string(),
        stream_gbs,
        suites,
    }
}

/// The 3D size sweep of Figs. 1 and 11 (all exponent combinations of
/// `2^9` and `2^10` per dimension), in the paper's label order.
pub fn fig1_sizes() -> Vec<(usize, usize, usize)> {
    let e = [9usize, 10];
    let mut out = Vec::new();
    for k in e {
        for n in e {
            for m in e {
                out.push((1 << k, 1 << n, 1 << m));
            }
        }
    }
    out
}

/// The large 3D sizes of Fig. 10 (up to 2048³ — 128 GiB of complex
/// doubles, the paper's largest problem).
pub fn fig10_sizes() -> Vec<(usize, usize, usize)> {
    let e = [10usize, 11];
    let mut out = Vec::new();
    for k in e {
        for n in e {
            for m in e {
                out.push((1 << k, 1 << n, 1 << m));
            }
        }
    }
    out
}

/// The 2D size sweep of Fig. 9.
pub fn fig9_sizes() -> Vec<(usize, usize)> {
    vec![
        (1024, 512),
        (1024, 1024),
        (2048, 1024),
        (2048, 2048),
        (4096, 2048),
        (4096, 4096),
        (8192, 4096),
        (8192, 8192),
    ]
}

/// Plans the double-buffered FFT the way the paper configures it for a
/// machine: `b = LLC/2`, half the threads data / half compute, one
/// plan socket per machine socket.
pub fn paper_plan(dims: Dims, spec: &MachineSpec, sockets: usize) -> FftPlan {
    let p = spec.total_threads() * sockets / spec.sockets;
    FftPlan::builder(dims)
        .buffer_elems(spec.default_buffer_elems())
        .threads(p / 2, p / 2)
        .sockets(sockets)
        .build()
        .unwrap_or_else(|e| panic!("planning {} on {}: {e}", dims.label(), spec.name))
}

/// Simulates our implementation with default options. Panics on
/// simulation failure — like [`paper_plan`], this is figure-binary
/// convenience, not library API.
#[allow(clippy::unwrap_used)]
pub fn run_ours(dims: Dims, spec: &MachineSpec, sockets: usize) -> PerfReport {
    let plan = paper_plan(dims, spec, sockets);
    simulate(&plan, spec, &SimOptions::default()).unwrap().report
}

/// One row of a comparison table.
pub struct Row {
    pub label: String,
    pub peak_gflops: f64,
    pub entries: Vec<(String, PerfReport)>,
}

/// Prints a comparison table in the paper's style: Gflop/s and percent
/// of the STREAM-bound achievable peak per implementation.
pub fn print_comparison(title: &str, rows: &[Row]) {
    println!("\n=== {title} ===");
    if rows.is_empty() {
        return;
    }
    print!("{:<18} {:>10}", "size", "peak GF/s");
    for (name, _) in &rows[0].entries {
        print!(" | {name:>22}");
    }
    println!();
    let width = 30 + rows[0].entries.len() * 25;
    println!("{}", "-".repeat(width));
    for row in rows {
        print!("{:<18} {:>10.2}", row.label, row.peak_gflops);
        for (_, rep) in &row.entries {
            print!(" | {:>12.2} ({:>5.1}%)", rep.gflops(), rep.percent_of_peak());
        }
        println!();
    }
}

/// Convenience: the three implementations of the single-socket 3D
/// comparison plots (ours, MKL-like, FFTW-like-or-slab).
pub fn compare_3d(
    spec: &MachineSpec,
    sizes: &[(usize, usize, usize)],
    fftw_kind: BaselineKind,
) -> Vec<Row> {
    sizes
        .iter()
        .map(|&(k, n, m)| {
            let dims = Dims::d3(k, n, m);
            let ours = run_ours(dims, spec, spec.sockets);
            let mkl = simulate_baseline(BaselineKind::MklLike, dims, spec);
            let fftw = simulate_baseline(fftw_kind, dims, spec);
            Row {
                label: format!("{k}x{n}x{m}"),
                peak_gflops: ours.achievable_peak_gflops,
                entries: vec![
                    ("Double-buffer (ours)".into(), ours),
                    ("MKL-like".into(), mkl),
                    (fftw_kind.label().into(), fftw),
                ],
            }
        })
        .collect()
}

/// 2D analogue of [`compare_3d`]: the row set of Fig. 9.
pub fn compare_2d(
    spec: &MachineSpec,
    sizes: &[(usize, usize)],
    fftw_kind: BaselineKind,
) -> Vec<Row> {
    sizes
        .iter()
        .map(|&(n, m)| {
            let dims = Dims::d2(n, m);
            let ours = run_ours(dims, spec, spec.sockets);
            let mkl = simulate_baseline(BaselineKind::MklLike, dims, spec);
            let fftw = simulate_baseline(fftw_kind, dims, spec);
            Row {
                label: format!("{n}x{m}"),
                peak_gflops: ours.achievable_peak_gflops,
                entries: vec![
                    ("Double-buffer (ours)".into(), ours),
                    ("MKL-like".into(), mkl),
                    (fftw_kind.label().into(), fftw),
                ],
            }
        })
        .collect()
}

/// Mean percent-of-achievable-peak of one column of a row set (column
/// 0 is "ours") — the headline number Figs. 1/9 quote.
pub fn mean_percent_of_peak(rows: &[Row], entry: usize) -> f64 {
    if rows.is_empty() {
        return 0.0;
    }
    rows.iter()
        .map(|r| r.entries[entry].1.percent_of_peak())
        .sum::<f64>()
        / rows.len() as f64
}

/// One row of the STREAM calibration table (§V): measured triad
/// bandwidth and the achievable 3D peak it implies for a 512³ problem.
pub struct StreamRow {
    pub name: &'static str,
    pub triad_gbs: f64,
    pub per_socket_gbs: f64,
    pub peak3d_gflops: f64,
}

/// Calibrates one machine preset with the STREAM triad and derives the
/// §V roofline number the figures are normalized by.
pub fn stream_row(spec: &MachineSpec) -> StreamRow {
    let r = bwfft_machine::stream::stream_triad(spec, 1 << 24);
    StreamRow {
        name: spec.name,
        triad_gbs: r.triad_gbs,
        per_socket_gbs: r.per_socket_gbs,
        peak3d_gflops: bwfft_core::metrics::achievable_peak_gflops(1 << 27, 3, r.triad_gbs),
    }
}

/// Geometric-mean speedup of `ours` over each comparator in a row set.
pub fn geomean_speedups(rows: &[Row]) -> Vec<(String, f64)> {
    if rows.is_empty() {
        return Vec::new();
    }
    let ncomp = rows[0].entries.len() - 1;
    let mut out = Vec::new();
    for c in 0..ncomp {
        let mut log_sum = 0.0;
        for row in rows {
            let ours = row.entries[0].1.time_ns;
            let other = row.entries[c + 1].1.time_ns;
            log_sum += (other / ours).ln();
        }
        out.push((
            rows[0].entries[c + 1].0.clone(),
            (log_sum / rows.len() as f64).exp(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwfft_machine::presets;

    #[test]
    fn fig1_has_eight_sizes() {
        let s = fig1_sizes();
        assert_eq!(s.len(), 8);
        assert!(s.contains(&(512, 512, 512)));
        assert!(s.contains(&(1024, 1024, 1024)));
    }

    #[test]
    fn paper_plan_uses_half_threads_each_way() {
        let spec = presets::kaby_lake_7700k();
        let p = paper_plan(Dims::d3(512, 512, 512), &spec, 1);
        assert_eq!(p.p_d, 4);
        assert_eq!(p.p_c, 4);
        assert_eq!(p.buffer_elems, spec.default_buffer_elems());
    }

    #[test]
    fn geomean_of_identical_rows_is_ratio() {
        let spec = presets::kaby_lake_7700k();
        let rows = compare_3d(&spec, &[(256, 256, 256)], BaselineKind::FftwLike);
        let sp = geomean_speedups(&rows);
        assert_eq!(sp.len(), 2);
        assert!(sp.iter().all(|(_, v)| *v > 1.0), "{sp:?}");
    }
}
