//! `bwfft-cli` — run and simulate bandwidth-efficient FFTs from the
//! command line.
//!
//! ```text
//! bwfft-cli machines
//! bwfft-cli run --dims 64x64x64 --threads 2,2 [--buffer 16384] [--inverse] [--verify]
//!               [--adapt] [--integrity] [--recover] [--inject-panic ROLE,T,I]
//!               [--timeout-ms N] [--seed S] [--profile[=json]] [--machine NAME]
//! bwfft-cli simulate --dims 512x512x512 --machine kabylake [--sockets 2] [--baselines]
//! bwfft-cli stream --machine haswell2667
//! bwfft-cli tune --dims 64x64 [--inverse] [--model-only] [--plan-stats] [--wisdom PATH]
//!               [--profile[=json]]
//! bwfft-cli bench [--suite smoke|fast|full] [--reps N] [--warmup N] [--seed S]
//!                 [--machine NAME] [--out PATH] [--derate F]
//!                 [--integrity [--baseline-out PATH]]
//!                 [--compare BASELINE [--current PATH]] [--threshold PCT]
//! bwfft-cli soak [--iters N] [--seed S] [--stall-ms N] [--serve [--serve-iters N]]
//!                [--ooc-kill [--ooc-dir PATH]]
//! bwfft-cli serve --requests N [--dims KxNxM] [--buffer B] [--threads D,C]
//!                 [--workers W] [--queue-depth Q] [--byte-budget BYTES]
//!                 [--deadline-ms N] [--arrival-us N] [--seed S]
//! bwfft-cli ooc --n N [--budget BYTES] [--bins K] [--seed S] [--inverse]
//!               [--threads D,C] [--inject-io-fault KIND,STAGE,ITER]
//!               [--workspace PATH [--resume] [--keep-workspace]
//!                [--resume-verify sample:K|all] [--crash-at STAGE,BLOCK]]
//! bwfft-cli workspace gc --dir PATH [--older-than-secs N]
//! bwfft-cli r2c --dims KxNxM [--threads D,C] [--buffer B] [--seed S] [--verify]
//!               [--integrity] [--recover] [--inject-panic ROLE,T,I] [--timeout-ms N]
//! bwfft-cli conv --dims KxNxM [--threads D,C] [--buffer B] [--seed S] [--impulse]
//!                [--verify] [--integrity] [--recover] [--inject-panic ROLE,T,I]
//!                [--timeout-ms N]
//! ```
//!
//! `--profile` traces the run and prints the per-stage roofline/overlap
//! summary; `--profile=json` emits the versioned JSON trace report as
//! the **last line** of stdout instead. On `run`, `--machine` names the
//! preset whose STREAM bandwidth anchors the %-of-achievable column
//! (default: kabylake).
//!
//! `bench` runs the canonical statistical suite (DESIGN.md §9) and
//! writes a versioned `bwfft-bench/1` record to `BENCH_<gitrev>.json`.
//! With `--compare BASELINE` it then gates against a baseline record:
//! the human diff table goes to stdout, the machine-readable verdict
//! is the **last line** of stdout, and a significant regression makes
//! the exit code nonzero (this is what `scripts/perf_gate.sh` wires
//! into CI). `--current PATH` compares two existing files without
//! running anything; `--derate F` pretends the run was `F`× slower — a
//! self-test proving the gate trips. `--integrity` arms the
//! steady-state guards (canaries + checksums) in the timed reps;
//! adding `--baseline-out PATH` switches to *paired* measurement —
//! every timed iteration runs one plain and one guarded rep, so slow
//! machine drift cancels out of the pair. The plain record goes to
//! PATH, the guarded one to `--out`, and the two are gated against
//! each other automatically (unless an explicit `--compare` overrides
//! the baseline). This is how the integrity-overhead budget in
//! `scripts/verify.sh` is enforced.
//!
//! `run --integrity` arms every integrity guard (buffer canaries,
//! per-block checksums, the whole-run Parseval check); `run --recover`
//! executes under the retry/backoff supervisor, which escalates
//! pipelined → fused → reference on repeated failure and prints the
//! recovery trail (also visible as `recovery` marks under
//! `--profile`). `soak` drives the randomized chaos harness for a
//! seeded number of iterations and fails (exit 1) on any contract
//! violation.
//!
//! `ooc` runs the out-of-core streaming tier (`bwfft-ooc`): a seeded
//! 1D transform staged through file-backed stores under a working
//! memory budget, verified by the sampled spot-check oracle and the
//! streamed Parseval identity. `--inject-io-fault read,1,0` arms a
//! one-shot storage fault (kind, stage index 0–4, block iteration) that
//! the stage-level retry ladder must absorb; the report line counts
//! `faults_hit` and retries so `scripts/verify.sh` can assert the
//! recovery actually happened.
//!
//! `ooc --workspace PATH` switches to the crash-safe lifecycle
//! (DESIGN.md §15): the run works in the named directory and commits a
//! durable `bwfft-ooc-journal/1` checkpoint record per completed block.
//! If the process dies — crash, OOM-kill, power cut, or the test-only
//! `--crash-at STAGE,BLOCK` abort — the workspace is kept and `ooc
//! --workspace PATH --resume` continues from the journal: it validates
//! the journaled plan and input fingerprint, re-verifies stored block
//! checksums per `--resume-verify` (default `sample:4`; `all` for
//! drills), skips completed work, and reruns at most the one in-flight
//! stage. The `resume:` report line carries the machine-parseable
//! skipped/re-verified/rework counters that `soak --ooc-kill`,
//! `tests/ooc_crash.rs` and the CI `ooc-crash` smoke assert. `workspace
//! gc` sweeps abandoned unnamed scratch directories; named checkpoint
//! workspaces are never touched. `soak --ooc-kill` runs the
//! kill/restart drill: child `ooc` processes aborted at seeded
//! (stage, block) points across all five stages, journals torn,
//! scratch blocks bit-flipped, then resumed — never wrong, never a
//! panic, rework bounded by one stage.
//!
//! `r2c` runs a real-input transform through the packed half-spectrum
//! path (DESIGN.md §13): r2c, the unnormalized c2r round-trip, the
//! packed-Parseval identity, and (with `--verify`) a differential
//! check against the reference tier. `conv` runs the planned *fused*
//! spectral convolution (`r2c → multiply fused into the merge stream →
//! c2r`) against a random kernel or — with `--impulse` — the unit
//! impulse, whose convolution must reproduce the input exactly;
//! `--verify` compares against the unfused reference pipeline and, on
//! small sizes, the direct O(n²) oracle. Both take the same
//! fault-tolerance flags as `run` (`--integrity`, `--recover`,
//! `--inject-panic`, `--timeout-ms`) and follow the §6 exit-code
//! discipline.
//!
//! `serve` drives the overload-safe concurrent service
//! (`bwfft-serve`) with an open-loop request schedule and prints the
//! drained report: completions with p50/p99 latency, rejections by
//! reason, deadline misses, degradation-governor transitions. `bench
//! --suite serve` runs the same driver through the statistical harness
//! and writes a `bwfft-bench/1` record whose service row carries
//! requests/sec, p50/p99 and the outcome counts; `--compare` then
//! gates the p99 tail exactly like medians.
//!
//! The server always counts into a registry; `serve --metrics` only
//! selects export, and arms the flight recorder: Prometheus text (or, with `--metrics=json`, one-line
//! `bwfft-metrics/1` JSON as stdout's **last line**) is emitted at the
//! end of the run, every `--metrics-every-ms` milliseconds while it is
//! running, and any `bwfft-flight/1` dumps the recorder captured
//! (breaker degradations, integrity trips, panics) are printed before
//! the final snapshot. `stat --from A.json --to B.json` diffs two
//! snapshot transcripts into per-second rates and interval
//! percentiles. `bench --suite serve --metrics-overhead --baseline-out
//! PATH` measures the paired metrics-off/metrics-on runs and gates the
//! instrumentation overhead with the ordinary compare threshold — this
//! is how the `< 2%` budget in `scripts/verify.sh` and the CI
//! `metrics-overhead` job is enforced.
//!
//! ## Exit-code discipline
//!
//! | code | class | errors |
//! |------|-------|--------|
//! | 0 | success | — |
//! | 0 | serve drained | graceful drain: every submission got exactly one typed outcome; shed requests (`queue_full`, `byte_budget`, `pool_exhausted`, `breaker_open`, `shutting_down`) and `deadline-exceeded` outcomes are counted and reported, not faults |
//! | 1 | runtime fault | `WorkerPanicked`, `StageTimeout`, `Simulation`, `Integrity`, `Allocation`, failed verification, perf regression, soak contract violation, non-usage `Tuner`, every typed `ooc` failure (infeasible size/budget, exhausted stage ladder, oracle or Parseval mismatch, journal clobber/corruption, resume plan or fingerprint mismatch, scratch corruption) |
//! | 1 | serve fault | `Failed` request outcomes, drain accounting that does not balance, serve-soak contract violation |
//! | 2 | usage | `Plan`, `Config`, `InputLength`, `SocketMismatch`, bad-wisdom `Tuner`, bad flags, serve `InvalidRequest`/`InputLength` (malformed descriptors are the caller's fault, never load shedding) |
//!
//! The mapping is `BwfftError::is_usage()` / `ServeError::is_usage()`;
//! `exit_code_discipline` and `serve_exit_code_discipline` in the test
//! module assert it variant by variant. User errors print a one-line
//! typed message, never a backtrace.

use bwfft::baselines::{reference_impl, simulate_baseline, BaselineKind};
use bwfft::bench::compare::{compare, derate, verdict_json, GateConfig};
use bwfft::bench::measure::MeasureConfig;
use bwfft::bench::record::{bench_filename, read_file, write_file, BenchReport};
use bwfft::bench::serve_bench::{
    run_open_loop, run_serve_suite, run_serve_suite_paired, ServeBenchConfig,
};
use bwfft::bench::stats::StatsConfig;
use bwfft::bench::suite::SuiteKind;
use bwfft::bench::{run_suite, run_suite_paired};
use bwfft::core::exec_sim::{simulate, SimOptions};
use bwfft::core::{exec_real, Dims, FftPlan, RetryPolicy, Supervisor};
use bwfft::kernels::Direction;
use bwfft::machine::stream::stream_triad;
use bwfft::machine::{presets, MachineSpec};
use bwfft::metrics::{FlightRecorder, MetricsSnapshot, Registry};
use bwfft::num::compare::rel_l2_error;
use bwfft::num::{signal, AlignedVec, Complex64};
use bwfft::ooc::{
    gc_stale, run_checkpointed, CheckpointRun, CrashMode, CrashPoint, OocConfig, OocFault,
    OocFaultKind, OracleConfig, ResumeVerify,
};
use bwfft::pipeline::{AdaptiveWatchdog, FaultPlan, IntegrityConfig, Role};
use bwfft::real::{packed_spectrum_energy, RealFftPlan, SpectralConvPlan};
use bwfft::serve::ServeError;
use bwfft::soak::{
    run_ooc_kill_soak, run_serve_soak, run_soak, OocKillSoakConfig, ServeSoakConfig, SoakConfig,
};
use bwfft::trace::TraceCollector;
use bwfft::tuner::{wisdom, HostFingerprint, PlanCache, Tuner, TunerOptions, Wisdom, WisdomLoad};
use bwfft::BwfftError;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

/// CLI failure, split by whose fault it is: usage errors (exit 2,
/// usage text shown) vs runtime faults (exit 1, typed message only).
#[derive(Debug)]
enum CliError {
    Usage(String),
    Runtime(String),
}

impl From<BwfftError> for CliError {
    fn from(e: BwfftError) -> Self {
        if e.is_usage() {
            CliError::Usage(e.to_string())
        } else {
            CliError::Runtime(e.to_string())
        }
    }
}

impl From<ServeError> for CliError {
    fn from(e: ServeError) -> Self {
        // Malformed descriptors are the caller's fault (exit 2); load
        // shedding surfaced as an error is a runtime condition (exit 1).
        if e.is_usage() {
            CliError::Usage(e.to_string())
        } else {
            CliError::Runtime(e.to_string())
        }
    }
}

fn usage(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}");
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
        Err(CliError::Runtime(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
usage:
  bwfft-cli machines
  bwfft-cli run --dims KxNxM [--threads D,C] [--buffer B] [--inverse] [--verify]
                [--adapt] [--integrity] [--recover] [--inject-panic ROLE,T,I]
                [--timeout-ms N] [--profile[=json]] [--machine NAME]
  bwfft-cli simulate --dims KxNxM --machine NAME [--sockets S] [--baselines]
  bwfft-cli stream --machine NAME
  bwfft-cli tune --dims KxNxM [--inverse] [--model-only] [--plan-stats] [--wisdom PATH]
                [--profile[=json]]
  bwfft-cli bench [--suite smoke|fast|full|serve] [--reps N] [--warmup N] [--seed S]
                  [--machine NAME] [--out PATH] [--derate F]
                  [--integrity [--baseline-out PATH]]
                  [--compare BASELINE [--current PATH]] [--threshold PCT]
                  [--requests N] [--workers W] [--arrival-us N]
                  [--metrics-overhead --baseline-out PATH]
  bwfft-cli soak [--iters N] [--seed S] [--stall-ms N] [--serve [--serve-iters N]]
                 [--ooc-kill [--ooc-dir PATH]]
  bwfft-cli serve --requests N [--dims KxNxM] [--buffer B] [--threads D,C]
                  [--workers W] [--queue-depth Q] [--byte-budget BYTES]
                  [--deadline-ms N] [--arrival-us N] [--seed S]
                  [--metrics[=json|prom]] [--metrics-every-ms N]
  bwfft-cli stat --from A.json --to B.json
  bwfft-cli ooc --n N [--budget BYTES] [--bins K] [--seed S] [--inverse]
                [--threads D,C] [--inject-io-fault KIND,STAGE,ITER]
                [--workspace PATH [--resume] [--keep-workspace]
                 [--resume-verify sample:K|all] [--crash-at STAGE,BLOCK]]
  bwfft-cli workspace gc --dir PATH [--older-than-secs N]
  bwfft-cli r2c --dims KxNxM [--threads D,C] [--buffer B] [--seed S] [--verify]
                [--integrity] [--recover] [--inject-panic ROLE,T,I] [--timeout-ms N]
  bwfft-cli conv --dims KxNxM [--threads D,C] [--buffer B] [--seed S] [--impulse]
                 [--verify] [--integrity] [--recover] [--inject-panic ROLE,T,I]
                 [--timeout-ms N]
machines: kabylake | haswell4770 | amdfx | haswell2667 | opteron6276";

fn run(args: &[String]) -> Result<(), CliError> {
    let Some(cmd) = args.first() else {
        return Err(usage("missing command"));
    };
    // `workspace` takes a positional subaction before its flags.
    if cmd == "workspace" {
        return match args.get(1).map(String::as_str) {
            Some("gc") => {
                let opts = parse_flags(&args[2..]).map_err(usage)?;
                cmd_workspace_gc(&opts)
            }
            _ => Err(usage(
                "workspace takes the `gc` subaction: workspace gc --dir PATH [--older-than-secs N]",
            )),
        };
    }
    let opts = parse_flags(&args[1..]).map_err(usage)?;
    match cmd.as_str() {
        "machines" => {
            for spec in presets::all() {
                println!(
                    "{:<36} {} sockets, {} threads, {} MB LLC, {} GB/s STREAM",
                    spec.name,
                    spec.sockets,
                    spec.total_threads(),
                    spec.llc().size_bytes >> 20,
                    spec.total_dram_bw_gbs()
                );
            }
            Ok(())
        }
        "run" => cmd_run(&opts),
        "simulate" => cmd_simulate(&opts),
        "tune" => cmd_tune(&opts),
        "bench" => cmd_bench(&opts),
        "soak" => cmd_soak(&opts),
        "serve" => cmd_serve(&opts),
        "stat" => cmd_stat(&opts),
        "ooc" => cmd_ooc(&opts),
        "r2c" => cmd_r2c(&opts),
        "conv" => cmd_conv(&opts),
        "stream" => {
            let spec = machine_by_name(opts.get("machine").ok_or_else(|| usage("--machine required"))?)
                .map_err(usage)?;
            let r = stream_triad(&spec, 1 << 24);
            println!(
                "{}: triad {:.1} GB/s ({:.1} per socket)",
                spec.name, r.triad_gbs, r.per_socket_gbs
            );
            Ok(())
        }
        other => Err(usage(format!("unknown command `{other}`"))),
    }
}

/// How `--metrics[=json|prom]` was requested: `None` = off,
/// `Some(false)` = Prometheus text (the bare default), `Some(true)` =
/// one-line `bwfft-metrics/1` JSON.
fn metrics_mode(opts: &HashMap<String, String>) -> Result<Option<bool>, CliError> {
    match opts.get("metrics").map(String::as_str) {
        None => Ok(None),
        Some("" | "prom") => Ok(Some(false)),
        Some("json") => Ok(Some(true)),
        Some(other) => Err(usage(format!(
            "bad --metrics format `{other}` (expected `--metrics`, `--metrics=json` or `--metrics=prom`)"
        ))),
    }
}

/// Renders one metrics snapshot in the requested exposition format.
/// JSON is one line so scripted consumers can take stdout's last line;
/// Prometheus text is the multi-line scrape page.
fn emit_metrics(snap: &MetricsSnapshot, json: bool) {
    if json {
        println!("{}", snap.to_json());
    } else {
        print!("{}", snap.to_prometheus());
    }
}

/// How `--profile[=json]` was requested: `None` = off,
/// `Some(false)` = human report, `Some(true)` = JSON export.
fn profile_mode(opts: &HashMap<String, String>) -> Result<Option<bool>, CliError> {
    match opts.get("profile").map(String::as_str) {
        None => Ok(None),
        Some("") => Ok(Some(false)),
        Some("json") => Ok(Some(true)),
        Some(other) => Err(usage(format!(
            "bad --profile format `{other}` (expected `--profile` or `--profile=json`)"
        ))),
    }
}

/// Renders a finished trace report in the requested format. JSON goes
/// out as a single line so scripted consumers can take stdout's last
/// line.
fn emit_profile(report: &bwfft::trace::TraceReport, json: bool) {
    if json {
        println!("{}", bwfft::trace::json::to_json(report));
    } else {
        println!("{report}");
    }
}

fn cmd_run(opts: &HashMap<String, String>) -> Result<(), CliError> {
    let dims = parse_dims(opts.get("dims").ok_or_else(|| usage("--dims required"))?)
        .map_err(usage)?;
    let (p_d, p_c) = opts
        .get("threads")
        .map(|s| parse_pair(s))
        .transpose()
        .map_err(usage)?
        .unwrap_or((2, 2));
    let mut builder = FftPlan::builder(dims).threads(p_d, p_c);
    if let Some(b) = opts.get("buffer") {
        builder = builder.buffer_elems(b.parse().map_err(|_| usage("bad --buffer"))?);
    }
    if opts.contains_key("inverse") {
        builder = builder.direction(Direction::Inverse);
    }
    if opts.contains_key("adapt") {
        builder = builder.adapt_to_host();
    }
    let plan = builder
        .build()
        .map_err(|e| CliError::from(BwfftError::from(e)))?;
    let mut exec_cfg = bwfft::core::ExecConfig::default();
    if let Some(spec) = opts.get("inject-panic") {
        exec_cfg.fault = Some(parse_fault(spec).map_err(usage)?);
        bwfft::pipeline::fault::silence_injected_panic_reports();
    }
    if opts.contains_key("integrity") {
        // Arm every guard: buffer canaries and per-block checksums in
        // the pipeline, plus the whole-run Parseval check.
        exec_cfg.integrity = IntegrityConfig::full();
        exec_cfg.verify_energy = true;
    }
    if let Some(ms) = opts.get("timeout-ms") {
        let ms: u64 = ms.parse().map_err(|_| usage("bad --timeout-ms"))?;
        exec_cfg.iter_timeout = Some(std::time::Duration::from_millis(ms));
    } else {
        // No explicit budget: arm the adaptive watchdog, which sizes
        // stall budgets from measured step times instead of a guess.
        // The raised floor tolerates scheduler hiccups on busy hosts.
        exec_cfg.adaptive_watchdog = Some(AdaptiveWatchdog {
            min: std::time::Duration::from_millis(250),
            ..AdaptiveWatchdog::default()
        });
    }
    let profile = profile_mode(opts)?;
    let collector = profile.map(|_| Arc::new(TraceCollector::new()));
    if let Some(c) = &collector {
        exec_cfg.trace = Some(Arc::clone(c));
    }
    let total = dims.total();
    println!(
        "running {} with {} data + {} compute threads, b = {} elems, {} pipeline iterations/stage",
        dims.label(),
        plan.p_d,
        plan.p_c,
        plan.buffer_elems,
        plan.iters_per_socket()
    );
    for d in &plan.degradations {
        println!("note: degraded to fused executor: {d}");
    }
    let seed: u64 = opts
        .get("seed")
        .map(|s| s.parse().map_err(|_| usage("bad --seed")))
        .transpose()?
        .unwrap_or(42);
    let mut data = AlignedVec::from_slice(&signal::random_complex(total, seed));
    let original = data.clone();
    let mut work = AlignedVec::<Complex64>::zeroed(total);
    let t0 = std::time::Instant::now();
    let (report, executor_label) = if opts.contains_key("recover") {
        // Supervised execution: bounded retry/backoff per tier, then
        // escalation pipelined → fused → reference. The recovery trail
        // is printed here and (with --profile) exported as `recovery`
        // marks.
        let sup = Supervisor::new(RetryPolicy::default());
        let rep = sup
            .run(&plan, &mut data, &mut work, &exec_cfg)
            .map_err(|e| CliError::from(BwfftError::from(e)))?;
        if rep.recovered() {
            println!(
                "recovered at the {} tier after {} attempt(s):",
                rep.tier, rep.attempts
            );
            for ev in &rep.events {
                println!(
                    "  {} {} attempt {}: {}",
                    ev.action, ev.tier, ev.attempt, ev.error
                );
            }
        }
        let label = rep.tier.to_string();
        (rep.exec.unwrap_or_default(), label)
    } else {
        let rep = exec_real::execute_with(&plan, &mut data, &mut work, &exec_cfg)
            .map_err(|e| CliError::from(BwfftError::from(e)))?;
        let label = format!("{:?}", rep.executor).to_lowercase();
        (rep, label)
    };
    let dt = t0.elapsed();
    let gflops = plan.pseudo_flops() / dt.as_nanos() as f64;
    println!(
        "done in {dt:.2?} — {gflops:.2} pseudo-Gflop/s on this host ({executor_label} executor)"
    );
    if report.pin_failures > 0 {
        println!(
            "warning: {}/{} pin requests not honored ({})",
            report.pin_failures,
            report.pin_status.len(),
            report
                .pin_status
                .iter()
                .map(|s| s.describe())
                .collect::<Vec<_>>()
                .join(", ")
        );
    }
    if opts.contains_key("verify") {
        let mut reference = original.clone();
        match dims {
            Dims::Three { k, n, m } => reference_impl::pencil_fft_3d(
                &mut reference,
                k,
                n,
                m,
                plan.dir,
            ),
            Dims::Two { n, m } => {
                reference_impl::pencil_fft_2d(&mut reference, n, m, plan.dir)
            }
        }
        let err = rel_l2_error(&data, &reference);
        println!("verification vs pencil-pencil reference: rel L2 error = {err:.2e}");
        if err > 1e-11 {
            return Err(CliError::Runtime("verification FAILED".into()));
        }
        println!("verification passed");
    }
    if let (Some(json), Some(collector)) = (profile, &collector) {
        // The %-of-achievable column needs a bandwidth roofline; use
        // the named preset's STREAM figure, defaulting to Kaby Lake.
        let spec = match opts.get("machine") {
            Some(name) => machine_by_name(name).map_err(usage)?,
            None => presets::kaby_lake_7700k(),
        };
        let bw = spec.total_dram_bw_gbs();
        if !json {
            let noted = if opts.contains_key("machine") { "" } else { " (default; set --machine)" };
            println!("achievable bandwidth reference: {bw:.1} GB/s from {}{noted}", spec.name);
        }
        let rep =
            bwfft::core::profile::profile_report(collector, &plan, &executor_label, Some(bw));
        emit_profile(&rep, json);
    }
    Ok(())
}

/// `soak`: the seeded chaos harness. Every iteration runs a random
/// shape under a random fault (or none) with all integrity guards
/// armed and the supervisor in charge, then checks the output against
/// the pencil-pencil reference. The contract — every run is either
/// correct or a typed error, never a wrong answer, never a panic —
/// failing is exit code 1.
fn cmd_soak(opts: &HashMap<String, String>) -> Result<(), CliError> {
    let mut cfg = SoakConfig::default();
    if let Some(n) = opts.get("iters") {
        cfg.iters = n.parse().map_err(|_| usage("bad --iters"))?;
        if cfg.iters == 0 {
            return Err(usage("--iters must be at least 1"));
        }
    }
    if let Some(s) = opts.get("seed") {
        cfg.seed = s.parse().map_err(|_| usage("bad --seed"))?;
    }
    if let Some(ms) = opts.get("stall-ms") {
        let ms: u64 = ms.parse().map_err(|_| usage("bad --stall-ms"))?;
        cfg.stall = std::time::Duration::from_millis(ms);
    }
    println!(
        "soak: {} iteration(s), seed {:#x}, full fault matrix, integrity guards on",
        cfg.iters, cfg.seed
    );
    let report = run_soak(&cfg).map_err(CliError::from)?;
    println!("{}", report.render());
    if !report.holds() {
        return Err(CliError::Runtime(format!(
            "soak contract violated: {} silent corruption(s) in {} iteration(s)",
            report.silent_corruptions, report.iterations
        )));
    }
    println!("soak contract holds: never wrong, never a panic");
    if opts.contains_key("serve") {
        // The concurrent overload matrix: burst arrivals, oversized
        // requests, injected faults mid-flight, shutdown races.
        let mut scfg = ServeSoakConfig {
            seed: cfg.seed,
            ..ServeSoakConfig::default()
        };
        if let Some(n) = opts.get("serve-iters") {
            scfg.iters = n.parse().map_err(|_| usage("bad --serve-iters"))?;
            if scfg.iters == 0 {
                return Err(usage("--serve-iters must be at least 1"));
            }
        }
        println!(
            "serve soak: {} lifecycle(s), seed {:#x}, overload matrix \
             (burst / oversized / faults / shutdown races)",
            scfg.iters, scfg.seed
        );
        let sreport = run_serve_soak(&scfg).map_err(CliError::from)?;
        println!("{}", sreport.render());
        if !sreport.holds() {
            return Err(CliError::Runtime(format!(
                "serve soak contract violated: {} oracle mismatch(es), \
                 {} unbalanced lifecycle(s)",
                sreport.oracle_mismatches, sreport.unbalanced_lifecycles
            )));
        }
        println!("serve soak contract holds: one typed outcome per request, never wrong");
    }
    if opts.contains_key("ooc-kill") {
        // The kill/restart drill: real child processes aborted
        // mid-stage, journals torn, scratch bit-flipped, then resumed.
        let mut kcfg = OocKillSoakConfig {
            seed: cfg.seed,
            ..OocKillSoakConfig::default()
        };
        if let Some(d) = opts.get("ooc-dir") {
            kcfg.parent = Some(PathBuf::from(d));
        }
        println!(
            "ooc kill soak: {} kill/resume cycle(s), seed {:#x}, n = {}, \
             budget {} B (tamper matrix: torn tail / garbage tail / scratch flip)",
            kcfg.iters, kcfg.seed, kcfg.n, kcfg.budget_bytes
        );
        let kreport = run_ooc_kill_soak(&kcfg).map_err(|e| CliError::Runtime(e.to_string()))?;
        println!("{}", kreport.render());
        if !kreport.holds() {
            return Err(CliError::Runtime(format!(
                "ooc kill soak contract violated: {} wrong answer(s), {} panic(s), \
                 {} unbounded rework, {} unexpected exit(s)",
                kreport.wrong_answers,
                kreport.panics,
                kreport.unbounded_rework,
                kreport.unexpected_child_exits
            )));
        }
        println!("ooc kill soak contract holds: never wrong, never a panic, bounded rework");
    }
    Ok(())
}

/// Builds the open-loop driver config from `serve` / `bench --suite
/// serve` flags.
fn serve_bench_config(opts: &HashMap<String, String>) -> Result<ServeBenchConfig, CliError> {
    let mut cfg = ServeBenchConfig::default();
    if let Some(d) = opts.get("dims") {
        cfg.dims = parse_dims(d).map_err(usage)?;
    }
    if let Some(b) = opts.get("buffer") {
        cfg.buffer_elems = b.parse().map_err(|_| usage("bad --buffer"))?;
    }
    if let Some(t) = opts.get("threads") {
        cfg.threads = parse_pair(t).map_err(usage)?;
    }
    if let Some(n) = opts.get("requests") {
        cfg.requests = n.parse().map_err(|_| usage("bad --requests"))?;
        if cfg.requests == 0 {
            return Err(usage("--requests must be at least 1"));
        }
    }
    if let Some(w) = opts.get("workers") {
        cfg.workers = w.parse().map_err(|_| usage("bad --workers"))?;
        if cfg.workers == 0 {
            return Err(usage("--workers must be at least 1"));
        }
    }
    if let Some(q) = opts.get("queue-depth") {
        cfg.queue_capacity = q.parse().map_err(|_| usage("bad --queue-depth"))?;
        if cfg.queue_capacity == 0 {
            return Err(usage("--queue-depth must be at least 1"));
        }
    }
    if let Some(b) = opts.get("byte-budget") {
        cfg.byte_budget = Some(b.parse().map_err(|_| usage("bad --byte-budget"))?);
    }
    if let Some(ms) = opts.get("deadline-ms") {
        let ms: u64 = ms.parse().map_err(|_| usage("bad --deadline-ms"))?;
        cfg.deadline = Some(std::time::Duration::from_millis(ms));
    }
    if let Some(us) = opts.get("arrival-us") {
        let us: u64 = us.parse().map_err(|_| usage("bad --arrival-us"))?;
        cfg.arrival = std::time::Duration::from_micros(us);
    }
    if let Some(s) = opts.get("seed") {
        cfg.seed = s.parse().map_err(|_| usage("bad --seed"))?;
    }
    Ok(cfg)
}

/// `serve`: throw an open-loop request schedule at the concurrent
/// service and print the drained report. A graceful drain — every
/// submission resolved to exactly one typed outcome — is exit 0 even
/// when requests were shed or timed out (that is the service working
/// as specified); `Failed` outcomes or unbalanced accounting are
/// exit 1.
fn cmd_serve(opts: &HashMap<String, String>) -> Result<(), CliError> {
    let mut cfg = serve_bench_config(opts)?;
    let metrics_json = metrics_mode(opts)?;
    let every_ms: Option<u64> = opts
        .get("metrics-every-ms")
        .map(|s| s.parse().map_err(|_| usage("bad --metrics-every-ms")))
        .transpose()?;
    if every_ms == Some(0) {
        return Err(usage("--metrics-every-ms must be at least 1"));
    }
    if every_ms.is_some() && metrics_json.is_none() {
        return Err(usage("--metrics-every-ms requires --metrics[=json|prom]"));
    }
    let registry = metrics_json.map(|_| Arc::new(Registry::new()));
    let flight = metrics_json.map(|_| FlightRecorder::new(16));
    cfg.metrics = registry.clone();
    cfg.flight = flight.clone();
    println!(
        "serve: {} open-loop request(s) of {} (b = {}), {} worker(s), queue depth {}{}{}{}",
        cfg.requests,
        cfg.dims.label(),
        cfg.buffer_elems,
        cfg.workers,
        cfg.queue_capacity,
        match cfg.byte_budget {
            Some(b) => format!(", byte budget {b}"),
            None => String::new(),
        },
        match cfg.deadline {
            Some(d) => format!(", deadline {d:?}"),
            None => String::new(),
        },
        if cfg.arrival.is_zero() {
            ", burst arrivals".to_string()
        } else {
            format!(", {:?} inter-arrival", cfg.arrival)
        },
    );
    // Periodic sink: a scraper thread prints live registry snapshots
    // while the open-loop schedule runs. Every serve and plan-cache
    // counter is live; only the buffer-pool totals wait for the drain.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let sink = match (&registry, every_ms) {
        (Some(reg), Some(ms)) => {
            let reg = Arc::clone(reg);
            let stop = Arc::clone(&stop);
            let json = metrics_json == Some(true);
            Some(std::thread::spawn(move || {
                let tick = std::time::Duration::from_millis(ms);
                loop {
                    std::thread::sleep(tick);
                    if stop.load(std::sync::atomic::Ordering::Relaxed) {
                        break;
                    }
                    emit_metrics(&reg.snapshot(), json);
                }
            }))
        }
        _ => None,
    };
    let run = run_open_loop(&cfg);
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    if let Some(h) = sink {
        let _ = h.join();
    }
    let run = run.map_err(CliError::from)?;
    let rep = &run.report;
    let m = &run.metrics;
    println!(
        "drained in {:.2?}: {} completed ({} recovered), {} rejected, \
         {} deadline-exceeded, {} failed",
        run.elapsed, m.completed, rep.recovered_runs, m.rejected, m.deadline_exceeded, m.failed
    );
    let rj = &rep.rejected;
    if rj.total() > 0 {
        let reasons: Vec<String> = rj
            .by_reason()
            .iter()
            .map(|(token, n)| format!("{token} {n}"))
            .collect();
        println!("  shed by reason: {}", reasons.join(", "));
    }
    println!(
        "tiers: pipelined {}, fused {}, reference {}; breaker ended {:?} \
         ({} transition(s))",
        rep.tier_completed[0],
        rep.tier_completed[1],
        rep.tier_completed[2],
        rep.breaker_level,
        rep.breaker_transitions.len()
    );
    println!(
        "plan cache: hits={} misses={} evictions={}",
        rep.plan_cache.hits, rep.plan_cache.misses, rep.plan_cache.evictions
    );
    for t in &rep.breaker_transitions {
        println!("  {t}");
    }
    if m.completed > 0 {
        println!(
            "throughput {:.0} req/s; latency p50 {:.3} ms, p99 {:.3} ms",
            m.requests_per_sec,
            m.p50_ns / 1e6,
            m.p99_ns / 1e6
        );
    }
    if !rep.holds() {
        return Err(CliError::Runtime(format!(
            "serve accounting violated: {} admitted but {} outcome(s) delivered",
            rep.submitted,
            rep.outcomes()
        )));
    }
    if m.failed > 0 {
        return Err(CliError::Runtime(format!(
            "{} request(s) failed with typed errors",
            m.failed
        )));
    }
    println!("serve contract holds: every submission terminated with one typed outcome");
    if let Some(f) = &flight {
        let dumps = f.take_dumps();
        if !dumps.is_empty() {
            println!("flight recorder: {} dump(s)", dumps.len());
            for d in &dumps {
                if metrics_json == Some(true) {
                    println!("{}", d.to_json());
                } else {
                    println!(
                        "  {} at {} ns: {} request(s) captured",
                        d.trigger,
                        d.at_ns,
                        d.requests.len()
                    );
                }
            }
        }
    }
    // Final snapshot last, so `--metrics=json` consumers can take
    // stdout's last line.
    if let (Some(reg), Some(json)) = (&registry, metrics_json) {
        emit_metrics(&reg.snapshot(), json);
    }
    Ok(())
}

/// `stat`: diffs two `bwfft-metrics/1` snapshots (each file may be a
/// whole `serve --metrics=json` transcript — the last parseable line
/// wins) and pretty-prints the window as rates and interval
/// percentiles.
fn cmd_stat(opts: &HashMap<String, String>) -> Result<(), CliError> {
    let from = load_metrics_snapshot(opts.get("from").ok_or_else(|| usage("--from required"))?)?;
    let to = load_metrics_snapshot(opts.get("to").ok_or_else(|| usage("--to required"))?)?;
    let d = to.diff(&from);
    let secs = d.uptime_ns as f64 / 1e9;
    println!("window: {:.3} s", secs);
    if !d.counters.is_empty() {
        println!("{:<36} {:>12} {:>12}", "counter", "delta", "per-sec");
        for (name, v) in &d.counters {
            let rate = if secs > 0.0 { *v as f64 / secs } else { 0.0 };
            println!("{name:<36} {v:>12} {rate:>12.1}");
        }
    }
    if !d.gauges.is_empty() {
        println!("{:<36} {:>12}", "gauge", "now");
        for (name, v) in &d.gauges {
            println!("{name:<36} {v:>12.1}");
        }
    }
    if !d.histograms.is_empty() {
        println!(
            "{:<36} {:>10} {:>10} {:>10} {:>10}",
            "histogram", "count", "p50", "p99", "max"
        );
        for (name, h) in &d.histograms {
            if h.count == 0 {
                continue;
            }
            println!(
                "{:<36} {:>10} {:>10} {:>10} {:>10}",
                name,
                h.count,
                h.p50().unwrap_or(0),
                h.p99().unwrap_or(0),
                h.max
            );
        }
    }
    Ok(())
}

/// Reads the **last** line of `path` that parses as a
/// `bwfft-metrics/1` snapshot, so redirected `serve --metrics=json`
/// transcripts work unedited.
fn load_metrics_snapshot(path: &str) -> Result<MetricsSnapshot, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Runtime(format!("cannot read {path}: {e}")))?;
    let mut last_err = None;
    for line in text.lines().rev() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match MetricsSnapshot::from_json(line) {
            Ok(snap) => return Ok(snap),
            Err(e) => last_err = last_err.or(Some(e)),
        }
    }
    Err(CliError::Runtime(match last_err {
        Some(e) => format!("{path}: no bwfft-metrics/1 snapshot line ({e})"),
        None => format!("{path}: empty file"),
    }))
}

/// `ooc`: the out-of-core streaming tier. Plans the four-step split for
/// a size that does not fit the working budget, streams it through
/// file-backed padded stores in a private workspace, and verifies with
/// the sampled spot-check + streamed-Parseval oracle. Typed failures
/// (infeasible budget, exhausted stage ladder, oracle mismatch) are
/// exit 1; malformed flags are exit 2.
fn cmd_ooc(opts: &HashMap<String, String>) -> Result<(), CliError> {
    let n: usize = opts
        .get("n")
        .ok_or_else(|| usage("--n required"))?
        .parse()
        .map_err(|_| usage("bad --n"))?;
    let mut cfg = OocConfig::default();
    if opts.contains_key("inverse") {
        cfg.dir = Direction::Inverse;
    }
    if let Some(b) = opts.get("budget") {
        cfg.budget_bytes = b.parse().map_err(|_| usage("bad --budget"))?;
        if cfg.budget_bytes == 0 {
            return Err(usage("--budget must be at least 1 byte"));
        }
    }
    if let Some(t) = opts.get("threads") {
        let (p_d, p_c) = parse_pair(t).map_err(usage)?;
        if p_d == 0 || p_c == 0 {
            return Err(usage("--threads counts must be at least 1"));
        }
        cfg.p_d = p_d;
        cfg.p_c = p_c;
    }
    if let Some(spec) = opts.get("inject-io-fault") {
        cfg.fault = Some(parse_io_fault(spec).map_err(usage)?);
    }
    let workspace = opts.get("workspace").map(PathBuf::from);
    let resume = opts.contains_key("resume");
    let keep = opts.contains_key("keep-workspace");
    if workspace.is_none()
        && (resume || keep || opts.contains_key("resume-verify") || opts.contains_key("crash-at"))
    {
        return Err(usage(
            "--resume/--keep-workspace/--resume-verify/--crash-at require --workspace PATH",
        ));
    }
    if let Some(v) = opts.get("resume-verify") {
        cfg.checkpoint.resume_verify = parse_resume_verify(v).map_err(usage)?;
    }
    if let Some(spec) = opts.get("crash-at") {
        cfg.checkpoint.crash = Some(parse_crash_point(spec).map_err(usage)?);
    }
    let mut oracle_cfg = OracleConfig::default();
    if let Some(k) = opts.get("bins") {
        oracle_cfg.bins = k.parse().map_err(|_| usage("bad --bins"))?;
        if oracle_cfg.bins == 0 {
            return Err(usage("--bins must be at least 1"));
        }
    }
    let seed: u64 = opts
        .get("seed")
        .map(|s| s.parse().map_err(|_| usage("bad --seed")))
        .transpose()?
        .unwrap_or(42);
    println!(
        "ooc: n = {n} ({} {:?}), budget {} B, {}+{} threads, oracle {} bin(s), seed {seed}{}",
        fmt_bytes(n as u64 * 16),
        cfg.dir,
        cfg.budget_bytes,
        cfg.p_d,
        cfg.p_c,
        oracle_cfg.bins,
        match &cfg.fault {
            Some(f) => format!(
                ", injected {:?} fault at stage {} iter {}",
                f.kind, f.stage, f.iter
            ),
            None => String::new(),
        }
    );
    let out = match &workspace {
        Some(dir) => {
            println!(
                "checkpoint: workspace {} ({})",
                dir.display(),
                if resume { "resuming journal" } else { "fresh journal" }
            );
            let run = CheckpointRun { dir, resume, keep };
            run_checkpointed(n, seed, &cfg, &oracle_cfg, &run).map_err(|e| {
                eprintln!(
                    "note: workspace kept at {}; rerun with --resume to continue",
                    dir.display()
                );
                CliError::Runtime(e.to_string())
            })?
        }
        None => bwfft::ooc::run_generated(n, seed, &cfg, &oracle_cfg)
            .map_err(|e| CliError::Runtime(e.to_string()))?,
    };
    let p = &out.plan;
    let r = &out.report;
    println!(
        "plan: {} × {} split, {} elems/half buffer ({} of data resident), \
         strides {}/{} cols",
        p.n1,
        p.n2,
        p.half_elems,
        fmt_bytes(p.half_elems as u64 * 16),
        p.stride_cols_n1,
        p.stride_cols_n2
    );
    println!(
        "streamed {} read + {} written in {:.2?} ({:.2} GB/s storage), \
         retries={} serial_fallbacks={} faults_hit={}",
        fmt_bytes(r.bytes_read),
        fmt_bytes(r.bytes_written),
        std::time::Duration::from_nanos(r.wall_ns),
        r.storage_gbs(),
        r.retries,
        r.serial_fallbacks,
        r.faults_hit
    );
    if workspace.is_some() {
        // Machine-parseable for the kill/restart harness and verify.sh.
        println!(
            "resume: resumed={} skipped_blocks={} reverified_blocks={} \
             rework_blocks={} resumed_bytes={}",
            r.resumed, r.skipped_blocks, r.reverified_blocks, r.rework_blocks, r.resumed_bytes
        );
    }
    let o = &out.oracle;
    println!(
        "oracle: {} bin(s), max |Δ| {:.2e} (tol {:.2e}); Parseval rel err {:.2e}",
        o.bins_checked, o.max_abs_err, o.tol, o.parseval_rel_err
    );
    println!("ooc contract holds: sampled spot-check and streamed Parseval agree");
    Ok(())
}

/// Fault-tolerance knobs shared by `r2c` and `conv` (same flags as
/// `run`): `--inject-panic`, `--integrity`, `--timeout-ms` / adaptive
/// watchdog.
fn real_exec_cfg(opts: &HashMap<String, String>) -> Result<bwfft::core::ExecConfig, CliError> {
    let mut exec_cfg = bwfft::core::ExecConfig::default();
    if let Some(spec) = opts.get("inject-panic") {
        exec_cfg.fault = Some(parse_fault(spec).map_err(usage)?);
        bwfft::pipeline::fault::silence_injected_panic_reports();
    }
    if opts.contains_key("integrity") {
        exec_cfg.integrity = IntegrityConfig::full();
        exec_cfg.verify_energy = true;
    }
    if let Some(ms) = opts.get("timeout-ms") {
        let ms: u64 = ms.parse().map_err(|_| usage("bad --timeout-ms"))?;
        exec_cfg.iter_timeout = Some(std::time::Duration::from_millis(ms));
    } else {
        exec_cfg.adaptive_watchdog = Some(AdaptiveWatchdog {
            min: std::time::Duration::from_millis(250),
            ..AdaptiveWatchdog::default()
        });
    }
    Ok(exec_cfg)
}

/// Builds the real-transform plan the `r2c`/`conv` subcommands share.
fn real_plan_from_opts(opts: &HashMap<String, String>) -> Result<RealFftPlan, CliError> {
    let dims = parse_dims(opts.get("dims").ok_or_else(|| usage("--dims required"))?)
        .map_err(usage)?;
    let (p_d, p_c) = opts
        .get("threads")
        .map(|s| parse_pair(s))
        .transpose()
        .map_err(usage)?
        .unwrap_or((2, 2));
    let mut builder = RealFftPlan::builder(dims).threads(p_d, p_c);
    if let Some(b) = opts.get("buffer") {
        builder = builder.buffer_elems(b.parse().map_err(|_| usage("bad --buffer"))?);
    }
    if opts.contains_key("adapt") {
        builder = builder.adapt_to_host();
    }
    builder
        .build()
        .map_err(|e| CliError::from(BwfftError::from(e)))
}

fn random_real_field(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = signal::SplitMix64::new(seed);
    (0..n).map(|_| rng.next_f64() * 2.0 - 1.0).collect()
}

/// Prints the recovery trail of one supervised leg, mirroring `run
/// --recover`'s format.
fn print_recovery(rep: &bwfft::core::SupervisedReport, leg: &str) {
    if rep.recovered() {
        println!(
            "{leg}: recovered at the {} tier after {} attempt(s):",
            rep.tier, rep.attempts
        );
        for ev in &rep.events {
            println!("  {} {} attempt {}: {}", ev.action, ev.tier, ev.attempt, ev.error);
        }
    }
}

/// `r2c`: a real-input transform through the packed half-spectrum path
/// (DESIGN.md §13). Runs r2c on a seeded real field, round-trips it
/// through the unnormalized c2r, checks the packed-Parseval identity,
/// and with `--verify` also matches the spectrum against the reference
/// tier bin by bin. The bytes summary states the real-path win over
/// the complex path for the same logical transform.
fn cmd_r2c(opts: &HashMap<String, String>) -> Result<(), CliError> {
    let plan = real_plan_from_opts(opts)?;
    let exec_cfg = real_exec_cfg(opts)?;
    let seed: u64 = opts
        .get("seed")
        .map(|s| s.parse().map_err(|_| usage("bad --seed")))
        .transpose()?
        .unwrap_or(42);
    let n = plan.real_elems();
    // Complex path for the same logical transform: N complex in + N
    // complex out. Real path: N doubles in, N/2+rows packed bins out.
    let packed_bytes = 8 * n as u64 + 16 * plan.spectrum_elems() as u64;
    let complex_bytes = 32 * n as u64;
    println!(
        "r2c {} — {} packed bins vs {} complex bins; {} vs {} moved \
         ({:.1} vs 32.0 bytes/elem)",
        plan.dims().label(),
        plan.spectrum_elems(),
        n,
        fmt_bytes(packed_bytes),
        fmt_bytes(complex_bytes),
        packed_bytes as f64 / n as f64
    );
    let x = random_real_field(n, seed);
    let mut work = vec![Complex64::ZERO; plan.packed_elems()];
    let mut spec = vec![Complex64::ZERO; plan.spectrum_elems()];
    let t0 = std::time::Instant::now();
    if opts.contains_key("recover") {
        let sup = Supervisor::new(RetryPolicy::default());
        let rep = sup_err(plan.r2c_supervised(&sup, &x, &mut work, &mut spec, &exec_cfg))?;
        print_recovery(&rep, "r2c");
    } else {
        sup_err(plan.r2c_with(&x, &mut work, &mut spec, &exec_cfg))?;
    }
    let dt = t0.elapsed();
    println!("forward r2c done in {dt:.2?}");

    // Packed Parseval: N·Σx² must equal the weighted spectrum energy.
    let e_x: f64 = x.iter().map(|v| v * v).sum();
    let e_p = packed_spectrum_energy(&spec, plan.rows());
    let parseval_rel = (e_p - n as f64 * e_x).abs() / (n as f64 * e_x);
    println!("packed Parseval rel err = {parseval_rel:.2e}");
    if parseval_rel > 1e-9 {
        return Err(CliError::Runtime("packed Parseval identity FAILED".into()));
    }

    // Round trip: c2r(r2c(x)) must be N·x.
    let mut back = vec![0.0; n];
    sup_err(plan.c2r(&spec, &mut work, &mut back))?;
    bwfft::real::normalize(&mut back);
    let roundtrip_err = back
        .iter()
        .zip(&x)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    println!("c2r round-trip max |Δ| = {roundtrip_err:.2e}");
    if roundtrip_err > 1e-10 {
        return Err(CliError::Runtime("c2r round-trip FAILED".into()));
    }

    if opts.contains_key("verify") {
        let mut want = vec![Complex64::ZERO; plan.spectrum_elems()];
        sup_err(plan.r2c_reference(&x, &mut want))?;
        let scale = want.iter().map(|v| v.abs()).fold(1.0, f64::max);
        let max_err = spec
            .iter()
            .zip(&want)
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0, f64::max)
            / scale;
        println!("verification vs reference tier: rel max err = {max_err:.2e}");
        if max_err > 1e-11 {
            return Err(CliError::Runtime("verification FAILED".into()));
        }
        println!("verification passed");
    }
    println!("r2c contract holds: Parseval and round-trip verified on the packed path");
    Ok(())
}

/// `conv`: the planned fused spectral convolution. The kernel is a
/// seeded random field, or with `--impulse` the unit impulse — whose
/// circular convolution must reproduce the input exactly. `--verify`
/// compares against the unfused reference-tier pipeline (and on sizes
/// ≤ 4096 elements also the direct O(n²) oracle).
fn cmd_conv(opts: &HashMap<String, String>) -> Result<(), CliError> {
    let plan = real_plan_from_opts(opts)?;
    let exec_cfg = real_exec_cfg(opts)?;
    let seed: u64 = opts
        .get("seed")
        .map(|s| s.parse().map_err(|_| usage("bad --seed")))
        .transpose()?
        .unwrap_or(42);
    let n = plan.real_elems();
    let impulse = opts.contains_key("impulse");
    let kernel: Vec<f64> = if impulse {
        let mut g = vec![0.0; n];
        g[0] = 1.0;
        g
    } else {
        random_real_field(n, seed.wrapping_add(1))
    };
    let dims_label = plan.dims().label();
    // Fused path traffic: fold (8N read), half-width transform, the
    // in-place multiply-merge, and the unfold (8N write) — the packed
    // product spectrum is never materialized. The complex path would
    // run three full-length transforms.
    println!(
        "conv {} with {} kernel — fused spectral path, {} packed bins \
         (product spectrum never materialized)",
        dims_label,
        if impulse { "impulse" } else { "random" },
        plan.spectrum_elems()
    );
    let conv = SpectralConvPlan::new(plan, &kernel)
        .map_err(|e| CliError::from(BwfftError::from(e)))?;
    let x = random_real_field(n, seed);
    let mut got = x.clone();
    let mut work = vec![Complex64::ZERO; conv.plan().packed_elems()];
    let t0 = std::time::Instant::now();
    if opts.contains_key("recover") {
        let sup = Supervisor::new(RetryPolicy::default());
        let rep = sup_err(conv.convolve_supervised(&sup, &mut got, &mut work, &exec_cfg))?;
        print_recovery(&rep.forward, "forward leg");
        print_recovery(&rep.inverse, "inverse leg");
        if rep.recovered() {
            println!(
                "recovered at the {} tier after {} attempt(s)",
                rep.worst_tier(),
                rep.attempts()
            );
        }
    } else {
        sup_err(conv.convolve_with(&mut got, &mut work, &exec_cfg))?;
    }
    let dt = t0.elapsed();
    println!("fused convolution done in {dt:.2?}");

    if impulse {
        // conv(x, δ) == x, exactly (to round-off).
        let max_err = got
            .iter()
            .zip(&x)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        println!("impulse identity max |Δ| = {max_err:.2e}");
        if max_err > 1e-10 {
            return Err(CliError::Runtime("impulse identity FAILED".into()));
        }
    }
    if opts.contains_key("verify") {
        // Unfused reference pipeline: r2c both operands on the
        // reference tier, multiply the packed spectra, c2r, /N.
        let plan = conv.plan();
        let mut xs = vec![Complex64::ZERO; plan.spectrum_elems()];
        let mut gs = vec![Complex64::ZERO; plan.spectrum_elems()];
        sup_err(plan.r2c_reference(&x, &mut xs))?;
        sup_err(plan.r2c_reference(&kernel, &mut gs))?;
        for (a, b) in xs.iter_mut().zip(&gs) {
            *a *= *b;
        }
        let mut want = vec![0.0; n];
        sup_err(plan.c2r_reference(&xs, &mut want))?;
        bwfft::real::normalize(&mut want);
        let scale = want.iter().map(|v| v.abs()).fold(1.0, f64::max);
        let rel_err = got
            .iter()
            .zip(&want)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
            / scale;
        println!("verification vs unfused reference pipeline: rel max err = {rel_err:.2e}");
        if rel_err > 1e-10 {
            return Err(CliError::Runtime("verification FAILED".into()));
        }
        if n <= 4096 {
            let direct = conv_direct_nd(&x, &kernel, conv.plan().dims());
            let d_err = got
                .iter()
                .zip(&direct)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max)
                / scale;
            println!("verification vs direct O(n²) oracle: rel max err = {d_err:.2e}");
            if d_err > 1e-9 {
                return Err(CliError::Runtime("direct-oracle verification FAILED".into()));
            }
        }
        println!("verification passed");
    }
    println!("conv contract holds: fused spectral convolution verified");
    Ok(())
}

/// Direct multidimensional circular convolution, the O(n²) oracle for
/// `conv --verify` on small sizes.
fn conv_direct_nd(x: &[f64], g: &[f64], dims: Dims) -> Vec<f64> {
    let shape: Vec<usize> = match dims {
        Dims::Two { n, m } => vec![n, m],
        Dims::Three { k, n, m } => vec![k, n, m],
    };
    let total: usize = shape.iter().product();
    let strides: Vec<usize> = {
        let mut s = vec![1usize; shape.len()];
        for i in (0..shape.len() - 1).rev() {
            s[i] = s[i + 1] * shape[i + 1];
        }
        s
    };
    let coords = |mut idx: usize| -> Vec<usize> {
        shape
            .iter()
            .zip(&strides)
            .map(|(_, &st)| {
                let c = idx / st;
                idx %= st;
                c
            })
            .collect()
    };
    let mut out = vec![0.0; total];
    for (i, o) in out.iter_mut().enumerate() {
        let ci = coords(i);
        for (j, xj) in x.iter().enumerate() {
            let cj = coords(j);
            let gi: usize = ci
                .iter()
                .zip(&cj)
                .zip(shape.iter().zip(&strides))
                .map(|((&a, &b), (&d, &st))| ((d + a - b) % d) * st)
                .sum();
            *o += xj * g[gi];
        }
    }
    out
}

/// Maps a core-layer result into the CLI error discipline.
fn sup_err<T>(r: Result<T, bwfft::core::CoreError>) -> Result<T, CliError> {
    r.map_err(|e| CliError::from(BwfftError::from(e)))
}

fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 20 {
        format!("{:.1} MiB", b as f64 / (1u64 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.1} KiB", b as f64 / 1024.0)
    } else {
        format!("{b} B")
    }
}

/// Parses `KIND,STAGE,ITER` (e.g. `read,1,0`) into a one-shot storage
/// fault for the ooc tier.
fn parse_io_fault(s: &str) -> Result<OocFault, String> {
    let parts: Vec<&str> = s.split(',').collect();
    let [kind, stage, iter] = parts[..] else {
        return Err("--inject-io-fault needs KIND,STAGE,ITER".into());
    };
    let kind = match kind {
        "read" => OocFaultKind::Read,
        "write" => OocFaultKind::Write,
        other => return Err(format!("bad fault kind `{other}` (read|write)")),
    };
    let stage: usize = stage.parse().map_err(|_| "bad fault stage".to_string())?;
    if stage >= bwfft::ooc::STAGE_NAMES.len() {
        return Err(format!(
            "fault stage {stage} out of range (0..{})",
            bwfft::ooc::STAGE_NAMES.len() - 1
        ));
    }
    let iter = iter.parse().map_err(|_| "bad fault iter".to_string())?;
    Ok(OocFault { stage, iter, kind })
}

/// Parses `sample:K` or `all` into a resume re-verification policy.
fn parse_resume_verify(s: &str) -> Result<ResumeVerify, String> {
    if s == "all" {
        return Ok(ResumeVerify::All);
    }
    if let Some(k) = s.strip_prefix("sample:") {
        let k: usize = k
            .parse()
            .map_err(|_| "bad --resume-verify sample count".to_string())?;
        if k == 0 {
            return Err("--resume-verify sample count must be at least 1".into());
        }
        return Ok(ResumeVerify::Sample(k));
    }
    Err(format!("bad --resume-verify `{s}` (sample:K|all)"))
}

/// Parses `STAGE,BLOCK` into an abort-mode crash point: the process
/// genuinely dies mid-stage, which is what the kill/restart drill and
/// the CI crash smoke need.
fn parse_crash_point(s: &str) -> Result<CrashPoint, String> {
    let (stage, block) = s.split_once(',').ok_or("--crash-at needs STAGE,BLOCK")?;
    let stage: usize = stage.parse().map_err(|_| "bad crash stage".to_string())?;
    if stage >= bwfft::ooc::STAGE_NAMES.len() {
        return Err(format!(
            "crash stage {stage} out of range (0..{})",
            bwfft::ooc::STAGE_NAMES.len() - 1
        ));
    }
    let block = block.parse().map_err(|_| "bad crash block".to_string())?;
    Ok(CrashPoint {
        stage,
        block,
        mode: CrashMode::Abort,
    })
}

/// `workspace gc`: sweep abandoned `bwfft-ooc-*` scratch directories
/// under `--dir` whose last write is older than the threshold. Named
/// checkpoint workspaces (kept on crash for resume) are never touched.
fn cmd_workspace_gc(opts: &HashMap<String, String>) -> Result<(), CliError> {
    let dir = PathBuf::from(opts.get("dir").ok_or_else(|| usage("--dir required"))?);
    let secs: u64 = opts
        .get("older-than-secs")
        .map(|s| s.parse().map_err(|_| usage("bad --older-than-secs")))
        .transpose()?
        .unwrap_or(24 * 3600);
    let removed = gc_stale(&dir, std::time::Duration::from_secs(secs))
        .map_err(|e| CliError::Runtime(e.to_string()))?;
    for p in &removed {
        println!("removed {}", p.display());
    }
    println!(
        "workspace gc: {} stale workspace(s) removed under {} (threshold {secs}s)",
        removed.len(),
        dir.display()
    );
    Ok(())
}

/// Parses `ROLE,THREAD,ITER` (e.g. `compute,0,3`) into a fault plan.
fn parse_fault(s: &str) -> Result<FaultPlan, String> {
    let parts: Vec<&str> = s.split(',').collect();
    let [role, thread, iter] = parts[..] else {
        return Err("--inject-panic needs ROLE,THREAD,ITER".into());
    };
    let role = match role {
        "data" => Role::Data,
        "compute" => Role::Compute,
        other => return Err(format!("bad role `{other}` (data|compute)")),
    };
    let thread = thread.parse().map_err(|_| "bad fault thread".to_string())?;
    let iter = iter.parse().map_err(|_| "bad fault iter".to_string())?;
    Ok(FaultPlan::panic_at(role, thread, iter))
}

/// `tune`: search for the best plan for a shape, demonstrate the cache
/// hit on a repeated request, and optionally persist/reuse wisdom.
fn cmd_tune(opts: &HashMap<String, String>) -> Result<(), CliError> {
    let dims = parse_dims(opts.get("dims").ok_or_else(|| usage("--dims required"))?)
        .map_err(usage)?;
    let dir = if opts.contains_key("inverse") {
        Direction::Inverse
    } else {
        Direction::Forward
    };
    let profile = profile_mode(opts)?;
    let collector = profile.map(|_| Arc::new(TraceCollector::new()));
    let fp = HostFingerprint::detect();
    let mut tuner_opts = TunerOptions::for_host(&bwfft::core::HostProfile::detect());
    if opts.contains_key("model-only") {
        tuner_opts.model_only = true;
    }
    if let Some(c) = &collector {
        tuner_opts.trace = Some(Arc::clone(c));
    }
    let cache = PlanCache::new(Tuner::new(tuner_opts), fp.clone());

    let wisdom_path = opts.get("wisdom").map(PathBuf::from);
    if let Some(path) = &wisdom_path {
        // Version/host mismatch and missing files are typed re-tune
        // reasons, not failures; only unreadable/corrupt files warn.
        match wisdom::load(path, &fp) {
            Ok(WisdomLoad::Usable(w)) => {
                let mut seeded = 0usize;
                for rec in &w.records {
                    match cache.seed(rec) {
                        Ok(()) => seeded += 1,
                        Err(e) => println!("warning: wisdom record skipped: {e}"),
                    }
                }
                println!("wisdom: loaded {seeded} tuned plan(s) from {}", path.display());
            }
            Ok(WisdomLoad::Retune(reason)) => {
                println!("wisdom: tuning from scratch ({reason})");
            }
            Err(e) => println!("warning: wisdom unusable, tuning from scratch: {e}"),
        }
    }

    let had_wisdom = cache.contains(dims, dir);
    let t0 = std::time::Instant::now();
    let _plan = cache
        .get_or_tune(dims, dir)
        .map_err(|e| CliError::from(BwfftError::from(e)))?;
    if had_wisdom {
        println!("tuning skipped (wisdom hit) for {} {dir:?}", dims.label());
    } else {
        println!("tuned {} {dir:?} in {:.2?}", dims.label(), t0.elapsed());
    }
    // A second request for the same shape must be served from the
    // cache — this is what `--plan-stats` makes observable.
    let _again = cache
        .get_or_tune(dims, dir)
        .map_err(|e| CliError::from(BwfftError::from(e)))?;
    if let Some(rec) = cache
        .export_records()
        .into_iter()
        .find(|r| r.dims == dims && r.dir == dir)
    {
        println!("best: {}", rec.describe());
    }
    if opts.contains_key("plan-stats") {
        let s = cache.stats();
        println!(
            "plan cache: hits={} misses={} evictions={}",
            s.hits, s.misses, s.evictions
        );
    }
    if let Some(path) = &wisdom_path {
        let mut w = Wisdom::new(fp);
        w.records = cache.export_records();
        wisdom::save(path, &w).map_err(|e| CliError::from(BwfftError::from(e)))?;
        println!("wisdom: saved {} plan(s) to {}", w.records.len(), path.display());
    }
    if let (Some(json), Some(collector)) = (profile, &collector) {
        // Tuning produces telemetry marks (one per timed trial plus
        // the winner), not stage spans; aggregate with empty stage
        // metadata so the report carries just the marks.
        let meta = bwfft::trace::RunMeta {
            label: dims.label(),
            executor: "tuner".to_string(),
            stream_gbs: None,
            stage_io: Vec::new(),
        };
        let rep = bwfft::trace::aggregate(&collector.take_events(), &meta);
        emit_profile(&rep, json);
    }
    Ok(())
}

fn cmd_simulate(opts: &HashMap<String, String>) -> Result<(), CliError> {
    let dims = parse_dims(opts.get("dims").ok_or_else(|| usage("--dims required"))?)
        .map_err(usage)?;
    let spec = machine_by_name(opts.get("machine").ok_or_else(|| usage("--machine required"))?)
        .map_err(usage)?;
    let sockets: usize = opts
        .get("sockets")
        .map(|s| s.parse().map_err(|_| usage("bad --sockets")))
        .transpose()?
        .unwrap_or(spec.sockets);
    let p = spec.total_threads() * sockets / spec.sockets;
    let plan = FftPlan::builder(dims)
        .buffer_elems(spec.default_buffer_elems())
        .threads(p / 2, p - p / 2)
        .sockets(sockets)
        .build()
        .map_err(|e| CliError::from(BwfftError::from(e)))?;
    let r = simulate(&plan, &spec, &SimOptions::default())
        .map_err(|e| CliError::from(BwfftError::from(e)))?;
    println!("{}", r.report);
    for s in &r.stages {
        println!(
            "  stage {}: {:.2} ms, {:.2} GB DRAM, {:.2} GB link",
            s.stage,
            s.time_ns / 1e6,
            s.dram_bytes / 1e9,
            s.link_bytes / 1e9
        );
    }
    if opts.contains_key("baselines") {
        for kind in [BaselineKind::MklLike, BaselineKind::FftwLike, BaselineKind::SlabPencil] {
            let b = simulate_baseline(kind, dims, &spec);
            println!("{b}");
        }
    }
    Ok(())
}

/// `bench`: run the canonical statistical suite, write the versioned
/// `BENCH_*.json` record, and optionally gate against a baseline. With
/// both `--compare` and `--current` nothing is run — the two existing
/// files are compared directly (the CI gate's replay mode).
fn cmd_bench(opts: &HashMap<String, String>) -> Result<(), CliError> {
    let gate = GateConfig {
        threshold_pct: opts
            .get("threshold")
            .map(|s| s.parse().map_err(|_| usage("bad --threshold")))
            .transpose()?
            .unwrap_or_else(|| GateConfig::default().threshold_pct),
        ..GateConfig::default()
    };
    let derate_factor: Option<f64> = opts
        .get("derate")
        .map(|s| s.parse().map_err(|_| usage("bad --derate")))
        .transpose()?;

    // Replay mode: compare two existing BENCH files, run nothing.
    if let Some(cur_path) = opts.get("current") {
        let base_path = opts
            .get("compare")
            .ok_or_else(|| usage("--current requires --compare BASELINE"))?;
        let base = load_bench(base_path)?;
        let mut cur = load_bench(cur_path)?;
        if let Some(f) = derate_factor {
            derate(&mut cur, f);
        }
        return finish_compare(&base, &cur, &gate);
    }

    // The service-latency suite routes through the open-loop driver
    // instead of the executor measurement loop.
    if opts.get("suite").map(String::as_str) == Some("serve") {
        return cmd_bench_serve(opts, &gate, derate_factor);
    }
    let kind = match opts.get("suite") {
        None => SuiteKind::Smoke,
        Some(s) => SuiteKind::parse(s)
            .ok_or_else(|| usage(format!("unknown --suite `{s}` (smoke|fast|full|serve)")))?,
    };
    let mut mcfg = MeasureConfig::default();
    if let Some(r) = opts.get("reps") {
        mcfg.reps = r.parse().map_err(|_| usage("bad --reps"))?;
        if mcfg.reps == 0 {
            return Err(usage("--reps must be at least 1"));
        }
    }
    if let Some(w) = opts.get("warmup") {
        mcfg.warmup = w.parse().map_err(|_| usage("bad --warmup"))?;
    }
    if let Some(s) = opts.get("seed") {
        mcfg.seed = s.parse().map_err(|_| usage("bad --seed"))?;
    }
    mcfg.integrity = opts.contains_key("integrity");
    let baseline_out = opts.get("baseline-out").map(PathBuf::from);
    if baseline_out.is_some() && !mcfg.integrity {
        return Err(usage(
            "--baseline-out requires --integrity (it is the plain side of a paired overhead run)",
        ));
    }
    let anchor = match opts.get("machine") {
        Some(name) => machine_by_name(name).map_err(usage)?,
        None => presets::kaby_lake_7700k(),
    };
    println!(
        "bench: {} suite, {} reps + {} warmup, seed {}, STREAM roofline {:.1} GB/s ({}){}",
        kind.label(),
        mcfg.reps,
        mcfg.warmup,
        mcfg.seed,
        anchor.total_dram_bw_gbs(),
        anchor.name,
        match (mcfg.integrity, baseline_out.is_some()) {
            (true, true) => ", paired plain/guarded reps",
            (true, false) => ", integrity guards on",
            _ => "",
        }
    );
    let (mut report, paired_plain) = if let Some(base_path) = &baseline_out {
        let (plain, guarded) = run_suite_paired(kind, &mcfg, &StatsConfig::default(), &anchor, true)
            .map_err(|e| CliError::Runtime(e.to_string()))?;
        write_file(base_path, &plain).map_err(|e| CliError::Runtime(e.to_string()))?;
        println!(
            "wrote {} (plain half of the pair, {} suites)",
            base_path.display(),
            plain.suites.len()
        );
        (guarded, Some(plain))
    } else {
        let report = run_suite(kind, &mcfg, &StatsConfig::default(), &anchor, true)
            .map_err(|e| CliError::Runtime(e.to_string()))?;
        (report, None)
    };
    if let Some(f) = derate_factor {
        derate(&mut report, f);
        println!("note: record derated {f}x (gate self-test)");
    }
    let out = opts
        .get("out")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(bench_filename(&report.git_rev)));
    write_file(&out, &report).map_err(|e| CliError::Runtime(e.to_string()))?;
    println!("wrote {} ({} suites, rev {})", out.display(), report.suites.len(), report.git_rev);
    if let Some(base_path) = opts.get("compare") {
        let base = load_bench(base_path)?;
        return finish_compare(&base, &report, &gate);
    }
    if let Some(plain) = paired_plain {
        return finish_compare(&plain, &report, &gate);
    }
    Ok(())
}

/// `bench --suite serve`: the open-loop latency bench. Writes a
/// single-row `bwfft-bench/1` record whose service columns carry
/// requests/sec, p50/p99 and the outcome counts, then gates against a
/// baseline like any other suite (the p99 tail is threshold-gated).
fn cmd_bench_serve(
    opts: &HashMap<String, String>,
    gate: &GateConfig,
    derate_factor: Option<f64>,
) -> Result<(), CliError> {
    let cfg = serve_bench_config(opts)?;
    let overhead_pair = opts.contains_key("metrics-overhead");
    let baseline_out = opts.get("baseline-out").map(PathBuf::from);
    if overhead_pair && baseline_out.is_none() {
        return Err(usage(
            "--metrics-overhead requires --baseline-out PATH (the metrics-off half of the pair)",
        ));
    }
    println!(
        "bench: serve suite, {} open-loop request(s) of {}, {} worker(s), seed {}{}",
        cfg.requests,
        cfg.dims.label(),
        cfg.workers,
        cfg.seed,
        if overhead_pair {
            ", paired metrics-off/metrics-on runs"
        } else {
            ""
        }
    );
    let (mut report, paired_off) = if overhead_pair {
        let (off, on) = run_serve_suite_paired(&cfg, &StatsConfig::default())
            .map_err(|e| CliError::Runtime(e.to_string()))?;
        let base_path = baseline_out.as_deref().unwrap_or(Path::new("BENCH_metrics_off.json"));
        write_file(base_path, &off).map_err(|e| CliError::Runtime(e.to_string()))?;
        println!(
            "wrote {} (metrics-off half of the pair)",
            base_path.display()
        );
        (on, Some(off))
    } else {
        let report = run_serve_suite(&cfg, &StatsConfig::default())
            .map_err(|e| CliError::Runtime(e.to_string()))?;
        (report, None)
    };
    if let Some(f) = derate_factor {
        derate(&mut report, f);
        println!("note: record derated {f}x (gate self-test)");
    }
    let s = &report.suites[0];
    if let Some(m) = &s.serve {
        println!(
            "  {:<34} {:.0} req/s  p50 {:>8.3} ms  p99 {:>8.3} ms  \
             ({} completed, {} rejected, {} deadline-exceeded, {} failed)",
            s.key,
            m.requests_per_sec,
            m.p50_ns / 1e6,
            m.p99_ns / 1e6,
            m.completed,
            m.rejected,
            m.deadline_exceeded,
            m.failed
        );
    }
    let out = opts
        .get("out")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(bench_filename(&report.git_rev)));
    write_file(&out, &report).map_err(|e| CliError::Runtime(e.to_string()))?;
    println!(
        "wrote {} ({} suites, rev {})",
        out.display(),
        report.suites.len(),
        report.git_rev
    );
    if let Some(base_path) = opts.get("compare") {
        let base = load_bench(base_path)?;
        return finish_compare(&base, &report, gate);
    }
    if let Some(off) = paired_off {
        // The overhead gate: metrics-on median latency vs the
        // metrics-off half of the same pair. Median-only — the claim
        // under test is median overhead, and a single run's p99 is a
        // point estimate that would flake on scheduler outliers.
        let overhead_gate = GateConfig {
            median_only: true,
            ..*gate
        };
        return finish_compare(&off, &report, &overhead_gate);
    }
    Ok(())
}

fn load_bench(path: &str) -> Result<BenchReport, CliError> {
    read_file(Path::new(path)).map_err(|e| CliError::Runtime(e.to_string()))
}

/// Prints the human diff table, then the machine-readable verdict as
/// the last stdout line, and turns a failed gate into a nonzero exit
/// whose message names every regressed suite and stage.
fn finish_compare(
    base: &BenchReport,
    cur: &BenchReport,
    gate: &GateConfig,
) -> Result<(), CliError> {
    let cmp = compare(base, cur, gate);
    println!("{cmp}");
    println!("{}", verdict_json(&cmp));
    if cmp.gate_passes() {
        Ok(())
    } else {
        Err(CliError::Runtime(cmp.failure_summary()))
    }
}

fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut out = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        let Some(name) = a.strip_prefix("--") else {
            return Err(format!("unexpected argument `{a}`"));
        };
        // `--profile` stands alone (human report) or takes a glued
        // `=FORMAT` value (`--profile=json`); a separate-word value
        // would be ambiguous with the next flag.
        if name == "profile" || name.starts_with("profile=") {
            let val = name.strip_prefix("profile=").unwrap_or("");
            out.insert("profile".to_string(), val.to_string());
            i += 1;
            continue;
        }
        // `--metrics` follows the same glued-`=` convention:
        // standalone (Prometheus text) or `--metrics=json`.
        if name == "metrics" || name.starts_with("metrics=") {
            let val = name.strip_prefix("metrics=").unwrap_or("");
            out.insert("metrics".to_string(), val.to_string());
            i += 1;
            continue;
        }
        if let Some((key, _)) = name.split_once('=') {
            return Err(format!("--{key} does not take `=VALUE`"));
        }
        // Boolean flags take no value.
        if matches!(
            name,
            "inverse"
                | "verify"
                | "baselines"
                | "adapt"
                | "model-only"
                | "plan-stats"
                | "integrity"
                | "recover"
                | "serve"
                | "impulse"
                | "metrics-overhead"
                | "resume"
                | "keep-workspace"
                | "ooc-kill"
        ) {
            out.insert(name.to_string(), String::new());
            i += 1;
        } else if matches!(
            name,
            "dims"
                | "threads"
                | "buffer"
                | "machine"
                | "sockets"
                | "inject-panic"
                | "timeout-ms"
                | "wisdom"
                | "seed"
                | "suite"
                | "reps"
                | "warmup"
                | "out"
                | "baseline-out"
                | "compare"
                | "current"
                | "threshold"
                | "derate"
                | "iters"
                | "stall-ms"
                | "serve-iters"
                | "requests"
                | "workers"
                | "queue-depth"
                | "byte-budget"
                | "deadline-ms"
                | "arrival-us"
                | "n"
                | "budget"
                | "bins"
                | "inject-io-fault"
                | "metrics-every-ms"
                | "from"
                | "to"
                | "workspace"
                | "resume-verify"
                | "crash-at"
                | "dir"
                | "older-than-secs"
                | "ooc-dir"
        ) {
            let v = args
                .get(i + 1)
                .ok_or_else(|| format!("--{name} needs a value"))?;
            out.insert(name.to_string(), v.clone());
            i += 2;
        } else {
            return Err(format!("unknown flag --{name}"));
        }
    }
    Ok(out)
}

fn parse_dims(s: &str) -> Result<Dims, String> {
    let parts: Vec<usize> = s
        .split('x')
        .map(|p| p.parse().map_err(|_| format!("bad dimension `{p}`")))
        .collect::<Result<_, _>>()?;
    match parts[..] {
        [n, m] => Ok(Dims::d2(n, m)),
        [k, n, m] => Ok(Dims::d3(k, n, m)),
        _ => Err("dims must be NxM or KxNxM".into()),
    }
}

fn parse_pair(s: &str) -> Result<(usize, usize), String> {
    let (a, b) = s.split_once(',').ok_or("threads must be D,C")?;
    Ok((
        a.parse().map_err(|_| "bad thread count")?,
        b.parse().map_err(|_| "bad thread count")?,
    ))
}

fn machine_by_name(name: &str) -> Result<MachineSpec, String> {
    match name {
        "kabylake" => Ok(presets::kaby_lake_7700k()),
        "haswell4770" => Ok(presets::haswell_4770k()),
        "amdfx" => Ok(presets::amd_fx_8350()),
        "haswell2667" => Ok(presets::haswell_2667v3_2s()),
        "opteron6276" => Ok(presets::amd_opteron_6276_2s()),
        other => Err(format!("unknown machine `{other}` (see `bwfft-cli machines`)")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dims_parse() {
        assert_eq!(parse_dims("64x32").unwrap(), Dims::d2(64, 32));
        assert_eq!(parse_dims("8x16x32").unwrap(), Dims::d3(8, 16, 32));
        assert!(parse_dims("8").is_err());
        assert!(parse_dims("axb").is_err());
    }

    #[test]
    fn flags_parse() {
        let args: Vec<String> = ["--dims", "8x8x8", "--verify", "--threads", "2,2"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let f = parse_flags(&args).unwrap();
        assert_eq!(f.get("dims").unwrap(), "8x8x8");
        assert!(f.contains_key("verify"));
        assert_eq!(parse_pair(f.get("threads").unwrap()).unwrap(), (2, 2));
    }

    #[test]
    fn machine_lookup() {
        assert!(machine_by_name("kabylake").is_ok());
        assert!(machine_by_name("nonesuch").is_err());
    }

    #[test]
    fn run_command_executes_and_verifies() {
        let args: Vec<String> = ["run", "--dims", "8x8x16", "--threads", "1,1", "--verify"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        run(&args).unwrap();
    }

    #[test]
    fn unknown_command_errors() {
        assert!(matches!(
            run(&["frobnicate".to_string()]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn adapted_run_degrades_instead_of_failing() {
        // On any host (including 1-CPU CI) --adapt must succeed; on a
        // weak host it falls back to the fused executor.
        let args: Vec<String> = ["run", "--dims", "8x8x8", "--threads", "2,2", "--adapt"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        run(&args).unwrap();
    }

    #[test]
    fn injected_panic_is_a_runtime_error_not_a_crash() {
        let args: Vec<String> = [
            "run", "--dims", "8x8x16", "--threads", "1,1",
            "--inject-panic", "compute,0,1", "--timeout-ms", "2000",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        match run(&args) {
            Err(CliError::Runtime(msg)) => {
                assert!(msg.contains("panicked at block 1"), "{msg}");
            }
            other => panic!("expected runtime error, got {other:?}"),
        }
    }

    #[test]
    fn exit_code_discipline() {
        // The doc-comment table, asserted variant by variant: integrity
        // trips and allocation refusals are runtime faults (exit 1),
        // never usage errors (exit 2).
        use bwfft::core::PlanError;
        use bwfft::num::AllocError;
        use bwfft::pipeline::IntegrityKind;
        let e = CliError::from(BwfftError::Integrity {
            stage: 1,
            block: 3,
            kind: IntegrityKind::Checksum,
        });
        assert!(matches!(e, CliError::Runtime(_)), "{e:?}");
        let e = CliError::from(BwfftError::Allocation(AllocError {
            what: "double buffer",
            bytes: 1 << 40,
        }));
        assert!(matches!(e, CliError::Runtime(_)), "{e:?}");
        let e = CliError::from(BwfftError::Plan(PlanError::NotPow2("n", 12)));
        assert!(matches!(e, CliError::Usage(_)), "{e:?}");
    }

    #[test]
    fn recovering_run_survives_a_fault_that_kills_both_executors() {
        // compute thread 0 at block 1 bites the pipelined AND the fused
        // executor; --recover escalates to the reference tier and
        // --verify proves the answer is still right.
        let args: Vec<String> = [
            "run", "--dims", "8x8x16", "--threads", "2,2",
            "--integrity", "--recover", "--verify",
            "--inject-panic", "compute,0,1", "--timeout-ms", "2000",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        run(&args).unwrap();
    }

    #[test]
    fn soak_subcommand_smoke() {
        let args: Vec<String> = ["soak", "--iters", "8", "--seed", "7"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        run(&args).unwrap();
        // Bad iteration counts are usage errors.
        let args: Vec<String> = ["soak", "--iters", "0"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(matches!(run(&args), Err(CliError::Usage(_))));
    }

    #[test]
    fn soak_serve_matrix_smoke() {
        let args: Vec<String> = [
            "soak", "--iters", "4", "--seed", "7", "--serve", "--serve-iters", "4",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        run(&args).unwrap();
        let args: Vec<String> = ["soak", "--iters", "4", "--serve", "--serve-iters", "0"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(matches!(run(&args), Err(CliError::Usage(_))));
    }

    #[test]
    fn serve_exit_code_discipline() {
        // The serve rows of the doc-comment table, variant by variant:
        // every load-shedding rejection is a runtime condition (exit
        // 1) when surfaced as an error; malformed descriptors are
        // usage (exit 2); a graceful drain is exit 0 (asserted by the
        // drain tests below).
        use bwfft::core::PlanError;
        use bwfft::num::AllocError;
        use bwfft::serve::RejectReason;
        let rejections = [
            RejectReason::QueueFull {
                depth: 4,
                capacity: 4,
            },
            RejectReason::ByteBudget(AllocError {
                what: "serve admission",
                bytes: 1 << 20,
            }),
            RejectReason::PoolExhausted(AllocError {
                what: "buffer pool",
                bytes: 1 << 20,
            }),
            RejectReason::BreakerOpen,
            RejectReason::ShuttingDown,
        ];
        for reason in rejections {
            let e = CliError::from(ServeError::Rejected { reason });
            assert!(matches!(e, CliError::Runtime(_)), "{e:?}");
        }
        let e = CliError::from(ServeError::InvalidRequest {
            error: PlanError::NotPow2("n", 12),
        });
        assert!(matches!(e, CliError::Usage(_)), "{e:?}");
        let e = CliError::from(ServeError::InputLength {
            expected: 512,
            got: 8,
        });
        assert!(matches!(e, CliError::Usage(_)), "{e:?}");
    }

    #[test]
    fn serve_subcommand_drains_cleanly() {
        let args: Vec<String> = [
            "serve", "--requests", "8", "--dims", "16x32", "--buffer", "128",
            "--workers", "2", "--seed", "3",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        run(&args).unwrap();
    }

    #[test]
    fn serve_drains_to_exit_zero_even_when_every_deadline_expires() {
        // Deadline misses are typed outcomes of a working service, not
        // faults: the drained run exits 0.
        let args: Vec<String> = [
            "serve", "--requests", "6", "--dims", "16x32", "--buffer", "128",
            "--deadline-ms", "0",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        run(&args).unwrap();
    }

    #[test]
    fn serve_drains_to_exit_zero_under_burst_shedding() {
        // A shallow queue under burst arrivals sheds load with typed
        // rejections; the drain still balances and exits 0.
        let args: Vec<String> = [
            "serve", "--requests", "16", "--dims", "16x32", "--buffer", "128",
            "--workers", "1", "--queue-depth", "1",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        run(&args).unwrap();
    }

    #[test]
    fn serve_flag_validation() {
        for bad in [
            vec!["serve", "--requests", "0"],
            vec!["serve", "--requests", "4", "--workers", "0"],
            vec!["serve", "--requests", "4", "--queue-depth", "0"],
            // A non-power-of-two shape is a usage error (InvalidRequest
            // from plan validation), not load shedding.
            vec!["serve", "--requests", "1", "--dims", "12x10"],
        ] {
            let args: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            assert!(matches!(run(&args), Err(CliError::Usage(_))), "{bad:?}");
        }
    }

    #[test]
    fn tune_command_runs_model_only() {
        let args: Vec<String> = ["tune", "--dims", "32x32", "--model-only", "--plan-stats"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        run(&args).unwrap();
    }

    #[test]
    fn tune_wisdom_roundtrip_skips_second_search() {
        let dir = std::env::temp_dir().join("bwfft-cli-tune-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("w.wisdom");
        let _ = std::fs::remove_file(&path);
        let args: Vec<String> = [
            "tune", "--dims", "32x32", "--model-only",
            "--wisdom", path.to_str().unwrap(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        // First run tunes and writes wisdom; second run must load it
        // and skip the search entirely.
        run(&args).unwrap();
        assert!(path.exists());
        run(&args).unwrap();
        let cache = PlanCache::new(
            Tuner::new(TunerOptions {
                model_only: true,
                ..TunerOptions::for_host(&bwfft::core::HostProfile::detect())
            }),
            HostFingerprint::detect(),
        );
        match wisdom::load(&path, cache.fingerprint()).unwrap() {
            WisdomLoad::Usable(w) => assert_eq!(w.records.len(), 1),
            other => panic!("saved wisdom must be usable on this host: {other:?}"),
        }
    }

    #[test]
    fn corrupt_wisdom_degrades_instead_of_failing() {
        let dir = std::env::temp_dir().join("bwfft-cli-tune-corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.wisdom");
        std::fs::write(&path, "not a wisdom file\n").unwrap();
        let args: Vec<String> = [
            "tune", "--dims", "32x32", "--model-only",
            "--wisdom", path.to_str().unwrap(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        // The corrupt file triggers a warning and a fresh tune, then is
        // overwritten with valid wisdom.
        run(&args).unwrap();
        match wisdom::load(&path, &HostFingerprint::detect()).unwrap() {
            WisdomLoad::Usable(w) => assert_eq!(w.records.len(), 1),
            other => panic!("expected rewritten wisdom, got {other:?}"),
        }
    }

    #[test]
    fn profile_flag_parses_both_forms() {
        let args: Vec<String> = ["--profile"].iter().map(|s| s.to_string()).collect();
        let f = parse_flags(&args).unwrap();
        assert_eq!(profile_mode(&f).unwrap(), Some(false));

        let args: Vec<String> = ["--profile=json"].iter().map(|s| s.to_string()).collect();
        let f = parse_flags(&args).unwrap();
        assert_eq!(profile_mode(&f).unwrap(), Some(true));

        let args: Vec<String> = ["--profile=yaml"].iter().map(|s| s.to_string()).collect();
        let f = parse_flags(&args).unwrap();
        assert!(matches!(profile_mode(&f), Err(CliError::Usage(_))));

        assert_eq!(profile_mode(&HashMap::new()).unwrap(), None);
        // `=` on any other flag is rejected.
        let args: Vec<String> = ["--dims=8x8"].iter().map(|s| s.to_string()).collect();
        assert!(parse_flags(&args).is_err());
    }

    #[test]
    fn metrics_flag_parses_both_forms() {
        let args: Vec<String> = ["--metrics"].iter().map(|s| s.to_string()).collect();
        let f = parse_flags(&args).unwrap();
        assert_eq!(metrics_mode(&f).unwrap(), Some(false), "bare = prometheus");

        let args: Vec<String> = ["--metrics=prom"].iter().map(|s| s.to_string()).collect();
        let f = parse_flags(&args).unwrap();
        assert_eq!(metrics_mode(&f).unwrap(), Some(false));

        let args: Vec<String> = ["--metrics=json"].iter().map(|s| s.to_string()).collect();
        let f = parse_flags(&args).unwrap();
        assert_eq!(metrics_mode(&f).unwrap(), Some(true));

        let args: Vec<String> = ["--metrics=xml"].iter().map(|s| s.to_string()).collect();
        let f = parse_flags(&args).unwrap();
        assert!(matches!(metrics_mode(&f), Err(CliError::Usage(_))));

        assert_eq!(metrics_mode(&HashMap::new()).unwrap(), None);
    }

    #[test]
    fn metrics_every_ms_requires_metrics() {
        let args: Vec<String> = ["serve", "--requests", "1", "--metrics-every-ms", "5"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(matches!(run(&args), Err(CliError::Usage(_))));
    }

    #[test]
    fn metrics_overhead_requires_baseline_out() {
        let args: Vec<String> = ["bench", "--suite", "serve", "--metrics-overhead"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(matches!(run(&args), Err(CliError::Usage(_))));
    }

    #[test]
    fn stat_requires_both_files() {
        let args: Vec<String> = ["stat"].iter().map(|s| s.to_string()).collect();
        assert!(matches!(run(&args), Err(CliError::Usage(_))));
        // A present flag but unreadable file is a runtime error, not
        // a usage error.
        let args: Vec<String> = ["stat", "--from", "/nonexistent.json", "--to", "/n2.json"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(matches!(run(&args), Err(CliError::Runtime(_))));
    }

    #[test]
    fn served_metrics_run_emits_final_snapshot_semantics() {
        // The registry path end-to-end without stdout capture: arm a
        // registry exactly as cmd_serve does and check the snapshot
        // carries the request lifecycle.
        use bwfft::metrics::Registry;
        use bwfft::serve::{FftRequest, FftServer, ServeConfig};
        let reg = std::sync::Arc::new(Registry::new());
        let mut server = FftServer::start(ServeConfig {
            workers: 1,
            metrics: Some(reg.clone()),
            ..ServeConfig::default()
        });
        let dims = bwfft::core::Dims::d2(8, 16);
        let data = bwfft::num::signal::random_complex(dims.total(), 7);
        let t = server.submit(FftRequest::new(dims, data)).unwrap();
        let _ = t.wait();
        server.shutdown();
        let snap = reg.snapshot();
        assert_eq!(snap.counters.get("serve.completed"), Some(&1));
        let parsed = bwfft::metrics::MetricsSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(parsed, snap, "snapshot JSON round-trips");
    }

    #[test]
    fn profiled_run_succeeds_and_verifies() {
        let args: Vec<String> = [
            "run", "--dims", "16x16", "--threads", "1,1", "--verify", "--profile",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        run(&args).unwrap();
    }

    #[test]
    fn profiled_json_run_succeeds() {
        let args: Vec<String> = [
            "run", "--dims", "8x8x8", "--threads", "1,1",
            "--profile=json", "--machine", "haswell4770",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        run(&args).unwrap();
    }

    #[test]
    fn profiled_tune_succeeds() {
        let args: Vec<String> = ["tune", "--dims", "32x32", "--model-only", "--profile"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        run(&args).unwrap();
    }

    fn bench_args(extra: &[&str]) -> Vec<String> {
        ["bench", "--suite", "smoke", "--reps", "2", "--warmup", "1"]
            .iter()
            .chain(extra)
            .map(|s| s.to_string())
            .collect()
    }

    #[test]
    fn bench_writes_versioned_record_and_gates_derated_rerun() {
        let dir = std::env::temp_dir().join("bwfft-cli-bench-test");
        std::fs::create_dir_all(&dir).unwrap();
        let baseline = dir.join("BENCH_base.json");
        let current = dir.join("BENCH_cur.json");

        run(&bench_args(&["--out", baseline.to_str().unwrap()])).unwrap();
        let rep = read_file(&baseline).unwrap();
        assert_eq!(rep.schema, "bwfft-bench/1");
        assert_eq!(rep.suite_kind, "smoke");
        assert!(!rep.suites.is_empty());
        assert!(rep.suites.iter().all(|s| !s.stages.is_empty()));

        // Same suite derated 3× must trip the gate with a runtime error
        // naming the regressed suite and its worst stage.
        let args = bench_args(&[
            "--out", current.to_str().unwrap(),
            "--derate", "3",
            "--compare", baseline.to_str().unwrap(),
        ]);
        match run(&args) {
            Err(CliError::Runtime(msg)) => {
                assert!(msg.contains("regression"), "{msg}");
                assert!(msg.contains("fig9:64x64"), "{msg}");
                assert!(msg.contains("stage"), "{msg}");
            }
            other => panic!("derated compare must fail the gate, got {other:?}"),
        }

        // Replay mode: the two files compare without re-running, and an
        // un-derated self-compare passes.
        let args: Vec<String> = [
            "bench",
            "--compare", baseline.to_str().unwrap(),
            "--current", baseline.to_str().unwrap(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        run(&args).unwrap();
    }

    #[test]
    fn bench_serve_suite_records_metrics_and_gates_p99() {
        let dir = std::env::temp_dir().join("bwfft-cli-bench-serve-test");
        std::fs::create_dir_all(&dir).unwrap();
        let baseline = dir.join("BENCH_serve_base.json");

        let base_args: Vec<String> = [
            "bench", "--suite", "serve", "--requests", "8", "--workers", "2",
            "--seed", "5", "--out", baseline.to_str().unwrap(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        run(&base_args).unwrap();
        let rep = read_file(&baseline).unwrap();
        assert_eq!(rep.schema, "bwfft-bench/1");
        assert_eq!(rep.suite_kind, "serve");
        assert_eq!(rep.suites.len(), 1);
        let m = rep.suites[0].serve.as_ref().expect("serve metrics column");
        assert_eq!(m.submitted, m.completed + m.deadline_exceeded + m.failed);
        assert!(m.p99_ns >= m.p50_ns);

        // A derated rerun inflates the tail; the p99 threshold gate
        // must name it even without CI separation.
        let current = dir.join("BENCH_serve_cur.json");
        let cur_args: Vec<String> = [
            "bench", "--suite", "serve", "--requests", "8", "--workers", "2",
            "--seed", "5", "--derate", "3",
            "--out", current.to_str().unwrap(),
            "--compare", baseline.to_str().unwrap(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        match run(&cur_args) {
            Err(CliError::Runtime(msg)) => {
                assert!(msg.contains("regression"), "{msg}");
                assert!(msg.contains("p99"), "{msg}");
            }
            other => panic!("derated serve compare must fail the gate, got {other:?}"),
        }

        // Replay self-compare of the serve record passes the gate.
        let args: Vec<String> = [
            "bench",
            "--compare", baseline.to_str().unwrap(),
            "--current", baseline.to_str().unwrap(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        run(&args).unwrap();
    }

    #[test]
    fn bench_flag_validation() {
        let args: Vec<String> = ["bench", "--suite", "warp"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(matches!(run(&args), Err(CliError::Usage(_))));
        let args: Vec<String> = ["bench", "--current", "x.json"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(matches!(run(&args), Err(CliError::Usage(_))));
        let args: Vec<String> = ["bench", "--reps", "0"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(matches!(run(&args), Err(CliError::Usage(_))));
    }

    #[test]
    fn ooc_subcommand_completes_with_injected_fault() {
        // A transform 4× the working budget, one injected read fault:
        // the ladder retries, the oracle passes, exit is clean.
        let args: Vec<String> = [
            "ooc", "--n", "4096", "--budget", "16384", "--bins", "8",
            "--seed", "7", "--inject-io-fault", "read,1,0",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        run(&args).unwrap();
    }

    #[test]
    fn ooc_exit_code_discipline() {
        // Typed tier failures are runtime faults (exit 1)...
        for bad in [
            vec!["ooc", "--n", "1000"],            // not a power of two
            vec!["ooc", "--n", "2"],               // below the 4-elem floor
            vec!["ooc", "--n", "65536", "--budget", "1"], // infeasible budget
        ] {
            let args: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            assert!(matches!(run(&args), Err(CliError::Runtime(_))), "{bad:?}");
        }
        // ...while malformed flags are usage errors (exit 2).
        for bad in [
            vec!["ooc"],                                   // --n required
            vec!["ooc", "--n", "banana"],
            vec!["ooc", "--n", "4096", "--budget", "0"],
            vec!["ooc", "--n", "4096", "--bins", "0"],
            vec!["ooc", "--n", "4096", "--threads", "0,2"],
            vec!["ooc", "--n", "4096", "--inject-io-fault", "read,9,0"],
            vec!["ooc", "--n", "4096", "--inject-io-fault", "rread,1,0"],
            vec!["ooc", "--n", "4096", "--inject-io-fault", "read,1"],
        ] {
            let args: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            assert!(matches!(run(&args), Err(CliError::Usage(_))), "{bad:?}");
        }
    }

    #[test]
    fn io_fault_spec_parses() {
        let f = parse_io_fault("write,3,2").unwrap();
        assert_eq!(f.kind, OocFaultKind::Write);
        assert_eq!(f.stage, 3);
        assert_eq!(f.iter, 2);
        assert!(parse_io_fault("read,5,0").is_err());
        assert!(parse_io_fault("read").is_err());
    }

    #[test]
    fn fault_spec_parses() {
        let f = parse_fault("data,1,4").unwrap();
        assert_eq!(f, FaultPlan::panic_at(Role::Data, 1, 4));
        assert!(parse_fault("gpu,0,0").is_err());
        assert!(parse_fault("data,0").is_err());
    }
}
