//! `bwfft-cli` — run and simulate bandwidth-efficient FFTs from the
//! command line.
//!
//! Every subcommand declares its flags once, in `COMMANDS`: the
//! parser refuses any flag outside the subcommand's row (exit 2, naming
//! both), and the usage text printed on exit 2 is rendered from the
//! same table.
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
//! reason, deadline misses, degradation-governor transitions.
//! `bench-serve` runs the same load generator through the statistical
//! harness and writes a `bwfft-bench/1` record whose service row
//! carries requests/sec, p50/p99 and the outcome counts; `--compare`
//! then gates the p99 tail exactly like medians.
//!
//! The server always counts into a registry; `serve --metrics` only
//! selects export, and arms the flight recorder: Prometheus text (or, with `--metrics=json`, one-line
//! `bwfft-metrics/1` JSON as stdout's **last line**) is emitted at the
//! end of the run, every `--metrics-every-ms` milliseconds while it is
//! running, and any `bwfft-flight/1` dumps the recorder captured
//! (breaker degradations, integrity trips, panics) are printed before
//! the final snapshot. `stat --from A.json --to B.json` diffs two
//! snapshot transcripts into per-second rates and interval
//! percentiles. `bench-serve --metrics-overhead --baseline-out PATH`
//! measures the paired metrics-off/metrics-on runs and gates the
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
//! | 1 | runtime fault | `WorkerPanicked`, `StageTimeout`, `Cancelled`, `Engine` (simulation), `Integrity`, `Allocation`, failed verification, perf regression, soak contract violation, non-usage `TunerError`, every typed `ooc` failure (infeasible size/budget, exhausted stage ladder, oracle or Parseval mismatch, journal clobber/corruption, resume plan or fingerprint mismatch, scratch corruption) |
//! | 1 | serve fault | `Failed` request outcomes, drain accounting that does not balance, serve-soak contract violation |
//! | 2 | usage | `Plan`, `Config`, `InputLength`, `SocketMismatch`, bad-wisdom `TunerError`, bad flags, serve `InvalidRequest`/`InputLength` (malformed descriptors are the caller's fault, never load shedding) |
//!
//! The mapping is each crate error's own `is_usage()`:
//! `CoreError::is_usage()`, `TunerError::is_usage()` and
//! `ServeError::is_usage()`; `exit_code_discipline` and
//! `serve_exit_code_discipline` in the test module assert it variant by
//! variant. User errors print a one-line typed message, never a
//! backtrace.

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
use bwfft::core::{exec_real, execute_reference, Dims, FftPlan, RetryPolicy, Supervisor};
use bwfft::core::{CoreError, PlanError};
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
use bwfft::tuner::TunerError;
use bwfft::tuner::{wisdom, HostFingerprint, PlanCache, Tuner, TunerOptions, Wisdom, WisdomLoad};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;

/// CLI failure, split by whose fault it is: usage errors (exit 2,
/// usage text shown) vs runtime faults (exit 1, typed message only).
#[derive(Debug)]
enum CliError {
    Usage(String),
    Runtime(String),
}

impl CliError {
    /// Classifies a crate error by that error type's own `is_usage()`.
    fn classify(is_usage: bool, e: impl std::fmt::Display) -> Self {
        if is_usage {
            CliError::Usage(e.to_string())
        } else {
            CliError::Runtime(e.to_string())
        }
    }
}

impl From<CoreError> for CliError {
    fn from(e: CoreError) -> Self {
        CliError::classify(e.is_usage(), &e)
    }
}

impl From<PlanError> for CliError {
    fn from(e: PlanError) -> Self {
        CoreError::Plan(e).into()
    }
}

impl From<TunerError> for CliError {
    fn from(e: TunerError) -> Self {
        CliError::classify(e.is_usage(), &e)
    }
}

impl From<ServeError> for CliError {
    fn from(e: ServeError) -> Self {
        // Malformed descriptors are the caller's fault (exit 2); load
        // shedding surfaced as an error is a runtime condition (exit 1).
        CliError::classify(e.is_usage(), &e)
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
            eprintln!("{}", usage_text());
            ExitCode::from(2)
        }
        Err(CliError::Runtime(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// How a flag takes its value.
#[derive(Clone, Copy)]
enum Arg {
    /// A boolean switch: `--verify`.
    Switch,
    /// A value in the next word, named by its metavar: `--seed S`.
    Value(&'static str),
    /// A value the subcommand cannot run without: `--dims KxNxM`.
    Required(&'static str),
    /// A switch with an optional glued value: `--profile[=json]`.
    /// A separate-word value would be ambiguous with the next flag.
    Glued(&'static str),
}

use Arg::{Glued, Required, Switch, Value};

/// One subcommand: its name, every flag it reads, and its handler.
struct Command {
    name: &'static str,
    flags: &'static [(&'static str, Arg)],
    run: fn(&Flags) -> Result<(), CliError>,
}

/// The CLI's only flag inventory: one row per subcommand.
#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    Command { name: "machines", run: cmd_machines, flags: &[] },
    Command { name: "run", run: cmd_run, flags: &[
        ("dims", Required("KxNxM")), ("threads", Value("D,C")), ("buffer", Value("B")),
        ("inverse", Switch), ("adapt", Switch), ("seed", Value("S")), ("verify", Switch),
        ("recover", Switch), ("machine", Value("NAME")), ("inject-panic", Value("ROLE,T,I")),
        ("integrity", Switch), ("timeout-ms", Value("N")), ("profile", Glued("json")),
    ]},
    Command { name: "r2c", run: cmd_r2c, flags: &[
        ("dims", Required("KxNxM")), ("threads", Value("D,C")), ("buffer", Value("B")),
        ("adapt", Switch), ("seed", Value("S")), ("verify", Switch), ("recover", Switch),
        ("inject-panic", Value("ROLE,T,I")), ("integrity", Switch), ("timeout-ms", Value("N")),
    ]},
    Command { name: "conv", run: cmd_conv, flags: &[
        ("dims", Required("KxNxM")), ("threads", Value("D,C")), ("buffer", Value("B")),
        ("adapt", Switch), ("seed", Value("S")), ("impulse", Switch), ("verify", Switch),
        ("recover", Switch), ("inject-panic", Value("ROLE,T,I")), ("integrity", Switch),
        ("timeout-ms", Value("N")),
    ]},
    Command { name: "simulate", run: cmd_simulate, flags: &[
        ("dims", Required("KxNxM")), ("machine", Required("NAME")), ("sockets", Value("S")),
        ("baselines", Switch),
    ]},
    Command { name: "stream", run: cmd_stream, flags: &[
        ("machine", Required("NAME")),
    ]},
    Command { name: "tune", run: cmd_tune, flags: &[
        ("dims", Required("KxNxM")), ("inverse", Switch), ("model-only", Switch),
        ("plan-stats", Switch), ("wisdom", Value("PATH")), ("profile", Glued("json")),
    ]},
    Command { name: "bench", run: cmd_bench, flags: &[
        ("suite", Value("smoke|fast|full")), ("reps", Value("N")), ("warmup", Value("N")),
        ("seed", Value("S")), ("machine", Value("NAME")), ("out", Value("PATH")),
        ("derate", Value("F")), ("integrity", Switch), ("baseline-out", Value("PATH")),
        ("compare", Value("BASELINE")), ("current", Value("PATH")), ("threshold", Value("PCT")),
    ]},
    Command { name: "bench-serve", run: cmd_bench_serve, flags: &[
        ("requests", Value("N")), ("workers", Value("W")), ("arrival-us", Value("N")),
        ("dims", Value("KxNxM")), ("buffer", Value("B")), ("threads", Value("D,C")),
        ("queue-depth", Value("Q")), ("byte-budget", Value("BYTES")),
        ("deadline-ms", Value("N")), ("seed", Value("S")), ("out", Value("PATH")),
        ("derate", Value("F")), ("metrics-overhead", Switch), ("baseline-out", Value("PATH")),
        ("compare", Value("BASELINE")), ("threshold", Value("PCT")),
    ]},
    Command { name: "soak", run: cmd_soak, flags: &[
        ("iters", Value("N")), ("seed", Value("S")), ("stall-ms", Value("N")),
        ("serve", Switch), ("serve-iters", Value("N")), ("ooc-kill", Switch),
        ("ooc-dir", Value("PATH")),
    ]},
    Command { name: "serve", run: cmd_serve, flags: &[
        ("requests", Value("N")), ("dims", Value("KxNxM")), ("buffer", Value("B")),
        ("threads", Value("D,C")), ("workers", Value("W")), ("queue-depth", Value("Q")),
        ("byte-budget", Value("BYTES")), ("deadline-ms", Value("N")),
        ("arrival-us", Value("N")), ("seed", Value("S")), ("metrics", Glued("json|prom")),
        ("metrics-every-ms", Value("N")),
    ]},
    Command { name: "stat", run: cmd_stat, flags: &[
        ("from", Required("A.json")), ("to", Required("B.json")),
    ]},
    Command { name: "ooc", run: cmd_ooc, flags: &[
        ("n", Required("N")), ("budget", Value("BYTES")), ("bins", Value("K")),
        ("seed", Value("S")), ("inverse", Switch), ("threads", Value("D,C")),
        ("inject-io-fault", Value("KIND,STAGE,ITER")), ("workspace", Value("PATH")),
        ("resume", Switch), ("keep-workspace", Switch),
        ("resume-verify", Value("sample:K|all")), ("crash-at", Value("STAGE,BLOCK")),
    ]},
    Command { name: "workspace gc", run: cmd_workspace_gc, flags: &[
        ("dir", Required("PATH")), ("older-than-secs", Value("N")),
    ]},
];

/// The usage text, rendered from [`COMMANDS`] and wrapped at 80
/// columns.
fn usage_text() -> String {
    let mut out = String::from("usage:");
    for cmd in COMMANDS {
        let head = format!("  bwfft-cli {}", cmd.name);
        out.push('\n');
        out.push_str(&head);
        let mut col = head.len();
        for &(name, arg) in cmd.flags {
            let word = match arg {
                Switch => format!("[--{name}]"),
                Value(meta) => format!("[--{name} {meta}]"),
                Required(meta) => format!("--{name} {meta}"),
                Glued(values) => format!("[--{name}[={values}]]"),
            };
            if col + 1 + word.len() > 80 {
                out.push('\n');
                out.push_str(&" ".repeat(head.len()));
                col = head.len();
            }
            out.push(' ');
            out.push_str(&word);
            col += 1 + word.len();
        }
    }
    out.push_str("\nmachines: kabylake | haswell4770 | amdfx | haswell2667 | opteron6276");
    out
}

fn run(args: &[String]) -> Result<(), CliError> {
    let (name, rest) = match args.first().map(String::as_str) {
        None => return Err(usage("missing command")),
        // `workspace` takes a positional subaction before its flags.
        Some("workspace") => match args.get(1).map(String::as_str) {
            Some("gc") => ("workspace gc", &args[2..]),
            _ => return Err(usage("workspace takes the `gc` subaction")),
        },
        Some(name) => (name, &args[1..]),
    };
    let opts = parse_flags(name, rest)?;
    (opts.cmd.run)(&opts)
}

/// One subcommand's parsed flags: each given flag's value, empty for a
/// switch.
struct Flags {
    cmd: &'static Command,
    values: HashMap<&'static str, String>,
}

impl Flags {
    /// The raw value of `--name`, `None` when it was not given.
    fn raw(&self, name: &str) -> Option<&str> {
        debug_assert!(
            self.cmd.flags.iter().any(|&(n, _)| n == name),
            "`{}` reads --{name}, which its row in COMMANDS does not list",
            self.cmd.name
        );
        self.values.get(name).map(String::as_str)
    }

    /// True when the switch `--name` was given.
    fn has(&self, name: &str) -> bool {
        self.raw(name).is_some()
    }

    /// `--name` read through `parse`; a value it refuses is a usage
    /// error carrying its message.
    fn get_with<T>(
        &self,
        name: &str,
        parse: impl FnOnce(&str) -> Result<T, String>,
    ) -> Result<Option<T>, CliError> {
        self.raw(name).map(parse).transpose().map_err(usage)
    }

    /// `--name` as a `T`; a value that does not parse is the usage
    /// error `bad --name`.
    fn get<T: FromStr>(&self, name: &str) -> Result<Option<T>, CliError> {
        self.get_with(name, |s| s.parse().map_err(|_| format!("bad --{name}")))
    }

    /// [`get_with`](Self::get_with) for a flag its row marks
    /// [`Required`], which the parser has checked is present.
    fn need_with<T>(
        &self,
        name: &str,
        parse: impl FnOnce(&str) -> Result<T, String>,
    ) -> Result<T, CliError> {
        self.get_with(name, parse)?
            .ok_or_else(|| usage(format!("--{name} required")))
    }

    /// [`get`](Self::get) for a [`Required`] flag.
    fn need<T: FromStr>(&self, name: &str) -> Result<T, CliError> {
        self.get(name)?
            .ok_or_else(|| usage(format!("--{name} required")))
    }
}

/// Parses `args` against the row of subcommand `name`: a flag outside
/// the row, a missing value or a missing required flag is a usage
/// error.
fn parse_flags(name: &str, args: &[String]) -> Result<Flags, CliError> {
    let cmd = COMMANDS
        .iter()
        .find(|c| c.name == name)
        .ok_or_else(|| usage(format!("unknown command `{name}`")))?;
    let mut values = HashMap::new();
    let mut words = args.iter();
    while let Some(word) = words.next() {
        let Some(flag) = word.strip_prefix("--") else {
            return Err(usage(format!("unexpected argument `{word}`")));
        };
        let (key, glued) = match flag.split_once('=') {
            Some((key, v)) => (key, Some(v)),
            None => (flag, None),
        };
        let Some(&(key, arg)) = cmd.flags.iter().find(|&&(n, _)| n == key) else {
            return Err(usage(format!("`{name}` does not take --{key}")));
        };
        let value = match (arg, glued) {
            (Glued(values), v) => match v.unwrap_or("") {
                v if v.is_empty() || values.split('|').any(|x| x == v) => v.to_string(),
                v => {
                    return Err(usage(format!(
                        "bad --{key} `{v}` (expected --{key}[={values}])"
                    )))
                }
            },
            (_, Some(_)) => return Err(usage(format!("--{key} does not take `=VALUE`"))),
            (Switch, None) => String::new(),
            (Value(_) | Required(_), None) => words
                .next()
                .ok_or_else(|| usage(format!("--{key} needs a value")))?
                .clone(),
        };
        values.insert(key, value);
    }
    for &(key, arg) in cmd.flags {
        if matches!(arg, Required(_)) && !values.contains_key(key) {
            return Err(usage(format!("--{key} required")));
        }
    }
    Ok(Flags { cmd, values })
}

fn cmd_machines(_: &Flags) -> Result<(), CliError> {
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

fn cmd_stream(opts: &Flags) -> Result<(), CliError> {
    let spec = opts.need_with("machine", machine_by_name)?;
    let r = stream_triad(&spec, 1 << 24);
    println!(
        "{}: triad {:.1} GB/s ({:.1} per socket)",
        spec.name, r.triad_gbs, r.per_socket_gbs
    );
    Ok(())
}

/// How a glued flag (`--profile[=json]`, `--metrics[=json|prom]`) was
/// given: `None` = off, `Some(true)` = `=json`, `Some(false)` = the
/// other forms its row accepts (the human report, Prometheus text).
fn json_mode(opts: &Flags, name: &str) -> Option<bool> {
    opts.raw(name).map(|v| v == "json")
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

fn cmd_run(opts: &Flags) -> Result<(), CliError> {
    let dims = opts.need_with("dims", parse_dims)?;
    let (p_d, p_c) = opts.get_with("threads", parse_pair)?.unwrap_or((2, 2));
    let mut builder = FftPlan::builder(dims).threads(p_d, p_c);
    if let Some(b) = opts.get("buffer")? {
        builder = builder.buffer_elems(b);
    }
    if opts.has("inverse") {
        builder = builder.direction(Direction::Inverse);
    }
    if opts.has("adapt") {
        builder = builder.adapt_to_host();
    }
    let plan = builder.build()?;
    let mut exec_cfg = exec_cfg_from_opts(opts)?;
    let profile = json_mode(opts, "profile");
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
    let seed: u64 = opts.get("seed")?.unwrap_or(42);
    let mut data = AlignedVec::from_slice(&signal::random_complex(total, seed));
    let original = data.clone();
    let mut work = AlignedVec::<Complex64>::zeroed(total);
    let t0 = std::time::Instant::now();
    let (report, executor_label) = if opts.has("recover") {
        // Supervised execution: bounded retry/backoff per tier, then
        // escalation pipelined → fused → reference. The recovery trail
        // is printed here and (with --profile) exported as `recovery`
        // marks.
        let sup = Supervisor::new(RetryPolicy::default());
        let rep = sup.run(&plan, &mut data, &mut work, &exec_cfg)?;
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
        let rep = exec_real::execute_with(&plan, &mut data, &mut work, &exec_cfg)?;
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
    if opts.has("verify") {
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
        let named = opts.get_with("machine", machine_by_name)?;
        let noted = if named.is_some() {
            ""
        } else {
            " (default; set --machine)"
        };
        let spec = named.unwrap_or_else(presets::kaby_lake_7700k);
        let bw = spec.total_dram_bw_gbs();
        if !json {
            println!(
                "achievable bandwidth reference: {bw:.1} GB/s from {}{noted}",
                spec.name
            );
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
fn cmd_soak(opts: &Flags) -> Result<(), CliError> {
    let mut cfg = SoakConfig::default();
    cfg.iters = opts.get("iters")?.unwrap_or(cfg.iters);
    if cfg.iters == 0 {
        return Err(usage("--iters must be at least 1"));
    }
    cfg.seed = opts.get("seed")?.unwrap_or(cfg.seed);
    cfg.stall = opts
        .get("stall-ms")?
        .map_or(cfg.stall, std::time::Duration::from_millis);
    println!(
        "soak: {} iteration(s), seed {:#x}, full fault matrix, integrity guards on",
        cfg.iters, cfg.seed
    );
    let report = run_soak(&cfg)?;
    println!("{}", report.render());
    if !report.holds() {
        return Err(CliError::Runtime(format!(
            "soak contract violated: {} silent corruption(s) in {} iteration(s)",
            report.silent_corruptions, report.iterations
        )));
    }
    println!("soak contract holds: never wrong, never a panic");
    if opts.has("serve") {
        // The concurrent overload matrix: burst arrivals, oversized
        // requests, injected faults mid-flight, shutdown races.
        let mut scfg = ServeSoakConfig {
            seed: cfg.seed,
            ..ServeSoakConfig::default()
        };
        scfg.iters = opts.get("serve-iters")?.unwrap_or(scfg.iters);
        if scfg.iters == 0 {
            return Err(usage("--serve-iters must be at least 1"));
        }
        println!(
            "serve soak: {} lifecycle(s), seed {:#x}, overload matrix \
             (burst / oversized / faults / shutdown races)",
            scfg.iters, scfg.seed
        );
        let sreport = run_serve_soak(&scfg)?;
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
    if opts.has("ooc-kill") {
        // The kill/restart drill: real child processes aborted
        // mid-stage, journals torn, scratch bit-flipped, then resumed.
        let mut kcfg = OocKillSoakConfig {
            seed: cfg.seed,
            ..OocKillSoakConfig::default()
        };
        kcfg.parent = opts.get("ooc-dir")?;
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

/// Builds the open-loop load generator's config from `serve` /
/// `bench-serve` flags.
fn serve_bench_config(opts: &Flags) -> Result<ServeBenchConfig, CliError> {
    let d = ServeBenchConfig::default();
    let cfg = ServeBenchConfig {
        dims: opts.get_with("dims", parse_dims)?.unwrap_or(d.dims),
        buffer_elems: opts.get("buffer")?.unwrap_or(d.buffer_elems),
        threads: opts.get_with("threads", parse_pair)?.unwrap_or(d.threads),
        requests: opts.get("requests")?.unwrap_or(d.requests),
        workers: opts.get("workers")?.unwrap_or(d.workers),
        queue_capacity: opts.get("queue-depth")?.unwrap_or(d.queue_capacity),
        byte_budget: opts.get("byte-budget")?.or(d.byte_budget),
        deadline: opts
            .get("deadline-ms")?
            .map(std::time::Duration::from_millis)
            .or(d.deadline),
        arrival: opts
            .get("arrival-us")?
            .map_or(d.arrival, std::time::Duration::from_micros),
        seed: opts.get("seed")?.unwrap_or(d.seed),
        ..d
    };
    for (flag, n) in [
        ("requests", cfg.requests),
        ("workers", cfg.workers),
        ("queue-depth", cfg.queue_capacity),
    ] {
        if n == 0 {
            return Err(usage(format!("--{flag} must be at least 1")));
        }
    }
    Ok(cfg)
}

/// `serve`: throw an open-loop request schedule at the concurrent
/// service and print the drained report. A graceful drain — every
/// submission resolved to exactly one typed outcome — is exit 0 even
/// when requests were shed or timed out (that is the service working
/// as specified); `Failed` outcomes or unbalanced accounting are
/// exit 1.
fn cmd_serve(opts: &Flags) -> Result<(), CliError> {
    let mut cfg = serve_bench_config(opts)?;
    let metrics_json = json_mode(opts, "metrics");
    let every_ms: Option<u64> = opts.get("metrics-every-ms")?;
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
fn cmd_stat(opts: &Flags) -> Result<(), CliError> {
    let from = load_metrics_snapshot(&opts.need::<String>("from")?)?;
    let to = load_metrics_snapshot(&opts.need::<String>("to")?)?;
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
fn cmd_ooc(opts: &Flags) -> Result<(), CliError> {
    let n: usize = opts.need("n")?;
    let mut cfg = OocConfig::default();
    if opts.has("inverse") {
        cfg.dir = Direction::Inverse;
    }
    cfg.budget_bytes = opts.get("budget")?.unwrap_or(cfg.budget_bytes);
    if cfg.budget_bytes == 0 {
        return Err(usage("--budget must be at least 1 byte"));
    }
    if let Some((p_d, p_c)) = opts.get_with("threads", parse_pair)? {
        if p_d == 0 || p_c == 0 {
            return Err(usage("--threads counts must be at least 1"));
        }
        cfg.p_d = p_d;
        cfg.p_c = p_c;
    }
    cfg.fault = opts.get_with("inject-io-fault", parse_io_fault)?;
    let workspace: Option<PathBuf> = opts.get("workspace")?;
    let resume = opts.has("resume");
    let keep = opts.has("keep-workspace");
    if workspace.is_none() && (resume || keep || opts.has("resume-verify") || opts.has("crash-at"))
    {
        return Err(usage(
            "--resume/--keep-workspace/--resume-verify/--crash-at require --workspace PATH",
        ));
    }
    let verify = opts.get_with("resume-verify", parse_resume_verify)?;
    cfg.checkpoint.resume_verify = verify.unwrap_or(cfg.checkpoint.resume_verify);
    cfg.checkpoint.crash = opts.get_with("crash-at", parse_crash_point)?;
    let mut oracle_cfg = OracleConfig::default();
    oracle_cfg.bins = opts.get("bins")?.unwrap_or(oracle_cfg.bins);
    if oracle_cfg.bins == 0 {
        return Err(usage("--bins must be at least 1"));
    }
    let seed: u64 = opts.get("seed")?.unwrap_or(42);
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

/// Fault-tolerance knobs shared by `run`, `r2c` and `conv`:
/// `--inject-panic`, `--integrity`, and the watchdog.
fn exec_cfg_from_opts(opts: &Flags) -> Result<bwfft::core::ExecConfig, CliError> {
    let mut exec_cfg = bwfft::core::ExecConfig::default();
    if let Some(fault) = opts.get_with("inject-panic", parse_fault)? {
        exec_cfg.fault = Some(fault);
        bwfft::pipeline::fault::silence_injected_panic_reports();
    }
    if opts.has("integrity") {
        // Arm every guard: buffer canaries and per-block checksums in
        // the pipeline, plus the whole-run Parseval check.
        exec_cfg.integrity = IntegrityConfig::full();
        exec_cfg.verify_energy = true;
    }
    exec_cfg.adaptive_watchdog = Some(match opts.get("timeout-ms")? {
        Some(ms) => AdaptiveWatchdog::fixed(std::time::Duration::from_millis(ms)),
        // No explicit budget: size stall budgets from measured step
        // times instead of a guess. The raised floor tolerates
        // scheduler hiccups on busy hosts.
        None => AdaptiveWatchdog {
            min: std::time::Duration::from_millis(250),
            ..AdaptiveWatchdog::default()
        },
    });
    Ok(exec_cfg)
}

/// Builds the real-transform plan the `r2c`/`conv` subcommands share.
fn real_plan_from_opts(opts: &Flags) -> Result<RealFftPlan, CliError> {
    let dims = opts.need_with("dims", parse_dims)?;
    let (p_d, p_c) = opts.get_with("threads", parse_pair)?.unwrap_or((2, 2));
    let mut builder = RealFftPlan::builder(dims).threads(p_d, p_c);
    if let Some(b) = opts.get("buffer")? {
        builder = builder.buffer_elems(b);
    }
    if opts.has("adapt") {
        builder = builder.adapt_to_host();
    }
    Ok(builder.build()?)
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
fn cmd_r2c(opts: &Flags) -> Result<(), CliError> {
    let plan = real_plan_from_opts(opts)?;
    let exec_cfg = exec_cfg_from_opts(opts)?;
    let seed: u64 = opts.get("seed")?.unwrap_or(42);
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
    if opts.has("recover") {
        let sup = Supervisor::new(RetryPolicy::default());
        let rep = plan.r2c(&x, &mut spec, exec_cfg.verify_energy, |p, z| {
            sup.run(p, z, &mut work, &exec_cfg)
        })?;
        print_recovery(&rep, "r2c");
    } else {
        plan.r2c(&x, &mut spec, exec_cfg.verify_energy, |p, z| {
            exec_real::execute_with(p, z, &mut work, &exec_cfg)
        })?;
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
    plan.c2r(&spec, &mut back, false, |p, z| {
        exec_real::execute(p, z, &mut work)
    })?;
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

    if opts.has("verify") {
        let mut want = vec![Complex64::ZERO; plan.spectrum_elems()];
        plan.r2c(&x, &mut want, false, execute_reference)?;
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
fn cmd_conv(opts: &Flags) -> Result<(), CliError> {
    let plan = real_plan_from_opts(opts)?;
    let exec_cfg = exec_cfg_from_opts(opts)?;
    let seed: u64 = opts.get("seed")?.unwrap_or(42);
    let n = plan.real_elems();
    let impulse = opts.has("impulse");
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
    let conv = SpectralConvPlan::new(plan, &kernel)?;
    let x = random_real_field(n, seed);
    let mut got = x.clone();
    let mut work = vec![Complex64::ZERO; conv.plan().packed_elems()];
    let t0 = std::time::Instant::now();
    if opts.has("recover") {
        let sup = Supervisor::new(RetryPolicy::default());
        let (forward, inverse) =
            conv.convolve(&mut got, |p, z| sup.run(p, z, &mut work, &exec_cfg))?;
        print_recovery(&forward, "forward leg");
        print_recovery(&inverse, "inverse leg");
    } else {
        conv.convolve(&mut got, |p, z| {
            exec_real::execute_with(p, z, &mut work, &exec_cfg)
        })?;
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
    if opts.has("verify") {
        // Unfused reference pipeline: r2c both operands on the
        // reference tier, multiply the packed spectra, c2r, /N.
        let plan = conv.plan();
        let mut xs = vec![Complex64::ZERO; plan.spectrum_elems()];
        let mut gs = vec![Complex64::ZERO; plan.spectrum_elems()];
        plan.r2c(&x, &mut xs, false, execute_reference)?;
        plan.r2c(&kernel, &mut gs, false, execute_reference)?;
        for (a, b) in xs.iter_mut().zip(&gs) {
            *a *= *b;
        }
        let mut want = vec![0.0; n];
        plan.c2r(&xs, &mut want, false, execute_reference)?;
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
    let stage = parse_ooc_stage(stage, "fault")?;
    let iter = iter.parse().map_err(|_| "bad fault iter".to_string())?;
    Ok(OocFault { stage, iter, kind })
}

/// Parses the ooc stage index of a `what` (`fault`, `crash`) spec.
fn parse_ooc_stage(s: &str, what: &str) -> Result<usize, String> {
    let last = bwfft::ooc::STAGE_NAMES.len() - 1;
    match s.parse() {
        Ok(stage) if stage <= last => Ok(stage),
        Ok(stage) => Err(format!("{what} stage {stage} out of range (0..{last})")),
        Err(_) => Err(format!("bad {what} stage")),
    }
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
    let stage = parse_ooc_stage(stage, "crash")?;
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
fn cmd_workspace_gc(opts: &Flags) -> Result<(), CliError> {
    let dir: PathBuf = opts.need("dir")?;
    let secs: u64 = opts.get("older-than-secs")?.unwrap_or(24 * 3600);
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
fn cmd_tune(opts: &Flags) -> Result<(), CliError> {
    let dims = opts.need_with("dims", parse_dims)?;
    let dir = if opts.has("inverse") {
        Direction::Inverse
    } else {
        Direction::Forward
    };
    let profile = json_mode(opts, "profile");
    let collector = profile.map(|_| Arc::new(TraceCollector::new()));
    let fp = HostFingerprint::detect();
    let mut tuner_opts = TunerOptions::for_host(&bwfft::core::HostProfile::detect());
    if opts.has("model-only") {
        tuner_opts.model_only = true;
    }
    if let Some(c) = &collector {
        tuner_opts.trace = Some(Arc::clone(c));
    }
    let cache = PlanCache::new(Tuner::new(tuner_opts), fp.clone());

    let wisdom_path: Option<PathBuf> = opts.get("wisdom")?;
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
    let _plan = cache.get_or_tune(dims, dir)?;
    if had_wisdom {
        println!("tuning skipped (wisdom hit) for {} {dir:?}", dims.label());
    } else {
        println!("tuned {} {dir:?} in {:.2?}", dims.label(), t0.elapsed());
    }
    // A second request for the same shape must be served from the
    // cache — this is what `--plan-stats` makes observable.
    let _again = cache.get_or_tune(dims, dir)?;
    if let Some(rec) = cache
        .export_records()
        .into_iter()
        .find(|r| r.dims == dims && r.dir == dir)
    {
        println!("best: {}", rec.describe());
    }
    if opts.has("plan-stats") {
        let s = cache.stats();
        println!(
            "plan cache: hits={} misses={} evictions={}",
            s.hits, s.misses, s.evictions
        );
    }
    if let Some(path) = &wisdom_path {
        let mut w = Wisdom::new(fp);
        w.records = cache.export_records();
        wisdom::save(path, &w)?;
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

fn cmd_simulate(opts: &Flags) -> Result<(), CliError> {
    let dims = opts.need_with("dims", parse_dims)?;
    let spec = opts.need_with("machine", machine_by_name)?;
    let sockets: usize = opts.get("sockets")?.unwrap_or(spec.sockets);
    let p = spec.total_threads() * sockets / spec.sockets;
    let plan = FftPlan::builder(dims)
        .buffer_elems(spec.default_buffer_elems())
        .threads(p / 2, p - p / 2)
        .sockets(sockets)
        .build()?;
    let r = simulate(&plan, &spec, &SimOptions::default())?;
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
    if opts.has("baselines") {
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
fn cmd_bench(opts: &Flags) -> Result<(), CliError> {
    let gate = gate_config(opts)?;
    let derate_factor: Option<f64> = opts.get("derate")?;

    // Replay mode: compare two existing BENCH files, run nothing.
    if let Some(cur_path) = opts.raw("current") {
        let base_path = opts
            .raw("compare")
            .ok_or_else(|| usage("--current requires --compare BASELINE"))?;
        let base = load_bench(base_path)?;
        let mut cur = load_bench(cur_path)?;
        if let Some(f) = derate_factor {
            derate(&mut cur, f);
        }
        return finish_compare(&base, &cur, &gate);
    }

    let kind = match opts.raw("suite") {
        None => SuiteKind::Smoke,
        Some(s) => SuiteKind::parse(s).ok_or_else(|| {
            usage(format!(
                "unknown --suite `{s}` (smoke|fast|full; serve is `bench-serve`)"
            ))
        })?,
    };
    let mut mcfg = MeasureConfig::default();
    mcfg.reps = opts.get("reps")?.unwrap_or(mcfg.reps);
    if mcfg.reps == 0 {
        return Err(usage("--reps must be at least 1"));
    }
    mcfg.warmup = opts.get("warmup")?.unwrap_or(mcfg.warmup);
    mcfg.seed = opts.get("seed")?.unwrap_or(mcfg.seed);
    mcfg.integrity = opts.has("integrity");
    let baseline_out: Option<PathBuf> = opts.get("baseline-out")?;
    if baseline_out.is_some() && !mcfg.integrity {
        return Err(usage(
            "--baseline-out requires --integrity (it is the plain side of a paired overhead run)",
        ));
    }
    let anchor = opts
        .get_with("machine", machine_by_name)?
        .unwrap_or_else(presets::kaby_lake_7700k);
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
    let out: PathBuf = opts
        .get("out")?
        .unwrap_or_else(|| PathBuf::from(bench_filename(&report.git_rev)));
    write_file(&out, &report).map_err(|e| CliError::Runtime(e.to_string()))?;
    println!("wrote {} ({} suites, rev {})", out.display(), report.suites.len(), report.git_rev);
    if let Some(base_path) = opts.raw("compare") {
        let base = load_bench(base_path)?;
        return finish_compare(&base, &report, &gate);
    }
    if let Some(plain) = paired_plain {
        return finish_compare(&plain, &report, &gate);
    }
    Ok(())
}

/// The compare gate of `bench` and `bench-serve`: the default gate at
/// `--threshold`.
fn gate_config(opts: &Flags) -> Result<GateConfig, CliError> {
    let d = GateConfig::default();
    Ok(GateConfig {
        threshold_pct: opts.get("threshold")?.unwrap_or(d.threshold_pct),
        ..d
    })
}

/// `bench-serve`: the open-loop latency bench. Writes a single-row
/// `bwfft-bench/1` record (suite kind `serve`) whose service columns
/// carry requests/sec, p50/p99 and the outcome counts, then gates
/// against a baseline like any other suite (the p99 tail is
/// threshold-gated). Replaying two existing records is `bench
/// --current`, whatever suite wrote them.
fn cmd_bench_serve(opts: &Flags) -> Result<(), CliError> {
    let gate = &gate_config(opts)?;
    let derate_factor: Option<f64> = opts.get("derate")?;
    let cfg = serve_bench_config(opts)?;
    let overhead_pair = opts.has("metrics-overhead");
    let baseline_out: Option<PathBuf> = opts.get("baseline-out")?;
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
    let out: PathBuf = opts
        .get("out")?
        .unwrap_or_else(|| PathBuf::from(bench_filename(&report.git_rev)));
    write_file(&out, &report).map_err(|e| CliError::Runtime(e.to_string()))?;
    println!(
        "wrote {} ({} suites, rev {})",
        out.display(),
        report.suites.len(),
        report.git_rev
    );
    if let Some(base_path) = opts.raw("compare") {
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
        let f = parse_flags("run", &args).unwrap();
        assert_eq!(f.raw("dims"), Some("8x8x8"));
        assert!(f.has("verify"));
        assert_eq!(f.get_with("threads", parse_pair).unwrap(), Some((2, 2)));
    }

    /// A flag that `cmd`'s row does not list but another row does.
    fn foreign_flag(cmd: &Command) -> &'static str {
        COMMANDS
            .iter()
            .flat_map(|c| c.flags.iter().map(|&(name, _)| name))
            .find(|name| !cmd.flags.iter().any(|&(n, _)| n == *name))
            .unwrap()
    }

    #[test]
    fn each_subcommand_takes_exactly_its_row() {
        for cmd in COMMANDS {
            // Every flag of the row parses, and reads back.
            let mut args = Vec::new();
            for &(name, arg) in cmd.flags {
                args.push(format!("--{name}"));
                if matches!(arg, Value(_) | Required(_)) {
                    args.push("v".to_string());
                }
            }
            let f = parse_flags(cmd.name, &args).unwrap();
            for &(name, arg) in cmd.flags {
                let want = if matches!(arg, Value(_) | Required(_)) {
                    "v"
                } else {
                    ""
                };
                assert_eq!(f.raw(name), Some(want), "{} --{name}", cmd.name);
            }
            // A flag from another row is a usage error naming both.
            let foreign = foreign_flag(cmd);
            match parse_flags(cmd.name, &[format!("--{foreign}")]) {
                Err(CliError::Usage(msg)) => {
                    assert!(msg.contains(&format!("--{foreign}")), "{msg}");
                    assert!(msg.contains(&format!("`{}`", cmd.name)), "{msg}");
                }
                other => panic!(
                    "{} --{foreign} must be refused, got {:?}",
                    cmd.name,
                    other.map(|_| ())
                ),
            }
        }
        // The flags each command used to drop silently.
        for (cmd, flag) in [
            ("serve", "inverse"),
            ("run", "suite"),
            ("ooc", "profile"),
            ("bench", "requests"),
            ("bench-serve", "reps"),
            ("bench-serve", "integrity"),
        ] {
            let args = vec![format!("--{flag}")];
            match parse_flags(cmd, &args) {
                Err(CliError::Usage(msg)) => assert!(msg.contains(&format!("--{flag}")), "{msg}"),
                other => panic!(
                    "{cmd} --{flag} must be refused, got {:?}",
                    other.map(|_| ())
                ),
            }
        }
        let args: Vec<String> = ["serve", "--requests", "1", "--inverse"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(matches!(run(&args), Err(CliError::Usage(_))));
    }

    #[test]
    fn usage_text_lists_every_row() {
        let text = usage_text();
        for cmd in COMMANDS {
            assert!(
                text.contains(&format!("bwfft-cli {}", cmd.name)),
                "{}",
                cmd.name
            );
            for &(name, _) in cmd.flags {
                assert!(text.contains(&format!("--{name}")), "--{name}");
            }
        }
        assert!(text.lines().all(|l| l.len() <= 80), "{text}");
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
                assert!(msg.contains("panicked at pipeline iteration 1"), "{msg}");
            }
            other => panic!("expected runtime error, got {other:?}"),
        }
    }

    #[test]
    fn exit_code_discipline() {
        // The doc-comment table, asserted variant by variant through
        // each crate error's own `is_usage()`: caller input is a usage
        // error (exit 2); integrity trips, allocation refusals,
        // cancellation, worker faults and simulator failures are
        // runtime faults (exit 1). The message is the error's Display.
        use bwfft::machine::EngineError;
        use bwfft::num::AllocError;
        use bwfft::pipeline::{CancelReason, ConfigError, IntegrityKind, PipelineError};
        let usage_errors: [CoreError; 4] = [
            PlanError::NotPow2("n", 12).into(),
            CoreError::InputLength {
                what: "data",
                expected: 8,
                got: 4,
            },
            CoreError::SocketMismatch {
                plan: 2,
                machine: 1,
            },
            PipelineError::Config(ConfigError::ZeroIters).into(),
        ];
        for e in usage_errors {
            let c = CliError::from(e);
            assert!(matches!(c, CliError::Usage(_)), "{c:?}");
        }
        assert!(matches!(
            CliError::from(PlanError::NotPow2("n", 12)),
            CliError::Usage(m) if m.starts_with("plan:")
        ));
        let checksum: CoreError = PipelineError::Integrity {
            stage: 1,
            block: 4,
            kind: IntegrityKind::Checksum,
        }
        .into();
        assert_eq!(checksum.integrity_kind(), Some(IntegrityKind::Checksum));
        let energy = CoreError::Integrity {
            stage: 0,
            block: 0,
            kind: IntegrityKind::Energy,
        };
        assert_eq!(energy.integrity_kind(), Some(IntegrityKind::Energy));
        let runtime: [(CoreError, &str); 8] = [
            (
                PipelineError::WorkerPanicked {
                    role: Role::Compute,
                    thread: 1,
                    iter: 3,
                    message: "boom".into(),
                }
                .into(),
                "panicked at pipeline iteration 3",
            ),
            (
                PipelineError::StageTimeout {
                    role: Role::Data,
                    thread: 0,
                    iter: 2,
                    timeout: std::time::Duration::from_secs(1),
                }
                .into(),
                "timed out",
            ),
            (checksum, "integrity guard"),
            (
                PipelineError::Cancelled {
                    iter: 3,
                    reason: CancelReason::Deadline,
                }
                .into(),
                "deadline",
            ),
            (
                PipelineError::Cancelled {
                    iter: 0,
                    reason: CancelReason::Shutdown,
                }
                .into(),
                "shutdown",
            ),
            (
                EngineError::UndeclaredBarrier { id: 1 }.into(),
                "simulation",
            ),
            (energy, "integrity guard"),
            (
                AllocError {
                    what: "double buffer",
                    bytes: 1 << 40,
                }
                .into(),
                "allocation",
            ),
        ];
        for (e, text) in runtime {
            match CliError::from(e) {
                CliError::Runtime(msg) => assert!(msg.contains(text), "{msg}"),
                other => panic!("expected a runtime fault, got {other:?}"),
            }
        }
        // Tuner: bad wisdom and plans that fail validation are caller
        // input; a failed timing run or an empty search space is not.
        let tuner_usage = [
            TunerError::Plan(PlanError::NotPow2("mu", 3)),
            TunerError::WisdomIo {
                path: "/nope".into(),
                detail: "denied".into(),
            },
            TunerError::WisdomParse {
                line: 4,
                reason: "bad token".into(),
            },
        ];
        for e in tuner_usage {
            let c = CliError::from(e);
            assert!(matches!(c, CliError::Usage(_)), "{c:?}");
        }
        assert!(matches!(
            CliError::from(TunerError::WisdomParse { line: 4, reason: "x".into() }),
            CliError::Usage(m) if m.contains("line 4")
        ));
        let tuner_runtime = [
            TunerError::Exec(CoreError::SocketMismatch {
                plan: 2,
                machine: 1,
            }),
            TunerError::EmptySearchSpace {
                dims: Dims::d2(8, 8),
            },
        ];
        for e in tuner_runtime {
            let c = CliError::from(e);
            assert!(matches!(c, CliError::Runtime(_)), "{c:?}");
        }
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
        let tune = |profile: &str| -> Vec<String> {
            ["--dims", "8x8", profile]
                .iter()
                .map(|s| s.to_string())
                .collect()
        };
        let f = parse_flags("tune", &tune("--profile")).unwrap();
        assert_eq!(json_mode(&f, "profile"), Some(false));

        let f = parse_flags("tune", &tune("--profile=json")).unwrap();
        assert_eq!(json_mode(&f, "profile"), Some(true));

        assert!(matches!(
            parse_flags("tune", &tune("--profile=yaml")),
            Err(CliError::Usage(m)) if m.contains("--profile")
        ));

        let f = parse_flags("tune", &tune("--inverse")).unwrap();
        assert_eq!(json_mode(&f, "profile"), None);
        // `=` on any other flag is rejected.
        let args: Vec<String> = ["--dims=8x8"].iter().map(|s| s.to_string()).collect();
        assert!(parse_flags("tune", &args).is_err());
    }

    #[test]
    fn metrics_flag_parses_both_forms() {
        let args: Vec<String> = ["--metrics"].iter().map(|s| s.to_string()).collect();
        let f = parse_flags("serve", &args).unwrap();
        assert_eq!(json_mode(&f, "metrics"), Some(false), "bare = prometheus");

        let args: Vec<String> = ["--metrics=prom"].iter().map(|s| s.to_string()).collect();
        let f = parse_flags("serve", &args).unwrap();
        assert_eq!(json_mode(&f, "metrics"), Some(false));

        let args: Vec<String> = ["--metrics=json"].iter().map(|s| s.to_string()).collect();
        let f = parse_flags("serve", &args).unwrap();
        assert_eq!(json_mode(&f, "metrics"), Some(true));

        let args: Vec<String> = ["--metrics=xml"].iter().map(|s| s.to_string()).collect();
        assert!(matches!(
            parse_flags("serve", &args),
            Err(CliError::Usage(_))
        ));

        assert_eq!(
            json_mode(&parse_flags("serve", &[]).unwrap(), "metrics"),
            None
        );
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
        let args: Vec<String> = ["bench-serve", "--metrics-overhead"]
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
            "bench-serve", "--requests", "8", "--workers", "2",
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
            "bench-serve", "--requests", "8", "--workers", "2",
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
        for suite in ["warp", "serve"] {
            let args: Vec<String> = ["bench", "--suite", suite]
                .iter()
                .map(|s| s.to_string())
                .collect();
            assert!(matches!(run(&args), Err(CliError::Usage(_))), "{suite}");
        }
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
