//! `bench_e2e` — the end-to-end host benchmark.
//!
//! ```text
//! bench_e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! bench_e2e [--seed N] [--seconds S] [--runs R] [--quick] [--out FILE]
//! bench_e2e --compare FILE [FILE2]
//! ```
//!
//! With `--workload`, one workload runs in this process and the last
//! stdout line is its JSON verdict. Without it, every workload runs in a
//! child process (traced), `R` times with seeds `N, N+1, …`; `--out`
//! appends the runs as one set to a `bwfft-e2e/1` file and writes the
//! spans to `FILE.trace.json`. `--compare` pairs the medians of two sets
//! (the two sets of one file, or the last set of each of two files) and
//! exits 1 when any workload × end-to-end metric differs by more than
//! its bound. Exit codes: 0 ok, 1 failed check or disagreement, 2 usage.

use bwfft_hostbench::contract::Contract;
use bwfft_hostbench::report::{self, RunRecord, RunSet};
use bwfft_hostbench::{run_workload, spans, Opts, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage: bench_e2e [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
[--runs R] [--quick] [--out FILE] [--benchmark FILE] | --compare FILE [FILE2]";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    runs: u64,
    quick: bool,
    flip_bit: bool,
    out: Option<PathBuf>,
    spans_out: Option<PathBuf>,
    benchmark: PathBuf,
    compare: Vec<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 42,
        seconds: None,
        trace: false,
        runs: 1,
        quick: false,
        flip_bit: false,
        out: None,
        spans_out: None,
        benchmark: PathBuf::from("BENCHMARK.json"),
        compare: Vec::new(),
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a name")?),
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: {other:?} is not 0 or 1")),
                }
            }
            "--runs" => {
                a.runs = value("a number")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
                if a.runs == 0 {
                    return Err("--runs must be at least 1".into());
                }
            }
            "--quick" => a.quick = true,
            "--flip-bit" => a.flip_bit = true,
            "--out" => a.out = Some(value("a path")?.into()),
            "--spans-out" => a.spans_out = Some(value("a path")?.into()),
            "--benchmark" => a.benchmark = value("a path")?.into(),
            "--compare" => {
                a.compare.push(value("a path")?.into());
                if let Some(second) = it.next_if(|s| !s.starts_with("--")) {
                    a.compare.push(second.into());
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let contract = match Contract::load(&args.benchmark) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if !args.compare.is_empty() {
        compare(&args, &contract)
    } else if let Some(w) = &args.workload {
        one_workload(w, &args, &contract)
    } else {
        all_workloads(&args, &contract)
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            ExitCode::from(1)
        }
    }
}

type Res<T> = Result<T, String>;

fn one_workload(name: &str, args: &Args, contract: &Contract) -> Res<ExitCode> {
    if !contract.workloads.iter().any(|w| w == name) {
        return Err(format!("workload {name:?} is not named in BENCHMARK.json"));
    }
    let opts = Opts {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(contract.run_seconds),
        trace: args.trace,
        quick: args.quick,
        flip_bit: args.flip_bit,
    };
    let outcome = run_workload(name, &opts).map_err(|e| format!("{name}: {e}"))?;
    let fin = report::finalize(&outcome, contract).map_err(|e| format!("{name}: {e}"))?;
    for line in report::lines(name, &outcome, &fin) {
        println!("{line}");
    }
    if let Some(path) = &args.spans_out {
        std::fs::write(path, spans::to_json(&outcome.spans)).map_err(|e| e.to_string())?;
    }
    println!("{}", report::json_line(&outcome, &fin, opts.trace));
    Ok(if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn all_workloads(args: &Args, contract: &Contract) -> Res<ExitCode> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let seconds = args.seconds.unwrap_or(contract.run_seconds);
    let mut set = RunSet {
        label: format!("seed {} x{} runs, {} s", args.seed, args.runs, seconds),
        seconds,
        runs: Vec::new(),
    };
    let mut traces = Vec::new();
    let mut ok = true;
    for run in 0..args.runs {
        let seed = args.seed + run;
        for w in WORKLOADS {
            let spans_path = args
                .out
                .as_ref()
                .map(|o| PathBuf::from(format!("{}.spans.{w}.{run}.json", o.display())));
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w, "--trace", "1"])
                .args([
                    "--seed",
                    &seed.to_string(),
                    "--seconds",
                    &seconds.to_string(),
                ])
                .arg("--benchmark")
                .arg(&args.benchmark)
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit());
            if args.quick {
                cmd.arg("--quick");
            }
            if let Some(p) = &spans_path {
                cmd.arg("--spans-out").arg(p);
            }
            let child = cmd.output().map_err(|e| format!("{w}: {e}"))?;
            let stdout = String::from_utf8_lossy(&child.stdout);
            for line in stdout.lines().filter(|l| !l.starts_with('{')) {
                println!("{line}");
            }
            let verdict = report::parse_verdict(&stdout);
            let Some((correct, attempted, failed)) = verdict.filter(|_| child.status.success())
            else {
                eprintln!("bench_e2e: {w} (run {run}) failed: {}", child.status);
                ok = false;
                continue;
            };
            set.runs.push(RunRecord {
                run,
                seed,
                workload: w.to_string(),
                correct,
                attempted,
                failed,
                metrics: report::parse_lines(w, &stdout),
            });
            if let Some(p) = spans_path {
                traces.push((run, w, p));
            }
        }
    }
    if let Some(out) = &args.out {
        report::append_set(out, set).map_err(|e| e.to_string())?;
        write_trace(out, &traces)?;
        println!("# wrote {} and {}.trace.json", out.display(), out.display());
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// Folds the children's span files into `<out>.trace.json`.
fn write_trace(out: &Path, traces: &[(u64, &str, PathBuf)]) -> Res<()> {
    let mut doc = String::from("{\"schema\": \"bwfft-e2e-trace/1\", \"runs\": [");
    for (i, (run, w, path)) in traces.iter().enumerate() {
        let spans =
            std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let _ = std::fs::remove_file(path);
        doc.push_str(if i > 0 { ",\n" } else { "\n" });
        doc.push_str(&format!(
            "{{\"run\": {run}, \"workload\": \"{w}\", \"spans\": {spans}}}"
        ));
    }
    doc.push_str("\n]}\n");
    let path = format!("{}.trace.json", out.display());
    std::fs::write(&path, doc).map_err(|e| format!("{path}: {e}"))
}

fn compare(args: &Args, contract: &Contract) -> Res<ExitCode> {
    let mut sets = Vec::new();
    for path in &args.compare {
        let src = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut s = report::parse_sets(&src).map_err(|e| format!("{}: {e}", path.display()))?;
        if args.compare.len() == 2 {
            // Two files: the latest set of each.
            s = s.pop().into_iter().collect();
        }
        sets.extend(s);
    }
    let [a, b] = sets.as_slice() else {
        return Err(format!(
            "--compare needs exactly two sets, found {}",
            sets.len()
        ));
    };
    let rows = report::compare(a, b, contract);
    print!("{}", report::render_rows(a, b, &rows));
    let disagree = rows.iter().filter(|r| r.verdict != "agree").count();
    println!("# {disagree} of {} rows outside their bound", rows.len());
    Ok(if disagree == 0 && !rows.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}
