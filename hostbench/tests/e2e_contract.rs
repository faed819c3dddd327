//! Contract tests for `bench_e2e`: a `--quick` run (tiny shapes, short
//! phases) must emit every workload and metric `BENCHMARK.json` names,
//! check every output, count a corrupted output as failed, replay the
//! executor bitwise, and generate the same inputs from the same seed.

use bwfft_hostbench::contract::{Better, Contract};
use bwfft_hostbench::measure::{percentile, summarize, tail_rank, TAIL_BEYOND, TAIL_P};
use bwfft_hostbench::report::{self, RunRecord, RunSet};
use bwfft_hostbench::{input_digest, Metric, WORKLOADS};
use std::path::PathBuf;
use std::process::Command;

fn benchmark_json() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

fn contract() -> Contract {
    Contract::load(&benchmark_json()).unwrap()
}

/// Runs the benchmark binary; returns its exit code and stdout.
fn bench(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_bench_e2e"))
        .args(args)
        .arg("--benchmark")
        .arg(benchmark_json())
        .output()
        .unwrap();
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn contract_file_matches_the_program() {
    let c = contract();
    assert_eq!(c.workloads, WORKLOADS);
    let setup = c.e2e("setup_s").unwrap();
    assert_eq!((setup.unit.as_str(), setup.better), ("s", Better::Lower));
    let mut names: Vec<&str> = c
        .end_to_end
        .iter()
        .chain(&c.per_layer)
        .map(|m| m.name.as_str())
        .collect();
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "metric names must be unique");
    for m in &c.end_to_end {
        let bound = m.bound.unwrap();
        assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
        assert!(
            bound <= setup.bound.unwrap(),
            "setup_s has the largest bound"
        );
    }
}

#[test]
fn quick_run_emits_every_metric_checks_every_output_and_replays_bitwise() {
    let c = contract();
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("e2e_quick.json");
    let _ = std::fs::remove_file(&out);
    let (code, stdout) = bench(&[
        "--quick",
        "--seconds",
        "0.3",
        "--out",
        out.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "{stdout}");

    for w in WORKLOADS {
        let got = report::parse_lines(w, &stdout);
        let find = |name: &str| got.iter().find(|m| m.name == name);
        for spec in c.end_to_end.iter().chain(&c.per_layer) {
            let m = find(&spec.name).unwrap_or_else(|| panic!("{w}: {} missing", spec.name));
            assert_eq!(m.unit, spec.unit, "{w}: {}", spec.name);
            assert!(m.value.is_finite(), "{w}: {} = {}", spec.name, m.value);
        }
        for spec in &c.end_to_end {
            assert!(
                find(&spec.name).unwrap().value > 0.0,
                "{w}: {} is 0",
                spec.name
            );
        }
        assert_eq!(find("check.failed_frac").unwrap().value, 0.0, "{w}");
        assert_eq!(find("core.replay_mismatches").unwrap().value, 0.0, "{w}");
    }
    for w in ["exec3d_large", "exec2d_small", "serve2d_small"] {
        let replay = report::parse_lines(w, &stdout);
        assert!(
            replay
                .iter()
                .any(|m| m.name == "core.replay_ms" && m.value > 0.0),
            "{w}"
        );
    }

    let sets = report::parse_sets(&std::fs::read_to_string(&out).unwrap()).unwrap();
    assert_eq!(sets.len(), 1);
    assert_eq!(sets[0].runs.len(), WORKLOADS.len());
    for r in &sets[0].runs {
        assert!(r.correct && r.attempted > 0 && r.failed == 0, "{r:?}");
    }
    let trace = std::fs::read_to_string(format!("{}.trace.json", out.display())).unwrap();
    bwfft_trace::value::parse_document(&trace).unwrap();
}

#[test]
fn a_flipped_output_bit_is_counted_as_failed() {
    for w in WORKLOADS {
        let (code, stdout) = bench(&["--workload", w, "--quick", "--seconds", "0.2", "--flip-bit"]);
        assert_eq!(code, 1, "{w}: {stdout}");
        let (correct, attempted, failed) = report::parse_verdict(&stdout).unwrap();
        assert!(!correct && attempted > 0 && failed >= 1, "{w}: {stdout}");
    }
}

#[test]
fn tail_percentile_leaves_ten_samples_beyond() {
    for n in 1..3000usize {
        let (p, idx) = tail_rank(n);
        if n > TAIL_BEYOND {
            assert!(n - (idx + 1) >= TAIL_BEYOND, "n={n}");
        }
        if n >= 50 {
            assert_eq!(p, TAIL_P, "n={n}");
        } else if n > TAIL_BEYOND {
            assert_eq!(n - (idx + 1), TAIL_BEYOND, "n={n}");
        }
        let v: Vec<f64> = (0..n).rev().map(|i| i as f64).collect();
        let s = summarize(&v).unwrap();
        let sorted: Vec<f64> = (0..n).map(|i| i as f64).collect();
        assert_eq!((s.tail_p, s.tail), (p, sorted[idx]), "n={n}");
        if p == TAIL_P {
            assert_eq!(s.tail, percentile(&sorted, TAIL_P));
        }
    }
}

#[test]
fn plain_p90_and_p99_appear_only_with_ten_samples_beyond() {
    let v: Vec<f64> = (0..1000).map(f64::from).collect();
    let s = summarize(&v).unwrap();
    assert_eq!((s.tail, s.p90, s.p99), (799.0, Some(899.0), Some(989.0)));
    let s = summarize(&v[..500]).unwrap();
    assert_eq!((s.p90, s.p99), (Some(449.0), None));
}

#[test]
fn the_same_seed_gives_identical_inputs() {
    for w in WORKLOADS {
        let a = input_digest(w, 7, true).unwrap();
        assert_eq!(a, input_digest(w, 7, true).unwrap(), "{w}");
        assert_ne!(a, input_digest(w, 8, true).unwrap(), "{w}");
    }
}

fn set(label: &str, scale: f64) -> RunSet {
    let c = contract();
    RunSet {
        label: label.to_string(),
        seconds: 1.0,
        runs: (0..3)
            .map(|run| RunRecord {
                run,
                seed: run,
                workload: "exec2d_small".to_string(),
                correct: true,
                attempted: 1,
                failed: 0,
                metrics: c
                    .end_to_end
                    .iter()
                    .map(|m| Metric::new(&m.name, scale * (1.0 + run as f64 / 100.0), &m.unit))
                    .collect(),
            })
            .collect(),
    }
}

#[test]
fn compare_agrees_with_itself_and_flags_a_shift() {
    let c = contract();
    let rows = report::compare(&set("a", 1.0), &set("b", 1.0), &c);
    assert_eq!(rows.len(), c.end_to_end.len());
    assert!(rows.iter().all(|r| r.verdict == "agree"));
    let rows = report::compare(&set("a", 1.0), &set("b", 1.5), &c);
    for r in rows {
        let expect = match c.e2e(&r.metric).unwrap().better {
            Better::Lower => "worse",
            Better::Higher => "better",
        };
        assert_eq!(r.verdict, expect, "{}", r.metric);
    }

    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("e2e_compare.json");
    std::fs::write(&path, report::sets_json(&[set("a", 1.0), set("b", 1.02)])).unwrap();
    let (code, stdout) = bench(&["--compare", path.to_str().unwrap()]);
    assert_eq!(code, 0, "{stdout}");
    std::fs::write(&path, report::sets_json(&[set("a", 1.0), set("b", 2.0)])).unwrap();
    let (code, stdout) = bench(&["--compare", path.to_str().unwrap()]);
    assert_eq!(code, 1, "{stdout}");
}
