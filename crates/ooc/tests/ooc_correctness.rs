//! Out-of-core tier contracts: the streamed result is bit-identical to
//! the same arithmetic run in RAM, close to the naive DFT, the oracle
//! accepts correct runs and rejects corrupted blocks, scratch
//! directories never leak, and the acceptance scenario (a transform 4×
//! the working budget surviving an injected storage fault) holds.

// Test helpers unwrap like the #[test] fns they serve;
// `allow-unwrap-in-tests` only covers the annotated fns themselves.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use bwfft_kernels::reference::dft_naive;
use bwfft_kernels::twiddle::FourStepTwiddles;
use bwfft_kernels::Direction;
use bwfft_num::signal::random_complex;
use bwfft_num::Complex64;
use bwfft_ooc::exec::twiddle;
use bwfft_ooc::plan::BYTES_PER_HALF_ELEM;
use bwfft_ooc::{
    execute, four_step_in_ram, plan, verify, OocConfig, OocError, OocFault, OocFaultKind,
    OocStore, OracleConfig, Workspace,
};
use proptest::prelude::*;
use std::path::{Path, PathBuf};

/// Writes `x` (length n1·n2) into a padded input store inside `ws`.
fn store_input(ws: &Workspace, p: &bwfft_ooc::OocPlan, x: &[Complex64]) -> OocStore {
    let input = OocStore::create(&ws.path("input.bin"), p.n1, p.n2, p.stride_cols_n2).unwrap();
    input.write_rows(0, x).unwrap();
    input
}

fn read_output(out: &OocStore) -> Vec<Complex64> {
    let mut y = vec![Complex64::ZERO; out.rows() * out.cols()];
    out.read_rows(0, &mut y).unwrap();
    y
}

/// Runs the full out-of-core path on `x` and returns the spectrum.
fn ooc_transform(x: &[Complex64], cfg: &OocConfig) -> (bwfft_ooc::OocPlan, Vec<Complex64>) {
    let p = plan(x.len(), cfg).unwrap();
    let ws = Workspace::create().unwrap();
    let input = store_input(&ws, &p, x);
    let output = OocStore::create(&ws.path("output.bin"), p.n2, p.n1, p.stride_cols_n1).unwrap();
    let report = execute(&p, cfg, &ws, &input, &output).unwrap();
    assert_eq!(report.retries, 0);
    assert_eq!(report.serial_fallbacks, 0);
    (p, read_output(&output))
}

/// A budget that forces at least four streamed blocks per stage.
fn tight_budget(n: usize) -> usize {
    let e = n.trailing_zeros() as usize;
    let n1 = n >> (e / 2);
    n1 * BYTES_PER_HALF_ELEM
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn streamed_result_is_bit_identical_to_in_ram_four_step(
        e in 4usize..=10,
        seed in any::<u64>(),
        inverse in any::<bool>(),
    ) {
        let n = 1usize << e;
        let dir = if inverse { Direction::Inverse } else { Direction::Forward };
        let cfg = OocConfig { dir, budget_bytes: tight_budget(n), ..OocConfig::default() };
        let x = random_complex(n, seed);
        let (p, y) = ooc_transform(&x, &cfg);
        prop_assert!(p.half_elems * p.n2.max(p.n1) <= n * p.n1.max(p.n2),
            "budget should force real blocking: half={} n={}", p.half_elems, n);
        let want = four_step_in_ram(&p, &x);
        // Same kernels, same twiddles, same per-row batching: the
        // streaming layer must not change one bit.
        prop_assert_eq!(y, want);
    }

    #[test]
    fn streamed_result_matches_the_naive_dft(
        e in 4usize..=9,
        seed in any::<u64>(),
    ) {
        let n = 1usize << e;
        let cfg = OocConfig { budget_bytes: tight_budget(n), ..OocConfig::default() };
        let x = random_complex(n, seed);
        let (_, y) = ooc_transform(&x, &cfg);
        let want = dft_naive(&x, Direction::Forward);
        let scale: f64 = x.iter().map(|v| v.abs()).sum::<f64>().max(1.0);
        for (k, (got, exp)) in y.iter().zip(&want).enumerate() {
            let err = (*got - *exp).abs();
            prop_assert!(err <= 1e-10 * scale, "bin {k}: |Δ| = {err:.3e}");
        }
    }
}

#[test]
fn forward_then_inverse_recovers_the_signal() {
    let n = 1 << 8;
    let x = random_complex(n, 11);
    let fwd = OocConfig {
        budget_bytes: tight_budget(n),
        ..OocConfig::default()
    };
    let (_, y) = ooc_transform(&x, &fwd);
    let inv = OocConfig {
        dir: Direction::Inverse,
        ..fwd
    };
    let (_, z) = ooc_transform(&y, &inv);
    for (a, (got, orig)) in z.iter().zip(&x).enumerate() {
        // Unnormalized kernels: inverse(forward(x)) = n·x.
        let err = (got.scale(1.0 / n as f64) - *orig).abs();
        assert!(err < 1e-10, "sample {a}: |Δ| = {err:.3e}");
    }
}

#[test]
fn stage_one_table_tracks_the_exact_oracle_twiddle() {
    // Row a2 of the n2×n1 stage-1 matrix, column k1, against the
    // oracle's exact `twiddle(a2, k1)`: both splits (n1 = n2 and
    // n1 = 2·n2), both directions, every entry.
    for e in [9usize, 10] {
        let p = plan(1 << e, &OocConfig::default()).unwrap();
        for dir in [Direction::Forward, Direction::Inverse] {
            let table = FourStepTwiddles::new(p.n2, p.n1, dir);
            for a2 in 0..p.n2 {
                let mut row = vec![Complex64::ONE; p.n1];
                table.apply_row(a2, &mut row);
                for (k1, w) in row.iter().enumerate() {
                    let err = (*w - twiddle(a2, k1, p.n, dir)).abs();
                    assert!(err <= 8.0 * f64::EPSILON, "n=2^{e} ({a2}, {k1}): {err:e}");
                }
            }
        }
    }
}

#[test]
fn oracle_accepts_correct_runs_and_rejects_a_corrupted_block() {
    let n = 1usize << 12;
    let cfg = OocConfig {
        budget_bytes: tight_budget(n),
        ..OocConfig::default()
    };
    let p = plan(n, &cfg).unwrap();
    let ws = Workspace::create().unwrap();
    let x = random_complex(n, 23);
    let input = store_input(&ws, &p, &x);
    let output = OocStore::create(&ws.path("output.bin"), p.n2, p.n1, p.stride_cols_n1).unwrap();
    execute(&p, &cfg, &ws, &input, &output).unwrap();

    let oracle_cfg = OracleConfig::default();
    let ok = verify(&input, &output, &p, &oracle_cfg).unwrap();
    assert_eq!(ok.bins_checked, oracle_cfg.bins);
    assert!(ok.max_abs_err <= ok.tol);
    assert!(ok.parseval_rel_err <= oracle_cfg.parseval_rel_tol);

    // Seed a corrupted block: overwrite one output row with garbage.
    // Parseval must catch the energy change even if no sampled bin
    // lands in the row; a sampled hit fails the spot check first.
    let garbage: Vec<Complex64> = (0..p.n1).map(|i| Complex64::new(1e3 + i as f64, -1e3)).collect();
    output.write_rows(p.n2 / 2, &garbage).unwrap();
    match verify(&input, &output, &p, &oracle_cfg) {
        Err(OocError::OracleMismatch { .. }) | Err(OocError::ParsevalMismatch { .. }) => {}
        other => panic!("oracle accepted a corrupted block: {other:?}"),
    }
}

/// Lists the entries the run left under `root` (hygiene assertions).
fn leftovers(root: &Path) -> Vec<PathBuf> {
    std::fs::read_dir(root)
        .map(|it| it.filter_map(|e| e.ok().map(|e| e.path())).collect())
        .unwrap_or_default()
}

fn hygiene_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!(
        "bwfft-ooc-hygiene-{}-{}",
        std::process::id(),
        tag
    ));
    std::fs::create_dir_all(&root).unwrap();
    root
}

#[test]
fn no_scratch_files_leak_on_success() {
    let root = hygiene_root("ok");
    let cfg = OocConfig {
        budget_bytes: tight_budget(1 << 10),
        ..OocConfig::default()
    };
    let out =
        bwfft_ooc::run_generated_in(1 << 10, 3, &cfg, &OracleConfig::default(), Some(&root))
            .unwrap();
    assert_eq!(out.report.faults_hit, 0);
    assert!(
        leftovers(&root).is_empty(),
        "success leaked: {:?}",
        leftovers(&root)
    );
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn no_scratch_files_leak_on_error() {
    let root = hygiene_root("err");
    // A persistent failure: delete the input store's file mid-setup by
    // pointing the run at a budget the planner accepts but the input
    // fill cannot survive — easiest deterministic error is a fault in
    // every tier, which the one-shot injector can't provide, so use a
    // doomed store instead: create the workspace manually and hand
    // execute() an input store whose backing file is gone.
    let cfg = OocConfig {
        budget_bytes: tight_budget(1 << 8),
        ..OocConfig::default()
    };
    let p = plan(1 << 8, &cfg).unwrap();
    {
        let ws = Workspace::create_under(&root).unwrap();
        let input = store_input(&ws, &p, &random_complex(1 << 8, 5));
        let output =
            OocStore::create(&ws.path("output.bin"), p.n2, p.n1, p.stride_cols_n1).unwrap();
        // Shrink the backing file so every stage-0 read fails, on the
        // pipelined attempts and the serial tier alike.
        std::fs::File::options()
            .write(true)
            .open(input.path())
            .unwrap()
            .set_len(0)
            .unwrap();
        match execute(&p, &cfg, &ws, &input, &output) {
            Err(OocError::StageExhausted { stage, .. }) => assert_eq!(stage, "transpose-in"),
            other => panic!("expected StageExhausted, got {other:?}"),
        }
    }
    assert!(
        leftovers(&root).is_empty(),
        "error path leaked: {:?}",
        leftovers(&root)
    );
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn no_scratch_files_leak_on_panic_containment() {
    let root = hygiene_root("panic");
    let result = std::panic::catch_unwind(|| {
        let ws = Workspace::create_under(&root).unwrap();
        std::fs::write(ws.path("big-scratch.bin"), vec![0u8; 4096]).unwrap();
        panic!("simulated worker blow-up while the workspace is live");
    });
    assert!(result.is_err());
    assert!(
        leftovers(&root).is_empty(),
        "panic unwind leaked: {:?}",
        leftovers(&root)
    );
    std::fs::remove_dir_all(&root).unwrap();
}

/// ISSUE 7 acceptance: a transform at least 4× larger than the working
/// budget completes from a file-backed store, passes the spot-check
/// oracle and streamed Parseval, and survives one injected storage
/// fault via the recovery ladder without a wrong answer.
#[test]
fn acceptance_4x_budget_with_injected_fault() {
    let n = 1usize << 14;
    let data_bytes = n * 16;
    let budget = data_bytes / 4;
    for kind in [OocFaultKind::Read, OocFaultKind::Write] {
        let cfg = OocConfig {
            budget_bytes: budget,
            p_d: 2,
            p_c: 2,
            fault: Some(OocFault {
                stage: 1,
                iter: 0,
                kind,
            }),
            ..OocConfig::default()
        };
        let out = bwfft_ooc::run_generated(n, 42, &cfg, &OracleConfig::default()).unwrap();
        assert!(
            out.plan.data_bytes() >= 4 * budget as u64,
            "problem must be ≥ 4× the budget"
        );
        assert_eq!(out.report.faults_hit, 1, "the injected {kind:?} fault must fire");
        assert!(out.report.retries >= 1, "the ladder must have retried");
        assert_eq!(out.report.serial_fallbacks, 0, "one fault must not exhaust the ladder");
        assert!(out.oracle.max_abs_err <= out.oracle.tol);
    }
}

#[test]
fn report_accounts_for_every_stage_byte() {
    let n = 1usize << 12;
    let cfg = OocConfig {
        budget_bytes: tight_budget(n),
        ..OocConfig::default()
    };
    let out = bwfft_ooc::run_generated(n, 9, &cfg, &OracleConfig::default()).unwrap();
    // Five stages each read and write the full payload exactly once.
    let payload = (n * 16) as u64;
    assert_eq!(out.report.bytes_read, 5 * payload);
    assert_eq!(out.report.bytes_written, 5 * payload);
    assert!(out.report.io_ns > 0);
    assert!(out.report.wall_ns >= out.report.io_ns / 2);
    assert!(out.report.storage_gbs() > 0.0);
}

/// The serial tier end to end: with one pipelined attempt per stage, a
/// single injected fault exhausts the ladder and the stage reruns on
/// the serial tier. Every fault kind, stage and thread split must then
/// finish bit-identical to the in-RAM four-step, with the failed
/// attempt's partial traffic plus one full serial pass in the byte
/// counts.
#[test]
fn serial_tier_finishes_bit_identical_after_an_exhausted_ladder() {
    let n = 1usize << 10;
    let x = random_complex(n, 31);
    for kind in [OocFaultKind::Read, OocFaultKind::Write] {
        // Five stages of 16 KiB each way, plus what the failed attempt
        // moved before its fault at block 1 (32-element blocks): a read
        // fault costs block 0's read; a write fault costs the reads of
        // blocks 0-2 and the write of block 0.
        let (want_read, want_written) = match kind {
            OocFaultKind::Read => (82_432, 81_920),
            OocFaultKind::Write => (83_456, 82_432),
        };
        for stage in 0..5 {
            for (p_d, p_c) in [(1, 1), (2, 2)] {
                let cell = format!("{kind:?} fault, stage {stage}, threads ({p_d}, {p_c})");
                let cfg = OocConfig {
                    budget_bytes: tight_budget(n),
                    p_d,
                    p_c,
                    retry: bwfft_core::supervisor::RetryPolicy {
                        max_attempts: 1,
                        ..Default::default()
                    },
                    fault: Some(OocFault {
                        stage,
                        iter: 1,
                        kind,
                    }),
                    ..OocConfig::default()
                };
                let p = plan(n, &cfg).unwrap();
                let ws = Workspace::create().unwrap();
                let input = store_input(&ws, &p, &x);
                let output = OocStore::create(&ws.path("output.bin"), p.n2, p.n1, p.stride_cols_n1)
                    .unwrap();
                let report = execute(&p, &cfg, &ws, &input, &output)
                    .unwrap_or_else(|e| panic!("{cell}: {e}"));
                assert_eq!(report.serial_fallbacks, 1, "{cell}");
                assert_eq!(report.faults_hit, 1, "{cell}");
                assert_eq!(read_output(&output), four_step_in_ram(&p, &x), "{cell}");
                assert_eq!(
                    (report.bytes_read, report.bytes_written),
                    (want_read, want_written),
                    "{cell}"
                );
            }
        }
    }
}
