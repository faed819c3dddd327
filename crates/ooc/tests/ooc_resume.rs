//! Crash → resume integration tests for the checkpointed lifecycle.
//!
//! These use the in-process `CrashMode::Halt` flavor (a typed
//! [`OocError::CrashPoint`] instead of a real `abort()`, which would
//! kill the test runner); the real SIGKILL-grade drill lives in the
//! root crate's `tests/ooc_crash.rs` and the `soak --ooc-kill` harness,
//! which spawn CLI child processes.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use bwfft_ooc::{
    run_checkpointed, CheckpointConfig, CheckpointRun, CrashMode, CrashPoint, JournalError,
    OocConfig, OocError, OocFault, OocFaultKind, OracleConfig, ResumeError, ResumeVerify,
    JOURNAL_FILE,
};
use std::fs::OpenOptions;
use std::os::unix::fs::FileExt;
use std::path::PathBuf;

/// 4096-point plan with a 16 KiB budget: 64×64 split, 256-element
/// halves, 4 rows per block, 16 blocks in every one of the 5 stages.
const N: usize = 1 << 12;
const SEED: u64 = 0xFEED;
const BLOCKS_PER_STAGE: u64 = 16;

fn cfg(crash: Option<CrashPoint>) -> OocConfig {
    OocConfig {
        budget_bytes: 16 * 1024,
        checkpoint: CheckpointConfig {
            resume_verify: ResumeVerify::All,
            crash,
        },
        ..OocConfig::default()
    }
}

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "bwfft-resume-test-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn fresh(dir: &PathBuf) -> CheckpointRun<'_> {
    CheckpointRun {
        dir,
        resume: false,
        keep: false,
    }
}

fn resume(dir: &PathBuf) -> CheckpointRun<'_> {
    CheckpointRun {
        dir,
        resume: true,
        keep: false,
    }
}

/// Runs to the injected Halt crash and asserts the keep-on-crash
/// contract: typed error, workspace (journal + scratch) left on disk.
fn crash_at(dir: &PathBuf, stage: usize, block: usize) {
    let c = cfg(Some(CrashPoint {
        stage,
        block,
        mode: CrashMode::Halt,
    }));
    match run_checkpointed(N, SEED, &c, &OracleConfig::default(), &fresh(dir)) {
        Err(OocError::CrashPoint { .. }) => {}
        other => panic!("expected CrashPoint, got {other:?}"),
    }
    assert!(
        dir.join(JOURNAL_FILE).exists(),
        "crashed run must keep its journal for the resume"
    );
}

#[test]
fn fresh_checkpointed_run_verifies_and_cleans_up() {
    let dir = test_dir("fresh");
    let out = run_checkpointed(N, SEED, &cfg(None), &OracleConfig::default(), &fresh(&dir))
        .expect("fresh checkpointed run");
    assert!(!out.report.resumed);
    assert_eq!(out.report.skipped_blocks, 0);
    assert_eq!(out.report.rework_blocks, 0);
    assert_eq!(out.report.resumed_bytes, 0);
    assert_eq!(out.oracle.bins_checked, 16);
    assert!(!dir.exists(), "successful run must remove its workspace");
}

#[test]
fn halt_crash_then_resume_completes_with_bounded_rework() {
    let dir = test_dir("crash-resume");
    crash_at(&dir, 2, 5);
    let out = run_checkpointed(N, SEED, &cfg(None), &OracleConfig::default(), &resume(&dir))
        .expect("resume after crash");
    let r = &out.report;
    assert!(r.resumed);
    // Stages 0 and 1 completed (stage records); blocks 0..=5 of the
    // in-flight stage 2 were journaled before the crash point fired.
    assert_eq!(r.skipped_blocks, 2 * BLOCKS_PER_STAGE + 6);
    // Rework = unjournaled blocks of the frontier stage only — the
    // bound the journal exists to enforce.
    assert_eq!(r.rework_blocks, BLOCKS_PER_STAGE - 6);
    assert!(r.rework_blocks <= BLOCKS_PER_STAGE);
    // Every journaled block was re-verified (ResumeVerify::All).
    assert_eq!(r.reverified_blocks, 2 * BLOCKS_PER_STAGE + 6);
    assert!(r.resumed_bytes > 0);
    // The resume moved strictly less data than a full run: stages 0-1
    // were skipped entirely.
    let full = run_checkpointed(
        N,
        SEED,
        &cfg(None),
        &OracleConfig::default(),
        &fresh(&test_dir("crash-resume-ref")),
    )
    .unwrap();
    assert!(r.bytes_read + r.bytes_written < full.report.bytes_read + full.report.bytes_written);
    assert!(!dir.exists(), "successful resume removes the workspace");
}

#[test]
fn resume_after_crash_in_every_stage_is_correct() {
    for stage in 0..5 {
        let dir = test_dir(&format!("stage{stage}"));
        crash_at(&dir, stage, 3);
        let out =
            run_checkpointed(N, SEED, &cfg(None), &OracleConfig::default(), &resume(&dir))
                .unwrap_or_else(|e| panic!("resume after stage-{stage} crash: {e}"));
        assert!(out.report.resumed);
        assert!(out.report.rework_blocks <= BLOCKS_PER_STAGE);
        assert_eq!(
            out.report.skipped_blocks,
            stage as u64 * BLOCKS_PER_STAGE + 4,
            "stage {stage}: stages before the frontier skip whole, \
             blocks 0..=3 of the frontier skip individually"
        );
    }
}

#[test]
fn fresh_run_refuses_to_clobber_an_existing_journal() {
    let dir = test_dir("clobber");
    crash_at(&dir, 1, 0);
    match run_checkpointed(N, SEED, &cfg(None), &OracleConfig::default(), &fresh(&dir)) {
        Err(OocError::Journal(JournalError::AlreadyExists { .. })) => {}
        other => panic!("expected AlreadyExists, got {other:?}"),
    }
    // The refused run must not have damaged the journal: resume works.
    run_checkpointed(N, SEED, &cfg(None), &OracleConfig::default(), &resume(&dir))
        .expect("resume after refused clobber");
}

#[test]
fn resume_without_a_journal_is_typed() {
    let dir = test_dir("nojournal");
    match run_checkpointed(N, SEED, &cfg(None), &OracleConfig::default(), &resume(&dir)) {
        Err(OocError::Resume(ResumeError::JournalMissing { .. })) => {}
        other => panic!("expected JournalMissing, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_with_a_different_seed_is_typed() {
    let dir = test_dir("seed");
    crash_at(&dir, 2, 5);
    match run_checkpointed(N, SEED + 1, &cfg(None), &OracleConfig::default(), &resume(&dir)) {
        Err(OocError::Resume(ResumeError::PlanMismatch { field: "seed", .. })) => {}
        other => panic!("expected seed PlanMismatch, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_with_a_different_budget_is_typed() {
    let dir = test_dir("budget");
    crash_at(&dir, 2, 5);
    let mut c = cfg(None);
    c.budget_bytes = 32 * 1024;
    match run_checkpointed(N, SEED, &c, &OracleConfig::default(), &resume(&dir)) {
        Err(OocError::Resume(ResumeError::PlanMismatch { .. })) => {}
        other => panic!("expected PlanMismatch, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_detects_a_bit_flipped_scratch_block() {
    let dir = test_dir("bitflip");
    // Crash in stage 3 (dft-n2): its destination s2.bin holds blocks
    // 0..=2 that the journal credits as complete.
    crash_at(&dir, 3, 2);
    // Flip one payload bit inside journaled block 0 (rows 0..4 of s2).
    let f = OpenOptions::new()
        .read(true)
        .write(true)
        .open(dir.join("s2.bin"))
        .unwrap();
    let mut b = [0u8; 1];
    f.read_exact_at(&mut b, 0).unwrap();
    b[0] ^= 0x10;
    f.write_all_at(&b, 0).unwrap();
    drop(f);
    match run_checkpointed(N, SEED, &cfg(None), &OracleConfig::default(), &resume(&dir)) {
        Err(OocError::Resume(ResumeError::ScratchCorrupt {
            stage: "dft-n2",
            block: 0,
            ..
        })) => {}
        other => panic!("expected ScratchCorrupt at dft-n2 block 0, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_detects_a_deleted_scratch_store() {
    let dir = test_dir("missing");
    crash_at(&dir, 2, 5);
    // t2.bin is the destination the stage-2 journal records credit.
    std::fs::remove_file(dir.join("t2.bin")).unwrap();
    match run_checkpointed(N, SEED, &cfg(None), &OracleConfig::default(), &resume(&dir)) {
        Err(OocError::Resume(ResumeError::ScratchMissing { store: "t2.bin", .. })) => {}
        other => panic!("expected ScratchMissing t2.bin, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_survives_a_garbage_journal_tail() {
    let dir = test_dir("tail");
    crash_at(&dir, 2, 5);
    // Simulate a torn append: raw garbage after the last clean frame.
    let jpath = dir.join(JOURNAL_FILE);
    let clean = std::fs::metadata(&jpath).unwrap().len();
    let f = OpenOptions::new().write(true).open(&jpath).unwrap();
    f.write_all_at(b"42 0badc0de {\"kind\":\"blo", clean).unwrap();
    drop(f);
    let out = run_checkpointed(N, SEED, &cfg(None), &OracleConfig::default(), &resume(&dir))
        .expect("resume past a torn tail");
    assert!(out.report.resumed);
    assert_eq!(out.report.skipped_blocks, 2 * BLOCKS_PER_STAGE + 6);
}

#[test]
fn double_crash_then_resume_still_converges() {
    let dir = test_dir("double");
    crash_at(&dir, 1, 7);
    // Second run resumes, then crashes further along.
    let c = cfg(Some(CrashPoint {
        stage: 3,
        block: 4,
        mode: CrashMode::Halt,
    }));
    match run_checkpointed(N, SEED, &c, &OracleConfig::default(), &resume(&dir)) {
        Err(OocError::CrashPoint { .. }) => {}
        other => panic!("expected second CrashPoint, got {other:?}"),
    }
    // Third run finishes the job.
    let out = run_checkpointed(N, SEED, &cfg(None), &OracleConfig::default(), &resume(&dir))
        .expect("resume after two crashes");
    assert!(out.report.resumed);
    assert_eq!(
        out.report.skipped_blocks,
        3 * BLOCKS_PER_STAGE + 5,
        "stages 0-2 journaled complete, blocks 0..=4 of stage 3 skipped"
    );
    assert_eq!(out.report.rework_blocks, BLOCKS_PER_STAGE - 5);
}

#[test]
fn keep_flag_preserves_the_workspace_on_success() {
    let dir = test_dir("keep");
    let run = CheckpointRun {
        dir: &dir,
        resume: false,
        keep: true,
    };
    run_checkpointed(N, SEED, &cfg(None), &OracleConfig::default(), &run).unwrap();
    assert!(dir.join(JOURNAL_FILE).exists());
    assert!(dir.join("output.bin").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serial_tier_crash_then_resume_completes() {
    // One pipelined attempt: the read fault at (1, 1) exhausts it before
    // any stage-1 block is stored, so blocks 0..=5 are journaled by the
    // serial tier, whose Halt crash at block 5 must come back typed.
    let dir = test_dir("serial-crash");
    let mut c = cfg(Some(CrashPoint {
        stage: 1,
        block: 5,
        mode: CrashMode::Halt,
    }));
    c.retry.max_attempts = 1;
    c.fault = Some(OocFault {
        stage: 1,
        iter: 1,
        kind: OocFaultKind::Read,
    });
    match run_checkpointed(N, SEED, &c, &OracleConfig::default(), &fresh(&dir)) {
        Err(OocError::CrashPoint {
            stage: "dft-n1-twiddle",
            block: 5,
        }) => {}
        other => panic!("expected a serial-tier CrashPoint, got {other:?}"),
    }
    let out = run_checkpointed(N, SEED, &cfg(None), &OracleConfig::default(), &resume(&dir))
        .expect("resume after a serial-tier crash");
    assert!(out.report.resumed);
    assert_eq!(out.report.skipped_blocks, BLOCKS_PER_STAGE + 6);
    assert_eq!(out.report.rework_blocks, BLOCKS_PER_STAGE - 6);
    assert!(out.oracle.max_abs_err <= out.oracle.tol);
}
