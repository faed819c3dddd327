//! Fault-containment matrix for the real pipeline executor.
//!
//! Injects a worker panic or stall at every (role × iteration)
//! coordinate of a small run — iteration 0 is triggered during the
//! schedule's prologue, the middle blocks during steady state, and the
//! last block's store during the epilogue — and asserts that every run
//! terminates with the matching typed error instead of deadlocking.
//! The whole matrix runs under a generous watchdog so a regression
//! shows up as a test failure, not a hung CI job.

use bwfft_num::Complex64;
use bwfft_pipeline::exec::{ComputeFn, LoadFn, PipelineCallbacks, PipelineConfig, StoreFn};
use bwfft_pipeline::fault::silence_injected_panic_reports;
use bwfft_pipeline::{
    run_pipeline, AdaptiveWatchdog, DoubleBuffer, FaultPlan, PipelineError, Role,
};
use std::time::{Duration, Instant};

const B: usize = 32;
const BLOCKS: usize = 5;

fn callbacks<'a>(p_d: usize, p_c: usize) -> PipelineCallbacks<'a> {
    // Real work (copy/scale) so contained panics interrupt actual
    // buffer traffic, not empty closures.
    PipelineCallbacks {
        loaders: (0..p_d)
            .map(|_| {
                Box::new(|blk: usize, off: usize, share: &mut [Complex64]| {
                    for (i, v) in share.iter_mut().enumerate() {
                        *v = Complex64::new(blk as f64, (off + i) as f64);
                    }
                }) as LoadFn
            })
            .collect(),
        storers: (0..p_d)
            .map(|_| Box::new(|_blk: usize, _half: &[Complex64]| {}) as StoreFn)
            .collect(),
        computes: (0..p_c)
            .map(|_| {
                Box::new(|_blk: usize, _off: usize, share: &mut [Complex64]| {
                    for v in share.iter_mut() {
                        *v = *v * 2.0;
                    }
                }) as ComputeFn
            })
            .collect(),
    }
}

/// Hard upper bound on any single faulty run; far above the watchdog
/// (1s) but far below a CI timeout, so a deadlock regression fails
/// loudly and quickly.
const RUN_DEADLINE: Duration = Duration::from_secs(30);

#[allow(clippy::expect_used)] // test helper; only #[test] fns get the blanket allowance
fn run_with_fault(p_d: usize, p_c: usize, fault: FaultPlan) -> PipelineError {
    let buffer = DoubleBuffer::new(B);
    let start = Instant::now();
    let result = run_pipeline(
        &buffer,
        &PipelineConfig {
            iters: BLOCKS,
            adaptive_watchdog: Some(AdaptiveWatchdog::fixed(Duration::from_secs(1))),
            fault: Some(fault.clone()),
            ..PipelineConfig::default()
        },
        callbacks(p_d, p_c),
    );
    assert!(
        start.elapsed() < RUN_DEADLINE,
        "faulty run {fault:?} took {:?} — drain is broken",
        start.elapsed()
    );
    result.expect_err("injected fault must fail the run")
}

#[test]
fn panic_matrix_every_iteration_and_role_terminates_with_typed_error() {
    silence_injected_panic_reports();
    for (p_d, p_c) in [(1usize, 1usize), (2, 2)] {
        for role in [Role::Data, Role::Compute] {
            for iter in 0..BLOCKS {
                // iter 0 fires in the prologue (first load / first
                // compute), BLOCKS-1 in the drain steps.
                for thread in 0..if role == Role::Data { p_d } else { p_c } {
                    let err = run_with_fault(p_d, p_c, FaultPlan::panic_at(role, thread, iter));
                    match err {
                        PipelineError::WorkerPanicked {
                            role: r,
                            thread: t,
                            iter: i,
                            ..
                        } => {
                            assert_eq!((r, t, i), (role, thread, iter), "site mismatch");
                        }
                        other => panic!(
                            "p_d={p_d} p_c={p_c} {role:?}/{thread}@{iter}: \
                             expected WorkerPanicked, got {other:?}"
                        ),
                    }
                }
            }
        }
    }
}

#[test]
fn stall_matrix_trips_watchdog_into_stage_timeout() {
    silence_injected_panic_reports();
    // A 3s stall against a 1s watchdog: peers must report StageTimeout.
    // One steady-state and one prologue site per role keeps wall-clock
    // bounded (each run still sleeps out its stall before joining).
    for (role, iter) in [
        (Role::Data, 0),
        (Role::Data, 2),
        (Role::Compute, 0),
        (Role::Compute, 2),
    ] {
        let err = run_with_fault(
            1,
            1,
            FaultPlan::stall_at(role, 0, iter, Duration::from_secs(3)),
        );
        assert!(
            matches!(err, PipelineError::StageTimeout { .. }),
            "{role:?}@{iter}: expected StageTimeout, got {err:?}"
        );
    }
}

#[test]
fn faulty_run_leaves_executor_reusable() {
    silence_injected_panic_reports();
    // A contained failure must not poison process-global state: a
    // fresh fault-free run right after succeeds.
    let _ = run_with_fault(2, 2, FaultPlan::panic_at(Role::Compute, 1, 2));
    let buffer = DoubleBuffer::new(B);
    let report = run_pipeline(
        &buffer,
        &PipelineConfig {
            iters: BLOCKS,
            ..PipelineConfig::default()
        },
        callbacks(2, 2),
    )
    .expect("fault-free run after a contained failure");
    assert_eq!(report.blocks, BLOCKS);
}
