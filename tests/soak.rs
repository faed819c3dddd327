//! Chaos/soak integration tests: randomized fault schedules against the
//! supervisor, plus the end-to-end escalation demonstration.
//!
//! The contract under test (the tentpole of the recovery subsystem):
//! with integrity guards armed and the supervisor in charge, every run
//! either matches the reference transform or returns a typed error —
//! never a wrong answer, never a panic.

use bwfft::core::exec_real::ExecConfig;
use bwfft::core::{
    Dims, FftPlan, RecoveryAction, RecoveryTier, RetryPolicy, Supervisor,
};
use bwfft::kernels::reference::{dft2_naive, dft3_naive};
use bwfft::kernels::Direction;
use bwfft::num::compare::{assert_fft_close, fft_tolerance, rel_l2_error};
use bwfft::num::signal::random_complex;
use bwfft::num::Complex64;
use bwfft::pipeline::{FaultPlan, IntegrityConfig, Role};
use bwfft::soak::{run_soak, SoakConfig, SOAK_SHAPES};
use bwfft::trace::{MarkKind, TraceCollector};
use std::sync::Arc;
use std::time::Duration;

fn fast_policy() -> RetryPolicy {
    RetryPolicy {
        backoff_base: Duration::from_micros(100),
        backoff_cap: Duration::from_millis(2),
        ..RetryPolicy::default()
    }
}

/// The acceptance-criterion soak: ≥200 seeded iterations over the full
/// fault matrix (panic / stall / corrupt / alloc-fail / pin-deny),
/// zero panics (any panic unwinds through this test), zero silent
/// corruptions, every fault kind actually drawn.
#[test]
fn soak_200_iterations_never_wrong_never_panics() {
    let cfg = SoakConfig {
        iters: 200,
        seed: 0xB147_F00D,
        ..SoakConfig::default()
    };
    let report = run_soak(&cfg).unwrap();
    assert!(report.holds(), "soak contract violated:\n{}", report.render());
    assert_eq!(report.iterations, 200);
    assert_eq!(report.silent_corruptions, 0);
    // 200 draws over 6 kinds: every kind must have come up, so the run
    // exercised the whole fault matrix, not a lucky subset.
    for (i, &count) in report.fault_counts.iter().enumerate() {
        assert!(count > 0, "fault kind {i} never drawn in 200 iterations");
    }
    // Faults that only bite the pipelined tier must have pushed at
    // least one run to a lower tier.
    assert!(
        report.tier_finishes[1] + report.tier_finishes[2] > 0,
        "no run ever escalated:\n{}",
        report.render()
    );
    assert!(report.recovered > 0, "no run ever recovered:\n{}", report.render());
}

/// The soak's oracle must be able to judge the reference tier too: on
/// every soak shape, compute thread 0 panicking at block 1 (a site both
/// real executors hit) forces the supervisor down to the reference
/// tier, whose output must match the naive DFT — code no tier shares.
#[test]
fn reference_tier_matches_the_naive_dft_on_every_soak_shape() {
    bwfft::pipeline::fault::silence_injected_panic_reports();
    let sup = Supervisor::new(SoakConfig::default().policy);
    for (dims, b) in SOAK_SHAPES {
        let plan = FftPlan::builder(dims)
            .buffer_elems(b)
            .threads(2, 2)
            .build()
            .unwrap();
        let x = random_complex(dims.total(), 4343);
        let cfg = ExecConfig {
            fault: Some(FaultPlan::panic_at(Role::Compute, 0, 1)),
            integrity: IntegrityConfig::full(),
            ..ExecConfig::default()
        };
        let mut data = x.clone();
        let mut work = vec![Complex64::ZERO; x.len()];
        let rep = sup.run(&plan, &mut data, &mut work, &cfg).unwrap();
        assert_eq!(rep.tier, RecoveryTier::Reference, "{dims:?}");
        let want = match dims {
            Dims::Two { n, m } => dft2_naive(&x, n, m, Direction::Forward),
            Dims::Three { k, n, m } => dft3_naive(&x, k, n, m, Direction::Forward),
        };
        let err = rel_l2_error(&data, &want);
        assert!(
            err <= fft_tolerance(want.len()),
            "{dims:?}: rel-L2 {err:.3e} against the naive DFT"
        );
    }
}

/// Same seed ⇒ same aggregate outcome, across the full fault matrix.
#[test]
fn soak_is_deterministic_per_seed() {
    let cfg = SoakConfig {
        iters: 60,
        seed: 99,
        ..SoakConfig::default()
    };
    let a = run_soak(&cfg).unwrap();
    let b = run_soak(&cfg).unwrap();
    assert_eq!(a, b);
}

/// The acceptance-criterion escalation demo: a deterministic fault that
/// bites both the pipelined and the fused executor forces the full
/// pipelined → fused → reference ladder, the output still matches the
/// unfaulted transform, and the `--profile=json` export carries the
/// `recovery` marks that account for the cost.
#[test]
fn escalation_ladder_is_visible_in_profile_json() {
    bwfft::pipeline::fault::silence_injected_panic_reports();
    let plan = FftPlan::builder(Dims::d3(8, 8, 16))
        .buffer_elems(128)
        .threads(2, 2)
        .build()
        .unwrap();
    let x = random_complex(plan.dims.total(), 4242);

    // Unfaulted oracle.
    let mut want = x.clone();
    let mut work = vec![Complex64::ZERO; x.len()];
    bwfft::core::exec_real::execute(&plan, &mut want, &mut work).unwrap();

    // Compute thread 0 panics at block 1: the pipelined executor loses
    // a worker, and the fused executor (thread 0 of every role) hits
    // the same site — only the reference tier survives.
    let trace = Arc::new(TraceCollector::new());
    let cfg = ExecConfig {
        fault: Some(FaultPlan::panic_at(Role::Compute, 0, 1)),
        integrity: IntegrityConfig::full(),
        trace: Some(trace.clone()),
        ..ExecConfig::default()
    };
    let mut data = x.clone();
    let mut work = vec![Complex64::ZERO; x.len()];
    let sup = Supervisor::new(fast_policy());
    let rep = sup.run(&plan, &mut data, &mut work, &cfg).unwrap();

    assert_eq!(rep.tier, RecoveryTier::Reference);
    let path: Vec<RecoveryTier> = rep
        .events
        .iter()
        .filter(|e| e.action == RecoveryAction::Escalate)
        .map(|e| e.tier)
        .collect();
    assert_eq!(path, [RecoveryTier::Pipelined, RecoveryTier::Fused]);
    assert_fft_close(&data, &want);

    // The recovery trail must survive into the profile JSON export.
    let report = bwfft::core::profile::profile_report(&trace, &plan, "supervised", None);
    let recovery_marks: Vec<_> = report
        .marks
        .iter()
        .filter(|m| m.kind == MarkKind::Recovery)
        .collect();
    assert_eq!(recovery_marks.len(), rep.events.len() + 1); // + final "recovered at"
    let json = bwfft::trace::json::to_json(&report);
    assert!(json.contains("\"recovery\""), "profile JSON lacks recovery marks");
    assert!(json.contains("recovered at reference"));
    // Retry marks carry the backoff cost so `--profile` shows what
    // recovery cost in wall-clock.
    assert!(report
        .marks
        .iter()
        .any(|m| m.kind == MarkKind::Recovery && m.value_ns.unwrap_or(0.0) > 0.0));
}

/// Corruption + integrity guards: the pipelined tier detects (typed,
/// not silent), and the fused tier — which has no handoffs to corrupt —
/// recovers with the right answer.
#[test]
fn corruption_recovers_with_correct_output() {
    bwfft::pipeline::fault::silence_injected_panic_reports();
    let plan = FftPlan::builder(Dims::d2(16, 32))
        .buffer_elems(128)
        .threads(2, 2)
        .build()
        .unwrap();
    let x = random_complex(plan.dims.total(), 555);
    let mut want = x.clone();
    let mut work = vec![Complex64::ZERO; x.len()];
    bwfft::core::exec_real::execute(&plan, &mut want, &mut work).unwrap();

    let cfg = ExecConfig {
        fault: Some(FaultPlan::corrupt_at(
            Role::Data,
            0,
            1,
            bwfft::pipeline::FaultPhase::Load,
        )),
        integrity: IntegrityConfig::full(),
        verify_energy: true,
        ..ExecConfig::default()
    };
    let mut data = x.clone();
    let mut work = vec![Complex64::ZERO; x.len()];
    let sup = Supervisor::new(fast_policy());
    let rep = sup.run(&plan, &mut data, &mut work, &cfg).unwrap();
    assert!(rep.recovered());
    assert_eq!(rep.tier, RecoveryTier::Fused);
    assert!(rep
        .events
        .iter()
        .any(|e| e.error.contains("integrity guard")));
    assert_fft_close(&data, &want);
}
