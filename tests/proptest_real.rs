//! Property tests of the real-input (r2c/c2r) path — DESIGN.md §13.
//!
//! Five properties over random inputs, sizes, and fault sites:
//!
//! 1. **Hermitian symmetry** — the full spectrum reconstructed from
//!    the packed half (`unpack_half_spectrum`) satisfies
//!    `Y[k] == conj(Y[n−k])`, so the stored bins really determine a
//!    real signal's spectrum.
//! 2. **Round trip** — `c2r(r2c(x)) == n·x` (unnormalized inverse).
//! 3. **Linearity** — `r2c(a·x + b·y) == a·r2c(x) + b·r2c(y)` for
//!    real scalars.
//! 4. **Packed Parseval** — the weighted half-spectrum energy (weight
//!    1 at DC/Nyquist, 2 interior) equals `n·Σx²`.
//! 5. **Fault-tolerant** — under an injected worker fault with every
//!    integrity guard armed, the supervised multidimensional r2c is
//!    panic-free and still produces the reference answer.
//!
//! Degenerate sizes `n = 1` and `n = 2` are pinned panic-free
//! deterministically below the proptest block.

use bwfft::core::exec_real::ExecConfig;
use bwfft::core::{execute_reference, Dims, RetryPolicy, Supervisor};
use bwfft::num::signal::SplitMix64;
use bwfft::num::Complex64;
use bwfft::pipeline::{fault, AdaptiveWatchdog, FaultPlan, IntegrityConfig, Role};
use bwfft::real::{packed_spectrum_energy, unpack_half_spectrum, RealFft1d, RealFftPlan};
use proptest::prelude::*;
use std::time::Duration;

fn random_real(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed);
    (0..n).map(|_| rng.next_f64() * 2.0 - 1.0).collect()
}

/// `2^(2..=10)` — every power-of-two size a property case can afford.
fn size(exp: usize) -> usize {
    1 << (2 + exp % 9)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn reconstructed_spectrum_is_hermitian(exp in 0usize..9, seed in any::<u64>()) {
        let n = size(exp);
        let x = random_real(n, seed);
        let mut plan = RealFft1d::new(n);
        let mut packed = vec![Complex64::ZERO; plan.packed_len()];
        plan.r2c(&x, &mut packed);
        let mut full = vec![Complex64::ZERO; n];
        unpack_half_spectrum(&packed, &mut full);
        let scale = full.iter().map(|c| c.abs()).fold(1.0, f64::max);
        for k in 0..n {
            let mirror = full[(n - k) % n].conj();
            prop_assert!(
                (full[k] - mirror).abs() <= 1e-12 * scale,
                "Y[{k}] != conj(Y[n-{k}]) at n={n}"
            );
        }
        // And the stored bins agree with what unpacking puts back.
        for (kf, p) in packed.iter().enumerate() {
            prop_assert_eq!(full[kf], *p);
        }
    }

    #[test]
    fn c2r_inverts_r2c_times_n(exp in 0usize..9, seed in any::<u64>()) {
        let n = size(exp);
        let x = random_real(n, seed);
        let mut plan = RealFft1d::new(n);
        let mut spec = vec![Complex64::ZERO; plan.packed_len()];
        let mut back = vec![0.0; n];
        plan.r2c(&x, &mut spec);
        plan.c2r(&spec, &mut back);
        for (b, v) in back.iter().zip(&x) {
            prop_assert!(
                (b - v * n as f64).abs() <= 1e-9 * n as f64,
                "round trip broke at n={n}"
            );
        }
    }

    #[test]
    fn r2c_is_linear(
        exp in 0usize..9,
        seed in any::<u64>(),
        a in -3.0f64..3.0,
        b in -3.0f64..3.0,
    ) {
        let n = size(exp);
        let x = random_real(n, seed);
        let y = random_real(n, seed ^ 0x9e37_79b9_7f4a_7c15);
        let combo: Vec<f64> = x.iter().zip(&y).map(|(xi, yi)| a * xi + b * yi).collect();
        let mut plan = RealFft1d::new(n);
        let hp = plan.packed_len();
        let (mut sx, mut sy, mut sc) = (
            vec![Complex64::ZERO; hp],
            vec![Complex64::ZERO; hp],
            vec![Complex64::ZERO; hp],
        );
        plan.r2c(&x, &mut sx);
        plan.r2c(&y, &mut sy);
        plan.r2c(&combo, &mut sc);
        let scale = sc.iter().map(|c| c.abs()).fold(1.0, f64::max);
        for k in 0..hp {
            let expect = sx[k].scale(a) + sy[k].scale(b);
            prop_assert!(
                (sc[k] - expect).abs() <= 1e-11 * scale,
                "linearity broke at bin {k}, n={n}"
            );
        }
    }

    #[test]
    fn packed_parseval_holds(exp in 0usize..9, seed in any::<u64>()) {
        let n = size(exp);
        let x = random_real(n, seed);
        let mut plan = RealFft1d::new(n);
        let mut spec = vec![Complex64::ZERO; plan.packed_len()];
        plan.r2c(&x, &mut spec);
        let time_energy: f64 = x.iter().map(|v| v * v).sum();
        let freq_energy = packed_spectrum_energy(&spec, 1);
        let expect = n as f64 * time_energy;
        prop_assert!(
            (freq_energy - expect).abs() <= 1e-9 * expect.abs().max(1.0),
            "packed Parseval broke at n={n}: {freq_energy} vs {expect}"
        );
    }

    #[test]
    fn supervised_r2c_survives_faults_with_guards_armed(
        seed in any::<u64>(),
        role_i in 0usize..2,
        thread in 0usize..2,
        iter in 0usize..3,
    ) {
        // A worker fault mid-pipeline with every guard armed: the
        // supervised run must stay panic-free and land on the
        // reference answer whatever tier it escalates to.
        fault::silence_injected_panic_reports();
        let dims = Dims::d2(16, 32);
        let plan = RealFftPlan::builder(dims)
            .threads(2, 2)
            .build()
            .map_err(|e| TestCaseError::Fail(format!("plan: {e}")))?;
        let role = if role_i == 0 { Role::Data } else { Role::Compute };
        let cfg = ExecConfig {
            fault: Some(FaultPlan::panic_at(role, thread, iter)),
            integrity: IntegrityConfig::full(),
            verify_energy: true,
            adaptive_watchdog: Some(AdaptiveWatchdog::fixed(Duration::from_secs(5))),
            ..ExecConfig::default()
        };
        let x = random_real(plan.real_elems(), seed);
        let mut work = vec![Complex64::ZERO; plan.packed_elems()];
        let mut spec = vec![Complex64::ZERO; plan.spectrum_elems()];
        let sup = Supervisor::new(RetryPolicy::default());
        plan.r2c(&x, &mut spec, cfg.verify_energy, |p, z| sup.run(p, z, &mut work, &cfg))
            .map_err(|e| TestCaseError::Fail(format!("supervised r2c: {e}")))?;
        let mut want = vec![Complex64::ZERO; plan.spectrum_elems()];
        plan.r2c(&x, &mut want, false, execute_reference)
            .map_err(|e| TestCaseError::Fail(format!("reference r2c: {e}")))?;
        let scale = want.iter().map(|c| c.abs()).fold(1.0, f64::max);
        for (g, w) in spec.iter().zip(&want) {
            prop_assert!(
                (*g - *w).abs() <= 1e-9 * scale,
                "supervised result diverged from reference under fault"
            );
        }
    }
}

/// `n = 1` and `n = 2` are the degenerate corners of the split-merge
/// recurrence (no inner transform / length-1 inner transform); both
/// must be exact and panic-free, with guards armed on the planned path.
#[test]
fn degenerate_sizes_are_panic_free_and_exact() {
    let mut p1 = RealFft1d::new(1);
    let mut s1 = vec![Complex64::ZERO; p1.packed_len()];
    let mut b1 = vec![0.0; 1];
    p1.r2c(&[2.5], &mut s1);
    assert_eq!(s1[0], Complex64::new(2.5, 0.0));
    p1.c2r(&s1, &mut b1);
    assert!((b1[0] - 2.5).abs() < 1e-15);
    assert!((packed_spectrum_energy(&s1, 1) - 2.5 * 2.5).abs() < 1e-12);

    let mut p2 = RealFft1d::new(2);
    let mut s2 = vec![Complex64::ZERO; p2.packed_len()];
    let mut b2 = vec![0.0; 2];
    p2.r2c(&[3.0, -1.0], &mut s2);
    assert_eq!(s2[0], Complex64::new(2.0, 0.0));
    assert_eq!(s2[1], Complex64::new(4.0, 0.0));
    p2.c2r(&s2, &mut b2);
    assert!((b2[0] - 6.0).abs() < 1e-12 && (b2[1] + 2.0).abs() < 1e-12);
}
