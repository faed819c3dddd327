//! Property-based tests over transform invariants: random power-of-two
//! shapes, random execution configurations, random data.

use bwfft::baselines::reference_impl::pencil_fft_3d;
use bwfft::core::{exec_real, Dims, FftPlan};
use bwfft::kernels::batch::BatchFft;
use bwfft::kernels::Direction;
use bwfft::num::compare::rel_l2_error;
use bwfft::num::signal::random_complex;
use bwfft::num::Complex64;
use proptest::prelude::*;

fn pow2(lo: u32, hi: u32) -> impl Strategy<Value = usize> {
    (lo..=hi).prop_map(|e| 1usize << e)
}

#[allow(clippy::unwrap_used)] // test helper; only #[test] fns get the blanket allowance
fn run3d(plan: &FftPlan, x: &[Complex64]) -> Vec<Complex64> {
    let mut data = x.to_vec();
    let mut work = vec![Complex64::ZERO; x.len()];
    exec_real::execute(plan, &mut data, &mut work).unwrap();
    data
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn forward_inverse_roundtrip_3d(
        k in pow2(2, 4),
        n in pow2(2, 4),
        m in pow2(2, 5),
        seed in 0u64..1000,
        p_d in 1usize..3,
        p_c in 1usize..3,
    ) {
        let total = k * n * m;
        let b = (total / 4).max(m).max(n * 4).max(k * 4);
        let x = random_complex(total, seed);
        let fwd = FftPlan::builder(Dims::d3(k, n, m))
            .buffer_elems(b).threads(p_d, p_c).build().unwrap();
        let inv = FftPlan::builder(Dims::d3(k, n, m))
            .buffer_elems(b).threads(p_d, p_c)
            .direction(Direction::Inverse).build().unwrap();
        let mut data = run3d(&fwd, &x);
        let mut work = vec![Complex64::ZERO; total];
        exec_real::execute(&inv, &mut data, &mut work).unwrap();
        exec_real::normalize(&mut data);
        prop_assert!(rel_l2_error(&data, &x) < 1e-11);
    }

    #[test]
    fn linearity_3d(
        k in pow2(2, 3),
        n in pow2(2, 3),
        m in pow2(2, 4),
        seed in 0u64..1000,
    ) {
        let total = k * n * m;
        let b = (total / 2).max(m).max(n * 4).max(k * 4);
        let plan = FftPlan::builder(Dims::d3(k, n, m))
            .buffer_elems(b).threads(1, 1).build().unwrap();
        let x = random_complex(total, seed);
        let y = random_complex(total, seed + 1);
        let alpha = Complex64::new(1.25, -0.5);
        let combo: Vec<Complex64> =
            x.iter().zip(&y).map(|(a, b)| *a * alpha + *b).collect();
        let fx = run3d(&plan, &x);
        let fy = run3d(&plan, &y);
        let fc = run3d(&plan, &combo);
        let expect: Vec<Complex64> =
            fx.iter().zip(&fy).map(|(a, b)| *a * alpha + *b).collect();
        prop_assert!(rel_l2_error(&fc, &expect) < 1e-11);
    }

    #[test]
    fn agrees_with_pencil_reference(
        k in pow2(2, 4),
        n in pow2(2, 4),
        m in pow2(2, 4),
        seed in 0u64..1000,
    ) {
        let total = k * n * m;
        let b = (total / 2).max(m).max(n * 4).max(k * 4);
        let plan = FftPlan::builder(Dims::d3(k, n, m))
            .buffer_elems(b).threads(2, 2).build().unwrap();
        let x = random_complex(total, seed);
        let ours = run3d(&plan, &x);
        let mut reference = x.clone();
        pencil_fft_3d(&mut reference, k, n, m, Direction::Forward);
        prop_assert!(rel_l2_error(&ours, &reference) < 1e-11);
    }

    #[test]
    fn parseval_1d(
        lg in 1u32..13,
        seed in 0u64..1000,
    ) {
        let n = 1usize << lg;
        let x = random_complex(n, seed);
        let mut data = x.clone();
        BatchFft::new(n, 1, Direction::Forward).run(&mut data);
        let ex: f64 = x.iter().map(|c| c.norm_sqr()).sum();
        let ey: f64 = data.iter().map(|c| c.norm_sqr()).sum();
        prop_assert!(((ey - n as f64 * ex) / (n as f64 * ex)).abs() < 1e-11);
    }

    #[test]
    fn conjugate_symmetry_for_real_input_1d(
        lg in 2u32..10,
        seed in 0u64..1000,
    ) {
        // Real input ⇒ X[k] = conj(X[n−k]).
        let n = 1usize << lg;
        let mut data: Vec<Complex64> = random_complex(n, seed)
            .into_iter()
            .map(|c| Complex64::new(c.re, 0.0))
            .collect();
        BatchFft::new(n, 1, Direction::Forward).run(&mut data);
        for k in 1..n {
            let a = data[k];
            let b = data[n - k].conj();
            prop_assert!((a - b).abs() < 1e-9 * (1.0 + a.abs()), "k={k}");
        }
    }

    #[test]
    fn socket_split_is_exact(
        k in pow2(2, 3).prop_map(|v| v * 2), // even ≥ 8
        n in pow2(2, 3).prop_map(|v| v * 2),
        m in pow2(2, 4),
        seed in 0u64..1000,
    ) {
        let total = k * n * m;
        let b = (total / 4).max(m).max(n * 4).max(k * 4);
        // b must divide total/2 for the 2-socket plan.
        prop_assume!((total / 2).is_multiple_of(b));
        let x = random_complex(total, seed);
        let one = FftPlan::builder(Dims::d3(k, n, m))
            .buffer_elems(b).threads(2, 2).sockets(1).build().unwrap();
        let two = FftPlan::builder(Dims::d3(k, n, m))
            .buffer_elems(b).threads(2, 2).sockets(2).build().unwrap();
        prop_assert_eq!(run3d(&one, &x), run3d(&two, &x));
    }
}
