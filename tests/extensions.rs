//! Integration tests for the extensions built beyond the paper's
//! scope: the four-step large 1D FFT, arbitrary-size Bluestein
//! transforms, and the fused (no-overlap) executor.

use bwfft::core::fft1d::{execute as fft1d_execute, Fft1dLargePlan};
use bwfft::core::{exec_real, Dims, FftPlan};
use bwfft::kernels::batch::BatchFft;
use bwfft::kernels::bluestein::{AnyFft, Bluestein};
use bwfft::kernels::reference::dft_naive;
use bwfft::kernels::Direction;
use bwfft::num::compare::{assert_fft_close, rel_l2_error};
use bwfft::num::signal::random_complex;
use bwfft::num::Complex64;

#[test]
fn four_step_1d_equals_monolithic_kernel() {
    let (n1, n2) = (32usize, 64usize);
    let n = n1 * n2;
    let x = random_complex(n, 970);
    let plan = Fft1dLargePlan::new(n1, n2).buffer_elems(n / 4).threads(2, 2);
    let mut data = x.clone();
    let mut work = vec![Complex64::ZERO; n];
    fft1d_execute(&plan, &mut data, &mut work).unwrap();
    let mut expect = x.clone();
    BatchFft::new(n, 1, Direction::Forward).run(&mut expect);
    assert_fft_close(&data, &expect);
}

#[test]
fn bluestein_enables_non_pow2_convolution_sizes() {
    // A 3-point DFT through the facade — impossible for the pow2
    // kernels, trivial for Bluestein.
    let x = vec![
        Complex64::new(1.0, 0.0),
        Complex64::new(2.0, 0.0),
        Complex64::new(3.0, 0.0),
    ];
    let mut got = x.clone();
    Bluestein::new(3, Direction::Forward).run(&mut got);
    assert_fft_close(&got, &dft_naive(&x, Direction::Forward));
}

#[test]
fn any_fft_covers_a_size_sweep() {
    for n in 1..=64usize {
        let x = random_complex(n, 971 + n as u64);
        let mut got = x.clone();
        AnyFft::new(n, Direction::Forward).run(&mut got);
        let expect = dft_naive(&x, Direction::Forward);
        let err = rel_l2_error(&got, &expect);
        assert!(err < 1e-10, "n={n}: err={err:e}");
    }
}

#[test]
fn fused_and_pipelined_executors_agree_at_scale() {
    let (k, n, m) = (16usize, 16, 32);
    let x = random_complex(k * n * m, 973);
    let plan = FftPlan::builder(Dims::d3(k, n, m))
        .buffer_elems(1024)
        .threads(2, 2)
        .build()
        .unwrap();
    let mut a = x.clone();
    let mut wa = vec![Complex64::ZERO; x.len()];
    exec_real::execute(&plan, &mut a, &mut wa).unwrap();
    let mut b = x.clone();
    let mut wb = vec![Complex64::ZERO; x.len()];
    exec_real::execute_fused(&plan, &mut b, &mut wb).unwrap();
    assert_eq!(a, b);
}

#[test]
fn large_1d_roundtrip_through_facade() {
    let (n1, n2) = (64usize, 64usize);
    let n = n1 * n2;
    let x = random_complex(n, 974);
    let fwd = Fft1dLargePlan::new(n1, n2).buffer_elems(n / 8).threads(2, 2);
    let inv = Fft1dLargePlan::new(n1, n2)
        .buffer_elems(n / 8)
        .threads(2, 2)
        .direction(Direction::Inverse);
    let mut data = x.clone();
    let mut work = vec![Complex64::ZERO; n];
    fft1d_execute(&fwd, &mut data, &mut work).unwrap();
    fft1d_execute(&inv, &mut data, &mut work).unwrap();
    let back: Vec<Complex64> = data.iter().map(|c| c.scale(1.0 / n as f64)).collect();
    assert_fft_close(&back, &x);
}

#[test]
fn spl_normalization_is_semantics_preserving_on_plan_formulas() {
    use bwfft::spl::normalize::{node_count, simplify};
    use bwfft::spl::rewrite::fft3d_blocked;
    let f = fft3d_blocked(2, 4, 8, 2);
    let s = simplify(&f);
    bwfft::spl::dense::assert_formulas_equal(&f, &s);
    assert!(node_count(&s) <= node_count(&f));
}
