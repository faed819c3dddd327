//! Numerical stability of the transform stack: error growth with
//! size, extreme inputs, and exact special cases.

use bwfft::core::{exec_real, Dims, FftPlan};
use bwfft::kernels::batch::BatchFft;
use bwfft::kernels::reference::dft_naive;
use bwfft::kernels::Direction;
use bwfft::num::compare::rel_l2_error;
use bwfft::num::signal::random_complex;
use bwfft::num::Complex64;

#[test]
fn error_growth_is_logarithmic_in_size() {
    // Well-implemented FFTs have rel-ℓ2 error ~ ε·√(log n); check the
    // measured error stays far below a linear-growth bound and grows
    // slowly.
    let mut errors = Vec::new();
    for lg in [4u32, 8, 12] {
        let n = 1usize << lg;
        let x = random_complex(n, 700 + lg as u64);
        let mut got = x.clone();
        BatchFft::new(n, 1, Direction::Forward).run(&mut got);
        let expect = dft_naive(&x, Direction::Forward);
        errors.push(rel_l2_error(&got, &expect));
    }
    for (i, e) in errors.iter().enumerate() {
        assert!(*e < 1e-13, "size index {i}: error {e:e}");
    }
    // Error at 4096 should be within an order of magnitude or so of
    // the error at 16 — not hundreds of times bigger. (The √log model
    // predicts ~2x; radix/twiddle constants push the practical ratio
    // higher without indicating instability.)
    assert!(errors[2] < 20.0 * errors[0].max(1e-16), "{errors:?}");
}

#[test]
fn zeros_map_to_exact_zeros() {
    let n = 1024;
    let mut data = vec![Complex64::ZERO; n];
    BatchFft::new(n, 1, Direction::Forward).run(&mut data);
    assert!(data.iter().all(|c| c.re == 0.0 && c.im == 0.0));
}

#[test]
fn constant_input_gives_exact_dc_bin() {
    // All-ones: bin 0 is exactly n (sums of exact values), the rest
    // cancel to round-off.
    let n = 256;
    let mut data = vec![Complex64::ONE; n];
    BatchFft::new(n, 1, Direction::Forward).run(&mut data);
    assert_eq!(data[0], Complex64::new(n as f64, 0.0));
    for (k, v) in data.iter().enumerate().skip(1) {
        assert!(v.abs() < 1e-11, "bin {k}: {v}");
    }
}

#[test]
fn large_magnitude_inputs_do_not_overflow() {
    let n = 512;
    let x: Vec<Complex64> = random_complex(n, 701)
        .into_iter()
        .map(|c| c * 1e150)
        .collect();
    let mut got = x.clone();
    BatchFft::new(n, 1, Direction::Forward).run(&mut got);
    assert!(got.iter().all(|c| !c.is_nan() && c.re.is_finite() && c.im.is_finite()));
    // Scale invariance: FFT(s·x) = s·FFT(x).
    let small: Vec<Complex64> = x.iter().map(|c| c.scale(1e-150)).collect();
    let mut small_fft = small;
    BatchFft::new(n, 1, Direction::Forward).run(&mut small_fft);
    let rescaled: Vec<Complex64> = got.iter().map(|c| c.scale(1e-150)).collect();
    assert!(rel_l2_error(&rescaled, &small_fft) < 1e-12);
}

#[test]
fn tiny_magnitude_inputs_survive() {
    let n = 256;
    let x: Vec<Complex64> = random_complex(n, 702)
        .into_iter()
        .map(|c| c * 1e-200)
        .collect();
    let mut got = x.clone();
    BatchFft::new(n, 1, Direction::Forward).run(&mut got);
    // Energy preserved (scaled by n) without underflow to zero. The
    // squares of 1e-200 magnitudes underflow f64, so rescale before
    // computing norms — the transform itself ran at 1e-200.
    assert!(got.iter().any(|c| c.re != 0.0 || c.im != 0.0));
    let ex: f64 = x.iter().map(|c| c.scale(1e200).norm_sqr()).sum();
    let ey: f64 = got.iter().map(|c| c.scale(1e200).norm_sqr()).sum();
    assert!(ex > 0.0 && ey > 0.0);
    assert!((ey / ex / n as f64 - 1.0).abs() < 1e-10);
}

#[test]
fn pipeline_3d_error_matches_kernel_error_scale() {
    // The multithreaded pipeline adds no numerical noise beyond the
    // kernels: its error against an independent reference is the same
    // order as the kernels' own.
    let (k, n, m) = (16usize, 16, 16);
    let x = random_complex(k * n * m, 703);
    let plan = FftPlan::builder(Dims::d3(k, n, m))
        .buffer_elems(512)
        .threads(2, 2)
        .build()
        .unwrap();
    let mut ours = x.clone();
    let mut work = vec![Complex64::ZERO; x.len()];
    exec_real::execute(&plan, &mut ours, &mut work).unwrap();
    let mut reference = x.clone();
    bwfft::baselines::reference_impl::pencil_fft_3d(&mut reference, k, n, m, Direction::Forward);
    let err = rel_l2_error(&ours, &reference);
    assert!(err < 5e-15, "pipeline vs pencil: {err:e}");
}

#[test]
fn repeated_roundtrips_accumulate_slowly() {
    // 8 forward/inverse round trips: error grows roughly linearly in
    // trips, staying near round-off — no systematic drift.
    let n = 1024;
    let x = random_complex(n, 704);
    let mut data = x.clone();
    let mut fwd = BatchFft::new(n, 1, Direction::Forward);
    let mut inv = BatchFft::new(n, 1, Direction::Inverse);
    for _ in 0..8 {
        fwd.run(&mut data);
        inv.run(&mut data);
        let s = 1.0 / n as f64;
        for v in data.iter_mut() {
            *v = v.scale(s);
        }
    }
    let err = rel_l2_error(&data, &x);
    assert!(err < 1e-12, "8 roundtrips: {err:e}");
}
