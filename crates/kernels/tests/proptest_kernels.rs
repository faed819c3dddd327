//! Property-based tests of the numeric kernels: agreement with the
//! naive DFT at arbitrary power-of-two sizes and strides, layout
//! round-trips, and the algebraic identities transforms must satisfy.

use bwfft_kernels::batch::BatchFft;
use bwfft_kernels::layout::{from_block_format, to_block_format};
use bwfft_kernels::radix2::fft_radix2_inplace;
use bwfft_kernels::reference::dft_naive;
use bwfft_kernels::stockham::stockham_strided;
use bwfft_kernels::transpose::{rotate_blocked, transpose_blocked};
use bwfft_kernels::twiddle::StockhamTwiddles;
use bwfft_kernels::Direction;
use bwfft_num::compare::rel_l2_error;
use bwfft_num::signal::random_complex;
use bwfft_num::Complex64;
use proptest::prelude::*;

fn pow2(lo: u32, hi: u32) -> impl Strategy<Value = usize> {
    (lo..=hi).prop_map(|e| 1usize << e)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn stockham_matches_naive(n in pow2(0, 10), seed in 0u64..500) {
        let x = random_complex(n, seed);
        let mut got = x.clone();
        let mut scratch = vec![Complex64::ZERO; n];
        let tw = StockhamTwiddles::new(n, Direction::Forward);
        stockham_strided(&mut got, &mut scratch, n, 1, &tw);
        prop_assert!(rel_l2_error(&got, &dft_naive(&x, Direction::Forward)) < 1e-11);
    }

    #[test]
    fn stockham_agrees_with_radix2_oracle(n in pow2(1, 11), seed in 0u64..500) {
        let x = random_complex(n, seed);
        let mut a = x.clone();
        fft_radix2_inplace(&mut a, Direction::Forward);
        let mut b = x.clone();
        let mut s2 = vec![Complex64::ZERO; n];
        stockham_strided(&mut b, &mut s2, n, 1, &StockhamTwiddles::new(n, Direction::Forward));
        prop_assert!(rel_l2_error(&b, &a) < 1e-11);
    }

    #[test]
    fn strided_kernels_factor_through_batches(
        n in pow2(1, 6),
        s in 1usize..6,
        seed in 0u64..500,
    ) {
        // (DFT_n ⊗ I_s) column j == DFT_n of the stride-s subsequence.
        let x = random_complex(n * s, seed);
        let mut got = x.clone();
        let mut scratch = vec![Complex64::ZERO; n * s];
        stockham_strided(&mut got, &mut scratch, n, s, &StockhamTwiddles::new(n, Direction::Forward));
        for j in 0..s {
            let sub: Vec<Complex64> = (0..n).map(|i| x[i * s + j]).collect();
            let expect = dft_naive(&sub, Direction::Forward);
            let col: Vec<Complex64> = (0..n).map(|i| got[i * s + j]).collect();
            prop_assert!(rel_l2_error(&col, &expect) < 1e-11, "column {j}");
        }
    }

    #[test]
    fn batch_is_elementwise_independent(
        c in 1usize..6,
        m in pow2(1, 6),
        seed in 0u64..500,
    ) {
        // Transforming pencils jointly equals transforming them alone.
        let x = random_complex(c * m, seed);
        let mut joint = x.clone();
        BatchFft::new(m, 1, Direction::Forward).run(&mut joint);
        for p in 0..c {
            let mut alone = x[p * m..(p + 1) * m].to_vec();
            BatchFft::new(m, 1, Direction::Forward).run(&mut alone);
            prop_assert!(rel_l2_error(&joint[p * m..(p + 1) * m], &alone) < 1e-12);
        }
    }

    #[test]
    fn layout_roundtrip_is_lossless(blocks in 1usize..32, seed in 0u64..500) {
        let n = blocks * 4;
        let x = random_complex(n, seed);
        let mut blocked = vec![0.0f64; 2 * n];
        to_block_format(&x, &mut blocked);
        let mut back = vec![Complex64::ZERO; n];
        from_block_format(&blocked, &mut back);
        prop_assert_eq!(back, x);
    }

    #[test]
    fn transpose_twice_is_identity(
        r in 1usize..8,
        c in 1usize..8,
        blk in prop_oneof![Just(1usize), Just(2), Just(4)],
        seed in 0u64..500,
    ) {
        let x = random_complex(r * c * blk, seed);
        let mut t = vec![Complex64::ZERO; x.len()];
        let mut back = vec![Complex64::ZERO; x.len()];
        transpose_blocked(&x, &mut t, r, c, blk);
        transpose_blocked(&t, &mut back, c, r, blk);
        prop_assert_eq!(back, x);
    }

    #[test]
    fn rotate_thrice_is_identity(
        k in 1usize..5,
        n in 1usize..5,
        m in 1usize..5,
        blk in prop_oneof![Just(1usize), Just(2), Just(4)],
        seed in 0u64..500,
    ) {
        let x = random_complex(k * n * m * blk, seed);
        let mut t1 = vec![Complex64::ZERO; x.len()];
        let mut t2 = vec![Complex64::ZERO; x.len()];
        let mut t3 = vec![Complex64::ZERO; x.len()];
        rotate_blocked(&x, &mut t1, k, n, m, blk);
        rotate_blocked(&t1, &mut t2, m, k, n, blk);
        rotate_blocked(&t2, &mut t3, n, m, k, blk);
        prop_assert_eq!(t3, x);
    }

    #[test]
    fn dft_is_an_isometry_up_to_sqrt_n(n in pow2(1, 10), seed in 0u64..500) {
        let x = random_complex(n, seed);
        let mut y = x.clone();
        BatchFft::new(n, 1, Direction::Forward).run(&mut y);
        let ex: f64 = x.iter().map(|v| v.norm_sqr()).sum();
        let ey: f64 = y.iter().map(|v| v.norm_sqr()).sum();
        let rel = ((ey / ex) - n as f64).abs() / (n as f64);
        prop_assert!(rel < 1e-11);
    }

    #[test]
    fn time_reversal_conjugation_identity(n in pow2(2, 8), seed in 0u64..500) {
        // DFT(conj(x))[k] = conj(DFT(x)[(n−k) mod n]).
        let x = random_complex(n, seed);
        let conj_x: Vec<Complex64> = x.iter().map(|c| c.conj()).collect();
        let mut fx = x.clone();
        BatchFft::new(n, 1, Direction::Forward).run(&mut fx);
        let mut fc = conj_x;
        BatchFft::new(n, 1, Direction::Forward).run(&mut fc);
        for k in 0..n {
            let expect = fx[(n - k) % n].conj();
            prop_assert!((fc[k] - expect).abs() < 1e-9 * (1.0 + expect.abs()));
        }
    }
}
