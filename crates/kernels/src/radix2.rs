//! In-place radix-2 decimation-in-time FFT with bit-reversal reorder.
//!
//! Not on any execution path: it is the independent oracle the
//! Stockham kernel is tested against (an independently-derived
//! algorithm, with twiddles computed on the fly), and its strided
//! access pattern (stride doubling per stage over the whole array) is
//! the canonical example of the cache-hostile behaviour the paper's
//! blocked decompositions avoid.

use crate::Direction;
use bwfft_num::Complex64;

/// Bit-reversal permutation of `data` (length must be a power of two).
pub fn bit_reverse_permute(data: &mut [Complex64]) {
    let n = data.len();
    assert!(bwfft_num::is_pow2(n));
    let shift = usize::BITS - n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> shift;
        if i < j {
            data.swap(i, j);
        }
    }
}

/// In-place radix-2 DIT FFT. Direction is chosen at call time (twiddles
/// are computed on the fly from the quadrant-exact root helper; for hot
/// paths use the Stockham kernel with precomputed tables).
pub fn fft_radix2_inplace(data: &mut [Complex64], dir: Direction) {
    let n = data.len();
    assert!(bwfft_num::is_pow2(n));
    if n == 1 {
        return;
    }
    bit_reverse_permute(data);
    let mut len = 2;
    while len <= n {
        let half = len / 2;
        for base in (0..n).step_by(len) {
            for p in 0..half {
                let w = Complex64::root_of_unity(p as i64, len as u64);
                let w = match dir {
                    Direction::Forward => w,
                    Direction::Inverse => w.conj(),
                };
                let a = data[base + p];
                let b = data[base + p + half] * w;
                data[base + p] = a + b;
                data[base + p + half] = a - b;
            }
        }
        len *= 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::dft_naive;
    use crate::twiddle::StockhamTwiddles;
    use bwfft_num::compare::assert_fft_close;
    use bwfft_num::signal::random_complex;

    #[test]
    fn bit_reversal_is_an_involution() {
        let x = random_complex(64, 1);
        let mut y = x.clone();
        bit_reverse_permute(&mut y);
        assert_ne!(x, y);
        bit_reverse_permute(&mut y);
        assert_eq!(x, y);
    }

    #[test]
    fn bit_reversal_small_case() {
        let mut v: Vec<Complex64> = (0..8).map(|i| Complex64::new(i as f64, 0.0)).collect();
        bit_reverse_permute(&mut v);
        let order: Vec<f64> = v.iter().map(|c| c.re).collect();
        assert_eq!(order, vec![0.0, 4.0, 2.0, 6.0, 1.0, 5.0, 3.0, 7.0]);
    }

    #[test]
    fn matches_naive_dft() {
        for lg in 0..=10 {
            let n = 1usize << lg;
            let x = random_complex(n, 20 + lg as u64);
            let mut got = x.clone();
            fft_radix2_inplace(&mut got, Direction::Forward);
            assert_fft_close(&got, &dft_naive(&x, Direction::Forward));
        }
    }

    #[test]
    fn inverse_direction() {
        let x = random_complex(128, 30);
        let mut got = x.clone();
        fft_radix2_inplace(&mut got, Direction::Inverse);
        assert_fft_close(&got, &dft_naive(&x, Direction::Inverse));
    }

    #[test]
    fn agrees_with_stockham_kernel() {
        // Two independently-derived algorithms must agree.
        let n = 2048;
        let x = random_complex(n, 32);
        let mut a = x.clone();
        fft_radix2_inplace(&mut a, Direction::Forward);
        let mut b = x.clone();
        let mut scratch = vec![Complex64::ZERO; n];
        let tw = StockhamTwiddles::new(n, Direction::Forward);
        crate::stockham::stockham_strided(&mut b, &mut scratch, n, 1, &tw);
        assert_fft_close(&b, &a);
    }
}
