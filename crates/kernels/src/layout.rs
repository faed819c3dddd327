//! Real-transform layout changes: the conjugate-even fold of a real
//! array into half-length complex data, its inverse, and the packed
//! half-spectrum helpers the r2c/c2r path and its oracles share.

use bwfft_num::Complex64;

/// Number of complex bins in the conjugate-even packed spectrum of a
/// real transform of length `n` along its innermost dimension:
/// `n/2 + 1` (DC, the interior bins, and Nyquist). `n == 1` keeps its
/// single bin.
#[inline]
pub fn packed_spectrum_len(n: usize) -> usize {
    if n <= 1 {
        1
    } else {
        n / 2 + 1
    }
}

/// Conjugate-even packing — the real transform's "first-stage layout
/// change". Adjacent real pairs fold into one complex element,
/// `z[j] = x[2j] + i·x[2j+1]`, so a real array of `2h` doubles is
/// re-read as `h` complex elements and the heavy transform runs at
/// half the complex length: half the bytes through every
/// bandwidth-bound stage. The split-merge pass in [`crate::realfft`]
/// recovers the true half-spectrum afterwards.
pub fn fold_real(x: &[f64], z: &mut [Complex64]) {
    assert_eq!(x.len(), 2 * z.len(), "fold_real needs an even real length");
    for (j, zj) in z.iter_mut().enumerate() {
        *zj = Complex64::new(x[2 * j], x[2 * j + 1]);
    }
}

/// The inverse layout change (`c2r`'s last stage): complex elements
/// unfold back into adjacent reals, scaled by `scale`.
pub fn unfold_real(z: &[Complex64], scale: f64, x: &mut [f64]) {
    assert_eq!(x.len(), 2 * z.len(), "unfold_real needs an even real length");
    for (j, zj) in z.iter().enumerate() {
        x[2 * j] = zj.re * scale;
        x[2 * j + 1] = zj.im * scale;
    }
}

/// Reconstructs the full Hermitian spectrum of one real 1D transform
/// from its packed half-spectrum (`n/2 + 1` bins → `n` bins, with
/// `Y[n−k] = conj(Y[k])`), for oracles and symmetry checks.
pub fn unpack_half_spectrum(packed: &[Complex64], full: &mut [Complex64]) {
    let n = full.len();
    assert_eq!(packed.len(), packed_spectrum_len(n));
    if n <= 1 {
        full.copy_from_slice(packed);
        return;
    }
    let h = n / 2;
    full[..=h].copy_from_slice(packed);
    for k in 1..h {
        full[n - k] = packed[k].conj();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_unfold_roundtrip() {
        let x: Vec<f64> = (0..32).map(|i| i as f64 * 0.25 - 3.0).collect();
        let mut z = vec![Complex64::ZERO; 16];
        fold_real(&x, &mut z);
        assert_eq!(z[3], Complex64::new(x[6], x[7]));
        let mut back = vec![0.0; 32];
        unfold_real(&z, 1.0, &mut back);
        assert_eq!(back, x);
        unfold_real(&z, 0.5, &mut back);
        assert_eq!(back[6], x[6] * 0.5);
    }

    #[test]
    fn packed_len_counts_dc_and_nyquist() {
        assert_eq!(packed_spectrum_len(1), 1);
        assert_eq!(packed_spectrum_len(2), 2);
        assert_eq!(packed_spectrum_len(8), 5);
    }

    #[test]
    fn unpack_restores_hermitian_mirror() {
        use crate::reference::dft_naive;
        use crate::Direction;
        let n = 16;
        let x: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new((i as f64 * 0.7).sin(), 0.0))
            .collect();
        let full_ref = dft_naive(&x, Direction::Forward);
        let packed: Vec<Complex64> = full_ref[..=n / 2].to_vec();
        let mut full = vec![Complex64::ZERO; n];
        unpack_half_spectrum(&packed, &mut full);
        for (got, want) in full.iter().zip(&full_ref) {
            assert!((*got - *want).abs() < 1e-12);
        }
    }
}
