//! Real-input transforms via the half-length complex FFT (DESIGN.md
//! §13).
//!
//! A real array of length `n = 2h` is re-read as `h` complex elements
//! ([`crate::layout::fold_real`] — the conjugate-even packing folded
//! into the first stage's layout change), transformed by an ordinary
//! complex FFT of length `h`, and an `O(n)` *split-merge* post-pass
//! separates the even/odd-sample spectra and rotates them into the
//! `h + 1` conjugate-even packed bins `Y[0..=n/2]`:
//!
//! ```text
//! E[k] =  (Z[k] + conj(Z[h−k])) / 2          (even samples' spectrum)
//! O[k] = −i·(Z[k] − conj(Z[h−k])) / 2        (odd  samples' spectrum)
//! Y[kf] = E[kf%h] + w^kf · O[kf%h],  w = e^{−2πi/n},  kf = 0..=h
//! ```
//!
//! `c2r` is the exact mirror: an inverse merge pre-pass rebuilds the
//! half-length spectrum, an inverse complex FFT of length `h` runs, and
//! the pairs unfold back into reals. Both directions are unnormalized
//! like every transform in this workspace: `c2r(r2c(x)) = n·x`.
//!
//! The same passes generalize to multidimensional real transforms: the
//! row index gains a per-dimension mirror (`(−s) mod dim`), which is
//! exactly the `mirror` parameter of the pass functions here —
//! `bwfft-core`'s real plans call them with their row mirror while the
//! half-width *complex* transform runs unchanged through the
//! pipelined/fused/reference executors and all their guards.
//!
//! [`fused_multiply_merge`] is the spectral-convolution fast path: one
//! sweep over conjugate bin pairs computes the packed product spectrum
//! `Y·H` and immediately re-merges it for the inverse FFT, so the
//! product spectrum is never materialized.

use crate::batch::BatchFft;
use crate::layout::{fold_real, packed_spectrum_len, unfold_real};
use crate::Direction;
use bwfft_num::{is_pow2, AlignedVec, Complex64};

/// Column twiddles `w^kf = e^{−2πi·kf/n}` for `kf = 0..=n/2` — the
/// rotation the split-merge pass applies to the odd-sample spectrum.
pub fn half_twiddles(n: usize) -> Vec<Complex64> {
    assert!(n >= 2 && n.is_multiple_of(2), "half twiddles need even n");
    (0..=n / 2)
        .map(|kf| Complex64::root_of_unity(kf as i64, n as u64))
        .collect()
}

/// Forward split-merge post-pass: turns the complex FFT `z` of the
/// folded (half-width) real array into the conjugate-even packed
/// spectrum `out` (`rows × (h+1)` bins, `h = z.len()/rows`). `mirror`
/// maps a row index to its negated-frequency row (`(−s) mod dim` per
/// leading dimension; the identity for 1D). `tw` is
/// [`half_twiddles`]`(2h)`.
pub fn split_merge_forward(
    z: &[Complex64],
    tw: &[Complex64],
    rows: usize,
    mirror: impl Fn(usize) -> usize,
    out: &mut [Complex64],
) {
    assert!(rows > 0 && z.len().is_multiple_of(rows));
    let h = z.len() / rows;
    assert!(h >= 1);
    assert_eq!(tw.len(), h + 1, "twiddle table must cover kf = 0..=h");
    assert_eq!(out.len(), rows * (h + 1));
    for s in 0..rows {
        let ms = mirror(s);
        for kf in 0..=h {
            let k = kf % h;
            let mk = (h - k) % h;
            let za = z[s * h + k];
            let zb = z[ms * h + mk];
            let e = (za + zb.conj()).scale(0.5);
            let o = (za - zb.conj()).mul_neg_i().scale(0.5);
            out[s * (h + 1) + kf] = e + tw[kf] * o;
        }
    }
}

/// Inverse merge pre-pass: packs the conjugate-even spectrum back into
/// the half-length complex spectrum the inverse FFT consumes. The
/// unnormalized convention's factor 2 is folded in here, so an
/// unnormalized inverse FFT (×`h`) of the result followed by
/// [`unfold_real`] yields `n·x`.
pub fn merge_split_inverse(
    packed: &[Complex64],
    tw: &[Complex64],
    rows: usize,
    mirror: impl Fn(usize) -> usize,
    z: &mut [Complex64],
) {
    assert!(rows > 0 && z.len().is_multiple_of(rows));
    let h = z.len() / rows;
    assert!(h >= 1);
    assert_eq!(tw.len(), h + 1, "twiddle table must cover kf = 0..=h");
    assert_eq!(packed.len(), rows * (h + 1));
    for s in 0..rows {
        let ms = mirror(s);
        for k in 0..h {
            let p = packed[s * (h + 1) + k];
            let q = packed[ms * (h + 1) + (h - k)];
            // 2E and 2·w^{−k}·(w^k·O) = 2O — the /2 of the forward
            // split cancels against the folded factor 2.
            let e = p + q.conj();
            let o = (p - q.conj()) * tw[k].conj();
            z[s * h + k] = e + o.mul_i();
        }
    }
}

/// The fused spectral-convolution pass: in one sweep over conjugate
/// bin pairs, computes the packed product spectrum `Y·H` and
/// immediately re-merges it for the inverse half-length FFT — the
/// product spectrum is never materialized. `z` holds the forward
/// half-length FFT of the folded input (`rows × h`) and is replaced in
/// place by the merged product spectrum; `hspec` is the packed kernel
/// spectrum (`rows × (h+1)`), including any normalization factor.
pub fn fused_multiply_merge(
    z: &mut [Complex64],
    hspec: &[Complex64],
    tw: &[Complex64],
    rows: usize,
    mirror: impl Fn(usize) -> usize,
) {
    assert!(rows > 0 && z.len().is_multiple_of(rows));
    let h = z.len() / rows;
    assert!(h >= 1);
    assert_eq!(tw.len(), h + 1, "twiddle table must cover kf = 0..=h");
    assert_eq!(hspec.len(), rows * (h + 1));
    let hp = h + 1;
    for s in 0..rows {
        let ms = mirror(s);
        for k in 0..h {
            let mk = (h - k) % h;
            // Visit each unordered pair {(s,k), (ms,mk)} exactly once.
            if (ms, mk) < (s, k) {
                continue;
            }
            let za = z[s * h + k];
            let zb = z[ms * h + mk];
            let e = (za + zb.conj()).scale(0.5);
            let o = (za - zb.conj()).mul_neg_i().scale(0.5);
            if k == 0 {
                // The k = 0 column carries both the DC and Nyquist
                // packed bins of rows s and ms (Y[·][0] = E + O,
                // Y[·][h] = E − O; row ms holds their conjugates).
                let v_s0 = (e + o) * hspec[s * hp];
                let v_sh = (e - o) * hspec[s * hp + h];
                let v_m0 = (e + o).conj() * hspec[ms * hp];
                let v_mh = (e - o).conj() * hspec[ms * hp + h];
                z[s * h] = (v_s0 + v_mh.conj()) + (v_s0 - v_mh.conj()).mul_i();
                if ms != s {
                    z[ms * h] = (v_m0 + v_sh.conj()) + (v_m0 - v_sh.conj()).mul_i();
                }
            } else {
                // Y[s][k] = E + w^k·O and Y[ms][h−k] = conj(E − w^k·O).
                let b = tw[k] * o;
                let v1 = (e + b) * hspec[s * hp + k];
                let v2 = (e - b).conj() * hspec[ms * hp + (h - k)];
                let m1 = (v1 + v2.conj()) + ((v1 - v2.conj()) * tw[k].conj()).mul_i();
                z[s * h + k] = m1;
                if (ms, mk) != (s, k) {
                    let m2 =
                        (v2 + v1.conj()) + ((v2 - v1.conj()) * tw[h - k].conj()).mul_i();
                    z[ms * h + mk] = m2;
                }
            }
        }
    }
}

/// Energy of a conjugate-even packed spectrum (`rows × (h+1)` bins):
/// interior columns stand for their unstored mirror column too, so
/// they count twice; the DC and Nyquist columns are their own mirrors.
/// For the packed forward spectrum of real `x` this equals `N·Σx²`
/// (the transform being unnormalized) — the Parseval invariant the
/// integrity guards check over the half-spectrum.
pub fn packed_spectrum_energy(packed: &[Complex64], rows: usize) -> f64 {
    assert!(rows > 0 && packed.len().is_multiple_of(rows));
    let hp = packed.len() / rows;
    let mut e = 0.0;
    for s in 0..rows {
        let row = &packed[s * hp..(s + 1) * hp];
        if hp == 1 {
            e += row[0].norm_sqr();
            continue;
        }
        e += row[0].norm_sqr() + row[hp - 1].norm_sqr();
        for v in &row[1..hp - 1] {
            e += 2.0 * v.norm_sqr();
        }
    }
    e
}

/// A reusable 1D real-to-complex / complex-to-real plan of fixed
/// power-of-two size `n`: fold → half-length complex FFT → split-merge.
/// Forward output is the packed conjugate-even half-spectrum
/// (`n/2 + 1` bins, the bins `0..=n/2` of the full complex DFT of the
/// real input); [`c2r`](Self::c2r) is the exact adjoint pipeline and,
/// like every inverse in this workspace, unnormalized:
/// `c2r(r2c(x)) = n·x`.
pub struct RealFft1d {
    n: usize,
    /// Half-length plans; `None` for the degenerate `n == 1`.
    fwd: Option<BatchFft>,
    inv: Option<BatchFft>,
    tw: Vec<Complex64>,
    scratch: AlignedVec<Complex64>,
}

impl RealFft1d {
    /// Plans a power-of-two real transform of size `n` (`n = 1` and
    /// `n = 2` degenerate gracefully: identity and a single butterfly).
    pub fn new(n: usize) -> Self {
        assert!(is_pow2(n), "real FFT requires a power-of-two size");
        if n == 1 {
            return Self {
                n,
                fwd: None,
                inv: None,
                tw: Vec::new(),
                scratch: AlignedVec::zeroed(1),
            };
        }
        let h = n / 2;
        Self {
            n,
            fwd: Some(BatchFft::new(h, 1, Direction::Forward)),
            inv: Some(BatchFft::new(h, 1, Direction::Inverse)),
            tw: half_twiddles(n),
            scratch: AlignedVec::zeroed(h),
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Bins in the packed half-spectrum (`n/2 + 1`).
    #[inline]
    pub fn packed_len(&self) -> usize {
        packed_spectrum_len(self.n)
    }

    /// Forward real-to-complex transform: `out[k] = Σ_j x[j]·e^{−2πijk/n}`
    /// for `k = 0..=n/2`.
    pub fn r2c(&mut self, x: &[f64], out: &mut [Complex64]) {
        assert_eq!(x.len(), self.n);
        assert_eq!(out.len(), self.packed_len());
        let Some(fwd) = self.fwd.as_mut() else {
            out[0] = Complex64::new(x[0], 0.0);
            return;
        };
        fold_real(x, &mut self.scratch);
        fwd.run(&mut self.scratch);
        split_merge_forward(&self.scratch, &self.tw, 1, |s| s, out);
    }

    /// Inverse complex-to-real transform of a conjugate-even packed
    /// spectrum, unnormalized: `c2r(r2c(x)) = n·x`.
    pub fn c2r(&mut self, spec: &[Complex64], out: &mut [f64]) {
        assert_eq!(spec.len(), self.packed_len());
        assert_eq!(out.len(), self.n);
        let Some(inv) = self.inv.as_mut() else {
            out[0] = spec[0].re;
            return;
        };
        merge_split_inverse(spec, &self.tw, 1, |s| s, &mut self.scratch);
        inv.run(&mut self.scratch);
        unfold_real(&self.scratch, 1.0, out);
    }

}

/// A planned, fused 1D spectral convolution against a fixed real
/// kernel: `r2c → pointwise multiply fused into the merge stream →
/// c2r`, with the packed product spectrum never materialized and the
/// `1/n` normalization pre-folded into the kernel spectrum so the
/// output is the exact circular convolution.
pub struct SpectralConv1d {
    n: usize,
    fwd: BatchFft,
    inv: BatchFft,
    tw: Vec<Complex64>,
    hspec: Vec<Complex64>,
    scratch: AlignedVec<Complex64>,
}

impl SpectralConv1d {
    /// Plans the convolution; the kernel's packed spectrum is computed
    /// once here (planning-time work) and reused by every
    /// [`run`](Self::run).
    pub fn new(kernel: &[f64]) -> Self {
        let n = kernel.len();
        assert!(is_pow2(n) && n >= 2, "spectral convolution needs a power-of-two n ≥ 2");
        let h = n / 2;
        let mut plan = RealFft1d::new(n);
        let mut hspec = vec![Complex64::ZERO; n / 2 + 1];
        plan.r2c(kernel, &mut hspec);
        let s = 1.0 / n as f64;
        for v in hspec.iter_mut() {
            *v = v.scale(s);
        }
        Self {
            n,
            fwd: BatchFft::new(h, 1, Direction::Forward),
            inv: BatchFft::new(h, 1, Direction::Inverse),
            tw: half_twiddles(n),
            hspec,
            scratch: AlignedVec::zeroed(h),
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Circularly convolves `x` with the planned kernel, in place.
    pub fn run(&mut self, x: &mut [f64]) {
        assert_eq!(x.len(), self.n);
        fold_real(x, &mut self.scratch);
        self.fwd.run(&mut self.scratch);
        fused_multiply_merge(&mut self.scratch, &self.hspec, &self.tw, 1, |s| s);
        self.inv.run(&mut self.scratch);
        unfold_real(&self.scratch, 1.0, x);
    }
}

/// `O(n²)` circular-convolution oracle, for conformance tests and the
/// CLI's `--verify` path.
pub fn conv_direct(x: &[f64], g: &[f64]) -> Vec<f64> {
    let n = x.len();
    assert_eq!(g.len(), n);
    let mut out = vec![0.0; n];
    for (i, o) in out.iter_mut().enumerate() {
        for (j, xj) in x.iter().enumerate() {
            *o += xj * g[(n + i - j) % n];
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::dft_naive;
    use bwfft_num::signal::SplitMix64;

    fn random_real(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = SplitMix64::new(seed);
        (0..n).map(|_| rng.next_f64() * 2.0 - 1.0).collect()
    }

    fn r2c_oracle(x: &[f64]) -> Vec<Complex64> {
        let cx: Vec<Complex64> = x.iter().map(|&v| Complex64::new(v, 0.0)).collect();
        let full = dft_naive(&cx, Direction::Forward);
        full[..=x.len() / 2].to_vec()
    }

    #[test]
    fn r2c_matches_naive_half_spectrum() {
        for n in [2usize, 4, 8, 16, 64, 256] {
            let x = random_real(n, n as u64);
            let mut plan = RealFft1d::new(n);
            let mut got = vec![Complex64::ZERO; n / 2 + 1];
            plan.r2c(&x, &mut got);
            let want = r2c_oracle(&x);
            for (k, (g, w)) in got.iter().zip(&want).enumerate() {
                assert!((*g - *w).abs() < 1e-10 * n as f64, "n={n} k={k}: {g:?} vs {w:?}");
            }
        }
    }

    #[test]
    fn c2r_inverts_r2c_times_n() {
        for n in [1usize, 2, 4, 8, 32, 128] {
            let x = random_real(n, 7 + n as u64);
            let mut plan = RealFft1d::new(n);
            let mut spec = vec![Complex64::ZERO; plan.packed_len()];
            plan.r2c(&x, &mut spec);
            let mut back = vec![0.0; n];
            plan.c2r(&spec, &mut back);
            for (b, v) in back.iter().zip(&x) {
                assert!((b - v * n as f64).abs() < 1e-9 * n as f64);
            }
        }
    }

    #[test]
    fn degenerate_sizes_are_exact() {
        let mut p1 = RealFft1d::new(1);
        let mut spec = vec![Complex64::ZERO; 1];
        p1.r2c(&[3.5], &mut spec);
        assert_eq!(spec[0], Complex64::new(3.5, 0.0));
        let mut back = [0.0];
        p1.c2r(&spec, &mut back);
        assert_eq!(back[0], 3.5);

        let mut p2 = RealFft1d::new(2);
        let mut spec = vec![Complex64::ZERO; 2];
        p2.r2c(&[1.0, 2.0], &mut spec);
        assert!((spec[0].re - 3.0).abs() < 1e-15 && spec[0].im.abs() < 1e-15);
        assert!((spec[1].re + 1.0).abs() < 1e-15 && spec[1].im.abs() < 1e-15);
    }

    #[test]
    fn packed_energy_obeys_parseval() {
        for n in [1usize, 2, 8, 64, 512] {
            let x = random_real(n, 99 + n as u64);
            let mut plan = RealFft1d::new(n);
            let mut spec = vec![Complex64::ZERO; plan.packed_len()];
            plan.r2c(&x, &mut spec);
            let ex: f64 = x.iter().map(|v| v * v).sum();
            let ey = packed_spectrum_energy(&spec, 1);
            assert!(
                (ey - n as f64 * ex).abs() < 1e-9 * (1.0 + n as f64 * ex),
                "n={n}: {ey} vs {}",
                n as f64 * ex
            );
        }
    }

    #[test]
    fn fused_conv_matches_direct_oracle() {
        for n in [2usize, 4, 16, 64] {
            let x = random_real(n, 3 + n as u64);
            let g = random_real(n, 17 + n as u64);
            let mut conv = SpectralConv1d::new(&g);
            let mut got = x.clone();
            conv.run(&mut got);
            let want = conv_direct(&x, &g);
            for (a, b) in got.iter().zip(&want) {
                assert!((a - b).abs() < 1e-9 * n as f64, "n={n}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn conv_with_impulse_is_identity() {
        let n = 128;
        let x = random_real(n, 5);
        let mut delta = vec![0.0; n];
        delta[0] = 1.0;
        let mut conv = SpectralConv1d::new(&delta);
        let mut got = x.clone();
        conv.run(&mut got);
        for (a, b) in got.iter().zip(&x) {
            assert!((a - b).abs() < 1e-11);
        }
    }

    #[test]
    fn fused_pass_equals_unfused_multiply() {
        // The fused pass must be bit-for-bit the same pipeline as
        // r2c → packed multiply → c2r, up to rounding.
        let n = 64;
        let x = random_real(n, 21);
        let g = random_real(n, 22);
        let mut conv = SpectralConv1d::new(&g);
        let mut fused = x.clone();
        conv.run(&mut fused);

        let mut plan = RealFft1d::new(n);
        let mut xs = vec![Complex64::ZERO; n / 2 + 1];
        let mut gs = vec![Complex64::ZERO; n / 2 + 1];
        plan.r2c(&x, &mut xs);
        plan.r2c(&g, &mut gs);
        for (a, b) in xs.iter_mut().zip(&gs) {
            *a *= *b;
        }
        let mut unfused = vec![0.0; n];
        plan.c2r(&xs, &mut unfused);
        for v in unfused.iter_mut() {
            *v /= n as f64;
        }
        for (a, b) in fused.iter().zip(&unfused) {
            assert!((a - b).abs() < 1e-10);
        }
    }
}
