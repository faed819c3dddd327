//! Bluestein's chirp-z algorithm: DFTs of *arbitrary* length.
//!
//! The paper's transforms are power-of-two, but a credible FFT library
//! must accept any size. Bluestein reduces a length-`n` DFT to a
//! circular convolution of length `M ≥ 2n−1` (a power of two, served
//! by the Stockham kernel):
//!
//! ```text
//! y[k] = w[k] · Σ_j (x[j]·w[j]) · conj(w[k−j]),   w[j] = e^{−iπ j²/n}
//! ```
//!
//! The `j²` chirp exponent is reduced modulo `2n` before the float
//! conversion so precision holds at large sizes.

use crate::batch::BatchFft;
use crate::stockham::stockham_strided;
use crate::twiddle::StockhamTwiddles;
use crate::Direction;
use bwfft_num::{AlignedVec, Complex64};

/// A reusable Bluestein plan for size `n` (any `n ≥ 1`).
///
/// ```
/// use bwfft_kernels::bluestein::Bluestein;
/// use bwfft_kernels::Direction;
/// use bwfft_num::Complex64;
///
/// // A 6-point DFT of the all-ones vector: a spike of 6 at bin 0.
/// let mut data = vec![Complex64::ONE; 6];
/// Bluestein::new(6, Direction::Forward).run(&mut data);
/// assert!((data[0].re - 6.0).abs() < 1e-12);
/// assert!(data[1].abs() < 1e-12);
/// ```
pub struct Bluestein {
    n: usize,
    m: usize,
    dir: Direction,
    /// Chirp `w[j]`, `j < n` (direction-adjusted).
    chirp: Vec<Complex64>,
    /// FFT of the padded, wrapped conjugate chirp (precomputed).
    kernel_fft: Vec<Complex64>,
    fwd: StockhamTwiddles,
    inv: StockhamTwiddles,
    scratch_a: AlignedVec<Complex64>,
    scratch_b: AlignedVec<Complex64>,
}

impl Bluestein {
    pub fn new(n: usize, dir: Direction) -> Self {
        assert!(n >= 1);
        let m = (2 * n - 1).next_power_of_two();
        // w[j] = e^{∓iπ j²/n}: exponent j² mod 2n keeps the angle
        // argument small and exact.
        // θ_j = sign·π·(j² mod 2n)/n, with sign = −1 forward (so that
        // w[j]·w[k]·conj(w[k−j]) = ω_n^{jk} via jk = (j²+k²−(k−j)²)/2).
        let chirp: Vec<Complex64> = (0..n)
            .map(|j| {
                let e = ((j as u128 * j as u128) % (2 * n as u128)) as f64;
                Complex64::cis(dir.sign() * core::f64::consts::PI * e / n as f64)
            })
            .collect();
        // Build the convolution kernel b[j] = conj(w[j]) wrapped.
        let mut b = vec![Complex64::ZERO; m];
        for j in 0..n {
            let v = chirp[j].conj();
            b[j] = v;
            if j != 0 {
                b[m - j] = v;
            }
        }
        let fwd = StockhamTwiddles::new(m, Direction::Forward);
        let inv = StockhamTwiddles::new(m, Direction::Inverse);
        let mut kernel_fft = b;
        let mut scratch = vec![Complex64::ZERO; m];
        stockham_strided(&mut kernel_fft, &mut scratch, m, 1, &fwd);
        Self {
            n,
            m,
            dir,
            chirp,
            kernel_fft,
            fwd,
            inv,
            scratch_a: AlignedVec::zeroed(m),
            scratch_b: AlignedVec::zeroed(m),
        }
    }

    pub fn len(&self) -> usize {
        self.n
    }

    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Transform direction this plan was built for.
    pub fn direction(&self) -> Direction {
        self.dir
    }

    /// Length of the internal power-of-two convolution.
    pub fn conv_len(&self) -> usize {
        self.m
    }

    /// Transforms `data` in place (unnormalized).
    pub fn run(&mut self, data: &mut [Complex64]) {
        assert_eq!(data.len(), self.n);
        let (n, m) = (self.n, self.m);
        let a = &mut self.scratch_a;
        // a = x ⊙ w, zero-padded to M.
        for i in 0..m {
            a[i] = Complex64::ZERO;
        }
        for j in 0..n {
            a[j] = data[j] * self.chirp[j];
        }
        // A = FFT(a); A ⊙= kernel_fft; a = IFFT(A)/M.
        stockham_strided(a, &mut self.scratch_b, m, 1, &self.fwd);
        for (v, k) in a.iter_mut().zip(&self.kernel_fft) {
            *v *= *k;
        }
        stockham_strided(a, &mut self.scratch_b, m, 1, &self.inv);
        let scale = 1.0 / m as f64;
        for k in 0..n {
            data[k] = a[k].scale(scale) * self.chirp[k];
        }
    }
}

/// A planner accepting any size: power-of-two sizes dispatch to the
/// Stockham kernel, everything else to Bluestein.
pub enum AnyFft {
    Pow2(BatchFft),
    Chirp(Box<Bluestein>),
}

impl AnyFft {
    pub fn new(n: usize, dir: Direction) -> Self {
        if bwfft_num::is_pow2(n) {
            AnyFft::Pow2(BatchFft::new(n, 1, dir))
        } else {
            AnyFft::Chirp(Box::new(Bluestein::new(n, dir)))
        }
    }

    pub fn len(&self) -> usize {
        match self {
            AnyFft::Pow2(f) => f.m(),
            AnyFft::Chirp(b) => b.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn run(&mut self, data: &mut [Complex64]) {
        assert_eq!(data.len(), self.len());
        match self {
            AnyFft::Pow2(f) => f.run(data),
            AnyFft::Chirp(b) => b.run(data),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::dft_naive;
    use bwfft_num::compare::assert_fft_close;
    use bwfft_num::signal::random_complex;

    #[test]
    fn arbitrary_sizes_match_naive() {
        for n in [1usize, 2, 3, 5, 6, 7, 9, 12, 13, 15, 17, 30, 100, 127, 360] {
            let x = random_complex(n, 500 + n as u64);
            let mut got = x.clone();
            Bluestein::new(n, Direction::Forward).run(&mut got);
            assert_fft_close(&got, &dft_naive(&x, Direction::Forward));
        }
    }

    #[test]
    fn inverse_matches_naive() {
        for n in [5usize, 12, 100] {
            let x = random_complex(n, 501);
            let mut got = x.clone();
            Bluestein::new(n, Direction::Inverse).run(&mut got);
            assert_fft_close(&got, &dft_naive(&x, Direction::Inverse));
        }
    }

    #[test]
    fn roundtrip_non_pow2() {
        let n = 105;
        let x = random_complex(n, 502);
        let mut data = x.clone();
        Bluestein::new(n, Direction::Forward).run(&mut data);
        Bluestein::new(n, Direction::Inverse).run(&mut data);
        let back: Vec<Complex64> = data.iter().map(|c| c.scale(1.0 / n as f64)).collect();
        assert_fft_close(&back, &x);
    }

    #[test]
    fn plan_is_reusable() {
        let n = 77;
        let mut plan = Bluestein::new(n, Direction::Forward);
        for seed in 0..3 {
            let x = random_complex(n, 503 + seed);
            let mut got = x.clone();
            plan.run(&mut got);
            assert_fft_close(&got, &dft_naive(&x, Direction::Forward));
        }
    }

    #[test]
    fn conv_length_is_pow2_and_big_enough() {
        for n in [3usize, 9, 31, 100] {
            let b = Bluestein::new(n, Direction::Forward);
            assert!(bwfft_num::is_pow2(b.conv_len()));
            assert!(b.conv_len() >= 2 * n - 1);
        }
    }

    #[test]
    fn any_fft_dispatches_correctly() {
        for n in [8usize, 12, 64, 100] {
            let x = random_complex(n, 504);
            let mut got = x.clone();
            let mut plan = AnyFft::new(n, Direction::Forward);
            assert_eq!(plan.len(), n);
            plan.run(&mut got);
            assert_fft_close(&got, &dft_naive(&x, Direction::Forward));
            match plan {
                AnyFft::Pow2 { .. } => assert!(bwfft_num::is_pow2(n)),
                AnyFft::Chirp(_) => assert!(!bwfft_num::is_pow2(n)),
            }
        }
    }

    #[test]
    fn large_prime_size_is_accurate() {
        // Precision guard: chirp exponent reduction keeps error tiny
        // even at sizes where j² overflows without the mod-2n trick.
        let n = 1009; // prime
        let x = random_complex(n, 505);
        let mut got = x.clone();
        Bluestein::new(n, Direction::Forward).run(&mut got);
        assert_fft_close(&got, &dft_naive(&x, Direction::Forward));
    }
}
