//! Batched pencil kernels — the paper's "Compute" task (§III-B).
//!
//! After a block of `b` elements has been loaded into the shared
//! buffer, the compute threads apply `I_{b/m} ⊗ DFT_m` in place
//! (stage 1), or `I_{b/(nμ)} ⊗ DFT_n ⊗ I_μ` (later stages, where the
//! blocked reshape has already grouped each pencil into `μ`-wide
//! cacheline lanes).

use crate::stockham::stockham_strided;
use crate::twiddle::StockhamTwiddles;
use crate::Direction;
use bwfft_num::{AlignedVec, Complex64};

/// The 1D pencil kernel a plan runs. Radix-2 Stockham is the only one;
/// the type survives because hostbench's replay reads
/// `FftPlan::kernel` and passes it to [`BatchFft::with_variant`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum KernelVariant {
    /// Radix-2 Stockham autosort.
    #[default]
    Stockham,
}

impl KernelVariant {
    /// Short stable token (`r2`) that hostbench prints with a plan.
    pub fn token(self) -> &'static str {
        match self {
            KernelVariant::Stockham => "r2",
        }
    }
}

/// Reusable kernel for `I_c ⊗ DFT_m ⊗ I_s` applied in place to a
/// buffer of `c·m·s` elements: `c` independent pencils, each a DFT of
/// size `m` vectorized across `s` lanes (`s = 1` for plain contiguous
/// pencils, `s = μ` for the cacheline-blocked form).
///
/// ```
/// use bwfft_kernels::{batch::BatchFft, Direction};
/// use bwfft_num::{signal, Complex64};
///
/// // Two 8-point pencils transformed in one call.
/// let mut buf = signal::impulse(16, 0); // impulse in pencil 0 only
/// BatchFft::new(8, 1, Direction::Forward).run(&mut buf);
/// assert!((buf[3].re - 1.0).abs() < 1e-12);  // flat spectrum
/// assert!(buf[8].abs() < 1e-12);             // pencil 1 was zero
/// ```
pub struct BatchFft {
    m: usize,
    s: usize,
    twiddles: StockhamTwiddles,
    scratch: AlignedVec<Complex64>,
}

impl BatchFft {
    pub fn new(m: usize, s: usize, dir: Direction) -> Self {
        assert!(m >= 1 && s >= 1);
        Self {
            m,
            s,
            twiddles: StockhamTwiddles::new(m, dir),
            scratch: AlignedVec::zeroed(m * s),
        }
    }

    /// Same as [`new`](Self::new); kept because hostbench's replay
    /// calls it with `FftPlan::kernel`.
    pub fn with_variant(m: usize, s: usize, dir: Direction, _variant: KernelVariant) -> Self {
        Self::new(m, s, dir)
    }

    #[inline]
    fn apply(&mut self, pencil: &mut [Complex64]) {
        stockham_strided(pencil, &mut self.scratch, self.m, self.s, &self.twiddles);
    }

    /// Pencil length.
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Vector lanes per pencil.
    #[inline]
    pub fn lanes(&self) -> usize {
        self.s
    }

    /// Elements consumed per pencil (`m·s`).
    #[inline]
    pub fn pencil_elems(&self) -> usize {
        self.m * self.s
    }

    /// Applies the batch to `buf` in place. `buf.len()` must be a
    /// multiple of `m·s`; the number of pencils is inferred.
    pub fn run(&mut self, buf: &mut [Complex64]) {
        let chunk = self.pencil_elems();
        assert!(
            buf.len().is_multiple_of(chunk),
            "buffer ({}) not a multiple of pencil size ({chunk})",
            buf.len()
        );
        for pencil in buf.chunks_exact_mut(chunk) {
            self.apply(pencil);
        }
    }

    /// Applies the batch to a disjoint sub-range of pencils — the unit
    /// of work one compute thread takes when the batch is parallelized
    /// across `p_c` threads (§III-C). `first` and `count` are in
    /// pencils.
    pub fn run_range(&mut self, buf: &mut [Complex64], first: usize, count: usize) {
        let chunk = self.pencil_elems();
        let lo = first * chunk;
        let hi = lo + count * chunk;
        assert!(hi <= buf.len());
        for pencil in buf[lo..hi].chunks_exact_mut(chunk) {
            self.apply(pencil);
        }
    }

    /// Estimated flop count for one full buffer pass, using the paper's
    /// `5·N·log2 N` pseudo-flop convention per pencil.
    pub fn pseudo_flops(&self, buf_elems: usize) -> f64 {
        let pencils = (buf_elems / self.pencil_elems()) as f64;
        let n = (self.m * self.s) as f64;
        // Each pencil transforms m points across s lanes: the work is
        // s · 5·m·log2(m), i.e. 5·(m·s)·log2(m).
        pencils * 5.0 * n * (self.m.max(2) as f64).log2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::dft_naive;
    use bwfft_num::compare::assert_fft_close;
    use bwfft_num::signal::random_complex;
    use bwfft_spl::Formula;

    #[test]
    fn contiguous_batch_matches_spl() {
        // I_4 ⊗ DFT_8.
        let (c, m) = (4usize, 8usize);
        let x = random_complex(c * m, 40);
        let mut buf = x.clone();
        BatchFft::new(m, 1, Direction::Forward).run(&mut buf);
        let expect = Formula::tensor(Formula::identity(c), Formula::dft(m)).apply_vec(&x);
        assert_fft_close(&buf, &expect);
    }

    #[test]
    fn strided_batch_matches_spl() {
        // I_3 ⊗ DFT_8 ⊗ I_4 — the cacheline-blocked pencil form.
        let (c, m, mu) = (3usize, 8usize, 4usize);
        let x = random_complex(c * m * mu, 41);
        let mut buf = x.clone();
        BatchFft::new(m, mu, Direction::Forward).run(&mut buf);
        let expect = Formula::tensor(
            Formula::identity(c),
            Formula::tensor(Formula::dft(m), Formula::identity(mu)),
        )
        .apply_vec(&x);
        assert_fft_close(&buf, &expect);
    }

    #[test]
    fn range_runs_partition_the_batch() {
        let (c, m) = (8usize, 16usize);
        let x = random_complex(c * m, 42);
        let mut whole = x.clone();
        BatchFft::new(m, 1, Direction::Forward).run(&mut whole);
        // Two "threads" each take half the pencils.
        let mut halves = x.clone();
        let mut k0 = BatchFft::new(m, 1, Direction::Forward);
        let mut k1 = BatchFft::new(m, 1, Direction::Forward);
        k0.run_range(&mut halves, 0, 4);
        k1.run_range(&mut halves, 4, 4);
        assert_eq!(whole, halves);
    }

    #[test]
    fn inverse_batch_roundtrips() {
        let (c, m, mu) = (2usize, 32usize, 4usize);
        let x = random_complex(c * m * mu, 43);
        let mut buf = x.clone();
        BatchFft::new(m, mu, Direction::Forward).run(&mut buf);
        BatchFft::new(m, mu, Direction::Inverse).run(&mut buf);
        let scaled: Vec<Complex64> = buf.iter().map(|v| v.scale(1.0 / m as f64)).collect();
        assert_fft_close(&scaled, &x);
    }

    #[test]
    fn plan_is_reusable() {
        let mut plan = BatchFft::new(64, 1, Direction::Forward);
        for seed in 0..5 {
            let x = random_complex(64, seed);
            let mut got = x.clone();
            plan.run(&mut got);
            assert_fft_close(&got, &dft_naive(&x, Direction::Forward));
        }
    }

    #[test]
    #[should_panic]
    fn wrong_length_is_rejected() {
        let mut plan = BatchFft::new(64, 1, Direction::Forward);
        let mut data = vec![Complex64::ZERO; 32];
        plan.run(&mut data);
    }

    #[test]
    fn pseudo_flops_formula() {
        let k = BatchFft::new(512, 1, Direction::Forward);
        let b = 131_072; // paper's example buffer
        let flops = k.pseudo_flops(b);
        // 256 pencils · 5·512·9 flops each.
        assert_eq!(flops, 256.0 * 5.0 * 512.0 * 9.0);
    }
}
