//! Precomputed twiddle-factor tables.
//!
//! FFT stages consume roots of unity in a fixed order; recomputing
//! `sin`/`cos` inside the butterfly loops would dominate runtime, so
//! plans precompute per-stage tables once. Tables are direction-aware
//! (inverse transforms use conjugated roots).

use crate::Direction;
use bwfft_num::{try_vec_zeroed, AllocError, Complex64};

/// `ω_n^k`, conjugated for inverse transforms.
fn root(k: usize, n: usize, dir: Direction) -> Complex64 {
    let w = Complex64::root_of_unity(k as i64, n as u64);
    match dir {
        Direction::Forward => w,
        Direction::Inverse => w.conj(),
    }
}

/// Twiddle tables for a radix-2 Stockham FFT of size `n = 2^s`:
/// `stage[q][p] = ω_len^p` with `len = n >> q` and `p < len/2`.
#[derive(Clone, Debug)]
pub struct StockhamTwiddles {
    pub n: usize,
    pub dir: Direction,
    stages: Vec<Vec<Complex64>>,
}

impl StockhamTwiddles {
    pub fn new(n: usize, dir: Direction) -> Self {
        assert!(bwfft_num::is_pow2(n), "Stockham kernel requires power-of-two size");
        // Each stage's table is the previous one sampled at stride 2,
        // bit for bit: `root_of_unity(2p, len)` reduces to the same
        // fraction (so takes the same exact-quadrant branch) as
        // `root_of_unity(p, len/2)`, and its `sin_cos` angle differs
        // only by an exact power-of-two scaling. So only stage 0's
        // `n/2` roots are evaluated.
        let stage0: Vec<Complex64> = (0..n / 2).map(|p| root(p, n, dir)).collect();
        let stages = std::iter::successors(Some(stage0), |prev| {
            (prev.len() > 1).then(|| prev.iter().step_by(2).copied().collect())
        })
        .take(n.trailing_zeros() as usize)
        .collect();
        Self { n, dir, stages }
    }

    /// Number of butterfly stages (`log2 n`).
    #[inline]
    pub fn num_stages(&self) -> usize {
        self.stages.len()
    }

    /// The table for stage `q` (stage 0 spans the full length `n`).
    #[inline]
    pub fn stage(&self, q: usize) -> &[Complex64] {
        &self.stages[q]
    }

    /// Total complex values stored (`n − 1` for radix-2).
    pub fn footprint_elems(&self) -> usize {
        self.stages.iter().map(|s| s.len()).sum()
    }
}

/// The four-step twiddle diagonal `D_{rows,cols}` of a Cooley–Tukey
/// split of `N = rows·cols`: row `i`, column `j` is `ω_N^{i·j}`
/// (conjugated for inverse transforms).
///
/// It holds `rows + cols` roots instead of `N`: `lo[r] = ω_N^r` for
/// `r < cols` and `hi[q] = ω_N^{q·cols}` for `q < rows`, so with
/// `i·j = q·cols + r`, `ω_N^{i·j} = hi[q]·lo[r]`. Each stored entry is
/// one [`Complex64::root_of_unity`] value (quarter turns stay exact);
/// each applied twiddle is the rounded product of two, within a few
/// `f64::EPSILON` of the directly evaluated root.
#[derive(Clone, Debug)]
pub struct FourStepTwiddles {
    lo: Vec<Complex64>,
    hi: Vec<Complex64>,
}

impl FourStepTwiddles {
    /// Builds the table; panics if the allocator refuses (see
    /// [`try_new`](Self::try_new)).
    pub fn new(rows: usize, cols: usize, dir: Direction) -> Self {
        match Self::try_new(rows, cols, dir) {
            Ok(t) => t,
            Err(e) => panic!("four-step twiddle allocation failed: {e}"),
        }
    }

    /// Fallible [`new`](Self::new): a refused allocation comes back as
    /// a typed [`AllocError`].
    pub fn try_new(rows: usize, cols: usize, dir: Direction) -> Result<Self, AllocError> {
        assert!(
            rows > 0 && cols > 0,
            "four-step twiddles need a non-empty split"
        );
        let n = rows * cols;
        let mut lo = try_vec_zeroed(cols, "four-step twiddles")?;
        let mut hi = try_vec_zeroed(rows, "four-step twiddles")?;
        for (r, w) in lo.iter_mut().enumerate() {
            *w = root(r, n, dir);
        }
        for (q, w) in hi.iter_mut().enumerate() {
            *w = root(q * cols, n, dir);
        }
        Ok(Self { lo, hi })
    }

    /// Multiplies `row[j]` by `ω_N^{i·j}`: row `i` of the diagonal.
    /// `row` must be one whole row (`cols` elements).
    pub fn apply_row(&self, i: usize, row: &mut [Complex64]) {
        let cols = self.lo.len();
        assert!(
            i < self.hi.len() && row.len() == cols,
            "row {i} of length {} is outside the {}x{cols} diagonal",
            row.len(),
            self.hi.len()
        );
        // The exponent i·j advances by i per element; carry it as
        // (q, r) with i·j = q·cols + r, r < cols. It stays below N, so
        // q stays below rows.
        let (dq, dr) = (i / cols, i % cols);
        let (mut q, mut r) = (0, 0);
        for v in row {
            *v *= self.hi[q] * self.lo[r];
            q += dq;
            r += dr;
            if r >= cols {
                r -= cols;
                q += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_lengths_halve() {
        let t = StockhamTwiddles::new(64, Direction::Forward);
        assert_eq!(t.num_stages(), 6);
        let lens: Vec<usize> = (0..6).map(|q| t.stage(q).len()).collect();
        assert_eq!(lens, vec![32, 16, 8, 4, 2, 1]);
        assert_eq!(t.footprint_elems(), 63);
    }

    #[test]
    fn forward_and_inverse_tables_conjugate() {
        let f = StockhamTwiddles::new(16, Direction::Forward);
        let i = StockhamTwiddles::new(16, Direction::Inverse);
        for q in 0..f.num_stages() {
            for (a, b) in f.stage(q).iter().zip(i.stage(q)) {
                assert_eq!(a.conj(), *b);
            }
        }
    }

    #[test]
    fn entries_are_the_expected_roots() {
        // Stage q holds ω_{n/2^q}^p bit for bit, though only stage 0's
        // roots are evaluated.
        for s in 0..=16 {
            let n = 1usize << s;
            for dir in [Direction::Forward, Direction::Inverse] {
                let t = StockhamTwiddles::new(n, dir);
                assert_eq!(t.num_stages(), s);
                for q in 0..s {
                    let len = n >> q;
                    assert_eq!(t.stage(q).len(), len / 2);
                    for (p, w) in t.stage(q).iter().enumerate() {
                        let want = root(p, len, dir);
                        assert_eq!(w.re.to_bits(), want.re.to_bits(), "n={n} q={q} p={p}");
                        assert_eq!(w.im.to_bits(), want.im.to_bits(), "n={n} q={q} p={p}");
                    }
                }
            }
        }
    }

    /// Row `i` of the diagonal, as applied to ones.
    fn applied_row(t: &FourStepTwiddles, i: usize) -> Vec<Complex64> {
        let mut row = vec![Complex64::ONE; t.lo.len()];
        t.apply_row(i, &mut row);
        row
    }

    /// Largest `|applied − ω_N^{i·j}|` over every column of the rows
    /// given.
    fn max_err(t: &FourStepTwiddles, dir: Direction, rows: impl Iterator<Item = usize>) -> f64 {
        let n = t.hi.len() * t.lo.len();
        rows.flat_map(|i| {
            applied_row(t, i)
                .into_iter()
                .enumerate()
                .map(move |(j, w)| (w - root(i * j % n, n, dir)).abs())
        })
        .fold(0.0, f64::max)
    }

    #[test]
    fn four_step_entries_match_the_direct_roots() {
        // Every row of small splits — rows > cols takes the carry path
        // with a whole-row step; 1×n and n×1 are the degenerate ones —
        // and sampled rows of the 2^20 and 2^21 splits the out-of-core
        // tier plans (n2 rows of n1 columns).
        let shapes = [
            (4, 3, 1),
            (3, 4, 1),
            (8, 2, 1),
            (2, 8, 1),
            (64, 16, 1),
            (16, 64, 1),
            (1, 32, 1),
            (32, 1, 1),
            (1, 1, 1),
            (1024, 1024, 97),
            (1024, 2048, 97),
        ];
        for (rows, cols, step) in shapes {
            for dir in [Direction::Forward, Direction::Inverse] {
                let t = FourStepTwiddles::new(rows, cols, dir);
                let err = max_err(&t, dir, (0..rows).step_by(step).chain([rows - 1]));
                assert!(err <= 8.0 * f64::EPSILON, "{rows}x{cols} {dir:?}: {err:e}");
            }
        }
    }

    #[test]
    fn four_step_inverse_is_the_conjugate() {
        for (rows, cols) in [(4, 3), (16, 8), (8, 16)] {
            let f = FourStepTwiddles::new(rows, cols, Direction::Forward);
            let i = FourStepTwiddles::new(rows, cols, Direction::Inverse);
            for (a, b) in f.lo.iter().chain(&f.hi).zip(i.lo.iter().chain(&i.hi)) {
                assert_eq!(a.conj(), *b);
            }
            for r in 0..rows {
                let conj: Vec<Complex64> = applied_row(&f, r).iter().map(|w| w.conj()).collect();
                assert_eq!(conj, applied_row(&i, r));
            }
        }
    }

    #[test]
    fn four_step_entries_are_single_roots_with_exact_quarter_turns() {
        for (rows, cols) in [(4, 3), (8, 8), (16, 4), (2, 32)] {
            let n = rows * cols;
            for dir in [Direction::Forward, Direction::Inverse] {
                let s = dir.sign();
                let quarter = [
                    Complex64::ONE,
                    Complex64::new(0.0, s),
                    Complex64::new(-1.0, 0.0),
                    Complex64::new(0.0, -s),
                ];
                let t = FourStepTwiddles::new(rows, cols, dir);
                let lo = (0..cols).zip(&t.lo);
                let hi = (0..rows).map(|q| q * cols).zip(&t.hi);
                for (k, w) in lo.chain(hi) {
                    assert_eq!(*w, root(k, n, dir), "{rows}x{cols} exponent {k}");
                    if (4 * k) % n == 0 {
                        assert_eq!(*w, quarter[4 * k / n], "{rows}x{cols} exponent {k}");
                    }
                }
            }
        }
    }

    #[test]
    fn ct_diag_matches_spl_twiddle() {
        let x = bwfft_num::signal::random_complex(12, 3);
        let want = bwfft_spl::Formula::twiddle(4, 3).apply_vec(&x);
        let t = FourStepTwiddles::new(4, 3, Direction::Forward);
        let mut got = x.clone();
        for (i, row) in got.chunks_mut(3).enumerate() {
            t.apply_row(i, row);
        }
        for (a, b) in got.iter().zip(&want) {
            assert!((*a - *b).abs() < 1e-14);
        }
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn rejects_non_pow2() {
        let _ = StockhamTwiddles::new(12, Direction::Forward);
    }
}
