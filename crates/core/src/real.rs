//! Real-input multidimensional transforms (r2c / c2r), DESIGN.md §13.
//!
//! A real row-major array whose innermost dimension is `m` is re-read
//! as a complex array with innermost dimension `m/2` — the
//! conjugate-even packing *is* the first stage's layout change
//! (`bwfft_kernels::layout::fold_real`), so it costs nothing extra.
//! The heavy transform is then an ordinary half-width *complex*
//! [`FftPlan`] running unchanged through every execution path this
//! crate has: the pipelined soft-DMA executor, the fused fallback, the
//! reference tier, the [`Supervisor`](crate::Supervisor) recovery ladder, fault injection
//! and the integrity guards. A final `O(N)` split-merge pass
//! ([`bwfft_kernels::realfft`]) converts between the half-width complex
//! spectrum and the conjugate-even *packed* spectrum of shape
//! `rows × (m/2 + 1)` — rows mirrored per leading dimension
//! ([`mirror_row`]).
//!
//! The payoff is the bandwidth story of the source paper: every
//! memory-bound stage moves half the bytes of the complex path, and the
//! packed spectrum stores `n/2+1` complex bins per row instead of `n`.
//!
//! [`SpectralConvPlan`] builds the workload users actually call FFTs
//! for on top: a planned circular convolution against a fixed real
//! kernel whose pointwise multiply is fused into the spectrum
//! merge/store stream ([`bwfft_kernels::realfft::fused_multiply_merge`])
//! so the product spectrum is never materialized.

use crate::error::CoreError;
use crate::plan::{Dims, FftPlan, PlanError};
use crate::reference::execute_reference;
use bwfft_kernels::layout::{fold_real, unfold_real};
use bwfft_kernels::realfft::{
    fused_multiply_merge, half_twiddles, merge_split_inverse, packed_spectrum_energy,
    split_merge_forward,
};
use bwfft_kernels::Direction;
use bwfft_num::{try_vec_zeroed, Complex64};
use bwfft_pipeline::IntegrityKind;

/// Row mirror of the packed spectrum: negates every *leading* (row)
/// frequency index, `(−s_i) mod d_i` per dimension. Together with the
/// in-row column mirror this realizes the Hermitian symmetry
/// `Y[−s][−k] = conj(Y[s][k])` of a real input's spectrum.
pub fn mirror_row(dims: Dims, s: usize) -> usize {
    match dims {
        Dims::Two { n, .. } => (n - s % n) % n,
        Dims::Three { k, n, .. } => {
            let a = s / n;
            let b = s % n;
            ((k - a % k) % k) * n + (n - b) % n
        }
    }
}

/// A validated real-transform plan: a matched pair of half-width
/// complex plans (forward for r2c, inverse for c2r) plus the
/// split-merge twiddle table. Like every transform in the workspace
/// the inverse is unnormalized: `c2r(r2c(x)) = N·x` for `N` real
/// elements (see [`normalize`]).
#[derive(Clone, Debug)]
pub struct RealFftPlan {
    /// Real-space dimensions (innermost dimension in *real* elements).
    dims: Dims,
    fwd: FftPlan,
    inv: FftPlan,
    tw: Vec<Complex64>,
}

/// Builder for [`RealFftPlan`]; mirrors the knobs of
/// [`FftPlan::builder`] that make sense for the real path.
#[derive(Clone, Debug)]
pub struct RealFftPlanBuilder {
    dims: Dims,
    buffer_elems: usize,
    p_d: usize,
    p_c: usize,
    adapt_to_host: bool,
}

impl RealFftPlanBuilder {
    /// Buffer half size for the *inner half-width complex* transform,
    /// in complex elements. 0 keeps the inner builder's default.
    pub fn buffer_elems(mut self, b: usize) -> Self {
        self.buffer_elems = b;
        self
    }

    pub fn threads(mut self, p_d: usize, p_c: usize) -> Self {
        self.p_d = p_d;
        self.p_c = p_c;
        self
    }

    /// Applies the graceful-degradation policy of
    /// [`crate::plan::FftPlanBuilder::adapt_to_host`] to both inner
    /// plans.
    pub fn adapt_to_host(mut self) -> Self {
        self.adapt_to_host = true;
        self
    }

    pub fn build(self) -> Result<RealFftPlan, PlanError> {
        let (inner, m) = match self.dims {
            Dims::Two { n, m } => (Dims::d2(n, m / 2), m),
            Dims::Three { k, n, m } => (Dims::d3(k, n, m / 2), m),
        };
        // The packing needs pairs: the innermost *real* dimension must
        // be an even power of two (the inner builder re-checks m/2 and
        // the μ constraint).
        if !bwfft_num::is_pow2(m) || m < 2 {
            return Err(PlanError::NotPow2("real innermost dimension", m));
        }
        let make = |dir: Direction| {
            let mut b = FftPlan::builder(inner)
                .direction(dir)
                .threads(self.p_d, self.p_c);
            if self.buffer_elems != 0 {
                b = b.buffer_elems(self.buffer_elems);
            }
            if self.adapt_to_host {
                b = b.adapt_to_host();
            }
            b.build()
        };
        Ok(RealFftPlan {
            dims: self.dims,
            fwd: make(Direction::Forward)?,
            inv: make(Direction::Inverse)?,
            tw: half_twiddles(m),
        })
    }
}

impl RealFftPlan {
    pub fn builder(dims: Dims) -> RealFftPlanBuilder {
        RealFftPlanBuilder {
            dims,
            buffer_elems: 0,
            p_d: 1,
            p_c: 1,
            adapt_to_host: false,
        }
    }

    /// Real-space dimensions.
    pub fn dims(&self) -> Dims {
        self.dims
    }

    /// Real elements of the transform (`N`).
    pub fn real_elems(&self) -> usize {
        self.dims.total()
    }

    /// Complex elements of the half-width arrays (`N/2`) — the length
    /// the caller's `work` buffer must have.
    pub fn packed_elems(&self) -> usize {
        self.dims.total() / 2
    }

    /// Rows of the packed spectrum (product of the leading dims).
    pub fn rows(&self) -> usize {
        let m = self.inner_m() * 2;
        self.dims.total() / m
    }

    /// Complex bins per packed-spectrum row (`m/2 + 1`).
    pub fn half_cols(&self) -> usize {
        self.inner_m() + 1
    }

    /// Total complex elements of the packed spectrum
    /// (`rows · (m/2 + 1)`).
    pub fn spectrum_elems(&self) -> usize {
        self.rows() * self.half_cols()
    }

    fn inner_m(&self) -> usize {
        match self.fwd.dims {
            Dims::Two { m, .. } | Dims::Three { m, .. } => m,
        }
    }

    fn check_real(&self, x: &[f64], what: &'static str) -> Result<(), CoreError> {
        if x.len() != self.real_elems() {
            return Err(CoreError::InputLength {
                what,
                expected: self.real_elems(),
                got: x.len(),
            });
        }
        Ok(())
    }

    fn check_spectrum(&self, s: &[Complex64], what: &'static str) -> Result<(), CoreError> {
        if s.len() != self.spectrum_elems() {
            return Err(CoreError::InputLength {
                what,
                expected: self.spectrum_elems(),
                got: s.len(),
            });
        }
        Ok(())
    }

    /// Forward real-to-complex transform: real `x` → packed
    /// conjugate-even spectrum `out` ([`spectrum_elems`](Self::spectrum_elems)
    /// bins). `run` is the caller's complex transform of the half-width
    /// array ([`packed_elems`](Self::packed_elems) elements) — the call
    /// names the executor, e.g. `|p, z| execute_with(p, z, &mut work,
    /// &cfg)`, `|p, z| sup.run(p, z, &mut work, &cfg)` or plain
    /// [`execute_reference`] — and its result is returned. With
    /// `verify_energy` armed an outer guard re-checks Parseval over the
    /// packed half-spectrum (interior bins weighted ×2 for their
    /// unstored mirrors).
    pub fn r2c<R>(
        &self,
        x: &[f64],
        out: &mut [Complex64],
        verify_energy: bool,
        run: impl FnOnce(&FftPlan, &mut [Complex64]) -> Result<R, CoreError>,
    ) -> Result<R, CoreError> {
        self.check_real(x, "real input")?;
        self.check_spectrum(out, "packed spectrum")?;
        let energy_in = verify_energy.then(|| real_energy(x));
        let mut z: Vec<Complex64> = try_vec_zeroed(self.packed_elems(), "real fold buffer")?;
        fold_real(x, &mut z);
        let report = run(&self.fwd, &mut z)?;
        let rows = self.rows();
        split_merge_forward(&z, &self.tw, rows, |s| mirror_row(self.fwd.dims, s), out);
        if let Some(e_in) = energy_in {
            verify_packed_parseval(self.real_elems(), e_in, packed_spectrum_energy(out, rows))?;
        }
        Ok(report)
    }

    /// Inverse complex-to-real transform, unnormalized (`c2r(r2c(x)) =
    /// N·x`; see [`normalize`]). `verify_energy` and `run` as for
    /// [`r2c`](Self::r2c).
    pub fn c2r<R>(
        &self,
        spec: &[Complex64],
        out: &mut [f64],
        verify_energy: bool,
        run: impl FnOnce(&FftPlan, &mut [Complex64]) -> Result<R, CoreError>,
    ) -> Result<R, CoreError> {
        self.check_spectrum(spec, "packed spectrum")?;
        self.check_real(out, "real output")?;
        let energy_in = verify_energy.then(|| packed_spectrum_energy(spec, self.rows()));
        let mut z: Vec<Complex64> = try_vec_zeroed(self.packed_elems(), "real merge buffer")?;
        let rows = self.rows();
        merge_split_inverse(spec, &self.tw, rows, |s| mirror_row(self.inv.dims, s), &mut z);
        let report = run(&self.inv, &mut z)?;
        unfold_real(&z, 1.0, out);
        if let Some(e_in) = energy_in {
            verify_packed_parseval(self.real_elems(), e_in, real_energy(out))?;
        }
        Ok(report)
    }
}

/// Scales a c2r output by `1/N`, completing the normalized inverse
/// (the real-side analogue of [`crate::exec_real::normalize`]).
pub fn normalize(out: &mut [f64]) {
    let s = 1.0 / out.len() as f64;
    for v in out.iter_mut() {
        *v *= s;
    }
}

fn real_energy(x: &[f64]) -> f64 {
    x.iter().map(|v| v * v).sum()
}

/// Packed-half-spectrum Parseval guard, same tolerance shape as the
/// complex executors' energy check: `N·E_in` vs the packed spectrum
/// energy (forward) or the packed energy vs the output's (inverse).
fn verify_packed_parseval(n: usize, energy_in: f64, got: f64) -> Result<(), CoreError> {
    let expected = n as f64 * energy_in;
    if (got - expected).abs() > 1e-6 * expected.abs() + 1e-12 {
        return Err(CoreError::Integrity {
            stage: 0,
            block: 0,
            kind: IntegrityKind::Energy,
        });
    }
    Ok(())
}

/// A planned, fused spectral convolution against a fixed real kernel:
/// `r2c → pointwise multiply fused into the spectrum merge → c2r`,
/// with the packed product spectrum never materialized and the `1/N`
/// normalization pre-folded into the kernel spectrum, so
/// [`convolve`](Self::convolve) computes the exact circular
/// convolution in place.
#[derive(Clone, Debug)]
pub struct SpectralConvPlan {
    plan: RealFftPlan,
    hspec: Vec<Complex64>,
}

impl SpectralConvPlan {
    /// Plans the convolution: the kernel's packed spectrum is computed
    /// once (through the reference tier — planning-time work) and
    /// reused by every run.
    pub fn new(plan: RealFftPlan, kernel: &[f64]) -> Result<Self, CoreError> {
        let mut hspec: Vec<Complex64> =
            try_vec_zeroed(plan.spectrum_elems(), "kernel spectrum")?;
        plan.r2c(kernel, &mut hspec, false, execute_reference)?;
        let s = 1.0 / plan.real_elems() as f64;
        for v in hspec.iter_mut() {
            *v = v.scale(s);
        }
        Ok(Self { plan, hspec })
    }

    pub fn plan(&self) -> &RealFftPlan {
        &self.plan
    }

    /// Circularly convolves `x` with the planned kernel, in place.
    /// `run` is the caller's complex transform, called once per leg
    /// (forward, then inverse) on the half-width array
    /// ([`RealFftPlan::packed_elems`] elements); both legs' results are
    /// returned.
    pub fn convolve<R>(
        &self,
        x: &mut [f64],
        mut run: impl FnMut(&FftPlan, &mut [Complex64]) -> Result<R, CoreError>,
    ) -> Result<(R, R), CoreError> {
        let plan = &self.plan;
        plan.check_real(x, "real input")?;
        let mut z: Vec<Complex64> = try_vec_zeroed(plan.packed_elems(), "conv fold buffer")?;
        fold_real(x, &mut z);
        let fwd_report = run(&plan.fwd, &mut z)?;
        let rows = plan.rows();
        fused_multiply_merge(&mut z, &self.hspec, &plan.tw, rows, |s| {
            mirror_row(plan.fwd.dims, s)
        });
        let inv_report = run(&plan.inv, &mut z)?;
        unfold_real(&z, 1.0, x);
        Ok((fwd_report, inv_report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec_real::{execute, execute_with, ExecConfig};
    use crate::supervisor::Supervisor;
    use bwfft_kernels::reference::{dft2_naive, dft3_naive};
    use bwfft_num::signal::SplitMix64;
    use bwfft_pipeline::{FaultPlan, IntegrityConfig, Role};

    fn random_real(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = SplitMix64::new(seed);
        (0..n).map(|_| rng.next_f64() * 2.0 - 1.0).collect()
    }

    fn plan_2d(n: usize, m: usize) -> RealFftPlan {
        // Inner complex problem is n × m/2; buffer must divide it and
        // hold the widest pencil (n·μ).
        let b = (n * m / 4).max(n * 4).max(m / 2);
        RealFftPlan::builder(Dims::d2(n, m))
            .buffer_elems(b)
            .threads(2, 2)
            .build()
            .expect("2D real plan")
    }

    /// Packed spectrum of the naive full complex DFT, for comparison.
    fn oracle_2d(x: &[f64], n: usize, m: usize) -> Vec<Complex64> {
        let cx: Vec<Complex64> = x.iter().map(|&v| Complex64::new(v, 0.0)).collect();
        let full = dft2_naive(&cx, n, m, Direction::Forward);
        let mut packed = Vec::with_capacity(n * (m / 2 + 1));
        for s in 0..n {
            packed.extend_from_slice(&full[s * m..s * m + m / 2 + 1]);
        }
        packed
    }

    #[test]
    fn r2c_2d_matches_naive_oracle_all_tiers() {
        let (n, m) = (16usize, 32);
        let x = random_real(n * m, 200);
        let plan = plan_2d(n, m);
        let want = oracle_2d(&x, n, m);

        let mut work = vec![Complex64::ZERO; plan.packed_elems()];
        let mut got = vec![Complex64::ZERO; plan.spectrum_elems()];
        plan.r2c(&x, &mut got, false, |p, z| execute(p, z, &mut work))
            .expect("pipelined r2c");
        for (k, (g, w)) in got.iter().zip(&want).enumerate() {
            assert!((*g - *w).abs() < 1e-9, "pipelined bin {k}");
        }

        let mut got_ref = vec![Complex64::ZERO; plan.spectrum_elems()];
        plan.r2c(&x, &mut got_ref, false, execute_reference)
            .expect("reference r2c");
        for (g, w) in got_ref.iter().zip(&want) {
            assert!((*g - *w).abs() < 1e-9);
        }
    }

    #[test]
    fn r2c_3d_matches_naive_oracle() {
        let (k, n, m) = (4usize, 8, 16);
        let x = random_real(k * n * m, 201);
        let plan = RealFftPlan::builder(Dims::d3(k, n, m))
            .buffer_elems(64)
            .threads(2, 2)
            .build()
            .expect("3D real plan");
        let cx: Vec<Complex64> = x.iter().map(|&v| Complex64::new(v, 0.0)).collect();
        let full = dft3_naive(&cx, k, n, m, Direction::Forward);
        let mut work = vec![Complex64::ZERO; plan.packed_elems()];
        let mut got = vec![Complex64::ZERO; plan.spectrum_elems()];
        plan.r2c(&x, &mut got, false, |p, z| execute(p, z, &mut work))
            .expect("3D r2c");
        let hp = m / 2 + 1;
        for s in 0..k * n {
            for kf in 0..hp {
                let want = full[s * m + kf];
                let g = got[s * hp + kf];
                assert!((g - want).abs() < 1e-9, "row {s} bin {kf}");
            }
        }
    }

    #[test]
    fn c2r_roundtrips_times_n_and_normalize() {
        let (n, m) = (8usize, 16);
        let x = random_real(n * m, 202);
        let plan = plan_2d(n, m);
        let mut work = vec![Complex64::ZERO; plan.packed_elems()];
        let mut spec = vec![Complex64::ZERO; plan.spectrum_elems()];
        plan.r2c(&x, &mut spec, false, |p, z| execute(p, z, &mut work))
            .expect("r2c");
        let mut back = vec![0.0; n * m];
        plan.c2r(&spec, &mut back, false, |p, z| execute(p, z, &mut work))
            .expect("c2r");
        let nn = (n * m) as f64;
        for (b, v) in back.iter().zip(&x) {
            assert!((b - v * nn).abs() < 1e-8 * nn);
        }
        normalize(&mut back);
        for (b, v) in back.iter().zip(&x) {
            assert!((b - v).abs() < 1e-10);
        }
    }

    #[test]
    fn supervised_r2c_recovers_from_injected_fault() {
        let (n, m) = (16usize, 32);
        let x = random_real(n * m, 203);
        let plan = plan_2d(n, m);
        let want = oracle_2d(&x, n, m);
        let cfg = ExecConfig {
            fault: Some(FaultPlan::panic_at(Role::Compute, 0, 1)),
            integrity: IntegrityConfig::full(),
            verify_energy: true,
            ..ExecConfig::default()
        };
        bwfft_pipeline::fault::silence_injected_panic_reports();
        let sup = Supervisor::new(crate::supervisor::RetryPolicy::default());
        let mut work = vec![Complex64::ZERO; plan.packed_elems()];
        let mut got = vec![Complex64::ZERO; plan.spectrum_elems()];
        let report = plan
            .r2c(&x, &mut got, cfg.verify_energy, |p, z| {
                sup.run(p, z, &mut work, &cfg)
            })
            .expect("supervised r2c");
        assert!(report.recovered(), "fault should have forced recovery");
        for (g, w) in got.iter().zip(&want) {
            assert!((*g - *w).abs() < 1e-9);
        }
    }

    #[test]
    fn packed_parseval_guard_trips_on_corruption() {
        let (n, m) = (8usize, 16);
        let x = random_real(n * m, 204);
        let plan = plan_2d(n, m);
        let mut work = vec![Complex64::ZERO; plan.packed_elems()];
        let mut spec = vec![Complex64::ZERO; plan.spectrum_elems()];
        plan.r2c(&x, &mut spec, false, |p, z| execute(p, z, &mut work))
            .expect("r2c");
        // A real signal's DC bin is purely real; an imaginary
        // component there is energy the merge pass projects away, so
        // the packed-energy bookkeeping no longer balances and the
        // guard must fire.
        spec[0] += Complex64::new(0.0, 50.0);
        let cfg = ExecConfig {
            verify_energy: true,
            ..ExecConfig::default()
        };
        let mut back = vec![0.0; n * m];
        let err = plan
            .c2r(&spec, &mut back, cfg.verify_energy, |p, z| {
                execute_with(p, z, &mut work, &cfg)
            })
            .expect_err("corrupted spectrum must trip the energy guard");
        assert_eq!(err.integrity_kind(), Some(IntegrityKind::Energy));
    }

    #[test]
    fn fused_conv_matches_direct_oracle_2d() {
        let (n, m) = (8usize, 16);
        let nn = n * m;
        let x = random_real(nn, 205);
        let g = random_real(nn, 206);
        let plan = plan_2d(n, m);
        let conv = SpectralConvPlan::new(plan, &g).expect("conv plan");
        let mut got = x.clone();
        let mut work = vec![Complex64::ZERO; conv.plan().packed_elems()];
        conv.convolve(&mut got, |p, z| execute(p, z, &mut work))
            .expect("fused conv");

        // Direct 2D circular convolution.
        let mut want = vec![0.0; nn];
        for r in 0..n {
            for c in 0..m {
                let mut acc = 0.0;
                for a in 0..n {
                    for b in 0..m {
                        acc += x[a * m + b] * g[((n + r - a) % n) * m + (m + c - b) % m];
                    }
                }
                want[r * m + c] = acc;
            }
        }
        for (a, b) in got.iter().zip(&want) {
            assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
    }

    #[test]
    fn supervised_conv_survives_midstage_fault() {
        let (n, m) = (8usize, 16);
        let nn = n * m;
        let x = random_real(nn, 207);
        let mut delta = vec![0.0; nn];
        delta[0] = 1.0;
        let plan = plan_2d(n, m);
        let conv = SpectralConvPlan::new(plan, &delta).expect("conv plan");
        let cfg = ExecConfig {
            fault: Some(FaultPlan::panic_at(Role::Data, 0, 1)),
            integrity: IntegrityConfig::full(),
            verify_energy: true,
            ..ExecConfig::default()
        };
        bwfft_pipeline::fault::silence_injected_panic_reports();
        let sup = Supervisor::new(crate::supervisor::RetryPolicy::default());
        let mut got = x.clone();
        let mut work = vec![Complex64::ZERO; conv.plan().packed_elems()];
        let (fwd, inv) = conv
            .convolve(&mut got, |p, z| sup.run(p, z, &mut work, &cfg))
            .expect("supervised conv");
        assert!(fwd.recovered() || inv.recovered());
        assert!(fwd.attempts + inv.attempts > 2);
        // conv(x, δ) == x even after recovery.
        for (a, b) in got.iter().zip(&x) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn mirror_row_is_an_involution() {
        for dims in [Dims::d2(8, 16), Dims::d3(4, 8, 16)] {
            let rows = dims.total()
                / match dims {
                    Dims::Two { m, .. } | Dims::Three { m, .. } => m,
                };
            for s in 0..rows {
                let ms = mirror_row(dims, s);
                assert!(ms < rows);
                assert_eq!(mirror_row(dims, ms), s, "dims {dims:?} row {s}");
            }
        }
    }

    #[test]
    fn length_mismatches_are_typed() {
        let plan = plan_2d(8, 16);
        let mut work = vec![Complex64::ZERO; plan.packed_elems()];
        let mut out = vec![Complex64::ZERO; plan.spectrum_elems()];
        let short = vec![0.0; 17];
        let err = plan
            .r2c(&short, &mut out, false, |p, z| execute(p, z, &mut work))
            .expect_err("short input");
        assert!(matches!(err, CoreError::InputLength { .. }));
        let mut short_out = vec![Complex64::ZERO; 3];
        let x = vec![0.0; plan.real_elems()];
        let err = plan
            .r2c(&x, &mut short_out, false, |p, z| execute(p, z, &mut work))
            .expect_err("short out");
        assert!(matches!(err, CoreError::InputLength { .. }));
    }

    #[test]
    fn builder_rejects_odd_innermost() {
        let err = RealFftPlan::builder(Dims::d2(8, 12)).build().expect_err("non-pow2 m");
        assert!(matches!(err, PlanError::NotPow2(..)));
    }
}
