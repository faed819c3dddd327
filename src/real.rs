//! Facade surface for real-input transforms (DESIGN.md §13).
//!
//! Re-exports the r2c/c2r plan layer of `bwfft-core` and the 1D /
//! batched kernels of `bwfft-kernels`, and hosts the spectral Poisson
//! solver the `poisson_solver` example and its lock-down test share:
//! a purely real field should ride the packed half-spectrum path, not
//! round-trip full complex data.

pub use bwfft_core::real::{
    mirror_row, normalize, RealFftPlan, RealFftPlanBuilder, SpectralConvPlan,
};
pub use bwfft_kernels::layout::{
    fold_real, packed_spectrum_len, unfold_real, unpack_half_spectrum,
};
pub use bwfft_kernels::realfft::{conv_direct, packed_spectrum_energy, RealFft1d, SpectralConv1d};

use bwfft_core::exec_real::execute;
use bwfft_core::{CoreError, Dims};
use bwfft_num::{try_vec_zeroed, Complex64};

/// Outcome of [`solve_poisson_3d`]: the manufactured-solution error
/// and the spectral residual, both sup-norm.
#[derive(Clone, Copy, Debug)]
pub struct PoissonReport {
    /// Grid points per axis.
    pub n: usize,
    /// `max |u − u_exact|` against the manufactured solution
    /// (amplitude 1). Pure FFT rounding: comfortably below `1e-10`
    /// for the grids the example uses.
    pub max_err: f64,
    /// `max |f + ∇²u|` with the Laplacian applied spectrally to the
    /// computed `u` — the discretization-free residual of the solve.
    /// `f` has amplitude `14·(2π)² ≈ 550`, so this sits below `1e-7`.
    pub max_residual: f64,
}

/// Solves `−∇²u = f` with periodic boundaries on an `n³` grid through
/// the r2c/c2r path: one real-to-complex transform of `f`, a pointwise
/// division by `(2π)²·|k|²` over the packed half-spectrum (`n²·(n/2+1)`
/// bins instead of `n³` — the real-path byte win), and one
/// complex-to-real transform back. `f` is manufactured from
/// `u = sin(2πx)·cos(4πy)·sin(6πz)` so the report can state the true
/// error, not just the residual.
///
/// `buffer_elems = 0` keeps the inner planner's default buffer.
pub fn solve_poisson_3d(
    n: usize,
    p_d: usize,
    p_c: usize,
    buffer_elems: usize,
) -> Result<PoissonReport, CoreError> {
    let tau = std::f64::consts::TAU;
    let plan = RealFftPlan::builder(Dims::d3(n, n, n))
        .buffer_elems(buffer_elems)
        .threads(p_d, p_c)
        .build()?;
    let total = plan.real_elems();
    let nf = n as f64;

    // Manufactured solution with wavenumbers (1, 2, 3):
    // −∇²u = (2π)²·(1² + 2² + 3²)·u = 14·(2π)²·u ≕ f.
    let lambda = 14.0 * tau * tau;
    let mut u_exact: Vec<f64> = try_vec_zeroed(total, "poisson exact field")?;
    for a in 0..n {
        let sa = (tau * a as f64 / nf).sin();
        for b in 0..n {
            let cb = (2.0 * tau * b as f64 / nf).cos();
            for c in 0..n {
                let sc = (3.0 * tau * c as f64 / nf).sin();
                u_exact[(a * n + b) * n + c] = sa * cb * sc;
            }
        }
    }
    let f: Vec<f64> = u_exact.iter().map(|&v| lambda * v).collect();

    let mut work: Vec<Complex64> = try_vec_zeroed(plan.packed_elems(), "poisson work")?;
    let mut spec: Vec<Complex64> = try_vec_zeroed(plan.spectrum_elems(), "poisson spectrum")?;
    plan.r2c(&f, &mut spec, false, |p, z| execute(p, z, &mut work))?;

    // û[k] = f̂[k] / ((2π)²·|k|²), DC pinned to zero (mean-free
    // gauge). Leading dims carry signed frequencies; the packed
    // innermost column index is already the non-negative frequency.
    let hp = plan.half_cols();
    let signed = |i: usize| -> f64 {
        if i <= n / 2 {
            i as f64
        } else {
            i as f64 - nf
        }
    };
    for a in 0..n {
        let fa = signed(a);
        for b in 0..n {
            let fb = signed(b);
            for kf in 0..hp {
                let k2 = fa * fa + fb * fb + (kf * kf) as f64;
                let bin = &mut spec[(a * n + b) * hp + kf];
                *bin = if k2 == 0.0 {
                    Complex64::ZERO
                } else {
                    bin.scale(1.0 / (tau * tau * k2))
                };
            }
        }
    }

    let mut u: Vec<f64> = try_vec_zeroed(total, "poisson solution")?;
    plan.c2r(&spec, &mut u, false, |p, z| execute(p, z, &mut work))?;
    normalize(&mut u);

    let max_err = u
        .iter()
        .zip(&u_exact)
        .map(|(g, w)| (g - w).abs())
        .fold(0.0, f64::max);

    // Residual check: apply the spectral Laplacian to the *computed*
    // u and compare against f.
    plan.r2c(&u, &mut spec, false, |p, z| execute(p, z, &mut work))?;
    for a in 0..n {
        let fa = signed(a);
        for b in 0..n {
            let fb = signed(b);
            for kf in 0..hp {
                let k2 = fa * fa + fb * fb + (kf * kf) as f64;
                let bin = &mut spec[(a * n + b) * hp + kf];
                *bin = bin.scale(tau * tau * k2);
            }
        }
    }
    let mut lap_u: Vec<f64> = try_vec_zeroed(total, "poisson residual")?;
    plan.c2r(&spec, &mut lap_u, false, |p, z| execute(p, z, &mut work))?;
    normalize(&mut lap_u);
    let max_residual = lap_u
        .iter()
        .zip(&f)
        .map(|(g, w)| (g - w).abs())
        .fold(0.0, f64::max);

    Ok(PoissonReport {
        n,
        max_err,
        max_residual,
    })
}
