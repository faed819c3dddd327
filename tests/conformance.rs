//! Golden-vector conformance suite: every 1D kernel against the
//! naive `O(n²)` reference DFT, on analytically-known inputs plus
//! random vectors, across 1D/2D/3D shapes and both directions.
//!
//! ## Accuracy contract (documented ULP bound)
//!
//! Errors are reported in *ULPs of the largest reference magnitude*:
//! `max_i |got_i − ref_i| / ulp(max_j |ref_j|)`. This normalizes away
//! the unnormalized transform's `O(n)` output growth and makes one
//! bound meaningful across sizes:
//!
//! * the power-of-two kernel (radix-2 Stockham):
//!   observed worst case stays below ~64 ULP for `n ≤ 4096`; the
//!   contract is [`POW2_ULP_BOUND`] = 512 ULP (≈8× headroom).
//! * Bluestein embeds `DFT_n` in a length-`M ≥ 2n−1` cyclic
//!   convolution — three FFTs deep with chirp twiddles at arbitrary
//!   angles — so its error floor is intrinsically higher; the contract
//!   is [`BLUESTEIN_ULP_BOUND`] = 16384 ULP, which is still ~1e-12
//!   relative at these sizes.
//!
//! The multidimensional checks compare the full plan pipeline (blocked
//! reshapes, double buffer, threaded executor) against `dft2_naive` /
//! `dft3_naive`, under the same power-of-two bound.

use bwfft::core::exec_real::{self, ExecConfig};
use bwfft::core::{execute_reference, Dims, FftPlan, Supervisor};
use bwfft::kernels::batch::BatchFft;
use bwfft::kernels::bluestein::{AnyFft, Bluestein};
use bwfft::kernels::reference::{dft2_naive, dft3_naive, dft_naive};
use bwfft::kernels::Direction;
use bwfft::num::signal::{complex_tone, impulse, random_complex};
use bwfft::num::Complex64;

/// Accuracy contract for the power-of-two kernels, in ULPs of the
/// largest reference magnitude.
const POW2_ULP_BOUND: f64 = 512.0;
/// Accuracy contract for Bluestein's algorithm (see module docs).
const BLUESTEIN_ULP_BOUND: f64 = 16384.0;

/// Spacing between `x` and the next representable f64 above it.
fn ulp_of(x: f64) -> f64 {
    assert!(x.is_finite() && x > 0.0, "ulp_of needs a positive scale");
    f64::from_bits(x.to_bits() + 1) - x
}

/// Max elementwise error in ULPs of the largest reference magnitude.
fn ulp_error(got: &[Complex64], reference: &[Complex64]) -> f64 {
    assert_eq!(got.len(), reference.len());
    let scale = reference
        .iter()
        .map(|c| c.abs())
        .fold(f64::MIN_POSITIVE, f64::max);
    let ulp = ulp_of(scale);
    got.iter()
        .zip(reference)
        .map(|(g, r)| (*g - *r).abs() / ulp)
        .fold(0.0, f64::max)
}

fn assert_ulp_close(got: &[Complex64], reference: &[Complex64], bound: f64, what: &str) {
    let err = ulp_error(got, reference);
    assert!(err <= bound, "{what}: {err:.1} ULP exceeds the {bound} ULP contract");
}

/// The golden input set: impulses (DFT is a pure tone), the constant
/// vector (DFT is `n·δ_0`), single-bin tones (DFT is `n·δ_f`), and a
/// seeded random vector.
fn golden_inputs(n: usize, seed: u64) -> Vec<(String, Vec<Complex64>)> {
    let mut inputs = vec![
        ("impulse@0".to_string(), impulse(n, 0)),
        (format!("impulse@{}", n / 3), impulse(n, n / 3)),
        ("constant".to_string(), vec![Complex64::new(1.0, 0.0); n]),
        ("tone@1".to_string(), complex_tone(n, 1)),
        ("random".to_string(), random_complex(n, seed)),
    ];
    if n > 4 {
        inputs.push((format!("tone@{}", n / 2 + 1), complex_tone(n, n / 2 + 1)));
    }
    inputs
}

/// Every 1D kernel in the workspace, applied to a copy of `x`.
fn kernel_outputs(x: &[Complex64], dir: Direction) -> Vec<(String, Vec<Complex64>, f64)> {
    let n = x.len();
    let mut out = Vec::new();
    if n.is_power_of_two() {
        let mut buf = x.to_vec();
        BatchFft::new(n, 1, dir).run(&mut buf);
        out.push(("stockham".to_string(), buf, POW2_ULP_BOUND));
    }
    let mut buf = x.to_vec();
    Bluestein::new(n, dir).run(&mut buf);
    out.push(("bluestein".to_string(), buf, BLUESTEIN_ULP_BOUND));
    let mut buf = x.to_vec();
    AnyFft::new(n, dir).run(&mut buf);
    // AnyFft dispatches to a pow-2 kernel or Bluestein by size.
    let anyfft_bound = if n.is_power_of_two() { POW2_ULP_BOUND } else { BLUESTEIN_ULP_BOUND };
    out.push(("anyfft".to_string(), buf, anyfft_bound));
    out
}

#[test]
fn golden_vectors_1d_every_kernel_both_directions() {
    for n in [4usize, 8, 16, 64, 256] {
        for dir in [Direction::Forward, Direction::Inverse] {
            for (input_name, x) in golden_inputs(n, 7001 + n as u64) {
                let reference = dft_naive(&x, dir);
                for (kernel, got, bound) in kernel_outputs(&x, dir) {
                    assert_ulp_close(
                        &got,
                        &reference,
                        bound,
                        &format!("{kernel} n={n} {dir:?} on {input_name}"),
                    );
                }
            }
        }
    }
}

#[test]
fn golden_vectors_1d_bluestein_non_pow2() {
    // Prime, odd-composite, even-composite and largish sizes, where
    // only Bluestein (and AnyFft's dispatch to it) applies.
    for n in [3usize, 5, 12, 17, 30, 100] {
        for dir in [Direction::Forward, Direction::Inverse] {
            for (input_name, x) in golden_inputs(n, 7100 + n as u64) {
                let reference = dft_naive(&x, dir);
                for (kernel, got, bound) in kernel_outputs(&x, dir) {
                    assert_ulp_close(
                        &got,
                        &reference,
                        bound,
                        &format!("{kernel} n={n} {dir:?} on {input_name}"),
                    );
                }
            }
        }
    }
}

#[test]
fn batched_strided_kernels_match_per_pencil_reference() {
    // The executor's actual workhorse form `I_c ⊗ DFT_m ⊗ I_s`:
    // element (c, j, lane) lives at (c·m + j)·s + lane, and every
    // (c, lane) pencil must independently equal the naive DFT.
    let (m, s, c) = (16usize, 4, 3);
    let x = random_complex(c * m * s, 7200);
    for dir in [Direction::Forward, Direction::Inverse] {
        let mut buf = x.clone();
        BatchFft::new(m, s, dir).run(&mut buf);
        for ci in 0..c {
            for lane in 0..s {
                let gather = |src: &[Complex64]| -> Vec<Complex64> {
                    (0..m).map(|j| src[(ci * m + j) * s + lane]).collect()
                };
                let reference = dft_naive(&gather(&x), dir);
                assert_ulp_close(
                    &gather(&buf),
                    &reference,
                    POW2_ULP_BOUND,
                    &format!("batch @(c={ci},lane={lane}) {dir:?}"),
                );
            }
        }
    }
}

#[allow(clippy::unwrap_used)] // test helper; only #[test] fns get the blanket allowance
fn run_plan(dims: Dims, dir: Direction, x: &[Complex64]) -> Vec<Complex64> {
    let plan = FftPlan::builder(dims)
        .buffer_elems(128)
        .threads(2, 2)
        .direction(dir)
        .build()
        .unwrap();
    let mut data = x.to_vec();
    let mut work = vec![Complex64::ZERO; x.len()];
    exec_real::execute(&plan, &mut data, &mut work).unwrap();
    data
}

#[test]
fn golden_vectors_2d_both_directions() {
    let (n, m) = (16usize, 32);
    for dir in [Direction::Forward, Direction::Inverse] {
        for (input_name, x) in golden_inputs(n * m, 7300) {
            let reference = dft2_naive(&x, n, m, dir);
            let got = run_plan(Dims::d2(n, m), dir, &x);
            assert_ulp_close(
                &got,
                &reference,
                POW2_ULP_BOUND,
                &format!("2D {n}x{m} {dir:?} on {input_name}"),
            );
        }
    }
}

#[test]
fn golden_vectors_3d_both_directions() {
    let (k, n, m) = (8usize, 8, 16);
    for dir in [Direction::Forward, Direction::Inverse] {
        for (input_name, x) in golden_inputs(k * n * m, 7400) {
            let reference = dft3_naive(&x, k, n, m, dir);
            let got = run_plan(Dims::d3(k, n, m), dir, &x);
            assert_ulp_close(
                &got,
                &reference,
                POW2_ULP_BOUND,
                &format!("3D {k}x{n}x{m} {dir:?} on {input_name}"),
            );
        }
    }
}

#[test]
fn linearity_invariant_every_kernel() {
    // F(a·x + b·y) = a·F(x) + b·F(y), checked kernel-against-itself
    // (no oracle involved), with complex scalars off the axes.
    let n = 64usize;
    let (a, b) = (Complex64::new(0.7, -1.3), Complex64::new(-0.4, 0.9));
    let x = random_complex(n, 7500);
    let y = random_complex(n, 7501);
    let combo: Vec<Complex64> = x.iter().zip(&y).map(|(xi, yi)| *xi * a + *yi * b).collect();
    for dir in [Direction::Forward, Direction::Inverse] {
        let outputs = kernel_outputs(&combo, dir);
        let fx = kernel_outputs(&x, dir);
        let fy = kernel_outputs(&y, dir);
        for (i, (kernel, got, bound)) in outputs.iter().enumerate() {
            let expect: Vec<Complex64> = fx[i]
                .1
                .iter()
                .zip(&fy[i].1)
                .map(|(fxi, fyi)| *fxi * a + *fyi * b)
                .collect();
            assert_ulp_close(got, &expect, *bound, &format!("linearity {kernel} {dir:?}"));
        }
    }
}

#[test]
fn parseval_invariant_every_kernel() {
    // Unnormalized forward transform: Σ|X|² = n·Σ|x|².
    let n = 128usize;
    let x = random_complex(n, 7600);
    let time_energy: f64 = x.iter().map(|c| c.norm_sqr()).sum();
    for (kernel, spectrum, _) in kernel_outputs(&x, Direction::Forward) {
        let freq_energy: f64 = spectrum.iter().map(|c| c.norm_sqr()).sum();
        let rel = (freq_energy - n as f64 * time_energy).abs() / (n as f64 * time_energy);
        assert!(rel < 1e-12, "Parseval violated by {kernel}: rel err {rel:.2e}");
    }
}

#[test]
fn forward_inverse_roundtrip_every_kernel() {
    // inverse(forward(x)) = n·x for every kernel (both unnormalized).
    let n = 32usize;
    let x = random_complex(n, 7700);
    let forwards = kernel_outputs(&x, Direction::Forward);
    for (kernel, fwd, bound) in forwards {
        for (kernel_inv, roundtrip, bound_inv) in kernel_outputs(&fwd, Direction::Inverse) {
            let expect: Vec<Complex64> = x.iter().map(|c| *c * n as f64).collect();
            assert_ulp_close(
                &roundtrip,
                &expect,
                bound.max(bound_inv),
                &format!("roundtrip {kernel} → {kernel_inv}"),
            );
        }
    }
}

#[test]
fn parseval_invariant_2d_plan() {
    let (n, m) = (32usize, 16);
    let x = random_complex(n * m, 7800);
    let time_energy: f64 = x.iter().map(|c| c.norm_sqr()).sum();
    let spectrum = run_plan(Dims::d2(n, m), Direction::Forward, &x);
    let freq_energy: f64 = spectrum.iter().map(|c| c.norm_sqr()).sum();
    let total = (n * m) as f64;
    let rel = (freq_energy - total * time_energy).abs() / (total * time_energy);
    assert!(rel < 1e-12, "2D Parseval violated, rel {rel:.2e}");
}

// ---------------------------------------------------------------------------
// Real-input (r2c/c2r) differential conformance — DESIGN.md §13.
//
// Contract: for every size in the golden grid, the packed r2c output
// matches the full complex FFT of the same (complexified) real input
// restricted to bins `0..=n/2`, under the same [`POW2_ULP_BOUND`]; the
// unnormalized c2r inverts it (`c2r(r2c(x)) = n·x`). The split-merge
// pass adds one complex multiply-add per bin on top of the half-length
// transform, so it inherits the power-of-two bound with no slack of
// its own.
// ---------------------------------------------------------------------------

use bwfft::num::signal::SplitMix64;
use bwfft::real::{RealFft1d, RealFftPlan};

/// Real-valued golden inputs mirroring [`golden_inputs`]: impulses,
/// the constant field, a cosine tone, and a seeded random field.
fn golden_real_inputs(n: usize, seed: u64) -> Vec<(String, Vec<f64>)> {
    let mut imp = vec![0.0; n];
    imp[0] = 1.0;
    let mut inputs = vec![
        ("impulse@0".to_string(), imp),
        ("constant".to_string(), vec![1.0; n]),
    ];
    if n > 2 {
        let mut shifted = vec![0.0; n];
        shifted[n / 3] = 1.0;
        inputs.push((format!("impulse@{}", n / 3), shifted));
        let tone: Vec<f64> = (0..n)
            .map(|j| (2.0 * std::f64::consts::PI * j as f64 / n as f64).cos())
            .collect();
        inputs.push(("cos-tone@1".to_string(), tone));
    }
    let mut rng = SplitMix64::new(seed);
    inputs.push((
        "random".to_string(),
        (0..n).map(|_| rng.next_f64() * 2.0 - 1.0).collect(),
    ));
    inputs
}

fn complexify(x: &[f64]) -> Vec<Complex64> {
    x.iter().map(|&v| Complex64::new(v, 0.0)).collect()
}

#[test]
fn r2c_matches_complex_fft_half_spectrum_golden_grid() {
    for n in [2usize, 4, 8, 16, 64, 256, 1024] {
        for (input_name, x) in golden_real_inputs(n, 7900 + n as u64) {
            let full = dft_naive(&complexify(&x), Direction::Forward);
            let reference: Vec<Complex64> = full[..=n / 2].to_vec();
            let mut plan = RealFft1d::new(n);
            let mut got = vec![Complex64::ZERO; plan.packed_len()];
            plan.r2c(&x, &mut got);
            assert_ulp_close(
                &got,
                &reference,
                POW2_ULP_BOUND,
                &format!("r2c n={n} on {input_name}"),
            );
        }
    }
}

#[test]
fn c2r_inverts_r2c_golden_grid() {
    for n in [2usize, 4, 8, 16, 64, 256, 1024] {
        for (input_name, x) in golden_real_inputs(n, 8000 + n as u64) {
            let mut plan = RealFft1d::new(n);
            let mut spec = vec![Complex64::ZERO; plan.packed_len()];
            let mut back = vec![0.0; n];
            plan.r2c(&x, &mut spec);
            plan.c2r(&spec, &mut back);
            let expect: Vec<Complex64> =
                x.iter().map(|&v| Complex64::new(v * n as f64, 0.0)).collect();
            assert_ulp_close(
                &complexify(&back),
                &expect,
                POW2_ULP_BOUND,
                &format!("c2r∘r2c n={n} on {input_name}"),
            );
        }
    }
}

/// r2c through every complex runner the real entry takes — the
/// pipelined executor, the fused one and the supervised ladder. They
/// share the kernel, so the packed spectra must agree bitwise; returns
/// the pipelined one.
#[allow(clippy::unwrap_used)] // test helper; only #[test] fns get the blanket allowance
fn r2c_every_runner(plan: &RealFftPlan, x: &[f64]) -> Vec<Complex64> {
    let cfg = ExecConfig::default();
    let sup = Supervisor::default();
    let mut work = vec![Complex64::ZERO; plan.packed_elems()];
    let mut pipelined = vec![Complex64::ZERO; plan.spectrum_elems()];
    let mut fused = pipelined.clone();
    let mut supervised = pipelined.clone();
    plan.r2c(x, &mut pipelined, false, |p, z| {
        exec_real::execute_with(p, z, &mut work, &cfg)
    })
    .unwrap();
    plan.r2c(x, &mut fused, false, |p, z| {
        exec_real::execute_fused(p, z, &mut work)
    })
    .unwrap();
    plan.r2c(x, &mut supervised, false, |p, z| {
        sup.run(p, z, &mut work, &cfg)
    })
    .unwrap();
    assert_eq!(pipelined, fused, "r2c pipelined vs fused");
    assert_eq!(pipelined, supervised, "r2c pipelined vs supervised");
    pipelined
}

/// c2r counterpart of [`r2c_every_runner`].
#[allow(clippy::unwrap_used)] // test helper; only #[test] fns get the blanket allowance
fn c2r_every_runner(plan: &RealFftPlan, spec: &[Complex64]) -> Vec<f64> {
    let cfg = ExecConfig::default();
    let sup = Supervisor::default();
    let mut work = vec![Complex64::ZERO; plan.packed_elems()];
    let mut pipelined = vec![0.0; plan.real_elems()];
    let mut fused = pipelined.clone();
    let mut supervised = pipelined.clone();
    plan.c2r(spec, &mut pipelined, false, |p, z| {
        exec_real::execute_with(p, z, &mut work, &cfg)
    })
    .unwrap();
    plan.c2r(spec, &mut fused, false, |p, z| {
        exec_real::execute_fused(p, z, &mut work)
    })
    .unwrap();
    plan.c2r(spec, &mut supervised, false, |p, z| {
        sup.run(p, z, &mut work, &cfg)
    })
    .unwrap();
    assert_eq!(pipelined, fused, "c2r pipelined vs fused");
    assert_eq!(pipelined, supervised, "c2r pipelined vs supervised");
    pipelined
}

/// The multidimensional packed layout: row `s`, packed column `kf`
/// holds the full complex FFT's bin `(s, kf)` for `kf ∈ 0..=m/2`.
#[test]
fn r2c_plan_matches_complex_fft_2d_both_tiers() {
    let (n, m) = (16usize, 32);
    let hp = m / 2 + 1;
    let plan = RealFftPlan::builder(Dims::d2(n, m))
        .threads(2, 2)
        .build()
        .unwrap();
    for (input_name, x) in golden_real_inputs(n * m, 8100) {
        let full = dft2_naive(&complexify(&x), n, m, Direction::Forward);
        let mut reference = vec![Complex64::ZERO; n * hp];
        for s in 0..n {
            reference[s * hp..(s + 1) * hp].copy_from_slice(&full[s * m..s * m + hp]);
        }
        let pipelined = r2c_every_runner(&plan, &x);
        assert_ulp_close(
            &pipelined,
            &reference,
            POW2_ULP_BOUND,
            &format!("2D r2c pipelined on {input_name}"),
        );
        let mut refout = vec![Complex64::ZERO; plan.spectrum_elems()];
        plan.r2c(&x, &mut refout, false, execute_reference).unwrap();
        assert_ulp_close(
            &refout,
            &reference,
            POW2_ULP_BOUND,
            &format!("2D r2c reference tier on {input_name}"),
        );
        // And the inverse recovers n·m·x through both tiers.
        let expect: Vec<Complex64> = x
            .iter()
            .map(|&v| Complex64::new(v * (n * m) as f64, 0.0))
            .collect();
        let mut back = c2r_every_runner(&plan, &pipelined);
        assert_ulp_close(
            &complexify(&back),
            &expect,
            POW2_ULP_BOUND,
            &format!("2D c2r pipelined on {input_name}"),
        );
        plan.c2r(&refout, &mut back, false, execute_reference)
            .unwrap();
        assert_ulp_close(
            &complexify(&back),
            &expect,
            POW2_ULP_BOUND,
            &format!("2D c2r reference tier on {input_name}"),
        );
    }
}

#[test]
fn r2c_plan_matches_complex_fft_3d_both_tiers() {
    let (k, n, m) = (8usize, 8, 16);
    let hp = m / 2 + 1;
    let plan = RealFftPlan::builder(Dims::d3(k, n, m))
        .threads(2, 2)
        .build()
        .unwrap();
    for (input_name, x) in golden_real_inputs(k * n * m, 8200) {
        let full = dft3_naive(&complexify(&x), k, n, m, Direction::Forward);
        let rows = k * n;
        let mut reference = vec![Complex64::ZERO; rows * hp];
        for s in 0..rows {
            reference[s * hp..(s + 1) * hp].copy_from_slice(&full[s * m..s * m + hp]);
        }
        let got = r2c_every_runner(&plan, &x);
        assert_ulp_close(
            &got,
            &reference,
            POW2_ULP_BOUND,
            &format!("3D r2c pipelined on {input_name}"),
        );
        let mut refout = vec![Complex64::ZERO; plan.spectrum_elems()];
        plan.r2c(&x, &mut refout, false, execute_reference).unwrap();
        assert_ulp_close(
            &refout,
            &reference,
            POW2_ULP_BOUND,
            &format!("3D r2c reference tier on {input_name}"),
        );
        let expect: Vec<Complex64> = x
            .iter()
            .map(|&v| Complex64::new(v * (k * n * m) as f64, 0.0))
            .collect();
        let back = c2r_every_runner(&plan, &got);
        assert_ulp_close(
            &complexify(&back),
            &expect,
            POW2_ULP_BOUND,
            &format!("3D c2r pipelined on {input_name}"),
        );
    }
}

// ---------------------------------------------------------------------------
// Four-step 1D conformance — DESIGN.md §3.5 and §12.
//
// Contract: the in-RAM four-step (`core::fft1d::execute`), the
// out-of-core tier's in-RAM form (`ooc::four_step_in_ram`) and its
// streamed `ooc::execute` match the naive DFT on the golden inputs, in
// both directions, under the same [`POW2_ULP_BOUND`]. On top of the
// batched kernels they apply the twiddle diagonal from the shared
// two-factor table: one extra complex multiply per twiddle.
// ---------------------------------------------------------------------------

use bwfft::core::fft1d::{self, Fft1dLargePlan};
use bwfft::ooc::plan::BYTES_PER_HALF_ELEM;
use bwfft::ooc::{OocConfig, OocStore, Workspace};

/// Every four-step form applied to `x`. Odd exponents split with more
/// rows than columns in `fft1d`, the table's carry path.
#[allow(clippy::unwrap_used)] // test helper; only #[test] fns get the blanket allowance
fn four_step_outputs(x: &[Complex64], dir: Direction) -> Vec<(&'static str, Vec<Complex64>)> {
    let n = x.len();
    let e = n.trailing_zeros() as usize;
    let (n1, n2) = (n >> (e / 2), 1usize << (e / 2));
    let mut data = x.to_vec();
    let mut work = vec![Complex64::ZERO; n];
    let plan = Fft1dLargePlan::new(n1, n2).direction(dir);
    fft1d::execute(&plan, &mut data, &mut work).unwrap();

    // A budget of one row per half: every stage streams many blocks.
    let cfg = OocConfig {
        dir,
        budget_bytes: n1 * BYTES_PER_HALF_ELEM,
        ..OocConfig::default()
    };
    let p = bwfft::ooc::plan(n, &cfg).unwrap();
    let ws = Workspace::create().unwrap();
    let input = OocStore::create(&ws.path("input.bin"), p.n1, p.n2, p.stride_cols_n2).unwrap();
    input.write_rows(0, x).unwrap();
    let output = OocStore::create(&ws.path("output.bin"), p.n2, p.n1, p.stride_cols_n1).unwrap();
    bwfft::ooc::execute(&p, &cfg, &ws, &input, &output).unwrap();
    let mut streamed = vec![Complex64::ZERO; n];
    output.read_rows(0, &mut streamed).unwrap();
    vec![
        ("fft1d", data),
        ("ooc-in-ram", bwfft::ooc::four_step_in_ram(&p, x)),
        ("ooc-streamed", streamed),
    ]
}

#[test]
fn golden_vectors_four_step_1d_both_directions() {
    for n in [1usize << 8, 1 << 10, 1 << 11, 1 << 12] {
        for dir in [Direction::Forward, Direction::Inverse] {
            for (input_name, x) in golden_inputs(n, 8300 + n as u64) {
                let reference = dft_naive(&x, dir);
                for (form, got) in four_step_outputs(&x, dir) {
                    assert_ulp_close(
                        &got,
                        &reference,
                        POW2_ULP_BOUND,
                        &format!("{form} n={n} {dir:?} on {input_name}"),
                    );
                }
            }
        }
    }
}
