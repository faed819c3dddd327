//! Oracle tests for the fused spectral convolution (DESIGN.md §13):
//! the fused `r2c → multiply-merge → c2r` pipeline against the direct
//! `O(n²)` circular convolution, the impulse identity, and a seeded
//! case pushed through the retry supervisor with an injected mid-stage
//! fault — recovery must preserve the convolution exactly.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use bwfft::core::exec_real::{execute, execute_fused, execute_with, ExecConfig};
use bwfft::core::{Dims, RetryPolicy, Supervisor};
use bwfft::num::signal::SplitMix64;
use bwfft::num::Complex64;
use bwfft::pipeline::{fault, AdaptiveWatchdog, FaultPlan, IntegrityConfig, Role};
use bwfft::real::{conv_direct, RealFftPlan, SpectralConv1d, SpectralConvPlan};
use std::time::Duration;

fn random_real(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed);
    (0..n).map(|_| rng.next_f64() * 2.0 - 1.0).collect()
}

/// Direct 2D circular convolution — the quadratic oracle.
fn conv_direct_2d(x: &[f64], g: &[f64], n: usize, m: usize) -> Vec<f64> {
    let mut out = vec![0.0; n * m];
    for a in 0..n {
        for b in 0..m {
            let mut acc = 0.0;
            for i in 0..n {
                for j in 0..m {
                    acc += x[i * m + j] * g[((n + a - i) % n) * m + (m + b - j) % m];
                }
            }
            out[a * m + b] = acc;
        }
    }
    out
}

#[test]
fn fused_conv_matches_direct_oracle_1d_small_sizes() {
    for n in [2usize, 4, 8, 16, 32, 64] {
        let x = random_real(n, 9000 + n as u64);
        let g = random_real(n, 9100 + n as u64);
        let want = conv_direct(&x, &g);
        let mut plan = SpectralConv1d::new(&g);
        let mut got = x.clone();
        plan.run(&mut got);
        let scale = want.iter().map(|v| v.abs()).fold(1.0, f64::max);
        for (a, b) in got.iter().zip(&want) {
            assert!(
                (a - b).abs() <= 1e-12 * scale * n as f64,
                "fused conv diverged from direct oracle at n={n}"
            );
        }
    }
}

#[test]
fn fused_conv_matches_direct_oracle_2d() {
    let (n, m) = (8usize, 16);
    let x = random_real(n * m, 9200);
    let g = random_real(n * m, 9201);
    let want = conv_direct_2d(&x, &g, n, m);
    let plan = RealFftPlan::builder(Dims::d2(n, m))
        .threads(2, 2)
        .build()
        .unwrap();
    let conv = SpectralConvPlan::new(plan, &g).unwrap();
    let mut got = x.clone();
    let mut work = vec![Complex64::ZERO; conv.plan().packed_elems()];
    conv.convolve(&mut got, |p, z| execute(p, z, &mut work))
        .unwrap();
    let scale = want.iter().map(|v| v.abs()).fold(1.0, f64::max);
    for (a, b) in got.iter().zip(&want) {
        assert!(
            (a - b).abs() <= 1e-10 * scale,
            "fused 2D conv diverged from direct oracle"
        );
    }
}

#[test]
fn convolve_is_bitwise_equal_across_runners() {
    // One entry, every complex runner: the pipelined executor, the
    // fused one and the supervised ladder share the kernel, so the
    // convolution must not change by a bit.
    let (n, m) = (8usize, 16);
    let x = random_real(n * m, 9250);
    let g = random_real(n * m, 9251);
    let plan = RealFftPlan::builder(Dims::d2(n, m))
        .threads(2, 2)
        .build()
        .unwrap();
    let conv = SpectralConvPlan::new(plan, &g).unwrap();
    let cfg = ExecConfig::default();
    let mut work = vec![Complex64::ZERO; conv.plan().packed_elems()];
    let mut pipelined = x.clone();
    conv.convolve(&mut pipelined, |p, z| execute_with(p, z, &mut work, &cfg))
        .unwrap();
    let mut fused = x.clone();
    conv.convolve(&mut fused, |p, z| execute_fused(p, z, &mut work))
        .unwrap();
    let mut supervised = x.clone();
    let sup = Supervisor::default();
    conv.convolve(&mut supervised, |p, z| sup.run(p, z, &mut work, &cfg))
        .unwrap();
    assert_eq!(pipelined, fused, "pipelined vs fused");
    assert_eq!(pipelined, supervised, "pipelined vs supervised");
}

#[test]
fn impulse_is_the_convolution_identity() {
    for n in [1usize, 2, 8, 64] {
        let mut delta = vec![0.0; n];
        delta[0] = 1.0;
        let x = random_real(n, 9300 + n as u64);
        if n >= 2 {
            let mut plan = SpectralConv1d::new(&delta);
            let mut got = x.clone();
            plan.run(&mut got);
            for (a, b) in got.iter().zip(&x) {
                assert!((a - b).abs() < 1e-12, "conv(x, δ) != x at n={n}");
            }
        }
        // The quadratic oracle agrees that δ is the identity.
        let direct = conv_direct(&x, &delta);
        for (a, b) in direct.iter().zip(&x) {
            assert!((a - b).abs() < 1e-15);
        }
    }
}

#[test]
fn supervised_conv_with_injected_fault_preserves_the_result() {
    // Same seeded problem twice: once clean, once with a compute
    // worker panicking mid-stage under full integrity guards. The
    // supervisor must recover (retry or escalate tiers) and the
    // convolution it returns must match the clean run to round-off.
    fault::silence_injected_panic_reports();
    let (n, m) = (8usize, 16);
    let x = random_real(n * m, 9400);
    let g = random_real(n * m, 9401);

    let build = || {
        RealFftPlan::builder(Dims::d2(n, m))
            .threads(2, 2)
            .build()
            .unwrap()
    };
    let clean_conv = SpectralConvPlan::new(build(), &g).unwrap();
    let mut clean = x.clone();
    let mut work = vec![Complex64::ZERO; clean_conv.plan().packed_elems()];
    clean_conv
        .convolve(&mut clean, |p, z| execute(p, z, &mut work))
        .unwrap();

    let conv = SpectralConvPlan::new(build(), &g).unwrap();
    let cfg = ExecConfig {
        fault: Some(FaultPlan::panic_at(Role::Compute, 0, 1)),
        integrity: IntegrityConfig::full(),
        verify_energy: true,
        adaptive_watchdog: Some(AdaptiveWatchdog::fixed(Duration::from_secs(5))),
        ..ExecConfig::default()
    };
    let sup = Supervisor::new(RetryPolicy::default());
    let mut got = x.clone();
    let (forward, inverse) = conv
        .convolve(&mut got, |p, z| sup.run(p, z, &mut work, &cfg))
        .expect("supervised convolution must recover");
    assert!(
        forward.recovered() || inverse.recovered(),
        "the injected fault should have forced at least one recovery step"
    );
    let scale = clean.iter().map(|v| v.abs()).fold(1.0, f64::max);
    for (a, b) in got.iter().zip(&clean) {
        assert!(
            (a - b).abs() <= 1e-10 * scale,
            "recovery changed the convolution result"
        );
    }
}
