//! Host microbenchmarks of the 1D kernels: Stockham vs radix-2, plain
//! vs block-interleaved layout, and the batched pencil forms. These
//! measure real wall-clock on the build host (kernel-level numbers are
//! meaningful even on one core; whole-transform figures come from the
//! simulator harnesses).

#![allow(clippy::unwrap_used, clippy::expect_used)] // throwaway driver code, not library
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use bwfft_kernels::batch::BatchFft;
use bwfft_kernels::bluestein::Bluestein;
use bwfft_kernels::layout::{stockham_block_format, to_block_format};
use bwfft_kernels::radix2::fft_radix2_tables;
use bwfft_kernels::stockham::stockham_strided;
use bwfft_kernels::twiddle::StockhamTwiddles;
use bwfft_kernels::Direction;
use bwfft_num::signal::random_complex;
use bwfft_num::{AlignedVec, Complex64};

fn pseudo_flops(n: usize) -> u64 {
    (5.0 * n as f64 * (n as f64).log2()) as u64
}

fn bench_fft1d(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft1d");
    for lg in [8usize, 10, 12, 14] {
        let n = 1usize << lg;
        let x = random_complex(n, 1);
        group.throughput(Throughput::Elements(pseudo_flops(n)));
        let tw = StockhamTwiddles::new(n, Direction::Forward);
        group.bench_with_input(BenchmarkId::new("stockham", n), &n, |b, _| {
            let mut data = AlignedVec::from_slice(&x);
            let mut scratch = AlignedVec::<Complex64>::zeroed(n);
            b.iter(|| stockham_strided(&mut data, &mut scratch, n, 1, &tw));
        });
        group.bench_with_input(BenchmarkId::new("radix2_bitrev", n), &n, |b, _| {
            let mut data = AlignedVec::from_slice(&x);
            b.iter(|| fft_radix2_tables(&mut data, &tw));
        });
    }
    group.finish();
}

fn bench_bluestein(c: &mut Criterion) {
    // Arbitrary-size transforms: the chirp-z premium over a pow2 FFT
    // of comparable size.
    let mut group = c.benchmark_group("bluestein");
    for n in [1000usize, 1009, 4096] {
        let x = random_complex(n, 8);
        group.throughput(Throughput::Elements(pseudo_flops(n)));
        group.bench_with_input(BenchmarkId::new("any_size", n), &n, |b, &n| {
            let mut plan = Bluestein::new(n, Direction::Forward);
            let mut data = x.clone();
            b.iter(|| plan.run(&mut data));
        });
    }
    group.finish();
}

fn bench_batch(c: &mut Criterion) {
    // The compute task of one pipeline block: I_{b/m} ⊗ DFT_m.
    let mut group = c.benchmark_group("batch_pencils");
    let b = 1usize << 17; // the paper's example buffer
    for m in [256usize, 512, 2048] {
        let x = random_complex(b, 2);
        group.throughput(Throughput::Elements(
            (b / m) as u64 * pseudo_flops(m),
        ));
        group.bench_with_input(BenchmarkId::new("contiguous", m), &m, |bch, _| {
            let mut kernel = BatchFft::new(m, 1, Direction::Forward);
            let mut buf = AlignedVec::from_slice(&x);
            bch.iter(|| kernel.run(&mut buf));
        });
        group.bench_with_input(BenchmarkId::new("mu_lanes", m), &m, |bch, _| {
            let mut kernel = BatchFft::new(m, 4, Direction::Forward);
            let mut buf = AlignedVec::from_slice(&x);
            bch.iter(|| kernel.run(&mut buf));
        });
    }
    group.finish();
}

fn bench_layouts(c: &mut Criterion) {
    // Interleaved vs block-interleaved compute (§IV cache-aware FFT).
    let mut group = c.benchmark_group("layout");
    let (n, s) = (512usize, 8usize);
    let x = random_complex(n * s, 3);
    let tw = StockhamTwiddles::new(n, Direction::Forward);
    group.bench_function("interleaved", |b| {
        let mut data = AlignedVec::from_slice(&x);
        let mut scratch = AlignedVec::<Complex64>::zeroed(n * s);
        b.iter(|| stockham_strided(&mut data, &mut scratch, n, s, &tw));
    });
    group.bench_function("block_interleaved", |b| {
        let mut blocked = vec![0.0f64; 2 * n * s];
        to_block_format(&x, &mut blocked);
        let mut data = AlignedVec::from_slice(&blocked);
        let mut scratch = AlignedVec::<f64>::zeroed(2 * n * s);
        b.iter(|| stockham_block_format(&mut data, &mut scratch, n, s, &tw));
    });
    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(800))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_fft1d, bench_batch, bench_layouts, bench_bluestein
}
criterion_main!(benches);
