//! Sample statistics, output checks and host measurements shared by the
//! workloads.
//!
//! Timing percentiles are nearest-rank over every raw sample (the same
//! helper the serve bench uses), with no outlier trimming: a tail is
//! the thing being measured, not noise to remove.

use crate::{BenchError, Outcome, Result};
use bwfft_num::{AlignedVec, Complex64};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

pub use bwfft_bench::serve_bench::percentile;
pub use bwfft_bench::stats::median;

/// The 512-ULP accuracy contract of the power-of-two kernels (DESIGN.md
/// §13): error in ULPs of the largest reference magnitude.
pub const ULP_CAP: f64 = 512.0;

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Percentile of the gated tail. On a shared two-CPU host the p90 of
/// the 0.3 ms serve2d_small requests spread 17–25% between ten runs of
/// the same code, as wide as the bound; p80 spread about 13%, close to
/// the median's 10–15%. Plain p90 and p99 are printed beside it.
pub const TAIL_P: f64 = 80.0;

/// Nearest-rank position (1-based) of percentile `p` in `n` samples,
/// matching [`percentile`].
fn nearest_rank(n: usize, p: f64) -> usize {
    (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples beyond nearest-rank percentile `p` of `n`.
fn beyond(n: usize, p: f64) -> usize {
    n - nearest_rank(n, p)
}

/// The tail `n` samples support: [`TAIL_P`] when at least
/// [`TAIL_BEYOND`] samples lie beyond it; with fewer samples, the rank
/// that leaves exactly ten beyond (reported with its percentile); with
/// ten or fewer, the median. Returns the percentile and the 0-based
/// index of its sample in sorted order.
pub fn tail_rank(n: usize) -> (f64, usize) {
    if beyond(n, TAIL_P) >= TAIL_BEYOND {
        return (TAIL_P, nearest_rank(n, TAIL_P) - 1);
    }
    if n > TAIL_BEYOND {
        let rank = n - TAIL_BEYOND;
        (100.0 * rank as f64 / n as f64, rank - 1)
    } else {
        (50.0, nearest_rank(n.max(1), 50.0) - 1)
    }
}

/// Median and tail of a sample.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// Percentile the tail is taken at.
    pub tail_p: f64,
    pub tail: f64,
    /// Plain p90 and p99, when at least ten samples lie beyond them.
    pub p90: Option<f64>,
    pub p99: Option<f64>,
}

/// Summarizes every sample of a timed pass.
pub fn summarize(samples: &[f64]) -> Result<Summary> {
    if samples.is_empty() {
        return Err(BenchError::new("no samples were measured"));
    }
    let n = samples.len();
    let mut all = samples.to_vec();
    all.sort_by(f64::total_cmp);
    let (tail_p, idx) = tail_rank(n);
    let plain = |p: f64| (beyond(n, p) >= TAIL_BEYOND).then(|| percentile(&all, p));
    Ok(Summary {
        n,
        p50: percentile(&all, 50.0),
        tail_p,
        tail: all[idx],
        p90: plain(90.0),
        p99: plain(99.0),
    })
}

impl Summary {
    /// Context line naming the tail's percentile and the sample count.
    pub fn describe(&self, what: &str) -> String {
        let plain: Vec<String> = [("p90", self.p90), ("p99", self.p99)]
            .iter()
            .filter_map(|(name, v)| v.map(|v| format!("{name} {:.4} ms", ms(v))))
            .collect();
        let plain = if plain.is_empty() {
            String::new()
        } else {
            format!("; {} (not gated)", plain.join(", "))
        };
        format!(
            "{what}: latency_tail_ms is p{} over {} samples{plain}",
            trim_float(self.tail_p),
            self.n
        )
    }
}

fn trim_float(v: f64) -> String {
    let s = format!("{v:.2}");
    s.trim_end_matches('0').trim_end_matches('.').to_string()
}

/// How far an output is from its reference.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Accuracy {
    /// `max|y − ref| / max|ref|`.
    pub max_rel_err: f64,
    /// The same error in ULPs of `max|ref|`.
    pub ulps: f64,
}

impl Accuracy {
    pub fn within_cap(&self) -> bool {
        self.ulps <= ULP_CAP
    }

    pub fn worst(self, other: Accuracy) -> Accuracy {
        Accuracy {
            max_rel_err: self.max_rel_err.max(other.max_rel_err),
            ulps: self.ulps.max(other.ulps),
        }
    }
}

/// A reference output with its scale, `max|ref|`, computed once: the
/// checks run on every timed output, often on a thread that shares a
/// CPU with the system under test, so they compare squared magnitudes
/// and take one square root at the end.
pub struct Reference {
    pub data: Vec<Complex64>,
    scale: f64,
}

impl Reference {
    pub fn new(data: Vec<Complex64>) -> Self {
        let max_sq = data
            .iter()
            .map(|c| c.norm_sqr())
            .fold(f64::MIN_POSITIVE, f64::max);
        Reference {
            data,
            scale: max_sq.sqrt(),
        }
    }

    /// How far `got` is from this reference. A length mismatch or any
    /// NaN counts as infinitely wrong.
    pub fn accuracy(&self, got: &[Complex64]) -> Accuracy {
        if got.len() != self.data.len() {
            return Accuracy {
                max_rel_err: f64::INFINITY,
                ulps: f64::INFINITY,
            };
        }
        let mut worst_sq = 0.0f64;
        for (g, r) in got.iter().zip(&self.data) {
            let d = (*g - *r).norm_sqr();
            // `f64::max` would drop a NaN; a NaN output is infinitely
            // wrong.
            if d.is_nan() {
                worst_sq = f64::INFINITY;
            } else if d > worst_sq {
                worst_sq = d;
            }
        }
        let worst = worst_sq.sqrt();
        let ulp = f64::from_bits(self.scale.to_bits() + 1) - self.scale;
        Accuracy {
            max_rel_err: worst / self.scale,
            ulps: worst / ulp,
        }
    }
}

/// Flips the sign bit of the first real part — the `--flip-bit` hook.
/// A sign flip of a nonzero value moves it by twice its magnitude, far
/// past any rounding bound.
pub fn flip_sign_bit(xs: &mut [Complex64]) {
    if let Some(v) = xs.first_mut() {
        v.re = f64::from_bits(v.re.to_bits() ^ (1u64 << 63));
    }
}

/// The process's allocator, wrapped to count live heap bytes and their
/// high-water mark. Every allocation the library makes goes through it.
/// Resident size (`VmHWM`) is not used: whether glibc keeps a freed
/// buffer mapped decides it, and for `ooc1d` that moved it by 2 MiB
/// between runs of the same code.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let now = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` unchanged; the counters are
// only read, never used to decide an allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Heap bytes allocated and not yet freed, process-wide.
pub fn live_heap_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}

const MIB: f64 = (1 << 20) as f64;

/// Peak heap per timed operation: the bytes the workload's set-up left
/// allocated (`held`: its plan, arrays or server) plus the most the
/// operation allocated beyond what was live when it began. The median
/// over operations is reported. The benchmark's own sample vectors are
/// live before an operation begins, so they do not count, and neither
/// does memory the allocator keeps after a free.
pub struct PeakHeap {
    held: usize,
    base: usize,
    samples: Vec<f64>,
}

impl PeakHeap {
    pub fn new(held: usize) -> Self {
        PeakHeap {
            held,
            base: 0,
            samples: Vec::new(),
        }
    }

    /// Call right before an operation.
    pub fn arm(&mut self) {
        self.base = live_heap_bytes();
        PEAK.store(self.base, Ordering::Relaxed);
    }

    /// Call right after the operation.
    pub fn sample(&mut self) {
        let extra = PEAK.load(Ordering::Relaxed).saturating_sub(self.base);
        self.samples.push((self.held + extra) as f64 / MIB);
    }

    pub fn median_mib(&self) -> Result<f64> {
        if self.samples.is_empty() {
            return Err(BenchError::new("no heap samples"));
        }
        Ok(median(&self.samples))
    }
}

/// Single-threaded STREAM triad `a = b + s·c` over three `f64` arrays
/// of `elems` each; GB/s by the STREAM byte count (3 × 8 B per
/// element), median of `reps`.
pub fn stream_triad_gbs(elems: usize, reps: usize) -> f64 {
    let mut a = vec![0.0f64; elems];
    let b = vec![1.0f64; elems];
    let c = vec![2.0f64; elems];
    let s = black_box(3.0f64);
    let mut rates = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        for ((ai, bi), ci) in a.iter_mut().zip(&b).zip(&c) {
            *ai = bi + s * ci;
        }
        black_box(&mut a);
        let ns = t0.elapsed().as_nanos().max(1) as f64;
        rates.push((3 * 8 * elems) as f64 / ns);
    }
    median(&rates)
}

/// One contiguous `simd::copy_nt` of `elems` complex values into a
/// 32-byte-aligned destination — the ceiling of the reshape store.
/// GB/s of bytes written, median of `reps`.
pub fn copy_nt_gbs(elems: usize, reps: usize) -> f64 {
    let src = vec![Complex64::new(1.0, -1.0); elems];
    let mut dst = AlignedVec::<Complex64>::zeroed(elems);
    let mut rates = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        bwfft_kernels::simd::copy_nt(&src, &mut dst);
        black_box(&mut dst);
        let ns = t0.elapsed().as_nanos().max(1) as f64;
        rates.push((elems * 16) as f64 / ns);
    }
    median(&rates)
}

/// Host ceilings measured in the same run: the STREAM triad (returned,
/// GB/s) and one large contiguous `copy_nt`.
pub fn host_layers(out: &mut Outcome, quick: bool) -> f64 {
    let (triad_elems, copy_elems) = if quick {
        (1 << 16, 1 << 14)
    } else {
        (1 << 22, 1 << 21)
    };
    let triad = stream_triad_gbs(triad_elems, 5);
    out.layer("bench.stream_triad_gbs", triad, "GB/s");
    out.layer("kernels.copy_nt_gbs", copy_nt_gbs(copy_elems, 5), "GB/s");
    out.note(format!(
        "host: STREAM triad over 3 x {} MiB, copy_nt of {} MiB, single thread, {} CPUs visible",
        (triad_elems * 8) >> 20,
        (copy_elems * 16) >> 20,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    triad
}

/// The output-check summary of a traced run: worst error against the
/// reference and the failed share of everything checked.
pub fn check_layers(out: &mut Outcome, max_rel_err: f64) {
    out.layer("check.max_rel_err", max_rel_err, "ratio");
    let frac = out.failed as f64 / out.attempted.max(1) as f64;
    out.layer("check.failed_frac", frac, "ratio");
}

/// Nanoseconds as milliseconds.
pub fn ms(ns: f64) -> f64 {
    ns / 1e6
}

/// Nanoseconds as microseconds.
pub fn us(ns: f64) -> f64 {
    ns / 1e3
}

/// `new` as a percentage change over `base`; 0 when `base` is 0.
pub fn pct_change(new: f64, base: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        100.0 * (new - base) / base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_catches_nan_and_scales_by_reference() {
        let r = Reference::new(vec![Complex64::new(4.0, 0.0), Complex64::new(0.0, 1.0)]);
        assert_eq!(r.accuracy(&r.data).ulps, 0.0);
        let mut g = r.data.clone();
        g[1].im = f64::NAN;
        assert!(!r.accuracy(&g).within_cap());
        let mut g = r.data.clone();
        flip_sign_bit(&mut g);
        let a = r.accuracy(&g);
        assert_eq!(a.max_rel_err, 2.0);
        assert!(!a.within_cap());
        assert!(!r.accuracy(&g[..1]).within_cap());
    }

    #[test]
    fn peak_heap_counts_a_freed_buffer_and_the_held_bytes() {
        let mut heap = PeakHeap::new(1 << 20);
        heap.arm();
        drop(black_box(vec![0u8; 4 << 20]));
        heap.sample();
        // Other test threads may allocate or free a little meanwhile.
        let mib = heap.median_mib().unwrap();
        assert!((4.5..6.0).contains(&mib), "{mib}");
    }
}
