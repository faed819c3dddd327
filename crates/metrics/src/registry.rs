//! The metric registry: named counters, gauges, and log2 histograms.
//!
//! The hot-path contract mirrors `bwfft_trace::ThreadTracer`: all
//! locking happens at *registration* (once per metric name, at service
//! start), never at update time. A handle is a clone-able wrapper
//! around the registered `Arc<atomic>` cell; an update is one relaxed
//! atomic RMW — no clock, no allocation, no fence.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::snapshot::MetricsSnapshot;

/// Number of registration shards. Registration is rare, so this only
/// needs to be large enough that concurrent *scrapes* and late
/// registrations don't convoy.
const SHARDS: usize = 8;

/// Number of log2 buckets. Bucket `i < 63` covers `[2^i, 2^{i+1})`
/// (zero lands in bucket 0); bucket 63 covers everything from `2^63`
/// up. 64 buckets span the full `u64` range, so nanosecond latencies
/// and byte counts share one shape.
pub const BUCKETS: usize = 64;

fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (63 - v.leading_zeros() as usize).min(BUCKETS - 1)
    }
}

/// Inclusive upper bound of bucket `i` (`u64::MAX` for the last).
pub fn bucket_upper(i: usize) -> u64 {
    if i >= BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << (i + 1)) - 1
    }
}

// ---------------------------------------------------------------------------
// Cells (the registered storage) and handles (what call sites hold)
// ---------------------------------------------------------------------------

pub(crate) struct HistogramCell {
    count: AtomicU64,
    sum: AtomicU64,
    /// `u64::MAX` until the first sample (so `fetch_min` works).
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl HistogramCell {
    fn new() -> Self {
        HistogramCell {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let mut buckets = [0u64; BUCKETS];
        for (b, cell) in buckets.iter_mut().zip(self.buckets.iter()) {
            *b = cell.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: match self.min.load(Ordering::Relaxed) {
                u64::MAX if count == 0 => 0,
                m => m,
            },
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// A monotonically increasing count. Cheap to clone; every clone
/// shares one cell, obtained from [`Registry::counter`].
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A point-in-time level (queue depth, breaker position, hit rate).
/// Stores `f64` bits in an `AtomicU64`.
#[derive(Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A log2-bucketed distribution (no stored samples; constant memory).
#[derive(Clone)]
pub struct Histogram(Arc<HistogramCell>);

impl Histogram {
    #[inline]
    pub fn record(&self, v: u64) {
        self.0.record(v);
    }

    /// Record a duration as nanoseconds (saturating above `u64::MAX`).
    #[inline]
    pub fn record_duration(&self, d: std::time::Duration) {
        self.0
            .record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        self.0.snapshot()
    }
}

/// An immutable copy of a histogram's state: mergeable (bucket-wise
/// addition) and queryable for nearest-rank quantiles.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
    pub buckets: [u64; BUCKETS],
}

impl HistogramSnapshot {
    pub fn empty() -> Self {
        HistogramSnapshot {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: [0; BUCKETS],
        }
    }

    /// Bucket-wise merge. Associative and commutative, so shard
    /// snapshots combine in any order.
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (out, (a, b)) in buckets
            .iter_mut()
            .zip(self.buckets.iter().zip(other.buckets.iter()))
        {
            *out = a.saturating_add(*b);
        }
        let min = match (self.count, other.count) {
            (0, _) => other.min,
            (_, 0) => self.min,
            _ => self.min.min(other.min),
        };
        HistogramSnapshot {
            count: self.count.saturating_add(other.count),
            sum: self.sum.saturating_add(other.sum),
            min,
            max: self.max.max(other.max),
            buckets,
        }
    }

    /// The counted difference `self - earlier` (for rate displays over
    /// two scrapes). `min`/`max` of the window are not recoverable from
    /// cumulative state, so the later snapshot's bounds are kept — an
    /// over-approximation, documented in the `stat` output.
    pub fn diff(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (out, (a, b)) in buckets
            .iter_mut()
            .zip(self.buckets.iter().zip(earlier.buckets.iter()))
        {
            *out = a.saturating_sub(*b);
        }
        HistogramSnapshot {
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            min: self.min,
            max: self.max,
            buckets,
        }
    }

    /// Nearest-rank quantile (`q` in `[0, 1]`), resolved to the
    /// inclusive upper bound of the bucket holding that rank and then
    /// clamped into `[min, max]` so the answer is always inside the
    /// recorded range. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Nearest rank: ceil(q * count), at least 1.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            cum = cum.saturating_add(*b);
            if cum >= rank {
                return Some(bucket_upper(i).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }

    pub fn p999(&self) -> Option<u64> {
        self.quantile(0.999)
    }

    /// Mean of the recorded values (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

enum Metric {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<HistogramCell>),
}

/// The sharded metric registry. Shared as `Arc<Registry>`; handles
/// registered through it stay valid (and lock-free) for the registry's
/// lifetime.
pub struct Registry {
    started: Instant,
    shards: [Mutex<BTreeMap<String, Metric>>; SHARDS],
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n: usize = self
            .shards
            .iter()
            .map(|s| s.lock().map(|m| m.len()).unwrap_or(0))
            .sum();
        f.debug_struct("Registry").field("metrics", &n).finish()
    }
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

fn shard_of(name: &str) -> usize {
    // FNV-1a: tiny, deterministic, good enough to spread names.
    let mut h: u64 = 0xcbf29ce484222325;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100000001b3);
    }
    (h as usize) % SHARDS
}

fn lock_shard<'a>(
    shard: &'a Mutex<BTreeMap<String, Metric>>,
) -> std::sync::MutexGuard<'a, BTreeMap<String, Metric>> {
    shard.lock().unwrap_or_else(|e| e.into_inner())
}

impl Registry {
    pub fn new() -> Self {
        Registry {
            started: Instant::now(),
            shards: std::array::from_fn(|_| Mutex::new(BTreeMap::new())),
        }
    }

    /// Nanoseconds since the registry was created (the time base for
    /// rate computation between two snapshots).
    pub fn uptime_ns(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Register (or look up) a counter. Registering an existing name of
    /// a *different* kind returns a handle to a detached cell instead of
    /// corrupting the original — a misuse whose updates never reach a
    /// snapshot, never a wrong metric.
    pub fn counter(&self, name: &str) -> Counter {
        let mut shard = lock_shard(&self.shards[shard_of(name)]);
        match shard
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(AtomicU64::new(0))))
        {
            Metric::Counter(c) => Counter(Arc::clone(c)),
            _ => Counter(Arc::new(AtomicU64::new(0))),
        }
    }

    /// Register (or look up) a gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut shard = lock_shard(&self.shards[shard_of(name)]);
        match shard
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(AtomicU64::new(0f64.to_bits()))))
        {
            Metric::Gauge(c) => Gauge(Arc::clone(c)),
            _ => Gauge(Arc::new(AtomicU64::new(0f64.to_bits()))),
        }
    }

    /// Register (or look up) a histogram.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut shard = lock_shard(&self.shards[shard_of(name)]);
        match shard
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(HistogramCell::new())))
        {
            Metric::Histogram(c) => Histogram(Arc::clone(c)),
            _ => Histogram(Arc::new(HistogramCell::new())),
        }
    }

    /// Rare-path convenience: add to a counter by name (registers on
    /// first use). Takes the shard lock — fine for recovery events and
    /// scrape-time syncs, wrong for per-request hot paths (hold a
    /// pre-registered handle there instead).
    pub fn add(&self, name: &str, n: u64) {
        self.counter(name).add(n);
    }

    /// Rare-path convenience: overwrite a counter with an absolute
    /// value (for mirroring an externally accumulated total — the
    /// serve buffer pool's — into the registry at scrape time).
    pub fn set_counter(&self, name: &str, v: u64) {
        self.counter(name).0.store(v, Ordering::Relaxed);
    }

    /// Rare-path convenience: set a gauge by name.
    pub fn set_gauge(&self, name: &str, v: f64) {
        self.gauge(name).set(v);
    }

    /// Rare-path convenience: record into a histogram by name.
    pub fn observe(&self, name: &str, v: u64) {
        self.histogram(name).record(v);
    }

    /// A point-in-time copy of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot {
            uptime_ns: self.uptime_ns(),
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
        };
        for shard in &self.shards {
            let shard = lock_shard(shard);
            for (name, metric) in shard.iter() {
                match metric {
                    Metric::Counter(c) => {
                        snap.counters
                            .insert(name.clone(), c.load(Ordering::Relaxed));
                    }
                    Metric::Gauge(c) => {
                        snap.gauges
                            .insert(name.clone(), f64::from_bits(c.load(Ordering::Relaxed)));
                    }
                    Metric::Histogram(c) => {
                        snap.histograms.insert(name.clone(), c.snapshot());
                    }
                }
            }
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registered_handles_share_one_cell() {
        let r = Registry::new();
        let a = r.counter("serve.completed");
        let b = r.counter("serve.completed");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        let snap = r.snapshot();
        assert_eq!(snap.counters["serve.completed"], 3);
    }

    #[test]
    fn kind_conflicts_yield_detached_handles_not_corruption() {
        let r = Registry::new();
        let c = r.counter("x");
        c.inc();
        let g = r.gauge("x");
        g.set(99.0);
        let h = r.histogram("x");
        h.record(7);
        assert_eq!(c.get(), 1, "original survives");
        assert_eq!(
            r.counter("x").get(),
            1,
            "the name still maps to the original"
        );
        let snap = r.snapshot();
        assert_eq!(snap.counters.get("x"), Some(&1));
        assert_eq!(snap.gauges.get("x"), None, "conflicting gauge is detached");
        assert_eq!(
            snap.histograms.get("x"),
            None,
            "conflicting histogram is detached"
        );
    }

    #[test]
    fn bucket_mapping_covers_the_u64_range() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(u64::MAX), 63);
        assert_eq!(bucket_upper(0), 1);
        assert_eq!(bucket_upper(1), 3);
        assert_eq!(bucket_upper(63), u64::MAX);
    }

    #[test]
    fn histogram_quantiles_stay_within_recorded_bounds() {
        let r = Registry::new();
        let h = r.histogram("lat");
        for v in [10u64, 20, 30, 1000, 5000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!((s.min, s.max), (10, 5000));
        for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
            let v = s.quantile(q).unwrap();
            assert!((10..=5000).contains(&v), "q={q} -> {v}");
        }
        assert!(s.p50().unwrap() <= s.p99().unwrap());
        assert_eq!(s.quantile(1.0), Some(5000));
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let s = HistogramSnapshot::empty();
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.mean(), None);
    }

    #[test]
    fn merge_accumulates_counts_and_bounds() {
        let r = Registry::new();
        let a = r.histogram("a");
        let b = r.histogram("b");
        a.record(1);
        a.record(100);
        b.record(50);
        let m = a.snapshot().merge(&b.snapshot());
        assert_eq!(m.count, 3);
        assert_eq!(m.sum, 151);
        assert_eq!((m.min, m.max), (1, 100));
        let m2 = b.snapshot().merge(&a.snapshot());
        assert_eq!(m, m2, "merge is commutative");
    }

    #[test]
    fn gauge_round_trips_f64() {
        let r = Registry::new();
        let g = r.gauge("rate");
        g.set(0.875);
        assert_eq!(g.get(), 0.875);
        g.set(-1.5);
        assert_eq!(g.get(), -1.5);
    }
}
