//! The concurrent plan cache: repeated shape requests return an
//! `Arc<FftPlan>` without re-searching.
//!
//! The ROADMAP serving path ("heavy traffic, repeated shapes") needs
//! plan lookup to be cheap and contention-free: the map is split into
//! shards, each behind its own mutex, selected by the key's hash.
//! A miss runs the autotuner *while holding the shard lock*, which is
//! exactly the single-search guarantee: concurrent requests for the
//! same `(Dims, Direction)` serialize, the first performs the one
//! search, the rest observe the inserted entry as hits. Tuning a new
//! shape blocks only the 1-in-[`SHARDS`] keys that share its shard.
//!
//! Keys carry the [`HostFingerprint`] so wisdom imported from another
//! machine can never alias a locally tuned entry.

use crate::error::TunerError;
use crate::fingerprint::HostFingerprint;
use crate::search::{Tuner, TuningRecord};
use bwfft_core::{Dims, FftPlan};
use bwfft_kernels::Direction;
use bwfft_metrics::{Counter, Registry};
use bwfft_num::lock_tolerant;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Default shard count (power of two so the hash folds evenly).
pub const SHARDS: usize = 8;

/// Default capacity per shard before eviction kicks in.
pub const CAPACITY_PER_SHARD: usize = 64;

/// Pinned plan knobs for an explicitly-configured request. A serving
/// path that names its buffer size and thread split caches under the
/// variant instead of the tuned entry, so tuned and pinned plans for
/// the same shape never alias.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PlanVariant {
    /// Buffer half size in elements (0 = planner default).
    pub buffer_elems: usize,
    pub p_d: usize,
    pub p_c: usize,
}

/// Cache key: what plan, which way, on which machine shape — and, for
/// explicitly-pinned plans, which knob variant.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PlanKey {
    pub dims: Dims,
    pub dir: Direction,
    pub fingerprint: HostFingerprint,
    /// `None` for tuned entries; `Some` for pinned variants inserted
    /// through [`PlanCache::get_or_build`].
    pub variant: Option<PlanVariant>,
}

/// A read of the cache's `tuner.plan_cache.*` registry counters, from
/// [`PlanCache::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

struct Entry {
    plan: Arc<FftPlan>,
    /// `None` for pinned variants — they carry no search result and are
    /// excluded from wisdom export.
    record: Option<TuningRecord>,
    /// Monotonic use stamp for least-recently-used eviction.
    last_used: u64,
}

type Shard = Mutex<HashMap<PlanKey, Entry>>;

/// Sharded, lock-protected map from `(Dims, Direction, fingerprint)`
/// to tuned plans, with an embedded [`Tuner`] to fill misses. Hits,
/// misses and evictions are counted only in the `tuner.plan_cache.*`
/// counters of the registry the cache was built on.
pub struct PlanCache {
    shards: Vec<Shard>,
    capacity_per_shard: usize,
    tuner: Tuner,
    fingerprint: HostFingerprint,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    clock: AtomicU64,
}

impl PlanCache {
    /// A cache with the default geometry ([`SHARDS`] ×
    /// [`CAPACITY_PER_SHARD`]) counting into a private registry.
    pub fn new(tuner: Tuner, fingerprint: HostFingerprint) -> Self {
        Self::with_registry(tuner, fingerprint, &Registry::new())
    }

    /// A default-geometry cache counting into `registry`, so a scrape
    /// of that registry sees live hit/miss/eviction totals.
    pub fn with_registry(tuner: Tuner, fingerprint: HostFingerprint, registry: &Registry) -> Self {
        Self::with_geometry(tuner, fingerprint, SHARDS, CAPACITY_PER_SHARD, registry)
    }

    /// Explicit shard count and per-shard capacity (both clamped to at
    /// least 1), counting into `registry`.
    pub fn with_geometry(
        tuner: Tuner,
        fingerprint: HostFingerprint,
        shards: usize,
        capacity_per_shard: usize,
        registry: &Registry,
    ) -> Self {
        let shards = shards.max(1);
        PlanCache {
            shards: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            capacity_per_shard: capacity_per_shard.max(1),
            tuner,
            fingerprint,
            hits: registry.counter("tuner.plan_cache.hits"),
            misses: registry.counter("tuner.plan_cache.misses"),
            evictions: registry.counter("tuner.plan_cache.evictions"),
            clock: AtomicU64::new(0),
        }
    }

    /// The fingerprint this cache keys new entries under.
    pub fn fingerprint(&self) -> &HostFingerprint {
        &self.fingerprint
    }

    /// The embedded tuner.
    pub fn tuner(&self) -> &Tuner {
        &self.tuner
    }

    fn key(&self, dims: Dims, dir: Direction) -> PlanKey {
        PlanKey {
            dims,
            dir,
            fingerprint: self.fingerprint.clone(),
            variant: None,
        }
    }

    fn shard(&self, key: &PlanKey) -> MutexGuard<'_, HashMap<PlanKey, Entry>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        let idx = (h.finish() as usize) % self.shards.len();
        // A poisoned shard only means another thread panicked while
        // holding the lock; the map itself is still usable.
        lock_tolerant(&self.shards[idx])
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Returns the cached plan for `(dims, dir)` on this host, or
    /// tunes, inserts, and returns it. Exactly one search runs per
    /// distinct key: the shard lock is held across the tune, so a
    /// concurrent second request blocks and then scores a hit.
    pub fn get_or_tune(&self, dims: Dims, dir: Direction) -> Result<Arc<FftPlan>, TunerError> {
        let key = self.key(dims, dir);
        let mut map = self.shard(&key);
        let stamp = self.tick();
        if let Some(entry) = map.get_mut(&key) {
            entry.last_used = stamp;
            self.hits.inc();
            return Ok(Arc::clone(&entry.plan));
        }
        self.misses.inc();
        let record = self.tuner.tune(dims, dir)?;
        let plan = Arc::new(record.build_plan()?);
        Self::evict_if_full(&mut map, self.capacity_per_shard, &self.evictions);
        map.insert(
            key,
            Entry {
                plan: Arc::clone(&plan),
                record: Some(record),
                last_used: stamp,
            },
        );
        Ok(plan)
    }

    /// Returns the cached plan for an explicitly-pinned `variant` of
    /// `(dims, dir)`, building and inserting it on first request via
    /// `build`. Same single-build guarantee as [`Self::get_or_tune`]:
    /// the shard lock is held across the build, so concurrent requests
    /// for the same variant serialize into one build plus hits. Pinned
    /// entries never alias tuned ones and are excluded from wisdom
    /// export.
    pub fn get_or_build<E>(
        &self,
        dims: Dims,
        dir: Direction,
        variant: PlanVariant,
        build: impl FnOnce() -> Result<FftPlan, E>,
    ) -> Result<Arc<FftPlan>, E> {
        let key = PlanKey {
            variant: Some(variant),
            ..self.key(dims, dir)
        };
        let mut map = self.shard(&key);
        let stamp = self.tick();
        if let Some(entry) = map.get_mut(&key) {
            entry.last_used = stamp;
            self.hits.inc();
            return Ok(Arc::clone(&entry.plan));
        }
        self.misses.inc();
        let plan = Arc::new(build()?);
        Self::evict_if_full(&mut map, self.capacity_per_shard, &self.evictions);
        map.insert(
            key,
            Entry {
                plan: Arc::clone(&plan),
                record: None,
                last_used: stamp,
            },
        );
        Ok(plan)
    }

    /// Non-tuning lookup: `Some` counts a hit, `None` counts a miss.
    pub fn get(&self, dims: Dims, dir: Direction) -> Option<Arc<FftPlan>> {
        let key = self.key(dims, dir);
        let mut map = self.shard(&key);
        let stamp = self.tick();
        match map.get_mut(&key) {
            Some(entry) => {
                entry.last_used = stamp;
                self.hits.inc();
                Some(Arc::clone(&entry.plan))
            }
            None => {
                self.misses.inc();
                None
            }
        }
    }

    /// Peek without touching counters or recency — used by callers
    /// that only want to report whether tuning would be skipped.
    pub fn contains(&self, dims: Dims, dir: Direction) -> bool {
        let key = self.key(dims, dir);
        self.shard(&key).contains_key(&key)
    }

    /// Inserts a pre-tuned record (e.g. from a wisdom file) under this
    /// cache's fingerprint. Counts neither hit nor miss. Fails (typed)
    /// if the record no longer builds a valid plan.
    pub fn seed(&self, record: &TuningRecord) -> Result<(), TunerError> {
        let plan = Arc::new(record.build_plan()?);
        let key = self.key(record.dims, record.dir);
        let mut map = self.shard(&key);
        let stamp = self.tick();
        Self::evict_if_full(&mut map, self.capacity_per_shard, &self.evictions);
        map.insert(
            key,
            Entry {
                plan,
                record: Some(record.clone()),
                last_used: stamp,
            },
        );
        Ok(())
    }

    /// Every cached tuning record (for wisdom export). Pinned variant
    /// entries carry no record and are skipped. Order is
    /// deterministic: sorted by the record's dims label and direction.
    pub fn export_records(&self) -> Vec<TuningRecord> {
        let mut out: Vec<TuningRecord> = Vec::new();
        for shard in &self.shards {
            let map = lock_tolerant(shard);
            out.extend(map.values().filter_map(|e| e.record.clone()));
        }
        out.sort_by(|a, b| {
            (a.dims.label(), format!("{:?}", a.dir))
                .cmp(&(b.dims.label(), format!("{:?}", b.dir)))
        });
        out
    }

    /// Cached entry count across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock_tolerant(s).len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reads the cache's registry counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
        }
    }

    fn evict_if_full(map: &mut HashMap<PlanKey, Entry>, capacity: usize, evictions: &Counter) {
        if map.len() < capacity {
            return;
        }
        // Evict the least recently used entry of this shard.
        if let Some(victim) = map
            .iter()
            .min_by_key(|(_, e)| e.last_used)
            .map(|(k, _)| k.clone())
        {
            map.remove(&victim);
            evictions.inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::TunerOptions;
    use bwfft_machine::presets;

    fn fp() -> HostFingerprint {
        HostFingerprint {
            cpus: 8,
            pin_works: true,
            llc_bytes: 8 << 20,
        }
    }

    fn model_tuner() -> Tuner {
        Tuner::new(TunerOptions {
            model_only: true,
            ..TunerOptions::for_model(presets::kaby_lake_7700k())
        })
    }

    fn model_cache() -> PlanCache {
        PlanCache::new(model_tuner(), fp())
    }

    #[test]
    fn second_request_is_a_hit_with_one_search() {
        let cache = model_cache();
        let dims = Dims::d2(64, 64);
        let a = cache.get_or_tune(dims, Direction::Forward).unwrap();
        let b = cache.get_or_tune(dims, Direction::Forward).unwrap();
        // Same Arc: no re-search, no re-build.
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1), "{s:?}");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn direction_is_part_of_the_key() {
        let cache = model_cache();
        let dims = Dims::d2(64, 64);
        cache.get_or_tune(dims, Direction::Forward).unwrap();
        cache.get_or_tune(dims, Direction::Inverse).unwrap();
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn concurrent_same_key_requests_search_once() {
        let cache = Arc::new(model_cache());
        let dims = Dims::d3(32, 32, 32);
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = Arc::clone(&cache);
            handles.push(std::thread::spawn(move || {
                c.get_or_tune(dims, Direction::Forward).unwrap()
            }));
        }
        let plans: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for p in &plans[1..] {
            assert!(Arc::ptr_eq(&plans[0], p));
        }
        let s = cache.stats();
        assert_eq!(s.misses, 1, "exactly one search: {s:?}");
        assert_eq!(s.hits, 3, "{s:?}");
    }

    #[test]
    fn eviction_is_counted_and_bounded() {
        // One shard, one slot: the second insert evicts the first.
        let cache = PlanCache::with_geometry(model_tuner(), fp(), 1, 1, &Registry::new());
        cache.get_or_tune(Dims::d2(64, 64), Direction::Forward).unwrap();
        cache.get_or_tune(Dims::d2(32, 32), Direction::Forward).unwrap();
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().evictions, 1);
        // The evicted key re-tunes (miss #3).
        cache.get_or_tune(Dims::d2(64, 64), Direction::Forward).unwrap();
        assert_eq!(cache.stats().misses, 3);
    }

    #[test]
    fn seed_skips_search_and_counters() {
        let cache = model_cache();
        let dims = Dims::d2(64, 64);
        let record = cache.tuner().tune(dims, Direction::Forward).unwrap();
        cache.seed(&record).unwrap();
        assert_eq!(cache.stats(), CacheStats::default());
        assert!(cache.contains(dims, Direction::Forward));
        // Now the first get_or_tune is already a hit: tuning skipped.
        cache.get_or_tune(dims, Direction::Forward).unwrap();
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 0), "{s:?}");
    }

    #[test]
    fn export_returns_sorted_records() {
        let cache = model_cache();
        cache.get_or_tune(Dims::d2(64, 64), Direction::Forward).unwrap();
        cache.get_or_tune(Dims::d2(32, 32), Direction::Forward).unwrap();
        let recs = cache.export_records();
        assert_eq!(recs.len(), 2);
        assert!(recs[0].dims.label() <= recs[1].dims.label());
    }

    fn build_variant(dims: Dims, v: PlanVariant) -> Result<FftPlan, bwfft_core::PlanError> {
        FftPlan::builder(dims)
            .direction(Direction::Forward)
            .buffer_elems(v.buffer_elems)
            .threads(v.p_d, v.p_c)
            .build()
    }

    #[test]
    fn pinned_variant_hits_on_repeat_and_builds_once() {
        let cache = model_cache();
        let dims = Dims::d2(64, 64);
        let v = PlanVariant {
            buffer_elems: 256,
            p_d: 1,
            p_c: 1,
        };
        let a = cache
            .get_or_build(dims, Direction::Forward, v, || build_variant(dims, v))
            .unwrap();
        let b = cache
            .get_or_build(dims, Direction::Forward, v, || -> Result<_, bwfft_core::PlanError> {
                panic!("second request must not rebuild")
            })
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1), "{s:?}");
    }

    #[test]
    fn distinct_variants_do_not_alias() {
        let cache = model_cache();
        let dims = Dims::d2(64, 64);
        let small = PlanVariant {
            buffer_elems: 256,
            p_d: 1,
            p_c: 1,
        };
        let wide = PlanVariant {
            buffer_elems: 512,
            p_d: 2,
            p_c: 1,
        };
        let a = cache
            .get_or_build(dims, Direction::Forward, small, || {
                build_variant(dims, small)
            })
            .unwrap();
        let b = cache
            .get_or_build(dims, Direction::Forward, wide, || build_variant(dims, wide))
            .unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn pinned_variants_never_alias_tuned_entries_or_export() {
        let cache = model_cache();
        let dims = Dims::d2(64, 64);
        cache.get_or_tune(dims, Direction::Forward).unwrap();
        let v = PlanVariant {
            buffer_elems: 256,
            p_d: 1,
            p_c: 1,
        };
        cache
            .get_or_build(dims, Direction::Forward, v, || build_variant(dims, v))
            .unwrap();
        // Two distinct entries for the same shape...
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().misses, 2);
        // ...but only the tuned one carries wisdom.
        assert_eq!(cache.export_records().len(), 1);
    }

    #[test]
    fn get_or_build_propagates_the_builder_error() {
        let cache = model_cache();
        // A 2D shape whose row is not a power of two fails to plan.
        let dims = Dims::d2(3, 64);
        let v = PlanVariant {
            buffer_elems: 0,
            p_d: 1,
            p_c: 1,
        };
        let err = cache.get_or_build(dims, Direction::Forward, v, || build_variant(dims, v));
        assert!(err.is_err());
        // The failure is not cached: nothing was inserted.
        assert!(cache.is_empty());
    }

    #[test]
    fn get_counts_misses_for_absent_keys() {
        let cache = model_cache();
        assert!(cache.get(Dims::d2(8, 8), Direction::Forward).is_none());
        assert_eq!(cache.stats().misses, 1);
        assert!(cache.is_empty());
    }
}
