//! Shape-keyed pooling of [`AlignedVec`] buffers.
//!
//! A long-running FFT service executes the same handful of request
//! shapes over and over; allocating (and faulting in) fresh
//! multi-megabyte aligned arrays per request would dominate latency and
//! defeat any admission decision made earlier. [`BufferPool`] keeps
//! returned buffers on shelves keyed by element count, so the steady
//! state is allocation-free: an acquire pops a shelf, a drop of the
//! RAII [`PooledBuf`] handle pushes it back.
//!
//! The pool carries a **total byte cap** covering idle *and*
//! outstanding buffers. A miss that would exceed the cap first evicts
//! idle buffers (other shapes' cold shelves) and, if that is not
//! enough, fails with the same typed [`AllocError`] the rest of the
//! workspace uses — which is exactly what an admission controller needs
//! to shed the request instead of queueing it.

use crate::aligned::AlignedVec;
use crate::alloc::AllocError;
use crate::lock_tolerant;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Counters a pool exposes for reports and tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Acquires served from a shelf (no allocation).
    pub hits: u64,
    /// Acquires that had to allocate.
    pub misses: u64,
    /// Acquires refused because the byte cap was exhausted.
    pub exhausted: u64,
    /// Buffers currently parked on shelves.
    pub idle_buffers: usize,
    /// Bytes held by checked-out buffers.
    pub outstanding_bytes: usize,
    /// Bytes held by shelved buffers.
    pub idle_bytes: usize,
}

struct PoolState<T> {
    shelves: HashMap<usize, Vec<AlignedVec<T>>>,
    outstanding_bytes: usize,
    idle_bytes: usize,
    hits: u64,
    misses: u64,
    exhausted: u64,
}

struct PoolInner<T> {
    cap_bytes: Option<usize>,
    state: Mutex<PoolState<T>>,
}

/// A thread-safe pool of cacheline-aligned buffers keyed by length.
///
/// Cloning the pool clones a handle to the same shelves.
pub struct BufferPool<T> {
    inner: Arc<PoolInner<T>>,
}

impl<T> Clone for BufferPool<T> {
    fn clone(&self) -> Self {
        BufferPool {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T: core::fmt::Debug> core::fmt::Debug for BufferPool<T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = self.stats();
        f.debug_struct("BufferPool")
            .field("cap_bytes", &self.inner.cap_bytes)
            .field("stats", &s)
            .finish()
    }
}

impl<T> BufferPool<T> {
    /// A pool whose idle + outstanding bytes never exceed `cap_bytes`
    /// (`None` = uncapped).
    pub fn new(cap_bytes: Option<usize>) -> Self {
        BufferPool {
            inner: Arc::new(PoolInner {
                cap_bytes,
                state: Mutex::new(PoolState {
                    shelves: HashMap::new(),
                    outstanding_bytes: 0,
                    idle_bytes: 0,
                    hits: 0,
                    misses: 0,
                    exhausted: 0,
                }),
            }),
        }
    }

    /// The configured cap.
    pub fn cap_bytes(&self) -> Option<usize> {
        self.inner.cap_bytes
    }

    /// Current counters.
    pub fn stats(&self) -> PoolStats {
        let state = lock_tolerant(&self.inner.state);
        PoolStats {
            hits: state.hits,
            misses: state.misses,
            exhausted: state.exhausted,
            idle_buffers: state.shelves.values().map(Vec::len).sum(),
            outstanding_bytes: state.outstanding_bytes,
            idle_bytes: state.idle_bytes,
        }
    }
}

impl<T: Copy> BufferPool<T> {
    /// Checks out a buffer of exactly `len` elements. Contents are
    /// unspecified (zeroed on first allocation, stale on reuse) — the
    /// caller overwrites them. On a miss the pool allocates, evicting
    /// idle buffers of other shapes first when the cap requires it; if
    /// the cap still cannot fit the request, returns a typed
    /// [`AllocError`] without allocating.
    pub fn acquire(&self, len: usize) -> Result<PooledBuf<T>, AllocError> {
        let bytes = len * core::mem::size_of::<T>();
        let mut state = lock_tolerant(&self.inner.state);
        if let Some(buf) = state.shelves.get_mut(&len).and_then(Vec::pop) {
            state.idle_bytes -= bytes;
            state.outstanding_bytes += bytes;
            state.hits += 1;
            return Ok(PooledBuf {
                buf: Some(buf),
                pool: Arc::clone(&self.inner),
            });
        }
        if let Some(cap) = self.inner.cap_bytes {
            // Evict cold shelves before refusing: idle bytes are ours
            // to reclaim, outstanding bytes are not.
            while state.outstanding_bytes + state.idle_bytes + bytes > cap
                && state.idle_bytes > 0
            {
                evict_one(&mut state);
            }
            if state.outstanding_bytes + state.idle_bytes + bytes > cap {
                state.exhausted += 1;
                return Err(AllocError {
                    what: "buffer pool",
                    bytes,
                });
            }
        }
        state.misses += 1;
        state.outstanding_bytes += bytes;
        // Allocate outside the accounting questions but inside the lock:
        // the cap reservation above must not race with other acquires.
        match AlignedVec::try_zeroed(len) {
            Ok(buf) => Ok(PooledBuf {
                buf: Some(buf),
                pool: Arc::clone(&self.inner),
            }),
            Err(e) => {
                state.outstanding_bytes -= bytes;
                state.misses -= 1;
                Err(e)
            }
        }
    }
}

/// Drops one idle buffer (any shape). Caller holds the lock.
fn evict_one<T>(state: &mut PoolState<T>) {
    let key = state
        .shelves
        .iter()
        .find(|(_, v)| !v.is_empty())
        .map(|(k, _)| *k);
    if let Some(len) = key {
        if let Some(shelf) = state.shelves.get_mut(&len) {
            if shelf.pop().is_some() {
                state.idle_bytes -= len * core::mem::size_of::<T>();
            }
        }
    } else {
        // No idle buffer despite idle_bytes > 0 would be an accounting
        // bug; zero the counter so the eviction loop cannot spin.
        state.idle_bytes = 0;
    }
}

/// RAII handle to a pooled buffer: derefs to the element slice and
/// returns the buffer to its shelf on drop.
pub struct PooledBuf<T> {
    buf: Option<AlignedVec<T>>,
    pool: Arc<PoolInner<T>>,
}

impl<T> core::fmt::Debug for PooledBuf<T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("PooledBuf")
            .field("len", &self.buf.as_ref().map_or(0, AlignedVec::len))
            .finish()
    }
}

impl<T> PooledBuf<T> {
    fn vec(&self) -> &AlignedVec<T> {
        // Invariant: `buf` is only None after drop.
        self.buf.as_ref().unwrap_or_else(|| unreachable!())
    }

    fn vec_mut(&mut self) -> &mut AlignedVec<T> {
        self.buf.as_mut().unwrap_or_else(|| unreachable!())
    }

    pub fn len(&self) -> usize {
        self.vec().len()
    }

    pub fn is_empty(&self) -> bool {
        self.vec().is_empty()
    }

    pub fn as_slice(&self) -> &[T] {
        self.vec().as_slice()
    }

    pub fn as_mut_slice(&mut self) -> &mut [T] {
        self.vec_mut().as_mut_slice()
    }
}

impl<T> core::ops::Deref for PooledBuf<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T> core::ops::DerefMut for PooledBuf<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        self.vec_mut().as_mut_slice()
    }
}

impl<T> Drop for PooledBuf<T> {
    fn drop(&mut self) {
        if let Some(buf) = self.buf.take() {
            let bytes = buf.len() * core::mem::size_of::<T>();
            let mut state = lock_tolerant(&self.pool.state);
            state.outstanding_bytes -= bytes;
            state.idle_bytes += bytes;
            state.shelves.entry(buf.len()).or_default().push(buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Complex64;

    #[test]
    fn acquire_release_reuses_the_same_allocation() {
        let pool = BufferPool::<Complex64>::new(None);
        let first_ptr = {
            let buf = pool.acquire(128).unwrap();
            buf.as_slice().as_ptr()
        };
        let buf = pool.acquire(128).unwrap();
        assert_eq!(buf.as_slice().as_ptr(), first_ptr);
        let s = pool.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn shapes_get_separate_shelves() {
        let pool = BufferPool::<Complex64>::new(None);
        drop(pool.acquire(64).unwrap());
        let b = pool.acquire(128).unwrap();
        assert_eq!(b.len(), 128);
        let s = pool.stats();
        assert_eq!(s.misses, 2);
        assert_eq!(s.hits, 0);
        assert_eq!(s.idle_buffers, 1);
    }

    #[test]
    fn cap_refuses_with_typed_error_and_counts_exhaustion() {
        // Cap fits exactly one 64-element buffer (1024 bytes).
        let pool = BufferPool::<Complex64>::new(Some(1024));
        let held = pool.acquire(64).unwrap();
        let err = pool.acquire(64).unwrap_err();
        assert_eq!(err.what, "buffer pool");
        assert_eq!(err.bytes, 1024);
        assert_eq!(pool.stats().exhausted, 1);
        drop(held);
        // After release the same request is a hit.
        assert!(pool.acquire(64).is_ok());
        assert_eq!(pool.stats().hits, 1);
    }

    #[test]
    fn cap_evicts_idle_shelves_before_refusing() {
        let pool = BufferPool::<Complex64>::new(Some(1024));
        drop(pool.acquire(64).unwrap()); // 1024 idle bytes
        // A different shape misses; the idle shelf must be evicted to
        // make room rather than the acquire failing.
        let b = pool.acquire(32).unwrap();
        assert_eq!(b.len(), 32);
        let s = pool.stats();
        assert_eq!(s.idle_buffers, 0);
        assert_eq!(s.outstanding_bytes, 512);
    }

    #[test]
    fn byte_accounting_balances() {
        let pool = BufferPool::<Complex64>::new(Some(1 << 20));
        let a = pool.acquire(100).unwrap();
        let b = pool.acquire(200).unwrap();
        assert_eq!(pool.stats().outstanding_bytes, 300 * 16);
        drop(a);
        let s = pool.stats();
        assert_eq!(s.outstanding_bytes, 200 * 16);
        assert_eq!(s.idle_bytes, 100 * 16);
        drop(b);
        let s = pool.stats();
        assert_eq!(s.outstanding_bytes, 0);
        assert_eq!(s.idle_bytes, 300 * 16);
        assert_eq!(s.idle_buffers, 2);
    }

    #[test]
    fn concurrent_acquires_never_exceed_the_cap() {
        let pool = BufferPool::<Complex64>::new(Some(4 * 1024));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let pool = pool.clone();
                s.spawn(move || {
                    for _ in 0..50 {
                        if let Ok(buf) = pool.acquire(64) {
                            std::hint::black_box(buf.len());
                        }
                        let st = pool.stats();
                        assert!(st.outstanding_bytes + st.idle_bytes <= 4 * 1024);
                    }
                });
            }
        });
    }
}
