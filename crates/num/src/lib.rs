//! Numeric foundation for the `bwfft` workspace.
//!
//! This crate provides the small set of numeric building blocks shared by
//! every other crate in the workspace:
//!
//! * [`Complex64`] — a `repr(C)` double-precision complex number with the
//!   algebraic operations the FFT kernels need, including fused
//!   multiply-by-root helpers.
//! * [`AlignedVec`] — heap storage aligned to a cacheline boundary (64
//!   bytes), the granularity at which the paper moves and reshapes data.
//! * [`compare`] — error norms used by the test suites (max relative
//!   error, relative ℓ2 error).
//! * [`signal`] — deterministic test-signal generators.

pub mod aligned;
pub mod alloc;
pub mod compare;
pub mod complex;
pub mod pool;
pub mod signal;

pub use aligned::AlignedVec;
pub use alloc::{check_alloc_budget, try_vec_zeroed, AllocError};
pub use complex::Complex64;
pub use pool::{BufferPool, PoolStats, PooledBuf};

/// Number of bytes in a cacheline on every machine the paper targets.
pub const CACHELINE_BYTES: usize = 64;

/// Number of `Complex64` elements in one cacheline (the paper's `μ` for
/// double-precision complex data: 64 B / 16 B = 4).
pub const MU: usize = CACHELINE_BYTES / core::mem::size_of::<Complex64>();

/// Returns true if `n` is a power of two (and nonzero).
#[inline]
pub fn is_pow2(n: usize) -> bool {
    n != 0 && n & (n - 1) == 0
}

/// Poison-tolerant lock. A peer that panicked while holding the lock
/// leaves the data in a state every caller in this workspace can still
/// use (counters, queues, shelves, first-error slots), so the guard is
/// recovered instead of propagating the panic.
pub fn lock_tolerant<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Integer base-2 logarithm of a power of two.
///
/// # Panics
/// Panics if `n` is not a power of two.
#[inline]
pub fn log2_exact(n: usize) -> u32 {
    assert!(is_pow2(n), "log2_exact: {n} is not a power of two");
    n.trailing_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mu_is_four_for_complex_double() {
        assert_eq!(MU, 4);
    }

    #[test]
    fn pow2_predicates() {
        assert!(is_pow2(1));
        assert!(is_pow2(2));
        assert!(is_pow2(1024));
        assert!(!is_pow2(0));
        assert!(!is_pow2(3));
        assert!(!is_pow2(1023));
    }

    #[test]
    fn log2_of_powers() {
        for k in 0..40 {
            assert_eq!(log2_exact(1usize << k), k);
        }
    }

    #[test]
    #[should_panic]
    fn log2_rejects_non_pow2() {
        let _ = log2_exact(12);
    }
}
