//! Planning the out-of-core four-step decomposition.
//!
//! [`plan`] picks the `n1 × n2` split, the double-buffer half size,
//! and the padded row strides from the machine description plus a
//! caller-set working-memory budget, rejecting infeasible pairings
//! with typed errors instead of allocating and hoping.
//!
//! Budget accounting is deliberately coarse and conservative: a half
//! of `H` elements charges `64·H` bytes — the two 16-byte-element
//! halves (`32·H`) plus headroom for the buffer canaries and the
//! per-thread transpose gather scratch (both small multiples of a
//! block row) and for the four-step twiddle table: `n1 + n2` roots,
//! `16·(n1 + n2)` bytes (32 KiB at `n = 2^20`). The planner takes the
//! largest power-of-two `H` under that charge, clamped to
//! `[max(n1, n2), n]` so every stage moves whole rows and no block
//! exceeds the matrix. Since `H ≥ max(n1, n2)`, the halves and the
//! table together take `32·H + 16·(n1 + n2) ≤ 64·H` bytes.

use crate::error::OocError;
use crate::store::padded_stride;
use bwfft_core::supervisor::RetryPolicy;
use bwfft_kernels::Direction;
use bwfft_machine::{presets, MachineSpec};
use bwfft_pipeline::exec::IntegrityConfig;
use bwfft_trace::TraceCollector;
use std::sync::Arc;

/// Bytes charged per element of double-buffer half (see module docs).
pub const BYTES_PER_HALF_ELEM: usize = 64;

/// Which streamed stage an injected storage fault should hit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OocFaultKind {
    /// Fail the block's load phase once.
    Read,
    /// Fail the block's store phase once.
    Write,
}

/// A one-shot injected storage fault (resilience drills): stage
/// `stage` (0–4), block `iter`, read or write side. The fault fires
/// exactly once per run; the retry ladder must absorb it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OocFault {
    pub stage: usize,
    pub iter: usize,
    pub kind: OocFaultKind,
}

/// How a resume re-checks journaled block checksums against the bytes
/// actually in the scratch stores before trusting them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResumeVerify {
    /// Re-verify up to this many evenly spaced blocks per stage —
    /// cheap spot coverage proportional to nothing (the default).
    Sample(usize),
    /// Re-verify every journaled block (the kill-soak setting: any
    /// bit-flipped scratch block *must* be caught, not sampled past).
    All,
}

impl Default for ResumeVerify {
    fn default() -> Self {
        ResumeVerify::Sample(4)
    }
}

/// What an injected crash point does once its journal record commits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashMode {
    /// `std::process::abort()` — a real hard kill (no destructors, no
    /// unwinding), the CLI child's flavor in the kill/restart soak.
    Abort,
    /// Stop the run with a typed [`crate::OocError::CrashPoint`] —
    /// the in-process flavor for library tests, which cannot abort
    /// the test runner.
    Halt,
}

/// Crash the run immediately after the journal record for
/// `(stage, block)` is durably committed — the most adversarial
/// instant, because the record exists but nothing after it does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashPoint {
    pub stage: usize,
    pub block: usize,
    pub mode: CrashMode,
}

/// Checkpointing knobs, consulted only when a run carries a journal.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Resume-time checksum re-verification policy.
    pub resume_verify: ResumeVerify,
    /// Injected crash point (kill-soak / crash-safety drills).
    pub crash: Option<CrashPoint>,
}

/// Caller knobs for an out-of-core run.
#[derive(Clone, Debug)]
pub struct OocConfig {
    pub dir: Direction,
    /// Working-memory budget in bytes for the streaming buffer.
    pub budget_bytes: usize,
    /// Data (soft-DMA) threads per stage.
    pub p_d: usize,
    /// Compute threads per stage.
    pub p_c: usize,
    /// Machine description: supplies the LLC geometry for the padded
    /// strides and the default budget.
    pub spec: MachineSpec,
    /// Per-stage retry ladder (attempts, backoff) before the serial
    /// fallback tier. Its `max_shrinks` and `watchdog` do not apply:
    /// the storage ladder neither shrinks buffers nor arms a watchdog.
    pub retry: RetryPolicy,
    /// Pipeline integrity guards (canaries + checksums) per stage.
    pub integrity: IntegrityConfig,
    /// One-shot injected storage fault.
    pub fault: Option<OocFault>,
    /// Span/mark sink shared with the in-RAM executors.
    pub trace: Option<Arc<TraceCollector>>,
    /// Checkpointing knobs; inert unless the run carries a journal
    /// (see [`crate::run_checkpointed`]).
    pub checkpoint: CheckpointConfig,
}

impl Default for OocConfig {
    fn default() -> Self {
        let spec = presets::kaby_lake_7700k();
        // Default budget: an LLC-sized working set, the paper's target
        // residency for the streaming buffer.
        let budget_bytes = spec.llc().size_bytes.max(1 << 20);
        OocConfig {
            dir: Direction::Forward,
            budget_bytes,
            p_d: 1,
            p_c: 1,
            spec,
            retry: RetryPolicy::default(),
            integrity: IntegrityConfig::default(),
            fault: None,
            trace: None,
            checkpoint: CheckpointConfig::default(),
        }
    }
}

/// A feasible out-of-core decomposition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OocPlan {
    /// Transform length.
    pub n: usize,
    /// Row count of the input matrix (`n = n1 · n2`, `n1 >= n2`).
    pub n1: usize,
    /// Column count of the input matrix.
    pub n2: usize,
    /// Elements per double-buffer half.
    pub half_elems: usize,
    /// Padded stride (elements) for stores with `n1` columns.
    pub stride_cols_n1: usize,
    /// Padded stride (elements) for stores with `n2` columns.
    pub stride_cols_n2: usize,
    pub dir: Direction,
    pub p_d: usize,
    pub p_c: usize,
}

impl OocPlan {
    /// Blocks streamed by a stage over a matrix with `cols` columns.
    pub fn iters_for_cols(&self, rows: usize, cols: usize) -> usize {
        rows / (self.half_elems / cols).min(rows)
    }

    /// Total logical payload bytes of the input signal.
    pub fn data_bytes(&self) -> u64 {
        (self.n * crate::store::ELEM_BYTES) as u64
    }
}

/// Plans an out-of-core 1D transform of length `n` under `cfg`.
pub fn plan(n: usize, cfg: &OocConfig) -> Result<OocPlan, OocError> {
    if !n.is_power_of_two() {
        return Err(OocError::NotPow2 { n });
    }
    if n < 4 {
        return Err(OocError::TooSmall { n });
    }
    let e = n.trailing_zeros() as usize;
    let n2 = 1usize << (e / 2);
    let n1 = n / n2; // n1 >= n2, both powers of two
    let row_max = n1.max(n2);
    let needed = row_max * BYTES_PER_HALF_ELEM;
    if cfg.budget_bytes < needed {
        return Err(OocError::BudgetTooSmall {
            needed,
            budget: cfg.budget_bytes,
        });
    }
    // Largest power-of-two half under the budget charge, clamped so a
    // block never exceeds the whole matrix.
    let mut half = (cfg.budget_bytes / BYTES_PER_HALF_ELEM).max(1);
    if !half.is_power_of_two() {
        half = (half + 1).next_power_of_two() >> 1;
    }
    let half_elems = half.min(n).max(row_max);
    Ok(OocPlan {
        n,
        n1,
        n2,
        half_elems,
        stride_cols_n1: padded_stride(n1, &cfg.spec),
        stride_cols_n2: padded_stride(n2, &cfg.spec),
        dir: cfg.dir,
        p_d: cfg.p_d.max(1),
        p_c: cfg.p_c.max(1),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_is_balanced_and_exact() {
        let cfg = OocConfig::default();
        for e in 2..=20 {
            let n = 1usize << e;
            let p = plan(n, &cfg).unwrap();
            assert_eq!(p.n1 * p.n2, n);
            assert!(p.n1 == p.n2 || p.n1 == 2 * p.n2);
            assert!(p.half_elems >= p.n1.max(p.n2));
            assert!(p.half_elems <= n.max(p.n1));
        }
    }

    #[test]
    fn non_pow2_and_tiny_sizes_are_typed_errors() {
        let cfg = OocConfig::default();
        assert!(matches!(plan(1000, &cfg), Err(OocError::NotPow2 { n: 1000 })));
        assert!(matches!(plan(2, &cfg), Err(OocError::TooSmall { n: 2 })));
    }

    #[test]
    fn budget_floor_is_enforced() {
        let cfg = OocConfig {
            budget_bytes: 64, // one element per half: can't hold a row
            ..OocConfig::default()
        };
        match plan(1 << 16, &cfg) {
            Err(OocError::BudgetTooSmall { needed, budget }) => {
                assert_eq!(budget, 64);
                assert_eq!(needed, 256 * BYTES_PER_HALF_ELEM);
            }
            other => panic!("expected BudgetTooSmall, got {other:?}"),
        }
    }

    #[test]
    fn halves_and_twiddle_table_fit_the_budget() {
        use crate::store::ELEM_BYTES;
        for e in 2..=24 {
            let n = 1usize << e;
            let tight = (n >> (e / 2)) * BYTES_PER_HALF_ELEM;
            for budget_bytes in [tight, 4 * tight] {
                let p = plan(
                    n,
                    &OocConfig {
                        budget_bytes,
                        ..OocConfig::default()
                    },
                )
                .unwrap();
                let used = 2 * ELEM_BYTES * p.half_elems + ELEM_BYTES * (p.n1 + p.n2);
                assert!(used <= budget_bytes, "n=2^{e}: {used} > {budget_bytes}");
            }
        }
    }

    #[test]
    fn budget_scales_the_half() {
        let n = 1 << 16;
        let small = plan(
            n,
            &OocConfig {
                budget_bytes: 256 * BYTES_PER_HALF_ELEM,
                ..OocConfig::default()
            },
        )
        .unwrap();
        let large = plan(
            n,
            &OocConfig {
                budget_bytes: 4096 * BYTES_PER_HALF_ELEM,
                ..OocConfig::default()
            },
        )
        .unwrap();
        assert_eq!(small.half_elems, 256);
        assert_eq!(large.half_elems, 4096);
    }
}
