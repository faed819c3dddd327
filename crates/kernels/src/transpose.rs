//! The data side of the soft-DMA engine: the contiguous load through a
//! read matrix `R_{b,i}`, and the store through a write matrix
//! `W_{b,i}` that folds the `(L ⊗ I_μ)` transposition or `(K ⊗ I_μ)`
//! rotation of §III-A into the store itself.
//!
//! The paper's key observation is that the reshape must move whole
//! cachelines: the `⊗ I_μ` blocking turns an element-wise transpose
//! (one element per cacheline touched — 1/4 utilization for complex
//! doubles) into μ-element packet moves (full utilization), and lets
//! the store side use non-temporal instructions.

use crate::simd;
use bwfft_num::Complex64;
use bwfft_spl::gather_scatter::{StagePerm, WriteMatrix};

/// Stores a computed buffer block back to main memory through a write
/// matrix, moving `μ`-packets with non-temporal stores when available —
/// the store half of the soft-DMA engine.
///
/// `range` selects the packet sub-range this thread owns (in packets),
/// so `p_d` data threads can split one store among themselves (§III-C).
pub fn store_through_write_matrix(
    buf: &[Complex64],
    dst: &mut [Complex64],
    w: &WriteMatrix,
    range: core::ops::Range<usize>,
    non_temporal: bool,
) {
    let run = effective_run(&w.perm, w.b);
    let packets = w.b / run;
    assert!(range.end <= packets);
    let base = w.i * w.b;
    for t in range {
        let src_off = t * run;
        let d = w.perm.dst_of_src(base + src_off);
        let s_slice = &buf[src_off..src_off + run];
        let d_slice = &mut dst[d..d + run];
        if non_temporal {
            simd::copy_nt(s_slice, d_slice);
        } else {
            d_slice.copy_from_slice(s_slice);
        }
    }
}

/// Number of packets a write matrix decomposes its block into.
pub fn write_matrix_packets(w: &WriteMatrix) -> usize {
    w.b / effective_run(&w.perm, w.b)
}

fn effective_run(perm: &StagePerm, b: usize) -> usize {
    let mut run = perm.contiguous_run().clamp(1, b);
    if !b.is_multiple_of(run) {
        run = 1;
    }
    run
}

/// Loads a contiguous block from main memory into the buffer (the read
/// matrix `R_{b,i}`), optionally splitting across data threads.
pub fn load_contiguous(
    src: &[Complex64],
    buf: &mut [Complex64],
    block_start: usize,
    range: core::ops::Range<usize>,
) {
    buf[range.clone()].copy_from_slice(&src[block_start + range.start..block_start + range.end]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwfft_num::signal::random_complex;
    use bwfft_num::AlignedVec;
    use bwfft_spl::gather_scatter::fft3d_stage_perms;

    #[test]
    fn store_through_write_matrix_full_range() {
        let (k, n, m, mu) = (2usize, 4, 16, 4);
        let total = k * n * m;
        let b = 32;
        let perm = fft3d_stage_perms(k, n, m, mu)[0];
        let x = random_complex(total, 52);
        // Reference: scatter every block with WriteMatrix::store.
        let mut expect = AlignedVec::<Complex64>::zeroed(total);
        let mut got = AlignedVec::<Complex64>::zeroed(total);
        for i in 0..total / b {
            let w = WriteMatrix::new(perm, b, i);
            let block = &x[i * b..(i + 1) * b];
            w.store(block, &mut expect);
            let packets = write_matrix_packets(&w);
            store_through_write_matrix(block, &mut got, &w, 0..packets, true);
        }
        assert_eq!(&got[..], &expect[..]);
    }

    #[test]
    fn store_split_across_threads_covers_block() {
        let (k, n, m, mu) = (2usize, 2, 16, 4);
        let total = k * n * m;
        let b = 16;
        let perm = fft3d_stage_perms(k, n, m, mu)[1];
        let x = random_complex(total, 53);
        let mut whole = AlignedVec::<Complex64>::zeroed(total);
        let mut split = AlignedVec::<Complex64>::zeroed(total);
        for i in 0..total / b {
            let w = WriteMatrix::new(perm, b, i);
            let block = &x[i * b..(i + 1) * b];
            let packets = write_matrix_packets(&w);
            store_through_write_matrix(block, &mut whole, &w, 0..packets, false);
            // Two "data threads" each store half the packets.
            let mid = packets / 2;
            store_through_write_matrix(block, &mut split, &w, 0..mid, true);
            store_through_write_matrix(block, &mut split, &w, mid..packets, true);
        }
        assert_eq!(&split[..], &whole[..]);
    }

    #[test]
    fn load_contiguous_ranges_partition() {
        let src = random_complex(64, 54);
        let mut buf = vec![Complex64::ZERO; 16];
        load_contiguous(&src, &mut buf, 32, 0..8);
        load_contiguous(&src, &mut buf, 32, 8..16);
        assert_eq!(&buf[..], &src[32..48]);
    }
}
