//! The last-resort reference executor.
//!
//! A plain row-column pencil FFT with none of the machinery the other
//! executors depend on: no shared double buffer, no threads, no
//! barriers, no write-matrix stores — just strided pencil gathers and
//! the 1D kernel. It is the supervisor's final escalation tier: when
//! both the pipelined and the fused executors keep failing, this one
//! still produces the transform (and deliberately ignores every
//! injected fault, the way a cold-standby implementation would not
//! share the primary's failure modes).
//!
//! The row-column loops are public because they are also the
//! benchmark baselines: `bwfft-baselines` times them as the
//! pencil-pencil and slab-pencil FFTs the paper compares against.

use crate::error::CoreError;
use crate::plan::{Dims, FftPlan};
use bwfft_kernels::{Direction, Fft1d};
use bwfft_num::{try_vec_zeroed, Complex64};

/// Transforms `data` in place per the plan's dims and direction using
/// the row-column reference algorithm. Only the plan's *transform*
/// fields (dims, direction) matter; buffer size, thread counts and
/// executor choice are ignored.
///
/// Scratch pencils go through the fallible allocation path, so even
/// this tier reports OOM as a typed error rather than aborting — but
/// its scratch is one pencil, orders of magnitude smaller than the
/// buffers the other executors need.
pub fn execute_reference(plan: &FftPlan, data: &mut [Complex64]) -> Result<(), CoreError> {
    let total = plan.dims.total();
    if data.len() != total {
        return Err(CoreError::InputLength {
            what: "data",
            expected: total,
            got: data.len(),
        });
    }
    match plan.dims {
        Dims::Two { n, m } => reference_2d(data, n, m, plan.dir),
        Dims::Three { k, n, m } => reference_3d(data, k, n, m, plan.dir),
    }
}

/// Row-column 2D FFT of an `n × m` row-major array: contiguous rows,
/// then stride-`m` columns through one gathered pencil.
pub fn reference_2d(
    data: &mut [Complex64],
    n: usize,
    m: usize,
    dir: Direction,
) -> Result<(), CoreError> {
    let mut row_fft = Fft1d::new(m, dir);
    for row in data.chunks_exact_mut(m) {
        row_fft.run(row);
    }
    let mut col_fft = Fft1d::new(n, dir);
    let mut pencil = try_vec_zeroed::<Complex64>(n, "reference pencil")?;
    for c in 0..m {
        for r in 0..n {
            pencil[r] = data[r * m + c];
        }
        col_fft.run(&mut pencil);
        for r in 0..n {
            data[r * m + c] = pencil[r];
        }
    }
    Ok(())
}

/// Row-column 3D FFT of a `k × n × m` row-major cube: x-pencils, then
/// y-pencils slab by slab, then the z-pencil pass.
pub fn reference_3d(
    data: &mut [Complex64],
    k: usize,
    n: usize,
    m: usize,
    dir: Direction,
) -> Result<(), CoreError> {
    // Stage 1: x-pencils (contiguous rows).
    let mut x_fft = Fft1d::new(m, dir);
    for row in data.chunks_exact_mut(m) {
        x_fft.run(row);
    }
    // Stage 2: y-pencils (stride m within each slab).
    let mut y_fft = Fft1d::new(n, dir);
    let mut pencil = try_vec_zeroed::<Complex64>(n, "reference pencil")?;
    for z in 0..k {
        let slab = &mut data[z * n * m..(z + 1) * n * m];
        for x in 0..m {
            for y in 0..n {
                pencil[y] = slab[y * m + x];
            }
            y_fft.run(&mut pencil);
            for y in 0..n {
                slab[y * m + x] = pencil[y];
            }
        }
    }
    z_pencils(data, k, n, m, dir)
}

/// Stage 3 of the 3D row-column FFT on its own: the stride-`n·m`
/// z-pencils of a `k × n × m` cube.
pub fn z_pencils(
    data: &mut [Complex64],
    k: usize,
    n: usize,
    m: usize,
    dir: Direction,
) -> Result<(), CoreError> {
    let mut z_fft = Fft1d::new(k, dir);
    let mut zpencil = try_vec_zeroed::<Complex64>(k, "reference pencil")?;
    for y in 0..n {
        for x in 0..m {
            for z in 0..k {
                zpencil[z] = data[z * n * m + y * m + x];
            }
            z_fft.run(&mut zpencil);
            for z in 0..k {
                data[z * n * m + y * m + x] = zpencil[z];
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec_real::{execute, normalize};
    use bwfft_kernels::Direction;
    use bwfft_num::compare::assert_fft_close;
    use bwfft_num::signal::random_complex;

    #[test]
    fn reference_matches_pipelined_3d() {
        let (k, n, m) = (8usize, 8, 16);
        let x = random_complex(k * n * m, 120);
        let plan = FftPlan::builder(Dims::d3(k, n, m))
            .buffer_elems(128)
            .threads(2, 2)
            .build()
            .unwrap();
        let mut a = x.clone();
        let mut wa = vec![Complex64::ZERO; x.len()];
        execute(&plan, &mut a, &mut wa).unwrap();
        let mut b = x.clone();
        execute_reference(&plan, &mut b).unwrap();
        assert_fft_close(&b, &a);
    }

    #[test]
    fn reference_matches_pipelined_2d() {
        let (n, m) = (16usize, 32);
        let x = random_complex(n * m, 121);
        let plan = FftPlan::builder(Dims::d2(n, m))
            .buffer_elems(128)
            .threads(2, 2)
            .build()
            .unwrap();
        let mut a = x.clone();
        let mut wa = vec![Complex64::ZERO; x.len()];
        execute(&plan, &mut a, &mut wa).unwrap();
        let mut b = x.clone();
        execute_reference(&plan, &mut b).unwrap();
        assert_fft_close(&b, &a);
    }

    #[test]
    fn reference_roundtrip() {
        let (k, n, m) = (4usize, 8, 8);
        let x = random_complex(k * n * m, 122);
        let fwd = FftPlan::builder(Dims::d3(k, n, m))
            .buffer_elems(64)
            .build()
            .unwrap();
        let inv = FftPlan::builder(Dims::d3(k, n, m))
            .buffer_elems(64)
            .direction(Direction::Inverse)
            .build()
            .unwrap();
        let mut data = x.clone();
        execute_reference(&fwd, &mut data).unwrap();
        execute_reference(&inv, &mut data).unwrap();
        normalize(&mut data);
        assert_fft_close(&data, &x);
    }

    #[test]
    fn length_mismatch_is_typed() {
        let plan = FftPlan::builder(Dims::d3(8, 8, 8))
            .buffer_elems(64)
            .build()
            .unwrap();
        let mut short = vec![Complex64::ZERO; 100];
        let err = execute_reference(&plan, &mut short).unwrap_err();
        assert!(matches!(err, CoreError::InputLength { .. }));
    }
}
