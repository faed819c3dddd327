//! Reference (oracle) transforms: the definitions, computed naively.
//!
//! Everything else in the workspace is tested against these. They are
//! `O(n²)` per 1D transform and must only be used on test-sized inputs.

use crate::Direction;
use bwfft_num::Complex64;

/// Naive `O(n²)` DFT: `y[k] = Σ_l x[l]·ω^{kl}` with
/// `ω = e^{∓2πi/n}` per [`Direction`].
pub fn dft_naive(x: &[Complex64], dir: Direction) -> Vec<Complex64> {
    let n = x.len();
    // `root_of_unity` reduces its exponent mod n before evaluating, so
    // the n roots, evaluated once, are bitwise the per-term values.
    let roots: Vec<Complex64> = (0..n)
        .map(|m| {
            let w = Complex64::root_of_unity(m as i64, n as u64);
            match dir {
                Direction::Forward => w,
                Direction::Inverse => w.conj(),
            }
        })
        .collect();
    let mut y = vec![Complex64::ZERO; n];
    for (k, yk) in y.iter_mut().enumerate() {
        let mut acc = Complex64::ZERO;
        for (l, xl) in x.iter().enumerate() {
            acc += *xl * roots[k * l % n];
        }
        *yk = acc;
    }
    y
}

/// Naive 2D DFT of an `n × m` row-major array, via row then column
/// naive DFTs (the separability definition).
pub fn dft2_naive(x: &[Complex64], n: usize, m: usize, dir: Direction) -> Vec<Complex64> {
    assert_eq!(x.len(), n * m);
    let mut t = vec![Complex64::ZERO; n * m];
    // Rows.
    for r in 0..n {
        let row = dft_naive(&x[r * m..(r + 1) * m], dir);
        t[r * m..(r + 1) * m].copy_from_slice(&row);
    }
    // Columns.
    let mut y = vec![Complex64::ZERO; n * m];
    let mut col = vec![Complex64::ZERO; n];
    for c in 0..m {
        for r in 0..n {
            col[r] = t[r * m + c];
        }
        let out = dft_naive(&col, dir);
        for r in 0..n {
            y[r * m + c] = out[r];
        }
    }
    y
}

/// Naive 3D DFT of a `k × n × m` row-major cube.
pub fn dft3_naive(
    x: &[Complex64],
    k: usize,
    n: usize,
    m: usize,
    dir: Direction,
) -> Vec<Complex64> {
    assert_eq!(x.len(), k * n * m);
    // 2D transform of each z-slab, then 1D along z.
    let mut t = vec![Complex64::ZERO; k * n * m];
    for z in 0..k {
        let slab = dft2_naive(&x[z * n * m..(z + 1) * n * m], n, m, dir);
        t[z * n * m..(z + 1) * n * m].copy_from_slice(&slab);
    }
    let mut y = vec![Complex64::ZERO; k * n * m];
    let mut pencil = vec![Complex64::ZERO; k];
    for yy in 0..n {
        for xx in 0..m {
            for z in 0..k {
                pencil[z] = t[z * n * m + yy * m + xx];
            }
            let out = dft_naive(&pencil, dir);
            for z in 0..k {
                y[z * n * m + yy * m + xx] = out[z];
            }
        }
    }
    y
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwfft_num::compare::assert_fft_close;
    use bwfft_num::signal::{complex_tone, impulse, random_complex};

    #[test]
    fn dft_of_tone_is_a_spike() {
        let n = 32;
        let f = 5;
        let y = dft_naive(&complex_tone(n, f), Direction::Forward);
        for (k, v) in y.iter().enumerate() {
            if k == f {
                assert!((v.re - n as f64).abs() < 1e-9 && v.im.abs() < 1e-9);
            } else {
                assert!(v.abs() < 1e-9, "bin {k} should be empty, got {v}");
            }
        }
    }

    #[test]
    fn root_table_matches_per_term_roots_bitwise() {
        for (n, dir) in [(12, Direction::Forward), (64, Direction::Inverse)] {
            let x = random_complex(n, 10);
            let y = dft_naive(&x, dir);
            for (k, yk) in y.iter().enumerate() {
                let mut acc = Complex64::ZERO;
                for (l, xl) in x.iter().enumerate() {
                    let w = Complex64::root_of_unity((k * l) as i64, n as u64);
                    let w = match dir {
                        Direction::Forward => w,
                        Direction::Inverse => w.conj(),
                    };
                    acc += *xl * w;
                }
                assert_eq!(yk.re.to_bits(), acc.re.to_bits());
                assert_eq!(yk.im.to_bits(), acc.im.to_bits());
            }
        }
    }

    #[test]
    fn dft_of_impulse_is_flat() {
        let y = dft_naive(&impulse(16, 0), Direction::Forward);
        for v in &y {
            assert!((v.re - 1.0).abs() < 1e-12 && v.im.abs() < 1e-12);
        }
    }

    #[test]
    fn forward_then_inverse_recovers_input() {
        let x = random_complex(24, 11);
        let y = dft_naive(&x, Direction::Forward);
        let mut z = dft_naive(&y, Direction::Inverse);
        for v in &mut z {
            *v = v.scale(1.0 / 24.0);
        }
        assert_fft_close(&z, &x);
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let x = random_complex(64, 12);
        let y = dft_naive(&x, Direction::Forward);
        let ex: f64 = x.iter().map(|c| c.norm_sqr()).sum();
        let ey: f64 = y.iter().map(|c| c.norm_sqr()).sum();
        assert!((ey - 64.0 * ex).abs() / (64.0 * ex) < 1e-12);
    }

    #[test]
    fn dft2_matches_spl_tensor() {
        let (n, m) = (4usize, 6usize);
        let x = random_complex(n * m, 13);
        let by_naive = dft2_naive(&x, n, m, Direction::Forward);
        let by_spl = bwfft_spl::Formula::tensor(
            bwfft_spl::Formula::dft(n),
            bwfft_spl::Formula::dft(m),
        )
        .apply_vec(&x);
        assert_fft_close(&by_naive, &by_spl);
    }

    #[test]
    fn dft3_matches_spl_tensor() {
        let (k, n, m) = (2usize, 3usize, 4usize);
        let x = random_complex(k * n * m, 14);
        let by_naive = dft3_naive(&x, k, n, m, Direction::Forward);
        let by_spl = bwfft_spl::rewrite::mdft_tensor_3d(k, n, m).apply_vec(&x);
        assert_fft_close(&by_naive, &by_spl);
    }

    #[test]
    fn dft3_separability_order_does_not_matter() {
        // z-first vs xy-first must agree (Fubini for finite sums).
        let (k, n, m) = (3usize, 2usize, 4usize);
        let x = random_complex(k * n * m, 15);
        let a = dft3_naive(&x, k, n, m, Direction::Forward);
        // Alternative: 1D along z first, then 2D per slab.
        let mut t = vec![Complex64::ZERO; k * n * m];
        let mut pencil = vec![Complex64::ZERO; k];
        for yy in 0..n {
            for xx in 0..m {
                for z in 0..k {
                    pencil[z] = x[z * n * m + yy * m + xx];
                }
                let out = dft_naive(&pencil, Direction::Forward);
                for z in 0..k {
                    t[z * n * m + yy * m + xx] = out[z];
                }
            }
        }
        let mut b = vec![Complex64::ZERO; k * n * m];
        for z in 0..k {
            let slab = dft2_naive(&t[z * n * m..(z + 1) * n * m], n, m, Direction::Forward);
            b[z * n * m..(z + 1) * n * m].copy_from_slice(&slab);
        }
        assert_fft_close(&a, &b);
    }
}
