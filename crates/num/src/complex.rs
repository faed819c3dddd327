//! Double-precision complex arithmetic.
//!
//! The workspace deliberately carries its own complex type instead of
//! pulling in `num-complex`: the layout (`repr(C)`, 16 bytes, re then im)
//! is load-bearing — cacheline blocking (four elements per 64-byte line)
//! and the SIMD butterflies and streaming copies in `bwfft-kernels` all
//! assume it.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A double-precision complex number, laid out as `[re, im]` in memory.
#[derive(Copy, Clone, Default, PartialEq)]
#[repr(C)]
pub struct Complex64 {
    pub re: f64,
    pub im: f64,
}

impl Complex64 {
    pub const ZERO: Self = Self { re: 0.0, im: 0.0 };
    pub const ONE: Self = Self { re: 1.0, im: 0.0 };
    pub const I: Self = Self { re: 0.0, im: 1.0 };

    #[inline(always)]
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// `e^{iθ}` — a point on the unit circle.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        let (s, c) = theta.sin_cos();
        Self { re: c, im: s }
    }

    /// The primitive `n`-th root of unity used by the DFT:
    /// `ω_n^k = e^{-2πik/n}`.
    ///
    /// Exact values are returned for the quadrant angles so that twiddle
    /// tables for power-of-two sizes carry no spurious `~1e-17` noise on
    /// the axes.
    pub fn root_of_unity(k: i64, n: u64) -> Self {
        assert!(n > 0);
        let k = k.rem_euclid(n as i64) as u64;
        let (num, den) = reduce(k, n);
        match (num, den) {
            (0, _) => Self::ONE,
            (1, 4) => Self::new(0.0, -1.0),
            (1, 2) => Self::new(-1.0, 0.0),
            (3, 4) => Self::new(0.0, 1.0),
            _ => Self::cis(-2.0 * core::f64::consts::PI * (k as f64) / (n as f64)),
        }
    }

    #[inline(always)]
    pub fn conj(self) -> Self {
        Self::new(self.re, -self.im)
    }

    #[inline(always)]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Multiplication by `i` (a 90° rotation) without any multiplies.
    #[inline(always)]
    pub fn mul_i(self) -> Self {
        Self::new(-self.im, self.re)
    }

    /// Multiplication by `-i`.
    #[inline(always)]
    pub fn mul_neg_i(self) -> Self {
        Self::new(self.im, -self.re)
    }

    /// `self * w` expressed with explicit FMA-friendly ordering; the
    /// kernels rely on LLVM contracting these into `vfmadd` sequences.
    #[inline(always)]
    pub fn mul_add_style(self, w: Self) -> Self {
        Self::new(
            self.re * w.re - self.im * w.im,
            self.re * w.im + self.im * w.re,
        )
    }

    /// Multiplicative inverse.
    #[inline]
    pub fn recip(self) -> Self {
        let d = self.norm_sqr();
        Self::new(self.re / d, -self.im / d)
    }

    #[inline]
    pub fn scale(self, s: f64) -> Self {
        Self::new(self.re * s, self.im * s)
    }

    /// True if either component is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        self.re.is_nan() || self.im.is_nan()
    }
}

fn reduce(mut a: u64, mut b: u64) -> (u64, u64) {
    fn gcd(mut x: u64, mut y: u64) -> u64 {
        while y != 0 {
            let t = x % y;
            x = y;
            y = t;
        }
        x
    }
    if a == 0 {
        return (0, 1);
    }
    let g = gcd(a, b);
    a /= g;
    b /= g;
    (a, b)
}

impl fmt::Debug for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

impl fmt::Display for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl Add for Complex64 {
    type Output = Self;
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        Self::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex64 {
    type Output = Self;
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        Self::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex64 {
    type Output = Self;
    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        self.mul_add_style(rhs)
    }
}

impl Div for Complex64 {
    type Output = Self;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // z / w == z * w⁻¹
    fn div(self, rhs: Self) -> Self {
        self * rhs.recip()
    }
}

impl Neg for Complex64 {
    type Output = Self;
    #[inline(always)]
    fn neg(self) -> Self {
        Self::new(-self.re, -self.im)
    }
}

impl Mul<f64> for Complex64 {
    type Output = Self;
    #[inline(always)]
    fn mul(self, rhs: f64) -> Self {
        self.scale(rhs)
    }
}

impl AddAssign for Complex64 {
    #[inline(always)]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl SubAssign for Complex64 {
    #[inline(always)]
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl MulAssign for Complex64 {
    #[inline(always)]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl Sum for Complex64 {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |a, b| a + b)
    }
}

impl From<f64> for Complex64 {
    #[inline]
    fn from(re: f64) -> Self {
        Self::new(re, 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Complex64, b: Complex64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn field_axioms_spot_checks() {
        let a = Complex64::new(1.5, -2.0);
        let b = Complex64::new(-0.25, 3.0);
        let c = Complex64::new(4.0, 0.5);
        assert!(close(a + b, b + a));
        assert!(close(a * b, b * a));
        assert!(close(a * (b + c), a * b + a * c));
        assert!(close(a * a.recip(), Complex64::ONE));
        assert!(close(a / b * b, a));
    }

    #[test]
    fn roots_of_unity_quadrants_are_exact() {
        assert_eq!(Complex64::root_of_unity(0, 8), Complex64::new(1.0, 0.0));
        assert_eq!(Complex64::root_of_unity(2, 8), Complex64::new(0.0, -1.0));
        assert_eq!(Complex64::root_of_unity(4, 8), Complex64::new(-1.0, 0.0));
        assert_eq!(Complex64::root_of_unity(6, 8), Complex64::new(0.0, 1.0));
    }

    #[test]
    fn roots_of_unity_cycle_and_multiply() {
        let n = 16u64;
        for k in 0..n as i64 {
            let w = Complex64::root_of_unity(k, n);
            assert!((w.abs() - 1.0).abs() < 1e-14);
            // ω^k · ω^(n-k) = 1
            let wk = Complex64::root_of_unity(n as i64 - k, n);
            assert!(close(w * wk, Complex64::ONE));
        }
        // ω_n^k == ω_{2n}^{2k}
        for k in 0..16 {
            assert!(close(
                Complex64::root_of_unity(k, 16),
                Complex64::root_of_unity(2 * k, 32)
            ));
        }
    }

    #[test]
    fn root_of_unity_negative_index_wraps() {
        assert!(close(
            Complex64::root_of_unity(-3, 8),
            Complex64::root_of_unity(5, 8)
        ));
    }

    #[test]
    fn mul_i_matches_multiplication() {
        let a = Complex64::new(3.0, -7.0);
        assert!(close(a.mul_i(), a * Complex64::I));
        assert!(close(a.mul_neg_i(), a * Complex64::new(0.0, -1.0)));
    }

    #[test]
    fn conj_properties() {
        let a = Complex64::new(2.0, 5.0);
        let b = Complex64::new(-1.0, 0.5);
        assert!(close((a * b).conj(), a.conj() * b.conj()));
        assert!((a * a.conj()).im.abs() < 1e-15);
        assert!(((a * a.conj()).re - a.norm_sqr()).abs() < 1e-12);
    }
}
