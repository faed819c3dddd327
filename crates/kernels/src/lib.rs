//! Numeric FFT kernels.
//!
//! This crate is the workspace's answer to the SPIRAL-generated AVX/SSE
//! kernels of the paper (§III-D): hand-written, verified, cache-aware
//! 1D FFT kernels and the data-movement kernels they compose with.
//!
//! * [`reference`] — naive `O(n²)` DFT and row-column MDFT oracles.
//! * [`twiddle`] — precomputed twiddle tables.
//! * [`radix2`] — in-place radix-2 DIT FFT (bit-reversed reorder), the
//!   independent oracle the Stockham kernel is tested against.
//! * [`stockham`] — Stockham autosort FFT, the only power-of-two
//!   kernel; natively computes the strided form `DFT_n ⊗ I_s`.
//! * [`batch`] — batched pencil kernels `I_c ⊗ DFT_m` and
//!   `I_c ⊗ DFT_n ⊗ I_μ` over buffers (§III-B "Compute" task); with
//!   `c = s = 1` it is also the plain reusable 1D FFT plan.
//! * [`bluestein`] — Bluestein's chirp-z transform for sizes that are
//!   not powers of two, and the `AnyFft` size dispatcher.
//! * [`layout`] — interleaved ↔ block-interleaved format changes (§IV).
//! * [`transpose`] — cacheline-blocked transpose / rotation kernels,
//!   temporal and non-temporal (§III-A reshapes, §IV non-temporal ops).
//! * [`simd`] — AVX2/FMA paths with runtime dispatch and portable
//!   fallbacks, plus non-temporal streaming copy.
//! * [`realfft`] — real-input transforms (r2c/c2r) via the half-length
//!   complex FFT, and the fused spectral-convolution pass (§13).

pub mod batch;
pub mod bluestein;
pub mod layout;
pub mod radix2;
pub mod realfft;
pub mod reference;
pub mod simd;
pub mod stockham;
pub mod transpose;
pub mod twiddle;

/// Transform direction. Inverse is unnormalized (scale by `1/N`
/// yourself, or use the `*_normalized` helpers where provided).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Direction {
    Forward,
    Inverse,
}

impl Direction {
    /// Sign of the exponent in `e^{sign·2πi/n}`.
    #[inline]
    pub fn sign(self) -> f64 {
        match self {
            Direction::Forward => -1.0,
            Direction::Inverse => 1.0,
        }
    }
}
