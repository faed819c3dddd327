//! `bwfft-core` — large bandwidth-efficient multidimensional FFTs.
//!
//! The paper's contribution, as a library: 2D and 3D complex
//! double-precision FFTs that repurpose half the hardware threads as
//! *soft DMA engines*, streaming blocks between main memory and an
//! LLC-resident double buffer (with the inter-stage reshape folded into
//! non-temporal stores) while the other half computes batched 1D FFT
//! kernels on cached data.
//!
//! Two execution paths share every plan:
//!
//! * [`exec_real`] — actual OS threads on the host; produces correct
//!   transform values, verified against the naive MDFT oracle.
//! * [`exec_sim`] — the same schedule driven through the machine
//!   simulator of `bwfft-machine`, producing the performance figures of
//!   the paper's evaluation on the five §V machine presets.
//!
//! ```
//! use bwfft_core::{FftPlan, Dims};
//! use bwfft_kernels::Direction;
//! use bwfft_num::{signal, AlignedVec, Complex64};
//!
//! // Plan a 32×32×32 forward FFT with 2 data + 2 compute threads.
//! let plan = FftPlan::builder(Dims::d3(32, 32, 32))
//!     .buffer_elems(4096)
//!     .threads(2, 2)
//!     .build()
//!     .unwrap();
//! let mut data = AlignedVec::from_slice(&signal::impulse(32 * 32 * 32, 0));
//! let mut work = AlignedVec::<Complex64>::zeroed(data.len());
//! bwfft_core::exec_real::execute(&plan, &mut data, &mut work).unwrap();
//! // DFT of a unit impulse at 0 is all-ones.
//! assert!((data[12345].re - 1.0).abs() < 1e-9);
//! ```
//!
//! Every fallible operation returns a typed [`CoreError`]; worker
//! panics inside the pipeline are contained and surface as
//! `CoreError::Pipeline(PipelineError::WorkerPanicked { .. })` instead
//! of aborting the process. Plans built with
//! [`plan::FftPlanBuilder::adapt_to_host`] degrade gracefully (see
//! [`host`]) on machines that cannot sustain the soft-DMA pipeline.

pub mod error;
pub mod exec_real;
pub mod fft1d;
pub mod exec_sim;
pub mod host;
pub mod metrics;
pub mod plan;
pub mod profile;
pub mod real;
pub mod reference;
pub mod supervisor;

pub use error::CoreError;
pub use exec_real::{ExecConfig, ExecReport};
pub use host::{DegradationReason, ExecutorKind, HostProfile};
pub use plan::{Dims, FftPlan, FftPlanBuilder, PlanError};
pub use real::{RealFftPlan, RealFftPlanBuilder, SpectralConvPlan};
pub use reference::execute_reference;
pub use supervisor::{
    RecoveryAction, RecoveryEvent, RecoveryTier, RetryPolicy, SupervisedReport, Supervisor,
};
