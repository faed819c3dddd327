//! # bwfft — large bandwidth-efficient FFTs
//!
//! A Rust reproduction of Popovici, Low & Franchetti, *"Large
//! Bandwidth-Efficient FFTs on Multicore and Multi-Socket Systems"*
//! (IPDPS 2018): multidimensional FFTs that repurpose half the hardware
//! threads as soft DMA engines, double-buffering blocks through the
//! last-level cache while the remaining threads compute, with the
//! inter-stage reshape folded into non-temporal stores.
//!
//! This facade crate re-exports the workspace:
//!
//! | module | contents |
//! |---|---|
//! | [`num`] | complex scalars, aligned buffers, error norms |
//! | [`spl`] | the SPL/Kronecker formula language and rewrite rules |
//! | [`kernels`] | Stockham/radix-2 kernels, layouts, blocked reshapes |
//! | [`machine`] | simulated multicore/multi-socket machines (§V presets) |
//! | [`pipeline`] | Table II schedules, thread roles, the real executor |
//! | [`core`] | the double-buffered 2D/3D FFT plans and both executors |
//! | [`trace`] | span recorder, overlap accounting, roofline reports |
//! | [`metrics`] | lock-free counters/gauges/histograms, snapshots, flight recorder |
//! | [`tuner`] | autotuner, concurrent plan cache, persistent wisdom |
//! | [`baselines`] | MKL-like / FFTW-like / slab–pencil comparators |
//! | [`bench`] | statistical benchmark harness, `BENCH_*.json` records, regression gate |
//! | [`serve`] | overload-safe concurrent FFT service: admission control, deadlines, degradation, drain |
//! | [`ooc`] | out-of-core streaming tier: file-backed transforms larger than RAM, sampled oracles |
//! | [`real`] | real-input transforms (r2c/c2r), fused spectral convolution, spectral Poisson solve |
//!
//! ## Quickstart
//!
//! ```
//! use bwfft::core::{Dims, FftPlan};
//! use bwfft::num::{signal, AlignedVec, Complex64};
//!
//! let plan = FftPlan::builder(Dims::d3(32, 32, 32))
//!     .buffer_elems(4096)
//!     .threads(2, 2)
//!     .build()
//!     .unwrap();
//! let mut data = AlignedVec::from_slice(&signal::random_complex(32 * 32 * 32, 1));
//! let mut work = AlignedVec::<Complex64>::zeroed(data.len());
//! bwfft::core::exec_real::execute(&plan, &mut data, &mut work).unwrap();
//! ```
//!
//! ## Errors and fault tolerance
//!
//! Every fallible entry point returns its crate's typed error; worker
//! panics inside the executor are contained (no process abort, no
//! deadlock) and surface as
//! [`PipelineError::WorkerPanicked`](pipeline::PipelineError::WorkerPanicked)
//! inside [`CoreError::Pipeline`](crate::core::CoreError::Pipeline).
//! Each crate error's `is_usage()` says whether the caller's input was
//! at fault:
//!
//! ```
//! use bwfft::core::{exec_real, CoreError, Dims, FftPlan};
//! use bwfft::num::Complex64;
//! use bwfft::pipeline::PipelineError;
//!
//! let plan = FftPlan::builder(Dims::d3(8, 8, 8))
//!     .buffer_elems(64)
//!     .adapt_to_host() // degrade gracefully on weak hosts
//!     .build()
//!     .unwrap();
//! let mut data = vec![Complex64::ZERO; 512];
//! let mut work = vec![Complex64::ZERO; 512];
//! match exec_real::execute(&plan, &mut data, &mut work) {
//!     Ok(report) => {
//!         for d in &report.degradations {
//!             eprintln!("note: degraded: {d}");
//!         }
//!     }
//!     Err(CoreError::Pipeline(PipelineError::WorkerPanicked { role, thread, iter, .. })) => {
//!         eprintln!("{role:?} thread {thread} died at block {iter}");
//!     }
//!     Err(e) if e.is_usage() => eprintln!("bad input: {e}"),
//!     Err(e) => eprintln!("{e}"),
//! }
//! ```

#[cfg(test)]
mod error;
pub mod real;
pub mod soak;

pub use bwfft_baselines as baselines;
pub use bwfft_bench as bench;
pub use bwfft_core as core;
pub use bwfft_kernels as kernels;
pub use bwfft_machine as machine;
pub use bwfft_metrics as metrics;
pub use bwfft_num as num;
pub use bwfft_ooc as ooc;
pub use bwfft_pipeline as pipeline;
pub use bwfft_serve as serve;
pub use bwfft_spl as spl;
pub use bwfft_trace as trace;
pub use bwfft_tuner as tuner;
pub use soak::{
    run_ooc_kill_soak, run_serve_soak, run_soak, OocKillSoakConfig, OocKillSoakReport, OocTamper,
    ServeScenario, ServeSoakConfig, ServeSoakReport, SoakConfig, SoakReport,
};
