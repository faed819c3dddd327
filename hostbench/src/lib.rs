//! `bwfft-hostbench` — the repository's end-to-end host benchmark.
//!
//! One binary (`bench_e2e`) runs four workloads, each in its own
//! process so peak heap and allocator state stay per workload:
//!
//! * `exec3d_large` — 128³ through `core::exec_real::execute_with`;
//! * `exec2d_small` — 64×64 through the same executor;
//! * `serve2d_small` — 64×64 requests to `serve::FftServer`, open loop;
//! * `ooc1d` — a 2^20-point out-of-core 1D transform.
//!
//! Every workload checks every output it times, reports its end-to-end
//! metrics from an untraced timed pass, and — with `--trace 1` — runs a
//! separate traced pass that times calls into the public functions of
//! each layer from the outside ([`spans`]), so the library crates carry
//! no benchmark instrumentation. Metric names, units and regression
//! bounds come from `BENCHMARK.json` ([`contract`]); README.md maps each
//! per-layer metric to the end-to-end metric and workload it should move.

pub mod contract;
pub mod exec;
pub mod measure;
pub mod ooc;
pub mod report;
pub mod serve;
pub mod spans;

use std::fmt;

/// The four workloads, in the order a full run executes them.
pub const WORKLOADS: [&str; 4] = ["exec3d_large", "exec2d_small", "serve2d_small", "ooc1d"];

/// A benchmark failure: a typed error from a library call, an I/O
/// problem, or a broken benchmark invariant, rendered for the operator.
#[derive(Debug)]
pub struct BenchError(pub String);

impl BenchError {
    pub fn new(msg: impl Into<String>) -> Self {
        BenchError(msg.into())
    }
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl<E: std::error::Error> From<E> for BenchError {
    fn from(e: E) -> Self {
        BenchError(e.to_string())
    }
}

pub type Result<T> = std::result::Result<T, BenchError>;

/// How one workload process runs.
#[derive(Clone, Debug)]
pub struct Opts {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Wall-clock budget of the timed pass.
    pub seconds: f64,
    /// Run the traced pass after the timed one.
    pub trace: bool,
    /// Tiny shapes and short phases, for the contract tests.
    pub quick: bool,
    /// Test hook: flip a bit of one output before it is checked, so the
    /// check must count it as failed.
    pub flip_bit: bool,
}

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &str) -> Self {
        Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        }
    }
}

/// What one workload process measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics from the untraced timed pass.
    pub e2e: Vec<Metric>,
    /// Per-layer metrics from the traced pass (empty without `--trace`).
    pub layers: Vec<Metric>,
    /// Free-form context printed with the metrics (sample counts, which
    /// percentile the tail is, the plan that ran).
    pub notes: Vec<String>,
    /// Outputs checked.
    pub attempted: u64,
    /// Outputs that failed, were wrong, or were refused.
    pub failed: u64,
    /// Spans of the traced pass.
    pub spans: Vec<spans::Span>,
}

impl Outcome {
    /// True when every checked output passed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    pub fn e2e(&mut self, name: &str, value: f64, unit: &str) {
        self.e2e.push(Metric::new(name, value, unit));
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &str) {
        self.layers.push(Metric::new(name, value, unit));
    }

    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Counts one checked output.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// Runs one workload in this process.
pub fn run_workload(name: &str, opts: &Opts) -> Result<Outcome> {
    match name {
        "exec3d_large" | "exec2d_small" => exec::run(name, opts),
        "serve2d_small" => serve::run(opts),
        "ooc1d" => ooc::run(opts),
        other => Err(BenchError::new(format!(
            "unknown workload {other:?} (expected one of {WORKLOADS:?})"
        ))),
    }
}

/// Order-independent digest of the inputs a workload generates from
/// `seed` — the same seed must give the same inputs.
pub fn input_digest(name: &str, seed: u64, quick: bool) -> Result<u64> {
    match name {
        "exec3d_large" | "exec2d_small" => Ok(exec::input_digest(name, seed, quick)),
        "serve2d_small" => Ok(serve::input_digest(seed, quick)),
        "ooc1d" => ooc::input_digest(seed, quick),
        other => Err(BenchError::new(format!("unknown workload {other:?}"))),
    }
}
