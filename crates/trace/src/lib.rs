//! `bwfft-trace` — the observability layer.
//!
//! The paper's argument is an *accounting* argument: soft-DMA double
//! buffering hides memory latency behind compute, lifting stages from
//! ~47% to 80–90% of the bandwidth-derived achievable peak. This crate
//! records where the time actually goes so that claim is measurable on
//! a real run, not just asserted by the model:
//!
//! * [`collect`] — a per-thread span recorder. Worker threads buffer
//!   [`event::SpanEvent`]s locally (no locks, no allocation beyond the
//!   local `Vec`) and flush once when they finish; a disabled collector
//!   costs one branch per would-be span and never calls the clock.
//! * [`event`] — the event model: timed spans keyed by
//!   `(role, thread, stage, block, phase)` plus untimed [`event::MarkEvent`]s
//!   for degradations, fault-injection outcomes and tuner telemetry.
//! * [`mod@aggregate`] — turns a raw event soup into a [`TraceReport`]:
//!   per-stage wall time, per-phase busy time (as interval *unions*, so
//!   parallel threads don't double-count), barrier-wait time per role,
//!   the compute/transfer overlap fraction, and achieved vs. achievable
//!   bandwidth.
//! * [`json`] — a versioned, dependency-free JSON export
//!   ([`json::SCHEMA_VERSION`]) with a parser that round-trips the
//!   report losslessly (property-tested).
//! * [`value`] — the generic JSON value/parser/emitter layer the
//!   schema above is mapped over; `bwfft-bench` reuses it for its
//!   `bwfft-bench/1` benchmark records.
//! * [`report`] — the human-readable roofline/overlap summary
//!   (`Display` on [`TraceReport`]).
//!
//! The crate is deliberately dependency-free: `bwfft-pipeline` and both
//! executors in `bwfft-core` record into it, and the CLI's
//! `--profile[=json]` renders it.

pub mod aggregate;
pub mod collect;
pub mod event;
pub mod json;
pub mod report;
pub mod value;

pub use aggregate::{aggregate, RunMeta, StageIo, StageProfile, TraceReport};
pub use collect::{ThreadTracer, TraceCollector};
pub use event::{MarkEvent, MarkKind, Phase, SpanEvent, TraceEvent, TraceRole};
pub use json::SCHEMA_VERSION;
