//! `bwfft-metrics` — always-on runtime telemetry for the serving stack.
//!
//! `bwfft-trace` (DESIGN.md §8) answers "where did *this run's* time
//! go" after the run ends; a long-lived `bwfft-serve` daemon needs the
//! complementary question answered while it is still serving: what are
//! the latency distributions *right now*, how deep is the queue, where
//! is the breaker, how often is the ooc tier retrying storage. This
//! crate provides that, under the same cost discipline as
//! [`ThreadTracer`](bwfft_trace::ThreadTracer):
//!
//! * [`registry`] — a sharded [`Registry`] of named [`Counter`]s,
//!   [`Gauge`]s and log2-bucketed mergeable [`Histogram`]s. Handles are
//!   pre-registered (the only locking) and then updated with single
//!   relaxed atomics. Histograms keep fixed 64-bucket arrays —
//!   no stored samples, so memory is constant and snapshots merge by
//!   bucket-wise addition.
//! * [`snapshot`] — point-in-time [`MetricsSnapshot`]s exported as
//!   versioned `bwfft-metrics/1` JSON (round-trips through the shared
//!   [`bwfft_trace::value`] layer) and as Prometheus text exposition.
//!   Two snapshots diff into rates (`bwfft-cli stat`).
//! * [`flight`] — a bounded per-shard ring buffer of finished request
//!   span trees (the raw [`bwfft_trace`] events of the last K
//!   requests). On a breaker degradation, an integrity trip, or a
//!   worker panic the recorder freezes the rings into a versioned
//!   `bwfft-flight/1` dump: a crash-time record of what the service
//!   was actually doing, not what the model said it should be doing.
//!
//! The crate is dependency-free beyond `bwfft-trace` (for the shared
//! JSON value layer and event model) so every layer — serve, core's
//! supervisor, the tuner cache, the ooc streamer — can record into it
//! without dependency cycles.

pub mod flight;
pub mod registry;
pub mod snapshot;

pub use flight::{FlightDump, FlightMark, FlightRecorder, FlightSpan, RequestFlight};
pub use registry::{Counter, Gauge, Histogram, HistogramSnapshot, Registry};
pub use snapshot::{MetricsError, MetricsSnapshot, FLIGHT_SCHEMA_VERSION, METRICS_SCHEMA_VERSION};
