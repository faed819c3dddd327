//! The flight recorder: a bounded ring of finished request span trees.
//!
//! While metrics aggregate, the flight recorder *remembers*: each
//! finished request deposits its raw [`bwfft_trace`] events (spans and
//! marks, exactly what `--profile` would have aggregated) into a small
//! per-shard ring buffer. Recording is cheap — one short lock on a
//! shard touched by one worker at a time — and strictly bounded: each
//! shard keeps at most the configured `capacity` of recent requests
//! and old entries fall off the front.
//!
//! On a *trigger* — a breaker degradation, an integrity trip, a worker
//! panic — the recorder freezes the rings into a [`FlightDump`]: the
//! last K requests across all shards ordered by completion time, with
//! the trigger cause and timestamp. Dumps serialize as versioned
//! `bwfft-flight/1` JSON through the shared emitter in
//! [`bwfft_trace::value`], so a crash artifact is always parseable.
//!
//! Span timestamps inside one request are nanoseconds relative to that
//! request's own trace origin (its execution start); `start_ns` /
//! `end_ns` on the request itself are relative to the recorder's
//! origin, so requests order globally.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use bwfft_trace::{MarkKind, Phase, TraceEvent, TraceRole};

use bwfft_trace::value::{
    as_arr, as_obj, as_str, as_u64, get, parse_document, push_escaped, push_opt_f64, Value,
};

use crate::snapshot::{check_version, schema_err, MetricsError, FLIGHT_SCHEMA_VERSION};

const DEFAULT_SHARDS: usize = 8;
const DEFAULT_MAX_DUMPS: usize = 16;

/// One timed span from a request's execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlightSpan {
    pub role: TraceRole,
    pub thread: usize,
    pub stage: usize,
    pub block: usize,
    pub phase: Phase,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One untimed mark from a request's execution.
#[derive(Clone, Debug, PartialEq)]
pub struct FlightMark {
    pub kind: MarkKind,
    pub label: String,
    pub at_ns: u64,
    pub value_ns: Option<f64>,
}

/// Everything the recorder keeps about one finished request.
#[derive(Clone, Debug, PartialEq)]
pub struct RequestFlight {
    /// The server-assigned request id (matches [`Ticket::id`] on the
    /// serve side).
    ///
    /// [`Ticket::id`]: https://docs.rs/bwfft-serve
    pub request_id: u64,
    /// Shape/direction label, e.g. `"16x32 fwd"`.
    pub label: String,
    /// Outcome token: `completed`, `deadline_exceeded`, or `failed`.
    pub outcome: String,
    /// Producing tier token for completions (empty otherwise).
    pub tier: String,
    /// Execution start, ns since the recorder's origin.
    pub start_ns: u64,
    /// Outcome delivery, ns since the recorder's origin.
    pub end_ns: u64,
    pub spans: Vec<FlightSpan>,
    pub marks: Vec<FlightMark>,
}

impl RequestFlight {
    /// Splits a drained trace-event soup into the span/mark record.
    #[allow(clippy::too_many_arguments)]
    pub fn from_events(
        request_id: u64,
        label: String,
        outcome: String,
        tier: String,
        start_ns: u64,
        end_ns: u64,
        events: Vec<TraceEvent>,
    ) -> Self {
        let mut spans = Vec::new();
        let mut marks = Vec::new();
        for ev in events {
            match ev {
                TraceEvent::Span(s) => spans.push(FlightSpan {
                    role: s.role,
                    thread: s.thread,
                    stage: s.stage,
                    block: s.block,
                    phase: s.phase,
                    start_ns: s.start_ns,
                    end_ns: s.end_ns,
                }),
                TraceEvent::Mark(m) => marks.push(FlightMark {
                    kind: m.kind,
                    label: m.label,
                    at_ns: m.at_ns,
                    value_ns: m.value_ns,
                }),
            }
        }
        RequestFlight {
            request_id,
            label,
            outcome,
            tier,
            start_ns,
            end_ns,
            spans,
            marks,
        }
    }
}

/// A frozen copy of the last-K requests at a trigger instant.
#[derive(Clone, Debug, PartialEq)]
pub struct FlightDump {
    /// What fired the dump: `breaker:<from>-><to>`, `integrity`,
    /// `panic`, or a caller-defined cause.
    pub trigger: String,
    /// Trigger instant, ns since the recorder's origin.
    pub at_ns: u64,
    /// Up to K finished requests, oldest first by completion time.
    pub requests: Vec<RequestFlight>,
}

impl FlightDump {
    /// Serializes as one `bwfft-flight/1` JSON line.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"schema\":\"");
        out.push_str(FLIGHT_SCHEMA_VERSION);
        out.push_str("\",\"trigger\":");
        push_escaped(&mut out, &self.trigger);
        out.push_str(",\"at_ns\":");
        out.push_str(&self.at_ns.to_string());
        out.push_str(",\"requests\":[");
        for (i, r) in self.requests.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_request(&mut out, r);
        }
        out.push_str("]}");
        out
    }

    /// Parses a `bwfft-flight/1` document.
    pub fn from_json(src: &str) -> Result<Self, MetricsError> {
        let root = parse_document(src).map_err(MetricsError::Syntax)?;
        let obj = as_obj(&root, "document")?;
        check_version(obj, FLIGHT_SCHEMA_VERSION)?;
        let trigger = as_str(get(obj, "trigger")?, "trigger")?.to_string();
        let at_ns = as_u64(get(obj, "at_ns")?, "at_ns")?;
        let mut requests = Vec::new();
        for r in as_arr(get(obj, "requests")?, "requests")? {
            requests.push(parse_request(r)?);
        }
        Ok(FlightDump {
            trigger,
            at_ns,
            requests,
        })
    }
}

fn push_request(out: &mut String, r: &RequestFlight) {
    out.push_str("{\"id\":");
    out.push_str(&r.request_id.to_string());
    out.push_str(",\"label\":");
    push_escaped(out, &r.label);
    out.push_str(",\"outcome\":");
    push_escaped(out, &r.outcome);
    out.push_str(",\"tier\":");
    push_escaped(out, &r.tier);
    out.push_str(",\"start_ns\":");
    out.push_str(&r.start_ns.to_string());
    out.push_str(",\"end_ns\":");
    out.push_str(&r.end_ns.to_string());
    out.push_str(",\"spans\":[");
    for (i, s) in r.spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"role\":");
        push_escaped(out, s.role.token());
        out.push_str(&format!(
            ",\"thread\":{},\"stage\":{},\"block\":{},\"phase\":",
            s.thread, s.stage, s.block
        ));
        push_escaped(out, s.phase.token());
        out.push_str(&format!(
            ",\"start_ns\":{},\"end_ns\":{}}}",
            s.start_ns, s.end_ns
        ));
    }
    out.push_str("],\"marks\":[");
    for (i, m) in r.marks.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"kind\":");
        push_escaped(out, m.kind.token());
        out.push_str(",\"label\":");
        push_escaped(out, &m.label);
        out.push_str(&format!(",\"at_ns\":{},\"value_ns\":", m.at_ns));
        push_opt_f64(out, m.value_ns);
        out.push('}');
    }
    out.push_str("]}");
}

fn parse_request(v: &Value) -> Result<RequestFlight, MetricsError> {
    let obj = as_obj(v, "request")?;
    let mut spans = Vec::new();
    for s in as_arr(get(obj, "spans")?, "spans")? {
        let s = as_obj(s, "span")?;
        let role_tok = as_str(get(s, "role")?, "role")?;
        let phase_tok = as_str(get(s, "phase")?, "phase")?;
        spans.push(FlightSpan {
            role: TraceRole::from_token(role_tok)
                .ok_or_else(|| schema_err(format!("unknown role {role_tok:?}")))?,
            thread: as_u64(get(s, "thread")?, "thread")? as usize,
            stage: as_u64(get(s, "stage")?, "stage")? as usize,
            block: as_u64(get(s, "block")?, "block")? as usize,
            phase: Phase::from_token(phase_tok)
                .ok_or_else(|| schema_err(format!("unknown phase {phase_tok:?}")))?,
            start_ns: as_u64(get(s, "start_ns")?, "start_ns")?,
            end_ns: as_u64(get(s, "end_ns")?, "end_ns")?,
        });
    }
    let mut marks = Vec::new();
    for m in as_arr(get(obj, "marks")?, "marks")? {
        let m = as_obj(m, "mark")?;
        let kind_tok = as_str(get(m, "kind")?, "kind")?;
        marks.push(FlightMark {
            kind: MarkKind::from_token(kind_tok)
                .ok_or_else(|| schema_err(format!("unknown mark kind {kind_tok:?}")))?,
            label: as_str(get(m, "label")?, "label")?.to_string(),
            at_ns: as_u64(get(m, "at_ns")?, "at_ns")?,
            value_ns: get(m, "value_ns")?
                .as_opt_f64()
                .ok_or_else(|| schema_err("value_ns must be a number or null"))?,
        });
    }
    Ok(RequestFlight {
        request_id: as_u64(get(obj, "id")?, "id")?,
        label: as_str(get(obj, "label")?, "label")?.to_string(),
        outcome: as_str(get(obj, "outcome")?, "outcome")?.to_string(),
        tier: as_str(get(obj, "tier")?, "tier")?.to_string(),
        start_ns: as_u64(get(obj, "start_ns")?, "start_ns")?,
        end_ns: as_u64(get(obj, "end_ns")?, "end_ns")?,
        spans,
        marks,
    })
}

/// One ring entry. The hot path ([`FlightRecorder::record_raw`])
/// stores the drained trace events verbatim and defers the span/mark
/// split to trigger time, so a healthy request pays one shard lock and
/// a few moves — the conversion cost lands on the rare dump instead.
enum Entry {
    Ready(RequestFlight),
    Raw {
        request_id: u64,
        label: String,
        outcome: String,
        tier: String,
        start_ns: u64,
        end_ns: u64,
        events: Vec<TraceEvent>,
    },
}

impl Entry {
    fn request_id(&self) -> u64 {
        match self {
            Entry::Ready(r) => r.request_id,
            Entry::Raw { request_id, .. } => *request_id,
        }
    }

    fn to_flight(&self) -> RequestFlight {
        match self {
            Entry::Ready(r) => r.clone(),
            Entry::Raw {
                request_id,
                label,
                outcome,
                tier,
                start_ns,
                end_ns,
                events,
            } => RequestFlight::from_events(
                *request_id,
                label.clone(),
                outcome.clone(),
                tier.clone(),
                *start_ns,
                *end_ns,
                events.clone(),
            ),
        }
    }
}

/// The bounded per-shard request recorder.
pub struct FlightRecorder {
    origin: Instant,
    capacity: usize,
    shards: Vec<Mutex<VecDeque<Entry>>>,
    dumps: Mutex<VecDeque<FlightDump>>,
    max_dumps: usize,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.capacity)
            .field("dumps", &self.dumps.lock().map(|d| d.len()).unwrap_or(0))
            .finish()
    }
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl FlightRecorder {
    /// A recorder keeping the last `capacity` requests (per shard and
    /// per dump) and at most 16 dumps.
    pub fn new(capacity: usize) -> Arc<FlightRecorder> {
        Arc::new(FlightRecorder {
            origin: Instant::now(),
            capacity: capacity.max(1),
            shards: (0..DEFAULT_SHARDS)
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
            dumps: Mutex::new(VecDeque::new()),
            max_dumps: DEFAULT_MAX_DUMPS,
        })
    }

    /// Max requests a dump carries (the K in "last K").
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Deposit one finished request. Bounded: the shard ring drops its
    /// oldest entry beyond `capacity`.
    pub fn record(&self, flight: RequestFlight) {
        self.push(Entry::Ready(flight));
    }

    /// Deposit one finished request as its raw trace events, deferring
    /// the span/mark split to trigger time. This is the serve hot path:
    /// the per-request cost is one shard lock plus moving the already-
    /// drained event buffer into the ring.
    #[allow(clippy::too_many_arguments)]
    pub fn record_raw(
        &self,
        request_id: u64,
        label: String,
        outcome: String,
        tier: String,
        start_ns: u64,
        end_ns: u64,
        events: Vec<TraceEvent>,
    ) {
        self.push(Entry::Raw {
            request_id,
            label,
            outcome,
            tier,
            start_ns,
            end_ns,
            events,
        });
    }

    fn push(&self, entry: Entry) {
        let shard = &self.shards[(entry.request_id() as usize) % self.shards.len()];
        let mut ring = lock(shard);
        if ring.len() >= self.capacity {
            ring.pop_front();
        }
        ring.push_back(entry);
    }

    /// Freeze the rings into a dump: the last `capacity` finished
    /// requests across all shards, ordered oldest-first by completion
    /// time. The dump is stored (bounded) and returned.
    pub fn trigger(&self, cause: &str) -> FlightDump {
        let mut all: Vec<RequestFlight> = Vec::new();
        for shard in &self.shards {
            all.extend(lock(shard).iter().map(Entry::to_flight));
        }
        all.sort_by_key(|r| (r.end_ns, r.request_id));
        let skip = all.len().saturating_sub(self.capacity);
        let dump = FlightDump {
            trigger: cause.to_string(),
            at_ns: self.now_ns(),
            requests: all.split_off(skip),
        };
        let mut dumps = lock(&self.dumps);
        if dumps.len() >= self.max_dumps {
            dumps.pop_front();
        }
        dumps.push_back(dump.clone());
        dump
    }

    /// Copies of the stored dumps, oldest first.
    pub fn dumps(&self) -> Vec<FlightDump> {
        lock(&self.dumps).iter().cloned().collect()
    }

    /// Drains the stored dumps.
    pub fn take_dumps(&self) -> Vec<FlightDump> {
        lock(&self.dumps).drain(..).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flight(id: u64, end_ns: u64) -> RequestFlight {
        RequestFlight {
            request_id: id,
            label: "16x32 fwd".into(),
            outcome: "completed".into(),
            tier: "pipelined".into(),
            start_ns: end_ns.saturating_sub(10),
            end_ns,
            spans: vec![],
            marks: vec![],
        }
    }

    #[test]
    fn dump_keeps_the_last_k_by_completion_time() {
        let rec = FlightRecorder::new(3);
        for id in 0..10u64 {
            rec.record(flight(id, 100 * (id + 1)));
        }
        let dump = rec.trigger("breaker:normal->fused");
        assert_eq!(dump.requests.len(), 3);
        let ids: Vec<u64> = dump.requests.iter().map(|r| r.request_id).collect();
        assert_eq!(ids, [7, 8, 9], "last three, oldest first");
        assert_eq!(rec.dumps().len(), 1);
    }

    #[test]
    fn shard_rings_are_bounded() {
        let rec = FlightRecorder::new(2);
        // All ids congruent mod the shard count land in one ring.
        for i in 0..5u64 {
            rec.record(flight(i * 8, i));
        }
        let dump = rec.trigger("panic");
        assert_eq!(dump.requests.len(), 2, "ring kept only the newest two");
    }

    #[test]
    fn dump_storage_is_bounded() {
        let rec = FlightRecorder::new(1);
        rec.record(flight(1, 1));
        for _ in 0..40 {
            rec.trigger("integrity");
        }
        assert_eq!(rec.dumps().len(), DEFAULT_MAX_DUMPS);
        assert_eq!(rec.take_dumps().len(), DEFAULT_MAX_DUMPS);
        assert!(rec.dumps().is_empty());
    }

    #[test]
    fn dump_json_round_trips() {
        use bwfft_trace::{MarkEvent, SpanEvent};
        let events = vec![
            TraceEvent::Span(SpanEvent {
                role: TraceRole::Compute,
                thread: 1,
                stage: 0,
                block: 3,
                phase: Phase::Compute,
                start_ns: 5,
                end_ns: 9,
            }),
            TraceEvent::Mark(MarkEvent {
                kind: MarkKind::Recovery,
                label: "retry 1".into(),
                at_ns: 7,
                value_ns: Some(50.0),
            }),
        ];
        let r = RequestFlight::from_events(
            42,
            "16x32 fwd".into(),
            "failed".into(),
            String::new(),
            100,
            200,
            events,
        );
        assert_eq!(r.spans.len(), 1);
        assert_eq!(r.marks.len(), 1);
        let dump = FlightDump {
            trigger: "integrity".into(),
            at_ns: 250,
            requests: vec![r],
        };
        let parsed = FlightDump::from_json(&dump.to_json()).unwrap();
        assert_eq!(dump, parsed);
    }

    #[test]
    fn future_versions_are_rejected() {
        let dump = FlightDump {
            trigger: "t".into(),
            at_ns: 0,
            requests: vec![],
        };
        let future = dump.to_json().replace("bwfft-flight/1", "bwfft-flight/2");
        assert!(matches!(
            FlightDump::from_json(&future),
            Err(MetricsError::Version { .. })
        ));
    }
}
