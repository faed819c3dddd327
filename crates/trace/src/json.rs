//! Versioned, dependency-free JSON export of a [`TraceReport`] and the
//! matching parser.
//!
//! The emitter writes floats with Rust's shortest-round-trip `{:?}`
//! formatting, so `from_json(to_json(r)) == r` holds exactly
//! (property-tested in `tests/proptest_trace.rs`). Non-finite floats —
//! which the aggregation never produces but a defensive parser must
//! assume — are pinned to the string sentinels `"NaN"` / `"Infinity"` /
//! `"-Infinity"` (see [`crate::value::push_f64`]), which
//! [`crate::value::Value::as_f64`] maps back, so even degenerate
//! reports round-trip instead of losing fields to `null`.
//!
//! Schema (`bwfft-trace/1`):
//!
//! ```json
//! {
//!   "schema": "bwfft-trace/1",
//!   "label": "2048x2048",
//!   "executor": "pipelined",
//!   "total_wall_ns": 123456789,
//!   "stages": [
//!     { "stage": 0, "wall_ns": 0, "load_busy_ns": 0, "compute_busy_ns": 0,
//!       "store_busy_ns": 0, "data_barrier_ns": 0, "compute_barrier_ns": 0,
//!       "overlap_fraction": 0.93, "bytes_moved": 0,
//!       "achieved_gbs": 12.5, "achievable_gbs": 17.1,
//!       "percent_of_achievable": 73.2 }
//!   ],
//!   "marks": [
//!     { "kind": "degradation", "label": "...", "at_ns": 0, "value_ns": null }
//!   ]
//! }
//! ```

use std::fmt;

use crate::aggregate::{StageProfile, TraceReport};
use crate::event::{MarkEvent, MarkKind};
use crate::value::{
    self, as_arr, as_f64, as_obj, as_opt_f64, as_str, as_u64, as_usize, get, parse_document,
    push_escaped, push_f64, push_opt_f64, SchemaError,
};

/// Current export schema tag. Bump the `/N` suffix on any breaking
/// field change; the snapshot test in `tests/proptest_trace.rs` pins it.
pub const SCHEMA_VERSION: &str = "bwfft-trace/1";

/// JSON export/import failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JsonError {
    /// Lexical/syntactic error at a byte offset.
    Syntax { offset: usize, message: String },
    /// Structurally valid JSON that doesn't match the schema.
    Schema(String),
    /// The document's `schema` tag is not [`SCHEMA_VERSION`].
    Version { found: String },
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::Syntax { offset, message } => {
                write!(f, "JSON syntax error at byte {offset}: {message}")
            }
            JsonError::Schema(m) => write!(f, "JSON does not match trace schema: {m}"),
            JsonError::Version { found } => write!(
                f,
                "unsupported trace schema {found:?} (expected {SCHEMA_VERSION:?})"
            ),
        }
    }
}

impl std::error::Error for JsonError {}

impl From<SchemaError> for JsonError {
    fn from(SchemaError(m): SchemaError) -> Self {
        JsonError::Schema(m)
    }
}

// ---------------------------------------------------------------------------
// Emitter
// ---------------------------------------------------------------------------

/// Serialize a report to a compact single-line JSON document.
pub fn to_json(report: &TraceReport) -> String {
    let mut out = String::with_capacity(256 + report.stages.len() * 256);
    out.push_str("{\"schema\":");
    push_escaped(&mut out, &report.schema);
    out.push_str(",\"label\":");
    push_escaped(&mut out, &report.label);
    out.push_str(",\"executor\":");
    push_escaped(&mut out, &report.executor);
    out.push_str(&format!(",\"total_wall_ns\":{}", report.total_wall_ns));
    out.push_str(",\"stages\":[");
    for (i, s) in report.stages.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"stage\":{},\"wall_ns\":{},\"load_busy_ns\":{},\"compute_busy_ns\":{},\
             \"store_busy_ns\":{},\"data_barrier_ns\":{},\"compute_barrier_ns\":{},\
             \"overlap_fraction\":",
            s.stage,
            s.wall_ns,
            s.load_busy_ns,
            s.compute_busy_ns,
            s.store_busy_ns,
            s.data_barrier_ns,
            s.compute_barrier_ns,
        ));
        push_f64(&mut out, s.overlap_fraction);
        out.push_str(&format!(",\"bytes_moved\":{},\"achieved_gbs\":", s.bytes_moved));
        push_opt_f64(&mut out, s.achieved_gbs);
        out.push_str(",\"achievable_gbs\":");
        push_opt_f64(&mut out, s.achievable_gbs);
        out.push_str(",\"percent_of_achievable\":");
        push_opt_f64(&mut out, s.percent_of_achievable);
        out.push('}');
    }
    out.push_str("],\"marks\":[");
    for (i, m) in report.marks.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"kind\":");
        push_escaped(&mut out, m.kind.token());
        out.push_str(",\"label\":");
        push_escaped(&mut out, &m.label);
        out.push_str(&format!(",\"at_ns\":{},\"value_ns\":", m.at_ns));
        push_opt_f64(&mut out, m.value_ns);
        out.push('}');
    }
    out.push_str("]}");
    out
}

// ---------------------------------------------------------------------------
// Schema mapping (the generic parser lives in [`crate::value`])
// ---------------------------------------------------------------------------

/// Parse a JSON document produced by [`to_json`] back into a
/// [`TraceReport`]. Rejects documents carrying a different
/// [`SCHEMA_VERSION`].
pub fn from_json(src: &str) -> Result<TraceReport, JsonError> {
    let root = parse_document(src).map_err(|value::ParseError { offset, message }| {
        JsonError::Syntax { offset, message }
    })?;
    let obj = as_obj(&root, "<root>")?;

    let schema = as_str(get(obj, "schema")?, "schema")?.to_string();
    if schema != SCHEMA_VERSION {
        return Err(JsonError::Version { found: schema });
    }

    let stages = as_arr(get(obj, "stages")?, "stages")?
        .iter()
        .map(|v| {
            let s = as_obj(v, "stages[]")?;
            Ok(StageProfile {
                stage: as_usize(get(s, "stage")?, "stage")?,
                wall_ns: as_u64(get(s, "wall_ns")?, "wall_ns")?,
                load_busy_ns: as_u64(get(s, "load_busy_ns")?, "load_busy_ns")?,
                compute_busy_ns: as_u64(get(s, "compute_busy_ns")?, "compute_busy_ns")?,
                store_busy_ns: as_u64(get(s, "store_busy_ns")?, "store_busy_ns")?,
                data_barrier_ns: as_u64(get(s, "data_barrier_ns")?, "data_barrier_ns")?,
                compute_barrier_ns: as_u64(get(s, "compute_barrier_ns")?, "compute_barrier_ns")?,
                overlap_fraction: as_f64(get(s, "overlap_fraction")?, "overlap_fraction")?,
                bytes_moved: as_u64(get(s, "bytes_moved")?, "bytes_moved")?,
                achieved_gbs: as_opt_f64(get(s, "achieved_gbs")?, "achieved_gbs")?,
                achievable_gbs: as_opt_f64(get(s, "achievable_gbs")?, "achievable_gbs")?,
                percent_of_achievable: as_opt_f64(
                    get(s, "percent_of_achievable")?,
                    "percent_of_achievable",
                )?,
            })
        })
        .collect::<Result<Vec<_>, JsonError>>()?;

    let marks = as_arr(get(obj, "marks")?, "marks")?
        .iter()
        .map(|v| {
            let m = as_obj(v, "marks[]")?;
            let kind_tok = as_str(get(m, "kind")?, "kind")?;
            let kind = MarkKind::from_token(kind_tok)
                .ok_or_else(|| JsonError::Schema(format!("unknown mark kind {kind_tok:?}")))?;
            Ok(MarkEvent {
                kind,
                label: as_str(get(m, "label")?, "label")?.to_string(),
                at_ns: as_u64(get(m, "at_ns")?, "at_ns")?,
                value_ns: as_opt_f64(get(m, "value_ns")?, "value_ns")?,
            })
        })
        .collect::<Result<Vec<_>, JsonError>>()?;

    Ok(TraceReport {
        schema,
        label: as_str(get(obj, "label")?, "label")?.to_string(),
        executor: as_str(get(obj, "executor")?, "executor")?.to_string(),
        total_wall_ns: as_u64(get(obj, "total_wall_ns")?, "total_wall_ns")?,
        stages,
        marks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> TraceReport {
        TraceReport {
            schema: SCHEMA_VERSION.to_string(),
            label: "2048x2048 \"quoted\"\nline".to_string(),
            executor: "pipelined".to_string(),
            total_wall_ns: 987_654_321,
            stages: vec![
                StageProfile {
                    stage: 0,
                    wall_ns: 500,
                    load_busy_ns: 100,
                    compute_busy_ns: 400,
                    store_busy_ns: 90,
                    data_barrier_ns: 10,
                    compute_barrier_ns: 20,
                    overlap_fraction: 0.9375,
                    bytes_moved: 1 << 30,
                    achieved_gbs: Some(12.625),
                    achievable_gbs: Some(17.066_666_666_666_666),
                    percent_of_achievable: Some(73.974_609_375),
                },
                StageProfile {
                    stage: 1,
                    wall_ns: 0,
                    load_busy_ns: 0,
                    compute_busy_ns: 0,
                    store_busy_ns: 0,
                    data_barrier_ns: 0,
                    compute_barrier_ns: 0,
                    overlap_fraction: 0.0,
                    bytes_moved: 0,
                    achieved_gbs: None,
                    achievable_gbs: None,
                    percent_of_achievable: None,
                },
            ],
            marks: vec![MarkEvent {
                kind: MarkKind::TunerWinner,
                label: "mu=4096 kernel=r4".to_string(),
                at_ns: 42,
                value_ns: Some(1.5e6),
            }],
        }
    }

    #[test]
    fn round_trip_exact() {
        let rep = sample_report();
        let json = to_json(&rep);
        let back = from_json(&json).unwrap();
        assert_eq!(back, rep);
    }

    #[test]
    fn rejects_wrong_schema_version() {
        let rep = sample_report();
        let json = to_json(&rep).replace(SCHEMA_VERSION, "bwfft-trace/999");
        match from_json(&json) {
            Err(JsonError::Version { found }) => assert_eq!(found, "bwfft-trace/999"),
            other => panic!("expected version error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(matches!(from_json(""), Err(JsonError::Syntax { .. })));
        assert!(matches!(from_json("{"), Err(JsonError::Syntax { .. })));
        assert!(matches!(from_json("[1,2]"), Err(JsonError::Schema(_))));
        assert!(matches!(
            from_json("{\"schema\":\"bwfft-trace/1\"}"),
            Err(JsonError::Schema(_))
        ));
        // Trailing garbage.
        let mut json = to_json(&sample_report());
        json.push_str("{}");
        assert!(matches!(from_json(&json), Err(JsonError::Syntax { .. })));
    }

    #[test]
    fn unknown_mark_kind_is_schema_error() {
        let json = to_json(&sample_report()).replace("tuner_winner", "mystery");
        assert!(matches!(from_json(&json), Err(JsonError::Schema(_))));
    }

    #[test]
    fn escapes_survive() {
        let rep = sample_report();
        let json = to_json(&rep);
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("\\n"));
        let back = from_json(&json).unwrap();
        assert_eq!(back.label, rep.label);
    }

    #[test]
    fn error_display_is_informative() {
        let e = JsonError::Version {
            found: "x/2".into(),
        };
        assert!(e.to_string().contains("bwfft-trace/1"));
    }
}
