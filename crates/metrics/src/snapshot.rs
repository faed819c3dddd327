//! Point-in-time metric snapshots and their wire formats.
//!
//! Two exports, both stable and versioned:
//!
//! * `bwfft-metrics/1` JSON — the machine format. Emitted and parsed
//!   through the shared [`bwfft_trace::value`] layer like
//!   `bwfft-trace/1` and `bwfft-bench/1`, round-trips losslessly, and
//!   is what `bwfft-cli stat` diffs into rates. Histogram buckets are
//!   emitted sparsely as `[index, count]` pairs so an idle service's
//!   snapshot stays small.
//! * Prometheus text exposition — for scraping. Metric names are
//!   sanitized (`.` → `_`); histograms emit cumulative
//!   `_bucket{le="..."}` lines at the log2 bucket bounds plus the
//!   conventional `_sum`/`_count`.

use std::collections::BTreeMap;
use std::fmt;

use bwfft_trace::value::{
    as_arr, as_f64, as_obj, as_str, as_u64, get, parse_document, push_escaped, push_f64,
    ParseError, SchemaError, Value,
};

use crate::registry::{bucket_upper, HistogramSnapshot, BUCKETS};

/// Version tag of the metrics snapshot JSON schema.
pub const METRICS_SCHEMA_VERSION: &str = "bwfft-metrics/1";

/// Version tag of the flight-recorder dump JSON schema (emitted by
/// [`crate::flight::FlightDump`]).
pub const FLIGHT_SCHEMA_VERSION: &str = "bwfft-flight/1";

/// Why a snapshot or dump failed to parse.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricsError {
    /// Not JSON at all.
    Syntax(ParseError),
    /// JSON, but not this schema (missing/mistyped field).
    Schema(String),
    /// A different (future) schema version.
    Version { found: String, expected: String },
}

impl fmt::Display for MetricsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetricsError::Syntax(e) => write!(f, "metrics JSON: {e}"),
            MetricsError::Schema(what) => write!(f, "metrics schema mismatch: {what}"),
            MetricsError::Version { found, expected } => {
                write!(f, "unsupported schema {found:?} (expected {expected:?})")
            }
        }
    }
}

impl std::error::Error for MetricsError {}

impl From<SchemaError> for MetricsError {
    fn from(SchemaError(what): SchemaError) -> Self {
        MetricsError::Schema(what)
    }
}

pub(crate) fn schema_err(what: impl Into<String>) -> MetricsError {
    MetricsError::Schema(what.into())
}

pub(crate) fn check_version(
    obj: &BTreeMap<String, Value>,
    expected: &'static str,
) -> Result<(), MetricsError> {
    let found = as_str(get(obj, "schema")?, "schema")?;
    if found != expected {
        return Err(MetricsError::Version {
            found: found.to_string(),
            expected: expected.to_string(),
        });
    }
    Ok(())
}

/// Everything the registry knew at one instant.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricsSnapshot {
    /// Nanoseconds since the registry was created — the time base for
    /// turning counter deltas into rates.
    pub uptime_ns: u64,
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, f64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    pub fn empty() -> Self {
        MetricsSnapshot {
            uptime_ns: 0,
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
        }
    }

    /// The window `earlier -> self`: counter and histogram deltas,
    /// latest gauge values, `uptime_ns` as the window length. Metrics
    /// absent from `earlier` diff against zero.
    pub fn diff(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| {
                let before = earlier.counters.get(k).copied().unwrap_or(0);
                (k.clone(), v.saturating_sub(before))
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, v)| {
                let before = earlier.histograms.get(k);
                let d = match before {
                    Some(b) => v.diff(b),
                    None => v.clone(),
                };
                (k.clone(), d)
            })
            .collect();
        MetricsSnapshot {
            uptime_ns: self.uptime_ns.saturating_sub(earlier.uptime_ns),
            counters,
            gauges: self.gauges.clone(),
            histograms,
        }
    }

    /// Serializes as one `bwfft-metrics/1` JSON line.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"schema\":\"");
        out.push_str(METRICS_SCHEMA_VERSION);
        out.push_str("\",\"uptime_ns\":");
        out.push_str(&self.uptime_ns.to_string());
        out.push_str(",\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_escaped(&mut out, name);
            out.push(':');
            out.push_str(&v.to_string());
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_escaped(&mut out, name);
            out.push(':');
            push_f64(&mut out, *v);
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_escaped(&mut out, name);
            out.push(':');
            push_histogram(&mut out, h);
        }
        out.push_str("}}");
        out
    }

    /// Parses a `bwfft-metrics/1` document (strict: syntax, schema and
    /// version failures are all typed).
    pub fn from_json(src: &str) -> Result<Self, MetricsError> {
        let root = parse_document(src).map_err(MetricsError::Syntax)?;
        let obj = as_obj(&root, "document")?;
        check_version(obj, METRICS_SCHEMA_VERSION)?;
        let uptime_ns = as_u64(get(obj, "uptime_ns")?, "uptime_ns")?;
        let mut counters = BTreeMap::new();
        for (name, v) in as_obj(get(obj, "counters")?, "counters")? {
            counters.insert(name.clone(), as_u64(v, "counter")?);
        }
        let mut gauges = BTreeMap::new();
        for (name, v) in as_obj(get(obj, "gauges")?, "gauges")? {
            gauges.insert(name.clone(), as_f64(v, "gauge")?);
        }
        let mut histograms = BTreeMap::new();
        for (name, v) in as_obj(get(obj, "histograms")?, "histograms")? {
            histograms.insert(name.clone(), parse_histogram(v)?);
        }
        Ok(MetricsSnapshot {
            uptime_ns,
            counters,
            gauges,
            histograms,
        })
    }

    /// Serializes in the Prometheus text exposition format.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("# TYPE uptime_ns counter\nuptime_ns ");
        out.push_str(&self.uptime_ns.to_string());
        out.push('\n');
        for (name, v) in &self.counters {
            let name = prom_name(name);
            out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
        }
        for (name, v) in &self.gauges {
            let name = prom_name(name);
            out.push_str(&format!("# TYPE {name} gauge\n{name} "));
            push_f64(&mut out, *v);
            out.push('\n');
        }
        for (name, h) in &self.histograms {
            let name = prom_name(name);
            out.push_str(&format!("# TYPE {name} histogram\n"));
            let last = h
                .buckets
                .iter()
                .rposition(|&c| c > 0)
                .unwrap_or(0);
            let mut cum = 0u64;
            for (i, c) in h.buckets.iter().enumerate().take(last + 1) {
                cum = cum.saturating_add(*c);
                out.push_str(&format!(
                    "{name}_bucket{{le=\"{}\"}} {cum}\n",
                    bucket_upper(i)
                ));
            }
            out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count));
            out.push_str(&format!("{name}_sum {}\n{name}_count {}\n", h.sum, h.count));
        }
        out
    }
}

fn prom_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

fn push_histogram(out: &mut String, h: &HistogramSnapshot) {
    out.push_str("{\"count\":");
    out.push_str(&h.count.to_string());
    out.push_str(",\"sum\":");
    out.push_str(&h.sum.to_string());
    out.push_str(",\"min\":");
    out.push_str(&h.min.to_string());
    out.push_str(",\"max\":");
    out.push_str(&h.max.to_string());
    out.push_str(",\"buckets\":[");
    let mut first = true;
    for (i, c) in h.buckets.iter().enumerate() {
        if *c == 0 {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("[{i},{c}]"));
    }
    out.push_str("]}");
}

fn parse_histogram(v: &Value) -> Result<HistogramSnapshot, MetricsError> {
    let obj = as_obj(v, "histogram")?;
    let mut h = HistogramSnapshot::empty();
    h.count = as_u64(get(obj, "count")?, "count")?;
    h.sum = as_u64(get(obj, "sum")?, "sum")?;
    h.min = as_u64(get(obj, "min")?, "min")?;
    h.max = as_u64(get(obj, "max")?, "max")?;
    for pair in as_arr(get(obj, "buckets")?, "buckets")? {
        let pair = as_arr(pair, "bucket pair")?;
        if pair.len() != 2 {
            return Err(schema_err("bucket pair must be [index, count]"));
        }
        let i = as_u64(&pair[0], "bucket index")? as usize;
        if i >= BUCKETS {
            return Err(schema_err(format!("bucket index {i} out of range")));
        }
        h.buckets[i] = as_u64(&pair[1], "bucket count")?;
    }
    Ok(h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample() -> MetricsSnapshot {
        let r = Registry::new();
        r.counter("serve.completed").add(5);
        r.gauge("serve.queue_depth").set(2.0);
        let h = r.histogram("serve.request_ns");
        h.record(100);
        h.record(4000);
        let mut s = r.snapshot();
        s.uptime_ns = 1_000_000_000;
        s
    }

    #[test]
    fn json_round_trips_losslessly() {
        let s = sample();
        let parsed = MetricsSnapshot::from_json(&s.to_json()).unwrap();
        assert_eq!(s, parsed);
    }

    #[test]
    fn version_and_schema_failures_are_typed() {
        let s = sample().to_json();
        let future = s.replace("bwfft-metrics/1", "bwfft-metrics/9");
        assert!(matches!(
            MetricsSnapshot::from_json(&future),
            Err(MetricsError::Version { .. })
        ));
        assert!(matches!(
            MetricsSnapshot::from_json("[]"),
            Err(MetricsError::Schema(_))
        ));
        assert!(matches!(
            MetricsSnapshot::from_json("{"),
            Err(MetricsError::Syntax(_))
        ));
    }

    #[test]
    fn diff_produces_window_deltas() {
        let mut before = sample();
        let mut after = sample();
        after.uptime_ns = 3_000_000_000;
        after.counters.insert("serve.completed".into(), 15);
        before.counters.insert("serve.completed".into(), 5);
        let d = after.diff(&before);
        assert_eq!(d.uptime_ns, 2_000_000_000);
        assert_eq!(d.counters["serve.completed"], 10);
        assert_eq!(d.histograms["serve.request_ns"].count, 0);
    }

    #[test]
    fn prometheus_exposition_has_conventional_lines() {
        let text = sample().to_prometheus();
        assert!(text.contains("# TYPE serve_completed counter"));
        assert!(text.contains("serve_completed 5"));
        assert!(text.contains("# TYPE serve_queue_depth gauge"));
        assert!(text.contains("# TYPE serve_request_ns histogram"));
        assert!(text.contains("serve_request_ns_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("serve_request_ns_sum 4100"));
        assert!(text.contains("serve_request_ns_count 2"));
        // Cumulative buckets end at the total count.
        assert!(text.contains("serve_request_ns_bucket{le=\"4095\"} 2"));
    }
}
