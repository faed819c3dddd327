//! The `bwfft-bench/1` record: one machine-readable performance point
//! on the repo's trajectory.
//!
//! Every `bwfft-cli bench` run serializes a [`BenchReport`] into
//! `BENCH_<gitrev>.json`. The record is self-describing enough that a
//! regression found by comparing two of them is *attributable*: it
//! carries the git revision, the host fingerprint it was measured on,
//! the seed, the reference-machine roofline, and — per suite — the
//! plan parameters, the robust timing summary, and the traced rep's
//! per-stage overlap/bandwidth metrics.
//!
//! The JSON is hand-rolled over [`bwfft_trace::value`] (the same
//! dependency-free layer `bwfft-trace/1` uses); floats round-trip
//! exactly, `u64` stays exact, and [`from_json`]`(`[`to_json`]`(r)) ==
//! r` (snapshot- and round-trip-tested in `tests/schema_bench.rs`).

use crate::stats::SampleSummary;
use bwfft_trace::value::{
    self, as_arr, as_bool, as_f64, as_obj, as_opt_f64, as_str, as_u64, as_usize, get,
    parse_document, push_escaped, push_f64, push_opt_f64, SchemaError,
};
use bwfft_tuner::HostFingerprint;
use std::fmt;
use std::path::Path;

/// Current schema tag. Bump the `/N` suffix on any breaking field
/// change; the snapshot test in `tests/schema_bench.rs` pins it.
pub const SCHEMA_VERSION: &str = "bwfft-bench/1";

/// Per-stage attribution copied from the traced rep, so a regression
/// names the stage that lost overlap or bandwidth.
#[derive(Clone, Debug, PartialEq)]
pub struct StageMetric {
    pub stage: usize,
    /// Compute/transfer overlap fraction in `[0, 1]`.
    pub overlap_fraction: f64,
    /// Measured bandwidth of the stage, GB/s (None when unknown).
    pub achieved_gbs: Option<f64>,
    /// `100 · achieved / STREAM` against the anchor machine.
    pub percent_of_stream: Option<f64>,
}

/// Service-mode columns: what an open-loop `bwfft-cli bench-serve` run
/// measured. Latency percentiles are over completed
/// requests, submission to completion; the outcome counts are the
/// drained [`ServeReport`](bwfft_serve::ServeReport)'s accounting, so
/// `submitted == completed + deadline_exceeded + failed` in any record
/// this crate writes.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeMetrics {
    /// Completed requests per wall-clock second of the driver run.
    pub requests_per_sec: f64,
    /// Median completed-request latency, ns.
    pub p50_ns: f64,
    /// 99th-percentile completed-request latency, ns (nearest-rank).
    pub p99_ns: f64,
    pub submitted: u64,
    pub completed: u64,
    /// Shed at admission, all reasons.
    pub rejected: u64,
    pub deadline_exceeded: u64,
    pub failed: u64,
    /// Completions produced below the pipelined tier (fused or
    /// reference).
    pub degraded: u64,
    /// Downward breaker transitions during the run.
    pub breaker_trips: u64,
    /// Shared plan-cache hits across the run (requests that skipped
    /// plan construction). Zero in records written before the service
    /// routed through the cache.
    pub plan_cache_hits: u64,
    /// Shared plan-cache misses (first-arrival plan builds).
    pub plan_cache_misses: u64,
}

/// Out-of-core columns: what a streamed storage-tier run measured.
/// Byte counts cover all five four-step stages (each reads and writes
/// the full payload once); `io_ns` is time spent inside positioned
/// read/write calls summed over the soft-DMA threads.
#[derive(Clone, Debug, PartialEq)]
pub struct OocMetrics {
    /// End-to-end storage throughput, GB/s: (read + written) / wall.
    pub storage_gbs: f64,
    pub bytes_read: u64,
    pub bytes_written: u64,
    pub io_ns: u64,
    /// Pipelined attempts beyond the first, summed over stages.
    pub retries: u64,
    /// Stages that fell through to the serial tier.
    pub serial_fallbacks: u64,
    /// Injected storage faults absorbed by the retry ladder.
    pub faults_hit: u64,
    /// Bytes moved while replaying a crashed run from its checkpoint
    /// journal (resume-mode read + write traffic). Zero for fresh
    /// runs, and omitted from the emitted record together with
    /// `reverified_blocks` when both are zero, so pre-crash-safe
    /// documents stay byte-identical.
    pub resumed_bytes: u64,
    /// Journaled block checksums re-verified against the scratch
    /// stores before a resume was trusted.
    pub reverified_blocks: u64,
}

/// Real-transform columns: how the packed half-spectrum path
/// (`r2c:*` rows) or the fused spectral convolution (`conv:*` rows)
/// compares against the complex path for the same logical transform,
/// measured back to back on the same input in the same rep loop.
#[derive(Clone, Debug, PartialEq)]
pub struct RealMetrics {
    /// Bytes one real-path pass moves (reals + packed bins).
    pub packed_bytes: u64,
    /// Bytes the complex path moves for the same logical transform.
    pub complex_bytes: u64,
    /// `packed_bytes / N` — the acceptance number; must sit below
    /// `complex_bytes_per_elem` (§13's ~2× win).
    pub bytes_per_elem: f64,
    /// `complex_bytes / N` for the baseline run in the same loop.
    pub complex_bytes_per_elem: f64,
    /// `packed_bytes / median_ns` — effective GB/s of the real path.
    pub effective_gbs: f64,
    /// Median of the same-size complex-path baseline, for the ratio.
    pub complex_median_ns: f64,
}

/// One suite case's result.
#[derive(Clone, Debug, PartialEq)]
pub struct SuiteResult {
    /// Stable pairing key (see [`mod@crate::suite`]).
    pub key: String,
    /// Problem label, e.g. `"128x128"`.
    pub label: String,
    /// Executor that ran (`"pipelined"` / `"fused"`).
    pub executor: String,
    /// Data/compute thread split.
    pub p_d: usize,
    pub p_c: usize,
    /// Buffer half-size in elements the plan actually used.
    pub buffer_elems: usize,
    /// Untimed warmup reps that preceded the sample.
    pub warmup: usize,
    /// Robust timing summary of the timed reps.
    pub stats: SampleSummary,
    /// Pseudo-Gflop/s at the median (`5·N·log2(N) / median`).
    pub gflops: f64,
    pub stages: Vec<StageMetric>,
    /// Service-mode columns; `None` for ordinary executor suites.
    /// Optional and additive, so pre-serve `bwfft-bench/1` documents
    /// (including the checked-in seed baseline) still parse.
    pub serve: Option<ServeMetrics>,
    /// Out-of-core columns; `None` for every in-memory suite. Optional
    /// and additive like `serve`, so older documents still parse and
    /// non-ooc rows emit nothing.
    pub ooc: Option<OocMetrics>,
    /// Real-transform columns; `None` for every complex-path suite.
    /// Optional and additive like `serve`/`ooc`, so older documents
    /// still parse and non-real rows emit nothing.
    pub real: Option<RealMetrics>,
}

/// A complete benchmark record — the unit of the perf trajectory.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchReport {
    /// Always [`SCHEMA_VERSION`] when built by this crate.
    pub schema: String,
    /// Git revision the binary was built from (`"seed"`, `"a1b2c3d"`,
    /// `"unknown"`).
    pub git_rev: String,
    /// Which canonical suite ran (`"smoke"`, `"fast"`, `"full"`).
    pub suite_kind: String,
    /// Input-signal seed: same seed ⇒ same input, element for element.
    pub seed: u64,
    /// Host the numbers were measured on.
    pub fingerprint: HostFingerprint,
    /// Machine preset anchoring the %-of-STREAM roofline.
    pub anchor_machine: String,
    /// That preset's STREAM bandwidth, GB/s.
    pub stream_gbs: f64,
    pub suites: Vec<SuiteResult>,
}

/// JSON import failure for `bwfft-bench/1` documents.
#[derive(Clone, Debug, PartialEq)]
pub enum BenchJsonError {
    Syntax { offset: usize, message: String },
    Schema(String),
    Version { found: String },
}

impl fmt::Display for BenchJsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchJsonError::Syntax { offset, message } => {
                write!(f, "JSON syntax error at byte {offset}: {message}")
            }
            BenchJsonError::Schema(m) => write!(f, "JSON does not match bench schema: {m}"),
            BenchJsonError::Version { found } => write!(
                f,
                "unsupported bench schema {found:?} (expected {SCHEMA_VERSION:?})"
            ),
        }
    }
}

impl std::error::Error for BenchJsonError {}

impl From<SchemaError> for BenchJsonError {
    fn from(SchemaError(m): SchemaError) -> Self {
        BenchJsonError::Schema(m)
    }
}

/// Loading a BENCH file: I/O and schema failures, typed.
#[derive(Debug)]
pub enum BenchFileError {
    Io { path: String, error: std::io::Error },
    Json { path: String, error: BenchJsonError },
}

impl fmt::Display for BenchFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchFileError::Io { path, error } => write!(f, "{path}: {error}"),
            BenchFileError::Json { path, error } => write!(f, "{path}: {error}"),
        }
    }
}

impl std::error::Error for BenchFileError {}

// ---------------------------------------------------------------------------
// Emitter
// ---------------------------------------------------------------------------

/// Serialize a report to a compact single-line JSON document.
pub fn to_json(report: &BenchReport) -> String {
    let mut out = String::with_capacity(512 + report.suites.len() * 512);
    out.push_str("{\"schema\":");
    push_escaped(&mut out, &report.schema);
    out.push_str(",\"git_rev\":");
    push_escaped(&mut out, &report.git_rev);
    out.push_str(",\"suite_kind\":");
    push_escaped(&mut out, &report.suite_kind);
    out.push_str(&format!(",\"seed\":{}", report.seed));
    out.push_str(&format!(
        ",\"host\":{{\"cpus\":{},\"pin_works\":{},\"llc_bytes\":{}}}",
        report.fingerprint.cpus, report.fingerprint.pin_works, report.fingerprint.llc_bytes
    ));
    out.push_str(",\"anchor_machine\":");
    push_escaped(&mut out, &report.anchor_machine);
    out.push_str(",\"stream_gbs\":");
    push_f64(&mut out, report.stream_gbs);
    out.push_str(",\"suites\":[");
    for (i, s) in report.suites.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"key\":");
        push_escaped(&mut out, &s.key);
        out.push_str(",\"label\":");
        push_escaped(&mut out, &s.label);
        out.push_str(",\"executor\":");
        push_escaped(&mut out, &s.executor);
        out.push_str(&format!(
            ",\"p_d\":{},\"p_c\":{},\"buffer_elems\":{},\"warmup\":{}",
            s.p_d, s.p_c, s.buffer_elems, s.warmup
        ));
        out.push_str(&format!(
            ",\"reps\":{},\"kept\":{}",
            s.stats.n_raw, s.stats.n_kept
        ));
        for (name, v) in [
            ("median_ns", s.stats.median_ns),
            ("ci_lo_ns", s.stats.ci_lo_ns),
            ("ci_hi_ns", s.stats.ci_hi_ns),
            ("min_ns", s.stats.min_ns),
            ("max_ns", s.stats.max_ns),
            ("mad_ns", s.stats.mad_ns),
            ("gflops", s.gflops),
        ] {
            out.push_str(&format!(",\"{name}\":"));
            push_f64(&mut out, v);
        }
        if let Some(m) = &s.serve {
            out.push_str(&format!(
                ",\"serve\":{{\"submitted\":{},\"completed\":{},\"rejected\":{},\
                 \"deadline_exceeded\":{},\"failed\":{},\"degraded\":{},\
                 \"breaker_trips\":{},\"plan_cache_hits\":{},\"plan_cache_misses\":{}",
                m.submitted,
                m.completed,
                m.rejected,
                m.deadline_exceeded,
                m.failed,
                m.degraded,
                m.breaker_trips,
                m.plan_cache_hits,
                m.plan_cache_misses
            ));
            for (name, v) in [
                ("requests_per_sec", m.requests_per_sec),
                ("p50_ns", m.p50_ns),
                ("p99_ns", m.p99_ns),
            ] {
                out.push_str(&format!(",\"{name}\":"));
                push_f64(&mut out, v);
            }
            out.push('}');
        }
        if let Some(m) = &s.ooc {
            out.push_str(&format!(
                ",\"ooc\":{{\"bytes_read\":{},\"bytes_written\":{},\"io_ns\":{},\
                 \"retries\":{},\"serial_fallbacks\":{},\"faults_hit\":{}",
                m.bytes_read,
                m.bytes_written,
                m.io_ns,
                m.retries,
                m.serial_fallbacks,
                m.faults_hit
            ));
            // Resume columns only appear when a resume actually
            // happened, so fresh-run rows (and the seed baseline)
            // keep their pre-crash-safe bytes.
            if m.resumed_bytes != 0 || m.reverified_blocks != 0 {
                out.push_str(&format!(
                    ",\"resumed_bytes\":{},\"reverified_blocks\":{}",
                    m.resumed_bytes, m.reverified_blocks
                ));
            }
            out.push_str(",\"storage_gbs\":");
            push_f64(&mut out, m.storage_gbs);
            out.push('}');
        }
        if let Some(m) = &s.real {
            out.push_str(&format!(
                ",\"real\":{{\"packed_bytes\":{},\"complex_bytes\":{}",
                m.packed_bytes, m.complex_bytes
            ));
            for (name, v) in [
                ("bytes_per_elem", m.bytes_per_elem),
                ("complex_bytes_per_elem", m.complex_bytes_per_elem),
                ("effective_gbs", m.effective_gbs),
                ("complex_median_ns", m.complex_median_ns),
            ] {
                out.push_str(&format!(",\"{name}\":"));
                push_f64(&mut out, v);
            }
            out.push('}');
        }
        out.push_str(",\"stages\":[");
        for (j, st) in s.stages.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"stage\":{},\"overlap_fraction\":",
                st.stage
            ));
            push_f64(&mut out, st.overlap_fraction);
            out.push_str(",\"achieved_gbs\":");
            push_opt_f64(&mut out, st.achieved_gbs);
            out.push_str(",\"percent_of_stream\":");
            push_opt_f64(&mut out, st.percent_of_stream);
            out.push('}');
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// Parse a document produced by [`to_json`] back into a
/// [`BenchReport`]. Rejects documents carrying a different
/// [`SCHEMA_VERSION`].
pub fn from_json(src: &str) -> Result<BenchReport, BenchJsonError> {
    let root = parse_document(src).map_err(|value::ParseError { offset, message }| {
        BenchJsonError::Syntax { offset, message }
    })?;
    let obj = as_obj(&root, "<root>")?;

    let schema = as_str(get(obj, "schema")?, "schema")?.to_string();
    if schema != SCHEMA_VERSION {
        return Err(BenchJsonError::Version { found: schema });
    }

    let host = as_obj(get(obj, "host")?, "host")?;
    let fingerprint = HostFingerprint {
        cpus: as_usize(get(host, "cpus")?, "cpus")?,
        pin_works: as_bool(get(host, "pin_works")?, "pin_works")?,
        llc_bytes: as_usize(get(host, "llc_bytes")?, "llc_bytes")?,
    };

    let suites = as_arr(get(obj, "suites")?, "suites")?
        .iter()
        .map(|v| {
            let s = as_obj(v, "suites[]")?;
            let stages = as_arr(get(s, "stages")?, "stages")?
                .iter()
                .map(|v| {
                    let st = as_obj(v, "stages[]")?;
                    Ok(StageMetric {
                        stage: as_usize(get(st, "stage")?, "stage")?,
                        overlap_fraction: as_f64(
                            get(st, "overlap_fraction")?,
                            "overlap_fraction",
                        )?,
                        achieved_gbs: as_opt_f64(get(st, "achieved_gbs")?, "achieved_gbs")?,
                        percent_of_stream: as_opt_f64(
                            get(st, "percent_of_stream")?,
                            "percent_of_stream",
                        )?,
                    })
                })
                .collect::<Result<Vec<_>, BenchJsonError>>()?;
            Ok(SuiteResult {
                key: as_str(get(s, "key")?, "key")?.to_string(),
                label: as_str(get(s, "label")?, "label")?.to_string(),
                executor: as_str(get(s, "executor")?, "executor")?.to_string(),
                p_d: as_usize(get(s, "p_d")?, "p_d")?,
                p_c: as_usize(get(s, "p_c")?, "p_c")?,
                buffer_elems: as_usize(get(s, "buffer_elems")?, "buffer_elems")?,
                warmup: as_usize(get(s, "warmup")?, "warmup")?,
                stats: SampleSummary {
                    n_raw: as_usize(get(s, "reps")?, "reps")?,
                    n_kept: as_usize(get(s, "kept")?, "kept")?,
                    median_ns: as_f64(get(s, "median_ns")?, "median_ns")?,
                    ci_lo_ns: as_f64(get(s, "ci_lo_ns")?, "ci_lo_ns")?,
                    ci_hi_ns: as_f64(get(s, "ci_hi_ns")?, "ci_hi_ns")?,
                    min_ns: as_f64(get(s, "min_ns")?, "min_ns")?,
                    max_ns: as_f64(get(s, "max_ns")?, "max_ns")?,
                    mad_ns: as_f64(get(s, "mad_ns")?, "mad_ns")?,
                },
                gflops: as_f64(get(s, "gflops")?, "gflops")?,
                stages,
                // Optional: documents written before service-mode
                // suites existed simply lack the field.
                serve: match s.get("serve") {
                    None => None,
                    Some(v) => {
                        let m = as_obj(v, "serve")?;
                        Some(ServeMetrics {
                            requests_per_sec: as_f64(
                                get(m, "requests_per_sec")?,
                                "requests_per_sec",
                            )?,
                            p50_ns: as_f64(get(m, "p50_ns")?, "p50_ns")?,
                            p99_ns: as_f64(get(m, "p99_ns")?, "p99_ns")?,
                            submitted: as_u64(get(m, "submitted")?, "submitted")?,
                            completed: as_u64(get(m, "completed")?, "completed")?,
                            rejected: as_u64(get(m, "rejected")?, "rejected")?,
                            deadline_exceeded: as_u64(
                                get(m, "deadline_exceeded")?,
                                "deadline_exceeded",
                            )?,
                            failed: as_u64(get(m, "failed")?, "failed")?,
                            degraded: as_u64(get(m, "degraded")?, "degraded")?,
                            breaker_trips: as_u64(
                                get(m, "breaker_trips")?,
                                "breaker_trips",
                            )?,
                            // Lenient: records written before the
                            // service routed through the plan cache
                            // carry no counters; read them as zero.
                            plan_cache_hits: match m.get("plan_cache_hits") {
                                None => 0,
                                Some(v) => as_u64(v, "plan_cache_hits")?,
                            },
                            plan_cache_misses: match m.get("plan_cache_misses") {
                                None => 0,
                                Some(v) => as_u64(v, "plan_cache_misses")?,
                            },
                        })
                    }
                },
                ooc: match s.get("ooc") {
                    None => None,
                    Some(v) => {
                        let m = as_obj(v, "ooc")?;
                        Some(OocMetrics {
                            storage_gbs: as_f64(get(m, "storage_gbs")?, "storage_gbs")?,
                            bytes_read: as_u64(get(m, "bytes_read")?, "bytes_read")?,
                            bytes_written: as_u64(get(m, "bytes_written")?, "bytes_written")?,
                            io_ns: as_u64(get(m, "io_ns")?, "io_ns")?,
                            retries: as_u64(get(m, "retries")?, "retries")?,
                            serial_fallbacks: as_u64(
                                get(m, "serial_fallbacks")?,
                                "serial_fallbacks",
                            )?,
                            faults_hit: as_u64(get(m, "faults_hit")?, "faults_hit")?,
                            // Lenient: rows written before the
                            // crash-safe tier (or fresh runs, which
                            // omit the pair) read as zero.
                            resumed_bytes: match m.get("resumed_bytes") {
                                None => 0,
                                Some(v) => as_u64(v, "resumed_bytes")?,
                            },
                            reverified_blocks: match m.get("reverified_blocks") {
                                None => 0,
                                Some(v) => as_u64(v, "reverified_blocks")?,
                            },
                        })
                    }
                },
                real: match s.get("real") {
                    None => None,
                    Some(v) => {
                        let m = as_obj(v, "real")?;
                        Some(RealMetrics {
                            packed_bytes: as_u64(get(m, "packed_bytes")?, "packed_bytes")?,
                            complex_bytes: as_u64(get(m, "complex_bytes")?, "complex_bytes")?,
                            bytes_per_elem: as_f64(
                                get(m, "bytes_per_elem")?,
                                "bytes_per_elem",
                            )?,
                            complex_bytes_per_elem: as_f64(
                                get(m, "complex_bytes_per_elem")?,
                                "complex_bytes_per_elem",
                            )?,
                            effective_gbs: as_f64(get(m, "effective_gbs")?, "effective_gbs")?,
                            complex_median_ns: as_f64(
                                get(m, "complex_median_ns")?,
                                "complex_median_ns",
                            )?,
                        })
                    }
                },
            })
        })
        .collect::<Result<Vec<_>, BenchJsonError>>()?;

    Ok(BenchReport {
        schema,
        git_rev: as_str(get(obj, "git_rev")?, "git_rev")?.to_string(),
        suite_kind: as_str(get(obj, "suite_kind")?, "suite_kind")?.to_string(),
        seed: as_u64(get(obj, "seed")?, "seed")?,
        fingerprint,
        anchor_machine: as_str(get(obj, "anchor_machine")?, "anchor_machine")?.to_string(),
        stream_gbs: as_f64(get(obj, "stream_gbs")?, "stream_gbs")?,
        suites,
    })
}

// ---------------------------------------------------------------------------
// Files and naming
// ---------------------------------------------------------------------------

/// Writes the report (single line + trailing newline) to `path`.
pub fn write_file(path: &Path, report: &BenchReport) -> Result<(), BenchFileError> {
    let mut body = to_json(report);
    body.push('\n');
    std::fs::write(path, body).map_err(|error| BenchFileError::Io {
        path: path.display().to_string(),
        error,
    })
}

/// Reads and parses a `BENCH_*.json` file.
pub fn read_file(path: &Path) -> Result<BenchReport, BenchFileError> {
    let body = std::fs::read_to_string(path).map_err(|error| BenchFileError::Io {
        path: path.display().to_string(),
        error,
    })?;
    from_json(body.trim_end()).map_err(|error| BenchFileError::Json {
        path: path.display().to_string(),
        error,
    })
}

/// The conventional trajectory filename for a revision.
pub fn bench_filename(git_rev: &str) -> String {
    format!("BENCH_{git_rev}.json")
}

/// Best-effort short git revision: `BWFFT_GIT_REV` env override first
/// (used to pin the checked-in baseline to `"seed"`), then
/// `git rev-parse --short HEAD`, else `"unknown"`.
pub fn detect_git_rev() -> String {
    if let Ok(rev) = std::env::var("BWFFT_GIT_REV") {
        let rev = rev.trim().to_string();
        if !rev.is_empty() {
            return rev;
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_report() -> BenchReport {
        BenchReport {
            schema: SCHEMA_VERSION.to_string(),
            git_rev: "abc1234".to_string(),
            suite_kind: "fast".to_string(),
            seed: 42,
            fingerprint: HostFingerprint {
                cpus: 1,
                pin_works: false,
                llc_bytes: 8 << 20,
            },
            anchor_machine: "Intel Kaby Lake 7700K".to_string(),
            stream_gbs: 35.8,
            suites: vec![SuiteResult {
                key: "fig9:64x64:pipelined".to_string(),
                label: "64x64".to_string(),
                executor: "pipelined".to_string(),
                p_d: 1,
                p_c: 1,
                buffer_elems: 256,
                warmup: 2,
                stats: crate::stats::SampleSummary {
                    n_raw: 5,
                    n_kept: 4,
                    median_ns: 123456.5,
                    ci_lo_ns: 120000.0,
                    ci_hi_ns: 130000.25,
                    min_ns: 119000.0,
                    max_ns: 131000.0,
                    mad_ns: 2500.0,
                },
                gflops: 1.9921875,
                stages: vec![
                    StageMetric {
                        stage: 0,
                        overlap_fraction: 0.875,
                        achieved_gbs: Some(10.5),
                        percent_of_stream: Some(29.329_608_938_547_486),
                    },
                    StageMetric {
                        stage: 1,
                        overlap_fraction: 0.0,
                        achieved_gbs: None,
                        percent_of_stream: None,
                    },
                ],
                serve: None,
                ooc: None,
                real: None,
            }],
        }
    }

    #[test]
    fn round_trip_exact() {
        let rep = sample_report();
        let back = from_json(&to_json(&rep)).unwrap();
        assert_eq!(back, rep);
    }

    #[test]
    fn serve_metrics_round_trip_and_stay_optional() {
        let mut rep = sample_report();
        rep.suite_kind = "serve".to_string();
        rep.suites[0].key = "serve:16x32:w2".to_string();
        rep.suites[0].executor = "serve".to_string();
        rep.suites[0].serve = Some(ServeMetrics {
            requests_per_sec: 1234.5,
            p50_ns: 80_000.0,
            p99_ns: 250_000.5,
            submitted: 64,
            completed: 60,
            rejected: 3,
            deadline_exceeded: 2,
            failed: 2,
            degraded: 5,
            breaker_trips: 1,
            plan_cache_hits: 58,
            plan_cache_misses: 2,
        });
        let json = to_json(&rep);
        assert!(json.contains("\"serve\":{"));
        assert!(json.contains("\"plan_cache_hits\":58"));
        assert!(json.contains("\"p99_ns\":"));
        assert!(json.contains("\"requests_per_sec\":"));
        let back = from_json(&json).unwrap();
        assert_eq!(back, rep);
        // A plain suite row emits no serve object at all, so pre-serve
        // consumers of bwfft-bench/1 never see the new field.
        let plain = to_json(&sample_report());
        assert!(!plain.contains("\"serve\""));
    }

    #[test]
    fn serve_object_with_missing_field_is_a_schema_error() {
        let mut rep = sample_report();
        rep.suites[0].serve = Some(ServeMetrics {
            requests_per_sec: 1.0,
            p50_ns: 1.0,
            p99_ns: 1.0,
            submitted: 1,
            completed: 1,
            rejected: 0,
            deadline_exceeded: 0,
            failed: 0,
            degraded: 0,
            breaker_trips: 0,
            plan_cache_hits: 0,
            plan_cache_misses: 0,
        });
        let json = to_json(&rep).replace("\"p99_ns\"", "\"p99_typo\"");
        assert!(matches!(from_json(&json), Err(BenchJsonError::Schema(_))));
    }

    #[test]
    fn serve_without_plan_cache_counters_parses_as_zero() {
        // Pre-cache serve records lack the counters entirely; they must
        // load with both read as zero, not fail the schema.
        let mut rep = sample_report();
        rep.suites[0].serve = Some(ServeMetrics {
            requests_per_sec: 1.0,
            p50_ns: 1.0,
            p99_ns: 1.0,
            submitted: 4,
            completed: 4,
            rejected: 0,
            deadline_exceeded: 0,
            failed: 0,
            degraded: 0,
            breaker_trips: 0,
            plan_cache_hits: 0,
            plan_cache_misses: 0,
        });
        let json = to_json(&rep)
            .replace(",\"plan_cache_hits\":0,\"plan_cache_misses\":0", "");
        let back = from_json(&json).unwrap();
        assert_eq!(back, rep);
    }

    #[test]
    fn ooc_metrics_round_trip_and_stay_optional() {
        let mut rep = sample_report();
        rep.suites[0].key = "ooc:n16384".to_string();
        rep.suites[0].executor = "ooc".to_string();
        rep.suites[0].ooc = Some(OocMetrics {
            storage_gbs: 3.25,
            bytes_read: 1_310_720,
            bytes_written: 1_310_720,
            io_ns: 456_789,
            retries: 1,
            serial_fallbacks: 0,
            faults_hit: 1,
            resumed_bytes: 0,
            reverified_blocks: 0,
        });
        let json = to_json(&rep);
        assert!(json.contains("\"ooc\":{"));
        assert!(json.contains("\"storage_gbs\":"));
        // Fresh runs carry no resume traffic, so the pair is omitted
        // and pre-crash-safe consumers see unchanged bytes.
        assert!(!json.contains("resumed_bytes"));
        let back = from_json(&json).unwrap();
        assert_eq!(back, rep);
        // A resumed run emits the pair and round-trips losslessly.
        let mut resumed = rep.clone();
        if let Some(m) = &mut resumed.suites[0].ooc {
            m.resumed_bytes = 655_360;
            m.reverified_blocks = 48;
        }
        let rjson = to_json(&resumed);
        assert!(rjson.contains("\"resumed_bytes\":655360,\"reverified_blocks\":48"));
        assert_eq!(from_json(&rjson).unwrap(), resumed);
        // Plain rows emit no ooc object, so the seed baseline and every
        // pre-ooc consumer of bwfft-bench/1 are untouched.
        let plain = to_json(&sample_report());
        assert!(!plain.contains("\"ooc\""));
        // A missing field inside an emitted ooc object is still a
        // schema error — the leniency is only for the absent column.
        let bad = json.replace("\"faults_hit\"", "\"faults_typo\"");
        assert!(matches!(from_json(&bad), Err(BenchJsonError::Schema(_))));
    }

    #[test]
    fn real_metrics_round_trip_and_stay_optional() {
        let mut rep = sample_report();
        rep.suites[0].key = "r2c:n16384".to_string();
        rep.suites[0].executor = "realfft".to_string();
        rep.suites[0].real = Some(RealMetrics {
            packed_bytes: 262_160,
            complex_bytes: 524_288,
            bytes_per_elem: 16.000_976_562_5,
            complex_bytes_per_elem: 32.0,
            effective_gbs: 2.125,
            complex_median_ns: 234_567.0,
        });
        let json = to_json(&rep);
        assert!(json.contains("\"real\":{"));
        assert!(json.contains("\"bytes_per_elem\":"));
        let back = from_json(&json).unwrap();
        assert_eq!(back, rep);
        // Plain rows emit no real object, so the seed baseline and
        // every pre-real consumer of bwfft-bench/1 are untouched.
        let plain = to_json(&sample_report());
        assert!(!plain.contains("\"real\""));
        // A missing field inside an emitted real object is still a
        // schema error — the leniency is only for the absent column.
        let bad = json.replace("\"effective_gbs\"", "\"effective_typo\"");
        assert!(matches!(from_json(&bad), Err(BenchJsonError::Schema(_))));
    }

    #[test]
    fn rejects_wrong_schema_version() {
        let json = to_json(&sample_report()).replace(SCHEMA_VERSION, "bwfft-bench/999");
        match from_json(&json) {
            Err(BenchJsonError::Version { found }) => assert_eq!(found, "bwfft-bench/999"),
            other => panic!("expected version error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(matches!(from_json(""), Err(BenchJsonError::Syntax { .. })));
        assert!(matches!(from_json("{"), Err(BenchJsonError::Syntax { .. })));
        assert!(matches!(from_json("[]"), Err(BenchJsonError::Schema(_))));
        assert!(matches!(
            from_json("{\"schema\":\"bwfft-bench/1\"}"),
            Err(BenchJsonError::Schema(_))
        ));
    }

    #[test]
    fn file_round_trip_and_typed_io_errors() {
        let dir = std::env::temp_dir().join("bwfft-bench-record-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(bench_filename("abc1234"));
        let rep = sample_report();
        write_file(&path, &rep).unwrap();
        assert_eq!(read_file(&path).unwrap(), rep);
        let missing = dir.join("BENCH_missing.json");
        assert!(matches!(
            read_file(&missing),
            Err(BenchFileError::Io { .. })
        ));
        std::fs::write(dir.join("garbage.json"), "nope").unwrap();
        assert!(matches!(
            read_file(&dir.join("garbage.json")),
            Err(BenchFileError::Json { .. })
        ));
    }

    #[test]
    fn git_rev_env_override_wins() {
        // Can't mutate the process env safely in parallel tests; just
        // check the fallback path produces *something* non-empty.
        assert!(!detect_git_rev().is_empty());
        assert_eq!(bench_filename("seed"), "BENCH_seed.json");
    }
}
