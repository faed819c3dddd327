//! Persistent wisdom: tuned plans that survive the process.
//!
//! The on-disk format is a deliberately tiny hand-rolled text format
//! (no serde in the dependency tree):
//!
//! ```text
//! bwfft-wisdom v2
//! host cpus=8 pin=1 llc=8388608
//! plan dims=3d:64x64x64 dir=fwd mu=4 b=65536 pd=2 pc=2 nt=1 exec=pipe meas=1 score_ns=123456.5
//! ```
//!
//! Line 1 is the versioned magic, line 2 the host fingerprint the
//! records were tuned under, each further non-comment line one tuned
//! plan. `#`-prefixed lines and blank lines are ignored.
//!
//! Failure philosophy (mirrors the fault-tolerant executor): a file
//! that *cannot be parsed* is a typed [`TunerError::WisdomParse`] —
//! never a panic — while a file that parses but was produced by a
//! different format version or a different machine is **not an error**:
//! [`load`] reports it as a [`RetuneReason`] and the caller falls back
//! to tuning from scratch.

use crate::error::TunerError;
use crate::fingerprint::HostFingerprint;
use crate::search::TuningRecord;
use bwfft_core::{Dims, ExecutorKind};
use bwfft_kernels::Direction;
use std::path::Path;

/// Current wisdom format version. Bump on any incompatible change to
/// the line grammar; old files then degrade to re-tuning, not errors.
pub const WISDOM_VERSION: u32 = 2;

/// A parsed wisdom file: the fingerprint it was tuned under plus its
/// records.
#[derive(Clone, Debug, PartialEq)]
pub struct Wisdom {
    pub fingerprint: HostFingerprint,
    pub records: Vec<TuningRecord>,
}

/// Why a wisdom file was set aside in favour of re-tuning. These are
/// expected conditions, not failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RetuneReason {
    /// No file at the given path (first run).
    NoWisdomFile,
    /// The file's format version differs from [`WISDOM_VERSION`].
    VersionMismatch { found: u32 },
    /// The file was tuned on a different machine shape.
    HostMismatch { found: HostFingerprint },
}

impl core::fmt::Display for RetuneReason {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RetuneReason::NoWisdomFile => write!(f, "no wisdom file"),
            RetuneReason::VersionMismatch { found } => {
                write!(f, "wisdom version v{found} != supported v{WISDOM_VERSION}")
            }
            RetuneReason::HostMismatch { found } => {
                write!(f, "wisdom tuned on a different host ({found})")
            }
        }
    }
}

/// Outcome of [`load`]: either usable records or a typed reason to tune
/// from scratch.
#[derive(Clone, Debug, PartialEq)]
pub enum WisdomLoad {
    Usable(Wisdom),
    Retune(RetuneReason),
}

impl Wisdom {
    pub fn new(fingerprint: HostFingerprint) -> Self {
        Wisdom {
            fingerprint,
            records: Vec::new(),
        }
    }

    /// Renders the full file, ready to write.
    pub fn serialize(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("bwfft-wisdom v{WISDOM_VERSION}\n"));
        out.push_str(&format!("host {}\n", self.fingerprint.token()));
        for rec in &self.records {
            out.push_str(&record_line(rec));
            out.push('\n');
        }
        out
    }

    /// Parses [`serialize`](Self::serialize) output. Version/host
    /// checking is the caller's job ([`load`] does it); this only
    /// rejects text that does not follow the current grammar.
    pub fn parse(text: &str) -> Result<(u32, Self), TunerError> {
        let version = parse_magic(text)?;
        let mut lines = text.lines().enumerate().skip(1);
        let (host_idx, host_line) = lines.next().ok_or(TunerError::WisdomParse {
            line: 2,
            reason: "missing host fingerprint line".into(),
        })?;
        let rest = host_line.strip_prefix("host ").ok_or_else(|| TunerError::WisdomParse {
            line: host_idx + 1,
            reason: "expected `host cpus=.. pin=.. llc=..`".into(),
        })?;
        let fingerprint = HostFingerprint::parse(rest, host_idx + 1)?;
        let mut records = Vec::new();
        for (idx, line) in lines {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            records.push(parse_record_line(line, idx + 1)?);
        }
        Ok((
            version,
            Wisdom {
                fingerprint,
                records,
            },
        ))
    }
}

/// Loads wisdom from `path` for a host with fingerprint `fp`.
///
/// - Missing file, other version, other host → `Ok(Retune(reason))`.
///   The version is read before anything else, so a file written in
///   another version's grammar retunes instead of failing to parse.
/// - Unreadable or unparseable file → `Err` (typed, never a panic).
/// - Otherwise → `Ok(Usable(wisdom))`.
pub fn load(path: &Path, fp: &HostFingerprint) -> Result<WisdomLoad, TunerError> {
    if !path.exists() {
        return Ok(WisdomLoad::Retune(RetuneReason::NoWisdomFile));
    }
    let text = std::fs::read_to_string(path).map_err(|e| TunerError::WisdomIo {
        path: path.display().to_string(),
        detail: e.to_string(),
    })?;
    let version = parse_magic(&text)?;
    if version != WISDOM_VERSION {
        return Ok(WisdomLoad::Retune(RetuneReason::VersionMismatch {
            found: version,
        }));
    }
    let (_, wisdom) = Wisdom::parse(&text)?;
    if wisdom.fingerprint != *fp {
        return Ok(WisdomLoad::Retune(RetuneReason::HostMismatch {
            found: wisdom.fingerprint,
        }));
    }
    Ok(WisdomLoad::Usable(wisdom))
}

/// Writes `wisdom` to `path`, creating parent directories as needed.
pub fn save(path: &Path, wisdom: &Wisdom) -> Result<(), TunerError> {
    let io_err = |e: std::io::Error| TunerError::WisdomIo {
        path: path.display().to_string(),
        detail: e.to_string(),
    };
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(io_err)?;
        }
    }
    std::fs::write(path, wisdom.serialize()).map_err(io_err)
}

/// The format version from line 1 of `text`, the versioned magic.
fn parse_magic(text: &str) -> Result<u32, TunerError> {
    let err = |reason: String| TunerError::WisdomParse { line: 1, reason };
    let line = text
        .lines()
        .next()
        .ok_or_else(|| err("empty wisdom file".into()))?;
    let rest = line
        .strip_prefix("bwfft-wisdom v")
        .ok_or_else(|| err(format!("expected `bwfft-wisdom v<N>`, found `{line}`")))?;
    rest.parse()
        .map_err(|_| err(format!("non-numeric wisdom version `{rest}`")))
}

fn dims_token(dims: &Dims) -> String {
    match *dims {
        Dims::Two { n, m } => format!("2d:{n}x{m}"),
        Dims::Three { k, n, m } => format!("3d:{k}x{n}x{m}"),
    }
}

fn parse_dims(token: &str, line: usize) -> Result<Dims, TunerError> {
    let err = |reason: String| TunerError::WisdomParse { line, reason };
    let (kind, sizes) = token
        .split_once(':')
        .ok_or_else(|| err(format!("dims token `{token}` is not <kind>:<sizes>")))?;
    let parts: Vec<usize> = sizes
        .split('x')
        .map(|p| {
            p.parse()
                .map_err(|_| err(format!("non-numeric dimension `{p}` in `{token}`")))
        })
        .collect::<Result<_, _>>()?;
    match (kind, parts.as_slice()) {
        ("2d", &[n, m]) => Ok(Dims::d2(n, m)),
        ("3d", &[k, n, m]) => Ok(Dims::d3(k, n, m)),
        _ => Err(err(format!("dims token `{token}` has the wrong arity"))),
    }
}

fn record_line(rec: &TuningRecord) -> String {
    format!(
        "plan dims={} dir={} mu={} b={} pd={} pc={} nt={} exec={} meas={} score_ns={}",
        dims_token(&rec.dims),
        match rec.dir {
            Direction::Forward => "fwd",
            Direction::Inverse => "inv",
        },
        rec.mu,
        rec.buffer_elems,
        rec.p_d,
        rec.p_c,
        u8::from(rec.non_temporal),
        match rec.executor {
            ExecutorKind::Pipelined => "pipe",
            ExecutorKind::Fused => "fused",
        },
        u8::from(rec.measured),
        // f64 Display is shortest-roundtrip in Rust, so parse() gets
        // the identical value back.
        rec.score_ns,
    )
}

fn parse_record_line(line: &str, line_no: usize) -> Result<TuningRecord, TunerError> {
    let err = |reason: String| TunerError::WisdomParse {
        line: line_no,
        reason,
    };
    let rest = line
        .strip_prefix("plan ")
        .ok_or_else(|| err(format!("expected a `plan ...` record, found `{line}`")))?;

    let mut dims = None;
    let mut dir = None;
    let mut mu = None;
    let mut b = None;
    let mut pd = None;
    let mut pc = None;
    let mut nt = None;
    let mut exec = None;
    let mut meas = None;
    let mut score = None;

    for field in rest.split_whitespace() {
        let (key, value) = field
            .split_once('=')
            .ok_or_else(|| err(format!("field `{field}` is not key=value")))?;
        let num = |v: &str| -> Result<usize, TunerError> {
            v.parse()
                .map_err(|_| err(format!("field `{key}` has non-numeric value `{v}`")))
        };
        match key {
            "dims" => dims = Some(parse_dims(value, line_no)?),
            "dir" => {
                dir = Some(match value {
                    "fwd" => Direction::Forward,
                    "inv" => Direction::Inverse,
                    other => return Err(err(format!("unknown direction `{other}`"))),
                })
            }
            "mu" => mu = Some(num(value)?),
            "b" => b = Some(num(value)?),
            "pd" => pd = Some(num(value)?),
            "pc" => pc = Some(num(value)?),
            "nt" => nt = Some(num(value)? != 0),
            "exec" => {
                exec = Some(match value {
                    "pipe" => ExecutorKind::Pipelined,
                    "fused" => ExecutorKind::Fused,
                    other => return Err(err(format!("unknown executor `{other}`"))),
                })
            }
            "meas" => meas = Some(num(value)? != 0),
            "score_ns" => {
                let v: f64 = value
                    .parse()
                    .map_err(|_| err(format!("non-numeric score_ns `{value}`")))?;
                if !v.is_finite() {
                    return Err(err(format!("non-finite score_ns `{value}`")));
                }
                score = Some(v);
            }
            other => return Err(err(format!("unknown plan field `{other}`"))),
        }
    }

    match (dims, dir, mu, b, pd, pc, nt, exec, meas, score) {
        (
            Some(dims),
            Some(dir),
            Some(mu),
            Some(buffer_elems),
            Some(p_d),
            Some(p_c),
            Some(non_temporal),
            Some(executor),
            Some(measured),
            Some(score_ns),
        ) => Ok(TuningRecord {
            dims,
            dir,
            mu,
            buffer_elems,
            p_d,
            p_c,
            non_temporal,
            executor,
            score_ns,
            measured,
        }),
        _ => Err(err("plan record is missing required fields".into())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp() -> HostFingerprint {
        HostFingerprint {
            cpus: 8,
            pin_works: true,
            llc_bytes: 8 << 20,
        }
    }

    fn sample_record() -> TuningRecord {
        TuningRecord {
            dims: Dims::d3(64, 32, 16),
            dir: Direction::Inverse,
            mu: 4,
            buffer_elems: 4096,
            p_d: 2,
            p_c: 6,
            non_temporal: true,
            executor: ExecutorKind::Fused,
            score_ns: 123456.75,
            measured: true,
        }
    }

    #[test]
    fn serialize_parse_roundtrip() {
        let mut w = Wisdom::new(fp());
        w.records.push(sample_record());
        w.records.push(TuningRecord {
            dims: Dims::d2(64, 64),
            dir: Direction::Forward,
            executor: ExecutorKind::Pipelined,
            non_temporal: false,
            measured: false,
            score_ns: 0.125,
            mu: 1,
            buffer_elems: 512,
            p_d: 1,
            p_c: 1,
        });
        let (version, parsed) = Wisdom::parse(&w.serialize()).unwrap();
        assert_eq!(version, WISDOM_VERSION);
        assert_eq!(parsed, w);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = format!(
            "bwfft-wisdom v1\nhost {}\n\n# a comment\n{}\n",
            fp().token(),
            super::record_line(&sample_record())
        );
        let (_, parsed) = Wisdom::parse(&text).unwrap();
        assert_eq!(parsed.records.len(), 1);
    }

    #[test]
    fn load_reports_missing_file_as_retune() {
        let got = load(Path::new("/nonexistent/wisdom.txt"), &fp()).unwrap();
        assert_eq!(got, WisdomLoad::Retune(RetuneReason::NoWisdomFile));
    }

    #[test]
    fn load_degrades_on_version_and_host_mismatch() {
        let dir = std::env::temp_dir().join("bwfft-wisdom-test-mismatch");
        std::fs::create_dir_all(&dir).unwrap();

        let next = WISDOM_VERSION + 1;
        let future = dir.join("future.wisdom");
        std::fs::write(
            &future,
            format!("bwfft-wisdom v{next}\nhost {}\n", fp().token()),
        )
        .unwrap();
        assert_eq!(
            load(&future, &fp()).unwrap(),
            WisdomLoad::Retune(RetuneReason::VersionMismatch { found: next })
        );

        let other = dir.join("other-host.wisdom");
        let other_fp = HostFingerprint {
            cpus: 128,
            ..fp()
        };
        std::fs::write(
            &other,
            format!(
                "bwfft-wisdom v{WISDOM_VERSION}\nhost {}\n",
                other_fp.token()
            ),
        )
        .unwrap();
        assert_eq!(
            load(&other, &fp()).unwrap(),
            WisdomLoad::Retune(RetuneReason::HostMismatch { found: other_fp })
        );
    }

    #[test]
    fn load_reads_the_version_before_any_record() {
        // Another version's records need not follow this grammar: the
        // file must retune, not fail to parse.
        let dir = std::env::temp_dir().join("bwfft-wisdom-test-version-first");
        std::fs::create_dir_all(&dir).unwrap();

        let next = WISDOM_VERSION + 1;
        let future = dir.join("future.wisdom");
        let text = format!(
            "bwfft-wisdom v{next}\nhost {}\nplan dims=2d:8x8 shape=new meas=0\n",
            fp().token()
        );
        std::fs::write(&future, text).unwrap();
        assert_eq!(
            load(&future, &fp()).unwrap(),
            WisdomLoad::Retune(RetuneReason::VersionMismatch { found: next })
        );

        let v1 = dir.join("v1.wisdom");
        let text = format!(
            "bwfft-wisdom v1\nhost {}\n\
             plan dims=2d:64x64 dir=fwd mu=4 b=512 pd=1 pc=1 nt=1 exec=fused kernel=r2 meas=0 score_ns=1.5\n\
             plan dims=2d:32x32 dir=fwd mu=4 b=256 pd=1 pc=1 nt=1 exec=fused kernel=r4 meas=1 score_ns=2.5\n",
            fp().token()
        );
        std::fs::write(&v1, text).unwrap();
        assert_eq!(
            load(&v1, &fp()).unwrap(),
            WisdomLoad::Retune(RetuneReason::VersionMismatch { found: 1 })
        );
    }

    #[test]
    fn save_then_load_is_usable() {
        let dir = std::env::temp_dir().join("bwfft-wisdom-test-roundtrip");
        let path = dir.join("nested").join("w.wisdom");
        let mut w = Wisdom::new(fp());
        w.records.push(sample_record());
        save(&path, &w).unwrap();
        assert_eq!(load(&path, &fp()).unwrap(), WisdomLoad::Usable(w));
    }

    #[test]
    fn corrupted_lines_are_typed_errors() {
        let cases = [
            ("", 1),                                        // empty
            ("garbage", 1),                                 // bad magic
            ("bwfft-wisdom vX\nhost cpus=1 pin=0 llc=0", 1), // bad version
            ("bwfft-wisdom v1", 2),                         // truncated
            ("bwfft-wisdom v1\nnope", 2),                   // bad host line
            ("bwfft-wisdom v1\nhost cpus=1 pin=0 llc=0\nplan dims=9d:1", 3),
            ("bwfft-wisdom v1\nhost cpus=1 pin=0 llc=0\nplan mu=4", 3),
        ];
        for (text, want_line) in cases {
            match Wisdom::parse(text) {
                Err(TunerError::WisdomParse { line, .. }) => {
                    assert_eq!(line, want_line, "for {text:?}")
                }
                other => panic!("expected parse error for {text:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn nonfinite_scores_rejected() {
        let text = format!(
            "bwfft-wisdom v{WISDOM_VERSION}\nhost {}\nplan dims=2d:8x8 dir=fwd mu=1 b=64 pd=1 pc=1 nt=0 exec=pipe meas=0 score_ns=NaN",
            fp().token()
        );
        assert!(matches!(
            Wisdom::parse(&text),
            Err(TunerError::WisdomParse { line: 3, .. })
        ));
    }
}
