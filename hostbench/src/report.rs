//! Output: the `workload metric value unit` lines, the final JSON line,
//! the `bwfft-e2e/1` result file, and `--compare`.

use crate::contract::{Better, Contract};
use crate::measure::median;
use crate::{BenchError, Metric, Outcome, Result};
use bwfft_trace::value::{parse_document, push_escaped, push_f64, Value};
use std::collections::BTreeMap;
use std::path::Path;

pub const SCHEMA: &str = "bwfft-e2e/1";

/// A workload's metrics in `BENCHMARK.json` order.
#[derive(Debug)]
pub struct Final {
    pub e2e: Vec<Metric>,
    pub layers: Vec<Metric>,
    /// Per-layer metrics this workload does not exercise; reported as 0.
    pub unmeasured: Vec<String>,
}

fn unit_matches(m: &Metric, unit: &str) -> Result<()> {
    if m.unit == unit {
        Ok(())
    } else {
        Err(BenchError::new(format!(
            "{} is measured in {} but BENCHMARK.json says {unit}",
            m.name, m.unit
        )))
    }
}

/// Orders an outcome's metrics by the contract. Every end-to-end metric
/// must be present; a per-layer metric a workload does not exercise is
/// reported as 0 and listed as unmeasured. A metric the contract does
/// not name is an error.
pub fn finalize(outcome: &Outcome, contract: &Contract) -> Result<Final> {
    for m in outcome.e2e.iter().chain(&outcome.layers) {
        let known = contract
            .end_to_end
            .iter()
            .chain(&contract.per_layer)
            .any(|s| s.name == m.name);
        if !known {
            return Err(BenchError::new(format!(
                "{} is not named in BENCHMARK.json",
                m.name
            )));
        }
    }
    let mut e2e = Vec::new();
    for spec in &contract.end_to_end {
        let m = outcome
            .e2e
            .iter()
            .find(|m| m.name == spec.name)
            .ok_or_else(|| BenchError::new(format!("{} was not measured", spec.name)))?;
        unit_matches(m, &spec.unit)?;
        e2e.push(m.clone());
    }
    let mut layers = Vec::new();
    let mut unmeasured = Vec::new();
    if !outcome.layers.is_empty() {
        for spec in &contract.per_layer {
            match outcome.layers.iter().find(|m| m.name == spec.name) {
                Some(m) => {
                    unit_matches(m, &spec.unit)?;
                    layers.push(m.clone());
                }
                None => {
                    unmeasured.push(spec.name.clone());
                    layers.push(Metric::new(&spec.name, 0.0, &spec.unit));
                }
            }
        }
    }
    Ok(Final {
        e2e,
        layers,
        unmeasured,
    })
}

/// Every metric as `workload metric value unit`, notes as `# ` lines.
pub fn lines(workload: &str, outcome: &Outcome, fin: &Final) -> Vec<String> {
    let mut v: Vec<String> = outcome
        .notes
        .iter()
        .map(|n| format!("# {workload}: {n}"))
        .collect();
    for m in fin.e2e.iter().chain(&fin.layers) {
        v.push(format!("{workload} {} {} {}", m.name, m.value, m.unit));
    }
    if !fin.unmeasured.is_empty() {
        v.push(format!(
            "# {workload}: not exercised by this workload (reported as 0): {}",
            fin.unmeasured.join(", ")
        ));
    }
    v.push(format!(
        "# {workload}: checked {} outputs, {} failed",
        outcome.attempted, outcome.failed
    ));
    v
}

fn push_metrics(out: &mut String, metrics: &[Metric]) {
    out.push('{');
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_escaped(out, &m.name);
        out.push_str(": {\"value\": ");
        push_f64(out, m.value);
        out.push_str(", \"unit\": ");
        push_escaped(out, &m.unit);
        out.push('}');
    }
    out.push('}');
}

/// The last stdout line: end-to-end metrics untraced, per-layer traced.
pub fn json_line(outcome: &Outcome, fin: &Final, trace: bool) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": ",
        outcome.correct(),
        outcome.attempted,
        outcome.failed
    );
    push_metrics(&mut s, if trace { &fin.layers } else { &fin.e2e });
    s.push('}');
    s
}

/// One workload run as kept in a result file.
#[derive(Clone, Debug, PartialEq)]
pub struct RunRecord {
    pub run: u64,
    pub seed: u64,
    pub workload: String,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// Parses the `workload metric value unit` lines of one child's stdout.
pub fn parse_lines(workload: &str, stdout: &str) -> Vec<Metric> {
    stdout
        .lines()
        .filter_map(|l| {
            let t: Vec<&str> = l.split_whitespace().collect();
            match t.as_slice() {
                [w, name, value, unit] if *w == workload => value
                    .parse::<f64>()
                    .ok()
                    .map(|v| Metric::new(name, v, unit)),
                _ => None,
            }
        })
        .collect()
}

/// Parses the final JSON line of one child's stdout:
/// `(correct, attempted, failed)`.
pub fn parse_verdict(stdout: &str) -> Option<(bool, u64, u64)> {
    let doc = parse_document(stdout.lines().last()?).ok()?;
    let o = doc.as_obj()?;
    Some((
        o.get("correct")?.as_bool()?,
        o.get("attempted")?.as_u64()?,
        o.get("failed")?.as_u64()?,
    ))
}

fn run_json(r: &RunRecord) -> String {
    let mut s = format!("{{\"run\": {}, \"seed\": {}, \"workload\": ", r.run, r.seed);
    push_escaped(&mut s, &r.workload);
    s.push_str(&format!(
        ", \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": ",
        r.correct, r.attempted, r.failed
    ));
    push_metrics(&mut s, &r.metrics);
    s.push('}');
    s
}

/// A labelled set of runs of one commit.
#[derive(Clone, Debug, PartialEq)]
pub struct RunSet {
    pub label: String,
    pub seconds: f64,
    pub runs: Vec<RunRecord>,
}

fn bad(what: &str) -> BenchError {
    BenchError::new(format!("result file: bad or missing {what}"))
}

fn parse_run(v: &Value) -> Result<RunRecord> {
    let o = v.as_obj().ok_or_else(|| bad("run"))?;
    let get = |k: &str| o.get(k).ok_or_else(|| bad(k));
    let mut metrics = Vec::new();
    for (name, m) in get("metrics")?.as_obj().ok_or_else(|| bad("metrics"))? {
        let mo = m.as_obj().ok_or_else(|| bad("metric"))?;
        metrics.push(Metric::new(
            name,
            mo.get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| bad("value"))?,
            mo.get("unit")
                .and_then(Value::as_str)
                .ok_or_else(|| bad("unit"))?,
        ));
    }
    Ok(RunRecord {
        run: get("run")?.as_u64().ok_or_else(|| bad("run"))?,
        seed: get("seed")?.as_u64().ok_or_else(|| bad("seed"))?,
        workload: get("workload")?
            .as_str()
            .ok_or_else(|| bad("workload"))?
            .to_string(),
        correct: get("correct")?.as_bool().ok_or_else(|| bad("correct"))?,
        attempted: get("attempted")?.as_u64().ok_or_else(|| bad("attempted"))?,
        failed: get("failed")?.as_u64().ok_or_else(|| bad("failed"))?,
        metrics,
    })
}

pub fn parse_sets(src: &str) -> Result<Vec<RunSet>> {
    let doc = parse_document(src)?;
    let o = doc.as_obj().ok_or_else(|| bad("document"))?;
    if o.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
        return Err(bad("schema"));
    }
    let mut sets = Vec::new();
    for s in o
        .get("sets")
        .and_then(Value::as_arr)
        .ok_or_else(|| bad("sets"))?
    {
        let so = s.as_obj().ok_or_else(|| bad("set"))?;
        sets.push(RunSet {
            label: so
                .get("label")
                .and_then(Value::as_str)
                .ok_or_else(|| bad("label"))?
                .to_string(),
            seconds: so
                .get("seconds")
                .and_then(Value::as_f64)
                .ok_or_else(|| bad("seconds"))?,
            runs: so
                .get("runs")
                .and_then(Value::as_arr)
                .ok_or_else(|| bad("runs"))?
                .iter()
                .map(parse_run)
                .collect::<Result<_>>()?,
        });
    }
    Ok(sets)
}

pub fn sets_json(sets: &[RunSet]) -> String {
    let mut s = format!("{{\"schema\": \"{SCHEMA}\", \"sets\": [");
    for (i, set) in sets.iter().enumerate() {
        s.push_str(if i > 0 { ",\n" } else { "\n" });
        s.push_str("{\"label\": ");
        push_escaped(&mut s, &set.label);
        s.push_str(", \"seconds\": ");
        push_f64(&mut s, set.seconds);
        s.push_str(", \"runs\": [");
        for (j, r) in set.runs.iter().enumerate() {
            s.push_str(if j > 0 { ",\n  " } else { "\n  " });
            s.push_str(&run_json(r));
        }
        s.push_str("\n]}");
    }
    s.push_str("\n]}\n");
    s
}

/// Appends `set` to the result file at `path` (created if absent).
pub fn append_set(path: &Path, set: RunSet) -> Result<()> {
    let mut sets = if path.exists() {
        parse_sets(&std::fs::read_to_string(path)?)?
    } else {
        Vec::new()
    };
    sets.push(set);
    std::fs::write(path, sets_json(&sets))?;
    Ok(())
}

/// One row of a comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    /// Change of B against A, as a share of A, signed so that positive
    /// is worse.
    pub worse_by: f64,
    pub bound: f64,
    pub verdict: &'static str,
}

fn medians(set: &RunSet) -> BTreeMap<(String, String), f64> {
    let mut samples: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for r in &set.runs {
        for m in &r.metrics {
            samples
                .entry((r.workload.clone(), m.name.clone()))
                .or_default()
                .push(m.value);
        }
    }
    samples.into_iter().map(|(k, v)| (k, median(&v))).collect()
}

/// Pairs every workload × end-to-end metric median of two sets. A row
/// agrees when B is within the metric's bound of A in either direction.
pub fn compare(a: &RunSet, b: &RunSet, contract: &Contract) -> Vec<Row> {
    let (ma, mb) = (medians(a), medians(b));
    let mut rows = Vec::new();
    for w in &contract.workloads {
        for spec in &contract.end_to_end {
            let key = (w.clone(), spec.name.clone());
            let (Some(&va), Some(&vb)) = (ma.get(&key), mb.get(&key)) else {
                continue;
            };
            let change = if va == 0.0 { 0.0 } else { (vb - va) / va.abs() };
            let worse_by = match spec.better {
                Better::Lower => change,
                Better::Higher => -change,
            };
            let bound = spec.bound.unwrap_or(0.0);
            let verdict = if worse_by > bound {
                "worse"
            } else if worse_by < -bound {
                "better"
            } else {
                "agree"
            };
            rows.push(Row {
                workload: w.clone(),
                metric: spec.name.clone(),
                a: va,
                b: vb,
                worse_by,
                bound,
                verdict,
            });
        }
    }
    rows
}

pub fn render_rows(a: &RunSet, b: &RunSet, rows: &[Row]) -> String {
    let mut s = format!(
        "A = {:?} ({} runs), B = {:?} ({} runs); medians per workload x metric\n",
        a.label,
        a.runs.len(),
        b.label,
        b.runs.len()
    );
    s.push_str(&format!(
        "{:<14} {:<18} {:>12} {:>12} {:>9} {:>7}  verdict\n",
        "workload", "metric", "A", "B", "worse_by", "bound"
    ));
    for r in rows {
        s.push_str(&format!(
            "{:<14} {:<18} {:>12.5} {:>12.5} {:>8.2}% {:>6.0}%  {}\n",
            r.workload,
            r.metric,
            r.a,
            r.b,
            100.0 * r.worse_by,
            100.0 * r.bound,
            r.verdict
        ));
    }
    s
}
