//! `BENCHMARK.json`: the single list of workloads, metric names, units,
//! directions and regression bounds. The benchmark reads it at run time
//! and refuses to report a metric the file does not name, or under a
//! different unit, so the file and the program cannot drift apart.

use crate::{BenchError, Result};
use bwfft_trace::value::{parse_document, Value};
use std::path::Path;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

#[derive(Clone, Debug, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the baseline median the metric may worsen by before a
    /// change counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

#[derive(Clone, Debug, PartialEq)]
pub struct Contract {
    pub workloads: Vec<String>,
    pub run_seconds: f64,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn field<'a>(obj: &'a Value, key: &str) -> Result<&'a Value> {
    obj.as_obj()
        .and_then(|m| m.get(key))
        .ok_or_else(|| BenchError::new(format!("BENCHMARK.json: missing {key:?}")))
}

fn text(obj: &Value, key: &str) -> Result<String> {
    field(obj, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| BenchError::new(format!("BENCHMARK.json: {key:?} is not a string")))
}

fn list<'a>(obj: &'a Value, key: &str) -> Result<&'a [Value]> {
    field(obj, key)?
        .as_arr()
        .ok_or_else(|| BenchError::new(format!("BENCHMARK.json: {key:?} is not a list")))
}

fn metric(v: &Value, bounded: bool) -> Result<MetricSpec> {
    let better = match text(v, "better")?.as_str() {
        "higher" => Better::Higher,
        "lower" => Better::Lower,
        other => {
            return Err(BenchError::new(format!(
                "BENCHMARK.json: better = {other:?}"
            )))
        }
    };
    let bound = if bounded {
        Some(
            field(v, "bound")?
                .as_f64()
                .ok_or_else(|| BenchError::new("BENCHMARK.json: bound is not a number"))?,
        )
    } else {
        None
    };
    Ok(MetricSpec {
        name: text(v, "name")?,
        unit: text(v, "unit")?,
        better,
        bound,
    })
}

impl Contract {
    pub fn parse(src: &str) -> Result<Contract> {
        let doc = parse_document(src)?;
        Ok(Contract {
            workloads: list(&doc, "workloads")?
                .iter()
                .map(|w| text(w, "name"))
                .collect::<Result<_>>()?,
            run_seconds: field(&doc, "run_seconds")?
                .as_f64()
                .ok_or_else(|| BenchError::new("BENCHMARK.json: run_seconds"))?,
            end_to_end: list(&doc, "end_to_end")?
                .iter()
                .map(|m| metric(m, true))
                .collect::<Result<_>>()?,
            per_layer: list(&doc, "per_layer")?
                .iter()
                .map(|m| metric(m, false))
                .collect::<Result<_>>()?,
        })
    }

    pub fn load(path: &Path) -> Result<Contract> {
        let src = std::fs::read_to_string(path)
            .map_err(|e| BenchError::new(format!("{}: {e}", path.display())))?;
        Self::parse(&src)
    }

    pub fn e2e(&self, name: &str) -> Option<&MetricSpec> {
        self.end_to_end.iter().find(|m| m.name == name)
    }
}
