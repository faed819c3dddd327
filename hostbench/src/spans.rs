//! In-memory spans recorded by the benchmark around its own calls into
//! the library (never from inside it).
//!
//! Each span has a name, start and end (ns since the log's origin), the
//! span that caused it, and the traced operation it belongs to. A
//! layer's self time is its duration minus the part of that interval
//! its child spans cover. Spans are kept in memory and written as JSON
//! when the benchmark ends.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A shared, append-only span log.
pub struct SpanLog {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for SpanLog {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the log's origin.
    pub fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn fresh_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records an already-timed interval; returns its id.
    pub fn record(
        &self,
        name: &'static str,
        op: u64,
        parent: Option<u64>,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.fresh_id();
        self.push(Span {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    fn push(&self, span: Span) {
        // A poisoned log only means a traced call panicked mid-push;
        // the vector itself is intact.
        self.spans
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(span);
    }

    /// Times `f` as a span; `f` receives the span's id so the spans it
    /// records can name it as their parent.
    pub fn time<T>(
        &self,
        name: &'static str,
        op: u64,
        parent: Option<u64>,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        let id = self.fresh_id();
        let start_ns = self.now();
        let out = f(id);
        let end_ns = self.now();
        self.push(Span {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    /// All spans recorded so far, in id order.
    pub fn snapshot(&self) -> Vec<Span> {
        let mut v = self.spans.lock().unwrap_or_else(|e| e.into_inner()).clone();
        v.sort_by_key(|s| s.id);
        v
    }
}

/// Per-operation sums of one span name's durations, in op order.
pub fn per_op_sum(spans: &[Span], name: &str) -> Vec<f64> {
    let mut sums: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        *sums.entry(s.op).or_default() += s.duration_ns() as f64;
    }
    sums.into_values().collect()
}

/// Self time of every span, by id: its duration minus the union of its
/// direct children's intervals (clipped to the parent).
pub fn self_times_ns(spans: &[Span]) -> HashMap<u64, u64> {
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut kids: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(parent) = s.parent.and_then(|p| by_id.get(&p)) {
            let iv = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if iv.1 > iv.0 {
                kids.entry(parent.id).or_default().push(iv);
            }
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = kids.get_mut(&s.id).map_or(0, |iv| union_len(iv));
            (s.id, s.duration_ns().saturating_sub(covered))
        })
        .collect()
}

fn union_len(iv: &mut [(u64, u64)]) -> u64 {
    iv.sort_unstable();
    let mut covered = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for &(a, b) in iv.iter() {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    covered + cur.map_or(0, |(a, b)| b - a)
}

/// The spans as a JSON array (one object per span, self time included).
pub fn to_json(spans: &[Span]) -> String {
    let selfs = self_times_ns(spans);
    let mut out = String::from("[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n{{\"id\":{},\"parent\":{},\"op\":{},\"name\":",
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.op
        ));
        bwfft_trace::value::push_escaped(&mut out, s.name);
        out.push_str(&format!(
            ",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            s.start_ns,
            s.end_ns,
            selfs.get(&s.id).copied().unwrap_or(0)
        ));
    }
    out.push_str("\n]");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let log = SpanLog::new();
        let root = log.record("root", 0, None, 0, 100);
        log.record("a", 0, Some(root), 10, 40);
        log.record("b", 0, Some(root), 30, 50); // overlaps a
        log.record("c", 0, Some(root), 90, 120); // clipped at 100
        let spans = log.snapshot();
        assert_eq!(self_times_ns(&spans)[&root], 100 - 40 - 10);
        assert_eq!(per_op_sum(&spans, "a"), vec![30.0]);
    }
}
