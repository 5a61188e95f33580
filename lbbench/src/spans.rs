//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end, a parent span and a trace id;
//! the spans of one trial (or one set-up, or one checked sample) share
//! the trace id. Spans are kept in memory and written once, when the run
//! ends. A span's self time is its duration minus the part of its
//! interval that its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub trace: u64,
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A handle on an open span, passed to the closure so it can open
/// children.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    pub trace: u64,
    pub id: u64,
}

pub struct Tracer {
    t0: Instant,
    next_id: AtomicU64,
    next_trace: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            next_id: AtomicU64::new(1),
            next_trace: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a root span under a fresh trace id.
    pub fn root<R>(&self, name: &'static str, f: impl FnOnce(Ctx) -> R) -> R {
        let trace = self.next_trace.fetch_add(1, Ordering::Relaxed);
        self.record(trace, None, name, f)
    }

    /// Opens a child span of `parent`, in the parent's trace.
    pub fn child<R>(&self, parent: Ctx, name: &'static str, f: impl FnOnce(Ctx) -> R) -> R {
        self.record(parent.trace, Some(parent.id), name, f)
    }

    fn record<R>(
        &self,
        trace: u64,
        parent: Option<u64>,
        name: &'static str,
        f: impl FnOnce(Ctx) -> R,
    ) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(Ctx { trace, id });
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("span store poisoned by a panicking recorder")
            .push(Span {
                trace,
                id,
                parent,
                name,
                start_ns,
                end_ns,
            });
        out
    }

    /// Every recorded span, ordered by start.
    pub fn finish(self) -> Vec<Span> {
        let mut spans = self
            .spans
            .into_inner()
            .expect("span store poisoned by a panicking recorder");
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to the span).
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.id, s.dur_ns() - covered)
        })
        .collect()
}

/// Per span name: count, total duration and total self time (ns).
pub fn summary(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += selfs[&s.id];
    }
    out
}

/// Writes one JSON object per span (with its self time) to `path`.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let selfs = self_times(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"trace\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            s.trace, s.id, parent, s.name, s.start_ns, s.end_ns, selfs[&s.id]
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            trace: 1,
            id,
            parent,
            name: "s",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, None, 0, 100),
            // Overlapping children cover [10, 50) once.
            span(2, Some(1), 10, 40),
            span(3, Some(1), 30, 50),
            span(4, Some(1), 90, 120),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 40 - 10);
        assert_eq!(selfs[&2], 30);
    }
}
