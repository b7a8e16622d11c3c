//! In-memory spans for the traced run.
//!
//! A span times one call from the benchmark into a layer's public
//! functions: its name is `<layer>.<call>`, and it records its start,
//! end, parent span and the job it belongs to. Counts can be attached
//! to a span at the same boundary. Nothing is written until the run
//! ends; with tracing off no span is recorded at all.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// One finished span.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    /// Index of the job in its job list; spans of one job share it.
    pub job: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer: the name up to its first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Collects spans and counts from any thread.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    counts: Mutex<Vec<(u64, &'static str, u64)>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
            counts: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// The finished spans, in order of completion.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Counts recorded as `(span id, name, value)`.
    pub fn counts(&self) -> Vec<(u64, &'static str, u64)> {
        self.counts
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

/// Where the benchmark is in the span tree: the tracer (if tracing),
/// the enclosing span and the current job.
#[derive(Clone, Copy)]
pub struct Ctx<'a> {
    tracer: Option<&'a Tracer>,
    parent: Option<u64>,
    job: Option<usize>,
}

impl<'a> Ctx<'a> {
    /// The root context; `None` turns tracing off.
    pub fn root(tracer: Option<&'a Tracer>) -> Ctx<'a> {
        Ctx {
            tracer,
            parent: None,
            job: None,
        }
    }

    /// Whether spans are being recorded.
    pub fn tracing(&self) -> bool {
        self.tracer.is_some()
    }

    /// The same context, tagged with job `index`.
    pub fn for_job(self, index: usize) -> Ctx<'a> {
        Ctx {
            job: Some(index),
            ..self
        }
    }

    /// Runs `f` inside a span called `name`; `f` gets the context of
    /// the new span, for children and counts.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce(Ctx<'a>) -> T) -> T {
        let Some(tracer) = self.tracer else {
            return f(*self);
        };
        let id = tracer.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = tracer.now_ns();
        let out = f(Ctx {
            parent: Some(id),
            ..*self
        });
        let span = Span {
            id,
            parent: self.parent,
            job: self.job,
            name,
            start_ns,
            end_ns: tracer.now_ns(),
        };
        tracer
            .spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(span);
        out
    }

    /// Attaches a count to the enclosing span.
    pub fn count(&self, name: &'static str, value: u64) {
        if let (Some(tracer), Some(span)) = (self.tracer, self.parent) {
            tracer
                .counts
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push((span, name, value));
        }
    }
}

/// Self time per layer, in seconds: each span's duration minus the part
/// of its interval that its children cover (children running in
/// parallel on other threads are counted once), summed by layer.
pub fn self_seconds(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let mut children: std::collections::BTreeMap<u64, Vec<(u64, u64)>> = Default::default();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut by_layer: Vec<(&'static str, f64)> = Vec::new();
    for s in spans {
        let mut covered = 0;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut cursor = s.start_ns;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(cursor), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
        }
        let own = (s.ns() - covered) as f64 * 1e-9;
        match by_layer.iter_mut().find(|(l, _)| *l == s.layer()) {
            Some((_, t)) => *t += own,
            None => by_layer.push((s.layer(), own)),
        }
    }
    by_layer
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            job: None,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Two children overlap in [20, 30): the parent covers 10..50
        // with 10..40 covered, so it keeps 10 ns of its own.
        let spans = [
            span(0, None, "pool.run", 10, 50),
            span(1, Some(0), "core.run", 10, 30),
            span(2, Some(0), "core.run", 20, 40),
        ];
        let self_s = self_seconds(&spans);
        let get = |l: &str| self_s.iter().find(|(n, _)| *n == l).map(|(_, t)| *t);
        assert!((get("pool").unwrap() - 10e-9).abs() < 1e-15);
        assert!((get("core").unwrap() - 40e-9).abs() < 1e-15);
    }

    #[test]
    fn untraced_context_records_nothing() {
        let ctx = Ctx::root(None);
        assert!(!ctx.span("core.run", |c| c.tracing()));
        let tracer = Tracer::new();
        let ctx = Ctx::root(Some(&tracer));
        ctx.span("bench.pass", |c| {
            c.count("jobs", 3);
            c.span("core.run", |_| ());
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        let pass = spans.iter().find(|s| s.name == "bench.pass").unwrap();
        let run = spans.iter().find(|s| s.name == "core.run").unwrap();
        assert_eq!(run.parent, Some(pass.id));
        assert_eq!(tracer.counts(), vec![(pass.id, "jobs", 3)]);
    }
}
