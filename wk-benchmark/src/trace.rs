//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records name, id, parent, start and end. Spans stay in memory
//! while the workload runs and are written as JSONL when it ends; a span's
//! self time is its duration minus the part its children cover. A disabled
//! tracer (the untraced run) records nothing.

use crate::json::Json;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed span; times are nanoseconds since the tracer started.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `tree.descent`.
    pub name: &'static str,
    /// Index of the span in start order.
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// Start time.
    pub start_ns: u64,
    /// End time (equal to start while the span is open).
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span.
#[derive(Clone, Copy, Debug)]
pub struct Open(Option<usize>);

/// The span recorder.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent: self.stack.last().copied(),
            start_ns: now,
            end_ns: now,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes `open` (and any span left open inside it).
    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let now = self.now_ns();
        while let Some(top) = self.stack.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let open = self.enter(name);
        let out = f(self);
        self.exit(open);
        out
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in milliseconds of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Self time per span: its duration minus its children's durations.
    /// Children run sequentially inside their parent, so they never overlap.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent] += span.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Writes one JSON object per span to `path`.
    pub fn write_jsonl(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        let file = std::fs::File::create(path)?;
        let mut out = std::io::BufWriter::new(file);
        for (span, self_ns) in self.spans.iter().zip(self.self_ns()) {
            let line = Json::obj([
                ("name", Json::from(span.name)),
                ("id", Json::from(span.id)),
                ("parent", span.parent.map_or(Json::Null, Json::from)),
                ("start_ns", Json::from(span.start_ns)),
                ("end_ns", Json::from(span.end_ns)),
                ("self_ns", Json::from(self_ns)),
                ("workload", Json::from(workload)),
                ("seed", Json::from(seed)),
            ]);
            writeln!(out, "{line}")?;
        }
        out.flush()
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[1].dur_ns() <= spans[0].dur_ns());
        let selfs = t.self_ns();
        assert_eq!(selfs[0], spans[0].dur_ns() - spans[1].dur_ns());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.span("outer", |t| t.span("inner", |_| ()));
        assert!(t.spans().is_empty());
    }
}
