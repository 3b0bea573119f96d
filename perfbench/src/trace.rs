//! In-memory span buffer for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into the
//! program (the program is not instrumented). They are kept in memory and
//! written out as JSON lines when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name (`engine.execute`, `optimizer.optimize`, ...).
    pub name: &'static str,
    /// Start, nanoseconds since the buffer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the buffer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Position of the statement in the op stream this span belongs to.
    pub stmt: usize,
}

impl Span {
    /// Span duration in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Append-only span buffer.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty buffer whose clock starts now.
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn since(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span over `[start, end]` and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        stmt: usize,
    ) -> usize {
        let span = Span {
            name,
            start_ns: self.since(start),
            end_ns: self.since(end),
            parent,
            stmt,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Runs `f` inside a span and returns its result.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        stmt: usize,
        f: impl FnOnce() -> R,
    ) -> (R, usize) {
        let start = Instant::now();
        let r = f();
        let id = self.record(name, start, Instant::now(), parent, stmt);
        (r, id)
    }

    /// Re-points a span's parent (used when the parent is recorded after
    /// its children finish).
    pub fn set_parent(&mut self, child: usize, parent: usize) {
        self.spans[child].parent = Some(parent);
    }

    /// Every recorded span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time (duration minus time covered by direct children) of
    /// all spans named `name`, in nanoseconds. Children never overlap: the
    /// benchmark records them sequentially.
    pub fn self_nanos(&self, name: &str) -> u64 {
        let mut child_cover = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_cover[p] += s.nanos();
            }
        }
        self.spans
            .iter()
            .zip(&child_cover)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| s.nanos().saturating_sub(*c))
            .sum()
    }

    /// Total duration of all spans named `name`, in nanoseconds.
    pub fn total_nanos(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::nanos)
            .sum()
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"stmt\":{}}}",
                s.name, s.start_ns, s.end_ns, s.stmt
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let mut spans = Spans::new();
        let t0 = Instant::now();
        let ms = |n| t0 + Duration::from_millis(n);
        let root = spans.record("statement", ms(0), ms(10), None, 0);
        spans.record("wal.checkpoint", ms(0), ms(4), Some(root), 0);
        spans.record("engine.execute", ms(4), ms(9), Some(root), 0);
        spans.record("query.parse_bind", ms(10), ms(11), None, 0);
        assert_eq!(spans.self_nanos("statement"), 1_000_000);
        assert_eq!(spans.self_nanos("engine.execute"), 5_000_000);
        assert_eq!(spans.total_nanos("statement"), 10_000_000);
        assert_eq!(spans.total_nanos("missing"), 0);
    }
}
