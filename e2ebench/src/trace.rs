//! Spans around every call the benchmark makes into a layer.
//!
//! A [`Tracer`] belongs to one thread. Each span records its name, start,
//! end, parent span and operation id; spans stay in memory and are written
//! out when the run ends. A disabled tracer runs the closure and records
//! nothing, so the untraced run pays one branch per call.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `runtime.insert`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// Operation id (batch, query or window number).
    pub op: u64,
    /// The thread-local tracer this span came from.
    pub thread: u32,
}

/// Per-name totals.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed duration minus the time child spans cover, ns.
    pub self_ns: u64,
}

/// A thread-local span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    thread: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer for thread `thread`; records only when `on`.
    pub fn new(on: bool, epoch: Instant, thread: u32) -> Self {
        Tracer {
            on,
            epoch,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A sibling tracer for another thread, sharing this one's epoch.
    pub fn fork(&self, thread: u32) -> Self {
        Tracer::new(self.on, self.epoch, thread)
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` for operation `op`.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start = self.now_ns();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            op,
            thread: self.thread,
        });
        self.open.push(idx);
        let r = f(self);
        self.open.pop();
        self.spans[idx].end = self.now_ns();
        r
    }

    /// Moves another thread's spans into this tracer.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            let d = s.end - s.start;
            t.count += 1;
            t.total_ns += d;
            t.self_ns += d.saturating_sub(child);
        }
        out
    }

    /// Nanoseconds of `[from, to)` during which at least one top-level
    /// span (on any absorbed thread) was open.
    pub fn covered_ns(&self, from: u64, to: u64) -> u64 {
        let mut iv: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.start.max(from), s.end.min(to)))
            .filter(|(a, b)| a < b)
            .collect();
        iv.sort_unstable();
        let (mut covered, mut cur) = (0u64, from);
        for (a, b) in iv {
            let a = a.max(cur);
            if b > a {
                covered += b - a;
                cur = b;
            }
        }
        covered
    }

    /// Writes every span as one tab-separated line:
    /// `thread name op start_ns end_ns parent`.
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "thread\tname\top\tstart_ns\tend_ns\tparent")?;
        for s in &self.spans {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                w,
                "{}\t{}\t{}\t{}\t{}\t{parent}",
                s.thread, s.name, s.op, s.start, s.end
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_coverage_merges_overlaps() {
        let mut t = Tracer::new(true, Instant::now(), 0);
        t.span("outer", 1, |t| {
            t.span("inner", 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let tot = t.totals();
        let (outer, inner) = (tot["outer"], tot["inner"]);
        assert_eq!(outer.count, 1);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        let s = &t.spans()[0];
        assert_eq!(t.covered_ns(s.start, s.end), s.end - s.start);

        let mut off = Tracer::new(false, Instant::now(), 0);
        assert_eq!(off.span("x", 0, |_| 7), 7);
        assert!(off.spans().is_empty());
    }
}
