//! In-memory span recorder for the traced run.
//!
//! Spans are recorded in the benchmark's own code around each call into
//! a library layer: name, start, end and the enclosing span. They stay in
//! memory and are written out once, when the run ends. A disabled tracer
//! never reads the clock.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let out = f();
        self.open.borrow_mut().pop();
        let end = self.now_ns();
        self.spans.borrow_mut()[idx].end_ns = end;
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Durations (ns) of every span named `name`, in recording order.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect()
    }

    /// Total duration in milliseconds of the spans named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.durations_ns(name).iter().sum::<u64>() as f64 / 1e6
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl<W: Write>(&self, mut w: W) -> std::io::Result<()> {
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Self time per span name: each span's duration minus the part of it
/// its direct children cover, summed by name.
pub fn self_time_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.duration_ns();
        }
    }
    let mut out = BTreeMap::new();
    for (s, c) in spans.iter().zip(child_ns) {
        *out.entry(s.name).or_insert(0) += s.duration_ns().saturating_sub(c);
    }
    out
}

/// Measured cost of recording one span, in nanoseconds (median of a few
/// batches of empty spans on a scratch tracer).
pub fn span_cost_ns() -> f64 {
    const BATCH: usize = 20_000;
    let mut per = Vec::new();
    for _ in 0..5 {
        let t = Tracer::new(true);
        let start = Instant::now();
        for _ in 0..BATCH {
            t.span("calibrate", || std::hint::black_box(0u8));
        }
        per.push(start.elapsed().as_nanos() as f64 / BATCH as f64);
    }
    crate::measure::median(&per)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = vec![
            span("probe", 0, 100, None),
            span("core.detect", 10, 40, Some(0)),
            span("core.sync", 15, 25, Some(1)),
            span("core.detect", 50, 70, Some(0)),
        ];
        let st = self_time_ns(&spans);
        assert_eq!(st["probe"], 50);
        assert_eq!(st["core.detect"], 20 + 20);
        assert_eq!(st["core.sync"], 10);
    }

    #[test]
    fn nested_spans_record_their_parent() {
        let t = Tracer::new(true);
        let v = t.span("outer", || t.span("inner", || 7));
        assert_eq!(v, 7);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", || 3), 3);
        assert!(t.spans().is_empty());
    }
}
