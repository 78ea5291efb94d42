//! Harness-side spans. The traced run wraps every call into the program
//! (they all go through `adapter`) in a span: name, start, end, the span
//! that caused it and the operation it belongs to. Spans stay in memory
//! and are written out once, when the run ends. With tracing off a span
//! costs one thread-local flag read, so the untraced run measures the
//! program and not the tracer.
//!
//! Only the main thread opens spans: the load is closed-loop with one
//! client, and the program's own background threads are not the harness's
//! to instrument.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    /// Index of the enclosing span in the trace, if any.
    pub parent: Option<usize>,
    /// The operation (click, chart, tick) the span belongs to.
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

struct Tracer {
    origin: Instant,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
    op: u64,
}

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Start recording spans on this thread, discarding any earlier trace.
pub fn start() {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        });
    });
    ON.with(|on| on.set(true));
}

/// Stop recording and hand back the spans, in the order they were opened.
pub fn finish() -> Vec<SpanRec> {
    ON.with(|on| on.set(false));
    TRACER
        .with(|t| t.borrow_mut().take())
        .map_or_else(Vec::new, |t| t.spans)
}

/// Mark the operation that spans opened from now on belong to.
pub fn set_op(op: u64) {
    if ON.with(Cell::get) {
        TRACER.with(|t| {
            if let Some(t) = t.borrow_mut().as_mut() {
                t.op = op;
            }
        });
    }
}

/// Run `f` inside a span named `name`.
#[inline]
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !ON.with(Cell::get) {
        return f();
    }
    let idx = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let t = t.as_mut().expect("tracing is on, so a tracer exists");
        let idx = t.spans.len();
        let start_ns = t.origin.elapsed().as_nanos() as u64;
        t.spans.push(SpanRec {
            name,
            parent: t.stack.last().copied(),
            op: t.op,
            start_ns,
            end_ns: start_ns,
        });
        t.stack.push(idx);
        idx
    });
    let out = f();
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let t = t.as_mut().expect("tracing is on, so a tracer exists");
        t.spans[idx].end_ns = t.origin.elapsed().as_nanos() as u64;
        t.stack.pop();
    });
    out
}

/// Per span name: how often it ran, its total time and its self time (its
/// duration minus what its child spans cover).
pub fn self_times(spans: &[SpanRec]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let total = s.end_ns - s.start_ns;
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += total;
        e.2 += total.saturating_sub(child_ns[i]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        start();
        set_op(7);
        span("outer", || {
            span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            span("inner", || ());
        });
        let spans = finish();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 7));
        let st = self_times(&spans);
        let (n, total, own) = st["outer"];
        assert_eq!(n, 1);
        assert_eq!(st["inner"].0, 2);
        assert_eq!(own, total - st["inner"].1);
    }

    #[test]
    fn untraced_spans_record_nothing() {
        assert_eq!(span("quiet", || 41 + 1), 42);
        assert!(finish().is_empty());
    }
}
