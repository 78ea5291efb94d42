//! Per-query span *trees* with operator-level counter attribution.
//!
//! An explicit [`QueryProfile`] scope with a trace id collects spans as a
//! *tree* (ids, parent links, per-span wall time, attached counters),
//! across however many threads the query fans out to. It is the one
//! record of where a query's time went and which supervisor rung served
//! it.
//!
//! ## Life cycle
//!
//! ```text
//! let profile = QueryProfile::begin("dbpedia/q64/step4");
//! let _main = profile.attach("main");          // bind this thread
//! {
//!     let _s = profile::span("supervisor");     // tree node (RAII)
//!     profile::add("walks", 128);               // counter on that node
//! }
//! let report = profile.finish();                // -> ProfileReport
//! report.to_text();    // EXPLAIN ANALYZE-style annotated tree
//! report.to_folded();  // collapsed stacks for flamegraph tooling
//! report.to_json();    // schema "kgoa-obs/v2" document (emit-only)
//! ```
//!
//! Worker threads join the same tree by capturing a [`ProfileHandle`]
//! (`current_handle()`) **before** spawning and calling
//! [`ProfileHandle::attach`] with a per-worker label; each attached
//! thread contributes its own root spans tagged with its label, so
//! concurrent workers (and concurrent *queries*, each with its own
//! `QueryProfile`) never mix.
//!
//! ## Cost model
//!
//! When no profile is live anywhere in the process, [`span`] and
//! [`add`] cost one relaxed load of `LIVE_PROFILES` plus a branch.
//! When a profile is live but *this* thread is not attached to one, the
//! extra cost is a thread-local read. Only attached threads pay for
//! clock reads and node bookkeeping.
//!
//! Spans are flushed to the shared tree when they close; RAII drops
//! keep the per-thread open-span stack balanced even when a panic
//! unwinds through `catch_unwind` (see `tests/failure_injection.rs`).

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::json::Json;

/// Schema identifier for [`ProfileReport::to_json`] documents.
pub const PROFILE_SCHEMA: &str = "kgoa-obs/v2";

/// Number of live [`QueryProfile`] scopes process-wide. Zero means the
/// profiling fast path is a single relaxed load + branch.
static LIVE_PROFILES: AtomicUsize = AtomicUsize::new(0);

/// Process-wide trace-id allocator (monotonic, never reused).
static NEXT_TRACE: AtomicU64 = AtomicU64::new(1);

/// Could *any* thread currently be attached to a profile? One relaxed
/// atomic load — the fast path instrumented code takes when no query is
/// being profiled.
#[inline(always)]
pub(crate) fn profiling_possible() -> bool {
    LIVE_PROFILES.load(Ordering::Relaxed) != 0
}

/// Is *this* thread attached to a live profile? Instrumentation that
/// would do nontrivial work to build a span name should check this
/// first.
#[inline]
pub fn active() -> bool {
    profiling_possible() && CURRENT.with(|c| c.borrow().is_some())
}

/// One finished span in a profile tree.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanNode {
    /// Tree-unique id (allocation order, starts at 1).
    pub id: u64,
    /// Parent span id, `None` for a thread-root span.
    pub parent: Option<u64>,
    /// Label of the thread that produced the span ("main", "worker-0").
    pub thread: String,
    /// Span name, e.g. `engine.lftj.run` or `aj.step2[p3]`.
    pub name: String,
    /// Microseconds from profile begin to span open.
    pub start_us: u64,
    /// Wall time from open to close, nanoseconds.
    pub total_ns: u64,
    /// Counters attributed to this span via [`add`], insertion order.
    pub counters: Vec<(String, u64)>,
}

/// Shared mutable state behind one [`QueryProfile`].
#[derive(Debug)]
struct ProfileInner {
    trace_id: u64,
    query: String,
    started: Instant,
    next_id: AtomicU64,
    /// Completed spans, in completion order (children before parents).
    done: Mutex<Vec<SpanNode>>,
}

impl ProfileInner {
    fn alloc_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }
}

/// A span that has been opened on the current thread but not yet
/// closed.
struct OpenSpan {
    id: u64,
    parent: Option<u64>,
    name: String,
    start_us: u64,
    opened: Instant,
    counters: Vec<(String, u64)>,
}

/// Per-thread attachment: which profile this thread feeds and the stack
/// of open spans.
struct ThreadCtx {
    inner: Arc<ProfileInner>,
    label: String,
    stack: Vec<OpenSpan>,
}

thread_local! {
    static CURRENT: RefCell<Option<ThreadCtx>> = const { RefCell::new(None) };
}

/// A live per-query profiling scope. Dropping (or [`finish`]ing) it
/// decrements the global live count; spans from threads that are still
/// attached after that are silently discarded.
///
/// [`finish`]: QueryProfile::finish
#[derive(Debug)]
pub struct QueryProfile {
    inner: Arc<ProfileInner>,
}

impl QueryProfile {
    /// Open a new profile scope for `query` and allocate a trace id.
    pub fn begin(query: impl Into<String>) -> QueryProfile {
        LIVE_PROFILES.fetch_add(1, Ordering::Relaxed);
        QueryProfile {
            inner: Arc::new(ProfileInner {
                trace_id: NEXT_TRACE.fetch_add(1, Ordering::Relaxed),
                query: query.into(),
                started: Instant::now(),
                next_id: AtomicU64::new(1),
                done: Mutex::new(Vec::new()),
            }),
        }
    }

    /// A cloneable handle for attaching *other* threads (capture it
    /// before spawning workers).
    pub fn handle(&self) -> ProfileHandle {
        ProfileHandle { inner: Arc::clone(&self.inner) }
    }

    /// Attach the current thread to this profile under `label`. Spans
    /// opened while the returned guard is alive become part of the
    /// tree. Guards nest: dropping restores whatever the thread was
    /// attached to before.
    pub fn attach(&self, label: impl Into<String>) -> AttachGuard {
        self.handle().attach(label)
    }

    /// Close the scope and assemble the report. Spans still open on
    /// attached threads are not included — detach (drop the guards)
    /// first.
    pub fn finish(self) -> ProfileReport {
        let inner = Arc::clone(&self.inner);
        drop(self); // decrements LIVE_PROFILES
        let duration_us = inner.started.elapsed().as_micros() as u64;
        let mut spans = std::mem::take(&mut *lock(&inner.done));
        spans.sort_by_key(|n| n.id);
        let report = ProfileReport {
            trace_id: inner.trace_id,
            query: inner.query.clone(),
            duration_us,
            spans,
        };
        debug_assert_eq!(report.check_tree(), Ok(()));
        report
    }
}

impl Drop for QueryProfile {
    fn drop(&mut self) {
        LIVE_PROFILES.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A cloneable, sendable reference to a live profile, used to attach
/// worker threads. Holding a handle does not keep the scope "live" for
/// the fast-path gate — only the [`QueryProfile`] itself does.
#[derive(Debug, Clone)]
pub struct ProfileHandle {
    inner: Arc<ProfileInner>,
}

impl ProfileHandle {
    /// Attach the current thread to the profile under `label`; see
    /// [`QueryProfile::attach`].
    pub fn attach(&self, label: impl Into<String>) -> AttachGuard {
        let prev = CURRENT.with(|c| {
            c.borrow_mut().replace(ThreadCtx {
                inner: Arc::clone(&self.inner),
                label: label.into(),
                stack: Vec::new(),
            })
        });
        AttachGuard { prev: Some(prev) }
    }
}

/// The handle of the profile the current thread is attached to, if any.
/// `run_parallel` captures this before spawning so workers land in the
/// caller's tree.
pub fn current_handle() -> Option<ProfileHandle> {
    if !profiling_possible() {
        return None;
    }
    CURRENT.with(|c| {
        c.borrow().as_ref().map(|ctx| ProfileHandle { inner: Arc::clone(&ctx.inner) })
    })
}

/// RAII guard for a thread attachment; restores the previous attachment
/// (possibly none) on drop and asserts the open-span stack drained.
#[must_use = "detaches on drop; binding to _ detaches immediately"]
pub struct AttachGuard {
    /// `Some(prev)` until dropped; the inner option is the attachment
    /// that was active before.
    prev: Option<Option<ThreadCtx>>,
}

impl Drop for AttachGuard {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            CURRENT.with(|c| {
                let ended = c.borrow_mut().take();
                debug_assert!(
                    ended.as_ref().is_none_or(|ctx| ctx.stack.is_empty()),
                    "profile span stack not drained at detach"
                );
                *c.borrow_mut() = prev;
            });
        }
    }
}

impl std::fmt::Debug for AttachGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("AttachGuard")
    }
}

/// An RAII profile-tree span. No-op (and allocation-free) when the
/// current thread is not attached to a live profile.
#[must_use = "a profile span measures until it is dropped"]
#[derive(Debug, Default)]
pub struct ProfileSpan {
    /// Id of the opened node; `None` when inert.
    id: Option<u64>,
}

/// Open a span named `name` under the innermost open span of the
/// current thread (or as a thread root). Returns an inert guard when
/// the thread is not attached — callers pay one relaxed load + branch.
#[inline]
pub fn span(name: impl Into<String>) -> ProfileSpan {
    if !profiling_possible() {
        return ProfileSpan { id: None };
    }
    span_slow(name.into())
}

fn span_slow(name: String) -> ProfileSpan {
    CURRENT.with(|c| {
        let mut cur = c.borrow_mut();
        let Some(ctx) = cur.as_mut() else { return ProfileSpan { id: None } };
        let id = ctx.inner.alloc_id();
        let parent = ctx.stack.last().map(|o| o.id);
        ctx.stack.push(OpenSpan {
            id,
            parent,
            name,
            start_us: ctx.inner.started.elapsed().as_micros() as u64,
            opened: Instant::now(),
            counters: Vec::new(),
        });
        ProfileSpan { id: Some(id) }
    })
}

impl Drop for ProfileSpan {
    fn drop(&mut self) {
        let Some(id) = self.id else { return };
        CURRENT.with(|c| {
            let mut cur = c.borrow_mut();
            let Some(ctx) = cur.as_mut() else { return };
            // Spans close strictly LIFO per thread (RAII), so the top
            // of the stack is ours; be defensive anyway during unwinds.
            let Some(pos) = ctx.stack.iter().rposition(|o| o.id == id) else { return };
            debug_assert_eq!(pos + 1, ctx.stack.len(), "profile span closed out of order");
            let open = ctx.stack.remove(pos);
            let node = SpanNode {
                id: open.id,
                parent: open.parent,
                thread: ctx.label.clone(),
                name: open.name,
                start_us: open.start_us,
                total_ns: open.opened.elapsed().as_nanos() as u64,
                counters: open.counters,
            };
            lock(&ctx.inner.done).push(node);
        });
    }
}

/// Attribute `n` to counter `key` on the innermost open span of the
/// current thread. No-op when not attached or no span is open.
#[inline]
pub fn add(key: &'static str, n: u64) {
    if !profiling_possible() {
        return;
    }
    add_slow(key, n);
}

fn add_slow(key: &'static str, n: u64) {
    CURRENT.with(|c| {
        let mut cur = c.borrow_mut();
        let Some(open) = cur.as_mut().and_then(|ctx| ctx.stack.last_mut()) else { return };
        match open.counters.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v += n,
            None => open.counters.push((key.to_string(), n)),
        }
    });
}

/// Open a span and attach a set of counters in one call — the idiom for
/// emitting an *operator attribution leaf* (zero wall time, counters
/// only) after a run.
pub fn leaf(name: impl Into<String>, counters: &[(&'static str, u64)]) {
    if !profiling_possible() {
        return;
    }
    let s = span(name);
    if s.id.is_some() {
        for &(k, n) in counters {
            add(k, n);
        }
    }
    drop(s);
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------

/// A finished profile: the span tree plus scope metadata. Produced by
/// [`QueryProfile::finish`]; [`check_tree`](Self::check_tree) states
/// the invariant every finished report holds.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileReport {
    /// Process-unique trace id.
    pub trace_id: u64,
    /// The query label passed to [`QueryProfile::begin`].
    pub query: String,
    /// Wall time of the whole scope, microseconds.
    pub duration_us: u64,
    /// All finished spans, sorted by id (ids are allocated at open, so
    /// parents sort before their children).
    pub spans: Vec<SpanNode>,
}

impl ProfileReport {
    /// Self time of span `i` (index into [`spans`](Self::spans)):
    /// total minus the total of direct children, saturating at zero
    /// (children can overlap the parent's tail during unwinds).
    pub fn self_ns(&self, i: usize) -> u64 {
        let id = self.spans[i].id;
        let children: u64 = self
            .spans
            .iter()
            .filter(|n| n.parent == Some(id))
            .map(|n| n.total_ns)
            .sum();
        self.spans[i].total_ns.saturating_sub(children)
    }

    /// Serialise as a schema-`kgoa-obs/v2` JSON document.
    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, n)| {
                Json::Obj(vec![
                    ("id".into(), Json::Num(n.id as f64)),
                    (
                        "parent".into(),
                        n.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("thread".into(), Json::str(&n.thread)),
                    ("name".into(), Json::str(&n.name)),
                    ("start_us".into(), Json::Num(n.start_us as f64)),
                    ("total_ns".into(), Json::Num(n.total_ns as f64)),
                    ("self_ns".into(), Json::Num(self.self_ns(i) as f64)),
                    (
                        "counters".into(),
                        Json::Obj(
                            n.counters
                                .iter()
                                .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("schema".into(), Json::str(PROFILE_SCHEMA)),
            ("trace_id".into(), Json::Num(self.trace_id as f64)),
            ("query".into(), Json::str(&self.query)),
            ("duration_us".into(), Json::Num(self.duration_us as f64)),
            ("spans".into(), Json::Arr(spans)),
        ])
    }

    /// Render an `EXPLAIN ANALYZE`-style annotated tree: one line per
    /// span with total/self wall time, thread tag, and counters.
    pub fn to_text(&self) -> String {
        let mut out = format!(
            "profile trace={} query={} duration={} spans={}\n",
            self.trace_id,
            self.query,
            fmt_us(self.duration_us),
            self.spans.len()
        );
        // Children of each parent, in id (open) order.
        let roots: Vec<usize> =
            (0..self.spans.len()).filter(|&i| self.spans[i].parent.is_none()).collect();
        for (k, &r) in roots.iter().enumerate() {
            self.write_node(&mut out, r, "", k + 1 == roots.len());
        }
        out
    }

    fn write_node(&self, out: &mut String, i: usize, prefix: &str, last: bool) {
        let n = &self.spans[i];
        let branch = if last { "└─ " } else { "├─ " };
        let counters = if n.counters.is_empty() {
            String::new()
        } else {
            let kv: Vec<String> =
                n.counters.iter().map(|(k, v)| format!("{k}={v}")).collect();
            format!("  {{{}}}", kv.join(", "))
        };
        out.push_str(&format!(
            "{prefix}{branch}{name}  (total {total}, self {selft}) [{thread}]{counters}\n",
            name = n.name,
            total = fmt_ns(n.total_ns),
            selft = fmt_ns(self.self_ns(i)),
            thread = n.thread,
        ));
        let child_prefix = format!("{prefix}{}", if last { "   " } else { "│  " });
        let children: Vec<usize> = (0..self.spans.len())
            .filter(|&c| self.spans[c].parent == Some(n.id))
            .collect();
        for (k, &c) in children.iter().enumerate() {
            self.write_node(out, c, &child_prefix, k + 1 == children.len());
        }
    }

    /// Render collapsed stacks in the `folded` format consumed by
    /// standard flamegraph tooling: one `frame;frame;... value` line
    /// per span, rooted at the thread label. The value is the span's
    /// self time in nanoseconds, or (for zero-duration attribution
    /// leaves) the sum of its counters; zero-valued lines are omitted.
    pub fn to_folded(&self) -> String {
        let mut out = String::new();
        for (i, n) in self.spans.iter().enumerate() {
            let mut value = self.self_ns(i);
            if value == 0 {
                value = n.counters.iter().map(|(_, v)| v).sum();
            }
            if value == 0 {
                continue;
            }
            let mut frames = vec![frame(&n.name)];
            let mut cur = n.parent;
            while let Some(pid) = cur {
                let Some(p) = self.spans.iter().find(|m| m.id == pid) else { break };
                frames.push(frame(&p.name));
                cur = p.parent;
            }
            frames.push(frame(&n.thread));
            frames.reverse();
            out.push_str(&frames.join(";"));
            out.push(' ');
            out.push_str(&value.to_string());
            out.push('\n');
        }
        out
    }

    /// Check the span-tree invariant the renderers rely on. Ids are
    /// allocated at open, so a finished report lists them strictly
    /// increasing and every parent id is smaller than its child's. A
    /// tree that breaks either rule is rejected: a self-parented span or
    /// a reused id would make [`to_text`](Self::to_text) and
    /// [`to_folded`](Self::to_folded) walk a cycle. A parent that is
    /// absent is allowed (the renderers tolerate it). Used by
    /// [`QueryProfile::finish`] (as a debug assertion), `repro profile`
    /// self-validation and tests.
    pub fn check_tree(&self) -> Result<(), String> {
        for (i, n) in self.spans.iter().enumerate() {
            if i > 0 && n.id <= self.spans[i - 1].id {
                let prev = self.spans[i - 1].id;
                return Err(format!("span ids must strictly increase: {} after {prev}", n.id));
            }
            if n.parent.is_some_and(|p| p >= n.id) {
                return Err(format!("span {} must have a parent with a smaller id", n.id));
            }
        }
        Ok(())
    }
}

/// Sanitise a span name into a folded-format frame: the format reserves
/// `;` (frame separator) and ` ` (value separator).
fn frame(name: &str) -> String {
    name.replace(';', ":").replace(' ', "_")
}

/// Check that `folded` is well-formed (`frame;frame;... <u64>` per
/// line); returns the line count. Used by `repro profile`
/// self-validation and tests.
pub fn check_folded(folded: &str) -> Result<usize, String> {
    let mut lines = 0;
    for (ln, line) in folded.lines().enumerate() {
        let (stack, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no value separator", ln + 1))?;
        value
            .parse::<u64>()
            .map_err(|_| format!("line {}: value {value:?} is not a u64", ln + 1))?;
        if stack.is_empty() || stack.split(';').any(str::is_empty) {
            return Err(format!("line {}: empty frame in {stack:?}", ln + 1));
        }
        lines += 1;
    }
    Ok(lines)
}

/// How many spans are currently open on this thread's profile stack
/// (0 when detached). Exposed for balance assertions in tests.
pub fn open_depth() -> usize {
    CURRENT.with(|c| c.borrow().as_ref().map_or(0, |ctx| ctx.stack.len()))
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

fn fmt_us(us: u64) -> String {
    fmt_ns(us.saturating_mul(1_000))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detached_thread_is_inert() {
        let p = QueryProfile::begin("other");
        // This thread never attached: spans/adds are no-ops.
        {
            let s = span("ghost");
            assert!(s.id.is_none());
            add("n", 3);
        }
        let report = p.finish();
        assert!(report.spans.is_empty());
        assert_eq!(open_depth(), 0);
    }

    #[test]
    fn no_live_profile_is_one_branch() {
        // With no profile anywhere, span() must return the inert guard.
        if !profiling_possible() {
            assert!(span("x").id.is_none());
        }
    }

    #[test]
    fn tree_nests_with_counters() {
        let p = QueryProfile::begin("q");
        let g = p.attach("main");
        {
            let _root = span("root");
            add("top", 1);
            {
                let _child = span("child");
                add("seeks", 5);
                add("seeks", 2);
                add("probes", 1);
            }
            leaf("leaf", &[("rows", 9)]);
        }
        drop(g);
        let report = p.finish();
        assert_eq!(report.spans.len(), 3);
        let root = &report.spans[0];
        let child = &report.spans[1];
        let leafn = &report.spans[2];
        assert_eq!(root.name, "root");
        assert_eq!(root.parent, None);
        assert_eq!(root.counters, vec![("top".to_string(), 1)]);
        assert_eq!(child.parent, Some(root.id));
        assert_eq!(
            child.counters,
            vec![("seeks".to_string(), 7), ("probes".to_string(), 1)]
        );
        assert_eq!(leafn.parent, Some(root.id));
        assert_eq!(leafn.thread, "main");
        // Self time: root's total covers both children.
        assert!(root.total_ns >= child.total_ns + leafn.total_ns);
        let text = report.to_text();
        assert!(text.contains("root"), "{text}");
        assert!(text.contains("seeks=7"), "{text}");
    }

    /// A fixed two-thread tree: a `main` root with one child, and a
    /// `worker-0` root.
    fn fixed_report() -> ProfileReport {
        let node = |id, parent, thread: &str, name: &str, total_ns, counters: &[(&str, u64)]| {
            SpanNode {
                id,
                parent,
                thread: thread.into(),
                name: name.into(),
                start_us: id * 5,
                total_ns,
                counters: counters.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
            }
        };
        ProfileReport {
            trace_id: 7,
            query: "golden \"q\"".into(),
            duration_us: 40,
            spans: vec![
                node(1, None, "main", "supervisor", 30_000, &[]),
                node(2, Some(1), "main", "aj.walks", 12_000, &[("walks", 128)]),
                node(3, None, "worker-0", "parallel.worker", 9_000, &[("walks", 64), ("full", 60)]),
            ],
        }
    }

    #[test]
    fn json_rendering_is_golden() {
        let report = fixed_report();
        assert_eq!(report.check_tree(), Ok(()));
        let expected = r#"{
  "schema": "kgoa-obs/v2",
  "trace_id": 7,
  "query": "golden \"q\"",
  "duration_us": 40,
  "spans": [
    {
      "id": 1,
      "parent": null,
      "thread": "main",
      "name": "supervisor",
      "start_us": 5,
      "total_ns": 30000,
      "self_ns": 18000,
      "counters": {}
    },
    {
      "id": 2,
      "parent": 1,
      "thread": "main",
      "name": "aj.walks",
      "start_us": 10,
      "total_ns": 12000,
      "self_ns": 12000,
      "counters": {
        "walks": 128
      }
    },
    {
      "id": 3,
      "parent": null,
      "thread": "worker-0",
      "name": "parallel.worker",
      "start_us": 15,
      "total_ns": 9000,
      "self_ns": 9000,
      "counters": {
        "walks": 64,
        "full": 60
      }
    }
  ]
}
"#;
        assert_eq!(report.to_json().pretty(2), expected);
    }

    #[test]
    fn check_tree_rejects_cyclic_span_trees() {
        let with = |links: &[(u64, Option<u64>)]| {
            let mut report = fixed_report();
            let template = report.spans[0].clone();
            report.spans = links
                .iter()
                .map(|&(id, parent)| SpanNode { id, parent, ..template.clone() })
                .collect();
            report
        };
        // The well-formed tree passes, and so does a parent that is
        // absent from the tree.
        assert_eq!(fixed_report().check_tree(), Ok(()));
        assert!(with(&[(1, None), (3, Some(2))]).check_tree().is_ok());
        // Self-parented: `to_folded` would walk the parent chain forever.
        assert!(with(&[(1, Some(1))]).check_tree().is_err());
        // A reused root id: `to_text` would recurse until the stack overflows.
        assert!(with(&[(1, None), (1, None)]).check_tree().is_err());
        // A forward parent link could close a longer cycle.
        assert!(with(&[(1, Some(2)), (2, Some(1))]).check_tree().is_err());
    }

    #[test]
    fn folded_output_is_wellformed() {
        let p = QueryProfile::begin("folded");
        let g = p.attach("main thread"); // space must be sanitised
        {
            let _a = span("outer span");
            std::thread::sleep(std::time::Duration::from_millis(1));
            leaf("op;leaf", &[("n", 3)]);
        }
        drop(g);
        let report = p.finish();
        let folded = report.to_folded();
        let lines = check_folded(&folded).expect("well-formed folded output");
        assert!(lines >= 2, "expected both spans present:\n{folded}");
        assert!(folded.contains("main_thread;outer_span"), "{folded}");
        assert!(folded.contains(";op:leaf "), "{folded}");
        assert!(check_folded("bad line\n").is_err());
        assert!(check_folded(";x 1\n").is_err());
    }

    #[test]
    fn attach_guards_nest_and_restore() {
        let outer = QueryProfile::begin("outer");
        let inner = QueryProfile::begin("inner");
        {
            let _go = outer.attach("main");
            {
                let _gi = inner.attach("main");
                let _s = span("in-inner");
            }
            let _s = span("in-outer");
        }
        let ri = inner.finish();
        let ro = outer.finish();
        assert_eq!(ri.spans.len(), 1);
        assert_eq!(ri.spans[0].name, "in-inner");
        assert_eq!(ro.spans.len(), 1);
        assert_eq!(ro.spans[0].name, "in-outer");
        assert_ne!(ri.trace_id, ro.trace_id);
    }

    #[test]
    fn spans_survive_unwinding_balanced() {
        let p = QueryProfile::begin("panicky");
        let g = p.attach("main");
        let _outer = span("outer");
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _s = span("doomed");
            panic!("boom");
        }));
        assert!(r.is_err());
        // The unwound span closed itself; only `outer` remains open.
        assert_eq!(open_depth(), 1);
        drop(_outer);
        drop(g);
        let report = p.finish();
        assert_eq!(report.spans.len(), 2);
        assert!(report.spans.iter().any(|n| n.name == "doomed"));
    }
}
