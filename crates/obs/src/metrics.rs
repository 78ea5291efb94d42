//! Atomic metric primitives — [`Counter`], [`Gauge`], [`Histogram`] —
//! plus the workspace's well-known static metrics.
//!
//! All three types have `const` constructors so instrumented crates
//! declare them as `static`s with zero init cost, and all writes are
//! relaxed atomics gated on [`crate::enabled`]: disabled-mode cost is
//! one load + branch.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

const R: Ordering = Ordering::Relaxed;

/// A monotonically increasing event count.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
}

impl Counter {
    /// New zeroed counter. `name` follows `<crate>.<component>.<metric>`.
    pub const fn new(name: &'static str) -> Counter {
        Counter { name, value: AtomicU64::new(0) }
    }

    /// Metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Add 1 (no-op while telemetry is disabled).
    #[inline(always)]
    pub fn inc(&self) {
        if crate::enabled() {
            self.value.fetch_add(1, R);
        }
    }

    /// Add `n` (no-op while telemetry is disabled).
    #[inline(always)]
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.value.fetch_add(n, R);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(R)
    }

    /// Zero the counter.
    pub fn reset(&self) {
        self.value.store(0, R);
    }
}

/// A value that can go up and down (e.g. live worker count).
#[derive(Debug)]
pub struct Gauge {
    name: &'static str,
    value: AtomicI64,
}

impl Gauge {
    /// New zeroed gauge.
    pub const fn new(name: &'static str) -> Gauge {
        Gauge { name, value: AtomicI64::new(0) }
    }

    /// Metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Set to an absolute value (no-op while telemetry is disabled).
    #[inline(always)]
    pub fn set(&self, v: i64) {
        if crate::enabled() {
            self.value.store(v, R);
        }
    }

    /// Add a (possibly negative) delta (no-op while disabled).
    #[inline(always)]
    pub fn add(&self, d: i64) {
        if crate::enabled() {
            self.value.fetch_add(d, R);
        }
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(R)
    }

    /// Zero the gauge.
    pub fn reset(&self) {
        self.value.store(0, R);
    }
}

/// Number of histogram buckets: bucket 0 holds the value 0, bucket `b`
/// (1..=64) holds values in `[2^(b-1), 2^b)`.
const BUCKETS: usize = 65;

/// A log-bucketed histogram of `u64` samples (typically nanoseconds).
///
/// Buckets are powers of two — `bucket(v) = 64 - v.leading_zeros()` —
/// so recording is one `fetch_add` with no floating point, and quantile
/// estimates (p50/p95/p99) are exact to within a factor of two, which
/// is plenty for latency triage. Exact `count`, `sum`, `min`, and `max`
/// are kept alongside.
#[derive(Debug)]
pub struct Histogram {
    name: &'static str,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Histogram {
    /// New empty histogram.
    pub const fn new(name: &'static str) -> Histogram {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Histogram {
            name,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: [ZERO; BUCKETS],
        }
    }

    /// Metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Bucket index for a sample.
    #[inline]
    pub fn bucket(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Inclusive upper bound of a bucket (saturating at `u64::MAX`).
    fn bucket_bound(b: usize) -> u64 {
        match b {
            0 => 0,
            64.. => u64::MAX,
            _ => (1u64 << b) - 1,
        }
    }

    /// Record one sample (no-op while telemetry is disabled).
    #[inline(always)]
    pub fn record(&self, v: u64) {
        if crate::enabled() {
            self.record_always(v);
        }
    }

    /// Record regardless of the global flag (used by [`crate::Span`],
    /// which already checked the flag when the span started).
    #[inline]
    pub fn record_always(&self, v: u64) {
        self.count.fetch_add(1, R);
        self.sum.fetch_add(v, R);
        self.min.fetch_min(v, R);
        self.max.fetch_max(v, R);
        self.buckets[Self::bucket(v)].fetch_add(1, R);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(R)
    }

    /// True when no sample has been recorded. The empty-histogram
    /// sentinel for [`min`](Self::min), [`max`](Self::max),
    /// [`mean`](Self::mean), and [`quantile`](Self::quantile) is 0 —
    /// exporters that must distinguish "empty" from "all samples were
    /// zero" check this first.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(R)
    }

    /// Arithmetic mean of all samples. Empty-histogram sentinel: `0.0`
    /// (see [`is_empty`](Self::is_empty)).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Smallest sample. Empty-histogram sentinel: 0 (see
    /// [`is_empty`](Self::is_empty)) — the raw `u64::MAX` init value is
    /// never exposed.
    pub fn min(&self) -> u64 {
        let m = self.min.load(R);
        if m == u64::MAX && self.count() == 0 {
            0
        } else {
            m
        }
    }

    /// Largest sample. Empty-histogram sentinel: 0 (see
    /// [`is_empty`](Self::is_empty)).
    pub fn max(&self) -> u64 {
        self.max.load(R)
    }

    /// Approximate quantile `q` in `[0, 1]`: walks the bucket counts and
    /// returns the bound of the bucket containing the rank, clamped to
    /// the observed `[min, max]`. Empty-histogram sentinel: 0 (see
    /// [`is_empty`](Self::is_empty)).
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for b in 0..BUCKETS {
            seen += self.buckets[b].load(R);
            if seen >= rank {
                // Not `clamp`: a `reset` racing a `record` can briefly
                // show min > max, and `u64::clamp` panics on that.
                return Self::bucket_bound(b).max(self.min()).min(self.max());
            }
        }
        self.max()
    }

    /// Clear all samples.
    pub fn reset(&self) {
        self.count.store(0, R);
        self.sum.store(0, R);
        self.min.store(u64::MAX, R);
        self.max.store(0, R);
        for b in &self.buckets {
            b.store(0, R);
        }
    }
}

macro_rules! well_known {
    (
        counters { $($cid:ident => $cname:literal : $cdoc:literal),+ $(,)? }
        gauges { $($gid:ident => $gname:literal : $gdoc:literal),+ $(,)? }
        histograms { $($hid:ident => $hname:literal : $hdoc:literal),+ $(,)? }
    ) => {
        $(#[doc = $cdoc] pub static $cid: Counter = Counter::new($cname);)+
        $(#[doc = $gdoc] pub static $gid: Gauge = Gauge::new($gname);)+
        $(#[doc = $hdoc] pub static $hid: Histogram = Histogram::new($hname);)+

        /// All well-known counters, for snapshot enumeration.
        pub static COUNTERS: &[&Counter] = &[$(&$cid),+];
        /// All well-known gauges, for snapshot enumeration.
        pub static GAUGES: &[&Gauge] = &[$(&$gid),+];
        /// All well-known histograms, for snapshot enumeration.
        pub static HISTOGRAMS: &[&Histogram] = &[$(&$hid),+];
    };
}

well_known! {
    counters {
        RDF_TERMS_INTERNED => "rdf.dict.terms_interned":
            "New terms added to the RDF dictionary.",
        QUERY_WALK_PLANS => "query.plans.built":
            "Walk/join plans constructed.",
        TRIE_SEEKS => "index.trie.seeks":
            "Binary-search seeks on trie cursors (LFTJ hot path).",
        WALKS => "core.walks.total":
            "Random walks completed (accepted + rejected), all estimators.",
        SUPERVISOR_EXACT => "supervisor.rung.exact":
            "Supervised queries served by the exact CTJ rung.",
        SUPERVISOR_DEGRADED_AJ => "supervisor.rung.audit_join":
            "Supervised queries degraded to Audit Join estimates.",
        SUPERVISOR_DEGRADED_WJ => "supervisor.rung.wander_join":
            "Supervised queries degraded to Wander Join estimates.",
        SUPERVISOR_EXHAUSTED => "supervisor.rung.exhausted":
            "Supervised queries for which every rung failed.",
        PARALLEL_WORKERS => "core.parallel.workers_spawned":
            "Worker threads spawned by `run_parallel`.",
        PARALLEL_WORKER_PANICS => "core.parallel.workers_panicked":
            "Worker threads that panicked and were discarded.",
        POOL_TASKS_DISPATCHED => "core.pool.tasks_dispatched":
            "Jobs queued on the persistent worker pool.",
        POOL_BATCHES_MERGED => "core.pool.batches_merged":
            "Walk batches folded into live merged estimates.",
        EXPLORE_EXPANSIONS => "explore.expansions":
            "Session chart expansions evaluated.",
        DATAGEN_GRAPHS => "datagen.graphs_generated":
            "Synthetic graphs generated.",
        EPOCH_PUBLISHED => "index.epoch.published":
            "Epoch snapshots published (delta appends and merge swaps).",
        MERGE_STARTED => "index.merge.started":
            "Background delta-to-main merges started.",
        MERGE_RETRIED => "index.merge.retried":
            "Background merges retried after a failure or crash point.",
        MERGE_COMPLETED => "index.merge.completed":
            "Background merges that published a new delta-free main.",
        SUPERVISOR_SHED_PRESSURE => "supervisor.shed.ingest_pressure":
            "Supervised queries whose exact rung was shed under ingest pressure.",
    }
    gauges {
        PARALLEL_ACTIVE_WORKERS => "core.parallel.active_workers":
            "Worker threads currently running.",
        POOL_QUEUE_DEPTH => "core.pool.queue_depth":
            "Jobs currently queued on the persistent worker pool.",
        DATAGEN_LAST_TRIPLES => "datagen.last_graph_triples":
            "Triple count of the most recently generated graph.",
        DELTA_ROWS => "index.delta.rows":
            "Live rows in the current epoch's delta overlay (adds + tombstones).",
        EPOCH_CURRENT => "index.epoch.current":
            "Identifier of the currently published epoch.",
    }
    histograms {
        SUPERVISE_NS => "supervisor.supervise_ns":
            "End-to-end latency of `supervise` calls (ns).",
        EXACT_RUNG_NS => "supervisor.exact_rung_ns":
            "Latency of the exact-CTJ rung attempt inside `supervise` (ns).",
        CTJ_EVAL_NS => "engine.ctj.evaluate_ns":
            "Latency of standalone governed CTJ evaluations (ns).",
        EXPAND_NS => "explore.expand_ns":
            "Latency of session chart expansions (ns).",
        AJ_TIP_STEP => "core.aj.tip_step":
            "Plan step (1-based) at which Audit Join walks tipped.",
        PARALLEL_WORKER_WALKS => "core.parallel.worker_walks":
            "Walks completed per parallel worker.",
    }
}

/// Serialises tests that toggle process-global telemetry state (the
/// enabled flag, resets). Not part of the public API surface.
#[doc(hidden)]
pub fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_gated_by_enabled_flag() {
        let _guard = test_lock();
        let c = Counter::new("test.gated");
        crate::set_enabled(false);
        c.inc();
        assert_eq!(c.get(), 0, "disabled counter must not move");
        crate::set_enabled(true);
        c.inc();
        c.add(4);
        crate::set_enabled(false);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let _guard = test_lock();
        let g = Gauge::new("test.gauge");
        crate::set_enabled(true);
        g.add(3);
        g.add(-5);
        assert_eq!(g.get(), -2);
        g.set(7);
        crate::set_enabled(false);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn histogram_buckets_and_bounds() {
        assert_eq!(Histogram::bucket(0), 0);
        assert_eq!(Histogram::bucket(1), 1);
        assert_eq!(Histogram::bucket(2), 2);
        assert_eq!(Histogram::bucket(3), 2);
        assert_eq!(Histogram::bucket(4), 3);
        assert_eq!(Histogram::bucket(u64::MAX), 64);
        assert_eq!(Histogram::bucket_bound(0), 0);
        assert_eq!(Histogram::bucket_bound(2), 3);
        assert_eq!(Histogram::bucket_bound(64), u64::MAX);
        // Every value lands in a bucket whose bound is >= the value.
        for v in [0u64, 1, 7, 100, 1 << 40, u64::MAX] {
            assert!(Histogram::bucket_bound(Histogram::bucket(v)) >= v);
        }
    }

    #[test]
    fn histogram_stats_and_quantiles() {
        let _guard = test_lock();
        let h = Histogram::new("test.hist");
        assert_eq!(h.quantile(0.5), 0, "empty histogram quantile is 0");
        assert_eq!(h.min(), 0);
        crate::set_enabled(true);
        for v in [10u64, 20, 30, 40, 1000] {
            h.record(v);
        }
        crate::set_enabled(false);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1100);
        assert_eq!(h.min(), 10);
        assert_eq!(h.max(), 1000);
        let p50 = h.quantile(0.5);
        // Log-bucketed: exact to within 2x, clamped to observed range.
        assert!((10..=63).contains(&p50), "p50 = {p50}");
        assert_eq!(h.quantile(1.0), 1000);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.99), 0);
    }

    #[test]
    fn empty_histogram_sentinels_are_explicit() {
        let h = Histogram::new("test.empty");
        assert!(h.is_empty());
        // The documented empty sentinel is 0 across the board — never
        // the raw u64::MAX the min slot is initialised with.
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.quantile(1.0), 0);
        assert!(h.buckets.iter().all(|b| b.load(R) == 0));
    }

    #[test]
    fn quantile_survives_a_reset_racing_a_record() {
        // The state a concurrent reader can see while `reset` and
        // `record` interleave: a counted sample and a bucket, but the
        // min/max slots already back at their empty sentinels.
        let h = Histogram::new("test.race");
        h.count.store(1, R);
        h.min.store(u64::MAX, R);
        h.max.store(0, R);
        h.buckets[Histogram::bucket(100)].store(1, R);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.quantile(1.0), 0);
    }

    #[test]
    fn histogram_mean_and_bucket_counts() {
        let _guard = test_lock();
        let h = Histogram::new("test.mean");
        crate::set_enabled(true);
        for v in [0u64, 1, 2, 3, 1000] {
            h.record(v);
        }
        crate::set_enabled(false);
        assert!(!h.is_empty());
        assert!((h.mean() - 201.2).abs() < 1e-9);
        let bucket_count = |b: usize| h.buckets[b].load(R);
        assert_eq!(bucket_count(Histogram::bucket(0)), 1);
        assert_eq!(bucket_count(Histogram::bucket(1)), 1);
        // 2 and 3 share bucket 2.
        assert_eq!(bucket_count(2), 2);
        assert_eq!(bucket_count(Histogram::bucket(1000)), 1);
        let total: u64 = (0..BUCKETS).map(bucket_count).sum();
        assert_eq!(total, h.count(), "bucket counts partition the samples");
    }

    #[test]
    fn well_known_names_are_unique_and_conventional() {
        let mut names: Vec<&str> = COUNTERS
            .iter()
            .map(|c| c.name())
            .chain(GAUGES.iter().map(|g| g.name()))
            .chain(HISTOGRAMS.iter().map(|h| h.name()))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric name");
        for n in names {
            assert!(
                n.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || "._".contains(c)),
                "non-conventional metric name {n:?}"
            );
            assert!(n.contains('.'), "metric name {n:?} lacks a crate prefix");
        }
    }
}
