//! MVCC epoch snapshots: live updates under query load.
//!
//! The paper's §VI lists "support for incremental indexing on updates" as
//! an envisaged extension; this module supplies the concurrency half of
//! it. The design is a classic LSM-flavoured multi-version scheme:
//!
//! - **Main** — an immutable, delta-free [`IndexedGraph`]. All heavy
//!   structures (CSR arrays, prefix maps, statistics) live here and are
//!   `Arc`-shared between epochs.
//! - **Delta overlay** — the cumulative net effect of every
//!   [`UpdateBatch`] appended since the main was built, folded into two
//!   small sorted sets (`adds` not in main, `dels` present in main) and
//!   attached to every index order via [`IndexedGraph::with_overlay`].
//!   Building a snapshot is O(|delta|), independent of graph size.
//! - **Epochs** — every append publishes a new immutable
//!   [`EpochSnapshot`] under a fresh epoch id. Readers [`pin`] an epoch
//!   and hold an [`EpochGuard`] for the duration of a walk run or exact
//!   join: everything they read comes from that one
//!   snapshot, no matter how many batches writers append meanwhile.
//!   Reclamation is by `Arc` refcount — an old epoch's memory is freed
//!   exactly when its last guard drops; there is no epoch list to scan
//!   and no grace period.
//! - **Background merge** — when the delta exceeds
//!   [`EpochConfig::merge_threshold`] rows, a merge job is queued on
//!   the crate's background pool (a detached FIFO with one thread per
//!   hardware thread — writers never block on it). The job rebuilds a
//!   delta-free main from the snapshotted delta *outside* the lock, then
//!   re-locks, refolds whatever batches arrived during the rebuild into a
//!   residual overlay, and commits the swap in a single assignment.
//!   Failures (including injected crash points) retry with backoff; the
//!   commit's atomicity means every retry starts from a valid epoch. A
//!   merge abandoned after its last retry leaves the delta in place for
//!   the next append to reschedule.
//!
//! **Crash safety.** Under the `fault-inject` feature a
//! `MergeCrashPoint` can be armed to panic the merge job once at a
//! chosen point: before the rebuild is published (`PrePublish`), between
//! reading the old state and writing the new one (`MidSwap`, with the
//! state lock held — exercising poison tolerance), or after the swap
//! (`PostPublish`). In all three cases the published epoch remains
//! valid: nothing is committed before the single swap statement, and the
//! retry either redoes the merge from scratch or observes it already
//! done. `tests/updates.rs` pins this with triple-level equality against
//! a from-scratch rebuild after every crash point.
//!
//! **Graceful degradation.** The manager never blocks writers to let a
//! merge catch up. Instead, [`EpochManager::under_pressure`] reports
//! when the delta has outgrown [`EpochConfig::shed_threshold`]; callers
//! feed that into [`SupervisorConfig::ingest_pressure`], which sheds the
//! exact rung (whose full-range scans are the ones that degrade most on
//! a large overlay) and serves estimates until the merge lands.
//!
//! **Dictionary discipline.** The dictionary is one string arena, stored
//! once and shared by `Arc` across every epoch: overlays and merged mains
//! all hold the same handle, and a merge never copies it. Appended triples
//! must therefore use term ids already interned in it (the churn workload
//! interns its vocabulary up front). Extending the dictionary itself is a
//! rebuild-level operation, out of scope here.
//!
//! [`pin`]: EpochManager::pin
//! [`SupervisorConfig::ingest_pressure`]: crate::SupervisorConfig

use std::ops::Deref;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use kgoa_engine::{BudgetExceeded, ExecBudget};
use kgoa_index::{apply_batch, IndexedGraph, UpdateBatch};
use kgoa_rdf::Triple;

use crate::pool::WorkerPool;

/// Tuning knobs for an [`EpochManager`].
#[derive(Debug, Clone, Copy)]
pub struct EpochConfig {
    /// Delta rows (adds + tombstones, SPO order) at which a background
    /// merge is scheduled.
    pub merge_threshold: usize,
    /// Delta rows at which [`EpochManager::under_pressure`] turns true
    /// and callers should shed exact work (normally a few multiples of
    /// `merge_threshold`: pressure means the merge is *behind*).
    pub shed_threshold: usize,
    /// Maximum merge attempts before the job gives up and waits for the
    /// next append to reschedule it.
    pub merge_retries: u32,
    /// Sleep between merge retries, doubled per attempt.
    pub retry_backoff: Duration,
}

impl Default for EpochConfig {
    fn default() -> Self {
        EpochConfig {
            merge_threshold: 4096,
            shed_threshold: 16384,
            merge_retries: 4,
            retry_backoff: Duration::from_millis(1),
        }
    }
}

/// One published epoch: an immutable snapshot plus its id.
#[derive(Debug)]
pub struct EpochSnapshot {
    ig: IndexedGraph,
    epoch: u64,
}

impl EpochSnapshot {
    /// The snapshot's indexed graph (main + delta overlay).
    pub fn graph(&self) -> &IndexedGraph {
        &self.ig
    }

    /// The epoch id.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

/// A pinned epoch: holds one [`EpochSnapshot`] alive for as long as the
/// guard lives. Dereferences to the snapshot's [`IndexedGraph`], so a
/// guard can be handed directly to every engine and aggregator in the
/// workspace. Cloning re-pins the same epoch.
#[derive(Debug, Clone)]
pub struct EpochGuard {
    snap: Arc<EpochSnapshot>,
}

impl EpochGuard {
    /// The pinned epoch id.
    pub fn epoch(&self) -> u64 {
        self.snap.epoch
    }

    /// The pinned snapshot.
    pub fn snapshot(&self) -> &EpochSnapshot {
        &self.snap
    }
}

impl Deref for EpochGuard {
    type Target = IndexedGraph;

    fn deref(&self) -> &IndexedGraph {
        &self.snap.ig
    }
}

/// Where an armed fault panics the merge job (feature `fault-inject`).
#[cfg(feature = "fault-inject")]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeCrashPoint {
    /// After the new main is built, before any shared state is touched.
    PrePublish,
    /// Between reading the old state and the commit assignment, with the
    /// state lock held (the unwind poisons the mutex).
    MidSwap,
    /// Immediately after the commit assignment is published.
    PostPublish,
}

/// Mutable state behind the manager's lock. `adds`/`dels` are the folded
/// net delta against `main` (sorted, disjoint: `adds` absent from main,
/// `dels` present in it); `log` replays the same batches for the merge's
/// residual refold.
struct EpochState {
    main: IndexedGraph,
    adds: Vec<Triple>,
    dels: Vec<Triple>,
    log: Vec<UpdateBatch>,
    epoch: u64,
    snapshot: Arc<EpochSnapshot>,
}

/// Coordinates writers, epoch-pinned readers, and the background merge.
/// See the module docs for the design.
pub struct EpochManager {
    state: Mutex<EpochState>,
    config: EpochConfig,
    merge_running: AtomicBool,
    /// Merges abandoned after the last retry; lets
    /// [`EpochManager::wait_merged`] stop rescheduling a merge that
    /// cannot land. Bumped before `merge_running`'s `Release` clear, so a
    /// waiter whose `Acquire` load sees the flag clear also sees the bump.
    merges_abandoned: AtomicU64,
    #[cfg(feature = "fault-inject")]
    crash_point: Mutex<Option<MergeCrashPoint>>,
}

impl std::fmt::Debug for EpochManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpochManager")
            .field("epoch", &self.epoch())
            .field("delta_rows", &self.delta_rows())
            .field("merging", &self.is_merging())
            .finish()
    }
}

impl EpochManager {
    /// Wrap a freshly built (delta-free) graph as epoch 0.
    pub fn new(main: IndexedGraph, config: EpochConfig) -> Arc<Self> {
        assert!(!main.has_delta(), "epoch manager mains are delta-free");
        let snapshot = Arc::new(EpochSnapshot { ig: main.clone(), epoch: 0 });
        Arc::new(EpochManager {
            state: Mutex::new(EpochState {
                main,
                adds: Vec::new(),
                dels: Vec::new(),
                log: Vec::new(),
                epoch: 0,
                snapshot,
            }),
            config,
            merge_running: AtomicBool::new(false),
            merges_abandoned: AtomicU64::new(0),
            #[cfg(feature = "fault-inject")]
            crash_point: Mutex::new(None),
        })
    }

    /// Poison-tolerant state lock: a merge crash point may panic while
    /// holding it, and readers/writers must keep going — the invariant is
    /// that the state is only mutated by single-assignment commits, so a
    /// poisoned lock never guards a half-written state.
    fn lock_state(&self) -> MutexGuard<'_, EpochState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Pin the current epoch. The returned guard keeps that snapshot
    /// (main + overlay) alive and consistent for its whole lifetime.
    pub fn pin(&self) -> EpochGuard {
        EpochGuard { snap: Arc::clone(&self.lock_state().snapshot) }
    }

    /// The currently published epoch id.
    pub fn epoch(&self) -> u64 {
        self.lock_state().epoch
    }

    /// Current delta overlay size (SPO adds + tombstones).
    pub fn delta_rows(&self) -> usize {
        let st = self.lock_state();
        st.adds.len() + st.dels.len()
    }

    /// True while a background merge job is scheduled or running.
    pub fn is_merging(&self) -> bool {
        self.merge_running.load(Ordering::Acquire)
    }

    /// True when the delta has outgrown [`EpochConfig::shed_threshold`]:
    /// the supervisor should shed its exact rung
    /// ([`crate::SupervisorConfig::ingest_pressure`]) rather than scan a
    /// large overlay, and writers keep appending unblocked.
    pub fn under_pressure(&self) -> bool {
        self.delta_rows() >= self.config.shed_threshold
    }

    /// Arm a one-shot merge crash point (feature `fault-inject`). The
    /// next merge attempt panics there; subsequent attempts run clean.
    #[cfg(feature = "fault-inject")]
    pub fn arm_crash_point(&self, point: MergeCrashPoint) {
        *self.crash_point.lock().unwrap_or_else(|e| e.into_inner()) = Some(point);
    }

    #[cfg(feature = "fault-inject")]
    fn fire_crash_point(&self, at: MergeCrashPoint) {
        let mut armed = self.crash_point.lock().unwrap_or_else(|e| e.into_inner());
        if *armed == Some(at) {
            *armed = None;
            drop(armed);
            panic!("injected merge crash at {at:?}");
        }
    }

    #[cfg(not(feature = "fault-inject"))]
    #[inline]
    fn fire_crash_point_noop(&self) {}

    /// Append a batch and publish the next epoch. Ingest work is charged
    /// against `budget` (tuples = triples named) *before* any state
    /// changes, so a tripped budget rejects the batch cleanly.
    /// Returns the new epoch id. Never blocks on the background merge.
    pub fn append(
        self: &Arc<Self>,
        batch: &UpdateBatch,
        budget: &ExecBudget,
    ) -> Result<u64, BudgetExceeded> {
        let batch = batch.normalized();
        budget.charge_tuples(batch.size() as u64)?;

        let (epoch, delta_rows) = {
            let mut st = self.lock_state();
            let EpochState { main, adds, dels, .. } = &mut *st;
            fold_batch(main, adds, dels, &batch);
            st.log.push(batch);
            st.epoch += 1;
            let snapshot = if st.adds.is_empty() && st.dels.is_empty() {
                st.main.clone()
            } else {
                st.main.with_overlay(&st.adds, &st.dels)
            };
            st.snapshot = Arc::new(EpochSnapshot { ig: snapshot, epoch: st.epoch });
            (st.epoch, st.adds.len() + st.dels.len())
        };

        kgoa_obs::events::emit_with(
            kgoa_obs::Level::Debug,
            "epoch",
            "epoch published",
            vec![("epoch", epoch.to_string()), ("delta_rows", delta_rows.to_string())],
        );

        if delta_rows >= self.config.merge_threshold {
            self.schedule_merge();
        }
        Ok(epoch)
    }

    /// Schedule a background merge on the background pool unless one is
    /// already pending. Detached: the writer returns immediately.
    pub(crate) fn schedule_merge(self: &Arc<Self>) {
        if self.merge_running.swap(true, Ordering::AcqRel) {
            return;
        }
        let mgr = Arc::clone(self);
        WorkerPool::global().spawn_detached(move || mgr.run_merge());
    }

    /// Run the merge loop synchronously (tests and shutdown paths): the
    /// same retry ladder the background job uses. No-op if a background
    /// merge already claimed the flag — call [`wait_merged`] instead.
    ///
    /// [`wait_merged`]: EpochManager::wait_merged
    pub fn merge_now(self: &Arc<Self>) {
        if self.merge_running.swap(true, Ordering::AcqRel) {
            return;
        }
        Arc::clone(self).run_merge();
    }

    /// Block until no merge is running *and* the delta is below the merge
    /// threshold, or until a merge it waited on was abandoned (its
    /// retries ran out), since rescheduling could then spin forever
    /// (spin + sleep; test/shutdown helper, not a hot path).
    pub fn wait_merged(self: &Arc<Self>) {
        let abandoned = self.merges_abandoned.load(Ordering::Acquire);
        loop {
            if !self.is_merging() {
                if self.delta_rows() < self.config.merge_threshold
                    || self.merges_abandoned.load(Ordering::Acquire) != abandoned
                {
                    return;
                }
                self.schedule_merge();
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// The merge job: retry ladder around [`merge_once`], clearing the
    /// running flag on every exit path (a drop guard, so even a panic
    /// that escapes the ladder cannot wedge future merges).
    ///
    /// [`merge_once`]: EpochManager::merge_once
    fn run_merge(self: Arc<Self>) {
        struct ClearFlag<'a>(&'a AtomicBool);
        impl Drop for ClearFlag<'_> {
            fn drop(&mut self) {
                self.0.store(false, Ordering::Release);
            }
        }
        let _clear = ClearFlag(&self.merge_running);

        kgoa_obs::events::debug("epoch", "merge started");
        let mut backoff = self.config.retry_backoff;
        for attempt in 0..=self.config.merge_retries {
            match catch_unwind(AssertUnwindSafe(|| self.merge_once())) {
                Ok(merged_rows) => {
                    kgoa_obs::events::emit_with(
                        kgoa_obs::Level::Info,
                        "epoch",
                        "merge completed",
                        vec![
                            ("rows", merged_rows.to_string()),
                            ("attempt", (attempt + 1).to_string()),
                        ],
                    );
                    return;
                }
                Err(_) if attempt < self.config.merge_retries => {
                    kgoa_obs::events::emit_with(
                        kgoa_obs::Level::Warn,
                        "epoch",
                        "merge attempt panicked; retrying",
                        vec![("attempt", (attempt + 1).to_string())],
                    );
                    std::thread::sleep(backoff);
                    backoff *= 2;
                }
                Err(_) => {
                    kgoa_obs::events::error(
                        "epoch",
                        "merge gave up after repeated panics; delta retained",
                    );
                    break;
                }
            }
        }
        // Only an abandoned merge gets here; `_clear` runs after this.
        self.merges_abandoned.fetch_add(1, Ordering::Release);
    }

    /// One merge attempt. Returns the number of rows in the new main. The
    /// only shared-state write is the single commit assignment at the
    /// end: any panic before it (injected or real) leaves the published
    /// epoch untouched.
    fn merge_once(&self) -> usize {
        // Phase 1: snapshot the folded delta and how much of the log it
        // covers. Readers and writers proceed normally after this.
        let (main, batch, log_len) = {
            let st = self.lock_state();
            if st.adds.is_empty() && st.dels.is_empty() {
                return st.main.len();
            }
            let batch =
                UpdateBatch { insert: st.adds.clone(), delete: st.dels.clone() };
            (st.main.clone(), batch, st.log.len())
        };

        // Phase 2: build the new delta-free main outside the lock — the
        // expensive part (per-order sorted merges + stats refresh).
        let new_main = apply_batch(&main, Arc::clone(main.dict()), &batch);
        #[cfg(feature = "fault-inject")]
        self.fire_crash_point(MergeCrashPoint::PrePublish);
        #[cfg(not(feature = "fault-inject"))]
        self.fire_crash_point_noop();

        // Phase 3: re-lock, refold the batches that arrived during the
        // build against the new main, and commit in one assignment.
        let mut st = self.lock_state();
        let residual: Vec<UpdateBatch> = st.log[log_len..].to_vec();
        let mut adds = Vec::new();
        let mut dels = Vec::new();
        for b in &residual {
            fold_batch(&new_main, &mut adds, &mut dels, b);
        }
        let snapshot = if adds.is_empty() && dels.is_empty() {
            new_main.clone()
        } else {
            new_main.with_overlay(&adds, &dels)
        };
        let epoch = st.epoch + 1;
        let rows = new_main.len();
        #[cfg(feature = "fault-inject")]
        self.fire_crash_point(MergeCrashPoint::MidSwap);
        *st = EpochState {
            main: new_main,
            adds,
            dels,
            log: residual,
            epoch,
            snapshot: Arc::new(EpochSnapshot { ig: snapshot, epoch }),
        };
        drop(st);
        #[cfg(feature = "fault-inject")]
        self.fire_crash_point(MergeCrashPoint::PostPublish);
        rows
    }
}

/// Fold one *normalized* batch into the net delta `(adds, dels)` against
/// `main`. Both vectors stay sorted; the rules keep them disjoint and
/// minimal:
///
/// - insert `t`: un-delete it if tombstoned; otherwise record it in
///   `adds` unless main already has it.
/// - delete `t`: retract a pending add; otherwise tombstone it only if
///   main actually has it (deletes of absent triples are ignored).
///
/// Normalization already removed in-batch insert+delete pairs, so the
/// two loops here never see the same triple on both sides.
fn fold_batch(
    main: &IndexedGraph,
    adds: &mut Vec<Triple>,
    dels: &mut Vec<Triple>,
    batch: &UpdateBatch,
) {
    for &t in &batch.insert {
        if let Ok(i) = dels.binary_search(&t) {
            dels.remove(i);
        } else if !main.contains(t) {
            if let Err(i) = adds.binary_search(&t) {
                adds.insert(i, t);
            }
        }
    }
    for &t in &batch.delete {
        if let Ok(i) = adds.binary_search(&t) {
            adds.remove(i);
        } else if main.contains(t) {
            if let Err(i) = dels.binary_search(&t) {
                dels.insert(i, t);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgoa_index::IndexOrder;
    use kgoa_rdf::{GraphBuilder, TermId, Triple as T};

    /// A small graph plus a spare vocabulary for churn.
    fn setup(extra: u32) -> (IndexedGraph, Vec<TermId>, TermId) {
        let mut b = GraphBuilder::new();
        let p = b.dict_mut().intern_iri("u:p");
        let nodes: Vec<TermId> =
            (0..extra).map(|i| b.dict_mut().intern_iri(format!("u:n{i}"))).collect();
        for i in 0..extra.saturating_sub(4) {
            b.add(T::new(nodes[i as usize], p, nodes[(i as usize + 1) % extra as usize]));
        }
        (IndexedGraph::build(b.build()), nodes, p)
    }

    /// Ground truth: the sorted live triple set of a snapshot.
    fn live_rows(ig: &IndexedGraph) -> Vec<[u32; 3]> {
        ig.require(IndexOrder::Spo).to_rows_live()
    }

    #[test]
    fn appends_publish_epochs_and_guards_pin_them() {
        let (ig, n, p) = setup(8);
        let mgr = EpochManager::new(ig, EpochConfig::default());
        let budget = ExecBudget::unlimited();
        let g0 = mgr.pin();
        assert_eq!(g0.epoch(), 0);
        let before = live_rows(&g0);

        let e1 = mgr
            .append(&UpdateBatch::inserting(vec![T::new(n[7], p, n[0])]), &budget)
            .unwrap();
        assert_eq!(e1, 1);
        let g1 = mgr.pin();
        assert_eq!(g1.epoch(), 1);
        // The old guard still sees the pre-append state.
        assert_eq!(live_rows(&g0), before);
        assert_eq!(live_rows(&g1).len(), before.len() + 1);
        assert!(g1.contains(T::new(n[7], p, n[0])));
        assert!(!g0.contains(T::new(n[7], p, n[0])));
    }

    #[test]
    fn fold_handles_redundant_and_reversing_operations() {
        let (ig, n, p) = setup(8);
        let present = T::new(n[0], p, n[1]);
        let absent = T::new(n[7], p, n[7]);
        let mgr = EpochManager::new(ig.clone(), EpochConfig::default());
        let budget = ExecBudget::unlimited();

        // Delete a present triple, then re-insert it: net delta empty.
        mgr.append(&UpdateBatch::deleting(vec![present]), &budget).unwrap();
        assert_eq!(mgr.delta_rows(), 1);
        mgr.append(&UpdateBatch::inserting(vec![present]), &budget).unwrap();
        assert_eq!(mgr.delta_rows(), 0);
        // Insert an absent triple, then delete it: net delta empty.
        mgr.append(&UpdateBatch::inserting(vec![absent]), &budget).unwrap();
        mgr.append(&UpdateBatch::deleting(vec![absent]), &budget).unwrap();
        assert_eq!(mgr.delta_rows(), 0);
        // Redundant operations change nothing.
        mgr.append(&UpdateBatch::inserting(vec![present]), &budget).unwrap();
        mgr.append(&UpdateBatch::deleting(vec![absent]), &budget).unwrap();
        assert_eq!(mgr.delta_rows(), 0);
        assert_eq!(live_rows(&mgr.pin()), live_rows(&ig));
        assert_eq!(mgr.epoch(), 6, "every append publishes even when net-empty");
    }

    #[test]
    fn merge_produces_equivalent_delta_free_main() {
        let (ig, n, p) = setup(10);
        let mgr = EpochManager::new(ig, EpochConfig::default());
        let budget = ExecBudget::unlimited();
        mgr.append(
            &UpdateBatch {
                insert: vec![T::new(n[9], p, n[0]), T::new(n[8], p, n[9])],
                delete: vec![T::new(n[0], p, n[1])],
            },
            &budget,
        )
        .unwrap();
        let pre = live_rows(&mgr.pin());
        assert!(mgr.pin().has_delta());

        mgr.merge_now();
        let post = mgr.pin();
        assert!(!post.has_delta(), "merge must clear the overlay");
        assert_eq!(live_rows(&post), pre, "merge must not change the live set");
        assert_eq!(mgr.delta_rows(), 0);
        // Stats refreshed from the merged main.
        assert_eq!(post.stats().triples as usize, pre.len());
    }

    #[test]
    fn merged_mains_share_the_dictionary() {
        let (ig, n, p) = setup(10);
        let dict = Arc::clone(ig.dict());
        let mgr = EpochManager::new(ig, EpochConfig { merge_threshold: 1, ..Default::default() });
        let budget = ExecBudget::unlimited();
        mgr.append(&UpdateBatch::inserting(vec![T::new(n[9], p, n[0])]), &budget).unwrap();
        assert!(Arc::ptr_eq(mgr.pin().dict(), &dict), "an overlay shares the dictionary");
        mgr.wait_merged();
        let merged = mgr.pin();
        assert!(!merged.has_delta(), "the background merge landed");
        assert!(Arc::ptr_eq(merged.dict(), &dict), "a merge must not copy the dictionary");
    }

    #[test]
    fn threshold_append_schedules_background_merge() {
        let (ig, n, p) = setup(32);
        let mgr = EpochManager::new(
            ig,
            EpochConfig { merge_threshold: 4, ..EpochConfig::default() },
        );
        let budget = ExecBudget::unlimited();
        let inserts: Vec<T> =
            (0..8).map(|i| T::new(n[31 - (i % 4)], p, n[i])).collect();
        mgr.append(&UpdateBatch::inserting(inserts.clone()), &budget).unwrap();
        mgr.wait_merged();
        let g = mgr.pin();
        assert!(!g.has_delta());
        for t in &inserts {
            assert!(g.contains(*t));
        }
    }

    #[test]
    fn append_budget_rejects_before_publishing() {
        let (ig, n, p) = setup(8);
        let mgr = EpochManager::new(ig, EpochConfig::default());
        let tight = ExecBudget::builder().tuple_limit(0).build();
        let err = mgr
            .append(&UpdateBatch::inserting(vec![T::new(n[7], p, n[0])]), &tight)
            .unwrap_err();
        assert!(matches!(err.reason, kgoa_engine::BudgetReason::TupleLimit { .. }));
        assert_eq!(mgr.epoch(), 0, "rejected batch must not publish");
        assert_eq!(mgr.delta_rows(), 0);
    }

    #[test]
    fn pressure_flag_follows_delta_size() {
        let (ig, n, p) = setup(16);
        let mgr = EpochManager::new(
            ig,
            EpochConfig {
                merge_threshold: usize::MAX, // keep the delta around
                shed_threshold: 3,
                ..EpochConfig::default()
            },
        );
        let budget = ExecBudget::unlimited();
        assert!(!mgr.under_pressure());
        let inserts: Vec<T> = (0..4).map(|i| T::new(n[15], p, n[i])).collect();
        mgr.append(&UpdateBatch::inserting(inserts), &budget).unwrap();
        assert!(mgr.under_pressure());
        mgr.merge_now();
        assert!(!mgr.under_pressure());
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn wait_merged_returns_when_the_merge_gives_up() {
        let (ig, n, p) = setup(12);
        let mgr = EpochManager::new(
            ig,
            EpochConfig { merge_threshold: 4, merge_retries: 0, ..EpochConfig::default() },
        );
        // Hold the merge flag over the append so that it schedules
        // nothing: the only merge is then the one `wait_merged`
        // schedules after reading the abandon count.
        mgr.merge_running.store(true, Ordering::Release);
        let deletes: Vec<T> = (0..8).map(|i| T::new(n[i], p, n[i + 1])).collect();
        mgr.append(&UpdateBatch::deleting(deletes), &ExecBudget::unlimited()).unwrap();
        mgr.merge_running.store(false, Ordering::Release);
        // With no retries, one crash makes the merge give up, so the
        // delta stays over the threshold; `wait_merged` must still return.
        mgr.arm_crash_point(MergeCrashPoint::PrePublish);
        let (tx, rx) = std::sync::mpsc::channel();
        let waiter = Arc::clone(&mgr);
        let handle = std::thread::spawn(move || {
            waiter.wait_merged();
            tx.send(()).unwrap();
        });
        rx.recv_timeout(Duration::from_secs(5))
            .expect("wait_merged spun past an abandoned merge");
        handle.join().unwrap();
        assert_eq!(mgr.delta_rows(), 8, "an abandoned merge leaves the delta in place");
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn every_crash_point_recovers_to_a_valid_epoch() {
        for point in [
            MergeCrashPoint::PrePublish,
            MergeCrashPoint::MidSwap,
            MergeCrashPoint::PostPublish,
        ] {
            let (ig, n, p) = setup(12);
            let mgr = EpochManager::new(ig, EpochConfig::default());
            let budget = ExecBudget::unlimited();
            let batch = UpdateBatch {
                insert: vec![T::new(n[11], p, n[0]), T::new(n[10], p, n[11])],
                delete: vec![T::new(n[0], p, n[1])],
            };
            mgr.append(&batch, &budget).unwrap();
            let expected = live_rows(&mgr.pin());

            mgr.arm_crash_point(point);
            mgr.merge_now(); // panics once at `point`, retries, completes

            let g = mgr.pin();
            assert!(!g.has_delta(), "{point:?}: merge must finish after retry");
            assert_eq!(
                live_rows(&g),
                expected,
                "{point:?}: no lost or duplicated triples"
            );
            // The manager stays writable after the injected crash.
            mgr.append(&UpdateBatch::deleting(vec![T::new(n[10], p, n[11])]), &budget)
                .unwrap();
            assert!(!mgr.pin().contains(T::new(n[10], p, n[11])));
        }
    }
}
