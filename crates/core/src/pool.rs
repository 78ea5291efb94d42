//! Persistent worker pool: threads are spawned once and reused across
//! parallel runs, replacing the per-call `std::thread::scope` fleet that
//! paid thread spawn/teardown on every chart expansion.
//!
//! The pool is a plain FIFO queue of boxed jobs behind a mutex+condvar
//! (no external dependencies). Callers submit *scoped* work through
//! [`WorkerPool::scope`]: jobs may borrow from the caller's stack, and the
//! scope blocks until every job it spawned has finished — even when the
//! scope body itself panics — so the borrows can never dangle.
//!
//! **Panic isolation.** Every job runs inside `catch_unwind` on the pool
//! thread; a panicking job never takes the worker down, so the pool's
//! capacity is stable for the life of the process. Callers that need to
//! observe a job's panic (e.g. [`crate::run_parallel`]'s per-worker
//! bookkeeping) wrap their own `catch_unwind` inside the job.
//!
//! **Deadlock freedom.** While a scope waits for its jobs it *helps*: it
//! pops and runs queued jobs *of its own scope* instead of sleeping, so a
//! scope opened from inside a pool job (nested parallelism) cannot starve
//! itself even when every pool thread is blocked in a scope wait. Detached
//! jobs and other scopes' jobs are left to the pool threads, so a waiting
//! caller never runs, say, a background merge on its own thread.
//!
//! **Bounded-overshoot contract.** Walk executors built on the pool
//! ([`crate::run_parallel`]) account work in batches of [`crate::BATCH`]
//! walks. A shared [`kgoa_engine::ExecBudget`] walk cap is charged per
//! batch, so completed walks never exceed the cap at all; in-flight walks
//! aborted by the cap are bounded by one batch per worker, i.e. the total
//! number of walks ever *started* beyond the cap is at most
//! `workers × BATCH`. The `shared_walk_cap_overshoot_is_bounded` test in
//! `parallel.rs` pins this contract.

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

/// A queued unit of work. Jobs are type-erased to `'static` by
/// [`Scope::spawn`]; the scope's completion latch is what actually keeps
/// the borrowed environment alive until the job has run.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// A queued job with the latch of the scope that spawned it (`None` for
/// a detached job).
struct Queued {
    scope: Option<Arc<Latch>>,
    job: Job,
}

/// State shared between the submitting side and the pool threads.
struct PoolShared {
    queue: Mutex<VecDeque<Queued>>,
    work_ready: Condvar,
    shutdown: AtomicBool,
}

impl PoolShared {
    fn push(&self, queued: Queued) {
        let mut q = self.queue.lock().unwrap();
        q.push_back(queued);
        kgoa_obs::metrics::POOL_TASKS_DISPATCHED.inc();
        kgoa_obs::metrics::POOL_QUEUE_DEPTH.add(1);
        drop(q);
        self.work_ready.notify_one();
    }

    /// Pop the oldest queued job spawned by the scope behind `latch`.
    fn try_pop_scoped(&self, latch: &Arc<Latch>) -> Option<Job> {
        let mut q = self.queue.lock().expect("jobs run outside the queue lock");
        let i = q.iter().position(|e| e.scope.as_ref().is_some_and(|l| Arc::ptr_eq(l, latch)))?;
        let queued = q.remove(i)?;
        kgoa_obs::metrics::POOL_QUEUE_DEPTH.add(-1);
        Some(queued.job)
    }
}

/// Counts a scope's outstanding jobs; the scope exits when it hits zero.
struct Latch {
    pending: Mutex<usize>,
    done: Condvar,
}

impl Latch {
    fn new() -> Self {
        Latch { pending: Mutex::new(0), done: Condvar::new() }
    }

    fn add(&self) {
        *self.pending.lock().unwrap() += 1;
    }

    fn complete(&self) {
        let mut n = self.pending.lock().unwrap();
        *n -= 1;
        if *n == 0 {
            self.done.notify_all();
        }
    }

    fn is_clear(&self) -> bool {
        *self.pending.lock().unwrap() == 0
    }

    fn wait_timeout(&self, timeout: Duration) {
        let n = self.pending.lock().unwrap();
        if *n > 0 {
            let _ = self.done.wait_timeout(n, timeout).unwrap();
        }
    }
}

/// Decrements the latch when dropped — runs even when the job panics, so
/// a scope can never wait forever on a job that died.
struct LatchGuard(Arc<Latch>);

impl Drop for LatchGuard {
    fn drop(&mut self) {
        self.0.complete();
    }
}

/// A persistent pool of worker threads. See the module docs.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    threads: usize,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl WorkerPool {
    /// Spawn a pool with `threads` workers (at least one).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            work_ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let handles = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("kgoa-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { shared, threads, handles: Mutex::new(handles) }
    }

    /// The process-wide pool, spawned on first use with one worker per
    /// available hardware thread.
    pub fn global() -> &'static WorkerPool {
        static POOL: OnceLock<WorkerPool> = OnceLock::new();
        POOL.get_or_init(|| {
            let threads =
                std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
            WorkerPool::new(threads)
        })
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run `f` with a [`Scope`] whose jobs may borrow from the caller's
    /// environment. Returns only after every spawned job has finished;
    /// the wait happens in a drop guard, so a panic in `f` (or in a job)
    /// still drains the scope before unwinding further.
    pub fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: FnOnce(&Scope<'_, 'env>) -> R,
    {
        let scope =
            Scope { pool: self, latch: Arc::new(Latch::new()), _env: PhantomData };
        let _drain = ScopeDrain { pool: self, latch: Arc::clone(&scope.latch) };
        f(&scope)
    }

    /// Queue a fire-and-forget job on the pool. Unlike [`WorkerPool::scope`]
    /// the caller does not wait: the job must own its data (`'static`) and
    /// its panics are swallowed by the worker's `catch_unwind` (callers that
    /// care wrap their own). Used for background maintenance work — e.g. the
    /// epoch manager's delta→main merge — that must not block the submitting
    /// writer.
    pub fn spawn_detached<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'static,
    {
        self.shared.push(Queued { scope: None, job: Box::new(f) });
    }

    /// Block until `latch` clears, running the scope's own queued jobs
    /// while waiting.
    fn wait_latch(&self, latch: &Arc<Latch>) {
        loop {
            if latch.is_clear() {
                return;
            }
            if let Some(job) = self.shared.try_pop_scoped(latch) {
                // Helping keeps nested scopes deadlock-free and puts the
                // waiting thread to work instead of sleeping.
                let _ = catch_unwind(AssertUnwindSafe(job));
                continue;
            }
            latch.wait_timeout(Duration::from_millis(1));
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // No scope can be alive here (scopes borrow the pool), so workers
        // only need to drain whatever detached work remains and exit.
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.work_ready.notify_all();
        for h in self.handles.lock().unwrap().drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if let Some(queued) = q.pop_front() {
                    kgoa_obs::metrics::POOL_QUEUE_DEPTH.add(-1);
                    break Some(queued.job);
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    break None;
                }
                q = shared.work_ready.wait(q).unwrap();
            }
        };
        match job {
            Some(job) => {
                // Isolate panics: the job's own latch guard still fires
                // during the unwind, so scopes observe completion.
                let _ = catch_unwind(AssertUnwindSafe(job));
            }
            None => return,
        }
    }
}

/// A spawn handle tied to one [`WorkerPool::scope`] call. `'env` is the
/// borrowed environment: jobs may capture `&'env` data because the scope
/// cannot exit before they finish.
pub struct Scope<'pool, 'env> {
    pool: &'pool WorkerPool,
    latch: Arc<Latch>,
    /// Invariant in `'env`, like `std::thread::Scope`.
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'pool, 'env> Scope<'pool, 'env> {
    /// Queue `f` on the pool. It may borrow from `'env`; the scope's exit
    /// blocks on its completion (panic included — the latch decrements in
    /// a drop guard).
    #[allow(unsafe_code)]
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        self.latch.add();
        let latch = Arc::clone(&self.latch);
        let job: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            let _guard = LatchGuard(latch);
            f();
        });
        // SAFETY: erasing `'env` to `'static` is sound because the job
        // cannot outlive `'env`: the scope's drop guard ([`ScopeDrain`])
        // blocks until the latch — incremented above, decremented only by
        // the job's `LatchGuard` after it ran (or unwound) — reaches
        // zero. The fat-pointer layout of `Box<dyn FnOnce + Send>` is
        // identical for both lifetimes.
        let job: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Job>(job)
        };
        self.pool.shared.push(Queued { scope: Some(Arc::clone(&self.latch)), job });
    }
}

/// Blocks scope exit (normal or unwinding) until the latch clears.
struct ScopeDrain<'pool> {
    pool: &'pool WorkerPool,
    latch: Arc<Latch>,
}

impl Drop for ScopeDrain<'_> {
    fn drop(&mut self) {
        self.pool.wait_latch(&self.latch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn scoped_jobs_borrow_and_complete() {
        let pool = WorkerPool::new(4);
        let total = AtomicU64::new(0);
        pool.scope(|s| {
            for i in 0..100u64 {
                let total = &total;
                s.spawn(move || {
                    total.fetch_add(i, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 4950);
    }

    #[test]
    fn panicking_job_does_not_kill_the_worker() {
        let pool = WorkerPool::new(1);
        let ran = AtomicU64::new(0);
        pool.scope(|s| {
            s.spawn(|| panic!("boom"));
        });
        // The single worker survived the panic and still runs new jobs.
        pool.scope(|s| {
            let ran = &ran;
            s.spawn(move || {
                ran.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn nested_scopes_do_not_deadlock() {
        // More nested scopes than pool threads: the outer jobs' scope
        // waits must help-run the inner jobs or this would hang.
        let pool = Arc::new(WorkerPool::new(1));
        let total = Arc::new(AtomicU64::new(0));
        {
            let pool2 = Arc::clone(&pool);
            let total = Arc::clone(&total);
            pool.scope(move |s| {
                for _ in 0..4 {
                    let pool2 = Arc::clone(&pool2);
                    let total = Arc::clone(&total);
                    s.spawn(move || {
                        pool2.scope(|inner| {
                            let total = &total;
                            inner.spawn(move || {
                                total.fetch_add(1, Ordering::Relaxed);
                            });
                        });
                    });
                }
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn scope_wait_leaves_detached_jobs_to_pool_threads() {
        // One pool thread, busy with a scoped job; a detached job queued
        // behind it must wait for that thread, not run on the caller
        // while the caller waits for its scope. The sleep only keeps the
        // thread busy while the scope waits; correct code passes however
        // the threads interleave.
        let pool = WorkerPool::new(1);
        let caller = std::thread::current().id();
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (ran_on_tx, ran_on_rx) = std::sync::mpsc::channel();
        pool.scope(|s| {
            s.spawn(move || {
                started_tx.send(()).unwrap();
                std::thread::sleep(Duration::from_millis(100));
            });
            started_rx.recv().unwrap();
            pool.spawn_detached(move || {
                ran_on_tx.send(std::thread::current().id()).unwrap();
            });
        });
        let ran_on = ran_on_rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_ne!(ran_on, caller, "the scope's wait ran a detached job");
    }

    #[test]
    fn scope_returns_value_after_drain() {
        let pool = WorkerPool::new(2);
        let done = AtomicU64::new(0);
        let out = pool.scope(|s| {
            let done = &done;
            s.spawn(move || {
                std::thread::sleep(Duration::from_millis(5));
                done.fetch_add(1, Ordering::Relaxed);
            });
            42
        });
        assert_eq!(out, 42);
        // The spawn above must have finished before scope returned.
        assert_eq!(done.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn global_pool_is_shared_and_sized() {
        let a = WorkerPool::global();
        let b = WorkerPool::global();
        assert!(std::ptr::eq(a, b));
        assert!(a.threads() >= 1);
    }
}
