//! The background pool: a process-wide FIFO of detached jobs, run by one
//! thread per available hardware thread. Its one client is the epoch
//! manager's delta→main merge ([`crate::EpochManager::schedule_merge`]),
//! which must not block the writer that triggered it.
//!
//! Parallel walks do not use it: [`crate::run_parallel`] spawns its
//! workers with `std::thread::scope` (DESIGN.md §4f records why the
//! merges stay here).
//!
//! **Panic isolation.** Every job runs inside `catch_unwind` on the pool
//! thread; a panicking job never takes the worker down, so the pool's
//! capacity is stable for the life of the process. Callers that need to
//! observe a job's panic wrap their own `catch_unwind` inside the job.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// State shared between the submitting side and the pool threads.
struct PoolShared {
    queue: Mutex<VecDeque<Job>>,
    work_ready: Condvar,
    shutdown: AtomicBool,
}

/// A pool of worker threads draining one FIFO. See the module docs.
pub(crate) struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawn a pool with `threads` workers (at least one).
    fn new(threads: usize) -> Self {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            work_ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let handles = (0..threads.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("kgoa-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// The process-wide pool, spawned on first use with one worker per
    /// available hardware thread.
    pub(crate) fn global() -> &'static WorkerPool {
        static POOL: OnceLock<WorkerPool> = OnceLock::new();
        POOL.get_or_init(|| {
            let threads =
                std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
            WorkerPool::new(threads)
        })
    }

    /// Queue a fire-and-forget job. The caller does not wait; the job owns
    /// its data and its panics are swallowed by the worker's
    /// `catch_unwind`.
    pub(crate) fn spawn_detached<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'static,
    {
        let mut q = self.shared.queue.lock().expect("jobs run outside the queue lock");
        q.push_back(Box::new(f));
        drop(q);
        self.shared.work_ready.notify_one();
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Workers drain whatever detached work remains, then exit.
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.work_ready.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut q = shared.queue.lock().expect("jobs run outside the queue lock");
            loop {
                if let Some(job) = q.pop_front() {
                    break job;
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                q = shared.work_ready.wait(q).expect("jobs run outside the queue lock");
            }
        };
        let _ = catch_unwind(AssertUnwindSafe(job));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn panicking_job_does_not_kill_the_worker() {
        let pool = WorkerPool::new(1);
        let (tx, rx) = std::sync::mpsc::channel();
        pool.spawn_detached(|| panic!("boom"));
        // The single worker survived the panic and still runs new jobs.
        pool.spawn_detached(move || tx.send(()).unwrap());
        rx.recv_timeout(Duration::from_secs(10)).unwrap();
    }

    #[test]
    fn global_pool_is_shared_and_sized() {
        let a = WorkerPool::global();
        let b = WorkerPool::global();
        assert!(std::ptr::eq(a, b));
        assert!(!a.handles.is_empty());
    }
}
