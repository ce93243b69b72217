//! Persistent worker pool shared by both sharded engines.
//!
//! Earlier revisions spawned scoped threads for every phase of every cycle
//! (and for every lookahead bucket of the event engine) — at N = 10⁶ with
//! short phases the spawn/join cost dominated. This pool creates its
//! threads **once per simulation** and parks them on a condvar between
//! phases; dispatching a phase is one mutex lock plus one `notify_all`.
//!
//! The pool is deliberately dumb: it runs one job at a time, where a job is
//! a `Fn(usize)` invoked once per participating worker with the worker
//! index. Work partitioning (which shards a worker owns) lives in the
//! caller ([`crate::exec::run_phase`]), which hands each worker a
//! *contiguous* shard chunk — static shard→worker assignment, so a shard's
//! memory is touched by the same worker every phase (shard-affine access,
//! and first-touch pages land on the worker that will keep using them).
//!
//! # Safety
//!
//! One of the crate's two `unsafe` sites — the other is the prefetch hint
//! [`crate::exec::prefetch`] — this module needs it for the **lifetime
//! erasure of the job closure**: [`WorkerPool::run`] borrows the
//! job as `&(dyn Fn(usize) + Sync)` and stores a raw pointer to it in the
//! shared state so worker threads can call it. The pointer only outlives
//! the borrow in the type system: `run` blocks on the `done` condvar until
//! every worker has acknowledged completion, and workers never touch the
//! job pointer outside the epoch it was published in, so the closure is
//! provably alive for every dereference.
//!
//! Worker panics are caught with `catch_unwind`: the panicking worker still
//! decrements the completion counter (no barrier deadlock), a flag is set,
//! and the *driver* re-panics after the phase barrier. The pool itself
//! stays consistent and can keep running jobs afterwards; `Drop` always
//! joins every thread.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// A published job: a type-erased pointer to the caller's closure plus the
/// number of workers that should invoke it (workers with a higher index
/// just acknowledge the epoch).
struct Job {
    f: *const (dyn Fn(usize) + Sync),
    workers: usize,
}

// SAFETY: the pointer is only dereferenced while `WorkerPool::run` blocks
// on the `done` barrier, which keeps the pointee borrowed and alive.
#[allow(unsafe_code)]
unsafe impl Send for Job {}

struct State {
    /// Incremented per published job; workers detect work as an epoch change.
    epoch: u64,
    job: Option<Job>,
    /// Workers that have not yet acknowledged the current epoch.
    remaining: usize,
    /// At least one worker panicked while running the current job.
    panicked: bool,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Driver → workers: a new epoch (or shutdown) was published.
    go: Condvar,
    /// Workers → driver: `remaining` reached zero.
    done: Condvar,
}

/// Locks the pool state, recovering from poisoning: the state is a plain
/// counter record with no invariants a panic could tear, and recovering
/// here is what keeps a worker panic from deadlocking the barrier.
fn lock(mutex: &Mutex<State>) -> MutexGuard<'_, State> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A pool of `workers` long-lived threads parked between jobs.
///
/// `workers <= 1` spawns no threads at all; [`WorkerPool::run`] then
/// executes the job inline on the caller, which keeps the single-worker
/// configuration byte-for-byte identical to a plain sequential loop.
pub(crate) struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    workers: usize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers)
            .finish_non_exhaustive()
    }
}

impl WorkerPool {
    /// Creates a pool of `workers` threads (none for `workers <= 1`).
    /// Threads are created here, once, and live until the pool is dropped.
    pub(crate) fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                epoch: 0,
                job: None,
                remaining: 0,
                panicked: false,
                shutdown: false,
            }),
            go: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = if workers <= 1 {
            Vec::new()
        } else {
            (0..workers)
                .map(|index| {
                    let shared = Arc::clone(&shared);
                    std::thread::Builder::new()
                        .name(format!("pss-worker-{index}"))
                        .spawn(move || worker_loop(&shared, index))
                        .expect("spawn pool worker")
                })
                .collect()
        };
        WorkerPool {
            shared,
            handles,
            workers,
        }
    }

    /// The configured worker count (≥ 1).
    pub(crate) fn workers(&self) -> usize {
        self.workers
    }

    /// Runs one job: `f(w)` is invoked exactly once for every worker index
    /// `w < workers.min(self.workers())`, concurrently on the pool threads
    /// (inline on the caller if the pool is single-worker). Blocks until
    /// every invocation returns.
    ///
    /// # Panics
    ///
    /// Re-panics on the caller if any worker invocation panicked. The pool
    /// remains usable afterwards.
    pub(crate) fn run(&self, workers: usize, f: &(dyn Fn(usize) + Sync)) {
        let workers = workers.clamp(1, self.workers);
        if self.handles.is_empty() || workers <= 1 {
            f(0);
            return;
        }
        // Erase the borrow lifetime so the pointer can cross into the
        // worker threads. SAFETY: see the module docs — the barrier below
        // keeps `f` borrowed until every worker is done with it.
        #[allow(unsafe_code)]
        let job = Job {
            f: unsafe {
                std::mem::transmute::<
                    *const (dyn Fn(usize) + Sync),
                    *const (dyn Fn(usize) + Sync + 'static),
                >(f as *const (dyn Fn(usize) + Sync))
            },
            workers,
        };
        let mut state = lock(&self.shared.state);
        debug_assert!(state.job.is_none(), "pool runs one job at a time");
        state.job = Some(job);
        state.remaining = self.handles.len();
        state.panicked = false;
        state.epoch = state.epoch.wrapping_add(1);
        self.shared.go.notify_all();
        while state.remaining > 0 {
            state = self
                .shared
                .done
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        state.job = None;
        let panicked = state.panicked;
        drop(state);
        if panicked {
            panic!("worker pool job panicked");
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut state = lock(&self.shared.state);
            state.shutdown = true;
        }
        self.shared.go.notify_all();
        for handle in self.handles.drain(..) {
            // A worker that panicked outside catch_unwind would surface
            // here; join errors are deliberately ignored so teardown
            // always completes.
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared, index: usize) {
    let mut seen_epoch = 0u64;
    loop {
        let (f, workers) = {
            let mut state = lock(&shared.state);
            loop {
                if state.shutdown {
                    return;
                }
                if state.epoch != seen_epoch {
                    seen_epoch = state.epoch;
                    break;
                }
                state = shared
                    .go
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            let job = state.job.as_ref().expect("epoch advanced with a job");
            (job.f, job.workers)
        };
        let panicked = if index < workers {
            // SAFETY: the driver blocks on `done` until we decrement
            // `remaining` below, so the closure behind `f` is still alive.
            #[allow(unsafe_code)]
            let f = unsafe { &*f };
            catch_unwind(AssertUnwindSafe(|| f(index))).is_err()
        } else {
            false
        };
        let mut state = lock(&shared.state);
        if panicked {
            state.panicked = true;
        }
        state.remaining -= 1;
        if state.remaining == 0 {
            shared.done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn single_worker_pool_runs_inline_without_threads() {
        let pool = WorkerPool::new(1);
        assert!(pool.handles.is_empty());
        let hits = AtomicUsize::new(0);
        pool.run(1, &|w| {
            assert_eq!(w, 0);
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn every_worker_index_runs_exactly_once_per_job() {
        let pool = WorkerPool::new(4);
        for _ in 0..100 {
            let hits: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
            pool.run(4, &|w| {
                hits[w].fetch_add(1, Ordering::Relaxed);
            });
            for (w, hit) in hits.iter().enumerate() {
                assert_eq!(hit.load(Ordering::Relaxed), 1, "worker {w}");
            }
        }
    }

    #[test]
    fn narrower_jobs_leave_extra_workers_idle() {
        let pool = WorkerPool::new(4);
        let hits = AtomicUsize::new(0);
        let max_index = AtomicUsize::new(0);
        pool.run(2, &|w| {
            hits.fetch_add(1, Ordering::Relaxed);
            max_index.fetch_max(w, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 2);
        assert!(max_index.load(Ordering::Relaxed) < 2);
    }

    #[test]
    fn worker_panic_propagates_without_deadlocking_the_pool() {
        let pool = WorkerPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(2, &|w| {
                if w == 1 {
                    panic!("injected worker failure");
                }
            });
        }));
        assert!(result.is_err(), "driver must observe the worker panic");
        // The pool must remain fully usable after a job panicked...
        let hits = AtomicUsize::new(0);
        pool.run(2, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 2);
        // ...and Drop must join cleanly (no hung barrier). Implicit here.
    }

    #[test]
    fn drop_joins_parked_workers_promptly() {
        let pool = WorkerPool::new(8);
        pool.run(8, &|_| {});
        drop(pool); // would hang the test if shutdown were broken
    }
}
