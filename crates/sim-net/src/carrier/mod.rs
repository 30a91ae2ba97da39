//! The persistent worker-thread pool behind the coroutine runtime.
//!
//! Every simulated process runs on a user-space stack ([`coro`]); the OS
//! threads that host those stacks are the `workers` of a job's
//! [`coro::CoroRuntime`]. Those threads are fungible: once a job shuts its
//! runtime down, the threads that hosted it can host the next job. Spawning
//! and joining them per job would pay the churn (and a fresh malloc arena)
//! for every row of a harness run and every job a server runs.
//!
//! [`CarrierPool::global`] is a process-wide pool: a finished worker parks
//! on its private channel and is handed the next body — in any later job of
//! the same OS process. The pool therefore grows to the *peak number of
//! simultaneously hosting workers* ever reached and never beyond it. Idle
//! workers cost only their small, mostly untouched stacks.
//!
//! The pool is deliberately oblivious to the [`crate::sched::Scheduler`]:
//! scheduling is about which process may *execute* (run permits), this module
//! is only about which OS threads host the runtime's worker loops.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Mutex, OnceLock};

pub mod coro;
pub mod stack;

/// Stack size of every pooled thread. A pooled thread only runs a
/// coroutine runtime's worker loop and stack recycling — all process code
/// runs on coroutine stacks — so this can be small.
const WORKER_STACK: usize = 256 * 1024;

/// A queued body. Running it yields the closure that hands the result to the
/// [`CarrierHandle`], so the thread can re-register as idle *between*
/// finishing the body and waking the joiner.
type Task = Box<dyn FnOnce() -> Box<dyn FnOnce()> + Send + 'static>;

/// The execution-mode label of a job spec or builder call. It selects
/// nothing: every simulated process runs on a coroutine stack
/// ([`coro::CoroRuntime`]). Both names stay because job specs still carry
/// `"carrier":"thread"|"coroutine"` and the frozen benchmark package names
/// the type; a spec that says `thread` runs exactly like one that says
/// `coroutine` (see `DESIGN.md` §5.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CarrierMode {
    /// Historic label of the removed OS-thread-per-process carrier.
    Thread,
    /// One user-space stack per process, hosted by `workers` OS threads.
    Coroutine,
}

impl CarrierMode {
    /// Stable lowercase name, used on the job-spec wire.
    pub fn as_str(self) -> &'static str {
        match self {
            CarrierMode::Thread => "thread",
            CarrierMode::Coroutine => "coroutine",
        }
    }

    /// The mode every job runs with: [`CarrierMode::Coroutine`].
    pub fn default_mode() -> CarrierMode {
        CarrierMode::Coroutine
    }

    /// The mode a job labelled `self` actually runs with:
    /// [`CarrierMode::Coroutine`], whatever the label.
    pub fn effective(self) -> CarrierMode {
        CarrierMode::Coroutine
    }
}

/// Whether a [`CarrierPool::run`] request was served by a fresh OS thread or
/// a recycled one, so job reports can account for thread churn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CarrierSource {
    /// A new OS thread was spawned.
    Spawned,
    /// An idle pooled thread was reused.
    Reused,
}

/// Join handle for a body run by the pool or a coroutine runtime. Mirrors
/// [`std::thread::JoinHandle`]: `join` returns `Err` with the panic payload
/// if the body panicked (the pooled thread itself survives).
pub struct CarrierHandle<T> {
    result: Receiver<std::thread::Result<T>>,
}

impl<T> CarrierHandle<T> {
    /// Wait for the body to finish and return its result (or the panic
    /// payload it unwound with).
    pub fn join(self) -> std::thread::Result<T> {
        self.result
            .recv()
            .expect("carrier thread died without reporting a result")
    }
}

/// A pool of reusable worker threads, all with the same small stack.
pub struct CarrierPool {
    /// The private task channels of parked threads.
    idle: Mutex<Vec<Sender<Task>>>,
    spawned: AtomicU64,
    next_id: AtomicU64,
}

impl CarrierPool {
    fn new() -> Self {
        CarrierPool {
            idle: Mutex::new(Vec::new()),
            spawned: AtomicU64::new(0),
            next_id: AtomicU64::new(0),
        }
    }

    /// The process-wide pool. All jobs in this OS process share it, which is
    /// what lets back-to-back jobs reuse each other's workers.
    pub fn global() -> &'static CarrierPool {
        static GLOBAL: OnceLock<CarrierPool> = OnceLock::new();
        GLOBAL.get_or_init(CarrierPool::new)
    }

    /// Run `body` on a pooled thread: a parked one if one is idle, a freshly
    /// spawned thread otherwise. Panics inside `body` are caught and
    /// surfaced through the handle's `join`, exactly like a plain
    /// `std::thread::spawn` + `join`.
    pub fn run<T, F>(&'static self, body: F) -> (CarrierHandle<T>, CarrierSource)
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let (res_tx, res_rx) = channel();
        let mut task: Task = Box::new(move || {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body));
            // The caller may have stopped listening (it never does today, but
            // a dropped handle must not kill the pooled thread).
            Box::new(move || drop(res_tx.send(result)))
        });
        let handle = CarrierHandle { result: res_rx };
        let recycled = self.idle.lock().unwrap_or_else(|e| e.into_inner()).pop();
        if let Some(tx) = recycled {
            match tx.send(task) {
                Ok(()) => return (handle, CarrierSource::Reused),
                // The thread died (its channel disconnected); fall through
                // and spawn a replacement for the returned task.
                Err(err) => task = err.0,
            }
        }
        let (tx, rx) = channel::<Task>();
        if tx.send(task).is_err() {
            unreachable!("fresh carrier channel cannot be closed");
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        std::thread::Builder::new()
            .name(format!("sim-carrier-{id}"))
            .stack_size(WORKER_STACK)
            .spawn(move || self.carrier_loop(tx, rx))
            .expect("spawn carrier thread");
        self.spawned.fetch_add(1, Ordering::Relaxed);
        (handle, CarrierSource::Spawned)
    }

    /// Body of every pooled thread: run the queued task, park on the idle
    /// list, hand the result back, wait for the next. Re-registering *before*
    /// the joiner is woken is what lets a caller that joins and immediately
    /// calls [`CarrierPool::run`] find this thread instead of spawning a
    /// fresh one (with a fresh malloc arena) in the gap. The thread keeps one
    /// sender end of its own channel alive, so `recv` only fails if the
    /// process is tearing down.
    fn carrier_loop(&self, tx: Sender<Task>, rx: Receiver<Task>) {
        while let Ok(task) = rx.recv() {
            let report = task();
            self.idle
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(tx.clone());
            report();
        }
    }

    /// Total OS threads this pool has ever spawned.
    pub fn spawned_total(&self) -> u64 {
        self.spawned.load(Ordering::Relaxed)
    }

    /// Number of currently idle threads (diagnostics).
    pub fn idle_count(&self) -> usize {
        self.idle.lock().unwrap_or_else(|e| e.into_inner()).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A pool no other test shares, so reuse accounting is exact.
    fn private_pool() -> &'static CarrierPool {
        Box::leak(Box::new(CarrierPool::new()))
    }

    #[test]
    fn sequential_bodies_reuse_one_thread() {
        let pool = private_pool();
        let (h, source) = pool.run(|| 41 + 1);
        assert_eq!((h.join().unwrap(), source), (42, CarrierSource::Spawned));
        for _ in 0..5 {
            let (h, source) = pool.run(std::thread::current);
            let inner = h.join().unwrap();
            assert!(inner.name().unwrap_or("").starts_with("sim-carrier-"));
            assert_eq!(source, CarrierSource::Reused);
        }
        assert_eq!((pool.spawned_total(), pool.idle_count()), (1, 1));
    }

    #[test]
    fn a_joined_carrier_is_already_idle_again() {
        // Regression for the idle race: the result used to be sent before
        // the thread re-registered, so join-then-run could outrun the pool
        // and spawn a second thread. 200 back-to-back runs must be served by
        // exactly one thread.
        let pool = private_pool();
        let mut threads = std::collections::HashSet::new();
        for i in 0..200 {
            let (h, _) = pool.run(move || (i, std::thread::current().id()));
            let (out, thread) = h.join().unwrap();
            assert_eq!(out, i);
            threads.insert(thread);
        }
        assert_eq!((pool.spawned_total(), threads.len()), (1, 1));
    }

    #[test]
    fn panicking_body_reports_payload_and_keeps_the_thread() {
        let pool = private_pool();
        let (h, _) = pool.run(|| -> usize { panic!("carrier body panic") });
        let payload = h.join().unwrap_err();
        assert_eq!(
            payload.downcast_ref::<&str>().copied(),
            Some("carrier body panic")
        );
        // The thread caught the panic and parked again.
        let (h, source) = pool.run(|| 7);
        assert_eq!((h.join().unwrap(), source), (7, CarrierSource::Reused));
    }

    #[test]
    fn concurrent_bodies_each_get_a_thread() {
        let pool = private_pool();
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(8));
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let barrier = std::sync::Arc::clone(&barrier);
                pool.run(move || {
                    barrier.wait();
                    i
                })
                .0
            })
            .collect();
        let mut out: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        out.sort();
        assert_eq!(out, (0..8).collect::<Vec<_>>());
        assert_eq!(pool.spawned_total(), 8);
    }
}
