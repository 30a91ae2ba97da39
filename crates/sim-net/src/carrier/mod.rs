//! The persistent carrier-thread pool.
//!
//! Every simulated process needs an OS thread to own its stack (the
//! application closure blocks, recurses, and unwinds on it), but the thread
//! itself is fungible: once a process finishes, the thread that carried it
//! can carry the next one. Before this pool existed the job launcher spawned
//! and joined one thread per physical process per job — at the paper's
//! 256-rank dual-replication scale that is 512 spawns + joins per job, and a
//! Table 1 harness run launches ten jobs back to back, paying the churn ten
//! times over for the same peak thread count.
//!
//! [`CarrierPool::global`] is a process-wide pool keyed by stack size: a
//! finished carrier parks on its private channel and is handed the next
//! process body — within the same job (recovery forks) or in any later job of
//! the same OS process (the back-to-back harness rows). The pool therefore
//! grows to the *peak number of simultaneously live processes* ever reached
//! and never beyond it, instead of `processes × jobs`. Idle carriers cost
//! only their (mostly untouched) stacks.
//!
//! The pool is deliberately oblivious to the [`crate::sched::Scheduler`]:
//! scheduling is about which process may *execute* (run permits), this module
//! is only about which OS thread hosts a process's stack. A pooled carrier
//! blocked in [`crate::sched::Scheduler::start`] or parked on its seat is
//! still "in use" — it returns to the idle list only when its process body
//! returns or unwinds.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Mutex, OnceLock};

pub mod coro;
pub mod stack;

/// A queued process body. Running it yields the closure that hands the
/// result to the [`CarrierHandle`], so the carrier can re-register as idle
/// *between* finishing the body and waking the joiner.
type Task = Box<dyn FnOnce() -> Box<dyn FnOnce()> + Send + 'static>;

/// How simulated-process bodies are hosted on OS threads.
///
/// The two modes are observably equivalent at the simulation level — same
/// [`crate::trace::TraceEvent`] sequences under `workers = 1`, same virtual
/// times and checksums — and differ only in execution cost and OS-thread
/// footprint (see `DESIGN.md` §5.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CarrierMode {
    /// One pooled OS thread per live process ([`CarrierPool`]); scheduler
    /// handoffs park and wake threads through per-slot seats (futexes).
    Thread,
    /// One user-space stack per process, hosted by `workers` OS threads
    /// ([`coro::CoroRuntime`]); a handoff is a register-save/stack-switch
    /// with no kernel involvement.
    Coroutine,
}

impl CarrierMode {
    /// Stable lowercase name, used in JSON reports and CLI flags.
    pub fn as_str(self) -> &'static str {
        match self {
            CarrierMode::Thread => "thread",
            CarrierMode::Coroutine => "coroutine",
        }
    }

    /// Parse a mode name as accepted by `--carrier-mode` and the
    /// `SDR_CARRIER_MODE` environment variable.
    pub fn parse(s: &str) -> Option<CarrierMode> {
        match s.trim().to_ascii_lowercase().as_str() {
            "thread" | "threads" | "os-thread" => Some(CarrierMode::Thread),
            "coro" | "coroutine" | "coroutines" => Some(CarrierMode::Coroutine),
            _ => None,
        }
    }

    /// The default mode for this build target: coroutines where the
    /// context-switch primitive exists ([`coro::supported`]), OS threads
    /// elsewhere. `SDR_CARRIER_MODE=thread|coro` overrides the default at
    /// run time; an explicit `JobBuilder::carrier_mode` call wins over both.
    pub fn default_mode() -> CarrierMode {
        if let Ok(v) = std::env::var("SDR_CARRIER_MODE") {
            if let Some(m) = CarrierMode::parse(&v) {
                return m.effective();
            }
        }
        if coro::supported() {
            CarrierMode::Coroutine
        } else {
            CarrierMode::Thread
        }
    }

    /// Clamp to what the target supports: requesting coroutines on a target
    /// without the switch primitive silently degrades to threads (the modes
    /// are observably equivalent, so this is a performance fallback, not a
    /// behavior change).
    pub fn effective(self) -> CarrierMode {
        match self {
            CarrierMode::Coroutine if !coro::supported() => CarrierMode::Thread,
            m => m,
        }
    }
}

impl std::fmt::Display for CarrierMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Whether a carrier request was served by a fresh OS thread or a recycled
/// one (returned by [`CarrierPool::run`] so job reports can account for
/// thread churn).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CarrierSource {
    /// A new OS thread was spawned for this process.
    Spawned,
    /// An idle pooled thread (same stack size) was reused.
    Reused,
}

/// Join handle for a process body submitted to the pool. Mirrors
/// [`std::thread::JoinHandle`]: `join` returns `Err` with the panic payload
/// if the body panicked (the pooled thread itself survives).
pub struct CarrierHandle<T> {
    result: Receiver<std::thread::Result<T>>,
}

impl<T> CarrierHandle<T> {
    /// Wait for the process body to finish and return its result (or the
    /// panic payload it unwound with).
    pub fn join(self) -> std::thread::Result<T> {
        self.result
            .recv()
            .expect("carrier thread died without reporting a result")
    }
}

/// A process-global pool of reusable carrier threads, bucketed by stack size.
pub struct CarrierPool {
    /// Idle carriers: stack size → the private task channels of parked
    /// threads with that stack.
    idle: Mutex<HashMap<usize, Vec<Sender<Task>>>>,
    spawned: AtomicU64,
    reused: AtomicU64,
    next_id: AtomicU64,
}

impl CarrierPool {
    fn new() -> Self {
        CarrierPool {
            idle: Mutex::new(HashMap::new()),
            spawned: AtomicU64::new(0),
            reused: AtomicU64::new(0),
            next_id: AtomicU64::new(0),
        }
    }

    /// The process-wide pool. All jobs in this OS process share it, which is
    /// what lets back-to-back benchmark rows reuse each other's carriers.
    pub fn global() -> &'static CarrierPool {
        static GLOBAL: OnceLock<CarrierPool> = OnceLock::new();
        GLOBAL.get_or_init(CarrierPool::new)
    }

    /// Run `body` on a carrier thread with (at least) `stack_bytes` of stack:
    /// a parked carrier of the same stack size if one is idle, a freshly
    /// spawned thread otherwise. Panics inside `body` are caught and
    /// surfaced through the handle's `join`, exactly like a plain
    /// `std::thread::spawn` + `join`.
    pub fn run<T, F>(
        &'static self,
        stack_bytes: usize,
        body: F,
    ) -> (CarrierHandle<T>, CarrierSource)
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let (res_tx, res_rx) = channel();
        let mut task: Task = Box::new(move || {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body));
            // The job may have stopped listening (it never does today, but a
            // dropped handle must not kill the pooled thread).
            Box::new(move || drop(res_tx.send(result)))
        });
        let handle = CarrierHandle { result: res_rx };
        let recycled = self
            .idle
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get_mut(&stack_bytes)
            .and_then(|v| v.pop());
        if let Some(tx) = recycled {
            match tx.send(task) {
                Ok(()) => {
                    self.reused.fetch_add(1, Ordering::Relaxed);
                    return (handle, CarrierSource::Reused);
                }
                // The carrier died (its channel disconnected); fall through
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
            .stack_size(stack_bytes)
            .spawn(move || Self::carrier_loop(stack_bytes, tx, rx))
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
    fn carrier_loop(stack_bytes: usize, tx: Sender<Task>, rx: Receiver<Task>) {
        while let Ok(task) = rx.recv() {
            let report = task();
            CarrierPool::global()
                .idle
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .entry(stack_bytes)
                .or_default()
                .push(tx.clone());
            report();
        }
    }

    /// Total OS threads this pool has ever spawned.
    pub fn spawned_total(&self) -> u64 {
        self.spawned.load(Ordering::Relaxed)
    }

    /// Total carrier requests served by reusing a parked thread.
    pub fn reused_total(&self) -> u64 {
        self.reused.load(Ordering::Relaxed)
    }

    /// Number of currently idle carriers (diagnostics).
    pub fn idle_count(&self) -> usize {
        self.idle
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .values()
            .map(|v| v.len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const STACK: usize = 1 << 20;

    // Each test uses a distinct stack size: buckets are per-size, so tests
    // sharing the global pool cannot steal each other's idle carriers.
    #[test]
    fn sequential_bodies_reuse_one_thread() {
        let pool = CarrierPool::global();
        let stack = STACK + 0x1000;
        let (h, _) = pool.run(stack, || 41 + 1);
        assert_eq!(h.join().unwrap(), 42);
        // The first carrier is back on the idle list; the next run of the
        // same stack size must reuse it.
        let mut reused = false;
        for _ in 0..5 {
            let (h, source) = pool.run(stack, std::thread::current);
            let inner = h.join().unwrap();
            assert!(inner.name().unwrap_or("").starts_with("sim-carrier-"));
            reused |= source == CarrierSource::Reused;
        }
        assert!(reused, "sequential tasks must recycle a parked carrier");
    }

    #[test]
    fn a_joined_carrier_is_already_idle_again() {
        // Regression for the idle race: the result used to be sent before
        // the thread re-registered, so join-then-run could outrun the pool
        // and spawn a second thread. 200 back-to-back runs of a private
        // stack size must be served by exactly one thread.
        let pool = CarrierPool::global();
        let stack = STACK + 0x5000;
        let mut threads = std::collections::HashSet::new();
        let mut spawned = 0;
        for i in 0..200 {
            let (h, source) = pool.run(stack, move || (i, std::thread::current().id()));
            spawned += (source == CarrierSource::Spawned) as usize;
            let (out, thread) = h.join().unwrap();
            assert_eq!(out, i);
            threads.insert(thread);
        }
        assert_eq!((spawned, threads.len()), (1, 1));
    }

    #[test]
    fn panicking_body_reports_payload_and_keeps_the_thread() {
        let pool = CarrierPool::global();
        let stack = STACK + 0x2000;
        let (h, _) = pool.run(stack, || -> usize { panic!("carrier body panic") });
        let payload = h.join().unwrap_err();
        assert_eq!(
            payload.downcast_ref::<&str>().copied(),
            Some("carrier body panic")
        );
        // The pool still serves tasks (the panicking thread survived or was
        // replaced transparently).
        let (h, _) = pool.run(stack, || 7);
        assert_eq!(h.join().unwrap(), 7);
    }

    #[test]
    fn distinct_stack_sizes_use_distinct_buckets() {
        let pool = CarrierPool::global();
        let (h1, _) = pool.run(STACK + 0x3000, || 1);
        h1.join().unwrap();
        // A different stack size must not reuse the just-parked carrier.
        let (h2, source) = pool.run(STACK + 0x4000, || 2);
        assert_eq!(source, CarrierSource::Spawned);
        assert_eq!(h2.join().unwrap(), 2);
    }

    #[test]
    fn concurrent_bodies_each_get_a_thread() {
        let pool = CarrierPool::global();
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(8));
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let barrier = std::sync::Arc::clone(&barrier);
                let (h, _) = pool.run(STACK, move || {
                    barrier.wait();
                    i
                });
                h
            })
            .collect();
        let mut out: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        out.sort();
        assert_eq!(out, (0..8).collect::<Vec<_>>());
    }
}
