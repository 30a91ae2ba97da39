//! A process-global helper pool for per-row numerics.
//!
//! The simulation runs on one run permit at a time (`workers: 1` is what
//! makes virtual time a pure function of the spec), so a host with more
//! cores than that sits partly idle while a simulated process computes.
//! [`for_each`] lends that process the idle cores for one *region*: a loop
//! over indices with no dependency between them, such as FT's rows. The
//! simulated schedule never sees it — the caller holds its permit throughout
//! and returns only once the whole region is done — and the results cannot
//! see it either: each index is computed by exactly one thread, with the same
//! operations in the same order as inline, and nothing is reduced across
//! indices (DESIGN.md §5.6).
//!
//! # Regions
//!
//! A region of `n` indices is cut into one contiguous range per thread — the
//! caller takes the first, helper `k` the `k`-th — so a caller that runs
//! several regions over the same rows gives each row to the same thread every
//! time, and the row stays in that core's cache. A thread that has finished
//! its own range claims what is left of the others' (one index at a time,
//! from a shared cursor per range), so a helper that wakes late costs the
//! caller nothing but its help.
//!
//! A region runs inline, on the caller alone, when the host has one core,
//! when the pool is already serving another caller (a concurrent job, or a
//! `for_each` nested inside `f`), or when it has fewer than two indices.
//! Callers skip the pool for work below [`MIN_POINTS`] grid points.
//!
//! # Soundness
//!
//! `f` is borrowed from the caller's frame, so no helper may touch it once
//! [`for_each`] returns. The caller publishes the region, works, retracts it
//! and then waits until no helper holds it: a helper announces itself
//! (`users`) *before* it reads the region pointer, so it either sees the
//! retraction or is waited for (all four accesses are `SeqCst`), and so
//! every index a helper claimed has finished when the caller returns. A
//! panic in `f` — on a helper or on the caller — is caught where it happens,
//! stops further claims, and is resumed on the caller after that wait. Idle
//! helpers poll for `SPIN` (500 µs), yielding their core between polls, and
//! then park.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::{Mutex, OnceLock};
use std::thread::Thread;
use std::time::{Duration, Instant};

/// The smallest region, in grid points, worth the pool: waking a parked
/// helper on another core costs ≈ 24 µs on a 2-core VM, which a region of
/// fewer points does not repay.
pub const MIN_POINTS: usize = 1 << 15;

/// How long an idle helper polls for the next region before it parks. The
/// regions of one FT job follow each other with a few hundred microseconds
/// of messaging between them.
const SPIN: Duration = Duration::from_micros(500);

/// Run `f(i)` for every `i` in `0..n`, each exactly once, on the calling
/// thread and the pool's helpers; returns once every index has finished. A
/// panic in `f` stops the indices not yet started and is resumed here, after
/// the ones already running finished.
pub fn for_each<F: Fn(usize) + Sync>(n: usize, f: F) {
    run(n, &f);
}

fn run(n: usize, f: &(dyn Fn(usize) + Sync)) {
    let pool = match pool() {
        Some(pool) if n > 1 && pool.try_acquire() => pool,
        _ => return (0..n).for_each(f),
    };
    let region = Region {
        f,
        n,
        parts: n.min(pool.cursors.len()),
        stop: AtomicBool::new(false),
        panic: Mutex::new(None),
    };
    for (part, cursor) in pool.cursors[..region.parts].iter().enumerate() {
        cursor.store(region.start(part), SeqCst);
    }
    // A pointer cast may change the lifetime: helpers dereference it only
    // while `users` counts them, and the caller waits that count out below.
    let shared = &region as *const Region<'_> as *mut Region<'static>;
    pool.region.store(shared, SeqCst);
    pool.epoch.fetch_add(1, SeqCst);
    if pool.sleepers.load(SeqCst) > 0 {
        pool.threads
            .get()
            .into_iter()
            .flatten()
            .for_each(Thread::unpark);
    }
    pool.work(&region, 0);
    pool.region.store(ptr::null_mut(), SeqCst);
    // A helper still in the region is finishing its last index.
    let mut polls = 0;
    while pool.users.load(SeqCst) > 0 {
        if polls < 64 {
            polls += 1;
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
    pool.busy.store(false, SeqCst);
    let panic = region.panic.into_inner();
    if let Some(payload) = panic.unwrap_or_else(|e| e.into_inner()) {
        resume_unwind(payload);
    }
}

/// One call of [`for_each`], on its caller's stack.
struct Region<'f> {
    f: &'f (dyn Fn(usize) + Sync),
    n: usize,
    /// Threads with a range of their own: `min(n, pool threads)`.
    parts: usize,
    /// Set by the first panic: nobody claims another index.
    stop: AtomicBool,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Region<'_> {
    /// First index of range `part`; range `parts` starts at `n`.
    fn start(&self, part: usize) -> usize {
        part * self.n / self.parts
    }
}

struct Pool {
    /// Set while one caller owns the pool; any other caller runs inline.
    busy: AtomicBool,
    /// The published region, null between regions.
    region: AtomicPtr<Region<'static>>,
    /// Bumped once per region: what an idle helper watches.
    epoch: AtomicU64,
    /// Helpers between announcing themselves and leaving a region.
    users: AtomicUsize,
    /// Helpers parked, or about to park, until the next epoch.
    sleepers: AtomicUsize,
    /// The next unclaimed index of each thread's range (one per thread,
    /// caller included).
    cursors: Box<[AtomicUsize]>,
    /// The helpers, for `unpark`.
    threads: OnceLock<Vec<Thread>>,
}

/// The pool, with its helpers started on first use; `None` on a one-core
/// host.
fn pool() -> Option<&'static Pool> {
    static POOL: OnceLock<Option<Pool>> = OnceLock::new();
    let pool = POOL
        .get_or_init(|| {
            let cores = sim_net::sched::host_cores();
            (cores > 1).then(|| Pool {
                busy: AtomicBool::new(false),
                region: AtomicPtr::new(ptr::null_mut()),
                epoch: AtomicU64::new(0),
                users: AtomicUsize::new(0),
                sleepers: AtomicUsize::new(0),
                cursors: (0..cores).map(|_| AtomicUsize::new(0)).collect(),
                threads: OnceLock::new(),
            })
        })
        .as_ref()?;
    pool.threads.get_or_init(|| {
        // Helpers live as long as the process and are never joined: `work`
        // catches every panic of `f`, so a detached helper hides none. One
        // that cannot be spawned leaves its range to the others.
        (1..pool.cursors.len())
            .filter_map(|me| {
                std::thread::Builder::new()
                    .name(format!("row-helper-{me}"))
                    .spawn(move || pool.helper(me))
                    .ok()
                    .map(|handle| handle.thread().clone())
            })
            .collect()
    });
    Some(pool)
}

impl Pool {
    /// Take the pool for one region; `false` while another caller has it.
    fn try_acquire(&self) -> bool {
        self.busy
            .compare_exchange(false, true, SeqCst, SeqCst)
            .is_ok()
    }

    /// Claim and run indices of `region`: thread `me`'s own range first,
    /// then what is left of the others'.
    fn work(&self, region: &Region<'_>, me: usize) {
        for part in (0..region.parts).map(|k| (me + k) % region.parts) {
            let end = region.start(part + 1);
            while !region.stop.load(SeqCst) {
                let i = self.cursors[part].fetch_add(1, SeqCst);
                if i >= end {
                    break;
                }
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (region.f)(i))) {
                    region.stop.store(true, SeqCst);
                    let mut first = region.panic.lock().unwrap_or_else(|e| e.into_inner());
                    first.get_or_insert(payload);
                }
            }
        }
    }

    /// Helper `me`'s loop: wait for a new epoch, then work on whatever
    /// region is published.
    fn helper(&self, me: usize) {
        let mut seen = 0;
        loop {
            seen = self.next_epoch(seen);
            self.users.fetch_add(1, SeqCst);
            let region = self.region.load(SeqCst);
            if !region.is_null() {
                // SAFETY: the caller that published `region` retracts it and
                // then waits for `users` to reach zero before its frame
                // (which owns the region and `f`) is left; this helper was
                // counted before it loaded the pointer, so the region outlives
                // this borrow.
                self.work(unsafe { &*region }, me);
            }
            self.users.fetch_sub(1, SeqCst);
        }
    }

    /// Poll for [`SPIN`], then park, until the epoch moves past `seen`.
    /// A poll yields the core: a runnable thread that wants it (a second
    /// job's worker) gets it at once instead of after the spin.
    fn next_epoch(&self, seen: u64) -> u64 {
        let deadline = Instant::now() + SPIN;
        loop {
            let epoch = self.epoch.load(SeqCst);
            if epoch != seen {
                return epoch;
            }
            if Instant::now() < deadline {
                std::thread::yield_now();
                continue;
            }
            // Counted as a sleeper before the epoch is re-read: a caller
            // that bumps the epoch afterwards sees the count and unparks.
            self.sleepers.fetch_add(1, SeqCst);
            while self.epoch.load(SeqCst) == seen {
                std::thread::park();
            }
            self.sleepers.fetch_sub(1, SeqCst);
        }
    }
}
