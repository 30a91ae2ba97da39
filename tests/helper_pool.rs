//! The row helper pool, `workloads::pool::for_each`: every index runs
//! exactly once however many callers contend for the pool, a panic in `f` —
//! on a helper or on the caller — reaches the caller only after every index
//! it claimed has finished, and a `for_each` nested inside `f` runs inline.
//!
//! The tests take one lock each, so the pool is idle when a test that needs
//! a helper starts; only the contention test brings its own callers.

use std::panic::{catch_unwind, panic_any, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use std::sync::{Mutex, MutexGuard};
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};
use workloads::pool::for_each;

fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn every_index_runs_exactly_once_from_four_concurrent_callers() {
    let _serial = serial();
    thread::scope(|s| {
        for caller in 0..4 {
            s.spawn(move || {
                for round in 0..50 {
                    for n in [0, 1, 2, 3, 1000] {
                        let runs: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                        for_each(n, |i| {
                            runs[i].fetch_add(1, SeqCst);
                        });
                        for (i, count) in runs.iter().enumerate() {
                            let count = count.load(SeqCst);
                            assert_eq!(count, 1, "caller {caller}, round {round}: f({i}) of {n}");
                        }
                    }
                }
            });
        }
    });
}

/// The panic payload `f` raises.
struct Raised;

/// Cleared when dropped: the caller's frame that `f` borrows from.
struct Frame {
    alive: AtomicBool,
}

impl Drop for Frame {
    fn drop(&mut self) {
        self.alive.store(false, SeqCst);
    }
}

/// Wait, at most 10 s, until `flag` is set.
fn wait_for(flag: &AtomicBool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !flag.load(SeqCst) {
        assert!(Instant::now() < deadline, "{what}");
        thread::yield_now();
    }
}

/// Run a region of 64 indices in which the caller's first index and a
/// helper's first index meet: once both are running, one side panics (the
/// helper if `helper_panics`) and the other stays in its index for 20 ms.
/// The panic must reach the caller only after that index finished, and no
/// index may run once the caller's frame is gone.
fn panic_while_the_other_side_runs(helper_panics: bool) {
    static LATE: AtomicUsize = AtomicUsize::new(0);
    let caller: ThreadId = thread::current().id();
    let (caller_in, helper_in) = (AtomicBool::new(false), AtomicBool::new(false));
    let (started, finished) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let frame = Frame {
        alive: AtomicBool::new(true),
    };
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        for_each(64, |_| {
            started.fetch_add(1, SeqCst);
            let on_helper = thread::current().id() != caller;
            let (mine, other) = if on_helper {
                (&helper_in, &caller_in)
            } else {
                (&caller_in, &helper_in)
            };
            if !mine.swap(true, SeqCst) {
                wait_for(other, "the caller and a helper never both ran an index");
                if on_helper == helper_panics {
                    finished.fetch_add(1, SeqCst);
                    panic_any(Raised);
                }
                thread::sleep(Duration::from_millis(20));
            }
            if !frame.alive.load(SeqCst) {
                LATE.fetch_add(1, SeqCst);
            }
            finished.fetch_add(1, SeqCst);
        })
    }));
    let (started, finished) = (started.load(SeqCst), finished.load(SeqCst));
    drop(frame);
    // An index still running would now see the dropped frame.
    thread::sleep(Duration::from_millis(50));
    assert_eq!(
        started, finished,
        "for_each returned with a claimed index unfinished"
    );
    assert_eq!(LATE.load(SeqCst), 0, "f ran after for_each returned");
    let payload = outcome.expect_err("the panic in f did not reach the caller");
    assert!(
        payload.is::<Raised>(),
        "the panic reached the caller with another payload"
    );
}

/// Whether this host gives the pool a helper.
fn has_helpers() -> bool {
    let cores = sim_net::sched::host_cores();
    if cores < 2 {
        eprintln!("one core: the pool has no helper, every region runs inline");
    }
    cores >= 2
}

#[test]
fn a_panic_on_a_helper_reaches_the_caller_after_every_claimed_index() {
    let _serial = serial();
    if has_helpers() {
        panic_while_the_other_side_runs(true);
    }
}

#[test]
fn a_panic_on_the_caller_reaches_it_after_every_claimed_index() {
    let _serial = serial();
    if has_helpers() {
        panic_while_the_other_side_runs(false);
    }
}

#[test]
fn a_nested_for_each_runs_inline_on_the_thread_of_its_outer_index() {
    let _serial = serial();
    let runs: Vec<AtomicUsize> = (0..16 * 16).map(|_| AtomicUsize::new(0)).collect();
    let strays = AtomicUsize::new(0);
    for_each(16, |i| {
        let outer = thread::current().id();
        for_each(16, |j| {
            if thread::current().id() != outer {
                strays.fetch_add(1, SeqCst);
            }
            runs[i * 16 + j].fetch_add(1, SeqCst);
        });
    });
    assert_eq!(
        strays.load(SeqCst),
        0,
        "a nested index ran on another thread"
    );
    assert!(runs.iter().all(|count| count.load(SeqCst) == 1));
}
