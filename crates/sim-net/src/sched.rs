//! The schedulable-process execution layer: direct-handoff dispatch over a
//! bounded pool of run permits.
//!
//! The original runtime gave every simulated process its own OS thread and let
//! them all run (and block) freely; blocking receives waited on a channel with
//! a 20 s real-time timeout that doubled as the deadlock detector. That design
//! tops out at a few dozen processes. PR 2 replaced it with a bounded worker
//! pool fronted by a single mutex + condvar run queue; PR 3 added a lock-free
//! wake-token fast path for wakes to already-runnable targets. What remained —
//! and dominated the 256-rank class-D wall clock — was the *dispatch* path:
//! every true blocking wait still paid one global-run-queue handshake (lock,
//! heap ops, condvar signal on the wake side; lock, heap ops, condvar wait on
//! the park side). This module removes that handshake from the hot path:
//!
//! * **Run permits, not worker threads.** The pool is a counter of `workers`
//!   run permits. Each simulated process owns a *carrier* — the coroutine
//!   stack its application closure lives on ([`crate::carrier::coro`]) — but
//!   a carrier only executes while its process holds a permit. At most
//!   `workers` processes are ever runnable concurrently.
//! * **Direct handoff.** When a running process parks, yields its slice, or
//!   finishes, its carrier *hands its permit directly* to the
//!   lowest-virtual-time ready process: one CAS on the target's phase word and
//!   one user-space stack switch into the target. No global mutex, no global
//!   condvar, and the permit counter does not move — which is also the
//!   linchpin of the quiescence argument below.
//! * **Two ways to block, one protocol.** Every job launched by
//!   `sim_mpi::JobBuilder` attaches its [`CoroRuntime`]
//!   ([`Scheduler::attach_coro`]), and then blocking is a coroutine
//!   suspension. A scheduler with no runtime attached blocks its callers on
//!   per-slot *seats* (a mutex + condvar each) instead; only raw-thread
//!   callers use that — this module's unit tests and the benchmark's
//!   thread ping-pong kernels, which measure the futex path against the
//!   stack switch. Both tails run the same phase / token / permit protocol
//!   described below.
//! * **One ready heap.** Ready processes queue in one `(virtual time, FIFO
//!   sequence, slot)` min-heap behind one mutex. A departing carrier pops its
//!   top, so the permit always goes to the lowest-virtual-time ready process,
//!   ties in queueing order; each such direct dispatch counts as a
//!   *handoff*.
//! * **Cold path.** Only when a wake finds an idle permit (or the last permit
//!   is released with ready work racing in) does dispatch go through the
//!   permit counter; those grants are counted as `condvar_waits` in
//!   [`crate::stats::NetStats`] — the dispatches that would each have been a
//!   full global-queue handshake in the PR 3 design.
//! * **Deadlock detection stays exact.** The quiescence check — no permit in
//!   circulation, nothing ready, no wake token pending, at least one
//!   unfinished process parked — runs under a small verdict mutex, reached
//!   only when the *last* permit is released.
//!
//! # The extended store-load (Dekker) argument
//!
//! PR 3's wake protocol survives unchanged: a waker stores the slot's wake
//! token *before* loading its phase; a parker stores the `Parked` phase
//! *before* re-checking the token (both SeqCst). In every interleaving one
//! side sees the other's write, so no wake is lost. Direct handoff adds two
//! new races, both closed by making the permit count an invariant:
//!
//! 1. **Handoff vs. quiescence.** A permit being handed off is *never
//!    decremented from the counter*: the departing carrier first publishes its
//!    own non-`Running` phase, then pops a target and CASes it
//!    `Ready → Running` — all while its permit still counts. The quiescence
//!    check requires the counter to be zero, so it can never fire while any
//!    handoff is in flight. A carrier only decrements the counter when it
//!    found *nothing* to hand off to, and the carrier that decrements it to
//!    zero re-checks the ready heap (rescue) and then runs the verdict — in
//!    SeqCst order its decrement precedes those reads, and any waker's
//!    `push-then-read-counter` either saw the pre-decrement value (so the
//!    decrementer's later pop sees the push) or acquires an idle permit
//!    itself. Either way ready work cannot be stranded.
//! 2. **Unpark vs. quiescence.** An unparking waker orders its writes as
//!    *token set → phase `Parked → Ready` (CAS) → token clear → queue push*.
//!    A slot mid-unpark is therefore always observed as either
//!    (`Parked`, token set) or (`Ready`, anything) — never as a tokenless
//!    parked slot — so the verdict scan (which aborts on either observation)
//!    cannot misclassify it. The verdict itself marks slots
//!    `Parked → Deadlocked` by CAS; in a scheduler-managed job every wake
//!    originates from a carrier whose own permit keeps the counter non-zero
//!    until after the wake completes, so by the time the verdict reads a zero
//!    counter all such wakes are fully visible and the CASes cannot fail. (An
//!    *external* thread waking a slot in the verdict's window would lose the
//!    CAS race; the verdict then rolls its marks back, and the idle loop
//!    retries the rescue — the waker's own dispatch may have backed off
//!    against the rescuer's speculative permit, so the rescuer re-pops until
//!    the unparked slot's queue push lands.) Because marks can be rolled
//!    back, a `Deadlocked` phase is not final until the verdict returns, and
//!    both sides that can act on one synchronise on the verdict mutex — held
//!    across the whole mark/rollback sequence — before treating it as
//!    committed: a carrier (condvars may wake spuriously) only consumes the
//!    mark, and a waker only discards its wake token, if the mark is still
//!    present after the mutex is acquired. A transient mark can therefore
//!    neither surface as a false deadlock report nor swallow a wake.
//!
//! Busy-poll loops (`MPI_Test` spinning) are still converted into real parks
//! after [`YIELD_STREAK_PARK`] fruitless yields, so spinners join the
//! quiescence accounting instead of masking a deadlock forever.
//!
//! # The wake protocol under direct mailbox ingest
//!
//! Since the single-pass delivery pipeline (DESIGN.md §5.3), the transport
//! below this scheduler is not a channel but the fabric's per-endpoint
//! mailbox, which senders append to *in place*. The store-load argument
//! above is what makes that safe, and it must be read together with the
//! fabric's ingest order:
//!
//! * **Ingest happens-before wake.** A send raises the inbox's advisory
//!   count (SeqCst) and appends under the mailbox mutex *before* calling
//!   [`Scheduler::wake`] — or, for a repeat send inside the sender's wake
//!   window, before reading the phase in [`Scheduler::wake_is_redundant`].
//!   So by the time a wake token is set, the message it announces is
//!   visible to any subsequent inbox sweep.
//! * **Parker re-checks after publishing.** [`Scheduler::park`] consumes the
//!   token after storing the `Parked` phase. A receiver whose pre-park sweep
//!   ran *before* the ingest therefore either sees the token on the re-check
//!   (the waker's token store completed) or is unparked through the ordinary
//!   `Parked` path (the waker's phase load saw `Parked`). In both cases the
//!   caller re-polls and its next sweep finds the message: no delivery can
//!   sleep in a mailbox while its destination parks forever.
//! * **Quiescence still counts mailbox residents as in-flight work.** A
//!   message sitting in a mailbox was put there by a carrier that was running
//!   — its run permit still counts, so the verdict cannot fire; once it
//!   parks, the wake it issued at ingest time (or the `Ready` phase it saw
//!   instead) precedes the permit release, so either the destination is
//!   `Ready`/token-carrying (verdict aborts) or it already swept the message.
//!
//! The token protocol never assumed anything about *where* the message
//! lives, only that wakes follow visibility — which the fabric's ingest
//! order establishes.

use crate::carrier::coro::CoroRuntime;
use crate::fabric::EndpointId;
use crate::stats::NetStats;
use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

/// Hard lower bound on the worker-pool size. A single permit is allowed since
/// PR 3's yield-streak guard ([`YIELD_STREAK_PARK`]): a busy-poller can no
/// longer monopolise the only permit, because a no-progress spin is converted
/// into a real park that hands the permit to the peer that can satisfy it.
/// `workers == 1` is the *deterministic replay* configuration: with one
/// permit, dispatch is a pure function of the virtual-time-ordered ready
/// heap, so two identical runs schedule identically.
pub const MIN_WORKERS: usize = 1;

/// Number of consecutive no-progress cooperative yields after which
/// [`Scheduler::yield_now`] parks the process for real. A spinner that never
/// receives a wake token between yields is making no progress; parking it (a)
/// returns its permit to processes that can progress and (b) lets the
/// quiescence check see through busy-poll loops — a job whose every unfinished
/// process is either parked or fruitlessly spinning is deadlocked, and is now
/// reported as such instead of spinning forever. Any message delivery unparks
/// the process again, so a spinner whose condition *can* still be satisfied
/// only trades a few empty polls for a park/unpark round-trip.
pub const YIELD_STREAK_PARK: u32 = 64;

/// Verdict returned by [`Scheduler::park`] and [`Scheduler::yield_now`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Park {
    /// A wake-up arrived (a message was delivered, or raced ahead of the
    /// park); the caller should re-poll its queues.
    Woken,
    /// The scheduler detected quiescence: every unfinished process is parked
    /// and no wake-up is pending. The simulated application is deadlocked.
    Deadlock,
}

/// How a [`Scheduler::wake`] call was served. The fabric records these in its
/// [`crate::stats::NetStats`] so experiments can quantify wake coalescing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WakeOutcome {
    /// The target was parked: it was moved to the ready heap (and granted an
    /// idle permit if one was free).
    Unparked,
    /// Fast path: the target was already running, ready, or had a wake token
    /// pending — the wake collapsed into the token without touching any queue.
    Coalesced,
    /// The target is unmanaged or finished; the wake had no effect.
    Ignored,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum Phase {
    /// Not registered with the scheduler: an endpoint driven by hand, which
    /// only polls (a blocking receive on its empty inbox panics).
    Unmanaged = 0,
    /// Registered and runnable, waiting in the ready heap for a permit.
    Ready = 1,
    /// Holding a run permit; its carrier is executing.
    Running = 2,
    /// Blocked in [`Scheduler::park`] with its permit given away.
    Parked = 3,
    /// Its carrier finished (application returned, crashed, or panicked).
    Finished = 4,
    /// Marked deadlocked by the quiescence check; its carrier is being told.
    Deadlocked = 5,
}

impl Phase {
    fn from_u8(v: u8) -> Phase {
        match v {
            1 => Phase::Ready,
            2 => Phase::Running,
            3 => Phase::Parked,
            4 => Phase::Finished,
            5 => Phase::Deadlocked,
            _ => Phase::Unmanaged,
        }
    }
}

/// A raw thread's private blocking point: one tiny mutex + condvar per slot,
/// used only when no coroutine runtime is attached. Threads wait here (and
/// only here); dispatchers store the slot's phase first, then take the mutex
/// and notify, so a waiter either sees the new phase on its pre-wait check
/// or is woken by the notify.
#[derive(Default)]
struct Seat {
    m: Mutex<()>,
    cv: Condvar,
}

type ReadyEntry = Reverse<(SimTime, u64, usize)>;

/// The scheduler: one per [`crate::Fabric`], sized to its endpoint count.
pub struct Scheduler {
    /// Authoritative per-slot phase. All transitions are single atomic stores
    /// or CASes (see the module docs for the ordering protocol).
    phase: Vec<AtomicU8>,
    /// Pending wake token per slot. Set lock-free by `wake`; consumed by the
    /// slot's own `park`/`yield_now`.
    token: Vec<AtomicBool>,
    /// Virtual time (nanoseconds) at the slot's last scheduling interaction;
    /// its ready-queue priority when unparked by a waker.
    vtime: Vec<AtomicU64>,
    /// Consecutive no-progress yields; drives the busy-poll quiescence guard.
    /// Written by the slot's own carrier and reset by unparking wakers.
    streak: Vec<AtomicU32>,
    seats: Vec<Seat>,
    /// The ready heap: (virtual time, FIFO tiebreak, slot) entries, validated
    /// against the slot phase (CAS `Ready → Running`) when popped.
    ready: Mutex<BinaryHeap<ReadyEntry>>,
    /// Advisory count of ready entries, maintained as an over-approximation
    /// (incremented before a push inserts, decremented after a pop removes),
    /// so a zero read proves the heap is empty. Lets the hot peek paths skip
    /// the lock when nothing is ready — the common case for a spinner's
    /// requeue check.
    ready_entries: AtomicUsize,
    ready_seq: AtomicU64,
    /// Run permits currently in circulation. Direct handoffs transfer a
    /// permit without touching this counter; only the acquire (cold dispatch)
    /// and release (nothing to hand off to) paths move it.
    running: AtomicUsize,
    /// The pool size: fixed before the first registration
    /// ([`Scheduler::set_workers`]), so `running` never exceeds it.
    workers: AtomicUsize,
    peak_running: AtomicUsize,
    /// Serialises quiescence verdicts and last-permit rescues (the cold path).
    verdict_lock: Mutex<()>,
    stats: Arc<NetStats>,
    /// The job's coroutine runtime, attached by every `JobBuilder` launch.
    /// Set, the dispatch sites are user-space stack switches: hot dispatches
    /// defer a direct switch on the departing carrier's host thread, cold
    /// dispatches queue the target for a worker, and blocking becomes
    /// [`CoroRuntime::suspend_current`]. Unset (raw-thread callers only),
    /// the same sites signal per-slot seats.
    coro: OnceLock<Arc<CoroRuntime>>,
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("capacity", &self.phase.len())
            .field("workers", &self.workers.load(Ordering::SeqCst))
            .field("running", &self.running.load(Ordering::SeqCst))
            .finish()
    }
}

/// The cores this process may run on, read once: 1 when the host does not
/// say. `std::thread::available_parallelism` re-reads the cgroup files on
/// every call (≈ 13 µs), and every job launch asks.
pub fn host_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |c| c.get()))
}

/// `min(host cores, n)` clamped to at least 2 — the default pool size
/// for an `n`-process job. The default keeps two permits even on one-core
/// hosts so a blocking request and the peer that satisfies it can always
/// interleave without waiting out a yield streak; pass an explicit
/// `workers = 1` (see [`MIN_WORKERS`]) for deterministic replay.
pub fn default_workers(n: usize) -> usize {
    host_cores().min(n.max(1)).max(2)
}

impl Scheduler {
    /// A scheduler for `n` simulated processes with the default worker count
    /// and private statistics counters (unit tests; the fabric shares its
    /// [`NetStats`] via [`Scheduler::with_stats`]).
    pub fn new(n: usize) -> Self {
        Scheduler::with_stats(n, Arc::new(NetStats::new()))
    }

    /// A scheduler for `n` simulated processes recording its dispatch
    /// counters (handoffs, cold dispatches) into `stats`.
    pub fn with_stats(n: usize, stats: Arc<NetStats>) -> Self {
        Scheduler {
            phase: (0..n)
                .map(|_| AtomicU8::new(Phase::Unmanaged as u8))
                .collect(),
            token: (0..n).map(|_| AtomicBool::new(false)).collect(),
            vtime: (0..n).map(|_| AtomicU64::new(0)).collect(),
            streak: (0..n).map(|_| AtomicU32::new(0)).collect(),
            seats: (0..n).map(|_| Seat::default()).collect(),
            ready: Mutex::new(BinaryHeap::new()),
            ready_entries: AtomicUsize::new(0),
            ready_seq: AtomicU64::new(0),
            running: AtomicUsize::new(0),
            workers: AtomicUsize::new(default_workers(n)),
            peak_running: AtomicUsize::new(0),
            verdict_lock: Mutex::new(()),
            stats,
            coro: OnceLock::new(),
        }
    }

    /// Route dispatches to coroutine carriers: they resume coroutines in
    /// `rt` instead of signalling seats. Must be called before
    /// any slot blocks, and every registered slot must have been installed
    /// with [`CoroRuntime::spawn`] — a dispatcher that targets a slot with
    /// no coroutine would spin forever waiting for its context. Can only be
    /// attached once per scheduler (one job, one runtime).
    pub fn attach_coro(&self, rt: Arc<CoroRuntime>) {
        assert_eq!(
            rt.capacity(),
            self.capacity(),
            "coroutine runtime sized differently from the scheduler"
        );
        assert!(
            self.coro.set(rt).is_ok(),
            "coroutine runtime already attached"
        );
    }

    fn load_phase(&self, idx: usize) -> Phase {
        Phase::from_u8(self.phase[idx].load(Ordering::SeqCst))
    }

    fn cas_phase(&self, idx: usize, from: Phase, to: Phase) -> bool {
        self.phase[idx]
            .compare_exchange(from as u8, to as u8, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    fn lock_ready(&self) -> MutexGuard<'_, BinaryHeap<ReadyEntry>> {
        self.ready.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Number of process slots.
    pub fn capacity(&self) -> usize {
        self.phase.len()
    }

    /// The current worker-pool size.
    pub fn workers(&self) -> usize {
        self.workers.load(Ordering::SeqCst)
    }

    /// Size the worker pool (clamped to [`MIN_WORKERS`]). The pool is sized
    /// before the job starts: panics once any slot has been registered, so
    /// permits in circulation never exceed the pool.
    pub fn set_workers(&self, workers: usize) {
        assert!(
            (0..self.capacity()).all(|i| self.load_phase(i) == Phase::Unmanaged),
            "the worker pool is sized before any slot is registered"
        );
        self.workers
            .store(workers.max(MIN_WORKERS), Ordering::SeqCst);
    }

    /// Highest number of permits simultaneously in circulation so far — the
    /// proof that execution concurrency stayed within the pool bound.
    pub fn peak_running(&self) -> usize {
        self.peak_running.load(Ordering::SeqCst)
    }

    /// Number of run permits currently in circulation (diagnostics; racy by
    /// nature — a handoff in flight counts as one permit).
    pub fn running(&self) -> usize {
        self.running.load(Ordering::SeqCst)
    }

    /// Is this endpoint under scheduler management?
    pub fn is_managed(&self, e: EndpointId) -> bool {
        self.load_phase(e.0) != Phase::Unmanaged
    }

    /// Number of currently parked processes (diagnostics).
    pub fn parked_count(&self) -> usize {
        (0..self.phase.len())
            .filter(|&i| self.load_phase(i) == Phase::Parked)
            .count()
    }

    /// Put endpoint `e` under scheduler management, queueing it to run. Must
    /// be called once, before the process's carrier calls
    /// [`Scheduler::start`]. A slot is managed for one process's life: a
    /// finished or deadlocked slot is never registered again, and an
    /// unmanaged one still holds its initial clock, streak and token (only a
    /// running slot writes the first two; a wake leaves it no token).
    pub fn register(&self, e: EndpointId) {
        let phase = self.load_phase(e.0);
        assert!(
            phase == Phase::Unmanaged,
            "endpoint {} registered while {:?}",
            e.0,
            phase
        );
        self.phase[e.0].store(Phase::Ready as u8, Ordering::SeqCst);
        self.push_ready(e.0, SimTime::ZERO);
        self.try_dispatch_idle();
    }

    /// Block the calling carrier until its process is granted a run permit.
    /// Called once, at carrier start-up, after [`Scheduler::register`]. On a
    /// coroutine the grant *is* the first resume, so this returns at once; a
    /// raw thread waits on its seat.
    pub fn start(&self, e: EndpointId) {
        let seat = &self.seats[e.0];
        let mut g = seat.m.lock().unwrap_or_else(|err| err.into_inner());
        loop {
            match self.load_phase(e.0) {
                Phase::Running => return,
                Phase::Ready => {
                    g = seat.cv.wait(g).unwrap_or_else(|err| err.into_inner());
                }
                other => panic!("start() on endpoint {} in phase {:?}", e.0, other),
            }
        }
    }

    fn push_ready(&self, idx: usize, vt: SimTime) {
        let seq = self.ready_seq.fetch_add(1, Ordering::SeqCst);
        // Count up *before* inserting so the advisory count never
        // under-reports (a zero read must prove the heap is empty).
        self.ready_entries.fetch_add(1, Ordering::SeqCst);
        self.lock_ready().push(Reverse((vt, seq, idx)));
    }

    /// Virtual time of the best ready entry, or `None` when nothing is
    /// ready. Advisory: the answer may be stale by the time the caller acts
    /// on it. The empty case — every yield of a spinner with an idle heap —
    /// is answered from the advisory count without taking the lock.
    fn best_ready_vtime(&self) -> Option<SimTime> {
        if self.ready_entries.load(Ordering::SeqCst) == 0 {
            return None;
        }
        self.lock_ready().peek().map(|&Reverse((vt, _, _))| vt)
    }

    /// Pop the lowest-virtual-time ready slot and transition it to `Running`
    /// (the caller is delivering a permit with this call). Stale entries
    /// (slots that were finished, or re-claimed their own entry) are
    /// discarded.
    fn pop_best(&self) -> Option<usize> {
        loop {
            if self.ready_entries.load(Ordering::SeqCst) == 0 {
                return None;
            }
            let Reverse((_, _, idx)) = self.lock_ready().pop()?;
            self.ready_entries.fetch_sub(1, Ordering::SeqCst);
            if self.cas_phase(idx, Phase::Ready, Phase::Running) {
                return Some(idx);
            }
        }
    }

    /// Store-then-notify on a slot's seat. The phase must already be
    /// published; taking the seat mutex between the store and the notify is
    /// what makes the wake race-free against the waiter's check-then-wait.
    fn signal_seat(&self, idx: usize) {
        let seat = &self.seats[idx];
        drop(seat.m.lock().unwrap_or_else(|err| err.into_inner()));
        // At most one carrier ever waits on a seat.
        seat.cv.notify_one();
    }

    /// Hot dispatch: deliver a permit the caller is handing off on its own
    /// blocking boundary. With a runtime attached this defers a direct stack
    /// switch — the departing carrier is about to suspend, and its
    /// suspension switches straight into `idx` without touching the kernel
    /// or even the worker loop. Without one it signals the target's seat.
    fn dispatch_direct(&self, idx: usize) {
        match self.coro.get() {
            Some(rt) => rt.defer_switch(idx),
            None => self.signal_seat(idx),
        }
    }

    /// Cold dispatch: deliver a permit from a context that is *not* about to
    /// suspend (idle-permit grants, verdict wakes, registration). With a
    /// runtime attached this queues the target for a worker thread to
    /// switch into; without one it signals the seat.
    fn dispatch_cold(&self, idx: usize) {
        match self.coro.get() {
            Some(rt) => rt.enqueue_resume(idx),
            None => self.signal_seat(idx),
        }
    }

    /// A carrier leaves the `Running` phase while still holding its permit
    /// (it has already published its new phase): hand the permit directly to
    /// the best ready slot, or release it — and if it was the last permit,
    /// run the rescue/quiescence cold path. A release that leaves other
    /// permits in circulation offers the freed one to the ready heap again:
    /// a waker may have pushed a slot between the `pop_best` miss and the
    /// release, and its cold dispatch found no free permit then.
    fn depart(&self) {
        if let Some(target) = self.pop_best() {
            self.stats.record_handoff();
            self.dispatch_direct(target);
            return;
        }
        let prev = self.running.fetch_sub(1, Ordering::SeqCst);
        debug_assert!(prev > 0, "permit released while none in circulation");
        if prev == 1 {
            self.on_idle();
        } else {
            self.try_dispatch_idle();
        }
    }

    /// Grant idle permits to ready slots while the pool has room (the cold
    /// dispatch path: register, wake-of-parked, a release).
    fn try_dispatch_idle(&self) {
        loop {
            let r = self.running.load(Ordering::SeqCst);
            if r >= self.workers.load(Ordering::SeqCst) {
                return;
            }
            if self
                .running
                .compare_exchange(r, r + 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_err()
            {
                continue;
            }
            match self.pop_best() {
                Some(target) => {
                    // Recorded only once the grant actually backs a running
                    // process — a speculative grant that found nothing is
                    // rolled back below and must not inflate the peak.
                    self.peak_running.fetch_max(r + 1, Ordering::SeqCst);
                    self.stats.record_cold_dispatch();
                    self.dispatch_cold(target);
                }
                None => {
                    let prev = self.running.fetch_sub(1, Ordering::SeqCst);
                    if prev == 1 {
                        // We may have raced the genuine last release; re-run
                        // the rescue/verdict so nothing is stranded.
                        self.on_idle();
                    }
                    return;
                }
            }
        }
    }

    /// Cold path, entered when the last permit was released: rescue any ready
    /// work that raced in, else run the quiescence verdict. Serialised by the
    /// verdict mutex.
    ///
    /// The rescue and the verdict loop together: a waker that unparked a slot
    /// during our speculative permit window saw `running != 0` in its own
    /// `try_dispatch_idle` and backed off, counting on the permit holder — us
    /// — to dispatch its push. If the verdict scan then observes that slot
    /// `Ready`, returning would strand it with zero permits in circulation,
    /// so the verdict reports it and we retry the rescue until the push lands
    /// (it is at most a few instructions behind the phase store) or someone
    /// else acquires a permit.
    fn on_idle(&self) {
        let _g = self
            .verdict_lock
            .lock()
            .unwrap_or_else(|err| err.into_inner());
        loop {
            if self.running.load(Ordering::SeqCst) != 0 {
                // Someone acquired a permit meanwhile; the system is live and
                // that permit's holder inherits responsibility.
                return;
            }
            if self
                .running
                .compare_exchange(0, 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_err()
            {
                continue;
            }
            if let Some(target) = self.pop_best() {
                self.peak_running.fetch_max(1, Ordering::SeqCst);
                self.stats.record_cold_dispatch();
                self.dispatch_cold(target);
                return;
            }
            self.running.fetch_sub(1, Ordering::SeqCst);
            if self.quiescence_verdict() {
                return;
            }
            // A ready slot whose queue push is still in flight: give its
            // waker a beat and rescue again.
            std::thread::yield_now();
        }
    }

    /// The quiescence check: with no permit in circulation, nothing ready and
    /// no wake token pending, parked processes can never be woken again —
    /// declare them deadlocked and wake their carriers with the verdict.
    /// Caller holds the verdict mutex and has just observed `running == 0`.
    ///
    /// Returns `true` when the verdict is settled: either deadlock was
    /// declared, or the job is demonstrably live with a responsible permit
    /// holder (a `Running` phase, a non-zero permit counter, a parked slot
    /// with a wake token whose waker has not yet begun its unpark — all of
    /// which guarantee a future dispatcher). Returns `false` when it observed
    /// a `Ready` slot (directly, or via a mark CAS losing to a concurrent
    /// unpark): that slot's waker may have backed off against the caller's
    /// own speculative rescue permit, so the caller must retry the rescue
    /// rather than return and strand the slot.
    fn quiescence_verdict(&self) -> bool {
        let mut parked = Vec::new();
        for i in 0..self.phase.len() {
            match self.load_phase(i) {
                // Runnable work exists (possibly a push still in flight —
                // phase is stored before the queue push). Its waker's
                // dispatch may have deferred to our rescue permit: retry.
                Phase::Ready => return false,
                // A running carrier holds a permit and inherits
                // responsibility for any queued work.
                Phase::Running => return true,
                Phase::Parked => {
                    if self.token[i].load(Ordering::SeqCst) {
                        // A wake is pending and its waker has not yet started
                        // the unpark (the token clears before the push): its
                        // own `try_dispatch_idle` runs after our rescue
                        // permit is gone and cannot have deferred to it.
                        return true;
                    }
                    parked.push(i);
                }
                _ => {}
            }
        }
        if parked.is_empty() || self.running.load(Ordering::SeqCst) != 0 {
            return true;
        }
        // Commit: mark every parked slot. A CAS can only fail if an external
        // (non-carrier) thread unparked the slot inside this window — see the
        // module docs for why carrier-originated wakes are already visible —
        // in which case the job is live: roll the marks back and retry the
        // rescue (the unparked slot is now `Ready`, see above). Carriers and
        // wakers cannot consume a mark mid-sequence — they synchronise on the
        // verdict mutex we hold before acting on `Deadlocked` — so the
        // rollback CASes below always find the marks they set.
        for (k, &i) in parked.iter().enumerate() {
            if !self.cas_phase(i, Phase::Parked, Phase::Deadlocked) {
                for &j in &parked[..k] {
                    let _ = self.cas_phase(j, Phase::Deadlocked, Phase::Parked);
                }
                return false;
            }
        }
        for &i in &parked {
            self.dispatch_cold(i);
        }
        true
    }

    /// Raw-thread blocking tail of `park`/`yield_now`: wait on the slot's
    /// seat until a dispatcher delivers a permit or the verdict says
    /// deadlock.
    fn block_on_seat(&self, e: usize) -> Park {
        let seat = &self.seats[e];
        let mut g = seat.m.lock().unwrap_or_else(|err| err.into_inner());
        loop {
            match self.load_phase(e) {
                Phase::Running => return Park::Woken,
                Phase::Deadlocked => {
                    // `Deadlocked` may be transient: the verdict marks slots
                    // `Parked → Deadlocked` one at a time and rolls the marks
                    // back if a later CAS loses to an external wake. A
                    // spuriously-woken carrier must not treat the mark as
                    // final while the verdict is still deciding, so it
                    // synchronises on the verdict mutex (held across the
                    // whole mark/rollback sequence) before consuming it. The
                    // seat lock is dropped first — the verdict signals seats
                    // while holding the verdict mutex, and taking them in the
                    // opposite order here would deadlock. Once the verdict
                    // mutex is acquired, a still-`Deadlocked` phase means the
                    // verdict committed (a rollback restores `Parked` before
                    // releasing the mutex), so the CAS below cannot strand a
                    // live job.
                    drop(g);
                    {
                        let _v = self
                            .verdict_lock
                            .lock()
                            .unwrap_or_else(|err| err.into_inner());
                        if self.cas_phase(e, Phase::Deadlocked, Phase::Running) {
                            // The carrier resumes to unwind with a deadlock
                            // report; it is genuinely executing again, so
                            // restore the accounting (teardown may briefly
                            // exceed the pool bound).
                            self.running.fetch_add(1, Ordering::SeqCst);
                            return Park::Deadlock;
                        }
                    }
                    g = seat.m.lock().unwrap_or_else(|err| err.into_inner());
                }
                _ => {
                    g = seat.cv.wait(g).unwrap_or_else(|err| err.into_inner());
                }
            }
        }
    }

    /// Coroutine blocking tail: suspend the calling coroutine (which
    /// also performs any deferred direct handoff) until a dispatcher
    /// resumes it. Mirrors [`Scheduler::block_on_seat`]'s phase protocol:
    /// a resume only follows a `Ready → Running` CAS by a dispatcher or a
    /// committed deadlock verdict, so the post-resume phase decides the
    /// outcome. There are no spurious wake-ups here — every resume
    /// was paid for by exactly one dispatch — but the verdict-mutex dance
    /// for a (possibly transient) `Deadlocked` mark is identical.
    fn block_on_coro(&self, e: usize) -> Park {
        let rt = self.coro.get().expect("block_on_coro without a runtime");
        debug_assert_eq!(
            rt.hosted_slot(),
            Some(e),
            "coroutine-mode block from a foreign context"
        );
        loop {
            rt.suspend_current();
            match self.load_phase(e) {
                Phase::Running => return Park::Woken,
                Phase::Deadlocked => {
                    // Same transient-mark protocol as block_on_seat: consume
                    // the mark only if it survives the verdict mutex.
                    let _v = self
                        .verdict_lock
                        .lock()
                        .unwrap_or_else(|err| err.into_inner());
                    if self.cas_phase(e, Phase::Deadlocked, Phase::Running) {
                        self.running.fetch_add(1, Ordering::SeqCst);
                        return Park::Deadlock;
                    }
                    // Rolled back — the job is live; an unpark + dispatch
                    // will resume us again.
                }
                _ => {
                    // Defensive only: re-suspend and wait for a real
                    // dispatch (unreachable under the dispatch invariants).
                }
            }
        }
    }

    /// Blocking tail shared by `park`/`yield_now`: a coroutine suspends, a
    /// raw thread (no runtime attached) waits on its seat.
    fn block_current(&self, e: usize) -> Park {
        if self.coro.get().is_some() {
            self.block_on_coro(e)
        } else {
            self.block_on_seat(e)
        }
    }

    /// Park the calling process: publish the `Parked` phase, hand the permit
    /// to the best ready process (or release it), and block until a wake-up
    /// arrives or the quiescence check declares the job deadlocked. `now` is
    /// the process's current virtual time, used as its run-queue priority when
    /// it is woken.
    ///
    /// If a wake-up raced ahead of this call, the pending token is consumed
    /// and the process keeps running without ever blocking — entirely
    /// lock-free.
    pub fn park(&self, e: EndpointId, now: SimTime) -> Park {
        debug_assert_eq!(
            self.load_phase(e.0),
            Phase::Running,
            "park while not running"
        );
        self.vtime[e.0].store(now.as_nanos(), Ordering::Relaxed);
        self.streak[e.0].store(0, Ordering::Relaxed);
        if self.token[e.0].swap(false, Ordering::SeqCst) {
            return Park::Woken;
        }
        self.phase[e.0].store(Phase::Parked as u8, Ordering::SeqCst);
        // Dekker re-check: a waker that read our phase *before* the store
        // above saw Running and only left a token. Under SeqCst, if that
        // waker's token store is not visible to the swap below, then our
        // Parked store is visible to its phase load — it takes the unpark
        // path and re-queues us properly. Either way no wake is lost.
        if self.token[e.0].swap(false, Ordering::SeqCst)
            && self.cas_phase(e.0, Phase::Parked, Phase::Running)
        {
            return Park::Woken;
        }
        // Either no token (a real park), or a waker unparked us in the
        // window: we are back in the ready heap (or a dispatcher has already
        // granted us a fresh permit). Our current permit is surplus — pass it
        // on (possibly straight back to ourselves via the heap) and wait to
        // be re-dispatched; a consumed token guarantees the caller re-polls
        // on return.
        self.depart();
        self.block_current(e.0)
    }

    /// Wake endpoint `e` because a message was just delivered to its queue.
    ///
    /// Fast path (entirely lock-free): set the slot's atomic wake token; if
    /// the phase says the process is running or ready — or a token was already
    /// pending — the token alone is sufficient, because the process must pass
    /// through `park`/`yield_now` (which consume it) before it can ever block.
    /// Only a genuinely parked target is moved to the ready heap, and only
    /// when an idle permit exists does that touch the permit counter.
    /// Unmanaged and finished slots ignore wakes.
    pub fn wake(&self, e: EndpointId) -> WakeOutcome {
        if self.token[e.0].swap(true, Ordering::SeqCst) {
            // A wake is already pending; whoever owns it will re-poll.
            return WakeOutcome::Coalesced;
        }
        loop {
            match self.load_phase(e.0) {
                Phase::Running | Phase::Ready => return WakeOutcome::Coalesced,
                Phase::Parked => {
                    // Order matters for the verdict scan: phase goes Ready
                    // *before* the token clears, so the slot is never a
                    // tokenless parked slot mid-unpark (module docs, race 2).
                    if self.cas_phase(e.0, Phase::Parked, Phase::Ready) {
                        self.token[e.0].store(false, Ordering::SeqCst);
                        self.streak[e.0].store(0, Ordering::Relaxed);
                        let vt = SimTime::from_nanos(self.vtime[e.0].load(Ordering::Relaxed));
                        self.push_ready(e.0, vt);
                        self.try_dispatch_idle();
                        return WakeOutcome::Unparked;
                    }
                }
                Phase::Unmanaged | Phase::Finished => {
                    self.token[e.0].store(false, Ordering::SeqCst);
                    return WakeOutcome::Ignored;
                }
                Phase::Deadlocked => {
                    // The mark may be transient: a mid-flight verdict marks
                    // slots one at a time and rolls back if a later CAS loses
                    // to a wake like this one. Dropping the token here on a
                    // transient mark would destroy a wake the rollback cannot
                    // restore, so synchronise on the verdict mutex first
                    // (held across the whole mark/rollback sequence). If the
                    // mark is still present afterwards the verdict committed
                    // — the slot is unwinding with a deadlock report and the
                    // wake is genuinely moot. Otherwise re-read the phase and
                    // deliver the wake properly. (A *new* verdict cannot
                    // re-mark the slot in between: our token is still set,
                    // and the verdict scan aborts on a parked slot with a
                    // pending token.)
                    drop(
                        self.verdict_lock
                            .lock()
                            .unwrap_or_else(|err| err.into_inner()),
                    );
                    if self.load_phase(e.0) == Phase::Deadlocked {
                        self.token[e.0].store(false, Ordering::SeqCst);
                        return WakeOutcome::Ignored;
                    }
                }
            }
        }
    }

    /// Would a wake for a message that is *already ingested* into `e`'s inbox
    /// be redundant? True when `e` is `Ready` — it is dispatched only after
    /// this call, and every path from a dispatch to a park or a parking yield
    /// sweeps the inbox first, so it finds the message on its own — and when
    /// it is unmanaged or finished, where wakes are ignored anyway. False
    /// while `e` runs (it may be between its last sweep and `park`, and needs
    /// the token) or is parked.
    ///
    /// [`crate::Endpoint::send`] asks this before skipping a repeat wake
    /// inside one wake window. With a single run permit the answer is always
    /// true there: the destination cannot have run since the sender's first
    /// wake made it `Ready`.
    pub fn wake_is_redundant(&self, e: EndpointId) -> bool {
        matches!(
            self.load_phase(e.0),
            Phase::Ready | Phase::Finished | Phase::Unmanaged
        )
    }

    /// Cooperatively yield: requeue at priority `now` and hand the permit to
    /// the lowest-virtual-time ready process — which may be the caller
    /// itself, in which case it just keeps running. The PML calls this from
    /// busy-poll loops (`MPI_Test` spinning) so a poller can never monopolise
    /// the pool. A pending wake token makes this a lock-free no-op (there is
    /// fresh work; keep running).
    ///
    /// After [`YIELD_STREAK_PARK`] consecutive yields without a wake token the
    /// process is parked instead of requeued: a spinner making no progress
    /// must not defeat the quiescence-based deadlock detection, and returns
    /// its permit until a delivery wakes it. Callers must therefore handle a
    /// [`Park::Deadlock`] verdict exactly as they would from
    /// [`Scheduler::park`].
    pub fn yield_now(&self, e: EndpointId, now: SimTime) -> Park {
        if self.load_phase(e.0) != Phase::Running {
            return Park::Woken;
        }
        if self.token[e.0].swap(false, Ordering::SeqCst) {
            self.streak[e.0].store(0, Ordering::Relaxed);
            return Park::Woken;
        }
        self.vtime[e.0].store(now.as_nanos(), Ordering::Relaxed);
        let streak = self.streak[e.0].load(Ordering::Relaxed) + 1;
        self.streak[e.0].store(streak, Ordering::Relaxed);
        if streak >= YIELD_STREAK_PARK {
            // No-progress streak: treat the spinner as parked (see above),
            // with the same Dekker re-check as in `park`.
            self.phase[e.0].store(Phase::Parked as u8, Ordering::SeqCst);
            if self.token[e.0].swap(false, Ordering::SeqCst)
                && self.cas_phase(e.0, Phase::Parked, Phase::Running)
            {
                self.streak[e.0].store(0, Ordering::Relaxed);
                return Park::Woken;
            }
            self.depart();
            return self.block_current(e.0);
        }
        // Requeue-skip fast path: if no ready slot would outrank us — our
        // hypothetical entry gets the next (largest) sequence number, so an
        // existing entry outranks us iff its virtual time is <= `now` — then
        // requeue + repop would hand the permit straight back. Skip both.
        // (Advisory peek: a push racing in after it simply waits for our
        // next boundary, exactly as if it had arrived a moment later. The
        // streak deliberately survives, so a spinner still converges on a
        // park.)
        match self.best_ready_vtime() {
            Some(vt) if vt <= now => self.requeue_and_hand_off(e.0, now),
            _ => Park::Woken,
        }
    }

    /// Shared tail of [`Scheduler::yield_now`] and [`Scheduler::advance`],
    /// once a ready entry has been seen to outrank the running caller `e`:
    /// requeue it at `now` and hand its permit to the best ready slot.
    fn requeue_and_hand_off(&self, e: usize, now: SimTime) -> Park {
        self.phase[e].store(Phase::Ready as u8, Ordering::SeqCst);
        self.push_ready(e, now);
        match self.pop_best() {
            // Raced: the outranking entry was claimed by another dispatcher
            // first and we popped our own entry back — keep the permit.
            Some(target) if target == e => Park::Woken,
            Some(target) => {
                self.stats.record_handoff();
                self.dispatch_direct(target);
                self.block_current(e)
            }
            None => {
                // Our own entry is gone: a concurrent dispatcher claimed it
                // and is delivering us a fresh permit. Ours is surplus.
                self.depart();
                self.block_current(e)
            }
        }
    }

    /// Virtual-time advance boundary: the process's clock just moved forward
    /// to `now` (it modelled a computation). If a *ready* process is strictly
    /// earlier in virtual time, requeue the caller at `now` and hand the
    /// permit over, so dispatch order keeps tracking virtual time across
    /// compute phases; otherwise keep running.
    ///
    /// Without this boundary a wake chain can monopolise the permits: a
    /// departing carrier hands its permit directly to the process it just
    /// woke, and a ready-but-never-woken process — for example a worker whose
    /// request the master has not matched yet — can sit at virtual time zero
    /// while the chain runs arbitrarily far ahead. Nothing preempts a
    /// coroutine handoff chain, so that starvation would be deterministic.
    ///
    /// Unlike [`Scheduler::yield_now`] this never parks the caller: advancing
    /// the clock *is* progress, so the no-progress streak is reset, not
    /// counted. The caller stays dispatchable (its ready-queue entry keeps
    /// the quiescence check off), so a [`Park::Deadlock`] verdict cannot
    /// legitimately be produced here; callers may ignore the return value.
    ///
    /// Cost when nothing outranks the caller: one atomic load of the ready
    /// count (processes blocked in receives are parked, not ready, so
    /// blocking-heavy applications take that fast path on almost every call).
    pub fn advance(&self, e: EndpointId, now: SimTime) -> Park {
        if self.load_phase(e.0) != Phase::Running {
            return Park::Woken;
        }
        self.vtime[e.0].store(now.as_nanos(), Ordering::Relaxed);
        self.streak[e.0].store(0, Ordering::Relaxed);
        if self.token[e.0].load(Ordering::SeqCst) {
            // A delivery already arrived; keep the permit and let the next
            // blocking boundary consume the token and re-poll the inbox.
            return Park::Woken;
        }
        match self.best_ready_vtime() {
            Some(vt) if vt < now => self.requeue_and_hand_off(e.0, now),
            _ => Park::Woken,
        }
    }

    /// Timer boundary: like [`Scheduler::advance`], but for a process that
    /// just waited out a virtual deadline delivered through its own inbox
    /// (a self-addressed timer message, e.g. a protocol retransmission
    /// timeout). Such a delivery necessarily left a wake token behind, and
    /// by the time the process judges the timeout it has already drained
    /// the message — the token is *stale*, yet it would make `advance`
    /// keep the permit on every call. A timer-driven process would then
    /// never yield: each re-arm re-sets its own token, and a ready peer
    /// earlier in virtual time (often the very peer whose traffic would
    /// cancel the timer) starves. Consuming the token before the advance
    /// restores honest handoff; a token set *after* the consume (a racing
    /// real delivery) is still honoured by the inner `advance`, and a
    /// consumed-but-fresh token is safe because the caller returns to a
    /// progress loop that re-polls the inbox before any park.
    pub fn wait_boundary(&self, e: EndpointId, now: SimTime) -> Park {
        if self.load_phase(e.0) != Phase::Running {
            return Park::Woken;
        }
        self.token[e.0].swap(false, Ordering::SeqCst);
        self.advance(e, now)
    }

    /// Mark endpoint `e` finished (application returned, crashed or
    /// panicked), passing its permit on. Idempotent.
    pub fn finish(&self, e: EndpointId) {
        loop {
            let phase = self.load_phase(e.0);
            match phase {
                Phase::Unmanaged | Phase::Finished => return,
                Phase::Running => {
                    if self.cas_phase(e.0, Phase::Running, Phase::Finished) {
                        self.token[e.0].store(false, Ordering::SeqCst);
                        self.depart();
                        break;
                    }
                }
                Phase::Ready | Phase::Parked | Phase::Deadlocked => {
                    // No permit held (ready entries turn stale and are
                    // discarded on pop), but finishing may complete a
                    // quiescence picture: re-check if the pool sits idle.
                    if self.cas_phase(e.0, phase, Phase::Finished) {
                        self.token[e.0].store(false, Ordering::SeqCst);
                        if self.running.load(Ordering::SeqCst) == 0 {
                            self.on_idle();
                        }
                        break;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn ep(i: usize) -> EndpointId {
        EndpointId(i)
    }

    #[test]
    fn register_then_start_grants_permit() {
        let s = Scheduler::new(4);
        s.set_workers(2);
        s.register(ep(0));
        assert!(s.is_managed(ep(0)));
        assert!(!s.is_managed(ep(1)));
        s.start(ep(0)); // must not block: a permit is free
        s.finish(ep(0));
    }

    #[test]
    #[should_panic(expected = "endpoint 0 registered while Finished")]
    fn re_registering_a_finished_slot_panics() {
        let s = Scheduler::new(2);
        s.register(ep(0));
        s.start(ep(0));
        s.finish(ep(0));
        s.register(ep(0));
    }

    #[test]
    fn wake_before_park_leaves_token() {
        let s = Scheduler::new(2);
        s.register(ep(0));
        s.start(ep(0));
        // Wake of a running process: coalesced, no unpark needed.
        assert_eq!(s.wake(ep(0)), WakeOutcome::Coalesced);
        assert_eq!(s.park(ep(0), SimTime::ZERO), Park::Woken);
        s.finish(ep(0));
    }

    #[test]
    fn repeated_wakes_of_busy_target_coalesce_into_one_token() {
        let s = Scheduler::new(2);
        s.register(ep(0));
        s.start(ep(0));
        for _ in 0..10 {
            assert_eq!(s.wake(ep(0)), WakeOutcome::Coalesced);
        }
        // One token pending: the first park consumes it, the second blocks
        // (here: detects quiescence, since nothing else runs).
        assert_eq!(s.park(ep(0), SimTime::ZERO), Park::Woken);
        assert_eq!(s.park(ep(0), SimTime::ZERO), Park::Deadlock);
        s.finish(ep(0));
    }

    #[test]
    fn wake_outcomes_distinguish_parked_running_finished() {
        let s = Arc::new(Scheduler::new(2));
        s.register(ep(0));
        s.register(ep(1));
        let s2 = Arc::clone(&s);
        let h = std::thread::spawn(move || {
            s2.start(ep(0));
            let verdict = s2.park(ep(0), SimTime::ZERO);
            s2.finish(ep(0));
            verdict
        });
        let s3 = Arc::clone(&s);
        let h2 = std::thread::spawn(move || {
            s3.start(ep(1));
            // Wait until the peer is genuinely parked.
            while s3.parked_count() == 0 {
                std::thread::yield_now();
            }
            assert_eq!(s3.wake(ep(0)), WakeOutcome::Unparked);
            s3.finish(ep(1));
        });
        assert_eq!(h.join().unwrap(), Park::Woken);
        h2.join().unwrap();
        assert_eq!(s.wake(ep(0)), WakeOutcome::Ignored, "finished slot");
        assert_eq!(s.wake(ep(1)), WakeOutcome::Ignored);
    }

    #[test]
    fn park_wake_roundtrip_across_threads() {
        let s = Arc::new(Scheduler::new(2));
        s.register(ep(0));
        s.register(ep(1));
        let s2 = Arc::clone(&s);
        let h = std::thread::spawn(move || {
            s2.start(ep(0));
            let verdict = s2.park(ep(0), SimTime::ZERO);
            s2.finish(ep(0));
            verdict
        });
        let s3 = Arc::clone(&s);
        let h2 = std::thread::spawn(move || {
            s3.start(ep(1));
            std::thread::sleep(std::time::Duration::from_millis(20));
            s3.wake(ep(0));
            s3.finish(ep(1));
        });
        assert_eq!(h.join().unwrap(), Park::Woken);
        h2.join().unwrap();
    }

    #[test]
    fn hammered_park_wake_race_loses_no_wakeups() {
        // Stress the lock-free wake fast path against racing parks: the
        // parker must observe exactly as many wake-ups as were issued (each
        // park returns only after a wake), with no lost-wake hang.
        let s = Arc::new(Scheduler::new(2));
        s.register(ep(0));
        s.register(ep(1));
        const ROUNDS: usize = 2000;
        let s2 = Arc::clone(&s);
        let parker = std::thread::spawn(move || {
            s2.start(ep(0));
            for _ in 0..ROUNDS {
                match s2.park(ep(0), SimTime::ZERO) {
                    Park::Woken => {}
                    Park::Deadlock => panic!("spurious deadlock under wake hammering"),
                }
            }
            s2.finish(ep(0));
        });
        let s3 = Arc::clone(&s);
        let waker = std::thread::spawn(move || {
            s3.start(ep(1));
            for _ in 0..ROUNDS {
                // Issue wakes until one lands as a fresh token/unpark; a
                // Coalesced outcome on an already-pending token must not be
                // double-counted by the parker (it consumes one token per
                // park), so just keep the pressure up.
                s3.wake(ep(0));
                std::hint::spin_loop();
            }
            // Drain: keep waking until the parker finishes all rounds.
            while s3.wake(ep(0)) != WakeOutcome::Ignored {
                std::thread::yield_now();
            }
            s3.finish(ep(1));
        });
        parker.join().unwrap();
        waker.join().unwrap();
    }

    #[test]
    fn quiescence_declares_parked_processes_deadlocked() {
        let s = Arc::new(Scheduler::new(2));
        s.register(ep(0));
        s.register(ep(1));
        let mut handles = Vec::new();
        for i in 0..2 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                s.start(ep(i));
                let verdict = s.park(ep(i), SimTime::ZERO);
                s.finish(ep(i));
                verdict
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), Park::Deadlock);
        }
    }

    #[test]
    fn no_quiescence_while_one_process_runs() {
        let s = Arc::new(Scheduler::new(2));
        s.register(ep(0));
        s.register(ep(1));
        let s2 = Arc::clone(&s);
        let parker = std::thread::spawn(move || {
            s2.start(ep(0));
            let verdict = s2.park(ep(0), SimTime::ZERO);
            s2.finish(ep(0));
            verdict
        });
        let s3 = Arc::clone(&s);
        let runner = std::thread::spawn(move || {
            s3.start(ep(1));
            // Keep running for a while, then deliver the wake-up: the parked
            // peer must not be declared deadlocked in the meantime.
            std::thread::sleep(std::time::Duration::from_millis(30));
            s3.wake(ep(0));
            s3.finish(ep(1));
        });
        assert_eq!(parker.join().unwrap(), Park::Woken);
        runner.join().unwrap();
    }

    #[test]
    fn yield_streak_parks_spinner_and_quiescence_sees_through_it() {
        // Endpoint 0 spins (yield_now in a loop, no wakes, no progress);
        // endpoint 1 parks for good. Without the streak guard the spinner
        // cycles Ready/Running forever and quiescence never fires; with it,
        // the spinner is parked after YIELD_STREAK_PARK yields and both are
        // declared deadlocked.
        let s = Arc::new(Scheduler::new(2));
        s.register(ep(0));
        s.register(ep(1));
        let s2 = Arc::clone(&s);
        let spinner = std::thread::spawn(move || {
            s2.start(ep(0));
            let mut yields = 0u32;
            loop {
                yields += 1;
                match s2.yield_now(ep(0), SimTime::ZERO) {
                    Park::Woken => {
                        assert!(yields < 10_000, "spinner was never parked");
                    }
                    Park::Deadlock => break,
                }
            }
            s2.finish(ep(0));
            yields
        });
        let s3 = Arc::clone(&s);
        let parker = std::thread::spawn(move || {
            s3.start(ep(1));
            let verdict = s3.park(ep(1), SimTime::ZERO);
            s3.finish(ep(1));
            verdict
        });
        let yields = spinner.join().unwrap();
        assert!(
            yields >= YIELD_STREAK_PARK,
            "spinner parked too eagerly after {yields} yields"
        );
        assert_eq!(parker.join().unwrap(), Park::Deadlock);
    }

    #[test]
    fn wake_resets_yield_streak() {
        // A spinner that keeps receiving wakes between yields must never be
        // converted to a park.
        let s = Arc::new(Scheduler::new(2));
        s.register(ep(0));
        s.start(ep(0));
        for _ in 0..(YIELD_STREAK_PARK * 4) {
            s.wake(ep(0));
            assert_eq!(s.yield_now(ep(0), SimTime::ZERO), Park::Woken);
        }
        s.finish(ep(0));
    }

    #[test]
    fn pool_bounds_concurrent_execution() {
        let n = 16;
        let workers = 3;
        let s = Arc::new(Scheduler::new(n));
        s.set_workers(workers);
        for i in 0..n {
            s.register(ep(i));
        }
        let live = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for i in 0..n {
            let (s, live, peak) = (Arc::clone(&s), Arc::clone(&live), Arc::clone(&peak));
            handles.push(std::thread::spawn(move || {
                s.start(ep(i));
                for _ in 0..5 {
                    let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    live.fetch_sub(1, Ordering::SeqCst);
                    // Keep the slot's streak clear so the yield stays
                    // cooperative (this test exercises permits, not parking).
                    s.wake(ep(i));
                    s.yield_now(ep(i), SimTime::ZERO);
                }
                s.finish(ep(i));
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(
            peak.load(Ordering::SeqCst) <= workers,
            "observed concurrency {} exceeds the {} worker permits",
            peak.load(Ordering::SeqCst),
            workers
        );
        assert!(s.peak_running() <= workers);
    }

    #[test]
    fn lowest_virtual_time_ready_process_runs_first() {
        // Pool of 2. Endpoints 0 and 1 get the permits at registration; 2 and
        // 3 queue at virtual time 0. Endpoint 0 yields at t = 5 ms: the freed
        // permit must cycle through the earlier-time ready slots (2, then 3)
        // before endpoint 0 is re-dispatched.
        let s = Arc::new(Scheduler::new(4));
        s.set_workers(2);
        for i in 0..4 {
            s.register(ep(i));
        }
        let order = Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        {
            let (s, order) = (Arc::clone(&s), Arc::clone(&order));
            handles.push(std::thread::spawn(move || {
                s.start(ep(0));
                s.yield_now(ep(0), SimTime::from_micros(5_000));
                order.lock().unwrap().push(0usize);
                s.finish(ep(0));
            }));
        }
        for i in [2usize, 3] {
            let (s, order) = (Arc::clone(&s), Arc::clone(&order));
            handles.push(std::thread::spawn(move || {
                s.start(ep(i));
                order.lock().unwrap().push(i);
                s.finish(ep(i));
            }));
        }
        // The main thread acts as endpoint 1's carrier and never yields, so
        // exactly one permit cycles among 0, 2 and 3.
        s.start(ep(1));
        for h in handles {
            h.join().unwrap();
        }
        s.finish(ep(1));
        assert_eq!(*order.lock().unwrap(), vec![2, 3, 0]);
    }

    #[test]
    fn single_worker_pool_is_allowed_and_makes_progress() {
        // MIN_WORKERS is 1 since the yield-streak guard: a single-permit pool
        // must still complete a park/wake ping-pong (the permit is handed
        // back and forth directly).
        let s = Arc::new(Scheduler::new(2));
        s.set_workers(1);
        assert_eq!(s.workers(), 1);
        s.register(ep(0));
        s.register(ep(1));
        let s2 = Arc::clone(&s);
        let a = std::thread::spawn(move || {
            s2.start(ep(0));
            for _ in 0..100 {
                s2.wake(ep(1));
                assert_eq!(s2.park(ep(0), SimTime::ZERO), Park::Woken);
            }
            s2.finish(ep(0));
        });
        let s3 = Arc::clone(&s);
        let b = std::thread::spawn(move || {
            s3.start(ep(1));
            for _ in 0..100 {
                assert_eq!(s3.park(ep(1), SimTime::ZERO), Park::Woken);
                s3.wake(ep(0));
            }
            s3.finish(ep(1));
        });
        a.join().unwrap();
        b.join().unwrap();
        assert_eq!(s.peak_running(), 1, "one permit must never become two");
    }

    #[test]
    #[should_panic(expected = "the worker pool is sized before any slot is registered")]
    fn sizing_the_pool_after_a_registration_panics() {
        let s = Scheduler::new(2);
        s.set_workers(2);
        s.register(ep(0));
        s.set_workers(1);
    }

    #[test]
    fn equal_virtual_times_dispatch_in_fifo_order() {
        let s = Arc::new(Scheduler::new(5));
        s.set_workers(1);
        for i in 0..5 {
            s.register(ep(i));
        }
        // Slot 0 got the single permit at registration; 1..=4 are queued at
        // time zero and must run in slot order (FIFO tiebreak at equal
        // virtual time).
        let order = Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for i in 1..5usize {
            let (s, order) = (Arc::clone(&s), Arc::clone(&order));
            handles.push(std::thread::spawn(move || {
                s.start(ep(i));
                order.lock().unwrap().push(i);
                s.finish(ep(i));
            }));
        }
        s.start(ep(0));
        s.finish(ep(0)); // hands the permit on: 1, then 2, 3, 4
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*order.lock().unwrap(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn handoff_counters_account_for_direct_dispatches() {
        // A single-permit ping-pong dispatches every wake by direct handoff;
        // the only cold dispatches are the two initial grants.
        let stats = Arc::new(NetStats::new());
        let s = Arc::new(Scheduler::with_stats(2, Arc::clone(&stats)));
        s.set_workers(1);
        s.register(ep(0));
        s.register(ep(1));
        let rounds = 50u64;
        let s2 = Arc::clone(&s);
        let a = std::thread::spawn(move || {
            s2.start(ep(0));
            for _ in 0..rounds {
                s2.wake(ep(1));
                assert_eq!(s2.park(ep(0), SimTime::ZERO), Park::Woken);
            }
            s2.finish(ep(0));
        });
        let s3 = Arc::clone(&s);
        let b = std::thread::spawn(move || {
            s3.start(ep(1));
            for _ in 0..rounds {
                assert_eq!(s3.park(ep(1), SimTime::ZERO), Park::Woken);
                s3.wake(ep(0));
            }
            s3.finish(ep(1));
        });
        a.join().unwrap();
        b.join().unwrap();
        let snap = stats.snapshot();
        assert!(
            snap.handoffs() >= 2 * rounds - 2,
            "ping-pong dispatches must be direct: {} handoffs",
            snap.handoffs()
        );
        assert!(
            snap.condvar_waits() <= 4,
            "cold dispatches should be limited to startup, got {}",
            snap.condvar_waits()
        );
    }

    #[test]
    fn coroutine_mode_single_permit_ping_pong_is_pure_stack_switches() {
        // The coroutine twin of single_worker_pool_is_allowed_and_makes
        // _progress: one permit, one hosting thread, every wake dispatched
        // by a deferred direct switch (no seats involved at all).
        let stats = Arc::new(NetStats::new());
        let s = Arc::new(Scheduler::with_stats(2, Arc::clone(&stats)));
        s.set_workers(1);
        let rt = CoroRuntime::new(2, 192 * 1024, Arc::clone(&stats));
        s.attach_coro(Arc::clone(&rt));
        let rounds = 100u64;
        let s2 = Arc::clone(&s);
        let h0 = rt.spawn(0, move || {
            s2.start(ep(0));
            for _ in 0..rounds {
                s2.wake(ep(1));
                assert_eq!(s2.park(ep(0), SimTime::ZERO), Park::Woken);
            }
            s2.finish(ep(0));
        });
        let s3 = Arc::clone(&s);
        let h1 = rt.spawn(1, move || {
            s3.start(ep(1));
            for _ in 0..rounds {
                assert_eq!(s3.park(ep(1), SimTime::ZERO), Park::Woken);
                s3.wake(ep(0));
            }
            s3.finish(ep(1));
        });
        s.register(ep(0));
        s.register(ep(1));
        rt.activate(1);
        h0.join().unwrap();
        h1.join().unwrap();
        rt.shutdown();
        assert_eq!(s.peak_running(), 1, "one permit must never become two");
        let snap = stats.snapshot();
        assert!(
            snap.handoffs() >= 2 * rounds - 2,
            "ping-pong dispatches must be direct: {} handoffs",
            snap.handoffs()
        );
        assert!(
            snap.stack_switches() >= 2 * rounds,
            "every dispatch should be a user-space switch, got {}",
            snap.stack_switches()
        );
    }

    #[test]
    fn coroutine_mode_detects_deadlock_by_quiescence() {
        let stats = Arc::new(NetStats::new());
        let s = Arc::new(Scheduler::with_stats(2, Arc::clone(&stats)));
        let rt = CoroRuntime::new(2, 192 * 1024, stats);
        s.attach_coro(Arc::clone(&rt));
        let mut handles = Vec::new();
        for i in 0..2usize {
            let s = Arc::clone(&s);
            handles.push(rt.spawn(i, move || {
                s.start(ep(i));
                let verdict = s.park(ep(i), SimTime::ZERO);
                s.finish(ep(i));
                verdict
            }));
        }
        s.register(ep(0));
        s.register(ep(1));
        rt.activate(2);
        for h in handles {
            assert_eq!(h.join().unwrap(), Park::Deadlock);
        }
        rt.shutdown();
    }

    #[test]
    fn coroutine_mode_yield_streak_still_parks_spinners() {
        // The busy-poll quiescence guard must behave identically under
        // coroutine carriers: a wakeless spinner is parked after
        // YIELD_STREAK_PARK yields and then declared deadlocked together
        // with its parked peer.
        let stats = Arc::new(NetStats::new());
        let s = Arc::new(Scheduler::with_stats(2, Arc::clone(&stats)));
        let rt = CoroRuntime::new(2, 192 * 1024, stats);
        s.attach_coro(Arc::clone(&rt));
        let s2 = Arc::clone(&s);
        let spinner = rt.spawn(0, move || {
            s2.start(ep(0));
            let mut yields = 0u32;
            loop {
                yields += 1;
                match s2.yield_now(ep(0), SimTime::ZERO) {
                    Park::Woken => assert!(yields < 10_000, "spinner was never parked"),
                    Park::Deadlock => break,
                }
            }
            s2.finish(ep(0));
            yields
        });
        let s3 = Arc::clone(&s);
        let parker = rt.spawn(1, move || {
            s3.start(ep(1));
            let verdict = s3.park(ep(1), SimTime::ZERO);
            s3.finish(ep(1));
            verdict
        });
        s.register(ep(0));
        s.register(ep(1));
        rt.activate(2);
        assert!(spinner.join().unwrap() >= YIELD_STREAK_PARK);
        assert_eq!(parker.join().unwrap(), Park::Deadlock);
        rt.shutdown();
    }

    #[test]
    fn coroutine_mode_hammered_park_wake_race_loses_no_wakeups() {
        // The coroutine twin of hammered_park_wake_race_loses_no_wakeups, at
        // two workers: parker and waker run on two host threads at once, so
        // wakes race parks in flight — the shape of every default-worker job.
        // The parker counts deadlock verdicts instead of panicking and always
        // finishes, so a spurious verdict fails the assertion below instead
        // of stranding the waker's drain loop; a lost wake fails the timeout.
        const ROUNDS: usize = 2000;
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let stats = Arc::new(NetStats::new());
            let s = Arc::new(Scheduler::with_stats(2, Arc::clone(&stats)));
            s.set_workers(2);
            let rt = CoroRuntime::new(2, 192 * 1024, stats);
            s.attach_coro(Arc::clone(&rt));
            let s2 = Arc::clone(&s);
            let parker = rt.spawn(0, move || {
                s2.start(ep(0));
                let verdicts = (0..ROUNDS)
                    .filter(|_| s2.park(ep(0), SimTime::ZERO) == Park::Deadlock)
                    .count();
                s2.finish(ep(0));
                verdicts
            });
            let s3 = Arc::clone(&s);
            let waker = rt.spawn(1, move || {
                s3.start(ep(1));
                for _ in 0..ROUNDS {
                    s3.wake(ep(0));
                    std::hint::spin_loop();
                }
                while s3.wake(ep(0)) != WakeOutcome::Ignored {
                    std::thread::yield_now();
                }
                s3.finish(ep(1));
            });
            s.register(ep(0));
            s.register(ep(1));
            rt.activate(2);
            let verdicts = parker.join().unwrap();
            waker.join().unwrap();
            rt.shutdown();
            let _ = done_tx.send(verdicts);
        });
        let verdicts = done_rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("a wake was lost: the parker never ran again");
        assert_eq!(
            verdicts, 0,
            "spurious deadlock verdicts under wake hammering"
        );
    }
}
