//! Stackful-coroutine carriers: every simulated process owns a user-space
//! stack, and a scheduler handoff is a register save + stack-pointer swap
//! instead of a futex wake.
//!
//! All process stacks of a job are hosted by `workers` OS threads leased
//! from [`super::CarrierPool`], and the direct-handoff path in
//! [`crate::sched::Scheduler`] — which already knows the exact next process
//! at every park point — transfers control with [`CoroRuntime`]'s
//! user-space switch, without entering the kernel. 8192 processes cost 8192
//! lazily-committed stacks ([`super::stack::StackPool`]) and a handful of
//! threads. This is the only way a simulated process runs: the crate does
//! not build for a target without the switch primitive (Linux on x86-64 or
//! aarch64).
//!
//! # Unsafe contract (summary — the full version is DESIGN.md §5.4)
//!
//! * **Switch primitive.** `sdr_coro_switch(save, target_sp)` pushes the
//!   callee-saved register set on the current stack, publishes the resulting
//!   stack pointer to `*save`, installs `target_sp`, pops the same register
//!   set and returns on the target stack. x86_64 saves `rbp rbx r12-r15`;
//!   aarch64 saves `x19-x28 x29 x30` and `d8-d15` (a 160-byte frame) and
//!   publishes with `stlr` so the resumer's acquire-swap observes a fully
//!   written frame. Caller-saved state, the FP control/status words, and
//!   signal masks deliberately cross switches unsaved: every switch happens
//!   at a Rust call boundary, and the simulator never changes rounding modes
//!   or per-thread masks mid-run.
//! * **Resume token.** A suspended coroutine is exactly its saved stack
//!   pointer, stored in its slot's `ctx` atomic. Zero means "running,
//!   retired, or mid-publication". A resumer *takes* the token with
//!   `swap(0, Acquire)` — at most one dispatcher targets a slot at a time
//!   (guaranteed by the scheduler's `Ready → Running` CAS), so the spin in
//!   `spin_take` only waits out the last few instructions of the owner's
//!   in-flight suspension.
//! * **No TLS across switches.** Host-thread state (current slot, deferred
//!   handoff, retirement queue) lives in thread-locals that are re-read
//!   after every switch, never cached across one: a coroutine that suspends
//!   on one worker may resume on another.
//! * **Unwinding.** Panics (including the simulated-crash unwind from
//!   `Endpoint::maybe_crash`) never cross a switch: the process body
//!   runs under `catch_unwind` *on the coroutine's own stack*, and drop
//!   handlers along the unwind never park. The coroutine retires normally afterwards, so crash
//!   cleanup ("switch-out + drop-on-owner") is just the ordinary retirement
//!   path: the stack is recycled by the next context that runs on the host
//!   thread, after the dying coroutine has fully switched away.
//! * **Guard discipline.** Stacks come from [`super::stack`]: `mmap`'d with
//!   a `PROT_NONE` guard below (overflow ⇒ SIGSEGV ⇒ diagnostic + abort via
//!   [`super::stack::install_overflow_handler`]), or heap-backed with a
//!   canary that is verified at every suspension. Every stack's canary,
//!   guarded or not, is verified at retirement.

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use super::stack::{self, CoroStack, StackPool, StackSource};
use super::{CarrierHandle, CarrierPool, CarrierSource};
use crate::stats::NetStats;

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
compile_error!(
    "sim-net runs every simulated process on a coroutine stack, and its \
     context switch (`sdr_coro_switch`) exists only for Linux on x86-64 and aarch64"
);

/// Whether this build target has the context-switch primitive: always true,
/// because the crate does not build anywhere else.
pub fn supported() -> bool {
    true
}

/// Sentinel for "no slot" in the host-thread cells.
const NONE: usize = usize::MAX;

thread_local! {
    /// Save area for the worker loop's own context: a suspending coroutine
    /// with no deferred handoff switches back to this.
    static WORKER_CTX: Cell<usize> = const { Cell::new(0) };
    /// Slot of the coroutine this OS thread is currently executing.
    static CURRENT: Cell<usize> = const { Cell::new(NONE) };
    /// Deferred direct handoff: the slot the next suspension must switch to.
    static PENDING: Cell<usize> = const { Cell::new(NONE) };
    /// A finished coroutine whose stack must be recycled by the next context
    /// that runs on this OS thread (a stack cannot free itself).
    static RETIRE: Cell<usize> = const { Cell::new(NONE) };
}

mod arch {
    //! The context-switch primitive and initial-frame layout. See the
    //! module docs and DESIGN.md §5.4 for the contract.

    use super::super::stack::CoroStack;

    extern "C" {
        /// Save the callee-saved set + SP into `*save`, switch to
        /// `target_sp`, restore and return on the target stack.
        fn sdr_coro_switch(save: *mut usize, target_sp: usize);
    }

    /// Safe-to-call wrapper (the contract is enforced by the runtime: `save`
    /// points at the suspending slot's `ctx` atomic, `target_sp` is a token
    /// taken exclusively via `swap(0, Acquire)`).
    pub unsafe fn switch(save: *mut usize, target_sp: usize) {
        sdr_coro_switch(save, target_sp);
    }

    #[cfg(target_arch = "x86_64")]
    core::arch::global_asm!(
        ".text",
        ".p2align 4",
        ".globl sdr_coro_switch",
        ".hidden sdr_coro_switch",
        ".type sdr_coro_switch, @function",
        "sdr_coro_switch:",
        "    push rbp",
        "    push rbx",
        "    push r12",
        "    push r13",
        "    push r14",
        "    push r15",
        "    mov qword ptr [rdi], rsp", // publish (x86-TSO orders prior pushes)
        "    mov rsp, rsi",
        "    pop r15",
        "    pop r14",
        "    pop r13",
        "    pop r12",
        "    pop rbx",
        "    pop rbp",
        "    ret",
        ".globl sdr_coro_entry_shim",
        ".hidden sdr_coro_entry_shim",
        ".type sdr_coro_entry_shim, @function",
        // First activation target: the prepared frame leaves the entry-args
        // pointer in r12 and `ret`s here with rsp ≡ 0 (mod 16), so the
        // `call` below gives the Rust trampoline a standard ABI frame.
        "sdr_coro_entry_shim:",
        "    mov rdi, r12",
        "    call {entry}",
        "    ud2", // the trampoline never returns
        entry = sym super::coro_entry,
    );

    #[cfg(target_arch = "aarch64")]
    core::arch::global_asm!(
        ".text",
        ".p2align 2",
        ".globl sdr_coro_switch",
        ".hidden sdr_coro_switch",
        ".type sdr_coro_switch, %function",
        "sdr_coro_switch:",
        "    sub sp, sp, #160",
        "    stp x19, x20, [sp, #0]",
        "    stp x21, x22, [sp, #16]",
        "    stp x23, x24, [sp, #32]",
        "    stp x25, x26, [sp, #48]",
        "    stp x27, x28, [sp, #64]",
        "    stp x29, x30, [sp, #80]",
        "    stp d8, d9, [sp, #96]",
        "    stp d10, d11, [sp, #112]",
        "    stp d12, d13, [sp, #128]",
        "    stp d14, d15, [sp, #144]",
        "    mov x9, sp",
        "    stlr x9, [x0]", // release-publish the frame
        "    mov sp, x1",
        "    ldp x19, x20, [sp, #0]",
        "    ldp x21, x22, [sp, #16]",
        "    ldp x23, x24, [sp, #32]",
        "    ldp x25, x26, [sp, #48]",
        "    ldp x27, x28, [sp, #64]",
        "    ldp x29, x30, [sp, #80]",
        "    ldp d8, d9, [sp, #96]",
        "    ldp d10, d11, [sp, #112]",
        "    ldp d12, d13, [sp, #128]",
        "    ldp d14, d15, [sp, #144]",
        "    add sp, sp, #160",
        "    ret",
        ".globl sdr_coro_entry_shim",
        ".hidden sdr_coro_entry_shim",
        ".type sdr_coro_entry_shim, %function",
        "sdr_coro_entry_shim:",
        "    mov x0, x19",
        "    bl {entry}",
        "    brk #0x1",
        entry = sym super::coro_entry,
    );

    extern "C" {
        fn sdr_coro_entry_shim();
    }

    /// Build the initial frame on a fresh stack so the first `switch` to it
    /// "returns" into `sdr_coro_entry_shim` with `arg` in the designated
    /// callee-saved register (r12 / x19). Returns the resume token (sp).
    pub unsafe fn prepare(stack: &CoroStack, arg: usize) -> usize {
        let top = stack.top(); // already 16-aligned
        #[cfg(target_arch = "x86_64")]
        {
            // Frame (low → high): r15 r14 r13 r12 rbx rbp ret. After the six
            // pops, `ret` lands in the shim with rsp == top ≡ 0 (mod 16).
            let sp = top - 7 * 8;
            let p = sp as *mut usize;
            p.write(0); // r15
            p.add(1).write(0); // r14
            p.add(2).write(0); // r13
            p.add(3).write(arg); // r12
            p.add(4).write(0); // rbx
            p.add(5).write(0); // rbp
            p.add(6).write(sdr_coro_entry_shim as *const () as usize); // ret target
            sp
        }
        #[cfg(target_arch = "aarch64")]
        {
            // One 160-byte frame; x30 slot holds the shim, x19 slot the arg.
            let sp = top - 160;
            let p = sp as *mut usize;
            for i in 0..20 {
                p.add(i).write(0);
            }
            p.write(arg); // x19
            p.add(11).write(sdr_coro_entry_shim as *const () as usize); // x30
            sp
        }
    }
}

/// Per-process coroutine state. Fixed at runtime construction; the dispatch
/// hot path touches only the `ctx` atomic.
struct CoroSlot {
    /// The resume token: saved stack pointer of a suspended coroutine, or 0
    /// while it runs (or before spawn / after retirement).
    ctx: AtomicUsize,
    /// Canary address the per-suspension integrity check reads, without
    /// locking the stack itself: the installed stack's for a heap stack, 0
    /// (nothing to read) for a guarded one or for none. See
    /// [`suspension_canary`].
    canary: AtomicUsize,
    /// The leased stack, taken back at retirement for recycling.
    stack: Mutex<Option<CoroStack>>,
    /// The process body, taken by the trampoline at first activation.
    entry: Mutex<Option<Box<dyn FnOnce() + Send>>>,
}

/// Cold-resume queue feeding the worker threads, plus the shutdown latch.
struct Injector {
    queue: VecDeque<usize>,
    shutdown: bool,
}

/// Heap payload handed to a fresh coroutine through its prepared frame.
struct EntryArgs {
    rt: *const CoroRuntime,
    slot: usize,
}

/// Hosts all process stacks of one job on `workers` OS threads.
///
/// Lifecycle (driven by `sim_mpi::runtime` for every job):
/// 1. [`CoroRuntime::new`] with the job's process capacity,
/// 2. [`CoroRuntime::spawn`] for every slot (installs stack + body; nothing
///    executes yet),
/// 3. [`crate::sched::Scheduler::attach_coro`] + scheduler registration of
///    every slot,
/// 4. [`CoroRuntime::activate`] to lease worker threads from the
///    [`CarrierPool`] — only now does simulation code run,
/// 5. join all [`CarrierHandle`]s, then [`CoroRuntime::shutdown`].
///
/// The spawn-all / register-all / activate ordering matters: the scheduler's
/// quiescence detector assumes the registered population is complete before
/// any process blocks, and every registered slot must have a coroutine for a
/// dispatcher to switch to.
pub struct CoroRuntime {
    slots: Vec<CoroSlot>,
    injector: Mutex<Injector>,
    injector_cv: Condvar,
    stats: Arc<NetStats>,
    stack_bytes: usize,
    /// Bytes of stack this runtime currently has leased from the global
    /// pool. The per-job stats gauge tracks the peak of *this* figure, not
    /// the pool's process-wide resident bytes — concurrently running jobs
    /// (service mode) must not bleed into each other's reported peaks.
    leased_bytes: AtomicU64,
    workers: Mutex<Vec<CarrierHandle<()>>>,
}

// Raw pointers inside EntryArgs never leave the runtime's control.
unsafe impl Send for CoroRuntime {}
unsafe impl Sync for CoroRuntime {}

impl CoroRuntime {
    /// Create a runtime for `capacity` process slots whose stacks have
    /// `stack_bytes` usable bytes. Installs the stack-overflow SIGSEGV
    /// handler on first use.
    pub fn new(capacity: usize, stack_bytes: usize, stats: Arc<NetStats>) -> Arc<CoroRuntime> {
        stack::install_overflow_handler();
        let slots = (0..capacity)
            .map(|_| CoroSlot {
                ctx: AtomicUsize::new(0),
                canary: AtomicUsize::new(0),
                stack: Mutex::new(None),
                entry: Mutex::new(None),
            })
            .collect();
        Arc::new(CoroRuntime {
            slots,
            injector: Mutex::new(Injector {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            injector_cv: Condvar::new(),
            stats,
            stack_bytes,
            leased_bytes: AtomicU64::new(0),
            workers: Mutex::new(Vec::new()),
        })
    }

    /// Install `body` as slot `slot`'s coroutine: lease a stack, write the
    /// initial switch frame, and park the body for the trampoline. Nothing
    /// runs until a dispatcher resumes the slot (after [`Self::activate`]).
    /// The handle reports the body's result or panic payload.
    pub fn spawn<T, F>(&self, slot: usize, body: F) -> CarrierHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let s = &self.slots[slot];
        assert_eq!(
            s.ctx.load(Ordering::Relaxed),
            0,
            "slot {slot} spawned twice"
        );
        let (res_tx, res_rx) = std::sync::mpsc::channel();
        let wrapped: Box<dyn FnOnce() + Send> = Box::new(move || {
            let result = catch_unwind(AssertUnwindSafe(body));
            let _ = res_tx.send(result);
        });
        let (stk, source) = StackPool::global().get(self.stack_bytes);
        let leased = self
            .leased_bytes
            .fetch_add(stk.footprint() as u64, Ordering::Relaxed)
            + stk.footprint() as u64;
        self.stats
            .record_stack_lease(source == StackSource::Fresh, leased);
        let args = Box::into_raw(Box::new(EntryArgs {
            rt: self as *const CoroRuntime,
            slot,
        }));
        let sp = unsafe { arch::prepare(&stk, args as usize) };
        s.canary.store(suspension_canary(&stk), Ordering::Relaxed);
        *s.entry.lock().unwrap_or_else(|e| e.into_inner()) = Some(wrapped);
        *s.stack.lock().unwrap_or_else(|e| e.into_inner()) = Some(stk);
        s.ctx.store(sp, Ordering::Release);
        CarrierHandle { result: res_rx }
    }

    /// Lease `workers` OS threads from the global [`CarrierPool`] and start
    /// hosting coroutines. Returns `(spawned, reused)` thread counts for the
    /// job report — across back-to-back jobs the same few pooled threads
    /// serve every run, which is what keeps the whole-process OS-thread
    /// count ≤ workers + a small allowance.
    pub fn activate(self: &Arc<Self>, workers: usize) -> (usize, usize) {
        let mut spawned = 0;
        let mut reused = 0;
        let mut handles = self.workers.lock().unwrap_or_else(|e| e.into_inner());
        for _ in 0..workers.max(1) {
            let rt = Arc::clone(self);
            let (h, source) = CarrierPool::global().run(move || worker_loop(rt));
            match source {
                CarrierSource::Spawned => spawned += 1,
                CarrierSource::Reused => reused += 1,
            }
            handles.push(h);
        }
        (spawned, reused)
    }

    /// Stop the worker threads and wait for them to drain back into the
    /// [`CarrierPool`]. Must be called after every process handle has been
    /// joined; by then all coroutines have retired and the last stack has
    /// been recycled by the worker that hosted it.
    pub fn shutdown(&self) {
        {
            let mut inj = self.injector.lock().unwrap_or_else(|e| e.into_inner());
            inj.shutdown = true;
        }
        self.injector_cv.notify_all();
        let handles: Vec<_> = {
            let mut w = self.workers.lock().unwrap_or_else(|e| e.into_inner());
            w.drain(..).collect()
        };
        for h in handles {
            let _ = h.join();
        }
    }

    /// Defer a direct handoff: the next suspension on this host thread
    /// switches straight to `slot` instead of returning to the worker loop.
    /// Called from the scheduler's hot dispatch sites (`depart`,
    /// `yield_now`), which always suspend immediately after signalling.
    /// Off-coroutine callers (the launcher thread) fall back to the queue.
    pub(crate) fn defer_switch(&self, slot: usize) {
        if CURRENT.get() == NONE {
            self.enqueue_resume(slot);
            return;
        }
        let prev = PENDING.replace(slot);
        debug_assert_eq!(prev, NONE, "two deferred handoffs before a suspension");
        if prev != NONE {
            // Never lose a wake even if the invariant breaks in release.
            self.enqueue_resume(prev);
        }
    }

    /// Queue `slot` for resumption by a worker thread (cold dispatch sites:
    /// idle-permit grants, quiescence-verdict wakes, off-coroutine callers).
    pub(crate) fn enqueue_resume(&self, slot: usize) {
        {
            let mut inj = self.injector.lock().unwrap_or_else(|e| e.into_inner());
            inj.queue.push_back(slot);
        }
        self.injector_cv.notify_one();
    }

    /// Suspend the calling coroutine: publish its context for later
    /// resumption and switch to the deferred handoff target if one is
    /// pending, else back to the worker loop. Returns when some dispatcher
    /// resumes this slot — possibly on a different OS thread.
    pub(crate) fn suspend_current(&self) {
        let me = CURRENT.get();
        assert_ne!(me, NONE, "suspend_current called outside a coroutine");
        if !stack::canary_intact(self.slots[me].canary.load(Ordering::Relaxed)) {
            stack::canary_violation(me);
        }
        self.stats.record_stack_switch();
        // A deferred handoff switches straight into its target only if the
        // target's resume token is already there. This coroutine's own token
        // is published by the switch itself, so it must never *wait* for
        // another's first: two coroutines suspending on two workers, each
        // handed the other as its target, would spin on each other's
        // unpublished tokens forever. When the token is late, queue the
        // target and switch to the worker loop instead — that publishes ours,
        // and a worker takes the target from its own stack.
        let direct = match PENDING.replace(NONE) {
            NONE => None,
            target => match try_take(self, target) {
                Some(tctx) => Some((target, tctx)),
                None => {
                    self.enqueue_resume(target);
                    None
                }
            },
        };
        match direct {
            Some((target, tctx)) => {
                CURRENT.set(target);
                unsafe { arch::switch(self.slots[me].ctx.as_ptr(), tctx) };
            }
            None => {
                CURRENT.set(NONE);
                let wctx = WORKER_CTX.with(Cell::get);
                unsafe { arch::switch(self.slots[me].ctx.as_ptr(), wctx) };
            }
        }
        // Resumed — possibly on another OS thread; recycle whatever retired
        // context this thread just left.
        finalize_retired(self);
    }

    /// Slot of the coroutine the calling OS thread is currently hosting.
    pub(crate) fn hosted_slot(&self) -> Option<usize> {
        match CURRENT.get() {
            NONE => None,
            s => Some(s),
        }
    }

    /// Number of process slots this runtime hosts.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

/// Try to take a slot's resume token, spinning briefly over the (rare,
/// tiny) window where the owner has been marked runnable but has not yet
/// finished publishing its saved context. At most one dispatcher targets a
/// slot at a time, so this never contends with another taker.
fn try_take(rt: &CoroRuntime, slot: usize) -> Option<usize> {
    let ctx = &rt.slots[slot].ctx;
    for _ in 0..64 {
        let v = ctx.swap(0, Ordering::Acquire);
        if v != 0 {
            return Some(v);
        }
        std::hint::spin_loop();
    }
    None
}

/// Take a slot's resume token, however long its owner takes to publish it.
/// Only for callers nobody can be waiting on in turn: the worker loop (its
/// own stack) and a retiring coroutine (never resumed again).
fn spin_take(rt: &CoroRuntime, slot: usize) -> usize {
    loop {
        if let Some(v) = try_take(rt, slot) {
            return v;
        }
        std::thread::yield_now();
    }
}

/// The canary address a slot checks at every suspension of the coroutine on
/// `stk`: 0 for a guarded stack, whose `PROT_NONE` guard faults on an
/// overflow before the canary could be read, so the check is one load of
/// the slot word; the canary's address for a heap stack, which has no
/// guard. [`finalize_retired`] still checks every stack at retirement.
fn suspension_canary(stk: &CoroStack) -> usize {
    if stk.is_guarded() {
        0
    } else {
        stk.canary_addr()
    }
}

/// Recycle the stack of a coroutine that retired on this OS thread. Runs in
/// the first context after the retiree's final switch-away — the worker
/// loop, a resumed coroutine, or a freshly entered one — which is the
/// earliest point the retired stack is guaranteed quiescent.
fn finalize_retired(rt: &CoroRuntime) {
    let slot = RETIRE.replace(NONE);
    if slot == NONE {
        return;
    }
    rt.slots[slot].canary.store(0, Ordering::Relaxed);
    let stk = rt.slots[slot]
        .stack
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .take();
    if let Some(stk) = stk {
        if !stk.canary_ok() {
            stack::canary_violation(slot);
        }
        rt.leased_bytes
            .fetch_sub(stk.footprint() as u64, Ordering::Relaxed);
        StackPool::global().put(stk);
    }
}

/// Body of each hosting OS thread: drain the injector, switch into each
/// resumed coroutine, recycle retirees, exit on shutdown.
fn worker_loop(rt: Arc<CoroRuntime>) {
    loop {
        let slot = {
            let mut inj = rt.injector.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(s) = inj.queue.pop_front() {
                    break Some(s);
                }
                if inj.shutdown {
                    break None;
                }
                inj = rt.injector_cv.wait(inj).unwrap_or_else(|e| e.into_inner());
            }
        };
        let Some(slot) = slot else { return };
        host_one(&rt, slot);
    }
}

/// Switch from the worker loop into coroutine `slot`; returns when some
/// coroutine on this thread suspends back to the worker (not necessarily
/// `slot` — direct handoffs may have chained through many others).
fn host_one(rt: &CoroRuntime, slot: usize) {
    let tctx = spin_take(rt, slot);
    CURRENT.set(slot);
    rt.stats.record_stack_switch();
    let wctx = WORKER_CTX.with(Cell::as_ptr);
    unsafe { arch::switch(wctx, tctx) };
    CURRENT.set(NONE);
    finalize_retired(rt);
}

/// Rust half of the first-activation trampoline (the asm shim calls this
/// with the `EntryArgs` pointer). Runs the process body under
/// `catch_unwind`, then retires: marks the slot for stack recycling and
/// switches away forever. The final context save goes to a stack slot of
/// this dying frame — the slot's `ctx` stays 0, so the coroutine can never
/// be resumed again.
unsafe extern "C" fn coro_entry(raw: usize) -> ! {
    let args = Box::from_raw(raw as *mut EntryArgs);
    let rt: &CoroRuntime = &*args.rt;
    let slot = args.slot;
    drop(args);
    // This thread just switched in from some prior context.
    finalize_retired(rt);
    let body = rt.slots[slot]
        .entry
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .take()
        .expect("coroutine activated without a body");
    // `body` is itself a catch_unwind wrapper (see spawn); this outer catch
    // is a belt-and-braces guard because unwinding out of an extern "C"
    // frame — and across the asm shim — would be undefined behavior.
    let _ = catch_unwind(AssertUnwindSafe(body));
    if !stack::canary_intact(rt.slots[slot].canary.load(Ordering::Relaxed)) {
        stack::canary_violation(slot);
    }
    RETIRE.set(slot);
    rt.stats.record_stack_switch();
    let mut graveyard = 0usize;
    let target = PENDING.replace(NONE);
    if target != NONE {
        let tctx = spin_take(rt, target);
        CURRENT.set(target);
        arch::switch(&mut graveyard, tctx);
    } else {
        CURRENT.set(NONE);
        arch::switch(&mut graveyard, WORKER_CTX.with(Cell::get));
    }
    // A retired coroutine has no resume token; control cannot come back.
    std::process::abort();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn rt(capacity: usize) -> Arc<CoroRuntime> {
        CoroRuntime::new(capacity, 128 * 1024, Arc::new(NetStats::new()))
    }

    #[test]
    fn only_a_heap_stack_is_checked_at_every_suspension() {
        let heap = CoroStack::new_heap(16 * 1024);
        assert!(!heap.is_guarded());
        assert_eq!(suspension_canary(&heap), heap.canary_addr());
        let guarded = CoroStack::new(64 * 1024);
        assert!(guarded.is_guarded(), "linux should take the mmap path");
        assert_eq!(suspension_canary(&guarded), 0);
    }

    #[test]
    fn a_guarded_stack_slot_records_no_canary() {
        let rt = rt(1);
        let h = rt.spawn(0, || 1);
        assert_eq!(rt.slots[0].canary.load(Ordering::Relaxed), 0);
        rt.enqueue_resume(0);
        rt.activate(1);
        assert_eq!(h.join().unwrap(), 1);
        rt.shutdown();
    }

    #[test]
    fn single_coroutine_runs_and_returns() {
        let rt = rt(1);
        let h = rt.spawn(0, || 6 * 7);
        rt.enqueue_resume(0);
        rt.activate(1);
        assert_eq!(h.join().unwrap(), 42);
        rt.shutdown();
        assert!(rt.stats.snapshot().stack_switches() >= 1);
    }

    #[test]
    fn panicking_coroutine_reports_payload_and_retires_cleanly() {
        let rt = rt(2);
        let h0 = rt.spawn(0, || -> usize { panic!("coro body panic") });
        let h1 = rt.spawn(1, || 7usize);
        rt.enqueue_resume(0);
        rt.enqueue_resume(1);
        rt.activate(1);
        let payload = h0.join().unwrap_err();
        assert_eq!(
            payload.downcast_ref::<&str>().copied(),
            Some("coro body panic")
        );
        assert_eq!(h1.join().unwrap(), 7);
        rt.shutdown();
    }

    #[test]
    fn suspend_resume_round_trip_restores_state() {
        // Coroutine 0 computes, suspends to the worker, and is later
        // re-queued by the main thread; its locals must survive the round
        // trip (the registers + stack were saved and restored).
        let rt0 = rt(1);
        static PHASE: AtomicU64 = AtomicU64::new(0);
        PHASE.store(0, Ordering::SeqCst);
        let rt_c = Arc::clone(&rt0);
        let h = rt0.spawn(0, move || {
            let secret = 0x5EC4E7u64;
            PHASE.store(1, Ordering::SeqCst);
            rt_c.suspend_current();
            PHASE.store(2, Ordering::SeqCst);
            secret + 1
        });
        rt0.enqueue_resume(0);
        rt0.activate(1);
        while PHASE.load(Ordering::SeqCst) < 1 {
            std::thread::yield_now();
        }
        // It suspended (ctx republished); resume it from off-coroutine.
        while rt0.slots[0].ctx.load(Ordering::Acquire) == 0 {
            std::thread::yield_now();
        }
        rt0.enqueue_resume(0);
        assert_eq!(h.join().unwrap(), 0x5EC4E7 + 1);
        assert_eq!(PHASE.load(Ordering::SeqCst), 2);
        rt0.shutdown();
    }

    #[test]
    fn crossed_handoffs_between_two_workers_do_not_livelock() {
        // 0 and 1 run on two workers and, once both are provably running
        // (the barrier), each suspends with the other as its deferred
        // handoff target. Neither token is published yet: waiting for the
        // target's token before publishing one's own spins forever.
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let rt0 = rt(2);
            let both_running = Arc::new(std::sync::Barrier::new(2));
            let handles: Vec<_> = (0..2)
                .map(|me| {
                    let rt_c = Arc::clone(&rt0);
                    let both_running = Arc::clone(&both_running);
                    rt0.spawn(me, move || {
                        both_running.wait();
                        rt_c.defer_switch(1 - me);
                        rt_c.suspend_current();
                        me
                    })
                })
                .collect();
            rt0.enqueue_resume(0);
            rt0.enqueue_resume(1);
            rt0.activate(2);
            let out: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            rt0.shutdown();
            let _ = done_tx.send(out);
        });
        let out = done_rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("crossed handoffs livelocked");
        assert_eq!(out, vec![0, 1]);
    }

    #[test]
    fn direct_handoff_chains_between_coroutines() {
        // 0 hands directly to 1 (PENDING path) which finishes; both retire,
        // stacks recycled, one worker thread hosted the whole chain.
        let rt0 = rt(2);
        let rt_a = Arc::clone(&rt0);
        let h0 = rt0.spawn(0, move || {
            rt_a.defer_switch(1);
            rt_a.suspend_current(); // consumed the deferred handoff: runs 1
            13u32
        });
        let h1 = rt0.spawn(1, || 29u32);
        rt0.enqueue_resume(0);
        rt0.activate(1);
        // 0 suspended into 1; 1 finished without waking 0 — wake it here.
        assert_eq!(h1.join().unwrap(), 29);
        while rt0.slots[0].ctx.load(Ordering::Acquire) == 0 {
            std::thread::yield_now();
        }
        rt0.enqueue_resume(0);
        assert_eq!(h0.join().unwrap(), 13);
        rt0.shutdown();
    }

    #[test]
    fn stacks_recycle_through_the_pool_across_runtimes() {
        // Use a size class private to this test so parallel tests don't
        // interfere with the reuse accounting.
        let size = 128 * 1024 + 0x9000;
        let stats = Arc::new(NetStats::new());
        let rt0 = CoroRuntime::new(1, size, Arc::clone(&stats));
        let h = rt0.spawn(0, || 1u8);
        rt0.enqueue_resume(0);
        rt0.activate(1);
        h.join().unwrap();
        rt0.shutdown();
        let snap0 = stats.snapshot();
        assert_eq!(snap0.stacks_allocated(), 1);
        assert_eq!(snap0.stacks_reused(), 0);
        // Second "job": the same stack must come back from the pool.
        let rt1 = CoroRuntime::new(1, size, Arc::clone(&stats));
        let h = rt1.spawn(0, || 2u8);
        rt1.enqueue_resume(0);
        rt1.activate(1);
        h.join().unwrap();
        rt1.shutdown();
        let snap1 = stats.snapshot();
        assert_eq!(snap1.stacks_allocated(), 1, "no second allocation");
        assert_eq!(snap1.stacks_reused(), 1, "pooled stack reused");
        assert!(snap1.stack_bytes_peak() >= size as u64);
    }

    #[test]
    fn stack_peak_gauge_is_per_runtime_not_pool_wide() {
        // Regression (service mode): the peak gauge used to report the
        // global pool's resident bytes, so a big job's stacks inflated a
        // small concurrent job's reported peak. Lease a lot of stack on one
        // runtime, then run a 1-stack runtime: its peak must reflect its
        // own single lease, not the pool-wide footprint the big runtime
        // left behind.
        let size = 128 * 1024 + 0xd000; // private size class
        let big_stats = Arc::new(NetStats::new());
        let big = CoroRuntime::new(8, size, Arc::clone(&big_stats));
        let handles: Vec<_> = (0..8).map(|s| big.spawn(s, move || s)).collect();
        for s in 0..8 {
            big.enqueue_resume(s);
        }
        big.activate(1);
        for h in handles {
            h.join().unwrap();
        }
        big.shutdown();
        assert!(
            big_stats.snapshot().stack_bytes_peak() >= 8 * size as u64,
            "the big runtime's own peak covers all eight leases"
        );
        let small_stats = Arc::new(NetStats::new());
        let small = CoroRuntime::new(1, size, Arc::clone(&small_stats));
        let h = small.spawn(0, || 3u8);
        small.enqueue_resume(0);
        small.activate(1);
        h.join().unwrap();
        small.shutdown();
        let peak = small_stats.snapshot().stack_bytes_peak();
        // One lease: usable size + guard pages + rounding, nowhere near the
        // ≥ 8 stacks the pool is still holding resident for this class.
        assert!(peak >= size as u64, "peak covers the single lease: {peak}");
        assert!(
            peak < 2 * (size as u64 + 128 * 1024),
            "peak {peak} must reflect this runtime's single lease, \
             not the pool's resident footprint"
        );
    }
}
