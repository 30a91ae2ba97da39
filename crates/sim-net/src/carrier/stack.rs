//! Guarded coroutine stacks and the process-global stack pool.
//!
//! Every simulated process ([`super::coro`]) runs on a stack allocated here
//! rather than on an OS thread's stack. Two
//! allocation strategies exist, tried in order:
//!
//! 1. **`mmap` with a guard region** (Linux): the mapping is created
//!    `PROT_NONE` and the usable portion above the guard is flipped to
//!    read/write. Running off the bottom of the stack faults inside the
//!    guard, and the [`install_overflow_handler`] SIGSEGV handler converts
//!    that fault into an immediate diagnostic + `abort()` instead of silent
//!    corruption of a neighboring allocation. Pages are committed lazily by
//!    the kernel, so thousands of 1 MiB stacks cost virtual address space,
//!    not resident memory.
//! 2. **Heap fallback** (anywhere, or if `mmap` fails): a boxed byte slice
//!    with a canary pattern written at the low end. The canary is checked at
//!    every suspension point and on stack retirement; a clobbered canary
//!    also aborts with a diagnostic. This is detection-after-the-fact rather
//!    than prevention, which is why the guard-page path is preferred.
//!
//! Stacks are never freed while the process lives: the [`StackPool`]
//! recycles them across coroutines and across jobs (as the worker-thread
//! [`super::CarrierPool`] recycles threads), bucketed by requested size. Each
//! lease reports whether it was fresh or reused, and the leasing runtime
//! counts both in [`crate::stats::NetStats`] (`stacks_*`).

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, Once, OnceLock};

/// Canary word written (×[`CANARY_WORDS`]) at the low end of every stack.
///
/// Checked lock-free at each suspension point; see [`canary_intact`].
pub const CANARY: usize = 0xC0DE_57AC_CA11_AB1E_u64 as usize;

/// Number of canary words stamped at the usable base of each stack.
pub const CANARY_WORDS: usize = 4;

/// Guard-region size in bytes for `mmap`-backed stacks (rounded up to the
/// page size at allocation time). 64 KiB catches frames that leap well past
/// the stack base, not just single-page overruns.
pub const GUARD_BYTES: usize = 64 * 1024;

#[cfg(target_os = "linux")]
mod sys {
    //! Minimal raw libc surface. The workspace is offline and deliberately
    //! has no `libc` crate; these match the x86_64/aarch64 LP64 glibc ABI.
    #![allow(missing_docs)]

    use std::os::raw::{c_int, c_void};

    pub const PROT_NONE: c_int = 0;
    pub const PROT_READ: c_int = 1;
    pub const PROT_WRITE: c_int = 2;
    pub const MAP_PRIVATE: c_int = 0x02;
    pub const MAP_ANONYMOUS: c_int = 0x20;
    pub const MAP_STACK: c_int = 0x0002_0000;
    pub const MAP_FAILED: usize = usize::MAX;
    pub const SC_PAGESIZE: c_int = 30;
    pub const SIGSEGV: c_int = 11;
    pub const SA_SIGINFO: c_int = 4;
    pub const SA_ONSTACK: c_int = 0x0800_0000;

    /// glibc `struct sigaction` for LP64 Linux: handler pointer, 1024-bit
    /// signal mask, flags (padded to 8), restorer.
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct Sigaction {
        pub handler: usize,
        pub mask: [u64; 16],
        pub flags: c_int,
        pub _pad: c_int,
        pub restorer: usize,
    }

    /// Prefix of `siginfo_t`: three ints, 4 bytes padding (the union that
    /// follows holds pointers, so it is 8-aligned), then `si_addr` for
    /// SIGSEGV.
    #[repr(C)]
    pub struct SigInfo {
        pub si_signo: c_int,
        pub si_errno: c_int,
        pub si_code: c_int,
        pub _pad: c_int,
        pub si_addr: usize,
    }

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
        pub fn mprotect(addr: *mut c_void, len: usize, prot: c_int) -> c_int;
        pub fn sysconf(name: c_int) -> i64;
        pub fn sigaction(sig: c_int, act: *const Sigaction, old: *mut Sigaction) -> c_int;
        pub fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        pub fn abort() -> !;
    }
}

#[cfg(target_os = "linux")]
fn page_size() -> usize {
    static PAGE: OnceLock<usize> = OnceLock::new();
    *PAGE.get_or_init(|| {
        let p = unsafe { sys::sysconf(sys::SC_PAGESIZE) };
        if p > 0 {
            p as usize
        } else {
            4096
        }
    })
}

/// One coroutine stack: either an `mmap` region with a leading guard, or a
/// heap slice with only the canary for protection.
pub struct CoroStack {
    /// Mapping base (the guard region's first byte) for mmap stacks;
    /// allocation base for heap stacks.
    base: usize,
    /// Total mapped/allocated length in bytes.
    total: usize,
    /// Guard bytes at the low end (0 for heap stacks).
    guard: usize,
    /// Requested usable size — the [`StackPool`] bucket key.
    size_class: usize,
    /// Backing storage for the heap fallback (`None` for mmap stacks).
    heap: Option<Box<[u8]>>,
}

// The raw base pointer refers to memory exclusively owned by this value.
unsafe impl Send for CoroStack {}

impl CoroStack {
    /// Allocate a stack with `usable` read-write bytes. Prefers a guarded
    /// `mmap` region; falls back to a heap slice if unavailable.
    pub fn new(usable: usize) -> CoroStack {
        #[cfg(target_os = "linux")]
        if let Some(s) = CoroStack::new_mmap(usable) {
            return s;
        }
        CoroStack::new_heap(usable)
    }

    #[cfg(target_os = "linux")]
    fn new_mmap(usable: usize) -> Option<CoroStack> {
        let page = page_size();
        let round = |n: usize| n.div_ceil(page) * page;
        let guard = round(GUARD_BYTES.max(page));
        let body = round(usable.max(page));
        let total = guard + body;
        let base = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                total,
                sys::PROT_NONE,
                sys::MAP_PRIVATE | sys::MAP_ANONYMOUS | sys::MAP_STACK,
                -1,
                0,
            )
        };
        if base as usize == sys::MAP_FAILED || base.is_null() {
            return None;
        }
        let rw = unsafe {
            sys::mprotect(
                (base as usize + guard) as *mut _,
                body,
                sys::PROT_READ | sys::PROT_WRITE,
            )
        };
        if rw != 0 {
            unsafe { sys::munmap(base, total) };
            return None;
        }
        register_guard(base as usize, base as usize + guard);
        let s = CoroStack {
            base: base as usize,
            total,
            guard,
            size_class: usable,
            heap: None,
        };
        s.write_canary();
        Some(s)
    }

    fn new_heap(usable: usize) -> CoroStack {
        // Over-allocate so both the canary base and the top can be 16-aligned.
        let len = usable.max(4096) + 32;
        let heap = vec![0u8; len].into_boxed_slice();
        let base = heap.as_ptr() as usize;
        let s = CoroStack {
            base,
            total: len,
            guard: 0,
            size_class: usable,
            heap: Some(heap),
        };
        s.write_canary();
        s
    }

    /// Highest usable address (exclusive); the initial stack pointer is
    /// derived from this, aligned down to 16.
    pub fn top(&self) -> usize {
        (self.base + self.total) & !15
    }

    /// Address of the canary words: the lowest 16-aligned usable address.
    pub fn canary_addr(&self) -> usize {
        (self.base + self.guard + 15) & !15
    }

    /// The usable size this stack was requested with (pool bucket key).
    pub fn size_class(&self) -> usize {
        self.size_class
    }

    /// Total bytes this stack holds in virtual memory (guard included).
    pub fn footprint(&self) -> usize {
        self.total
    }

    /// (Re-)stamp the canary pattern at the stack base.
    pub fn write_canary(&self) {
        let p = self.canary_addr() as *mut usize;
        for i in 0..CANARY_WORDS {
            unsafe { p.add(i).write_volatile(CANARY) };
        }
    }

    /// Check the canary; `false` means the low end of the stack was
    /// overwritten (overflow on a heap-backed stack, or a stray write).
    pub fn canary_ok(&self) -> bool {
        canary_intact(self.canary_addr())
    }
}

impl Drop for CoroStack {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        if self.heap.is_none() {
            unsafe { sys::munmap(self.base as *mut _, self.total) };
        }
    }
}

/// Check [`CANARY_WORDS`] canary words at `addr` (0 ⇒ vacuously intact).
///
/// Kept free-standing so the coroutine runtime can verify a stack it does
/// not hold a [`CoroStack`] reference to, from just the recorded address.
pub fn canary_intact(addr: usize) -> bool {
    if addr == 0 {
        return true;
    }
    let p = addr as *const usize;
    (0..CANARY_WORDS).all(|i| unsafe { p.add(i).read_volatile() } == CANARY)
}

/// Abort the process with a stack-corruption diagnostic. Called when a
/// canary check fails; async-signal-safety is not required here (we are on
/// a normal code path), so plain `eprintln!` is fine.
pub fn canary_violation(slot: usize) -> ! {
    eprintln!(
        "sim-net: fatal: coroutine stack canary clobbered (process slot {slot}); \
         a simulated process overflowed its DEFAULT_PROC_STACK-byte stack \
         (sim_mpi::runtime); keep deep recursion off it. Aborting before the \
         corruption spreads."
    );
    std::process::abort();
}

// ---------------------------------------------------------------------------
// Guard registry + SIGSEGV diagnostics (Linux only)
// ---------------------------------------------------------------------------

/// Capacity of the static guard-range table scanned by the signal handler.
const MAX_GUARDS: usize = 16384;

#[cfg(target_os = "linux")]
static GUARD_LO: [AtomicUsize; MAX_GUARDS] = [const { AtomicUsize::new(0) }; MAX_GUARDS];
#[cfg(target_os = "linux")]
static GUARD_HI: [AtomicUsize; MAX_GUARDS] = [const { AtomicUsize::new(0) }; MAX_GUARDS];
#[cfg(target_os = "linux")]
static GUARD_COUNT: AtomicUsize = AtomicUsize::new(0);

/// Record a guard range `[lo, hi)` for the SIGSEGV handler. The store of
/// `hi` happens-before the release store of `lo`, and the handler reads
/// `lo` with acquire, so a nonzero `lo` implies a valid `hi` — the table is
/// scannable from an async signal context without locks.
#[cfg(target_os = "linux")]
fn register_guard(lo: usize, hi: usize) {
    let i = GUARD_COUNT.fetch_add(1, Ordering::Relaxed);
    if i < MAX_GUARDS {
        GUARD_HI[i].store(hi, Ordering::Relaxed);
        GUARD_LO[i].store(lo, Ordering::Release);
    }
}

#[cfg(target_os = "linux")]
fn fault_in_guard(addr: usize) -> bool {
    if addr == 0 {
        return false;
    }
    let n = GUARD_COUNT.load(Ordering::Relaxed).min(MAX_GUARDS);
    for i in 0..n {
        let lo = GUARD_LO[i].load(Ordering::Acquire);
        if lo != 0 && addr >= lo && addr < GUARD_HI[i].load(Ordering::Relaxed) {
            return true;
        }
    }
    false
}

#[cfg(target_os = "linux")]
static PREV_SEGV: OnceLock<sys::Sigaction> = OnceLock::new();

/// SIGSEGV handler: faults inside a registered coroutine guard region get a
/// diagnostic and an abort; everything else is chained to the previously
/// installed handler (std's own overflow reporter) or re-raised with the
/// default disposition. Only async-signal-safe calls (`write`, `abort`,
/// `sigaction`) are made on the guard path.
#[cfg(target_os = "linux")]
unsafe extern "C" fn on_segv(
    _sig: std::os::raw::c_int,
    info: *mut sys::SigInfo,
    ctx: *mut std::os::raw::c_void,
) {
    let addr = if info.is_null() { 0 } else { (*info).si_addr };
    if fault_in_guard(addr) {
        const MSG: &[u8] = b"sim-net: fatal: simulated-process stack overflow \
(coroutine guard page hit): stacks are DEFAULT_PROC_STACK bytes \
(sim_mpi::runtime); keep deep recursion off them\n";
        sys::write(2, MSG.as_ptr() as *const _, MSG.len());
        sys::abort();
    }
    // Not one of ours: defer to whatever was installed before us.
    if let Some(prev) = PREV_SEGV.get() {
        if prev.flags & sys::SA_SIGINFO != 0 && prev.handler > 1 {
            let f: unsafe extern "C" fn(
                std::os::raw::c_int,
                *mut sys::SigInfo,
                *mut std::os::raw::c_void,
            ) = std::mem::transmute(prev.handler);
            f(sys::SIGSEGV, info, ctx);
            return;
        }
    }
    // No previous siginfo handler: restore the default disposition and
    // return; the faulting instruction re-executes and the kernel applies
    // the default action.
    let dfl = sys::Sigaction {
        handler: 0,
        mask: [0; 16],
        flags: 0,
        _pad: 0,
        restorer: 0,
    };
    sys::sigaction(sys::SIGSEGV, &dfl, std::ptr::null_mut());
}

/// Install the guard-page SIGSEGV handler (idempotent). `SA_ONSTACK` is
/// essential: the faulting thread's stack pointer is *inside* the guard, so
/// the handler must run on the sigaltstack that std installs per thread.
pub fn install_overflow_handler() {
    #[cfg(target_os = "linux")]
    {
        static INSTALL: Once = Once::new();
        INSTALL.call_once(|| unsafe {
            let act = sys::Sigaction {
                handler: on_segv as *const () as usize,
                mask: [0; 16],
                flags: sys::SA_SIGINFO | sys::SA_ONSTACK,
                _pad: 0,
                restorer: 0,
            };
            let mut old = sys::Sigaction {
                handler: 0,
                mask: [0; 16],
                flags: 0,
                _pad: 0,
                restorer: 0,
            };
            if sys::sigaction(sys::SIGSEGV, &act, &mut old) == 0 {
                let _ = PREV_SEGV.set(old);
            }
        });
    }
}

// ---------------------------------------------------------------------------
// StackPool
// ---------------------------------------------------------------------------

/// Process-global recycling pool for coroutine stacks, bucketed by requested
/// usable size. Like the worker-thread [`super::CarrierPool`], back-to-back
/// jobs reuse stacks instead of re-mapping, and nothing is ever unmapped.
pub struct StackPool {
    idle: Mutex<HashMap<usize, Vec<CoroStack>>>,
}

/// Whether a stack lease was freshly mapped or recycled from the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StackSource {
    /// A new stack was allocated.
    Fresh,
    /// An idle pooled stack was reused.
    Reused,
}

impl StackPool {
    /// The process-wide pool shared by every coroutine runtime.
    pub fn global() -> &'static StackPool {
        static POOL: OnceLock<StackPool> = OnceLock::new();
        POOL.get_or_init(|| StackPool {
            idle: Mutex::new(HashMap::new()),
        })
    }

    /// Lease a stack with `usable` read-write bytes.
    pub fn get(&self, usable: usize) -> (CoroStack, StackSource) {
        let pooled = {
            let mut idle = self.idle.lock().unwrap_or_else(|e| e.into_inner());
            idle.get_mut(&usable).and_then(Vec::pop)
        };
        match pooled {
            Some(s) => (s, StackSource::Reused),
            None => (CoroStack::new(usable), StackSource::Fresh),
        }
    }

    /// Return a stack to the pool. The canary is verified and re-stamped;
    /// a clobbered canary aborts (the neighbor-corruption backstop for
    /// heap-backed stacks).
    pub fn put(&self, s: CoroStack) {
        if !s.canary_ok() {
            canary_violation(usize::MAX);
        }
        s.write_canary();
        let mut idle = self.idle.lock().unwrap_or_else(|e| e.into_inner());
        idle.entry(s.size_class()).or_default().push(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mmap_stack_has_guard_and_canary() {
        let s = CoroStack::new(64 * 1024);
        if cfg!(target_os = "linux") {
            assert!(s.guard != 0, "linux should take the mmap path");
        }
        assert!(s.canary_ok());
        assert_eq!(s.top() % 16, 0);
        assert_eq!(s.canary_addr() % 16, 0);
        assert!(s.top() - s.canary_addr() >= 64 * 1024 - 32);
    }

    #[test]
    fn heap_stack_canary_detects_overwrite() {
        let s = CoroStack::new_heap(16 * 1024);
        assert_eq!(s.guard, 0);
        assert!(s.canary_ok());
        // Simulate an overflow scribbling over the low end of the stack.
        unsafe { (s.canary_addr() as *mut usize).write_volatile(0xDEAD) };
        assert!(!s.canary_ok());
        s.write_canary();
        assert!(s.canary_ok());
    }

    #[test]
    fn pool_reuses_stacks_by_size_class() {
        let pool = StackPool {
            idle: Mutex::new(HashMap::new()),
        };
        let (a, src_a) = pool.get(32 * 1024);
        assert_eq!(src_a, StackSource::Fresh);
        let a_base = a.canary_addr();
        pool.put(a);
        let (b, src_b) = pool.get(32 * 1024);
        assert_eq!(src_b, StackSource::Reused);
        assert_eq!(b.canary_addr(), a_base, "same stack came back");
        let (_c, src_c) = pool.get(64 * 1024);
        assert_eq!(src_c, StackSource::Fresh, "different size class");
    }
}
