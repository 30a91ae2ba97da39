//! Guarded coroutine stacks and the process-global stack pool.
//!
//! Every simulated process ([`super::coro`]) runs on a stack allocated here
//! rather than on an OS thread's stack, and every stack is of one kind: an
//! `mmap` region created `PROT_NONE` whose usable portion above a
//! [`GUARD_BYTES`] guard is flipped to read/write. Running off the bottom of
//! the stack faults inside the guard, and the [`install_overflow_handler`]
//! SIGSEGV handler converts that fault into an immediate diagnostic +
//! `abort()` instead of silent corruption of a neighboring allocation. Pages
//! are committed lazily by the kernel, so thousands of 1 MiB stacks cost
//! virtual address space, not resident memory. A canary pattern at the low
//! end, checked once when a coroutine retires, catches a stray write that
//! skipped the guard.
//!
//! A stack that cannot be mapped with its guard is a [`StackError`], never a
//! stack: `mmap` or `mprotect` failing (the host's `vm.max_map_count`, an
//! address-space limit) or a full guard table ([`MAX_GUARDS`] entries). The
//! error names the limit, and the job that leased the stack fails with it.
//!
//! The [`StackPool`] recycles stacks across coroutines and across jobs (as
//! the worker-thread [`super::CarrierPool`] recycles threads), bucketed by
//! requested size; only a failed job's fresh leases are unmapped, freeing
//! their guard entries. Each lease reports whether it was fresh or reused,
//! and the leasing runtime counts both in [`crate::stats::NetStats`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, Once, OnceLock};

/// Canary word written (×[`CANARY_WORDS`]) at the low end of every stack and
/// checked when its coroutine retires ([`CoroStack::canary_ok`]).
pub const CANARY: usize = 0xC0DE_57AC_CA11_AB1E_u64 as usize;

/// Number of canary words stamped at the usable base of each stack.
pub const CANARY_WORDS: usize = 4;

/// Guard-region size in bytes (rounded up to the page size at allocation
/// time). 64 KiB catches frames that leap well past the stack base, not just
/// single-page overruns.
pub const GUARD_BYTES: usize = 64 * 1024;

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

/// One coroutine stack: an `mmap` region with a leading `PROT_NONE` guard.
pub struct CoroStack {
    /// Mapping base: the guard region's first byte.
    base: usize,
    /// Total mapped length in bytes.
    total: usize,
    /// Guard bytes at the low end.
    guard: usize,
    /// This stack's entry in the guard table.
    guard_slot: usize,
    /// Requested usable size — the [`StackPool`] bucket key.
    size_class: usize,
}

// The raw base pointer refers to memory exclusively owned by this value.
unsafe impl Send for CoroStack {}

/// Why a guarded stack could not be had. Building one allocates nothing, so
/// it can be returned with the address space full; its `Display` names the
/// limit hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StackError {
    /// `mmap` or `mprotect` (the name) of this many bytes failed with this
    /// OS error.
    Map(&'static str, usize, i32),
    /// The SIGSEGV guard table holds [`MAX_GUARDS`] stacks already.
    GuardTableFull,
}

impl std::fmt::Display for StackError {
    /// A guarded stack is two mappings, so a failed map also names the
    /// host's mapping limit, as `/proc` reads it now.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("cannot map a guarded coroutine stack: ")?;
        match *self {
            StackError::Map(call, bytes, errno) => {
                let max_map_count = std::fs::read_to_string("/proc/sys/vm/max_map_count")
                    .map_or_else(|e| format!("unreadable ({e})"), |s| s.trim().to_string());
                let err = std::io::Error::from_raw_os_error(errno);
                write!(
                    f,
                    "{call} of {bytes} bytes failed: {err}; vm.max_map_count is {max_map_count}"
                )
            }
            StackError::GuardTableFull => {
                write!(f, "the SIGSEGV guard table is full ({MAX_GUARDS} entries)")
            }
        }
    }
}

impl CoroStack {
    /// Map a stack with `usable` read-write bytes above its guard, or say
    /// which limit stopped it.
    pub fn new(usable: usize) -> Result<CoroStack, StackError> {
        let os = |call, bytes| {
            let errno = std::io::Error::last_os_error().raw_os_error();
            StackError::Map(call, bytes, errno.unwrap_or(0))
        };
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
        if base as usize == sys::MAP_FAILED {
            return Err(os("mmap", total));
        }
        let rw = unsafe {
            sys::mprotect(
                (base as usize + guard) as *mut _,
                body,
                sys::PROT_READ | sys::PROT_WRITE,
            )
        };
        let registered = if rw != 0 {
            Err(os("mprotect", body))
        } else {
            register_guard(base as usize, base as usize + guard)
        };
        let guard_slot = registered.inspect_err(|_| {
            unsafe { sys::munmap(base, total) };
        })?;
        let s = CoroStack {
            base: base as usize,
            total,
            guard,
            guard_slot,
            size_class: usable,
        };
        s.write_canary();
        Ok(s)
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

    /// Total bytes this stack holds in virtual memory (guard included).
    pub fn footprint(&self) -> usize {
        self.total
    }

    /// Stamp the canary pattern at the stack base.
    fn write_canary(&self) {
        let p = self.canary_addr() as *mut usize;
        for i in 0..CANARY_WORDS {
            unsafe { p.add(i).write_volatile(CANARY) };
        }
    }

    /// Check the canary; `false` means a stray write reached the low end of
    /// the stack without touching the guard.
    pub fn canary_ok(&self) -> bool {
        let p = self.canary_addr() as *const usize;
        (0..CANARY_WORDS).all(|i| unsafe { p.add(i).read_volatile() } == CANARY)
    }
}

impl Drop for CoroStack {
    /// Unmap the stack and free its guard-table entry for the next one.
    fn drop(&mut self) {
        GUARD_LO[self.guard_slot].store(0, Ordering::Release);
        unsafe { sys::munmap(self.base as *mut _, self.total) };
        GUARD_FREE
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(self.guard_slot);
    }
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
// Guard registry + SIGSEGV diagnostics
// ---------------------------------------------------------------------------

/// Capacity of the static guard-range table scanned by the signal handler:
/// the most stacks one OS process can map.
pub const MAX_GUARDS: usize = 16384;

static GUARD_LO: [AtomicUsize; MAX_GUARDS] = [const { AtomicUsize::new(0) }; MAX_GUARDS];
static GUARD_HI: [AtomicUsize; MAX_GUARDS] = [const { AtomicUsize::new(0) }; MAX_GUARDS];
static GUARD_COUNT: AtomicUsize = AtomicUsize::new(0);

/// Entries of unmapped stacks, taken before the count grows.
static GUARD_FREE: Mutex<Vec<usize>> = Mutex::new(Vec::new());

/// Record a guard range `[lo, hi)` for the SIGSEGV handler and return its
/// entry. The store of `hi` happens-before the release store of `lo`, and the
/// handler reads `lo` with acquire, so a nonzero `lo` implies a valid `hi` —
/// the table is scannable from an async signal context without locks. Past
/// [`MAX_GUARDS`] entries the count keeps growing; readers clamp it.
fn register_guard(lo: usize, hi: usize) -> Result<usize, StackError> {
    let freed = GUARD_FREE.lock().unwrap_or_else(|e| e.into_inner()).pop();
    let i = freed.unwrap_or_else(|| GUARD_COUNT.fetch_add(1, Ordering::Relaxed));
    if i >= MAX_GUARDS {
        return Err(StackError::GuardTableFull);
    }
    GUARD_HI[i].store(hi, Ordering::Relaxed);
    GUARD_LO[i].store(lo, Ordering::Release);
    Ok(i)
}

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

static PREV_SEGV: OnceLock<sys::Sigaction> = OnceLock::new();

/// SIGSEGV handler: faults inside a registered coroutine guard region get a
/// diagnostic and an abort; everything else is chained to the previously
/// installed handler (std's own overflow reporter) or re-raised with the
/// default disposition. Only async-signal-safe calls (`write`, `abort`,
/// `sigaction`) are made on the guard path.
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

    /// Lease a stack with `usable` read-write bytes: an idle one, or a
    /// freshly mapped one if the limits of [`CoroStack::new`] allow it.
    pub fn get(&self, usable: usize) -> Result<(CoroStack, StackSource), StackError> {
        let pooled = {
            let mut idle = self.idle.lock().unwrap_or_else(|e| e.into_inner());
            idle.get_mut(&usable).and_then(Vec::pop)
        };
        match pooled {
            Some(s) => Ok((s, StackSource::Reused)),
            None => CoroStack::new(usable).map(|s| (s, StackSource::Fresh)),
        }
    }

    /// Return a stack to the pool. A retiring coroutine's stack has had its
    /// canary checked by the runtime; an unused one is still intact.
    pub fn put(&self, s: CoroStack) {
        let mut idle = self.idle.lock().unwrap_or_else(|e| e.into_inner());
        idle.entry(s.size_class).or_default().push(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stack_has_its_guard_and_an_aligned_canary() {
        let s = CoroStack::new(64 * 1024).expect("map a stack");
        assert!(s.guard >= GUARD_BYTES);
        assert!(s.canary_ok());
        assert_eq!(s.top() % 16, 0);
        assert_eq!(s.canary_addr() % 16, 0);
        assert!(s.top() - s.canary_addr() >= 64 * 1024 - 32);
    }

    #[test]
    fn guarded_stack_canary_detects_overwrite() {
        let s = CoroStack::new(16 * 1024).expect("map a stack");
        assert!(s.canary_ok());
        // A stray write at the low end of the stack that skipped the guard.
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
        let (a, src_a) = pool.get(32 * 1024).unwrap();
        assert_eq!(src_a, StackSource::Fresh);
        let a_base = a.canary_addr();
        pool.put(a);
        let (b, src_b) = pool.get(32 * 1024).unwrap();
        assert_eq!(src_b, StackSource::Reused);
        assert_eq!(b.canary_addr(), a_base, "same stack came back");
        let (_c, src_c) = pool.get(64 * 1024).unwrap();
        assert_eq!(src_c, StackSource::Fresh, "different size class");
    }
}
