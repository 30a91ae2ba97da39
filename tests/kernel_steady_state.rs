//! Steady-state allocation of the NAS kernels: once a rank's grids exist, an
//! iteration may allocate what it sends and next to nothing else.
//!
//! A counting `#[global_allocator]` (bytes requested, not calls) runs each
//! kernel as a 4-rank native job at `workers(1)` for 4 and for 8 iterations;
//! the difference is what four more iterations cost, set-up cancelled out.
//! Per rank and iteration that must stay under 4 KiB plus the payload bytes
//! the rank sends (`workloads::nas` module docs: the steady-state rule). A
//! 4096-point grid is 32 KiB, so one `u.clone()` per sweep, one `Vec<f64>`
//! per halo face or one marshalling vector per transpose fails this test —
//! the parent of this rule allocated several hundred KiB per CG/MG iteration.
//!
//! One `#[test]` only: the counter is process-wide, and a second test running
//! beside it would be counted too.

use sdr_core::native_job;
use sim_net::LogGpModel;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use workloads::nas::{run_kernel, NasConfig, NasKernel};

static REQUESTED: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a statistic and publishes no data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REQUESTED.fetch_add(
            new_size.saturating_sub(layout.size()) as u64,
            Ordering::Relaxed,
        );
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const RANKS: usize = 4;

/// `(bytes requested from the allocator, payload bytes sent)` by one job.
fn job_cost(kernel: NasKernel, iterations: usize) -> (u64, u64) {
    let cfg = NasConfig {
        local_size: 4096,
        iterations,
        compute_ns_per_point: 1,
    };
    let before = REQUESTED.load(Ordering::Relaxed);
    let report = native_job(RANKS)
        .network(LogGpModel::fast_test_model())
        .workers(1)
        .run(move |p| run_kernel(kernel, p, &cfg));
    let requested = REQUESTED.load(Ordering::Relaxed) - before;
    assert!(report.all_finished(), "{kernel:?} x{iterations} failed");
    (requested, report.stats.total_bytes())
}

#[test]
fn an_iteration_allocates_its_payloads_and_under_4_kib_more() {
    for kernel in NasKernel::all() {
        // Carrier threads, coroutine stacks and table capacities are warm
        // after one job; the two measured jobs then differ by iterations only.
        job_cost(kernel, 4);
        let (short_alloc, short_sent) = job_cost(kernel, 4);
        let (long_alloc, long_sent) = job_cost(kernel, 8);
        let per_rank_iteration =
            |long: u64, short: u64| long.saturating_sub(short) / 4 / RANKS as u64;
        let allocated = per_rank_iteration(long_alloc, short_alloc);
        let sent = per_rank_iteration(long_sent, short_sent);
        let payload = match kernel {
            // 8-byte words only, which travel inline in the handle.
            NasKernel::Cg | NasKernel::Mg => 0,
            NasKernel::Bt | NasKernel::Sp => sent,
            // The transpose slab is one buffer of `RANKS` blocks; the block
            // a rank keeps for itself never crosses the fabric.
            NasKernel::Ft => sent + sent / (RANKS as u64 - 1),
        };
        eprintln!(
            "{kernel:?}: {allocated} B allocated, {payload} B of payload, per rank and iteration"
        );
        assert!(
            allocated <= payload + 4096,
            "{kernel:?} allocates {allocated} B per rank and iteration in steady state, \
             {} B beyond the {payload} B of payload it sends",
            allocated - payload
        );
    }
}
