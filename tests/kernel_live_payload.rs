//! Live payload of the NAS kernels: an iteration releases what it sent and
//! received before the next one allocates, so a job's memory high-water mark
//! does not grow with its iteration count.
//!
//! A counting `#[global_allocator]` tracks the bytes live at any moment and
//! their high-water mark. Each kernel runs as a 16-rank job at `workers(1)`,
//! native and dual, for 1 and for 2 iterations; the second iteration may
//! raise the job's peak by at most 4 KiB per application rank (`workloads::nas`
//! module docs: the steady-state rule). An FT rank that kept its received
//! all-to-all blocks, or its own send slab, alive into the next iteration
//! would marshal the next slab on top of them: at this size that is 64 KiB
//! per block, one slab per rank, and this test fails.
//!
//! One `#[test]` only: the counters are process-wide, and a second test
//! running beside it would be counted too.

use sdr_core::{native_job, replicated_job, ReplicationConfig};
use sim_mpi::JobBuilder;
use sim_net::LogGpModel;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use workloads::nas::{run_kernel, NasConfig, NasKernel};

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Ordering::Relaxed);
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are statistics and publish no data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            grow(new_size);
            shrink(layout.size());
        }
        new
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const RANKS: usize = 16;

fn job(dual: bool) -> JobBuilder {
    if dual {
        replicated_job(RANKS, ReplicationConfig::dual())
    } else {
        native_job(RANKS)
    }
}

/// How far one job raised the live bytes above what was live at its start.
fn job_peak(dual: bool, kernel: NasKernel, iterations: usize) -> u64 {
    let cfg = NasConfig {
        local_size: 4096,
        iterations,
        compute_ns_per_point: 1,
    };
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let report = job(dual)
        .network(LogGpModel::fast_test_model())
        .workers(1)
        .run(move |p| run_kernel(kernel, p, &cfg));
    let peak = PEAK.load(Ordering::Relaxed) - base;
    assert!(report.all_finished(), "{kernel:?} x{iterations} failed");
    peak
}

#[test]
fn a_second_iteration_raises_the_live_peak_by_under_4_kib_per_rank() {
    for kernel in NasKernel::all() {
        for (layout, dual) in [("native", false), ("dual", true)] {
            // Carrier threads, coroutine stacks and table capacities are warm
            // after one job; the two measured jobs then differ by iterations
            // only.
            job_peak(dual, kernel, 1);
            let one = job_peak(dual, kernel, 1);
            let two = job_peak(dual, kernel, 2);
            let per_rank = two.saturating_sub(one) / RANKS as u64;
            eprintln!("{kernel:?} {layout}: peak {one} B -> {two} B, +{per_rank} B per rank");
            assert!(
                per_rank <= 4096,
                "{kernel:?} {layout}: a second iteration raises the live peak by {per_rank} B \
                 per rank (peak {one} B after 1 iteration, {two} B after 2): an iteration \
                 still holds what the previous one sent or received"
            );
        }
    }
}
