//! Coroutine stacks are pooled per process, across jobs.
//!
//! Every job's stacks are `DEFAULT_PROC_STACK` bytes, one pool bucket shared
//! by every job of the OS process. This test is the only one in its binary,
//! so no concurrent job leases from that bucket between the two jobs below
//! and the reuse accounting is exact.

use bytes::Bytes;
use sim_mpi::runtime::DEFAULT_PROC_STACK;
use sim_mpi::JobBuilder;
use sim_net::LogGpModel;

#[test]
fn coroutine_jobs_reuse_stacks_and_bound_os_threads() {
    // A 16-process job runs on exactly `workers` host threads, leases one
    // stack per process, and a back-to-back job draws every stack from the
    // pool the first one filled.
    let run = || {
        JobBuilder::new(16)
            .network(LogGpModel::fast_test_model())
            .workers(2)
            .run(|p| {
                let world = p.world();
                let peer = (p.rank() + 1) % p.size();
                let from = (p.rank() + p.size() - 1) % p.size();
                p.sendrecv_bytes(world, peer, 0, Bytes::from(vec![1u8; 16]), from as i64, 0);
                p.rank()
            })
    };
    let first = run();
    let second = run();
    assert!(first.all_finished() && second.all_finished());
    // OS threads: exactly the worker pool, never one per process.
    assert_eq!(first.threads_spawned + first.threads_reused, 2);
    assert_eq!(second.threads_spawned + second.threads_reused, 2);
    // Stacks: one lease per process, all fresh on the first job...
    assert_eq!(
        first.stats.stacks_allocated() + first.stats.stacks_reused(),
        16
    );
    // ...and all recycled on the second.
    assert_eq!(second.stats.stacks_allocated(), 0, "no new stacks");
    assert_eq!(second.stats.stacks_reused(), 16, "all 16 from the pool");
    assert!(second.stats.stack_bytes_peak() >= 16 * DEFAULT_PROC_STACK as u64);
    assert!(
        first.stats.stack_switches() >= 16,
        "every process switched in"
    );
}
