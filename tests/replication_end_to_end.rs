//! Cross-crate integration tests: the full stack (sim-net fabric, sim-mpi
//! runtime, SDR-MPI protocol, workloads) exercised end to end.

mod common;

use common::fast;
use sdr_core::{native_job, replicated_job, ReplicationConfig};
use sim_mpi::datatype::{bytes_to_f64s, f64s_to_bytes};
use sim_mpi::{Process, ReduceOp, ANY_SOURCE};
use sim_net::{CrashSchedule, EndpointId, LogGpModel, NetFaultConfig, SimTime};
use workloads::apps::{run_hpccg, AppConfig};
use workloads::nas::{run_kernel, NasConfig, NasKernel};

#[test]
fn all_nas_kernels_match_native_under_replication() {
    let cfg = NasConfig::test_size();
    for kernel in NasKernel::all() {
        let app = move |p: &mut Process| run_kernel(kernel, p, &cfg);
        let native = native_job(4).network(fast()).run(app);
        let repl = replicated_job(4, ReplicationConfig::dual())
            .network(fast())
            .run(app);
        assert!(native.all_finished() && repl.all_finished(), "{kernel:?}");
        assert_eq!(
            native.primary_results(),
            repl.primary_results(),
            "{kernel:?} diverged under replication"
        );
    }
}

/// With a second run permit in circulation a retransmission timeout still
/// waits in real time for the peer that may be executing concurrently
/// (`Endpoint::runs_alone` is false there; DESIGN.md §5.5). The `workers: 1`
/// pins cannot reach that branch, so this job does.
#[test]
fn lossy_dual_sp_at_two_workers_matches_its_fault_free_reference() {
    common::with_deadline("lossy_dual_sp_at_two_workers", |_| {
        let cfg = NasConfig::class_s();
        let app = move |p: &mut Process| run_kernel(NasKernel::Sp, p, &cfg);
        let reference = native_job(16).network(fast()).run(app);
        assert!(reference.all_finished());
        let lossy = replicated_job(16, ReplicationConfig::dual())
            .network(fast())
            .workers(2)
            .net_faults(NetFaultConfig::lossy_links(), 19)
            .run(app);
        assert!(lossy.all_finished(), "deadlocked {:?}", lossy.deadlocked());
        assert!(lossy.stats.retransmits() > 0, "no frame was lost");
        for proc in &lossy.processes {
            assert_eq!(
                proc.outcome.result(),
                Some(reference.primary_results()[proc.app_rank]),
                "{:?} diverged from the fault-free run",
                proc.endpoint
            );
        }
    });
}

#[test]
fn collectives_and_any_source_under_degree_three() {
    let cfg = ReplicationConfig::with_degree(3);
    let report = replicated_job(4, cfg).network(fast()).run(|p| {
        let world = p.world();
        if p.rank() == 0 {
            let mut total = 0.0;
            for _ in 0..3 {
                let (_, v) = p.recv_bytes(world, ANY_SOURCE, 9);
                total += bytes_to_f64s(&v)[0];
            }
            p.allreduce_f64(world, ReduceOp::Sum, total)
        } else {
            p.send_bytes(world, 0, 9, f64s_to_bytes(&[p.rank() as f64]));
            p.allreduce_f64(world, ReduceOp::Sum, 0.0)
        }
    });
    assert!(report.all_finished());
    for proc in &report.processes {
        assert_eq!(proc.outcome.result(), Some(&6.0));
    }
}

#[test]
fn overheads_stay_small_for_compute_bound_hpccg() {
    let cfg = AppConfig::hpccg_paper_like();
    let app = move |p: &mut Process| run_hpccg(p, &cfg);
    let native = native_job(8).network(LogGpModel::infiniband_20g()).run(app);
    let repl = replicated_job(8, ReplicationConfig::dual())
        .network(LogGpModel::infiniband_20g())
        .run(app);
    assert!(native.all_finished() && repl.all_finished());
    assert_eq!(native.primary_results(), repl.primary_results());
    let overhead =
        (repl.elapsed.as_secs_f64() - native.elapsed.as_secs_f64()) / native.elapsed.as_secs_f64();
    assert!(
        overhead < 0.05,
        "HPCCG replication overhead {:.2}% exceeds the paper's 5% bound",
        overhead * 100.0
    );
}

#[test]
fn crash_during_collective_heavy_run_is_survived() {
    let report = replicated_job(4, ReplicationConfig::dual())
        .network(fast())
        .crash(EndpointId(5), CrashSchedule::AfterSend { nth: 10 })
        .run(|p| {
            let world = p.world();
            let mut acc = 0.0;
            for i in 0..8 {
                p.compute(SimTime::from_micros(20));
                acc += p.allreduce_f64(world, ReduceOp::Sum, (p.rank() + i) as f64);
            }
            acc
        });
    assert_eq!(report.crashed(), vec![EndpointId(5)]);
    // Every primary-replica process finishes with the correct result.
    let expected: f64 = (0..8)
        .map(|i| (0 + i) + (1 + i) + (2 + i) + (3 + i))
        .sum::<usize>() as f64;
    for proc in report.processes.iter().filter(|p| p.replica == 0) {
        assert!(proc.outcome.is_finished());
        assert_eq!(proc.outcome.result(), Some(&expected));
    }
}

#[test]
fn wall_clock_doubles_resources_not_time() {
    // The paper's headline: dual replication uses twice the resources but the
    // wall-clock time stays close to native.
    let cfg = NasConfig::class_d_like();
    let app = move |p: &mut Process| run_kernel(NasKernel::Mg, p, &cfg);
    let native = native_job(8).network(LogGpModel::infiniband_20g()).run(app);
    let repl = replicated_job(8, ReplicationConfig::dual())
        .network(LogGpModel::infiniband_20g())
        .run(app);
    assert_eq!(repl.processes.len(), 2 * native.processes.len());
    let overhead =
        (repl.elapsed.as_secs_f64() - native.elapsed.as_secs_f64()) / native.elapsed.as_secs_f64();
    assert!(overhead < 0.05, "MG overhead {:.2}%", overhead * 100.0);
}
