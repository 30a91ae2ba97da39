//! Send-determinism, Definition 1 of the paper, checked by re-running.
//!
//! An algorithm is send-deterministic if, for a given input, every process
//! emits the same sequence of send events in any correct execution, whatever
//! the timing or relative order of message receptions. The check here is
//! operational: run the application several times under different timing,
//! record every application-level send with the job trace, and compare the
//! per-rank sequences of (destination, tag, payload digest, length).
//!
//! Run 0 is the unperturbed reference. Every other run installs the fabric's
//! own seeded delay policy (`sim_net::netfault`, delay-only: nothing is
//! dropped or duplicated), seeded per run, and staggers each rank's start.
//!
//! The paper's claim (from Cappello et al., reference 5 of the paper) is that
//! SPMD HPC codes are send-deterministic while master–worker codes are not;
//! the tests below exercise both directions, and every workload the paper's
//! Tables 1 and 2 run.

use bytes::Bytes;
use sdr_mpi::sdr_core::native_job;
use sdr_mpi::sim_mpi::datatype::{bytes_to_f64s, f64s_to_bytes};
use sdr_mpi::sim_mpi::{Process, ReduceOp, ANY_SOURCE, ANY_TAG};
use sdr_mpi::sim_net::trace::EventKind;
use sdr_mpi::sim_net::{EndpointId, LogGpModel, NetFaultConfig, SimTime};
use sdr_mpi::workloads::apps::{run_cm1, run_hpccg, AppConfig};
use sdr_mpi::workloads::nas::{run_cg, run_kernel, NasConfig, NasKernel};

/// The perturbation of every run but the reference: a quarter of all
/// application messages arrive 5 µs late (about 50 wire latencies on the
/// test model). A delay stalls its link, so per-link FIFO order holds and
/// only the interleaving across senders changes.
const DELAYS: NetFaultConfig = NetFaultConfig {
    drop_per_64k: 0,
    dup_per_64k: 0,
    delay_per_64k: 16_384,
    delay_ns: 5_000,
    ack_only: false,
};

/// Run `app` natively on `ranks` ranks `runs` times and return the ranks
/// whose send sequence differs from the reference run's.
///
/// Each perturbed run (every run but the reference) samples a different
/// *correct execution* along two axes: seeded message delays (changing
/// virtual arrival orders) and a seeded per-rank start-time stagger
/// (changing which process reaches each communication point first). Runs
/// use a single run permit, so dispatch follows virtual time and each run is
/// one reproducible execution, fixed by its delay seed and stagger. A
/// send-deterministic application emits the same sends whatever the timing,
/// so neither axis may change its sequences.
fn divergent_ranks<A, R>(ranks: usize, runs: usize, app: A) -> Vec<usize>
where
    A: Fn(&mut Process) -> R + Send + Sync + Clone + 'static,
    R: Send + 'static,
{
    assert!(runs >= 2, "need at least two runs to compare");
    let mut sequences = Vec::new();
    for run in 0..runs as u64 {
        let mut builder = native_job(ranks)
            .network(LogGpModel::fast_test_model())
            .workers(1)
            .trace(true);
        if run > 0 {
            builder = builder.net_faults(DELAYS, 0xC0FFEE ^ (run * 7919));
        }
        let app = app.clone();
        let report = builder.run(move |p| {
            if run > 0 {
                // Stagger this rank's start by up to 20 µs (seeded, per run
                // and per rank).
                let mut z = (0xA5A5_5A5A_u64 ^ run.wrapping_mul(0x9E3779B97F4A7C15))
                    .wrapping_add((p.rank() as u64).wrapping_mul(0xD1B54A32D192ED03));
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                z ^= z >> 27;
                p.compute(SimTime::from_nanos(z % 20_000));
            }
            app(p)
        });
        assert!(report.all_finished(), "run {run} did not finish");
        assert_eq!(
            report.stats.msgs_delayed() > 0,
            run > 0,
            "run {run}: exactly the perturbed runs delay messages"
        );
        // A send is compared on everything but its timestamp: timing may
        // differ between correct executions.
        let events = report.trace.events();
        let per_rank: Vec<Vec<_>> = (0..ranks)
            .map(|r| {
                events
                    .iter()
                    .filter(|e| e.process == EndpointId(r) && e.kind == EventKind::Send)
                    .map(|e| (e.peer, e.tag, e.payload_digest, e.payload_len))
                    .collect()
            })
            .collect();
        sequences.push(per_rank);
    }
    (0..ranks)
        .filter(|&rank| sequences.iter().any(|s| s[rank] != sequences[0][rank]))
        .collect()
}

#[test]
fn cg_kernel_is_send_deterministic() {
    let cfg = NasConfig {
        local_size: 64,
        iterations: 3,
        compute_ns_per_point: 1,
    };
    let divergent = divergent_ranks(4, 3, move |p| run_cg(p, &cfg));
    assert!(divergent.is_empty(), "divergent ranks {divergent:?}");
    // The same check on every workload of the paper's Tables 1 and 2: the
    // five NAS kernels, and HPCCG and CM1, which receive with MPI_ANY_SOURCE.
    let nas = NasConfig::test_size();
    for kernel in NasKernel::all() {
        let divergent = divergent_ranks(4, 3, move |p| run_kernel(kernel, p, &nas));
        assert!(
            divergent.is_empty(),
            "{}: divergent ranks {divergent:?}",
            kernel.name()
        );
    }
    let app = AppConfig::test_size();
    type App = fn(&mut Process, &AppConfig) -> f64;
    let apps: [(&str, App); 2] = [("HPCCG", run_hpccg), ("CM1", run_cm1)];
    for (name, run) in apps {
        let divergent = divergent_ranks(4, 3, move |p| run(p, &app));
        assert!(
            divergent.is_empty(),
            "{name}: divergent ranks {divergent:?}"
        );
    }
}

#[test]
fn any_source_sum_is_send_deterministic() {
    // Receiving with ANY_SOURCE and summing is still send-deterministic:
    // the messages sent do not depend on the reception order.
    let divergent = divergent_ranks(4, 3, |p| {
        let world = p.world();
        if p.rank() == 0 {
            let mut total = 0.0;
            for _ in 0..3 {
                let (_, v) = p.recv_bytes(world, ANY_SOURCE, 5);
                total += bytes_to_f64s(&v)[0];
            }
            p.send_bytes(world, 1, 6, f64s_to_bytes(&[total]));
        } else {
            p.send_bytes(world, 0, 5, f64s_to_bytes(&[p.rank() as f64]));
            if p.rank() == 1 {
                let _ = p.recv_bytes(world, 0, 6);
            }
        }
        p.allreduce_f64(world, ReduceOp::Sum, 1.0)
    });
    assert!(divergent.is_empty(), "divergent ranks {divergent:?}");
}

#[test]
fn master_worker_is_not_send_deterministic() {
    // The classic counter-example (Section 2.1): a master hands the next
    // work item to whichever worker answers first, so the sequence of
    // destinations it sends to depends on reception order.
    let divergent = divergent_ranks(3, 4, |p| {
        let world = p.world();
        if p.rank() == 0 {
            // Master: 6 work items, dispatched to whoever is idle.
            for item in 0..6u64 {
                let (status, _) = p.recv_bytes(world, ANY_SOURCE, 1);
                p.send_u64s(world, status.source, 2, &[item]);
            }
            // Tell both workers to stop.
            for w in 1..3 {
                p.send_u64s(world, w, 3, &[u64::MAX]);
            }
        } else {
            // Worker: request work, process it, repeat until told to stop.
            // Work (tag 2) and stop (tag 3) arrive on the same FIFO channel
            // from the master, so a wildcard-tag receive picks whichever
            // comes next.
            loop {
                p.send_bytes(world, 0, 1, Bytes::new());
                let (status, _payload) = p.recv_bytes(world, 0, ANY_TAG);
                if status.tag == 3 {
                    break;
                }
                // Identical processing time on every worker: the master's
                // dispatch order is then decided purely by message timing,
                // i.e. by the injected delays and stagger.
                p.compute(SimTime::from_micros(10));
            }
        }
    });
    assert!(
        !divergent.is_empty(),
        "the master-worker pattern should be flagged as non-send-deterministic"
    );
    assert!(divergent.contains(&0), "the master diverges: {divergent:?}");
}
