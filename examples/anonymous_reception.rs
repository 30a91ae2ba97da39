//! MPI_ANY_SOURCE under replication: SDR-MPI (no leader, thanks to
//! send-determinism) versus the leader-based rMPI-style protocol.
//!
//! ```bash
//! cargo run --example anonymous_reception --release
//! ```

use repl_baselines::LeaderFactory;
use sdr_core::{replicated_job, ReplicationConfig};
use sim_mpi::{JobBuilder, Process, ANY_SOURCE};
use sim_net::LogGpModel;
use std::sync::Arc;

fn app(p: &mut Process) -> u64 {
    let world = p.world();
    if p.rank() == 0 {
        let mut total = 0;
        for _ in 0..(p.size() - 1) * 5 {
            let (status, _) = p.recv_bytes(world, ANY_SOURCE, 1);
            p.send_u64s(world, status.source, 2, &[1]);
            total += 1;
        }
        total
    } else {
        for i in 0..5u64 {
            p.send_u64s(world, 0, 1, &[i]);
            p.recv_u64s(world, 0, 2);
        }
        0
    }
}

fn main() {
    let ranks = 4;
    let cfg = ReplicationConfig::dual();

    let sdr = replicated_job(ranks, cfg)
        .network(LogGpModel::infiniband_20g())
        .run(app);
    let leader = JobBuilder::new(ranks)
        .network(LogGpModel::infiniband_20g())
        .protocol(Arc::new(LeaderFactory::new(cfg)))
        .run(app);

    println!(
        "SDR-MPI       : {:>12}, control messages: {}",
        format!("{}", sdr.elapsed),
        sdr.stats.control_msgs()
    );
    println!(
        "leader-based  : {:>12}, control messages: {}",
        format!("{}", leader.elapsed),
        leader.stats.control_msgs()
    );
    println!("send-determinism removes the leader round-trip from every anonymous reception");
    assert_eq!(sdr.stats.control_msgs(), 0);
    assert!(leader.stats.control_msgs() > 0);
}
