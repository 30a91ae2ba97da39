//! redMPI-style silent-data-corruption detection on the same substrate:
//! inject a bit flip into one replica's message and watch the hash comparison
//! catch it.
//!
//! ```bash
//! cargo run --example sdc_detection --release
//! ```

use repl_baselines::{CorruptionSpec, RedMpiFactory, SdcReport};
use sim_mpi::{JobBuilder, Process};
use sim_net::LogGpModel;
use std::sync::Arc;

fn app(p: &mut Process) -> u64 {
    let world = p.world();
    let mut acc = 0;
    if p.rank() == 0 {
        for i in 0..10u64 {
            p.send_u64s(world, 1, 1, &[i * 3]);
        }
    } else {
        for _ in 0..10 {
            let (_, v) = p.recv_u64s(world, 0, 1);
            acc += v[0];
        }
    }
    acc
}

fn main() {
    let report = SdcReport::new();
    let factory = RedMpiFactory::dual(Arc::clone(&report)).with_corruption(CorruptionSpec {
        replica: 1,
        src_rank: 0,
        dst_rank: 1,
        seq: 4,
    });
    let job = JobBuilder::new(2)
        .network(LogGpModel::infiniband_20g())
        .protocol(Arc::new(factory))
        .run(app);
    println!("job finished: {}", job.all_finished());
    println!("hash messages exchanged : {}", job.stats.hash_msgs());
    println!("hash comparisons        : {}", report.comparisons());
    println!("corruptions detected    : {}", report.mismatches());
    assert!(
        report.mismatches() >= 1,
        "the injected bit flip must be detected"
    );
}
