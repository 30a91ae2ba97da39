//! Demonstrates the dual-replication recovery bookkeeping of Section 3.4:
//! fork a replacement replica from the substitute's protocol state and verify
//! that the snapshot carries the sequencing state the new process needs.
//!
//! The full runtime re-integration of a recovered process is exercised by the
//! scripted scenario in `tests/recovery.rs`; this example focuses on the
//! snapshot/restore API.
//!
//! ```bash
//! cargo run --example recovery_demo --release
//! ```

use sdr_core::recovery::ReplicaStateSnapshot;
use sdr_core::{RecoveryCoordinator, ReplicaMap, ReplicationConfig, SeqTracker};
use sim_net::EndpointId;
use std::sync::Arc;

fn main() {
    let ranks = 2;
    let map = Arc::new(ReplicaMap::uniform(ranks, 2));
    let coordinator = RecoveryCoordinator::new(map).expect("dual replication supports recovery");

    // Fork-election: with replica 0 of rank 1 (physical process 1) dead, the
    // lowest surviving replica index (here replica 1, physical process 3) is
    // elected as the fork source.
    let alive = [true, false, true, true];
    let fork_source = coordinator
        .elect_fork_source(1, &alive)
        .expect("a replica of rank 1 survives");
    assert_eq!(fork_source, 1);

    // The "fork" of Section 3.4: the substitute's protocol state at the moment
    // the replacement is created. Here we build the snapshot explicitly (17
    // messages already sent to rank 0, messages 0..=2 from rank 0 delivered);
    // in the scripted recovery test it is captured from a live protocol with
    // `RecoveryCoordinator::fork_snapshot`.
    let mut delivered_from_rank0 = SeqTracker::default();
    delivered_from_rank0.record(0);
    delivered_from_rank0.record(1);
    delivered_from_rank0.record(2);
    let snapshot = ReplicaStateSnapshot {
        send_seq: vec![17, 0],
        recv_seen: vec![delivered_from_rank0, SeqTracker::default()],
        rank: 1,
    };

    // Build the replacement bound to the failed replica's physical identity
    // (rank 1, replica 1 = physical process 3).
    let recovered = coordinator.restore(EndpointId(3), &snapshot, ReplicationConfig::dual());

    println!(
        "snapshot of rank {} taken from the substitute",
        snapshot.rank
    );
    println!("  send sequence numbers : {:?}", snapshot.send_seq);
    println!("recovered process:");
    println!("  physical identity     : endpoint 3 (rank 1, replica 1)");
    println!(
        "  resumes send seq      : {:?}",
        recovered.send_sequence_numbers()
    );
    println!(
        "  duplicate filter knows about seq 0..=2 from rank 0: {}",
        recovered.has_delivered(0, 2)
    );
    assert_eq!(recovered.send_sequence_numbers(), vec![17, 0]);
    assert!(recovered.has_delivered(0, 2));
    assert!(!recovered.has_delivered(0, 3));
    println!("recovery snapshot/restore verified");
}
