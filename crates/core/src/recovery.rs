//! Recovery of a failed replica (Section 3.4 of the paper, generalized).
//!
//! The paper describes — but, like its Open MPI prototype, does not deploy in
//! production runs — a recovery procedure for dual replication:
//!
//! 1. The substitute of the failed replica *forks* a new process from its own
//!    current state (send-determinism guarantees this state is equivalent to
//!    what the failed replica would have reached).
//! 2. The substitute broadcasts a recovery notification to every alive
//!    physical process.
//! 3. Relying on FIFO channels, each process compares the notification's
//!    arrival with the acknowledgements it has received from the substitute:
//!    messages to the recovered rank not yet acknowledged by the substitute
//!    are re-sent directly to the new replica, and acknowledgements toward the
//!    recovered replica resume for messages received after the notification.
//!
//! On a [`ReplicaMap`] the procedure generalizes past degree 2 and to
//! partial replication in two steps:
//!
//! * **Fork-election** — when more than one replica of the lost rank
//!   survives, the survivors deterministically elect the fork source: the
//!   lowest surviving replica index ([`RecoveryCoordinator::elect_fork_source`]).
//!   Every survivor computes the same winner from the shared liveness view,
//!   so no extra agreement round is needed.
//! * **Ack-frontier merge** — the survivors' cumulative delivery frontiers
//!   are merged (per-source-rank maximum,
//!   [`RecoveryCoordinator::merge_ack_frontiers`]) so the re-earned send log
//!   is the union view: a message any survivor has delivered needs no replay.
//!
//! In this reproduction the *fork* is modelled as a protocol-state snapshot
//! ([`ReplicaStateSnapshot`]) taken from the elected survivor and installed
//! into a freshly constructed [`SdrProtocol`] bound to the recovered physical
//! identity; the application-level state hand-off is the responsibility of the
//! scenario (our tests and the `recovery_demo` example use explicit
//! application state, mirroring how the paper's `fork()` would copy it). Step
//! 3 is implemented inside `SdrProtocol::handle_event` so that notification
//! handling uses the regular event path.
//!
//! A rank that is not replicated at all (a singleton of a
//! [`ReplicaMap::partial`] map) has nothing to fork from: its crash is *not*
//! recoverable, and the protocol surfaces a prompt typed
//! [`sim_mpi::MpiError::RankLost`] instead of hanging —
//! [`RecoveryError::UnreplicatedRank`] is the coordinator-side twin of that
//! condition.

use crate::layout::ReplicaMap;
use crate::protocol::{ctl, SdrProtocol, SeqTracker};
use bytes::Bytes;
use sim_mpi::pml::Pml;
use sim_mpi::Rank;
use sim_net::stats::class;
use sim_net::EndpointId;
use std::sync::Arc;

/// The protocol state copied from the elected survivor when forking a
/// replacement replica ("the fork" of Section 3.4).
#[derive(Debug, Clone)]
pub struct ReplicaStateSnapshot {
    /// Per-destination-rank application-level send sequence numbers.
    pub send_seq: Vec<u64>,
    /// Per-source-rank delivered-sequence trackers (duplicate filter).
    pub recv_seen: Vec<SeqTracker>,
    /// The rank whose state this snapshot represents.
    pub rank: usize,
}

/// Why a recovery could not be set up or carried out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryError {
    /// No rank in the map is replicated: there is never a survivor to fork
    /// from, so a recovery coordinator would be useless. (A *partially*
    /// replicated map is fine — its replicated ranks recover normally.)
    NoReplicatedRanks,
    /// The rank whose replica was lost is a singleton (degree 1): there is no
    /// surviving copy to fork from. The running protocol surfaces this case
    /// as a prompt `MpiError::RankLost` abort.
    UnreplicatedRank {
        /// The unreplicated rank.
        rank: Rank,
    },
    /// Every replica of the rank is dead — the election has no candidates.
    NoSurvivor {
        /// The fully-lost rank.
        rank: Rank,
    },
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::NoReplicatedRanks => write!(
                f,
                "no rank in the replica map is replicated: nothing can ever \
                 be forked, run without a recovery coordinator"
            ),
            RecoveryError::UnreplicatedRank { rank } => write!(
                f,
                "rank {rank} is unreplicated (degree 1): a crash of its only \
                 process is not recoverable"
            ),
            RecoveryError::NoSurvivor { rank } => write!(
                f,
                "every replica of rank {rank} is dead: the fork election has \
                 no surviving candidate"
            ),
        }
    }
}

impl std::error::Error for RecoveryError {}

/// What happened during one recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryOutcome {
    /// The physical identity that was recovered.
    pub recovered: EndpointId,
    /// Number of alive processes that were notified.
    pub notified: usize,
}

/// Orchestrates the recovery of one failed replica. The coordinator runs on
/// the elected fork source (the lowest surviving replica of the failed rank).
#[derive(Debug, Clone)]
pub struct RecoveryCoordinator {
    map: Arc<ReplicaMap>,
}

impl RecoveryCoordinator {
    /// A coordinator for the given replica map. A map without a single
    /// replicated rank is rejected with a typed error — recovery can never
    /// apply to it; genuinely malformed maps are already rejected by the
    /// map constructors ([`crate::LayoutError`]).
    pub fn new(map: Arc<ReplicaMap>) -> Result<Self, RecoveryError> {
        if (0..map.ranks()).all(|r| !map.is_replicated(r)) {
            return Err(RecoveryError::NoReplicatedRanks);
        }
        Ok(RecoveryCoordinator { map })
    }

    /// Deterministic fork election: among the surviving replicas of `rank`
    /// (per the `alive` view, indexed by endpoint id), the lowest replica
    /// index wins. Every survivor evaluates the same function on the same
    /// liveness view, so the election needs no message exchange.
    pub fn elect_fork_source(&self, rank: Rank, alive: &[bool]) -> Result<usize, RecoveryError> {
        if !self.map.is_replicated(rank) {
            return Err(RecoveryError::UnreplicatedRank { rank });
        }
        (0..self.map.degree_of(rank))
            .find(|&rep| {
                let e = self.map.endpoint(rank, rep);
                alive.get(e.0).copied().unwrap_or(false)
            })
            .ok_or(RecoveryError::NoSurvivor { rank })
    }

    /// Merge the cumulative-ack frontiers of several survivor snapshots:
    /// per source rank, the maximum in-order delivery frontier. A message any
    /// survivor has delivered is covered by the merged view and needs no
    /// replay toward the recovered process.
    pub fn merge_ack_frontiers(snapshots: &[ReplicaStateSnapshot]) -> Vec<u64> {
        let Some(first) = snapshots.first() else {
            return Vec::new();
        };
        let mut merged = vec![0u64; first.recv_seen.len()];
        for snap in snapshots {
            for (slot, tracker) in merged.iter_mut().zip(snap.recv_seen.iter()) {
                *slot = (*slot).max(tracker.next_expected());
            }
        }
        merged
    }

    /// Merge several survivor snapshots of the same rank into the union view
    /// the replacement replica is spawned from: the elected fork source's
    /// state widened by every other survivor's delivery and send frontiers.
    pub fn merge_snapshots(snapshots: &[ReplicaStateSnapshot]) -> ReplicaStateSnapshot {
        assert!(!snapshots.is_empty(), "need at least one survivor snapshot");
        let rank = snapshots[0].rank;
        assert!(
            snapshots.iter().all(|s| s.rank == rank),
            "survivor snapshots must all belong to the lost rank"
        );
        let mut merged = snapshots[0].clone();
        for snap in &snapshots[1..] {
            for (slot, &seq) in merged.send_seq.iter_mut().zip(snap.send_seq.iter()) {
                *slot = (*slot).max(seq);
            }
            for (slot, tracker) in merged.recv_seen.iter_mut().zip(snap.recv_seen.iter()) {
                if tracker.next_expected() > slot.next_expected() {
                    *slot = tracker.clone();
                }
            }
        }
        merged
    }

    /// Capture a survivor's protocol state — the "fork" of the paper.
    pub fn fork_snapshot(&self, substitute: &SdrProtocol) -> ReplicaStateSnapshot {
        ReplicaStateSnapshot {
            send_seq: substitute.send_seq.clone(),
            recv_seen: substitute.recv_seen.clone(),
            rank: substitute.my_rank,
        }
    }

    /// Build the protocol instance of the recovered process from a snapshot.
    /// The returned protocol is bound to the recovered physical identity and
    /// resumes sequence numbering where the fork source's state left off.
    pub fn restore(
        &self,
        recovered: EndpointId,
        snapshot: &ReplicaStateSnapshot,
        cfg: crate::config::ReplicationConfig,
    ) -> SdrProtocol {
        let mut proto = SdrProtocol::new(recovered, Arc::clone(&self.map), cfg);
        assert_eq!(
            proto.my_rank, snapshot.rank,
            "snapshot rank must match the recovered process's rank"
        );
        proto.send_seq = snapshot.send_seq.clone();
        proto.recv_seen = snapshot.recv_seen.clone();
        proto
    }

    /// Broadcast the recovery notification from the fork source to every
    /// alive physical process (Section 3.4). Returns how many were notified.
    ///
    /// The fork source must not fail between the fork and this broadcast (the
    /// paper's explicit requirement); the caller is responsible for honouring
    /// that in failure-injection scenarios.
    pub fn broadcast_notification(
        &self,
        pml: &mut Pml,
        substitute: &SdrProtocol,
        recovered: EndpointId,
    ) -> RecoveryOutcome {
        let mut header = [0i64; 8];
        header[0] = ctl::RECOVERY_NOTIFY;
        header[1] = recovered.0 as i64;
        let mut notified = 0;
        for e in 0..self.map.physical_processes() {
            let target = EndpointId(e);
            if target == pml.endpoint_id() || target == recovered {
                continue;
            }
            if substitute.alive.get(e).copied().unwrap_or(false) {
                pml.send_control(target, class::CONTROL, header, Bytes::new());
                notified += 1;
            }
        }
        // The fabric-level failure service forgets the failure so the
        // recovered identity can act again.
        pml.endpoint().fabric().failure().mark_recovered(recovered);
        RecoveryOutcome {
            recovered,
            notified,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ReplicationConfig;
    use crate::protocol::SdrProtocol;
    use sim_mpi::Protocol as _;

    fn dual_map(ranks: usize) -> Arc<ReplicaMap> {
        Arc::new(ReplicaMap::uniform(ranks, 2))
    }

    fn dual_protocol(endpoint: usize, ranks: usize) -> SdrProtocol {
        SdrProtocol::new(
            EndpointId(endpoint),
            dual_map(ranks),
            ReplicationConfig::dual(),
        )
    }

    #[test]
    fn snapshot_restores_sequence_state() {
        let coord = RecoveryCoordinator::new(dual_map(2)).unwrap();
        let mut substitute = dual_protocol(1, 2);
        // Simulate some protocol history on the substitute.
        substitute.send_seq = vec![5, 9];
        substitute.recv_seen[0].record(0);
        substitute.recv_seen[0].record(1);
        let snap = coord.fork_snapshot(&substitute);
        assert_eq!(snap.rank, 1);
        assert_eq!(snap.send_seq, vec![5, 9]);

        let restored = coord.restore(EndpointId(3), &snap, ReplicationConfig::dual());
        assert_eq!(restored.app_rank(), 1);
        assert_eq!(restored.replica_id(), 1);
        assert_eq!(restored.send_seq, vec![5, 9]);
        assert!(restored.recv_seen[0].seen(1));
        assert!(!restored.recv_seen[0].seen(2));
    }

    #[test]
    fn unreplicated_maps_cannot_recover() {
        let singleton = Arc::new(ReplicaMap::uniform(3, 1));
        let err = RecoveryCoordinator::new(singleton).unwrap_err();
        assert_eq!(err, RecoveryError::NoReplicatedRanks);
        assert!(err.to_string().contains("no rank"));
    }

    #[test]
    fn degree_three_coordinator_is_supported() {
        for degree in [2usize, 3, 4, 8] {
            let map = Arc::new(ReplicaMap::uniform(2, degree));
            assert!(
                RecoveryCoordinator::new(map).is_ok(),
                "degree {degree} must be recoverable"
            );
        }
    }

    #[test]
    fn fork_election_picks_lowest_survivor() {
        let map = Arc::new(ReplicaMap::uniform(2, 3));
        let coord = RecoveryCoordinator::new(Arc::clone(&map)).unwrap();
        let mut alive = vec![true; map.physical_processes()];
        assert_eq!(coord.elect_fork_source(1, &alive), Ok(0));
        alive[map.endpoint(1, 0).0] = false;
        assert_eq!(coord.elect_fork_source(1, &alive), Ok(1));
        alive[map.endpoint(1, 1).0] = false;
        assert_eq!(coord.elect_fork_source(1, &alive), Ok(2));
        alive[map.endpoint(1, 2).0] = false;
        assert_eq!(
            coord.elect_fork_source(1, &alive),
            Err(RecoveryError::NoSurvivor { rank: 1 })
        );
    }

    #[test]
    fn electing_for_a_singleton_rank_is_a_typed_error() {
        let map = Arc::new(ReplicaMap::partial(4, &[0, 2]).unwrap());
        let coord = RecoveryCoordinator::new(Arc::clone(&map)).unwrap();
        let alive = vec![true; map.physical_processes()];
        assert_eq!(
            coord.elect_fork_source(1, &alive),
            Err(RecoveryError::UnreplicatedRank { rank: 1 })
        );
        assert_eq!(coord.elect_fork_source(2, &alive), Ok(0));
    }

    #[test]
    fn frontier_merge_is_per_rank_max() {
        let mut a = ReplicaStateSnapshot {
            send_seq: vec![4, 0],
            recv_seen: vec![SeqTracker::default(), SeqTracker::default()],
            rank: 0,
        };
        for s in 0..3 {
            a.recv_seen[1].record(s);
        }
        let mut b = ReplicaStateSnapshot {
            send_seq: vec![2, 7],
            recv_seen: vec![SeqTracker::default(), SeqTracker::default()],
            rank: 0,
        };
        for s in 0..5 {
            b.recv_seen[0].record(s);
        }
        b.recv_seen[1].record(0);
        let merged = RecoveryCoordinator::merge_ack_frontiers(&[a.clone(), b.clone()]);
        assert_eq!(merged, vec![5, 3]);
        let snap = RecoveryCoordinator::merge_snapshots(&[a, b]);
        assert_eq!(snap.send_seq, vec![4, 7]);
        assert_eq!(snap.recv_seen[0].next_expected(), 5);
        assert_eq!(snap.recv_seen[1].next_expected(), 3);
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn restore_rejects_wrong_rank() {
        let coord = RecoveryCoordinator::new(dual_map(2)).unwrap();
        let substitute = dual_protocol(1, 2);
        let snap = coord.fork_snapshot(&substitute);
        // Endpoint 2 is rank 0, but the snapshot is for rank 1.
        coord.restore(EndpointId(2), &snap, ReplicationConfig::dual());
    }

    fn app_rank_of(proto: &SdrProtocol) -> usize {
        use sim_mpi::Protocol as _;
        proto.app_rank()
    }

    #[test]
    fn snapshot_rank_matches_protocol_rank() {
        let map = dual_map(4);
        let coord = RecoveryCoordinator::new(Arc::clone(&map)).unwrap();
        for rank in 0..4 {
            let substitute = dual_protocol(map.endpoint(rank, 0).0, 4);
            let snap = coord.fork_snapshot(&substitute);
            assert_eq!(snap.rank, app_rank_of(&substitute));
        }
    }
}
