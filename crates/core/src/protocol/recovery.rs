//! Section 3.4's recovery of a failed replica: fork, announce, notify
//! (DESIGN.md §4.1). Only the scripted Figure 4 test runs it (ROADMAP item
//! 12).

use super::{ctl, SdrProtocol};
use crate::layout::ReplicaMask;
use bytes::Bytes;
use sim_mpi::pml::Pml;
use sim_mpi::Rank;
use sim_net::stats::class;
use sim_net::EndpointId;
use std::sync::Arc;

impl SdrProtocol {
    /// Has this process already delivered application message `seq` from
    /// `src_rank`? (Exposed for the recovery script and diagnostics.)
    pub fn has_delivered(&self, src_rank: Rank, seq: u64) -> bool {
        self.recv_seen.get(src_rank).is_some_and(|t| t.seen(seq))
    }

    /// Section 3.4, step 1: the process forked from this one to replace the
    /// failed `recovered` replica of the same rank. It starts from this
    /// process's sequencing state — what it has sent and delivered — with
    /// the same map and configuration; send-determinism makes that state the
    /// one the failed replica would have reached. Its routing and liveness
    /// start fresh: its PML learns every failure still on record from the
    /// failure service, as any process does.
    pub fn fork(&self, recovered: EndpointId) -> SdrProtocol {
        assert_eq!(
            self.map.rank_of(recovered),
            self.my_rank,
            "a fork must replace a replica of its own rank"
        );
        let mut forked = SdrProtocol::new(recovered, Arc::clone(&self.map), self.cfg);
        forked.send_seq = self.send_seq.clone();
        forked.recv_seen = self.recv_seen.clone();
        forked
    }

    /// Section 3.4, step 2: after [`SdrProtocol::fork`], announce that
    /// `recovered` is live again. Sends the notification to every live peer
    /// (FIFO behind everything this process sent before), forgets the
    /// failure in the fabric's failure service, and hands the recovered
    /// replica's duties back at once. Returns how many peers were notified.
    /// This process must not fail between the fork and this call (the
    /// paper's requirement).
    pub fn announce_recovery(&mut self, pml: &mut Pml, recovered: EndpointId) -> usize {
        let me = pml.endpoint_id();
        let header = ctl::header(ctl::RECOVERY_NOTIFY, recovered.0 as u64, 0);
        let mut notified = 0;
        for e in (0..self.alive.len()).map(EndpointId) {
            if e != me && e != recovered && self.is_alive(e) {
                pml.send_control(e, class::CONTROL, header, Bytes::new());
                notified += 1;
            }
        }
        pml.endpoint().fabric().failure().mark_recovered(recovered);
        self.handle_recovery_notification(pml, recovered);
        notified
    }

    /// Section 3.4, step 3: `recovered` has been forked from the fork
    /// source's state — the lowest live replica of its rank — and is live
    /// again. Relying on FIFO channels, any message addressed to the
    /// recovered rank that the fork source has not acknowledged *when this
    /// notification is processed* was not part of the forked state, so its
    /// direct sender replays it to the new process; acknowledgements toward
    /// the recovered process resume for messages received afterwards.
    /// Receivers whose direct source is the recovered process switch back
    /// to it from the fork source — which stops sending on its behalf — so a
    /// message the fork source sent for it must have been received first.
    pub(super) fn handle_recovery_notification(&mut self, pml: &mut Pml, recovered: EndpointId) {
        let (rrank, rrep) = self.map.locate(recovered);
        // Elected while `recovered` still counts as dead.
        let fork_source = self.map.lowest_live_replica(rrank, &self.alive);
        self.alive[recovered.0] = true;
        if self.my_rank == rrank {
            // The recovered process is in charge of itself again; the fork
            // source stops sending to its counterpart destinations (all
            // distinct from its own because rrep != my_replica).
            self.substitute[rrep] = rrep;
            if self.my_replica != rrep {
                for dests in &mut self.physical_dests {
                    *dests &= !(1 << rrep);
                }
            }
            return;
        }
        if self.map.direct_src(self.my_replica, rrank) == recovered {
            let sub = std::mem::replace(&mut self.physical_src[rrank], recovered);
            for pml_req in pml.pending_recvs_from(sub) {
                pml.redirect_recv(pml_req, Some(recovered));
            }
        }
        if rrep % self.map.degree_of(self.my_rank) == self.my_replica {
            // The recovered process is one of my direct destinations for
            // rank `rrank`: resume sending directly to it, and replay every
            // message it cannot have inherited from the fork source (no fork
            // source: nothing counts as inherited).
            self.physical_dests[rrank] |= 1 << rrep;
            let inherited: ReplicaMask = fork_source.map_or(0, |rep| 1 << rep);
            for entry in self.sends.values() {
                if entry.dst_rank == rrank && entry.acks_received & inherited == 0 {
                    let (comm, tag, aux) = (entry.comm, entry.tag, entry.seq as i64);
                    pml.isend(recovered, comm, tag, aux, entry.payload.clone());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::config::ReplicationConfig;
    use crate::protocol::tests::uniform;
    use sim_mpi::Protocol;
    use sim_net::EndpointId;

    #[test]
    fn fork_carries_the_sequencing_state() {
        let mut substitute = uniform(1, 2, ReplicationConfig::dual());
        substitute.send_seq = vec![5, 9];
        substitute.recv_seen[0].record(0);
        substitute.recv_seen[0].record(1);
        // Endpoint 3 is replica 1 of rank 1, the substitute's own rank.
        let forked = substitute.fork(EndpointId(3));
        assert_eq!((forked.app_rank(), forked.replica_id()), (1, 1));
        assert_eq!(forked.send_seq, vec![5, 9]);
        assert!(forked.has_delivered(0, 1));
        assert!(!forked.has_delivered(0, 2));
        assert_eq!(forked.physical_src[0], EndpointId(2), "routing is its own");
    }

    #[test]
    #[should_panic(expected = "a fork must replace a replica of its own rank")]
    fn fork_rejects_an_endpoint_of_another_rank() {
        // Endpoint 2 is replica 1 of rank 0; the substitute plays rank 1.
        uniform(1, 2, ReplicationConfig::dual()).fork(EndpointId(2));
    }
}
