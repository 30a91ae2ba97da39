//! Algorithm 1's `upon failure` handler and the send-log GC it shares with
//! the ack path.

use super::SdrProtocol;
use sim_mpi::pml::Pml;
use sim_mpi::MpiError;
use sim_net::FailureEvent;

impl SdrProtocol {
    /// Algorithm 1, `upon failure of p^rep_rank`.
    pub(super) fn handle_failure(&mut self, pml: &mut Pml, ev: FailureEvent) {
        if ev.endpoint.0 >= self.alive.len() || !self.alive[ev.endpoint.0] {
            return; // unknown or already handled
        }
        self.alive[ev.endpoint.0] = false;
        let (failed_rank, failed_rep) = self.map.locate(ev.endpoint);
        let Some(sub) = self.map.lowest_live_replica(failed_rank, &self.alive) else {
            // Every replica of the rank is gone; nothing the protocol can do
            // (the paper would fall back to checkpoint/restart here). Abort
            // this process with a clear error instead of letting the job hang
            // on receives that can never be satisfied. For a singleton rank
            // of a partial map this fires on the rank's first crash, so the
            // typed `RankLost` surfaces promptly.
            std::panic::panic_any(MpiError::RankLost {
                rank: failed_rank,
                degree: self.map.degree_of(failed_rank),
            });
        };

        if failed_rank == self.my_rank {
            let my_degree = self.map.degree_of(self.my_rank);
            // I am a replica of the failed process's rank.
            if sub == self.my_replica {
                // I am the elected substitute (Algorithm 1, lines 21-25).
                let delegated: Vec<usize> = (0..my_degree)
                    .filter(|&l| self.substitute[l] == failed_rep || l == failed_rep)
                    .collect();
                for &l in &delegated {
                    // Add the failed replica set's destinations to mine
                    // (only ranks that actually have a replica slot `l`).
                    let bit = 1 << l;
                    for rank in 0..self.map.ranks() {
                        if l < self.map.degree_of(rank) && self.is_alive(self.map.endpoint(rank, l))
                        {
                            self.physical_dests[rank] |= bit;
                        }
                    }
                    // Re-send, in log order, every message whose ack from
                    // replica `l` of the destination rank is missing.
                    for entry in self.sends.values_mut() {
                        if l >= self.map.degree_of(entry.dst_rank) {
                            continue;
                        }
                        let target = self.map.endpoint(entry.dst_rank, l);
                        if !self.alive[target.0] {
                            continue;
                        }
                        if entry.acks_received & bit == 0 {
                            let (comm, tag, aux) = (entry.comm, entry.tag, entry.seq as i64);
                            pml.isend(target, comm, tag, aux, entry.payload.clone());
                        }
                        // Delivery is now guaranteed over our own reliable
                        // channel; stop waiting for that ack.
                        entry.acks_expected &= !bit;
                        entry.acks_received |= bit;
                    }
                }
            }
            // Everyone in the rank updates the substitution table
            // (Algorithm 1, lines 26-27).
            for l in 0..my_degree {
                if self.substitute[l] == failed_rep {
                    self.substitute[l] = sub;
                }
            }
            if self.substitute[failed_rep] == failed_rep {
                self.substitute[failed_rep] = sub;
            }
        } else {
            // Algorithm 1, lines 28-35: I am not a replica of the failed rank.
            let new_src = self.map.endpoint(failed_rank, sub);
            if self.physical_src[failed_rank] == ev.endpoint {
                self.physical_src[failed_rank] = new_src;
            }
            // Cancel ack expectations that the dead process would have sent
            // (it was a destination-rank replica for my sends to failed_rank).
            for entry in self.sends.values_mut() {
                if entry.dst_rank == failed_rank {
                    entry.acks_expected &= !(1 << failed_rep);
                }
            }
            // Redirect pending receives that were expecting the dead process.
            let pending = pml.pending_recvs_from(ev.endpoint);
            for pml_req in pending {
                pml.redirect_recv(pml_req, Some(new_src));
            }
        }
        self.collect_send_log_garbage();
    }

    /// Drop send-log entries whose request the application has released and
    /// whose acknowledgements are all in. Called after every state change
    /// that can complete an entry's ack set without going through the ack
    /// path's own GC (the failure handler force-completes acks of dead
    /// replicas; a `FIN_ACK` acks many entries at once).
    pub(super) fn collect_send_log_garbage(&mut self) {
        self.sends.retain(|_, e| !(e.app_freed && e.fully_acked()));
    }
}

#[cfg(test)]
mod tests {
    use crate::config::ReplicationConfig;
    use crate::layout::ReplicaMap;
    use crate::protocol::tests::{pml_for, uniform};
    use crate::protocol::SdrProtocol;
    use sim_mpi::{MpiError, Protocol};
    use sim_net::{EndpointId, SimTime};
    use std::sync::Arc;

    #[test]
    fn losing_a_singleton_rank_aborts_promptly_with_degree_one() {
        let map = Arc::new(ReplicaMap::partial(2, &[0]).unwrap());
        let mut pml = pml_for(2, 3);
        let mut proto = SdrProtocol::new(EndpointId(2), map, ReplicationConfig::dual());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            proto.handle_event(
                &mut pml,
                sim_mpi::PmlEvent::ProcessFailed(sim_net::FailureEvent {
                    endpoint: EndpointId(1),
                    at: SimTime::ZERO,
                    seq: 0,
                }),
            );
        }));
        let err = result.expect_err("a singleton crash is unsurvivable");
        let mpi_err = err
            .downcast_ref::<MpiError>()
            .expect("panic payload is an MpiError");
        assert_eq!(*mpi_err, MpiError::RankLost { rank: 1, degree: 1 });
    }

    #[test]
    fn losing_every_replica_of_a_rank_aborts_with_clear_error() {
        let mut pml = pml_for(0, 4);
        let mut proto = uniform(0, 2, ReplicationConfig::dual());
        // First failure of rank 1 elects the other replica as substitute.
        proto.handle_event(
            &mut pml,
            sim_mpi::PmlEvent::ProcessFailed(sim_net::FailureEvent {
                endpoint: EndpointId(1),
                at: SimTime::ZERO,
                seq: 0,
            }),
        );
        // Second failure leaves rank 1 with no replica: clear abort.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            proto.handle_event(
                &mut pml,
                sim_mpi::PmlEvent::ProcessFailed(sim_net::FailureEvent {
                    endpoint: EndpointId(3),
                    at: SimTime::ZERO,
                    seq: 1,
                }),
            );
        }));
        let err = result.expect_err("losing every replica must abort");
        let mpi_err = err
            .downcast_ref::<MpiError>()
            .expect("panic payload is an MpiError");
        assert_eq!(
            *mpi_err,
            MpiError::RankLost { rank: 1, degree: 2 },
            "error names the lost rank"
        );
        assert!(mpi_err.to_string().contains("rank 1"));
    }
}
