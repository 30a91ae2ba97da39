//! Algorithm 1's `upon failure` handler and the send-log GC it shares with
//! the ack path.

use super::SdrProtocol;
use sim_mpi::{Action, MpiError};
use sim_net::FailureEvent;

impl SdrProtocol {
    /// Algorithm 1, `upon failure of p^rep_rank`.
    pub(super) fn handle_failure(&mut self, ev: FailureEvent, out: &mut Vec<Action>) {
        if ev.endpoint.0 >= self.map.physical_processes() || !self.is_alive(ev.endpoint) {
            return; // unknown or already handled
        }
        self.mark_dead(ev.endpoint);
        let (failed_rank, failed_rep) = self.map.locate(ev.endpoint);
        let Some(sub) = self
            .map
            .lowest_live_replica(failed_rank, self.peers[failed_rank].live)
        else {
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
                    // (only ranks with a live replica `l`: a live mask has
                    // no bit at or above its rank's degree).
                    let bit = 1 << l;
                    for peer in &mut self.peers {
                        if peer.live & bit != 0 {
                            peer.physical_dests |= bit;
                        }
                    }
                    // Re-send, in log order, every message whose ack from
                    // replica `l` of the destination rank is missing.
                    for entry in self.sends.iter_mut() {
                        if self.peers[entry.dst_rank].live & bit == 0 {
                            continue;
                        }
                        let target = self.map.endpoint(entry.dst_rank, l);
                        if entry.acks_received & bit == 0 {
                            out.push(Action::Send {
                                dst: target,
                                comm: entry.comm,
                                tag: entry.tag,
                                aux: entry.seq as i64,
                                payload: entry.payload.clone(),
                                log: None,
                            });
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
            let peer = &mut self.peers[failed_rank];
            if peer.physical_src == ev.endpoint {
                peer.physical_src = new_src;
            }
            // Cancel ack expectations that the dead process would have sent
            // (it was a destination-rank replica for my sends to failed_rank).
            for entry in self.sends.iter_mut() {
                if entry.dst_rank == failed_rank {
                    entry.acks_expected &= !(1 << failed_rep);
                }
            }
            // Redirect pending receives that were expecting the dead process,
            // in posting order: a redirect can match a queued message at once.
            let mut pending: Vec<_> = (self.recvs.iter_mut().flatten())
                .filter(|e| !e.delivered && e.posted.0 == Some(ev.endpoint))
                .map(|e| (e.posted.1, &mut e.posted.0, e.req))
                .collect();
            pending.sort_unstable_by_key(|&(at, ..)| at);
            for (_, src, req) in pending {
                *src = Some(new_src);
                out.push(Action::Redirect { req, src: *src });
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
        self.sends.remove_where(|e| e.app_freed && e.fully_acked());
    }
}
