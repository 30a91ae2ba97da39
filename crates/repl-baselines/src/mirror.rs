//! The mirror replication protocol (MR-MPI-style).
//!
//! In a mirror protocol every replica of the sending rank transmits the
//! application message to **every** replica of the destination rank: as long
//! as one sender replica survives, all receiver replicas get the message, so
//! no acknowledgement machinery is needed. The price is message complexity:
//! `O(q·r²)` application messages instead of the parallel protocol's
//! `O(q·r)` (Section 2.4 of the paper), which is what the
//! `ablation_mirror_vs_parallel` harness measures.
//!
//! Implementation: the primary copy (replica `k` of the sender to replica `k`
//! of the receiver) goes through the SDR engine configured with
//! [`sdr_core::AckOn::Never`]; the redundant copies ride ahead of each of its
//! application sends, with the same application-level sequence number.
//! Receivers match the primary copy; redundant copies of already-delivered
//! sequence numbers are periodically purged from the unexpected queue.

use sdr_core::{AckOn, ReplicaMap, ReplicationConfig, SdrProtocol};
use sim_mpi::matching::IncomingMsg;
use sim_mpi::{Action, Input, ProtoSendReq, Protocol, ProtocolFactory, Rank, Request};
use sim_net::{EndpointId, SimTime};
use std::sync::Arc;

/// The mirror replication protocol.
pub struct MirrorProtocol {
    core: SdrProtocol,
    map: Arc<ReplicaMap>,
    /// Messages the application has taken, per source rank: the redundant
    /// copies below that sequence are stale.
    delivered: Vec<u64>,
    events_since_purge: u32,
}

impl MirrorProtocol {
    /// Build the mirror protocol for physical process `endpoint` of `map`.
    pub fn new(endpoint: EndpointId, map: Arc<ReplicaMap>, lossy: bool) -> Self {
        let cfg = ReplicationConfig::with_degree(map.max_degree()).ack_on(AckOn::Never);
        MirrorProtocol {
            core: SdrProtocol::new(endpoint, Arc::clone(&map), cfg).on_transport(lossy),
            delivered: vec![0; map.ranks()],
            map,
            events_since_purge: 0,
        }
    }
}

impl Protocol for MirrorProtocol {
    fn app_rank(&self) -> Rank {
        self.core.app_rank()
    }

    fn replica_id(&self) -> usize {
        self.core.replica_id()
    }

    fn input(
        &mut self,
        now: SimTime,
        input: Input<'_>,
        out: &mut Vec<Action>,
    ) -> Option<ProtoSendReq> {
        let event = match &input {
            Input::Isend {
                dst,
                comm,
                tag,
                payload,
            } => {
                // Redundant copies to every replica of the destination other
                // than the primary one the core sends.
                let aux = self.core.send_seq(*dst) as i64;
                for rep in (0..self.map.degree_of(*dst)).filter(|&r| r != self.replica_id()) {
                    out.push(Action::Send {
                        dst: self.map.endpoint(*dst, rep),
                        comm: *comm,
                        tag: *tag,
                        aux,
                        payload: payload.clone(),
                        log: None,
                    });
                }
                false
            }
            Input::Take { msg, .. } => {
                let src = self.map.rank_of(msg.src);
                self.delivered[src] = self.delivered[src].saturating_add(1);
                false
            }
            Input::Finalize => {
                out.push(Action::Purge);
                false
            }
            Input::Completed { .. }
            | Input::Control { .. }
            | Input::Duplicate { .. }
            | Input::Failed(_) => true,
            _ => false,
        };
        let req = self.core.input(now, input, out);
        if event {
            self.events_since_purge += 1;
            if self.events_since_purge >= 64 {
                self.events_since_purge = 0;
                out.push(Action::Purge);
            }
        }
        req
    }

    fn complete(&self, req: Request) -> bool {
        self.core.complete(req)
    }

    fn stale(&self, msg: &IncomingMsg) -> bool {
        (msg.aux as u64) < self.delivered[self.map.rank_of(msg.src)]
    }

    fn describe_pending(&self) -> String {
        format!("mirror protocol: {}", self.core.describe_pending())
    }

    fn send_log_len(&self) -> usize {
        self.core.send_log_len()
    }
}

/// Factory for the mirror protocol.
#[derive(Debug, Clone)]
pub struct MirrorFactory {
    degree: usize,
}

impl MirrorFactory {
    /// Mirror replication with the given degree.
    pub fn new(degree: usize) -> Self {
        assert!(degree >= 1);
        MirrorFactory { degree }
    }
}

impl ProtocolFactory for MirrorFactory {
    fn physical_processes(&self, app_ranks: usize) -> usize {
        app_ranks * self.degree
    }

    fn build(&self, endpoint: EndpointId, app_ranks: usize, lossy: bool) -> Box<dyn Protocol> {
        let map = Arc::new(ReplicaMap::uniform(app_ranks, self.degree));
        Box::new(MirrorProtocol::new(endpoint, map, lossy))
    }

    fn name(&self) -> &str {
        "mirror"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use sim_mpi::{JobBuilder, ReduceOp};
    use sim_net::LogGpModel;

    fn mirror_job(ranks: usize, degree: usize) -> JobBuilder {
        JobBuilder::new(ranks)
            .network(LogGpModel::fast_test_model())
            .protocol(Arc::new(MirrorFactory::new(degree)))
    }

    #[test]
    fn mirror_results_match_and_messages_scale_quadratically() {
        let app = |p: &mut sim_mpi::Process| {
            let world = p.world();
            let mut total = 0.0;
            for _ in 0..3 {
                total += p.allreduce_f64(world, ReduceOp::Sum, (p.rank() + 1) as f64);
            }
            total
        };
        let native = sdr_core::native_job(4)
            .network(LogGpModel::fast_test_model())
            .run(app);
        let mirror = mirror_job(4, 2).run(app);
        assert!(native.all_finished() && mirror.all_finished());
        assert_eq!(native.primary_results(), mirror.primary_results());
        // Mirror: r copies of each replica's message → r * r times the native
        // application message count (q·r²).
        assert_eq!(mirror.stats.app_msgs(), native.stats.app_msgs() * 4);
        assert_eq!(
            mirror.stats.ack_msgs(),
            0,
            "mirror needs no acknowledgements"
        );
    }

    #[test]
    fn mirror_message_blowup_vs_parallel_protocol() {
        let app = |p: &mut sim_mpi::Process| {
            let world = p.world();
            let peer = (p.rank() + 1) % p.size();
            let from = (p.rank() + p.size() - 1) % p.size();
            for _ in 0..5 {
                p.sendrecv_bytes(world, peer, 0, Bytes::from(vec![1u8; 256]), from as i64, 0);
            }
        };
        let parallel = sdr_core::replicated_job(3, ReplicationConfig::dual())
            .network(LogGpModel::fast_test_model())
            .run(app);
        let mirror = mirror_job(3, 2).run(app);
        assert!(parallel.all_finished() && mirror.all_finished());
        // Same application, same replication degree: the mirror protocol sends
        // twice as many application messages as the parallel protocol.
        assert_eq!(mirror.stats.app_msgs(), parallel.stats.app_msgs() * 2);
        // The parallel protocol pays in acks instead.
        assert!(parallel.stats.ack_msgs() > 0);
        assert_eq!(mirror.stats.ack_msgs(), 0);
    }

    #[test]
    fn degree_three_mirror_runs() {
        let report = mirror_job(2, 3).run(|p| {
            let world = p.world();
            let peer = 1 - p.rank();
            let (_, data) = p.sendrecv_bytes(
                world,
                peer,
                7,
                Bytes::from(vec![p.rank() as u8]),
                peer as i64,
                7,
            );
            data[0] as usize
        });
        assert!(report.all_finished());
        for proc in &report.processes {
            assert_eq!(proc.outcome.result(), Some(&(1 - proc.app_rank)));
        }
    }
}
