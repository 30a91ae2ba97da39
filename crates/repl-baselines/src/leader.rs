//! The leader-based parallel protocol (rMPI-style handling of
//! non-determinism).
//!
//! rMPI and redMPI agree on the outcome of non-deterministic MPI calls by
//! electing one replica of each rank as the *leader*: when an
//! `MPI_ANY_SOURCE` reception completes on the leader, it tells the other
//! replicas which source it received from, and only then do they post a
//! source-specific receive. The paper's Figure 2 contrasts this with SDR-MPI,
//! which needs no such exchange thanks to send-determinism.
//!
//! [`LeaderParallelProtocol`] wraps the SDR-MPI engine (which supplies the
//! parallel protocol's acknowledgement machinery) and adds the leader
//! decision path for anonymous receptions:
//!
//! * The leader (replica 0 of the rank) posts the anonymous receive normally;
//!   when the application completes it, the decided source rank is broadcast
//!   to the other replicas of the rank as a control message.
//! * Non-leader replicas do **not** post the anonymous receive immediately;
//!   they wait for the leader's decision and then post a source-specific
//!   receive. This is exactly the delayed posting that increases both the
//!   latency of anonymous receptions and the probability of unexpected
//!   messages (Section 3.1 of the paper).

use sdr_core::{ReplicaMap, ReplicationConfig, SdrProtocol};
use sim_mpi::{
    Action, CommId, Input, ProtoRecvReq, ProtoSendReq, Protocol, ProtocolFactory, Rank, Request,
    TagSel,
};
use sim_net::stats::class;
use sim_net::{EndpointId, SimTime};
use std::collections::HashMap;
use std::sync::Arc;

/// Control-message kind for leader decisions (disjoint from the SDR kinds).
pub const DECISION_KIND: i64 = 100;

#[derive(Debug, Clone, Copy)]
enum AnonState {
    /// Leader: posted through the core; the decision is announced when the
    /// application takes it.
    Leader,
    /// Follower: waiting for the leader's decision before posting.
    Awaiting(CommId, TagSel),
    /// Follower: posted on the leader's decision, which arrived at this
    /// time: the reception cannot complete before the follower learned which
    /// source to receive from.
    Posted(SimTime),
}

/// The leader-based parallel replication protocol.
pub struct LeaderParallelProtocol {
    core: SdrProtocol,
    map: Arc<ReplicaMap>,
    /// Sequence number of anonymous receptions (identical across replicas of
    /// a rank because they issue the same sequence of MPI calls).
    anon_seq: u64,
    /// Outstanding anonymous receptions: handle, anonymous sequence, state.
    anon: Vec<(ProtoRecvReq, u64, AnonState)>,
    /// Decisions that arrived before the matching anonymous receive was
    /// posted locally (decided source rank, decision arrival time).
    early_decisions: HashMap<u64, (Rank, SimTime)>,
}

impl LeaderParallelProtocol {
    /// Build the protocol for physical process `endpoint` of `map`.
    pub fn new(
        endpoint: EndpointId,
        map: Arc<ReplicaMap>,
        cfg: ReplicationConfig,
        lossy: bool,
    ) -> Self {
        LeaderParallelProtocol {
            core: SdrProtocol::new(endpoint, Arc::clone(&map), cfg).on_transport(lossy),
            map,
            anon_seq: 0,
            anon: Vec::new(),
            early_decisions: HashMap::new(),
        }
    }
}

impl Protocol for LeaderParallelProtocol {
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
        match input {
            // Anonymous reception: the leader decides, the others follow.
            Input::Irecv {
                req,
                src: None,
                comm,
                tag,
            } => {
                let seq = self.anon_seq;
                self.anon_seq += 1;
                let (src, state) = if self.replica_id() == 0 {
                    (None, AnonState::Leader)
                } else if let Some((src, floor)) = self.early_decisions.remove(&seq) {
                    (Some(src), AnonState::Posted(floor))
                } else {
                    (None, AnonState::Awaiting(comm, tag))
                };
                if !matches!(state, AnonState::Awaiting(..)) {
                    let irecv = Input::Irecv {
                        req,
                        src,
                        comm,
                        tag,
                    };
                    self.core.input(now, irecv, out);
                }
                self.anon.push((req, seq, state));
                None
            }
            Input::Control {
                class: cls,
                header,
                arrival,
                ..
            } if cls == class::CONTROL && header[0] == DECISION_KIND => {
                let (seq, src) = (header[1] as u64, header[2] as usize);
                // Post the deferred anonymous receive if it is already known;
                // otherwise remember the decision for when it gets posted.
                match self.anon.iter_mut().find(|(_, s, _)| *s == seq) {
                    Some((req, _, state)) => {
                        if let AnonState::Awaiting(comm, tag) = *state {
                            *state = AnonState::Posted(arrival);
                            let (req, src) = (*req, Some(src));
                            let irecv = Input::Irecv {
                                req,
                                src,
                                comm,
                                tag,
                            };
                            self.core.input(now, irecv, out);
                        }
                    }
                    None => {
                        self.early_decisions.insert(seq, (src, arrival));
                    }
                }
                None
            }
            Input::Take { req, msg } => {
                let delivered = out.len();
                self.core.input(now, Input::Take { req, msg }, out);
                let anon = self.anon.iter().position(|(r, ..)| *r == req);
                let at = anon.filter(|_| out.len() > delivered)?;
                match self.anon.remove(at) {
                    // The leader announces the decided source to the other
                    // replicas of its rank.
                    (_, seq, AnonState::Leader) => {
                        let my_rank = self.app_rank();
                        let src = self.map.rank_of(msg.src) as i64;
                        let header = [DECISION_KIND, seq as i64, src, 0, 0, 0, 0, 0];
                        for rep in 1..self.map.degree_of(my_rank) {
                            out.push(Action::Control {
                                dst: self.map.endpoint(my_rank, rep),
                                class: class::CONTROL,
                                header,
                                not_before: SimTime::ZERO,
                            });
                        }
                    }
                    (.., AnonState::Posted(floor)) => out.push(Action::SyncTo(floor)),
                    (.., AnonState::Awaiting(..)) => {
                        unreachable!("an awaiting receive is incomplete")
                    }
                }
                None
            }
            input => self.core.input(now, input, out),
        }
    }

    fn complete(&self, req: Request) -> bool {
        let awaiting = |(r, _, state): &(ProtoRecvReq, u64, AnonState)| {
            Request::Recv(*r) == req && matches!(state, AnonState::Awaiting(..))
        };
        !self.anon.iter().any(awaiting) && self.core.complete(req)
    }

    fn describe_pending(&self) -> String {
        let awaiting = self
            .anon
            .iter()
            .filter(|(.., s)| matches!(s, AnonState::Awaiting(..)))
            .count();
        format!(
            "leader-based protocol: {awaiting} anonymous receptions awaiting leader decision; {}",
            self.core.describe_pending()
        )
    }

    fn send_log_len(&self) -> usize {
        self.core.send_log_len()
    }
}

/// Factory for the leader-based parallel protocol.
#[derive(Debug, Clone)]
pub struct LeaderFactory {
    cfg: ReplicationConfig,
}

impl LeaderFactory {
    /// Explicit configuration.
    pub fn new(cfg: ReplicationConfig) -> Self {
        LeaderFactory { cfg }
    }
}

impl ProtocolFactory for LeaderFactory {
    fn physical_processes(&self, app_ranks: usize) -> usize {
        app_ranks * self.cfg.degree
    }

    fn build(&self, endpoint: EndpointId, app_ranks: usize, lossy: bool) -> Box<dyn Protocol> {
        let map = Arc::new(ReplicaMap::uniform(app_ranks, self.cfg.degree));
        Box::new(LeaderParallelProtocol::new(endpoint, map, self.cfg, lossy))
    }

    fn name(&self) -> &str {
        "leader-parallel"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use sim_mpi::{JobBuilder, ANY_SOURCE};
    use sim_net::LogGpModel;

    fn leader_job(ranks: usize) -> JobBuilder {
        let cfg = ReplicationConfig::dual();
        JobBuilder::new(ranks)
            .network(LogGpModel::fast_test_model())
            .protocol(Arc::new(LeaderFactory::new(cfg)))
    }

    #[test]
    fn named_source_receptions_work_unchanged() {
        let report = leader_job(2).run(|p| {
            let world = p.world();
            if p.rank() == 0 {
                p.send_u64s(world, 1, 3, &[41]);
                0
            } else {
                let (_, v) = p.recv_u64s(world, 0, 3);
                v[0] + 1
            }
        });
        assert!(report.all_finished());
        assert_eq!(report.primary_results(), vec![&0, &42]);
        assert_eq!(
            report.stats.control_msgs(),
            0,
            "no decisions for named sources"
        );
    }

    #[test]
    fn anonymous_handles_never_alias_a_reused_receive_slot() {
        // A named receive frees its PML slot (generation 1 next time); then
        // an anonymous receive and two more named ones are posted. A follower
        // posts nothing for the anonymous one until the decision arrives, so
        // a named receive reuses that slot: its handle must not equal the
        // anonymous receive's.
        let report = leader_job(2).run(|p| {
            let world = p.world();
            if p.rank() == 0 {
                for v in 1..=3u64 {
                    p.send_u64s(world, 1, 5, &[v]);
                }
                p.send_u64s(world, 1, 7, &[70]);
                return 0;
            }
            p.recv_u64s(world, 0, 5);
            let anon = p.irecv_bytes(world, ANY_SOURCE, 7);
            let named = [p.irecv_bytes(world, 0, 5), p.irecv_bytes(world, 0, 5)];
            let mut got = 0;
            for req in named.into_iter().chain([anon]) {
                let bytes = p.wait(world, req).1.expect("a receive");
                got = got * 100 + sim_mpi::datatype::bytes_to_u64s(&bytes)[0];
            }
            got
        });
        assert!(report.all_finished(), "{:?}", report.processes);
        for proc in &report.processes {
            let want = if proc.app_rank == 0 { 0 } else { 20_370 };
            assert_eq!(proc.outcome.result(), Some(&want), "{:?}", proc.endpoint);
        }
    }

    #[test]
    fn anonymous_reception_agrees_across_replicas_via_decision() {
        let report = leader_job(3).run(|p| {
            let world = p.world();
            if p.rank() == 0 {
                let mut order = Vec::new();
                for _ in 0..2 {
                    let (status, _) = p.recv_bytes(world, ANY_SOURCE, 9);
                    order.push(status.source);
                }
                order
            } else {
                p.send_bytes(world, 0, 9, Bytes::from(vec![p.rank() as u8]));
                vec![]
            }
        });
        assert!(report.all_finished());
        // Both replicas of rank 0 must report the same reception order (the
        // leader's decision), whatever it was.
        let orders: Vec<_> = report
            .processes
            .iter()
            .filter(|p| p.app_rank == 0)
            .filter_map(|p| p.outcome.result())
            .collect();
        assert_eq!(orders.len(), 2);
        assert_eq!(
            orders[0], orders[1],
            "replicas must agree on the decided order"
        );
        // One decision message per anonymous reception, leader → follower.
        assert_eq!(report.stats.control_msgs(), 2);
    }

    #[test]
    fn leader_decision_adds_latency_compared_to_sdr() {
        // Figure 2: handling an anonymous reception with and without
        // send-determinism. The same exchange runs measurably slower under the
        // leader-based protocol because the follower replica must wait for the
        // leader's decision before posting its receive.
        // Request-reply over an anonymous reception: rank 0 receives from
        // ANY_SOURCE then answers the decided source; rank 1 waits for each
        // answer before issuing the next request.
        let app = |p: &mut sim_mpi::Process| {
            let world = p.world();
            if p.rank() == 0 {
                for _ in 0..20 {
                    let (status, _) = p.recv_bytes(world, ANY_SOURCE, 1);
                    p.send_u64s(world, status.source, 2, &[1]);
                }
            } else {
                for i in 0..20u64 {
                    p.send_u64s(world, 0, 1, &[i]);
                    let (_, _) = p.recv_u64s(world, 0, 2);
                }
            }
            p.now().as_micros_f64()
        };
        let cfg = ReplicationConfig::dual();
        let leader = JobBuilder::new(2)
            .network(LogGpModel::infiniband_20g())
            .protocol(Arc::new(LeaderFactory::new(cfg)))
            .run(app);
        let sdr = sdr_core::replicated_job(2, cfg)
            .network(LogGpModel::infiniband_20g())
            .run(app);
        assert!(leader.all_finished() && sdr.all_finished());
        assert!(
            leader.elapsed > sdr.elapsed,
            "leader-based anonymous receptions should be slower (leader {}, sdr {})",
            leader.elapsed,
            sdr.elapsed
        );
    }
}
