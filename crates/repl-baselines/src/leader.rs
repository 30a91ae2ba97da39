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

use bytes::Bytes;
use sdr_core::{ReplicaMap, ReplicationConfig, SdrProtocol};
use sim_mpi::pml::{Pml, PmlEvent};
use sim_mpi::{
    CommId, ProtoRecvReq, ProtoSendReq, Protocol, ProtocolFactory, Rank, Status, Tag, TagSel,
};
use sim_net::stats::class;
use sim_net::{EndpointId, SimTime};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

/// Control-message kind for leader decisions (disjoint from the SDR kinds).
pub const DECISION_KIND: i64 = 100;

#[derive(Debug)]
enum AnonState {
    /// Leader: posted through the inner protocol; decision pending until the
    /// application completes the receive.
    LeaderPosted { inner: ProtoRecvReq, decided: bool },
    /// Non-leader: waiting for the leader's decision before posting.
    AwaitingDecision { comm: CommId, tag: TagSel },
    /// Non-leader: decision received and the receive posted. `floor` is the
    /// arrival time of the decision: the reception cannot complete before the
    /// follower learned which source to receive from.
    Posted { inner: ProtoRecvReq, floor: SimTime },
}

/// The leader-based parallel replication protocol.
pub struct LeaderParallelProtocol {
    inner: SdrProtocol,
    map: Arc<ReplicaMap>,
    /// Sequence number of anonymous receptions (identical across replicas of
    /// a rank because they issue the same sequence of MPI calls).
    anon_seq: u64,
    /// Outstanding anonymous receptions, keyed by their anonymous sequence.
    anon: BTreeMap<u64, AnonState>,
    /// Wrapper request id → anonymous sequence (for anonymous receives) .
    anon_of_req: HashMap<u64, u64>,
    /// Next anonymous-receive handle: the top half of the id space, which
    /// the PML's request ids — the inner protocol's receive handles — never
    /// use (`sim_mpi::PmlReqId`).
    next_req: u64,
    /// Decisions that arrived before the matching anonymous receive was
    /// posted locally (decided source rank, decision arrival time).
    early_decisions: HashMap<u64, (Rank, SimTime)>,
    /// Decisions the leader still has to announce (src rank per anon seq).
    announce_queue: VecDeque<(u64, Rank)>,
}

impl LeaderParallelProtocol {
    /// Build the protocol for physical process `endpoint` of `map`.
    pub fn new(endpoint: EndpointId, map: Arc<ReplicaMap>, cfg: ReplicationConfig) -> Self {
        LeaderParallelProtocol {
            inner: SdrProtocol::new(endpoint, Arc::clone(&map), cfg),
            map,
            anon_seq: 0,
            anon: BTreeMap::new(),
            anon_of_req: HashMap::new(),
            next_req: 1 << 63,
            early_decisions: HashMap::new(),
            announce_queue: VecDeque::new(),
        }
    }

    fn is_leader(&self) -> bool {
        self.inner.replica_id() == 0
    }

    fn announce(&mut self, pml: &mut Pml, anon_seq: u64, src_rank: Rank) {
        let my_rank = self.inner.app_rank();
        let mut header = [0i64; 8];
        header[0] = DECISION_KIND;
        header[1] = anon_seq as i64;
        header[2] = src_rank as i64;
        for rep in 1..self.map.degree_of(my_rank) {
            let target = self.map.endpoint(my_rank, rep);
            pml.send_control(target, class::CONTROL, header, Bytes::new());
        }
    }
}

impl Protocol for LeaderParallelProtocol {
    fn app_rank(&self) -> Rank {
        self.inner.app_rank()
    }

    fn replica_id(&self) -> usize {
        self.inner.replica_id()
    }

    fn isend(
        &mut self,
        pml: &mut Pml,
        dst: Rank,
        comm: CommId,
        tag: Tag,
        payload: Bytes,
    ) -> ProtoSendReq {
        self.inner.isend(pml, dst, comm, tag, payload)
    }

    fn irecv(
        &mut self,
        pml: &mut Pml,
        src: Option<Rank>,
        comm: CommId,
        tag: TagSel,
    ) -> ProtoRecvReq {
        match src {
            Some(_) => self.inner.irecv(pml, src, comm, tag),
            None => {
                // Anonymous reception: leader decides, the others follow.
                let seq = self.anon_seq;
                self.anon_seq += 1;
                let id = self.next_req;
                self.next_req += 1;
                let state = if self.is_leader() {
                    let inner = self.inner.irecv(pml, None, comm, tag);
                    AnonState::LeaderPosted {
                        inner,
                        decided: false,
                    }
                } else if let Some((src_rank, floor)) = self.early_decisions.remove(&seq) {
                    let inner = self.inner.irecv(pml, Some(src_rank), comm, tag);
                    AnonState::Posted { inner, floor }
                } else {
                    AnonState::AwaitingDecision { comm, tag }
                };
                self.anon.insert(seq, state);
                self.anon_of_req.insert(id, seq);
                ProtoRecvReq(id)
            }
        }
    }

    fn send_complete(&mut self, pml: &mut Pml, req: ProtoSendReq) -> bool {
        self.inner.send_complete(pml, req)
    }

    fn recv_complete(&mut self, pml: &mut Pml, req: ProtoRecvReq) -> bool {
        match self.anon_of_req.get(&req.0) {
            None => self.inner.recv_complete(pml, req),
            Some(&seq) => match self.anon.get(&seq) {
                Some(AnonState::LeaderPosted { inner, .. })
                | Some(AnonState::Posted { inner, .. }) => self.inner.recv_complete(pml, *inner),
                Some(AnonState::AwaitingDecision { .. }) => false,
                None => true,
            },
        }
    }

    fn take_recv(&mut self, pml: &mut Pml, req: ProtoRecvReq) -> Option<(Status, Bytes)> {
        match self.anon_of_req.get(&req.0).copied() {
            None => self.inner.take_recv(pml, req),
            Some(seq) => {
                let (inner_req, floor) = match self.anon.get(&seq) {
                    Some(AnonState::LeaderPosted { inner, .. }) => (*inner, SimTime::ZERO),
                    Some(AnonState::Posted { inner, floor }) => (*inner, *floor),
                    _ => return None,
                };
                let result = self.inner.take_recv(pml, inner_req)?;
                // A follower cannot complete the anonymous reception before it
                // learned the decided source from the leader.
                pml.endpoint_mut().clock_mut().sync_to(floor);
                // Leader announces the decided source the first time the
                // application observes it.
                if let Some(AnonState::LeaderPosted { decided, .. }) = self.anon.get_mut(&seq) {
                    if !*decided {
                        *decided = true;
                        let src = result.0.source;
                        self.announce_queue.push_back((seq, src));
                    }
                }
                while let Some((s, src)) = self.announce_queue.pop_front() {
                    self.announce(pml, s, src);
                }
                self.anon.remove(&seq);
                self.anon_of_req.remove(&req.0);
                Some(result)
            }
        }
    }

    fn free_send(&mut self, pml: &mut Pml, req: ProtoSendReq) {
        self.inner.free_send(pml, req)
    }

    fn handle_event(&mut self, pml: &mut Pml, ev: PmlEvent) {
        if let PmlEvent::Control {
            class: cls,
            header,
            arrival,
            ..
        } = &ev
        {
            if *cls == class::CONTROL && header[0] == DECISION_KIND {
                let seq = header[1] as u64;
                let src_rank = header[2] as usize;
                let arrival = *arrival;
                // Post the deferred anonymous receive if it is already known;
                // otherwise remember the decision for when it gets posted.
                let mut posted = None;
                if let Some(AnonState::AwaitingDecision { comm, tag }) = self.anon.get(&seq) {
                    let (comm, tag) = (*comm, *tag);
                    let inner = self.inner.irecv(pml, Some(src_rank), comm, tag);
                    posted = Some(inner);
                }
                if let Some(inner) = posted {
                    self.anon.insert(
                        seq,
                        AnonState::Posted {
                            inner,
                            floor: arrival,
                        },
                    );
                } else if !self.anon.contains_key(&seq) {
                    self.early_decisions.insert(seq, (src_rank, arrival));
                }
                return;
            }
        }
        self.inner.handle_event(pml, ev);
    }

    fn finalize(&mut self, pml: &mut Pml) {
        self.inner.finalize(pml);
    }

    fn describe_pending(&self) -> String {
        let awaiting = self
            .anon
            .values()
            .filter(|s| matches!(s, AnonState::AwaitingDecision { .. }))
            .count();
        format!(
            "leader-based protocol: {awaiting} anonymous receptions awaiting leader decision; {}",
            self.inner.describe_pending()
        )
    }

    fn send_log_len(&self) -> usize {
        self.inner.send_log_len()
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

    fn build(&self, endpoint: EndpointId, app_ranks: usize) -> Box<dyn Protocol> {
        let map = Arc::new(ReplicaMap::uniform(app_ranks, self.cfg.degree));
        Box::new(LeaderParallelProtocol::new(endpoint, map, self.cfg))
    }

    fn name(&self) -> &str {
        "leader-parallel"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
