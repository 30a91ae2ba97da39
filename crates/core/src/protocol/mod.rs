//! The SDR-MPI replication protocol (Algorithm 1 of the paper).
//!
//! SDR-MPI is a *parallel* replication protocol for send-deterministic
//! applications. Replica `k` of rank `i` sends each application message only
//! to replica `k` of the destination rank `j`; every replica of `j` that
//! receives its copy acknowledges it to the *other* replicas of `i`
//! (on the library-level `irecvComplete` event). A send request completes at
//! the application level only once the direct send has been handed to the
//! network *and* the acknowledgements from all other replicas of the
//! destination rank have been collected — guaranteeing that if the sender's
//! counterpart replica crashes, some replica still holds every message the
//! crashed process might not have delivered, and can re-send it
//! (the `upon failure` handler).
//!
//! Because the application is send-deterministic, no leader is needed to agree
//! on the outcome of `MPI_ANY_SOURCE` receptions or other non-deterministic
//! calls: replicas may temporarily diverge in their reception order without
//! that divergence ever being observable in the messages they send
//! (Section 3.1 of the paper).
//!
//! This file is the fast path: the state, the send fan-out, the choice of
//! receive source, ack emission and registration, completion and free. Each
//! slow path has a file: loss masking (DESIGN.md §5.5), the `upon failure`
//! handler (`failure.rs`) and Section 3.4's recovery (`recovery.rs`).

use crate::config::{AckOn, ReplicationConfig};
use crate::layout::{ReplicaMap, ReplicaMask};
use bytes::Bytes;
use sim_mpi::matching::KeyHasher;
use sim_mpi::pml::{MsgMeta, Pml, PmlEvent};
use sim_mpi::{CommId, PmlReqId, ProtoRecvReq, ProtoSendReq, Protocol, Rank, Status, Tag, TagSel};
use sim_net::stats::class;
use sim_net::{EndpointId, SimTime};
use std::collections::{BTreeMap, BTreeSet};
use std::hash::BuildHasherDefault;
use std::sync::Arc;

mod failure;
mod lossy;
mod recovery;

/// Per-message bookkeeping maps ride the matching engine's trusted-key
/// multiplicative hasher instead of SipHash.
type HashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<KeyHasher>>;

/// Control-message kinds carried in `header[0]` of SDR-MPI protocol traffic,
/// and the one constructor of their headers.
pub mod ctl {
    /// Acknowledgement of an application message (class `ACK`, or class
    /// `CONTROL` when re-emitted reliably in response to an
    /// [`ACK_PROBE`]).
    pub const ACK: i64 = 1;
    /// Recovery notification broadcast by the substitute after forking a new
    /// replica (class `CONTROL`), Section 3.4.
    pub const RECOVERY_NOTIFY: i64 = 2;
    /// Self-addressed retransmission timer (class `CONTROL`): fires the
    /// timeout/backoff check for one send-log entry.
    pub const RETX_TIMER: i64 = 3;
    /// "Have you seen sequence `s` from my rank?" probe (class `CONTROL`)
    /// sent to a *cross* replica whose acknowledgement is overdue — the
    /// sender cannot retransmit the payload on that link (the replica
    /// receives its copy from its own counterpart), but a dropped ack can be
    /// re-requested reliably.
    pub const ACK_PROBE: i64 = 4;
    /// Cumulative "everything below `upto` from your rank is received and
    /// acknowledged" notice (class `CONTROL`), emitted at `MPI_Finalize` so
    /// a process can exit without stranding senders whose per-message acks
    /// were dropped after the receiver's last chance to re-emit them.
    pub const FIN_ACK: i64 = 5;

    /// The header of a control message of `kind` with arguments `a` and `b`
    /// (the sender and receiver are the wire source and destination).
    pub fn header(kind: i64, a: u64, b: u64) -> [i64; 8] {
        [kind, a as i64, b as i64, 0, 0, 0, 0, 0]
    }
}

/// Tracks which application-level sequence numbers have already been delivered
/// from one sender rank, so duplicates created by post-failure re-sends can be
/// dropped.
#[derive(Debug, Default, Clone)]
pub struct SeqTracker {
    next_expected: u64,
    ahead: BTreeSet<u64>,
}

impl SeqTracker {
    /// The cumulative delivery frontier: every sequence `< next_expected()`
    /// has been delivered in order.
    pub fn next_expected(&self) -> u64 {
        self.next_expected
    }

    /// Has `seq` already been delivered?
    pub fn seen(&self, seq: u64) -> bool {
        seq < self.next_expected || self.ahead.contains(&seq)
    }

    /// Record delivery of `seq`. Returns `false` if it was already delivered
    /// (i.e. this is a duplicate).
    pub fn record(&mut self, seq: u64) -> bool {
        if self.seen(seq) {
            return false;
        }
        if seq == self.next_expected {
            self.next_expected += 1;
            while self.ahead.remove(&self.next_expected) {
                self.next_expected += 1;
            }
        } else {
            self.ahead.insert(seq);
        }
        true
    }
}

#[derive(Debug)]
struct SendEntry {
    dst_rank: Rank,
    comm: CommId,
    tag: Tag,
    seq: u64,
    /// Retained until all acks are in, so the substitute logic can re-send it.
    payload: Bytes,
    /// Wire (stream) sequence of each direct send, per target, so a
    /// retransmission replays the payload under the *same* sequence and the
    /// receiver's window dedups/reorders it correctly. Empty on reliable
    /// transports.
    wire_sends: Vec<(EndpointId, u64)>,
    /// Retransmission-timer firings for this entry so far.
    retx_attempts: u32,
    /// Replicas of `dst_rank` whose acknowledgement this send waits for.
    acks_expected: ReplicaMask,
    /// Replicas of `dst_rank` known to hold the message (acked, or re-sent to
    /// over our own channel).
    acks_received: ReplicaMask,
    /// Latest arrival time among the acknowledgements collected so far; the
    /// application-level send completion (return from `MPI_Wait`) is
    /// time-stamped no earlier than this.
    completion_floor: SimTime,
    /// The application has released its request handle. Once this entry is
    /// also fully acked it is garbage — the ack-driven GC removes it the
    /// moment the last acknowledgement arrives, keeping the send log bounded.
    app_freed: bool,
}

impl SendEntry {
    fn fully_acked(&self) -> bool {
        self.acks_expected & !self.acks_received == 0
    }
}

/// Protocol-side state of one posted receive, keyed by its PML request id.
#[derive(Debug)]
struct RecvEntry {
    /// The posted filter, kept to re-arm the receive after a duplicate.
    src_rank: Option<Rank>,
    comm: CommId,
    tag: TagSel,
    /// A non-duplicate message has completed at the library level.
    delivered: bool,
    /// Deferred-ack bookkeeping for the [`AckOn::AppWait`] ablation:
    /// (sender rank, sender replica, app-level seq, message arrival).
    deferred_ack: Option<(Rank, usize, u64, SimTime)>,
    /// Acknowledgement-emission CPU time that was spent while this process's
    /// clock was still behind the message's arrival. It is re-applied when the
    /// application completes the receive, so that the reception processing
    /// (match + ack emission) shows up on the critical path exactly as it does
    /// in a library without asynchronous progress.
    post_arrival_cost: SimTime,
}

/// The per-physical-process SDR-MPI protocol instance.
#[derive(Debug)]
pub struct SdrProtocol {
    map: Arc<ReplicaMap>,
    cfg: ReplicationConfig,
    my_rank: Rank,
    my_replica: usize,

    // --- Algorithm 1 state -------------------------------------------------
    /// `physicalDests[rank]`: replicas of `rank` this process sends application
    /// messages to directly.
    physical_dests: Vec<ReplicaMask>,
    /// `physicalSrc[rank]`: the replica of `rank` this process receives from.
    physical_src: Vec<EndpointId>,
    /// `substitute[rep]`: which replica id of *this* process's rank is in
    /// charge of sending on behalf of replica `rep`.
    substitute: Vec<usize>,
    /// Liveness of every physical process, as known locally.
    alive: Vec<bool>,

    // --- sequencing and request bookkeeping --------------------------------
    send_seq: Vec<u64>,
    recv_seen: Vec<SeqTracker>,
    /// The send log, keyed by send-request id — i.e. in posting order, which
    /// is wire order: the failure and recovery handlers re-send by iterating
    /// it.
    sends: BTreeMap<u64, SendEntry>,
    next_send: u64,
    recvs: BTreeMap<PmlReqId, RecvEntry>,
    /// Acks that raced ahead of the local send: `(dst_rank, seq)` → who acked
    /// and the latest arrival among them.
    early_acks: HashMap<(Rank, u64), (ReplicaMask, SimTime)>,
    /// Cumulative pre-acknowledgements from peers' `FIN_ACK` notices:
    /// `(dst_rank, acker) → upto` means `acker` has received every
    /// application sequence `< upto` addressed to `dst_rank`. Folded into new
    /// send entries at `isend` time, covering the replica-skew case where a
    /// slow replica posts a send after its fast counterpart's receiver has
    /// already finalized.
    fin_acked: HashMap<(Rank, EndpointId), u64>,
}

impl SdrProtocol {
    /// Protocol instance for physical process `endpoint` of the job `map`
    /// lays out. The per-rank routing tables come straight from the map's
    /// routing rule ([`ReplicaMap::direct_src`] / [`ReplicaMap::direct_dests`]);
    /// on uniform maps this is the paper's "replica `k` talks to replica `k`".
    pub fn new(endpoint: EndpointId, map: Arc<ReplicaMap>, cfg: ReplicationConfig) -> Self {
        assert!(
            map.max_degree() <= ReplicaMask::BITS as usize,
            "replica sets are {}-bit masks: degree {} is not supported",
            ReplicaMask::BITS,
            map.max_degree()
        );
        let (my_rank, my_replica) = map.locate(endpoint);
        let app_ranks = map.ranks();
        let physical_dests = (0..app_ranks)
            .map(|rank| map.direct_dests(my_rank, my_replica, rank))
            .collect();
        let physical_src = (0..app_ranks)
            .map(|rank| map.direct_src(my_replica, rank))
            .collect();
        let my_degree = map.degree_of(my_rank);
        let physical = map.physical_processes();
        SdrProtocol {
            map,
            cfg,
            my_rank,
            my_replica,
            physical_dests,
            physical_src,
            substitute: (0..my_degree).collect(),
            alive: vec![true; physical],
            send_seq: vec![0; app_ranks],
            recv_seen: vec![SeqTracker::default(); app_ranks],
            sends: BTreeMap::new(),
            next_send: 1,
            recvs: BTreeMap::new(),
            early_acks: HashMap::default(),
            fin_acked: HashMap::default(),
        }
    }

    fn is_alive(&self, e: EndpointId) -> bool {
        self.alive.get(e.0).copied().unwrap_or(false)
    }

    /// Algorithm 1, lines 15-17: acknowledge `(src_rank, seq)` to the live
    /// replicas of the sender's rank that [`SdrProtocol::ack_targets`] names.
    /// The ack reacts to the received message: it is injected no earlier
    /// than the message's `arrival`, even if this process's clock has not
    /// caught up with the arrival yet.
    fn send_acks_for(
        &self,
        pml: &mut Pml,
        src_rank: Rank,
        src_rep: usize,
        seq: u64,
        arrival: SimTime,
    ) {
        let targets = Self::ack_targets(pml, src_rep);
        for rep in (0..self.map.degree_of(src_rank)).filter(|rep| targets & (1 << rep) != 0) {
            let target = self.map.endpoint(src_rank, rep);
            if self.is_alive(target) {
                let header = ctl::header(ctl::ACK, seq, 0);
                pml.send_control_at(target, class::ACK, header, Bytes::new(), arrival);
            }
        }
    }

    fn register_ack(&mut self, from: EndpointId, seq: u64, arrival: SimTime) {
        let (dst_rank, replica) = self.map.locate(from);
        let bit = 1 << replica;
        // Find the matching send entry (messages to `dst_rank` with `seq`).
        // A scan, not a second index: the log holds the sends still in flight,
        // one entry in every measured workload.
        let matching = self
            .sends
            .iter_mut()
            .find(|(_, e)| e.dst_rank == dst_rank && e.seq == seq);
        if let Some((&id, entry)) = matching {
            entry.acks_received |= bit;
            entry.completion_floor = entry.completion_floor.max(arrival);
            if entry.app_freed && entry.fully_acked() {
                // Ack-driven GC: the application already released the request
                // and this was the last missing acknowledgement — the payload
                // can never be needed for a re-send again.
                self.sends.remove(&id);
            }
        } else if seq >= self.send_seq[dst_rank] {
            // The ack raced ahead of the local send (replicas may skew):
            // remember it until the send is posted.
            let early = self.early_acks.entry((dst_rank, seq)).or_default();
            early.0 |= bit;
            early.1 = early.1.max(arrival);
        }
        // Otherwise the send has already completed and been freed; stale ack.
    }

    fn handle_recv_complete(&mut self, pml: &mut Pml, req: PmlReqId, meta: MsgMeta) {
        let Some(entry) = self.recvs.get(&req) else {
            // Not one of ours (should not happen: every application receive is
            // registered). Ignore defensively.
            return;
        };
        let (src_rank, src_replica) = self.map.locate(meta.src);
        let seq = meta.aux as u64;
        if !self.recv_seen[src_rank].record(seq) {
            // Duplicate delivery caused by a post-failure re-send: drop the
            // payload and re-arm the receive with the same filter.
            let src = entry.src_rank.map(|r| self.physical_src[r]);
            let (comm, tag) = (entry.comm, entry.tag);
            self.reack_duplicate(pml, meta.src, seq, meta.arrival);
            pml.repost_recv(req, src, comm, tag);
            return;
        }
        let ack_on = self.ack_timing(pml);
        let mut post_arrival_cost = SimTime::ZERO;
        if ack_on == AckOn::RecvComplete {
            // The paper's design: acknowledge on the library-level
            // irecvComplete event (Algorithm 1, lines 15-17).
            let before = pml.now();
            self.send_acks_for(pml, src_rank, src_replica, seq, meta.arrival);
            // If the ack was emitted while this process was still (virtually)
            // idle before the message's arrival, the charge above is absorbed
            // when the clock later synchronises to the arrival; remember it so
            // the receive completion re-applies it on the critical path.
            if before < meta.arrival {
                post_arrival_cost = pml.now() - before;
            }
        }
        // AckOn::Never: no acknowledgement at all (baseline configurations).
        let entry = self.recvs.get_mut(&req).expect("looked up above");
        entry.delivered = true;
        entry.post_arrival_cost = post_arrival_cost;
        if ack_on == AckOn::AppWait {
            entry.deferred_ack = Some((src_rank, src_replica, seq, meta.arrival));
        }
    }
}

impl Protocol for SdrProtocol {
    fn app_rank(&self) -> Rank {
        self.my_rank
    }

    fn replica_id(&self) -> usize {
        self.my_replica
    }

    fn isend(
        &mut self,
        pml: &mut Pml,
        dst: Rank,
        comm: CommId,
        tag: Tag,
        payload: Bytes,
    ) -> ProtoSendReq {
        assert!(
            dst < self.map.ranks(),
            "destination rank {dst} out of range"
        );
        let seq = self.send_seq[dst];
        self.send_seq[dst] += 1;

        let mut entry = SendEntry {
            dst_rank: dst,
            comm,
            tag,
            seq,
            payload: payload.clone(),
            wire_sends: Vec::new(),
            retx_attempts: 0,
            acks_expected: 0,
            acks_received: 0,
            completion_floor: SimTime::ZERO,
            app_freed: false,
        };
        // Algorithm 1, MPI_Isend (lines 4-9): send directly to every replica in
        // physicalDests, expect an ack from every other alive replica. The
        // payload clones share one allocation (`Bytes` is refcounted), so the
        // replication degree does not multiply copies.
        for rep in 0..self.map.degree_of(dst) {
            let target = self.map.endpoint(dst, rep);
            if !self.is_alive(target) {
                continue;
            }
            let bit = 1 << rep;
            if self.physical_dests[dst] & bit != 0 {
                let wire_seq = pml.isend(target, comm, tag, seq as i64, payload.clone());
                Self::note_wire_send(pml, &mut entry, (target, wire_seq));
            } else if self.cfg.ack_on != AckOn::Never {
                entry.acks_expected |= bit;
            }
        }
        // Fold in acks that arrived before this send was posted.
        if let Some((ackers, floor)) = self.early_acks.remove(&(dst, seq)) {
            entry.acks_received |= ackers;
            entry.completion_floor = floor;
        }
        let id = self.next_send;
        self.next_send += 1;
        self.cover_send(pml, id, &mut entry);
        self.sends.insert(id, entry);
        ProtoSendReq(id)
    }

    fn irecv(
        &mut self,
        pml: &mut Pml,
        src: Option<Rank>,
        comm: CommId,
        tag: TagSel,
    ) -> ProtoRecvReq {
        // Algorithm 1, MPI_Irecv (lines 10-11): receive from physicalSrc[rank];
        // MPI_ANY_SOURCE stays an any-source receive — send-determinism makes a
        // leader-decided source unnecessary (Section 3.1).
        let phys_src = src.map(|r| {
            assert!(r < self.map.ranks(), "source rank {r} out of range");
            self.physical_src[r]
        });
        // The protocol-level handle *is* the PML request id.
        let pml_req = pml.irecv(phys_src, comm, tag);
        self.recvs.insert(
            pml_req,
            RecvEntry {
                src_rank: src,
                comm,
                tag,
                delivered: false,
                deferred_ack: None,
                post_arrival_cost: SimTime::ZERO,
            },
        );
        ProtoRecvReq(pml_req.0)
    }

    fn send_complete(&mut self, _pml: &mut Pml, req: ProtoSendReq) -> bool {
        // The direct sends were complete when `isend` returned; what can be
        // outstanding is the acknowledgements (Algorithm 1, `MPI_Wait`).
        self.sends.get(&req.0).is_none_or(SendEntry::fully_acked)
    }

    fn recv_complete(&mut self, _pml: &mut Pml, req: ProtoRecvReq) -> bool {
        self.recvs.get(&PmlReqId(req.0)).is_none_or(|e| e.delivered)
    }

    fn take_recv(&mut self, pml: &mut Pml, req: ProtoRecvReq) -> Option<(Status, Bytes)> {
        let pml_req = PmlReqId(req.0);
        if !self.recvs.get(&pml_req)?.delivered {
            return None;
        }
        let entry = self.recvs.remove(&pml_req).expect("checked above");
        let (meta, payload) = pml.take_recv(pml_req)?;
        if !entry.post_arrival_cost.is_zero() {
            pml.endpoint_mut()
                .clock_mut()
                .charge_comm(entry.post_arrival_cost);
        }
        if let Some((src_rank, src_replica, seq, arrival)) = entry.deferred_ack {
            // AppWait ablation: acknowledge only now that the application has
            // completed the receive.
            self.send_acks_for(pml, src_rank, src_replica, seq, arrival);
        }
        let src_rank = self.map.rank_of(meta.src);
        Some((
            Status {
                source: src_rank,
                tag: meta.tag,
                len: meta.len,
            },
            payload,
        ))
    }

    fn free_send(&mut self, pml: &mut Pml, req: ProtoSendReq) {
        let Some(entry) = self.sends.get_mut(&req.0) else {
            return;
        };
        // The application-level send completion (return from MPI_Wait)
        // happens no earlier than the last acknowledgement it waited for.
        pml.endpoint_mut()
            .clock_mut()
            .sync_to(entry.completion_floor);
        entry.app_freed = true;
        if entry.fully_acked() {
            self.sends.remove(&req.0);
        }
        // Not fully acked: the entry stays in the send log so a substitute
        // can still re-send the payload; the ack-driven GC reclaims it when
        // the last acknowledgement arrives.
    }

    fn handle_event(&mut self, pml: &mut Pml, ev: PmlEvent) {
        match ev {
            PmlEvent::RecvCompleted { req, meta } => self.handle_recv_complete(pml, req, meta),
            // Acks travel on the (faultable) ACK class, every other kind —
            // and an ack re-emitted for a probe — on the reliable CONTROL
            // class. Other classes belong to the baselines.
            PmlEvent::Control {
                src,
                class: cls,
                header,
                arrival,
                ..
            } if cls == class::ACK || cls == class::CONTROL => {
                let (a, b) = (header[1] as u64, header[2] as u64);
                match header[0] {
                    ctl::ACK => self.register_ack(src, a, arrival),
                    ctl::RECOVERY_NOTIFY => {
                        self.handle_recovery_notification(pml, EndpointId(a as usize))
                    }
                    ctl::RETX_TIMER => self.handle_retx_timer(pml, a, arrival),
                    ctl::ACK_PROBE => self.handle_ack_probe(pml, src, a as usize, b, arrival),
                    ctl::FIN_ACK => self.handle_fin_ack(src, a, arrival),
                    _ => {}
                }
            }
            PmlEvent::Control { .. } => {}
            PmlEvent::DuplicateSuppressed {
                src, aux, arrival, ..
            } => self.reack_duplicate(pml, src, aux as u64, arrival),
            PmlEvent::ProcessFailed(ev) => self.handle_failure(pml, ev),
        }
    }

    fn finalize(&mut self, pml: &mut Pml) {
        self.fin_ack_and_drain(pml);
    }

    fn describe_pending(&self) -> String {
        let waiting_acks: usize = self.sends.values().filter(|e| !e.fully_acked()).count();
        format!(
            "SDR-MPI rank {} replica {}: {} sends awaiting acks, {} receives outstanding",
            self.my_rank,
            self.my_replica,
            waiting_acks,
            self.recvs.len()
        )
    }

    fn send_log_len(&self) -> usize {
        self.sends.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The protocol of endpoint `endpoint` on the uniform map of `ranks`
    /// ranks at `cfg.degree`.
    pub(super) fn uniform(endpoint: usize, ranks: usize, cfg: ReplicationConfig) -> SdrProtocol {
        let map = Arc::new(ReplicaMap::uniform(ranks, cfg.degree));
        SdrProtocol::new(EndpointId(endpoint), map, cfg)
    }

    #[test]
    fn seq_tracker_in_order() {
        let mut t = SeqTracker::default();
        for s in 0..10 {
            assert!(!t.seen(s));
            assert!(t.record(s));
            assert!(t.seen(s));
        }
        assert_eq!(t.next_expected(), 10);
    }

    #[test]
    fn seq_tracker_detects_duplicates() {
        let mut t = SeqTracker::default();
        assert!(t.record(0));
        assert!(!t.record(0), "duplicate must be rejected");
        assert!(t.record(1));
        assert!(!t.record(0));
        assert!(!t.record(1));
    }

    #[test]
    fn seq_tracker_out_of_order_then_compacts() {
        let mut t = SeqTracker::default();
        assert!(t.record(2));
        assert!(t.record(0));
        assert_eq!(t.next_expected(), 1, "2 is held ahead of the gap");
        assert!(t.record(1));
        assert_eq!(t.next_expected(), 3, "filling the gap compacts 2");
        assert!(!t.record(2));
        assert!(t.record(3));
    }

    #[test]
    fn initial_routing_is_own_replica_set() {
        let proto = uniform(5, 4, ReplicationConfig::dual());
        // Endpoint 5 with 4 ranks → rank 1, replica 1.
        assert_eq!(proto.app_rank(), 1);
        assert_eq!(proto.replica_id(), 1);
        for rank in 0..4 {
            assert_eq!(
                proto.physical_src[rank],
                EndpointId(4 + rank),
                "replica 1 receives from replica 1 of every rank"
            );
            assert_eq!(
                proto.physical_dests[rank], 0b10,
                "and sends to replica 1 of every rank, only"
            );
        }
    }

    #[test]
    fn partial_map_singleton_routing_is_symmetric() {
        let map = Arc::new(ReplicaMap::partial(2, &[0]).unwrap());
        // The singleton (rank 1, endpoint 1) feeds both replicas of rank 0
        // directly and therefore expects no acknowledgements from them.
        let singleton =
            SdrProtocol::new(EndpointId(1), Arc::clone(&map), ReplicationConfig::dual());
        assert_eq!(singleton.app_rank(), 1);
        assert_eq!(singleton.physical_dests[0], 0b11);
        // Replica 1 of rank 0 (endpoint 2) sends nothing to the singleton
        // directly; replica 0 (endpoint 0) owns the direct copy.
        let rep1 = SdrProtocol::new(EndpointId(2), Arc::clone(&map), ReplicationConfig::dual());
        assert_eq!(rep1.physical_dests[1], 0);
        let rep0 = SdrProtocol::new(EndpointId(0), Arc::clone(&map), ReplicationConfig::dual());
        assert_eq!(rep0.physical_dests[1], 0b1);
        assert_eq!(map.endpoint(1, 0), EndpointId(1));
        // Both replicas of rank 0 receive rank 1's messages from the
        // singleton itself.
        assert_eq!(rep0.physical_src[1], EndpointId(1));
        assert_eq!(rep1.physical_src[1], EndpointId(1));
    }

    #[test]
    fn ack_header_roundtrip() {
        let h = ctl::header(ctl::ACK, 42, 0);
        assert_eq!(h[0], ctl::ACK);
        assert_eq!(h[1], 42);
    }

    #[test]
    #[should_panic(expected = "degree 65 is not supported")]
    fn degrees_beyond_the_mask_width_are_rejected() {
        uniform(0, 1, ReplicationConfig::with_degree(65));
    }

    pub(super) fn pml_for(endpoint: usize, n: usize) -> Pml {
        use sim_net::{Fabric, LogGpModel};
        let f = Fabric::with_defaults(n, LogGpModel::fast_test_model());
        Pml::new(f.endpoint(EndpointId(endpoint)))
    }

    #[test]
    fn ack_driven_gc_prunes_entry_freed_before_last_ack() {
        // Rank 0 replica 0 (endpoint 0) sends to rank 1; the ack expected
        // from rank 1's replica 1 (endpoint 3) has not arrived when the
        // application releases the request. The entry must stay in the send
        // log (a substitute may still need the payload) and be reclaimed the
        // moment the ack lands.
        let mut pml = pml_for(0, 4);
        let mut proto = uniform(0, 2, ReplicationConfig::dual());
        let req = proto.isend(&mut pml, 1, CommId::WORLD, 7, Bytes::from_static(b"log me"));
        assert_eq!(proto.send_log_len(), 1);
        proto.free_send(&mut pml, req);
        assert_eq!(
            proto.send_log_len(),
            1,
            "entry retained while an ack is outstanding"
        );
        proto.handle_event(
            &mut pml,
            sim_mpi::PmlEvent::Control {
                src: EndpointId(3),
                class: class::ACK,
                header: ctl::header(ctl::ACK, 0, 0),
                payload: Bytes::new(),
                arrival: SimTime::from_nanos(50),
            },
        );
        assert_eq!(
            proto.send_log_len(),
            0,
            "last ack garbage-collects the entry"
        );
    }

    #[test]
    fn acks_that_outrun_the_send_fold_into_it_as_one_mask_and_floor() {
        // Degree 3, 2 ranks: endpoint 0 sends rank 1's copy to endpoint 1 and
        // owes acks from endpoints 3 and 5 (replicas 1 and 2 of rank 1). Both
        // arrive before the send is posted.
        let mut pml = pml_for(0, 6);
        let mut proto = uniform(0, 2, ReplicationConfig::with_degree(3));
        for (acker, at) in [(3, 80), (5, 50)] {
            proto.handle_event(
                &mut pml,
                sim_mpi::PmlEvent::Control {
                    src: EndpointId(acker),
                    class: class::ACK,
                    header: ctl::header(ctl::ACK, 0, 0),
                    payload: Bytes::new(),
                    arrival: SimTime::from_nanos(at),
                },
            );
        }
        assert_eq!(proto.early_acks[&(1, 0)], (0b110, SimTime::from_nanos(80)));
        let req = proto.isend(&mut pml, 1, CommId::WORLD, 7, Bytes::from_static(b"x"));
        assert!(proto.early_acks.is_empty());
        assert!(
            proto.send_complete(&mut pml, req),
            "nothing left to wait for"
        );
        proto.free_send(&mut pml, req);
        assert_eq!(proto.send_log_len(), 0);
        assert!(
            pml.now() >= SimTime::from_nanos(80),
            "completes no earlier than the last ack it needed"
        );
    }

    #[test]
    fn fully_acked_entry_freed_immediately_on_app_free() {
        let mut pml = pml_for(0, 4);
        let mut proto = uniform(0, 2, ReplicationConfig::dual());
        let req = proto.isend(&mut pml, 1, CommId::WORLD, 7, Bytes::from_static(b"x"));
        proto.handle_event(
            &mut pml,
            sim_mpi::PmlEvent::Control {
                src: EndpointId(3),
                class: class::ACK,
                header: ctl::header(ctl::ACK, 0, 0),
                payload: Bytes::new(),
                arrival: SimTime::from_nanos(50),
            },
        );
        assert_eq!(proto.send_log_len(), 1, "retained until the app frees it");
        assert!(proto.send_complete(&mut pml, req));
        proto.free_send(&mut pml, req);
        assert_eq!(proto.send_log_len(), 0);
    }
}
