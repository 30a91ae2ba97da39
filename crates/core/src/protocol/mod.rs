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
//! slow path has a file: loss masking (DESIGN.md §5.5) and the `upon failure`
//! handler (`failure.rs`). Failures are masked, not repaired: a crashed
//! replica stays dead, and Section 3.4's recovery is not reproduced
//! (DESIGN.md §4.1).

use crate::config::{AckOn, ReplicationConfig};
use crate::layout::{ReplicaMap, ReplicaMask};
use bytes::Bytes;
use sim_mpi::pml::{Pml, PmlEvent};
use sim_mpi::{CommId, PmlReqId, ProtoRecvReq, ProtoSendReq, Protocol, Rank, Status, Tag, TagSel};
use sim_net::stats::class;
use sim_net::{EndpointId, SimTime};
use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

mod failure;
mod lossy;

/// Control-message kinds carried in `header[0]` of SDR-MPI protocol traffic,
/// and the one constructor of their headers.
pub mod ctl {
    /// Acknowledgement of an application message (class `ACK`, or class
    /// `CONTROL` when re-emitted reliably in response to an
    /// [`ACK_PROBE`]).
    pub const ACK: i64 = 1;
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
    /// Delivered sequences above a gap; allocated on the first one (a
    /// post-failure re-send), so a tracker is two words.
    #[allow(clippy::box_collection)]
    ahead: Option<Box<BTreeSet<u64>>>,
}

impl SeqTracker {
    /// The cumulative delivery frontier: every sequence `< next_expected()`
    /// has been delivered in order.
    pub fn next_expected(&self) -> u64 {
        self.next_expected
    }

    /// Has `seq` already been delivered?
    pub fn seen(&self, seq: u64) -> bool {
        seq < self.next_expected || self.ahead.as_ref().is_some_and(|a| a.contains(&seq))
    }

    /// Record delivery of `seq`. Returns `false` if it was already delivered
    /// (i.e. this is a duplicate).
    pub fn record(&mut self, seq: u64) -> bool {
        if self.seen(seq) {
            return false;
        }
        if seq == self.next_expected {
            self.next_expected += 1;
            if let Some(ahead) = &mut self.ahead {
                while ahead.remove(&self.next_expected) {
                    self.next_expected += 1;
                }
            }
        } else {
            self.ahead.get_or_insert_default().insert(seq);
        }
        true
    }
}

/// One send-log entry. The fields an acknowledgement reads and writes come
/// first, in declaration order, so the ack path touches one cache line.
#[derive(Debug)]
#[repr(C)]
struct SendEntry {
    dst_rank: Rank,
    seq: u64,
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
    /// Retransmission-timer firings for this entry so far.
    retx_attempts: u32,
    comm: CommId,
    tag: Tag,
    /// Retained until all acks are in, so the substitute logic can re-send it.
    payload: Bytes,
    /// Wire (stream) sequence of each direct send, per target, so a
    /// retransmission replays the payload under the *same* sequence and the
    /// receiver's window dedups/reorders it correctly. Empty on reliable
    /// transports.
    wire_sends: Vec<(EndpointId, u64)>,
}

impl SendEntry {
    fn fully_acked(&self) -> bool {
        self.acks_expected & !self.acks_received == 0
    }
}

/// The send log: a ring of entries in posting order, which is wire order
/// (the failure handler re-sends by iterating it). A send-request id is the
/// entry's position in the ring plus `base`, the id of the ring's front; a
/// removed entry leaves a hole until every entry ahead of it is gone too.
#[derive(Debug)]
struct SendLog {
    base: u64,
    ring: VecDeque<Option<SendEntry>>,
    live: usize,
}

impl SendLog {
    fn new() -> Self {
        SendLog {
            base: 1,
            ring: VecDeque::new(),
            live: 0,
        }
    }

    /// Append `entry`; returns its id.
    fn push(&mut self, entry: SendEntry) -> u64 {
        self.ring.push_back(Some(entry));
        self.live += 1;
        self.base + self.ring.len() as u64 - 1
    }

    /// The id the next [`SendLog::push`] returns.
    fn next_id(&self) -> u64 {
        self.base + self.ring.len() as u64
    }

    fn get(&self, id: u64) -> Option<&SendEntry> {
        let at = id.checked_sub(self.base)?;
        self.ring.get(at as usize)?.as_ref()
    }

    fn get_mut(&mut self, id: u64) -> Option<&mut SendEntry> {
        let at = id.checked_sub(self.base)?;
        self.ring.get_mut(at as usize)?.as_mut()
    }

    /// The id of the live entry for application sequence `seq` to
    /// `dst_rank`, looking at `hint` first.
    fn find(&self, dst_rank: Rank, seq: u64, hint: u64) -> Option<u64> {
        let is = |e: &SendEntry| e.dst_rank == dst_rank && e.seq == seq;
        if self.get(hint).is_some_and(is) {
            return Some(hint);
        }
        let at = self.ring.iter().position(|e| e.as_ref().is_some_and(is))?;
        Some(self.base + at as u64)
    }

    fn remove(&mut self, id: u64) {
        let Some(at) = id.checked_sub(self.base) else {
            return;
        };
        if let Some(slot) = self.ring.get_mut(at as usize) {
            if slot.take().is_some() {
                self.live -= 1;
                self.trim();
            }
        }
    }

    /// Drop every entry `drop` selects.
    fn remove_where(&mut self, mut drop: impl FnMut(&SendEntry) -> bool) {
        for slot in &mut self.ring {
            if slot.as_ref().is_some_and(&mut drop) {
                *slot = None;
                self.live -= 1;
            }
        }
        self.trim();
    }

    /// Pop the holes at the front.
    fn trim(&mut self) {
        while matches!(self.ring.front(), Some(None)) {
            self.ring.pop_front();
            self.base += 1;
        }
    }

    /// The live entries, in posting order.
    fn iter(&self) -> impl Iterator<Item = &SendEntry> {
        self.ring.iter().flatten()
    }

    fn iter_mut(&mut self) -> impl Iterator<Item = &mut SendEntry> {
        self.ring.iter_mut().flatten()
    }
}

/// Protocol-side state of one posted receive, at its PML slot's index.
#[derive(Debug)]
struct RecvEntry {
    /// The PML request, current generation included.
    req: PmlReqId,
    /// The posted filter, kept to re-arm the receive after a duplicate.
    src_rank: Option<Rank>,
    comm: CommId,
    tag: TagSel,
    /// A non-duplicate message has completed at the library level.
    delivered: bool,
    /// The [`AckOn::AppWait`] ablation acknowledges the message when the
    /// application takes it.
    ack_deferred: bool,
    /// Acknowledgement-emission CPU time that was spent while this process's
    /// clock was still behind the message's arrival. It is re-applied when the
    /// application completes the receive, so that the reception processing
    /// (match + ack emission) shows up on the critical path exactly as it does
    /// in a library without asynchronous progress.
    post_arrival_cost: SimTime,
}

/// An acknowledgement that raced ahead of the local send it acknowledges
/// (replicas may skew): who acked `(dst_rank, seq)` and the latest arrival
/// among them.
#[derive(Debug)]
struct EarlyAck {
    dst_rank: Rank,
    seq: u64,
    ackers: ReplicaMask,
    floor: SimTime,
}

/// Everything the protocol keeps per application rank, in one cache line.
#[derive(Debug, Clone)]
#[repr(align(64))]
struct Peer {
    /// Next application sequence of a send to this rank.
    send_seq: u64,
    /// Send-log id of the latest send to this rank: where its
    /// acknowledgement is looked up first.
    last_send: u64,
    /// `physicalDests[rank]`: replicas of the rank this process sends
    /// application messages to directly.
    physical_dests: ReplicaMask,
    /// `physicalSrc[rank]`: the replica of the rank this process receives
    /// from.
    physical_src: EndpointId,
    /// Application sequences delivered from the rank.
    recv_seen: SeqTracker,
    /// The rank's replicas this process believes alive (`alive`, per rank).
    live: ReplicaMask,
}

/// The per-physical-process SDR-MPI protocol instance.
#[derive(Debug)]
pub struct SdrProtocol {
    map: Arc<ReplicaMap>,
    cfg: ReplicationConfig,
    my_rank: Rank,
    my_replica: usize,

    // --- Algorithm 1 state -------------------------------------------------
    /// Per application rank: routing (`physicalDests`, `physicalSrc`) and
    /// sequencing.
    peers: Vec<Peer>,
    /// `substitute[rep]`: which replica id of *this* process's rank is in
    /// charge of sending on behalf of replica `rep`.
    substitute: Vec<usize>,
    /// Liveness of every physical process, as known locally, as the
    /// substitute election reads it; each peer's `live` mask mirrors its
    /// rank's entries for the fast path. An entry only ever goes from alive
    /// to dead.
    alive: Vec<bool>,

    // --- request bookkeeping -----------------------------------------------
    sends: SendLog,
    /// Posted receives, at their PML slot's index.
    recvs: Vec<Option<RecvEntry>>,
    early_acks: Vec<EarlyAck>,
    /// Cumulative pre-acknowledgements from peers' `FIN_ACK` notices, per
    /// acker endpoint (empty until the first): `upto` means the acker has
    /// received every application sequence `< upto` this rank addressed to
    /// its rank. Folded into new send entries at `isend` time, covering the
    /// replica-skew case where a slow replica posts a send after its fast
    /// counterpart's receiver has already finalized.
    fin_acked: Vec<u64>,
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
        let peers = (0..map.ranks())
            .map(|rank| Peer {
                send_seq: 0,
                last_send: 0,
                physical_dests: map.direct_dests(my_rank, my_replica, rank),
                physical_src: map.direct_src(my_replica, rank),
                recv_seen: SeqTracker::default(),
                live: ReplicaMask::MAX >> (ReplicaMask::BITS as usize - map.degree_of(rank)),
            })
            .collect();
        let my_degree = map.degree_of(my_rank);
        let physical = map.physical_processes();
        SdrProtocol {
            map,
            cfg,
            my_rank,
            my_replica,
            peers,
            substitute: (0..my_degree).collect(),
            alive: vec![true; physical],
            sends: SendLog::new(),
            recvs: Vec::new(),
            early_acks: Vec::new(),
            fin_acked: Vec::new(),
        }
    }

    /// The protocol's entry for PML request `req`, if it is current.
    fn recv_entry(&self, req: PmlReqId) -> Option<&RecvEntry> {
        let entry = self.recvs.get(req.0 as u32 as usize)?.as_ref()?;
        (entry.req == req).then_some(entry)
    }

    fn recv_entry_mut(&mut self, req: PmlReqId) -> Option<&mut RecvEntry> {
        let entry = self.recvs.get_mut(req.0 as u32 as usize)?.as_mut()?;
        (entry.req == req).then_some(entry)
    }

    fn is_alive(&self, e: EndpointId) -> bool {
        self.alive.get(e.0).copied().unwrap_or(false)
    }

    /// Record that endpoint `e` failed.
    fn mark_dead(&mut self, e: EndpointId) {
        self.alive[e.0] = false;
        let (rank, replica) = self.map.locate(e);
        self.peers[rank].live &= !(1 << replica);
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
        let targets = Self::ack_targets(pml, src_rep) & self.peers[src_rank].live;
        for rep in (0..self.map.degree_of(src_rank)).filter(|rep| targets & (1 << rep) != 0) {
            let target = self.map.endpoint(src_rank, rep);
            let header = ctl::header(ctl::ACK, seq, 0);
            pml.send_control_at(target, class::ACK, header, Bytes::new(), arrival);
        }
    }

    fn register_ack(&mut self, from: EndpointId, seq: u64, arrival: SimTime) {
        let (dst_rank, replica) = self.map.locate(from);
        let bit = 1 << replica;
        // Find the matching send entry (messages to `dst_rank` with `seq`):
        // usually the latest send to that rank, else a scan of the log.
        let peer = &self.peers[dst_rank];
        if let Some(id) = self.sends.find(dst_rank, seq, peer.last_send) {
            let entry = self.sends.get_mut(id).expect("found above");
            entry.acks_received |= bit;
            entry.completion_floor = entry.completion_floor.max(arrival);
            if entry.app_freed && entry.fully_acked() {
                // Ack-driven GC: the application already released the request
                // and this was the last missing acknowledgement — the payload
                // can never be needed for a re-send again.
                self.sends.remove(id);
            }
        } else if seq >= peer.send_seq {
            // The ack raced ahead of the local send (replicas may skew):
            // remember it until the send is posted.
            match self
                .early_acks
                .iter_mut()
                .find(|e| e.dst_rank == dst_rank && e.seq == seq)
            {
                Some(early) => {
                    early.ackers |= bit;
                    early.floor = early.floor.max(arrival);
                }
                None => self.early_acks.push(EarlyAck {
                    dst_rank,
                    seq,
                    ackers: bit,
                    floor: arrival,
                }),
            }
        }
        // Otherwise the send has already completed and been freed; stale ack.
    }

    fn handle_recv_complete(&mut self, pml: &mut Pml, req: PmlReqId) {
        let Some(entry) = self.recv_entry(req) else {
            // Not one of ours (should not happen: every application receive is
            // registered). Ignore defensively.
            return;
        };
        let (posted_src, comm, tag) = (entry.src_rank, entry.comm, entry.tag);
        let msg = pml.completed_msg(req).expect("a completed receive");
        let (src, seq, arrival) = (msg.src, msg.aux as u64, msg.arrival);
        let (src_rank, src_replica) = self.map.locate(src);
        if !self.peers[src_rank].recv_seen.record(seq) {
            // Duplicate delivery caused by a post-failure re-send: drop the
            // payload and re-arm the receive with the same filter.
            let src_filter = posted_src.map(|r| self.peers[r].physical_src);
            self.reack_duplicate(pml, src, seq, arrival);
            pml.repost_recv(req, src_filter, comm, tag);
            return;
        }
        let ack_on = self.ack_timing(pml);
        let mut post_arrival_cost = SimTime::ZERO;
        if ack_on == AckOn::RecvComplete {
            // The paper's design: acknowledge on the library-level
            // irecvComplete event (Algorithm 1, lines 15-17).
            let before = pml.now();
            self.send_acks_for(pml, src_rank, src_replica, seq, arrival);
            // If the ack was emitted while this process was still (virtually)
            // idle before the message's arrival, the charge above is absorbed
            // when the clock later synchronises to the arrival; remember it so
            // the receive completion re-applies it on the critical path.
            if before < arrival {
                post_arrival_cost = pml.now() - before;
            }
        }
        // AckOn::Never: no acknowledgement at all (baseline configurations).
        let entry = self.recv_entry_mut(req).expect("looked up above");
        entry.delivered = true;
        entry.post_arrival_cost = post_arrival_cost;
        entry.ack_deferred = ack_on == AckOn::AppWait;
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
        let peer = &mut self.peers[dst];
        let seq = peer.send_seq;
        peer.send_seq += 1;
        let (physical_dests, live) = (peer.physical_dests, peer.live);

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
            let bit = 1 << rep;
            if live & bit == 0 {
                continue;
            }
            if physical_dests & bit != 0 {
                let target = self.map.endpoint(dst, rep);
                let wire_seq = pml.isend(target, comm, tag, seq as i64, payload.clone());
                Self::note_wire_send(pml, &mut entry, (target, wire_seq));
            } else if self.cfg.ack_on != AckOn::Never {
                entry.acks_expected |= bit;
            }
        }
        // Fold in acks that arrived before this send was posted.
        if let Some(at) = self
            .early_acks
            .iter()
            .position(|e| e.dst_rank == dst && e.seq == seq)
        {
            let early = self.early_acks.swap_remove(at);
            entry.acks_received |= early.ackers;
            entry.completion_floor = early.floor;
        }
        let id = self.sends.next_id();
        self.cover_send(pml, id, &mut entry);
        self.sends.push(entry);
        self.peers[dst].last_send = id;
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
            self.peers[r].physical_src
        });
        // The protocol-level handle *is* the PML request id, and the entry
        // sits at the index of the request's slot.
        let pml_req = pml.irecv(phys_src, comm, tag);
        let at = pml_req.0 as u32 as usize;
        if at >= self.recvs.len() {
            self.recvs.resize_with(at + 1, || None);
        }
        self.recvs[at] = Some(RecvEntry {
            req: pml_req,
            src_rank: src,
            comm,
            tag,
            delivered: false,
            ack_deferred: false,
            post_arrival_cost: SimTime::ZERO,
        });
        ProtoRecvReq(pml_req.0)
    }

    fn send_complete(&mut self, _pml: &mut Pml, req: ProtoSendReq) -> bool {
        // The direct sends were complete when `isend` returned; what can be
        // outstanding is the acknowledgements (Algorithm 1, `MPI_Wait`).
        self.sends.get(req.0).is_none_or(SendEntry::fully_acked)
    }

    fn recv_complete(&mut self, _pml: &mut Pml, req: ProtoRecvReq) -> bool {
        self.recv_entry(PmlReqId(req.0)).is_none_or(|e| e.delivered)
    }

    fn take_recv(&mut self, pml: &mut Pml, req: ProtoRecvReq) -> Option<(Status, Bytes)> {
        let pml_req = PmlReqId(req.0);
        if !self.recv_entry(pml_req)?.delivered {
            return None;
        }
        let entry = self.recvs[pml_req.0 as u32 as usize]
            .take()
            .expect("checked above");
        let msg = pml.take_recv(pml_req)?;
        if !entry.post_arrival_cost.is_zero() {
            pml.endpoint_mut()
                .clock_mut()
                .charge_comm(entry.post_arrival_cost);
        }
        let (src_rank, src_replica) = self.map.locate(msg.src);
        if entry.ack_deferred {
            // AppWait ablation: acknowledge only now that the application has
            // completed the receive.
            self.send_acks_for(pml, src_rank, src_replica, msg.aux as u64, msg.arrival);
        }
        Some((
            Status {
                source: src_rank,
                tag: msg.tag,
                len: msg.payload.len(),
            },
            msg.payload,
        ))
    }

    fn free_send(&mut self, pml: &mut Pml, req: ProtoSendReq) {
        let Some(entry) = self.sends.get_mut(req.0) else {
            return;
        };
        // The application-level send completion (return from MPI_Wait)
        // happens no earlier than the last acknowledgement it waited for.
        pml.endpoint_mut()
            .clock_mut()
            .sync_to(entry.completion_floor);
        entry.app_freed = true;
        if entry.fully_acked() {
            self.sends.remove(req.0);
        }
        // Not fully acked: the entry stays in the send log so a substitute
        // can still re-send the payload; the ack-driven GC reclaims it when
        // the last acknowledgement arrives.
    }

    fn handle_event(&mut self, pml: &mut Pml, ev: PmlEvent) {
        match ev {
            PmlEvent::RecvCompleted { req } => self.handle_recv_complete(pml, req),
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
        let waiting_acks = self.sends.iter().filter(|e| !e.fully_acked()).count();
        format!(
            "SDR-MPI rank {} replica {}: {} sends awaiting acks, {} receives outstanding",
            self.my_rank,
            self.my_replica,
            waiting_acks,
            self.recvs.iter().flatten().count()
        )
    }

    fn send_log_len(&self) -> usize {
        self.sends.live
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
                proto.peers[rank].physical_src,
                EndpointId(4 + rank),
                "replica 1 receives from replica 1 of every rank"
            );
            assert_eq!(
                proto.peers[rank].physical_dests, 0b10,
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
        assert_eq!(singleton.peers[0].physical_dests, 0b11);
        // Replica 1 of rank 0 (endpoint 2) sends nothing to the singleton
        // directly; replica 0 (endpoint 0) owns the direct copy.
        let rep1 = SdrProtocol::new(EndpointId(2), Arc::clone(&map), ReplicationConfig::dual());
        assert_eq!(rep1.peers[1].physical_dests, 0);
        let rep0 = SdrProtocol::new(EndpointId(0), Arc::clone(&map), ReplicationConfig::dual());
        assert_eq!(rep0.peers[1].physical_dests, 0b1);
        assert_eq!(map.endpoint(1, 0), EndpointId(1));
        // Both replicas of rank 0 receive rank 1's messages from the
        // singleton itself.
        assert_eq!(rep0.peers[1].physical_src, EndpointId(1));
        assert_eq!(rep1.peers[1].physical_src, EndpointId(1));
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
        let early = &proto.early_acks[..];
        assert!(
            matches!(early, [EarlyAck { dst_rank: 1, seq: 0, ackers: 0b110, floor }]
                if *floor == SimTime::from_nanos(80)),
            "{early:?}"
        );
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
