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
//! The protocol is a state machine: it takes one [`Input`] at a time and
//! appends the [`Action`]s it implies for `sim_mpi`'s driver to run against
//! the PML, so its state is a value that can be cloned and compared.
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
use sim_mpi::matching::IncomingMsg;
use sim_mpi::{
    Action, CommId, Input, ProtoRecvReq, ProtoSendReq, Protocol, Rank, Request, Tag, TagSel,
};
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
#[derive(Debug, Default, Clone, PartialEq, Eq)]
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
#[derive(Debug, Clone, PartialEq, Eq)]
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
#[derive(Debug, Clone, PartialEq, Eq)]
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
#[derive(Debug, Clone, PartialEq, Eq)]
struct RecvEntry {
    /// The request, current generation included.
    req: ProtoRecvReq,
    /// The posted filter, kept to re-arm the receive after a duplicate.
    src_rank: Option<Rank>,
    comm: CommId,
    tag: TagSel,
    /// The physical source the PML matches the receive against, and when
    /// it was (re-)posted: a failure redirects the receives of the dead
    /// source in posting order.
    posted: (Option<EndpointId>, u64),
    /// A non-duplicate message has completed at the library level.
    delivered: bool,
    /// The [`AckOn::AppWait`] ablation acknowledges the message when the
    /// application takes it.
    ack_deferred: bool,
}

/// An acknowledgement that raced ahead of the local send it acknowledges
/// (replicas may skew): who acked `(dst_rank, seq)` and the latest arrival
/// among them.
#[derive(Debug, Clone, PartialEq, Eq)]
struct EarlyAck {
    dst_rank: Rank,
    seq: u64,
    ackers: ReplicaMask,
    floor: SimTime,
}

/// Everything the protocol keeps per application rank, in one cache line.
#[derive(Debug, Clone, PartialEq, Eq)]
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

/// The per-physical-process SDR-MPI protocol instance. Two instances are
/// equal when their states are; the shared map compares by pointer first
/// (`Arc` does, for an `Eq` content).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SdrProtocol {
    map: Arc<ReplicaMap>,
    cfg: ReplicationConfig,
    /// The fabric may drop, duplicate or delay frames: loss masking is on
    /// (see `SdrProtocol::ack_targets` and the rest of that file).
    masks_loss: bool,
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
    /// Receives posted so far (each [`RecvEntry::posted`] stamp).
    posts: u64,
    early_acks: Vec<EarlyAck>,
    /// Cumulative pre-acknowledgements from peers' `FIN_ACK` notices, per
    /// acker endpoint (empty until the first): `upto` means the acker has
    /// received every application sequence `< upto` this rank addressed to
    /// its rank. Folded into new send entries at `isend` time, covering the
    /// replica-skew case where a slow replica posts a send after its fast
    /// counterpart's receiver has already finalized.
    fin_acked: Vec<u64>,
    /// `MPI_Finalize` has emitted this process's `FIN_ACK`s.
    fin_sent: bool,
}

impl SdrProtocol {
    /// Protocol instance for physical process `endpoint` of the job `map`
    /// lays out. The per-rank routing tables come straight from the map's
    /// routing rule ([`ReplicaMap::direct_src`] / [`ReplicaMap::direct_dests`]);
    /// on uniform maps this is the paper's "replica `k` talks to replica `k`".
    /// The transport is reliable unless [`SdrProtocol::on_transport`] says
    /// otherwise.
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
            masks_loss: false,
            my_rank,
            my_replica,
            peers,
            substitute: (0..my_degree).collect(),
            alive: vec![true; physical],
            sends: SendLog::new(),
            recvs: Vec::new(),
            posts: 0,
            early_acks: Vec::new(),
            fin_acked: Vec::new(),
            fin_sent: false,
        }
    }

    /// The application sequence of the next send to rank `dst`.
    pub fn send_seq(&self, dst: Rank) -> u64 {
        self.peers[dst].send_seq
    }

    /// The stamp of the next receive posting.
    fn next_post(&mut self) -> u64 {
        self.posts += 1;
        self.posts - 1
    }

    /// The protocol's entry for PML request `req`, if it is current.
    fn recv_entry(&self, req: ProtoRecvReq) -> Option<&RecvEntry> {
        let entry = self.recvs.get(req.0 as u32 as usize)?.as_ref()?;
        (entry.req == req).then_some(entry)
    }

    fn recv_entry_mut(&mut self, req: ProtoRecvReq) -> Option<&mut RecvEntry> {
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
        src_rank: Rank,
        src_rep: usize,
        seq: u64,
        arrival: SimTime,
        out: &mut Vec<Action>,
    ) {
        let targets = self.ack_targets(src_rep) & self.peers[src_rank].live;
        for rep in (0..self.map.degree_of(src_rank)).filter(|rep| targets & (1 << rep) != 0) {
            out.push(Action::Control {
                dst: self.map.endpoint(src_rank, rep),
                class: class::ACK,
                header: ctl::header(ctl::ACK, seq, 0),
                not_before: arrival,
            });
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

    fn handle_recv_complete(
        &mut self,
        now: SimTime,
        req: ProtoRecvReq,
        msg: &IncomingMsg,
        out: &mut Vec<Action>,
    ) {
        let Some(entry) = self.recv_entry(req) else {
            // Not one of ours (should not happen: every application receive is
            // registered). Ignore defensively.
            return;
        };
        let (posted_src, comm, tag) = (entry.src_rank, entry.comm, entry.tag);
        let (src, seq, arrival) = (msg.src, msg.aux as u64, msg.arrival);
        let (src_rank, src_replica) = self.map.locate(src);
        if !self.peers[src_rank].recv_seen.record(seq) {
            // Duplicate delivery caused by a post-failure re-send: drop the
            // payload and re-arm the receive with the same filter.
            let src_filter = posted_src.map(|r| self.peers[r].physical_src);
            self.reack_duplicate(src, seq, arrival, out);
            out.push(Action::Repost {
                req,
                src: src_filter,
                comm,
                tag,
            });
            let posted = (src_filter, self.next_post());
            self.recv_entry_mut(req).expect("looked up above").posted = posted;
            return;
        }
        let ack_on = self.ack_timing();
        if ack_on == AckOn::RecvComplete {
            // The paper's design: acknowledge on the library-level
            // irecvComplete event (Algorithm 1, lines 15-17).
            self.send_acks_for(src_rank, src_replica, seq, arrival, out);
            // If the ack was emitted while this process was still (virtually)
            // idle before the message's arrival, the charge is absorbed when
            // the clock later synchronises to the arrival: the receive
            // completion re-applies it on the critical path.
            if now < arrival {
                out.push(Action::DeferCost { req, since: now });
            }
        }
        // AckOn::Never: no acknowledgement at all (baseline configurations).
        let entry = self.recv_entry_mut(req).expect("looked up above");
        entry.delivered = true;
        entry.ack_deferred = ack_on == AckOn::AppWait;
    }

    /// Algorithm 1, `MPI_Isend` (lines 4-9): send directly to every replica
    /// in `physicalDests`, expect an ack from every other alive replica.
    fn isend(
        &mut self,
        dst: Rank,
        comm: CommId,
        tag: Tag,
        payload: Bytes,
        out: &mut Vec<Action>,
    ) -> ProtoSendReq {
        assert!(
            dst < self.map.ranks(),
            "destination rank {dst} out of range"
        );
        let peer = &mut self.peers[dst];
        let seq = peer.send_seq;
        peer.send_seq += 1;
        let (physical_dests, live) = (peer.physical_dests, peer.live);
        let id = self.sends.next_id();
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
        // The payload clones share one allocation (`Bytes` is refcounted),
        // so the replication degree does not multiply copies.
        for rep in 0..self.map.degree_of(dst) {
            let bit = 1 << rep;
            if live & bit == 0 {
                continue;
            }
            if physical_dests & bit != 0 {
                out.push(Action::Send {
                    dst: self.map.endpoint(dst, rep),
                    comm,
                    tag,
                    aux: seq as i64,
                    payload: payload.clone(),
                    log: self.wire_log(id),
                });
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
        self.cover_send(id, &mut entry, out);
        self.sends.push(entry);
        self.peers[dst].last_send = id;
        ProtoSendReq(id)
    }

    /// Algorithm 1, `MPI_Irecv` (lines 10-11): receive from
    /// `physicalSrc[rank]`; `MPI_ANY_SOURCE` stays an any-source receive —
    /// send-determinism makes a leader-decided source unnecessary (Section
    /// 3.1). The entry sits at the index of the request's slot.
    fn irecv(
        &mut self,
        req: ProtoRecvReq,
        src: Option<Rank>,
        comm: CommId,
        tag: TagSel,
        out: &mut Vec<Action>,
    ) {
        let phys_src = src.map(|r| {
            assert!(r < self.map.ranks(), "source rank {r} out of range");
            self.peers[r].physical_src
        });
        out.push(Action::Post {
            req,
            src: phys_src,
            comm,
            tag,
        });
        let at = req.0 as u32 as usize;
        if at >= self.recvs.len() {
            self.recvs.resize_with(at + 1, || None);
        }
        self.recvs[at] = Some(RecvEntry {
            req,
            src_rank: src,
            comm,
            tag,
            posted: (phys_src, self.next_post()),
            delivered: false,
            ack_deferred: false,
        });
    }

    fn take_recv(&mut self, req: ProtoRecvReq, msg: &IncomingMsg, out: &mut Vec<Action>) {
        if !self.recv_entry(req).is_some_and(|e| e.delivered) {
            return;
        }
        let entry = self.recvs[req.0 as u32 as usize]
            .take()
            .expect("checked above");
        let (source, src_replica) = self.map.locate(msg.src);
        out.push(Action::Deliver { req, source });
        if entry.ack_deferred {
            // AppWait ablation: acknowledge only now that the application has
            // completed the receive.
            self.send_acks_for(source, src_replica, msg.aux as u64, msg.arrival, out);
        }
    }

    fn free_send(&mut self, now: SimTime, req: ProtoSendReq, out: &mut Vec<Action>) {
        let Some(entry) = self.sends.get_mut(req.0) else {
            return;
        };
        // The application-level send completion (return from MPI_Wait)
        // happens no earlier than the last acknowledgement it waited for.
        if entry.completion_floor > now {
            out.push(Action::SyncTo(entry.completion_floor));
        }
        entry.app_freed = true;
        if entry.fully_acked() {
            self.sends.remove(req.0);
        }
        // Not fully acked: the entry stays in the send log so a substitute
        // can still re-send the payload; the ack-driven GC reclaims it when
        // the last acknowledgement arrives.
    }

    /// A control frame: acks travel on the (faultable) ACK class, every
    /// other kind — and an ack re-emitted for a probe — on the reliable
    /// CONTROL class. Other classes belong to the baselines.
    fn handle_control(
        &mut self,
        src: EndpointId,
        header: [i64; 8],
        arrival: SimTime,
        out: &mut Vec<Action>,
    ) {
        let (a, b) = (header[1] as u64, header[2] as u64);
        match header[0] {
            ctl::ACK => self.register_ack(src, a, arrival),
            ctl::RETX_TIMER => self.handle_retx_timer(a, arrival, out),
            ctl::ACK_PROBE => self.handle_ack_probe(src, a as usize, b, arrival, out),
            ctl::FIN_ACK => self.handle_fin_ack(src, a, arrival),
            _ => {}
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

    fn input(
        &mut self,
        now: SimTime,
        input: Input<'_>,
        out: &mut Vec<Action>,
    ) -> Option<ProtoSendReq> {
        match input {
            Input::Isend {
                dst,
                comm,
                tag,
                payload,
            } => return Some(self.isend(dst, comm, tag, payload, out)),
            Input::Irecv {
                req,
                src,
                comm,
                tag,
            } => self.irecv(req, src, comm, tag, out),
            Input::Completed { req, msg } => self.handle_recv_complete(now, req, msg, out),
            Input::Control {
                src,
                class: cls,
                header,
                arrival,
            } if cls == class::ACK || cls == class::CONTROL => {
                self.handle_control(src, header, arrival, out)
            }
            Input::Control { .. } => {}
            Input::Duplicate { src, aux, arrival } => {
                self.reack_duplicate(src, aux as u64, arrival, out)
            }
            Input::Failed(ev) => self.handle_failure(ev, out),
            Input::Take { req, msg } => self.take_recv(req, msg, out),
            Input::Free(req) => self.free_send(now, req, out),
            Input::Sent { log, dst, wire_seq } => {
                if let Some(entry) = self.sends.get_mut(log) {
                    entry.wire_sends.push((dst, wire_seq));
                }
            }
            Input::Finalize => self.fin_ack_and_drain(now, out),
        }
        None
    }

    fn complete(&self, req: Request) -> bool {
        match req {
            // The direct sends were out when `isend` returned; what can be
            // outstanding is the acknowledgements (Algorithm 1, `MPI_Wait`).
            Request::Send(s) => self.sends.get(s.0).is_none_or(SendEntry::fully_acked),
            Request::Recv(r) => self.recv_entry(r).is_none_or(|e| e.delivered),
        }
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
