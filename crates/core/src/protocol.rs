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
//! (the `upon failure` handler below).
//!
//! Because the application is send-deterministic, no leader is needed to agree
//! on the outcome of `MPI_ANY_SOURCE` receptions or other non-deterministic
//! calls: replicas may temporarily diverge in their reception order without
//! that divergence ever being observable in the messages they send
//! (Section 3.1 of the paper).

use crate::config::{AckOn, ReplicationConfig};
use crate::layout::{ReplicaMap, ReplicaMask};
use bytes::Bytes;
use sim_mpi::matching::KeyHasher;
use sim_mpi::pml::{MsgMeta, Pml, PmlEvent};
use sim_mpi::{
    CommId, MpiError, PmlReqId, ProtoRecvReq, ProtoSendReq, Protocol, Rank, Status, Tag, TagSel,
};
use sim_net::stats::class;
use sim_net::{EndpointId, FailureEvent, SimTime};
use std::collections::{BTreeMap, BTreeSet};
use std::hash::BuildHasherDefault;
use std::sync::Arc;

/// Per-message bookkeeping maps ride the matching engine's trusted-key
/// multiplicative hasher instead of SipHash.
type HashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<KeyHasher>>;

/// Control-message kinds carried in `header[0]` of SDR-MPI protocol traffic.
pub mod ctl {
    /// Acknowledgement of an application message (class `ACK`, or class
    /// `CONTROL` when re-emitted reliably in response to an
    /// [`ACK_PROBE`] under a lossy transport).
    pub const ACK: i64 = 1;
    /// Recovery notification broadcast by the substitute after forking a new
    /// replica (class `CONTROL`), Section 3.4.
    pub const RECOVERY_NOTIFY: i64 = 2;
    /// Self-addressed retransmission timer (class `CONTROL`): fires the
    /// timeout/backoff check for one send-log entry under a lossy transport.
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
}

/// Virtual-time base of the lossy-transport retransmission timer: 50 µs,
/// about 30× the modelled one-message round trip of the bundled network
/// models. A firing timer nevertheless seldom means a lost frame: measured
/// on the benchmark's `fault_recovery_64` workload, `proto.retx_per_drop` is
/// 9.5 — nine timer-driven retransmissions for every frame the fault policy
/// dropped — because the timer is armed in the *sender's* virtual time and
/// nothing keeps it from firing before the peer that owes the ack has been
/// dispatched that far (the peer's wire-sequence window dedups the copies).
/// Only a virtual-time lookahead can remove those: ROADMAP item 2 tracks
/// `proto.retx_per_drop`, item 4 the lookahead rule.
pub const RETX_BASE_NS: u64 = 50_000;

/// A send-log entry still unacknowledged after this many doubled timeouts
/// aborts the process: at the default campaign fault rates the probability of
/// that many consecutive losses on one link is negligible, so hitting the cap
/// indicates a protocol bug rather than bad luck.
pub const RETX_MAX_ATTEMPTS: u32 = 32;

/// Attempt count from which each retransmission timeout additionally sleeps
/// a short *real-time* interval — when another run permit is in circulation
/// (`Endpoint::runs_alone` is false). Virtual timer pops are instantaneous in
/// real time, so repeated timeouts there usually mean a peer executing under
/// the other permit is starved of physical CPU, not that the network lost
/// every copy; sleeping lets already-emitted acknowledgements physically
/// arrive long before [`RETX_MAX_ATTEMPTS`] can be reached. A process holding
/// the only permit never sleeps: nobody could run meanwhile.
pub const RETX_REAL_BACKOFF_ATTEMPTS: u32 = 8;

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
}

impl SeqTracker {
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
pub(crate) struct SendEntry {
    pub(crate) dst_rank: Rank,
    pub(crate) comm: CommId,
    pub(crate) tag: Tag,
    pub(crate) seq: u64,
    /// Retained until all acks are in, so the substitute logic can re-send it.
    pub(crate) payload: Bytes,
    /// Wire (stream) sequence of each direct send, per target, so the lossy
    /// retransmission path can replay the payload under the *same* sequence
    /// and the receiver's window dedups/reorders it correctly. Empty on
    /// reliable transports.
    pub(crate) wire_sends: Vec<(EndpointId, u64)>,
    /// Retransmission-timer firings for this entry so far (lossy mode).
    pub(crate) retx_attempts: u32,
    /// Replicas of `dst_rank` whose acknowledgement this send waits for.
    pub(crate) acks_expected: ReplicaMask,
    /// Replicas of `dst_rank` known to hold the message (acked, or re-sent to
    /// over our own channel).
    pub(crate) acks_received: ReplicaMask,
    /// Latest arrival time among the acknowledgements collected so far; the
    /// application-level send completion (return from `MPI_Wait`) is
    /// time-stamped no earlier than this.
    pub(crate) completion_floor: SimTime,
    /// The application has released its request handle. Once this entry is
    /// also fully acked it is garbage — the ack-driven GC removes it the
    /// moment the last acknowledgement arrives, keeping the send log bounded.
    pub(crate) app_freed: bool,
}

impl SendEntry {
    pub(crate) fn fully_acked(&self) -> bool {
        self.acks_expected & !self.acks_received == 0
    }
}

/// Protocol-side state of one posted receive, keyed by its PML request id.
#[derive(Debug)]
pub(crate) struct RecvEntry {
    /// The posted filter, kept to re-arm the receive after a duplicate.
    pub(crate) src_rank: Option<Rank>,
    pub(crate) comm: CommId,
    pub(crate) tag: TagSel,
    /// A non-duplicate message has completed at the library level.
    pub(crate) delivered: bool,
    /// Deferred-ack bookkeeping for the [`AckOn::AppWait`] ablation:
    /// (sender rank, sender replica, app-level seq, message arrival).
    pub(crate) deferred_ack: Option<(Rank, usize, u64, SimTime)>,
    /// Acknowledgement-emission CPU time that was spent while this process's
    /// clock was still behind the message's arrival. It is re-applied when the
    /// application completes the receive, so that the reception processing
    /// (match + ack emission) shows up on the critical path exactly as it does
    /// in a library without asynchronous progress.
    pub(crate) post_arrival_cost: SimTime,
}

/// The per-physical-process SDR-MPI protocol instance.
pub struct SdrProtocol {
    pub(crate) map: Arc<ReplicaMap>,
    pub(crate) cfg: ReplicationConfig,
    pub(crate) my_rank: Rank,
    pub(crate) my_replica: usize,

    // --- Algorithm 1 state -------------------------------------------------
    /// `physicalDests[rank]`: replicas of `rank` this process sends application
    /// messages to directly.
    pub(crate) physical_dests: Vec<ReplicaMask>,
    /// `physicalSrc[rank]`: the replica of `rank` this process receives from.
    pub(crate) physical_src: Vec<EndpointId>,
    /// `substitute[rep]`: which replica id of *this* process's rank is in
    /// charge of sending on behalf of replica `rep`.
    pub(crate) substitute: Vec<usize>,
    /// Liveness of every physical process, as known locally.
    pub(crate) alive: Vec<bool>,

    // --- sequencing and request bookkeeping --------------------------------
    pub(crate) send_seq: Vec<u64>,
    pub(crate) recv_seen: Vec<SeqTracker>,
    /// The send log, keyed by send-request id — i.e. in posting order, which
    /// is wire order: the failure and recovery handlers re-send by iterating
    /// it.
    pub(crate) sends: BTreeMap<u64, SendEntry>,
    next_send: u64,
    pub(crate) recvs: BTreeMap<PmlReqId, RecvEntry>,
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
    /// Lossy-transport masking mode: captured from the PML at `init` (true
    /// iff a `NetFaultPolicy` is installed on the fabric). Switches on
    /// ack-everyone, the retransmission timer and the finalize drain.
    lossy: bool,
}

impl std::fmt::Debug for SdrProtocol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SdrProtocol")
            .field("rank", &self.my_rank)
            .field("replica", &self.my_replica)
            .field("pending_sends", &self.sends.len())
            .field("pending_recvs", &self.recvs.len())
            .finish()
    }
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
            lossy: false,
        }
    }

    /// Has this process already delivered application message `seq` from
    /// `src_rank`? (Exposed for the recovery script and diagnostics.)
    pub fn has_delivered(&self, src_rank: Rank, seq: u64) -> bool {
        self.recv_seen
            .get(src_rank)
            .map(|t| t.seen(seq))
            .unwrap_or(false)
    }

    fn is_alive(&self, e: EndpointId) -> bool {
        self.alive.get(e.0).copied().unwrap_or(false)
    }

    /// The sender and acker are the wire source and destination; the header
    /// only has to name the message.
    fn ack_header(seq: u64) -> [i64; 8] {
        [ctl::ACK, seq as i64, 0, 0, 0, 0, 0, 0]
    }

    fn send_acks_for(
        &mut self,
        pml: &mut Pml,
        src_rank: Rank,
        src_replica: usize,
        seq: u64,
        not_before: SimTime,
    ) {
        for rep in 0..self.map.degree_of(src_rank) {
            if rep == src_replica && !self.lossy {
                // Crossed-ack topology: the direct sender learns of delivery
                // from the *other* replicas. Under a lossy transport the
                // direct sender is acked too — it owns the only link the
                // payload can be retransmitted on, so it must be the one to
                // detect a dropped direct delivery (DESIGN.md §5.5).
                continue;
            }
            let target = self.map.endpoint(src_rank, rep);
            if self.is_alive(target) {
                // The ack reacts to the received message: it cannot be
                // injected before that message has arrived, even if this
                // process's clock has not caught up with the arrival yet.
                pml.send_control_at(
                    target,
                    class::ACK,
                    Self::ack_header(seq),
                    Bytes::new(),
                    not_before,
                );
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
            if self.lossy {
                // The sender evidently lost our acknowledgement: re-emit it.
                self.send_acks_for(pml, src_rank, src_replica, seq, meta.arrival);
            }
            pml.repost_recv(req, src, comm, tag);
            return;
        }
        // A lossy transport forces ack-at-receipt: the deferred (AppWait) and
        // disabled (Never) ablations would let the sender's retransmission
        // timer fire on messages that were in fact delivered.
        let ack_on = if self.lossy {
            AckOn::RecvComplete
        } else {
            self.cfg.ack_on
        };
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
        let header = [ctl::RECOVERY_NOTIFY, recovered.0 as i64, 0, 0, 0, 0, 0, 0];
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
    pub(crate) fn handle_recovery_notification(&mut self, pml: &mut Pml, recovered: EndpointId) {
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

    /// Algorithm 1, `upon failure of p^rep_rank`.
    fn handle_failure(&mut self, pml: &mut Pml, ev: FailureEvent) {
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
    /// that can complete an entry's ack set without going through
    /// [`SdrProtocol::register_ack`] (the failure handler force-completes
    /// acks of dead replicas).
    fn collect_send_log_garbage(&mut self) {
        self.sends.retain(|_, e| !(e.app_freed && e.fully_acked()));
    }

    /// Arm (or re-arm) the retransmission timer for send-log entry `id`: a
    /// self-addressed CONTROL message whose virtual arrival is the timeout
    /// deadline. A send ingests before it returns, so the timer is queued in
    /// this process's own inbox immediately — a process with an unacked send can
    /// therefore never be judged quiescent, which is what keeps deadlock
    /// detection exact under message loss (DESIGN.md §5.5).
    fn arm_retx_timer(&mut self, pml: &mut Pml, id: u64, deadline: SimTime) {
        let me = pml.endpoint_id();
        pml.send_control_at(
            me,
            class::CONTROL,
            [ctl::RETX_TIMER, id as i64, 0, 0, 0, 0, 0, 0],
            Bytes::new(),
            deadline,
        );
    }

    /// A retransmission timer fired for send-log entry `id` at virtual time
    /// `now`. If the entry is still missing acknowledgements, chase each
    /// missing one — replay the payload on direct links (same wire sequence,
    /// so the receiver's window dedups it), probe cross replicas reliably —
    /// and re-arm the timer with doubled backoff.
    fn handle_retx_timer(&mut self, pml: &mut Pml, id: u64, now: SimTime) {
        let Some(entry) = self.sends.get_mut(&id) else {
            return; // already acked and collected: stale timer
        };
        if entry.fully_acked() {
            return;
        }
        entry.retx_attempts += 1;
        let attempts = entry.retx_attempts;
        // The deadline has been reached in *virtual* time only — popping a
        // self-addressed timer is instantaneous in real time. Before judging
        // the timeout, sync our clock to the deadline and cross the
        // scheduler's advance boundary, handing the run permit to any ready
        // process earlier in virtual time. Without this, a process whose
        // inbox the timer keeps warm never parks and never yields, starving
        // the very peers whose acknowledgements would cancel the timer while
        // the attempt counter races to its cap (DESIGN.md §5.5).
        pml.wait_until(now);
        // The boundary above yields only within the scheduler's permit pool.
        // A peer executing concurrently under *another* permit may still be
        // waiting for physical CPU while this process — whose timer pops
        // cost nanoseconds of real time each — races through backoff rounds:
        // give the OS a scheduling point every attempt, and once attempts
        // pile up, a short real sleep, so acknowledgements already emitted
        // get physical time to arrive before the attempt cap can be reached.
        // When ours is the only permit in circulation nobody can run while
        // we wait, so there is nothing to wait for (DESIGN.md §5.5).
        if !pml.endpoint().runs_alone() {
            pml.endpoint().fabric().stats().record_retx_real_wait();
            std::thread::yield_now();
            if attempts >= RETX_REAL_BACKOFF_ATTEMPTS {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
        }
        assert!(
            attempts <= RETX_MAX_ATTEMPTS,
            "send to rank {} seq {} still unacked after {} retransmission timeouts",
            entry.dst_rank,
            entry.seq,
            RETX_MAX_ATTEMPTS,
        );
        let missing = entry.acks_expected & !entry.acks_received;
        let (dst_rank, comm, tag, seq) = (entry.dst_rank, entry.comm, entry.tag, entry.seq);
        let (payload, wire_sends) = (entry.payload.clone(), entry.wire_sends.clone());
        for rep in (0..self.map.degree_of(dst_rank)).filter(|rep| missing & (1 << rep) != 0) {
            let target = self.map.endpoint(dst_rank, rep);
            if !self.is_alive(target) {
                continue;
            }
            if let Some(&(_, wire_seq)) = wire_sends.iter().find(|(e, _)| *e == target) {
                pml.resend_app(target, comm, tag, seq as i64, wire_seq, payload.clone());
            } else {
                pml.send_control_at(
                    target,
                    class::CONTROL,
                    [
                        ctl::ACK_PROBE,
                        self.my_rank as i64,
                        seq as i64,
                        0,
                        0,
                        0,
                        0,
                        0,
                    ],
                    Bytes::new(),
                    now,
                );
            }
        }
        let backoff = SimTime::from_nanos(RETX_BASE_NS << (attempts - 1).min(16));
        self.arm_retx_timer(pml, id, now.saturating_add(backoff));
    }

    /// A peer probes whether application sequence `seq` from `sender_rank`
    /// has been delivered here. If it has, re-emit the acknowledgement — on
    /// the reliable CONTROL class, so a probe/re-ack exchange always
    /// terminates regardless of the fault rates on the ACK class.
    fn handle_ack_probe(
        &mut self,
        pml: &mut Pml,
        prober: EndpointId,
        sender_rank: Rank,
        seq: u64,
        arrival: SimTime,
    ) {
        if self.recv_seen[sender_rank].seen(seq) {
            pml.send_control_at(
                prober,
                class::CONTROL,
                Self::ack_header(seq),
                Bytes::new(),
                arrival,
            );
        }
        // Not seen yet: our own direct sender's retransmission timer is in
        // charge of getting the payload here; we will ack on delivery.
    }

    /// A peer's finalize-time cumulative acknowledgement: `acker` (a replica
    /// of rank `rank_of(acker)`) has received everything this rank ever sent
    /// it below `upto`. Acks every matching live entry and is remembered for
    /// sends this (possibly slower) replica has not posted yet.
    fn handle_fin_ack(&mut self, acker: EndpointId, upto: u64, arrival: SimTime) {
        let (dst_rank, replica) = self.map.locate(acker);
        for entry in self.sends.values_mut() {
            if entry.dst_rank == dst_rank && entry.seq < upto {
                entry.acks_received |= 1 << replica;
                entry.completion_floor = entry.completion_floor.max(arrival);
            }
        }
        let slot = self.fin_acked.entry((dst_rank, acker)).or_insert(0);
        *slot = (*slot).max(upto);
        self.collect_send_log_garbage();
    }
}

impl Protocol for SdrProtocol {
    fn app_rank(&self) -> Rank {
        self.my_rank
    }

    fn app_size(&self) -> usize {
        self.map.ranks()
    }

    fn replica_id(&self) -> usize {
        self.my_replica
    }

    fn is_primary(&self) -> bool {
        self.my_replica == 0
    }

    fn init(&mut self, pml: &mut Pml) {
        // Capture the transport mode once: the fault policy is installed on
        // the fabric before any process starts, so this cannot change
        // mid-run.
        self.lossy = pml.lossy_transport();
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
        //
        // Under a lossy transport the ack set widens to *every* alive replica
        // of the destination rank, direct targets included: the direct sender
        // owns the only link a dropped payload can be retransmitted on, so it
        // must learn of delivery (or the lack of it) itself.
        for rep in 0..self.map.degree_of(dst) {
            let target = self.map.endpoint(dst, rep);
            if !self.is_alive(target) {
                continue;
            }
            let bit = 1 << rep;
            let direct = self.physical_dests[dst] & bit != 0;
            if direct {
                let wire_seq = pml.isend(target, comm, tag, seq as i64, payload.clone());
                if self.lossy {
                    entry.wire_sends.push((target, wire_seq));
                }
            }
            if self.lossy {
                entry.acks_expected |= bit;
                // Fold in a cumulative finalize-time ack from a peer that
                // already exited (replica skew: its counterpart sent — and it
                // received — this sequence before we posted it).
                let fin_acked = self.fin_acked.get(&(dst, target));
                if fin_acked.is_some_and(|&upto| seq < upto) {
                    entry.acks_received |= bit;
                }
            } else if !direct && self.cfg.ack_on != AckOn::Never {
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
        let armed = self.lossy && !entry.fully_acked();
        self.sends.insert(id, entry);
        if armed {
            let deadline = pml.now().saturating_add(SimTime::from_nanos(RETX_BASE_NS));
            self.arm_retx_timer(pml, id, deadline);
        }
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
            PmlEvent::Control {
                src,
                class: cls,
                header,
                arrival,
                ..
            } => {
                // Acks normally travel on the (faultable) ACK class; probe
                // responses re-emit them on the reliable CONTROL class, so the
                // ack branch accepts both.
                if (cls == class::ACK || cls == class::CONTROL) && header[0] == ctl::ACK {
                    self.register_ack(src, header[1] as u64, arrival);
                } else if cls == class::CONTROL && header[0] == ctl::RECOVERY_NOTIFY {
                    let recovered = EndpointId(header[1] as usize);
                    self.handle_recovery_notification(pml, recovered);
                } else if cls == class::CONTROL && header[0] == ctl::RETX_TIMER {
                    self.handle_retx_timer(pml, header[1] as u64, arrival);
                } else if cls == class::CONTROL && header[0] == ctl::ACK_PROBE {
                    self.handle_ack_probe(pml, src, header[1] as usize, header[2] as u64, arrival);
                } else if cls == class::CONTROL && header[0] == ctl::FIN_ACK {
                    self.handle_fin_ack(src, header[1] as u64, arrival);
                }
            }
            PmlEvent::DuplicateSuppressed {
                src, aux, arrival, ..
            } => {
                // The PML's wire window discarded a retransmit whose original
                // made it through after all: the sender is still missing our
                // acknowledgement, so re-emit it.
                let (src_rank, src_replica) = self.map.locate(src);
                self.send_acks_for(pml, src_rank, src_replica, aux as u64, arrival);
            }
            PmlEvent::ProcessFailed(ev) => self.handle_failure(pml, ev),
        }
    }

    fn finalize(&mut self, pml: &mut Pml) {
        if !self.lossy {
            return;
        }
        // Termination under loss, two steps (DESIGN.md §5.5):
        //
        // 1. Emit cumulative acknowledgements on the reliable CONTROL class.
        //    At finalize this process has received *everything* any peer will
        //    ever send it (the app completed all its receives, and the wire
        //    window admits no gaps), so one `upto` per sender rank covers
        //    every per-message ack a fault may have eaten — senders can
        //    complete even after we exit.
        let me = pml.endpoint_id();
        for src_rank in 0..self.map.ranks() {
            let upto = self.recv_seen[src_rank].next_expected;
            if upto == 0 {
                continue;
            }
            for rep in 0..self.map.degree_of(src_rank) {
                let target = self.map.endpoint(src_rank, rep);
                if target != me && self.is_alive(target) {
                    pml.send_control_at(
                        target,
                        class::CONTROL,
                        [ctl::FIN_ACK, upto as i64, 0, 0, 0, 0, 0, 0],
                        Bytes::new(),
                        pml.now(),
                    );
                }
            }
        }
        // 2. Drain the send log: keep progressing (retransmission timers,
        //    probe responses, peers' FIN_ACKs) until every entry is fully
        //    acknowledged — exiting earlier would strand a receiver whose
        //    copy of a payload was dropped.
        while self.sends.values().any(|e| !e.fully_acked()) {
            match pml.progress_blocking("SDR-MPI finalize: draining unacked send log", false) {
                Ok(events) => {
                    for ev in events {
                        self.handle_event(pml, ev);
                    }
                }
                Err(err) => std::panic::panic_any(err),
            }
        }
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
    fn uniform(endpoint: usize, ranks: usize, cfg: ReplicationConfig) -> SdrProtocol {
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
        assert!(!proto.is_primary());
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

    #[test]
    fn ack_header_roundtrip() {
        let h = SdrProtocol::ack_header(42);
        assert_eq!(h[0], ctl::ACK);
        assert_eq!(h[1], 42);
    }

    #[test]
    #[should_panic(expected = "degree 65 is not supported")]
    fn degrees_beyond_the_mask_width_are_rejected() {
        uniform(0, 1, ReplicationConfig::with_degree(65));
    }

    fn pml_for(endpoint: usize, n: usize) -> Pml {
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
                header: SdrProtocol::ack_header(0),
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
                    header: SdrProtocol::ack_header(0),
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
                header: SdrProtocol::ack_header(0),
                payload: Bytes::new(),
                arrival: SimTime::from_nanos(50),
            },
        );
        assert_eq!(proto.send_log_len(), 1, "retained until the app frees it");
        assert!(proto.send_complete(&mut pml, req));
        proto.free_send(&mut pml, req);
        assert_eq!(proto.send_log_len(), 0);
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
