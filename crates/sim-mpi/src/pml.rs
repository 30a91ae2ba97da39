//! The point-to-point management layer (PML), modelled on Open MPI's `ob1`.
//!
//! The PML owns the process's fabric [`Endpoint`], the matching engine, and
//! the table of outstanding receive requests (a send is complete the moment
//! it is handed to the fabric, so it has no request). It exposes exactly the
//! interception surface that SDR-MPI patches into Open MPI (Section 4.1):
//!
//! * `isend` / `irecv` — the `pml_send`/`pml_recv` entry points a protocol can
//!   wrap with pre/post-treatment;
//! * [`PmlEvent::RecvCompleted`] — the `pml_recv_complete` callback
//!   (the paper's `irecvComplete` event) on which SDR-MPI emits its acks;
//! * [`PmlEvent::Control`] — delivery of protocol-level messages (acks,
//!   leader decisions, recovery notifications) that bypass MPI matching;
//! * [`PmlEvent::ProcessFailed`] — the failure notification from the external
//!   failure-detection service.
//!
//! Crucially, the PML only makes progress when one of its methods is called
//! (no asynchronous progress thread), reproducing the default Open MPI /
//! MPICH2 behaviour that motivates acking on `irecvComplete` rather than in
//! `MPI_Wait` (Section 3.3).

use crate::matching::{IncomingMsg, KeyHasher, MatchingEngine, PmlReqId, PostedRecv};
use crate::types::{CommId, MpiError, MpiResult, Tag, TagSel};
use bytes::Bytes;
use sim_net::stats::class;
use sim_net::{Endpoint, EndpointId, FailureEvent, RecvError, SimTime};
use std::hash::BuildHasherDefault;

/// The request/sequence tables are touched several times per message; the
/// same trusted-key multiplicative hasher the matching engine uses keeps
/// them off the SipHash path.
type HashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<KeyHasher>>;

/// Metadata describing a completed receive (or an incoming message), handed
/// to protocols together with [`PmlEvent::RecvCompleted`].
#[derive(Debug, Clone, Copy)]
pub struct MsgMeta {
    /// Sending physical process.
    pub src: EndpointId,
    /// Communicator context of the message.
    pub comm: CommId,
    /// Message tag.
    pub tag: Tag,
    /// PML-level sequence number of the (src → this process, comm) stream.
    pub seq: u64,
    /// Protocol auxiliary word (e.g. SDR-MPI's application-level sequence).
    pub aux: i64,
    /// Payload length in bytes.
    pub len: usize,
    /// Virtual arrival time of the message.
    pub arrival: SimTime,
}

/// Events produced by the progress engine and consumed by the protocol layer.
#[derive(Debug, Clone)]
pub enum PmlEvent {
    /// A posted receive completed at the library level (`irecvComplete`).
    RecvCompleted {
        /// The receive request that completed.
        req: PmlReqId,
        /// Metadata of the delivered message.
        meta: MsgMeta,
    },
    /// A non-application message (ack, decision, notification, hash) arrived.
    Control {
        /// Sending physical process.
        src: EndpointId,
        /// Traffic class (see [`sim_net::stats::class`]).
        class: u8,
        /// Raw header words as sent by the peer protocol.
        header: [i64; 8],
        /// Payload.
        payload: Bytes,
        /// Virtual arrival time of the control message (protocols use this to
        /// time-stamp completions that depend on it, e.g. a send request that
        /// finishes when its acknowledgements are in).
        arrival: SimTime,
    },
    /// The PML's lossy-transport sequence window suppressed a duplicate
    /// application message (a retransmit whose original eventually arrived,
    /// or a fabric-injected duplicate that escaped the sweep-time filter).
    /// The payload never reaches matching — protocols only need this to
    /// re-emit acknowledgements the sender is evidently still missing.
    DuplicateSuppressed {
        /// Sending physical process.
        src: EndpointId,
        /// Communicator of the suppressed duplicate.
        comm: CommId,
        /// Protocol auxiliary word of the duplicate (SDR-MPI's app-level
        /// sequence number, which identifies the send-log entry to re-ack).
        aux: i64,
        /// Virtual arrival time of the duplicate.
        arrival: SimTime,
    },
    /// The failure-detection service reports a crashed process.
    ProcessFailed(FailureEvent),
}

// Costs of PML-internal operations that the network model cannot see.
/// Cost of matching one incoming message, nanoseconds.
const MATCH_OVERHEAD_NS: u64 = 40;
/// Base cost of delivering a message from the unexpected queue (the extra
/// copy the paper mentions), nanoseconds.
const UNEXPECTED_COPY_BASE_NS: u64 = 120;
/// Per-byte cost of that extra copy, picoseconds per byte.
const UNEXPECTED_COPY_PS_PER_BYTE: u64 = 250;

/// One scheduled soft-error injection: flip `bit` of the payload of this
/// process's `nth_send`-th application send (1-based), *after* the protocol
/// layer has seen the clean payload — the wire carries the corrupted copy
/// while any protocol-level bookkeeping (e.g. redMPI's payload hash) was
/// computed on the clean one, exactly like a NIC or buffer-memory upset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SdcFlip {
    /// 1-based index of the application send to corrupt.
    pub nth_send: u64,
    /// Bit to flip, taken modulo the payload size in bits (empty payloads are
    /// left untouched).
    pub bit: u32,
}

/// State of one receive request.
#[derive(Debug)]
enum ReqState {
    /// Waiting for a matching message.
    RecvPending,
    /// Completed; payload retained until taken.
    RecvDone { meta: MsgMeta, payload: Bytes },
}

/// The PML: per-process point-to-point engine.
pub struct Pml {
    ep: Endpoint,
    engine: MatchingEngine,
    requests: HashMap<PmlReqId, ReqState>,
    next_req: u64,
    send_seq: HashMap<(EndpointId, CommId), u64>,
    failures_seen: u64,
    pending_events: Vec<PmlEvent>,
    /// A drained event vector the caller handed back
    /// ([`Pml::recycle_events`]); it becomes `pending_events` the next time
    /// that one is given away, so steady-state progress allocates nothing.
    spare_events: Vec<PmlEvent>,
    /// Application sends posted so far (all destinations), the index the
    /// fault-campaign's [`SdcFlip::nth_send`] counts against. Matches the
    /// fabric's per-endpoint send count used by crash schedules.
    app_sends: u64,
    /// Scheduled soft-error injections, armed by the job launcher.
    sdc_flips: Vec<SdcFlip>,
    /// Next expected wire sequence per (src, comm) stream. Only maintained
    /// when a lossy-transport policy is installed on the fabric — reliable
    /// fabrics deliver per-link FIFO, so the window would be pure overhead.
    recv_cursor: HashMap<(EndpointId, CommId), u64>,
    /// Messages that arrived ahead of a wire-sequence gap (a dropped original
    /// whose retransmit has not landed yet), held back so matching sees the
    /// stream in wire order.
    reorder: std::collections::HashMap<
        (EndpointId, CommId),
        std::collections::BTreeMap<u64, IncomingMsg>,
        BuildHasherDefault<KeyHasher>,
    >,
    /// Wire-level duplicates discarded by the sequence window.
    wire_dups_suppressed: u64,
}

impl std::fmt::Debug for Pml {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pml")
            .field("endpoint", &self.ep.id())
            .field("now", &self.ep.now())
            .field("outstanding", &self.requests.len())
            .finish()
    }
}

impl Pml {
    /// Wrap an endpoint.
    pub fn new(ep: Endpoint) -> Self {
        Pml {
            ep,
            engine: MatchingEngine::new(),
            requests: HashMap::default(),
            next_req: 1,
            send_seq: HashMap::default(),
            failures_seen: 0,
            pending_events: Vec::new(),
            spare_events: Vec::new(),
            app_sends: 0,
            sdc_flips: Vec::new(),
            recv_cursor: HashMap::default(),
            reorder: std::collections::HashMap::default(),
            wire_dups_suppressed: 0,
        }
    }

    /// Is a lossy-transport fault policy installed on this process's fabric?
    /// When true the PML runs its receive-side sequence window (reorder +
    /// dedup below matching) and protocols are expected to retransmit
    /// unacknowledged sends (see `DESIGN.md` §5.5).
    pub fn lossy_transport(&self) -> bool {
        self.ep.fabric().net_fault_policy().is_some()
    }

    /// Wire-level duplicate messages the receive sequence window has
    /// discarded (retransmits whose original also arrived).
    pub fn wire_dups_suppressed(&self) -> u64 {
        self.wire_dups_suppressed
    }

    /// Arm scheduled soft-error injections (fault-campaign SDC class): each
    /// entry corrupts one future application send of this process. Injected
    /// flips are counted in [`sim_net::NetStats`] (`sdc_flips_injected`).
    pub fn arm_sdc_flips(&mut self, flips: Vec<SdcFlip>) {
        self.sdc_flips = flips;
    }

    /// This process's physical identity.
    pub fn endpoint_id(&self) -> EndpointId {
        self.ep.id()
    }

    /// Immutable access to the endpoint (clock, fabric, stats).
    pub fn endpoint(&self) -> &Endpoint {
        &self.ep
    }

    /// Mutable access to the endpoint (protocols may need to charge custom
    /// costs or consult the fabric).
    pub fn endpoint_mut(&mut self) -> &mut Endpoint {
        &mut self.ep
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.ep.now()
    }

    /// Advance the virtual clock by `d` of application computation.
    pub fn compute(&mut self, d: SimTime) {
        self.ep.compute(d);
    }

    /// The matching engine (read-only; used by statistics and tests).
    pub fn matching(&self) -> &MatchingEngine {
        &self.engine
    }

    /// Synchronise the clock to a virtual deadline the process waited out
    /// (e.g. a protocol retransmission timeout) and yield the run permit to
    /// any ready process that is earlier in virtual time — see
    /// [`sim_net::fabric::Endpoint::wait_until`].
    pub fn wait_until(&mut self, deadline: SimTime) {
        self.ep.wait_until(deadline);
    }

    /// Post a send of `payload` to physical process `dst` on communicator
    /// `comm` with `tag`. `aux` is an opaque protocol word carried in the wire
    /// header (SDR-MPI stores its application-level sequence number there).
    ///
    /// There is no send request: at the PML level a send is complete once the
    /// payload has been handed to the fabric, which is before this returns.
    /// Protocols that need stronger completion (e.g. SDR-MPI waiting for acks)
    /// layer it on top. Returns the wire (stream) sequence number the send
    /// was stamped with, so a protocol retransmitting from its send log can
    /// replay the message under the *same* sequence ([`Pml::resend_app`]) —
    /// the receiver's lossy-transport window then dedups and reorders it
    /// correctly.
    pub fn isend(
        &mut self,
        dst: EndpointId,
        comm: CommId,
        tag: Tag,
        aux: i64,
        payload: Bytes,
    ) -> u64 {
        self.app_sends += 1;
        let payload = self.corrupt_if_scheduled(payload);
        let seq_key = (dst, comm);
        let seq = self.send_seq.entry(seq_key).or_insert(0);
        let this_seq = *seq;
        *seq += 1;
        let header = [
            comm.0 as i64,
            tag,
            this_seq as i64,
            aux,
            payload.len() as i64,
            0,
            0,
            0,
        ];
        self.ep.send(dst, class::APP, header, payload);
        this_seq
    }

    /// Retransmit a logged application payload under its original wire
    /// sequence (`wire_seq` from [`Pml::isend`]). Unlike a fresh
    /// send this does not advance the stream sequence, does not count as a
    /// new application send for SDC/crash schedules, and does not re-apply
    /// scheduled corruptions — the wire carries exactly what the send log
    /// retained. Counted in [`sim_net::NetStats`] (`retransmits`).
    pub fn resend_app(
        &mut self,
        dst: EndpointId,
        comm: CommId,
        tag: Tag,
        aux: i64,
        wire_seq: u64,
        payload: Bytes,
    ) {
        let header = [
            comm.0 as i64,
            tag,
            wire_seq as i64,
            aux,
            payload.len() as i64,
            0,
            0,
            0,
        ];
        self.ep.fabric().stats().record_retransmit();
        self.ep.send(dst, class::APP, header, payload);
    }

    /// Apply any armed [`SdcFlip`] matching the current send index. The flip
    /// happens below every protocol layer (they have already read the clean
    /// payload), modelling corruption in flight.
    fn corrupt_if_scheduled(&mut self, payload: Bytes) -> Bytes {
        let nth = self.app_sends;
        let Some(pos) = self.sdc_flips.iter().position(|f| f.nth_send == nth) else {
            return payload;
        };
        let flip = self.sdc_flips.swap_remove(pos);
        if payload.is_empty() {
            return payload;
        }
        let mut bytes = payload.to_vec();
        let bit = flip.bit as usize % (bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        self.ep.fabric().stats().record_sdc_flip();
        Bytes::from(bytes)
    }

    /// Fire-and-forget protocol message (ack, decision, notification, hash).
    /// Not subject to MPI matching: delivered to the peer's protocol as a
    /// [`PmlEvent::Control`] event.
    pub fn send_control(&mut self, dst: EndpointId, cls: u8, header: [i64; 8], payload: Bytes) {
        self.send_control_at(dst, cls, header, payload, SimTime::ZERO);
    }

    /// Like [`Pml::send_control`], but the message is stamped as injected no
    /// earlier than `not_before`. Used when the control message reacts to an
    /// incoming message (e.g. SDR-MPI's ack on `irecvComplete`): the reaction
    /// must not appear to precede the message it reacts to, even if the local
    /// clock has not caught up with that message's arrival yet.
    pub fn send_control_at(
        &mut self,
        dst: EndpointId,
        cls: u8,
        header: [i64; 8],
        payload: Bytes,
        not_before: SimTime,
    ) {
        assert_ne!(
            cls,
            class::APP,
            "control messages must not use the APP class"
        );
        self.ep
            .send_with_floor(dst, cls, header, payload, not_before);
    }

    /// Post a receive for a message on `comm` with tag filter `tag`, from
    /// physical process `src` (`None` = `MPI_ANY_SOURCE`).
    pub fn irecv(&mut self, src: Option<EndpointId>, comm: CommId, tag: TagSel) -> PmlReqId {
        let req = PmlReqId(self.next_req);
        self.next_req += 1;
        self.post_recv(req, src, comm, tag);
        req
    }

    /// Discard the message a completed receive was matched with and post the
    /// receive again under the same id (SDR-MPI drops a duplicate created by
    /// a post-failure re-send this way). The discarded message still counts
    /// as received: the clock is synchronised to its arrival and charged the
    /// receive overhead, exactly as by [`Pml::take_recv`].
    pub fn repost_recv(
        &mut self,
        req: PmlReqId,
        src: Option<EndpointId>,
        comm: CommId,
        tag: TagSel,
    ) {
        let _ = self.take_recv(req);
        self.post_recv(req, src, comm, tag);
    }

    fn post_recv(&mut self, req: PmlReqId, src: Option<EndpointId>, comm: CommId, tag: TagSel) {
        self.requests.insert(req, ReqState::RecvPending);
        let posting = PostedRecv {
            req,
            src,
            comm,
            tag,
        };
        if let Some(delivery) = self.engine.post_recv(posting) {
            self.charge_unexpected_copy(delivery.msg.payload.len());
            self.complete_recv(req, delivery.msg);
        }
    }

    fn charge_unexpected_copy(&mut self, len: usize) {
        let cost = SimTime::from_nanos(
            UNEXPECTED_COPY_BASE_NS + (len as u64 * UNEXPECTED_COPY_PS_PER_BYTE) / 1000,
        );
        self.ep.clock_mut().charge_comm(cost);
    }

    fn complete_recv(&mut self, req: PmlReqId, msg: IncomingMsg) {
        let meta = MsgMeta {
            src: msg.src,
            comm: msg.comm,
            tag: msg.tag,
            seq: msg.seq,
            aux: msg.aux,
            len: msg.payload.len(),
            arrival: msg.arrival,
        };
        self.requests.insert(
            req,
            ReqState::RecvDone {
                meta,
                payload: msg.payload,
            },
        );
        self.pending_events
            .push(PmlEvent::RecvCompleted { req, meta });
    }

    /// Redirect a pending receive to a new source (Algorithm 1 line 35). If a
    /// queued unexpected message from the new source already matches, the
    /// request completes immediately.
    pub fn redirect_recv(&mut self, req: PmlReqId, new_src: Option<EndpointId>) {
        if !matches!(self.requests.get(&req), Some(ReqState::RecvPending)) {
            return;
        }
        if let Some(delivery) = self.engine.redirect(req, new_src) {
            self.charge_unexpected_copy(delivery.msg.payload.len());
            self.complete_recv(req, delivery.msg);
        }
    }

    /// Has the receive been matched (or already been taken)?
    pub fn is_complete(&self, req: PmlReqId) -> bool {
        !matches!(self.requests.get(&req), Some(ReqState::RecvPending))
    }

    /// Take the result of a completed receive, freeing the request. Returns
    /// `None` if the request is not a completed receive.
    ///
    /// Taking the result represents the application-level completion of the
    /// receive (the return from `MPI_Wait`), so the caller's clock is
    /// synchronised to the message's arrival time: a process cannot observe
    /// a message before it has arrived.
    pub fn take_recv(&mut self, req: PmlReqId) -> Option<(MsgMeta, Bytes)> {
        match self.requests.get(&req) {
            Some(ReqState::RecvDone { .. }) => {
                if let Some(ReqState::RecvDone { meta, payload }) = self.requests.remove(&req) {
                    self.ep.clock_mut().sync_to(meta.arrival);
                    // The receive-side CPU overhead is paid when the message
                    // is actually delivered to the application, on top of the
                    // arrival time.
                    let intra = meta.src == self.ep.id();
                    let cost = self.ep.fabric().model().recv_overhead(meta.len, intra);
                    self.ep.clock_mut().charge_comm(cost);
                    Some((meta, payload))
                } else {
                    unreachable!("state checked above")
                }
            }
            _ => None,
        }
    }

    /// Pending (not yet matched) receive requests whose source filter is
    /// exactly `src`. Used by failure handling to find the requests that must
    /// be redirected to a substitute.
    pub fn pending_recvs_from(&self, src: EndpointId) -> Vec<PmlReqId> {
        self.engine
            .posted_requests()
            .filter(|p| p.src == Some(src))
            .map(|p| p.req)
            .collect()
    }

    /// Number of live receive requests — posted or completed, not yet taken
    /// (diagnostic; a finished application leaves none).
    pub fn outstanding_requests(&self) -> usize {
        self.requests.len()
    }

    /// Drop unexpected messages matching `discard` (see
    /// [`MatchingEngine::purge_unexpected`]).
    pub fn purge_unexpected<F: FnMut(&IncomingMsg) -> bool>(&mut self, discard: F) -> usize {
        self.engine.purge_unexpected(discard)
    }

    fn process_raw(&mut self, raw: sim_net::RawMessage) {
        if raw.class == class::SYSTEM {
            // Failure-detector wake-up: carries no content, it only unparks
            // a waiting receiver so that `poll_failures` runs promptly.
            return;
        }
        if raw.class == class::APP {
            let comm = CommId(raw.header[0] as u64);
            let tag = raw.header[1];
            let seq = raw.header[2] as u64;
            let aux = raw.header[3];
            let msg = IncomingMsg {
                src: raw.src,
                comm,
                tag,
                seq,
                aux,
                payload: raw.payload,
                arrival: raw.arrival,
            };
            if self.lossy_transport() {
                self.window_ingest(msg);
            } else {
                self.deliver_to_matching(msg);
            }
        } else {
            self.pending_events.push(PmlEvent::Control {
                src: raw.src,
                class: raw.class,
                header: raw.header,
                payload: raw.payload,
                arrival: raw.arrival,
            });
        }
    }

    /// Hand one in-window application message to the matching engine,
    /// charging the per-message matching cost.
    fn deliver_to_matching(&mut self, msg: IncomingMsg) {
        self.ep
            .clock_mut()
            .charge_comm(SimTime::from_nanos(MATCH_OVERHEAD_NS));
        if let Some((req, msg)) = self.engine.incoming(msg) {
            self.complete_recv(req, msg);
        }
    }

    /// The lossy-transport receive window: deliver application messages to
    /// matching strictly in wire-sequence order per (src, comm) stream.
    ///
    /// * A duplicate (sequence below the cursor, or already buffered) is
    ///   discarded before matching ever sees it — exactly-once delivery —
    ///   and surfaced as [`PmlEvent::DuplicateSuppressed`] so the protocol
    ///   can re-acknowledge it.
    /// * A message ahead of the cursor (its predecessor was dropped and the
    ///   retransmit is still in flight) is held back; without the hold-back a
    ///   posted receive would match the wrong payload, because MPI matching
    ///   binds messages to receives in posting order.
    /// * The in-order message advances the cursor and drains any buffered
    ///   successors.
    fn window_ingest(&mut self, msg: IncomingMsg) {
        let key = (msg.src, msg.comm);
        let cursor = self.recv_cursor.entry(key).or_insert(0);
        if msg.seq < *cursor
            || self
                .reorder
                .get(&key)
                .is_some_and(|buf| buf.contains_key(&msg.seq))
        {
            self.wire_dups_suppressed += 1;
            self.pending_events.push(PmlEvent::DuplicateSuppressed {
                src: msg.src,
                comm: msg.comm,
                aux: msg.aux,
                arrival: msg.arrival,
            });
            return;
        }
        if msg.seq > *cursor {
            self.reorder.entry(key).or_default().insert(msg.seq, msg);
            return;
        }
        *cursor += 1;
        self.deliver_to_matching(msg);
        loop {
            let next = *self.recv_cursor.get(&key).expect("cursor exists");
            let Some(buf) = self.reorder.get_mut(&key) else {
                break;
            };
            let Some(msg) = buf.remove(&next) else {
                if buf.is_empty() {
                    self.reorder.remove(&key);
                }
                break;
            };
            *self.recv_cursor.get_mut(&key).expect("cursor exists") += 1;
            self.deliver_to_matching(msg);
        }
    }

    fn poll_failures(&mut self) {
        let new = self
            .ep
            .fabric()
            .failure()
            .failures_since(self.failures_seen);
        for ev in new {
            self.failures_seen = self.failures_seen.max(ev.seq + 1);
            // A process does not get notified of its own failure.
            if ev.endpoint != self.ep.id() {
                self.pending_events.push(PmlEvent::ProcessFailed(ev));
            }
        }
    }

    /// Give the queued events to the caller, leaving the spare vector (or an
    /// empty one) in their place.
    fn take_events(&mut self) -> Vec<PmlEvent> {
        if self.pending_events.is_empty() {
            return Vec::new(); // keep whatever capacity is queued up
        }
        std::mem::replace(
            &mut self.pending_events,
            std::mem::take(&mut self.spare_events),
        )
    }

    /// Hand back an event vector obtained from [`Pml::progress`] or
    /// [`Pml::progress_blocking`] once its events are handled, so the next
    /// progress call that produces events reuses the allocation instead of
    /// making a new one. Optional: a caller that just drops the vector only
    /// pays the allocation.
    pub fn recycle_events(&mut self, mut events: Vec<PmlEvent>) {
        if self.spare_events.capacity() == 0 {
            events.clear();
            self.spare_events = events;
        }
    }

    /// Non-blocking progress: drain virtually-arrived messages, poll the
    /// failure detector, and return all events generated since the last call.
    ///
    /// An empty poll feeds the endpoint's idle counter: scheduler-managed
    /// processes that busy-poll (`MPI_Test` loops) cooperatively yield their
    /// run permit after enough fruitless calls, so a poller can never starve
    /// the bounded worker pool.
    pub fn progress(&mut self) -> Vec<PmlEvent> {
        self.poll_failures();
        // Under lossy transport every progress call is its own wake window
        // (`Endpoint::flush`): a process whose inbox is kept warm by its own
        // retransmission timer and by inbound retransmits may go a long time
        // without a scheduler call, and the peers it keeps sending to get a
        // fresh wake per call rather than one for the whole stretch.
        if self.lossy_transport() {
            self.ep.flush();
        }
        let mut drained_any = false;
        // Batch drain: one crash check and one inbox sweep
        // (`Endpoint::poll_ready`), then pop every already-ingested message —
        // instead of paying a crash check plus an inbox probe per message as
        // the per-`try_recv` loop used to.
        self.ep.poll_ready();
        while let Some(raw) = self.ep.next_ready() {
            drained_any = true;
            self.process_raw(raw);
        }
        let events = self.take_events();
        if drained_any || !events.is_empty() {
            self.ep.busy_poll();
        } else if self.ep.idle_poll().is_err() {
            // The scheduler's no-progress guard parked this busy-poll loop
            // and the quiescence check then proved every unfinished process
            // blocked: the job is deadlocked. Surface it exactly like the
            // blocking path does (the runtime classifies this panic into a
            // `ProcessOutcome::Deadlocked` record).
            std::panic::panic_any(MpiError::Deadlock {
                endpoint: self.ep.id(),
                waiting_for: format!("busy-poll progress loop [{}]", RecvError::Quiescent),
            });
        }
        events
    }

    /// Blocking progress: like [`Pml::progress`], but if no event is pending
    /// the call parks on the scheduler until the next message (see
    /// [`sim_net::Endpoint::recv_blocking`]: an endpoint driven by hand, outside
    /// a launched job, cannot block and panics on an empty inbox). Returns
    /// [`MpiError::Deadlock`] when the scheduler's quiescence check proves the
    /// job stuck.
    ///
    /// `waiting_for` describes what the caller is blocked on; it is formatted
    /// only if the wait fails. `racy` is the racy-wait hint (see
    /// [`sim_net::Endpoint::recv_blocking_hinted`]): pass `true` when the
    /// caller waits for traffic that is very likely already in flight — e.g.
    /// protocol acknowledgements for a send whose payload has been delivered —
    /// so the endpoint yields once (coalescing in-flight wakes lock-free)
    /// before committing to a park.
    pub fn progress_blocking(
        &mut self,
        waiting_for: impl std::fmt::Display,
        racy: bool,
    ) -> MpiResult<Vec<PmlEvent>> {
        let events = self.progress();
        if !events.is_empty() {
            return Ok(events);
        }
        match self.ep.recv_blocking_hinted(racy) {
            Ok(raw) => {
                self.process_raw(raw);
                // Drain anything else that became visible in the same batch
                // (`recv_blocking` already swept the inbox; `next_ready` pops
                // without re-probing it).
                while let Some(raw) = self.ep.next_ready() {
                    self.process_raw(raw);
                }
                self.poll_failures();
                Ok(self.take_events())
            }
            Err(err) => {
                // Check failures one more time (a failure notification may be
                // what unblocks us) before declaring the deadlock.
                self.poll_failures();
                let events = self.take_events();
                if events.is_empty() {
                    Err(MpiError::Deadlock {
                        endpoint: self.ep.id(),
                        waiting_for: format!("{waiting_for} [{err}]"),
                    })
                } else {
                    Ok(events)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_net::failure::CrashSignal;
    use sim_net::{CrashSchedule, Fabric, LogGpModel};

    fn fabric(n: usize) -> std::sync::Arc<Fabric> {
        Fabric::with_defaults(n, LogGpModel::fast_test_model())
    }

    #[test]
    fn a_send_leaves_no_request_behind() {
        let f = fabric(2);
        let mut p0 = Pml::new(f.endpoint(EndpointId(0)));
        let wire_seq = p0.isend(
            EndpointId(1),
            CommId::WORLD,
            7,
            0,
            Bytes::from_static(b"hi"),
        );
        assert_eq!(wire_seq, 0);
        assert_eq!(p0.outstanding_requests(), 0);
        assert_eq!(f.stats().snapshot().app_msgs(), 1, "already on the wire");
    }

    #[test]
    fn recv_completes_after_progress_and_reports_event() {
        let f = fabric(2);
        let mut p0 = Pml::new(f.endpoint(EndpointId(0)));
        let mut p1 = Pml::new(f.endpoint(EndpointId(1)));
        p0.isend(
            EndpointId(1),
            CommId::WORLD,
            7,
            42,
            Bytes::from_static(b"hello"),
        );
        let req = p1.irecv(Some(EndpointId(0)), CommId::WORLD, TagSel::Tag(7));
        assert!(!p1.is_complete(req));
        let events = p1.progress_blocking("test recv", false).unwrap();
        assert!(p1.is_complete(req));
        match &events[0] {
            PmlEvent::RecvCompleted { req: r, meta } => {
                assert_eq!(*r, req);
                assert_eq!(meta.tag, 7);
                assert_eq!(meta.aux, 42);
                assert_eq!(meta.len, 5);
                assert_eq!(meta.src, EndpointId(0));
            }
            other => panic!("unexpected event {other:?}"),
        }
        let (meta, payload) = p1.take_recv(req).unwrap();
        assert_eq!(&payload[..], b"hello");
        assert_eq!(meta.seq, 0);
    }

    #[test]
    fn unexpected_message_completes_on_later_irecv() {
        let f = fabric(2);
        let mut p0 = Pml::new(f.endpoint(EndpointId(0)));
        let mut p1 = Pml::new(f.endpoint(EndpointId(1)));
        p0.isend(
            EndpointId(1),
            CommId::WORLD,
            3,
            0,
            Bytes::from_static(b"early"),
        );
        // Progress with no posted recv: message becomes unexpected, no event.
        // (Block so the clock advances past the arrival time.)
        std::thread::sleep(std::time::Duration::from_millis(5));
        p1.compute(SimTime::from_secs(1));
        let events = p1.progress();
        assert!(events.is_empty());
        assert_eq!(p1.matching().unexpected_len(), 1);
        // Posting the recv delivers it immediately (extra copy) with an event.
        let before = p1.now();
        let req = p1.irecv(Some(EndpointId(0)), CommId::WORLD, TagSel::Tag(3));
        assert!(p1.is_complete(req));
        assert!(p1.now() > before, "unexpected copy must cost time");
        let events = p1.progress();
        assert_eq!(events.len(), 1);
    }

    #[test]
    fn armed_sdc_flip_corrupts_exactly_the_nth_send() {
        let f = fabric(2);
        let mut p0 = Pml::new(f.endpoint(EndpointId(0)));
        let mut p1 = Pml::new(f.endpoint(EndpointId(1)));
        // Flip bit 1 of the 2nd send; bit index wraps modulo payload bits.
        p0.arm_sdc_flips(vec![SdcFlip {
            nth_send: 2,
            bit: 1,
        }]);
        for _ in 0..3 {
            p0.isend(
                EndpointId(1),
                CommId::WORLD,
                7,
                0,
                Bytes::from_static(b"\x00\x00"),
            );
        }
        let mut payloads = Vec::new();
        for _ in 0..3 {
            let req = p1.irecv(Some(EndpointId(0)), CommId::WORLD, TagSel::Tag(7));
            while !p1.is_complete(req) {
                p1.progress_blocking("sdc recv", false).unwrap();
            }
            payloads.push(p1.take_recv(req).unwrap().1);
        }
        assert_eq!(&payloads[0][..], b"\x00\x00", "send 1 is clean");
        assert_eq!(&payloads[1][..], b"\x02\x00", "send 2 has bit 1 flipped");
        assert_eq!(&payloads[2][..], b"\x00\x00", "send 3 is clean");
        assert_eq!(f.stats().snapshot().sdc_flips_injected(), 1);
    }

    #[test]
    fn sdc_flip_on_empty_payload_is_a_noop() {
        let f = fabric(2);
        let mut p0 = Pml::new(f.endpoint(EndpointId(0)));
        p0.arm_sdc_flips(vec![SdcFlip {
            nth_send: 1,
            bit: 5,
        }]);
        p0.isend(EndpointId(1), CommId::WORLD, 7, 0, Bytes::new());
        assert_eq!(f.stats().snapshot().sdc_flips_injected(), 0);
    }

    #[test]
    fn control_messages_bypass_matching() {
        let f = fabric(2);
        let mut p0 = Pml::new(f.endpoint(EndpointId(0)));
        let mut p1 = Pml::new(f.endpoint(EndpointId(1)));
        let mut hdr = [0i64; 8];
        hdr[0] = 99;
        p0.send_control(EndpointId(1), class::ACK, hdr, Bytes::new());
        let events = p1.progress_blocking("ack", false).unwrap();
        match &events[0] {
            PmlEvent::Control {
                src,
                class: c,
                header,
                ..
            } => {
                assert_eq!(*src, EndpointId(0));
                assert_eq!(*c, class::ACK);
                assert_eq!(header[0], 99);
            }
            other => panic!("unexpected event {other:?}"),
        }
        assert_eq!(p1.matching().unexpected_len(), 0);
    }

    #[test]
    #[should_panic(expected = "control messages must not use the APP class")]
    fn control_with_app_class_is_rejected() {
        let f = fabric(2);
        let mut p0 = Pml::new(f.endpoint(EndpointId(0)));
        p0.send_control(EndpointId(1), class::APP, [0; 8], Bytes::new());
    }

    #[test]
    fn failure_notification_delivered_as_event() {
        let f = fabric(3);
        let mut p0 = Pml::new(f.endpoint(EndpointId(0)));
        f.failure()
            .record_failure(EndpointId(2), SimTime::from_nanos(5));
        let events = p0.progress();
        assert!(matches!(
            events[0],
            PmlEvent::ProcessFailed(ev) if ev.endpoint == EndpointId(2)
        ));
        // Not reported twice.
        assert!(p0.progress().is_empty());
    }

    #[test]
    fn own_failure_not_reported_to_self() {
        // The failure-event filter must not notify a process of its own
        // failure (a crashed process is unwound by the crash signal instead).
        // Verify the filter directly on the pending-event list: process 1
        // fails, process 0 is notified, and a hypothetical poll by process 1
        // would be preceded by its crash-signal unwind anyway.
        let f = fabric(2);
        let mut p0 = Pml::new(f.endpoint(EndpointId(0)));
        f.failure().record_failure(EndpointId(1), SimTime::ZERO);
        let events = p0.progress();
        assert_eq!(events.len(), 1);
        assert!(matches!(
            events[0],
            PmlEvent::ProcessFailed(ev) if ev.endpoint == EndpointId(1)
        ));
    }

    #[test]
    fn repost_discards_the_message_and_rearms_under_the_same_id() {
        let f = fabric(2);
        let mut p0 = Pml::new(f.endpoint(EndpointId(0)));
        let mut p1 = Pml::new(f.endpoint(EndpointId(1)));
        for body in [&b"dup"[..], &b"fresh"[..]] {
            p0.isend(
                EndpointId(1),
                CommId::WORLD,
                1,
                0,
                Bytes::copy_from_slice(body),
            );
        }
        let src = Some(EndpointId(0));
        let req = p1.irecv(src, CommId::WORLD, TagSel::Tag(1));
        while !p1.is_complete(req) {
            p1.progress_blocking("first copy", false).unwrap();
        }
        // Dropping the first message still counts as receiving it: the clock
        // moves to its arrival plus the receive overhead.
        let before = p1.now();
        p1.repost_recv(req, src, CommId::WORLD, TagSel::Tag(1));
        assert!(p1.now() > before);
        assert_eq!(p1.outstanding_requests(), 1, "same request, armed again");
        while !p1.is_complete(req) {
            p1.progress_blocking("second copy", false).unwrap();
        }
        assert_eq!(&p1.take_recv(req).unwrap().1[..], b"fresh");
        assert_eq!(p1.outstanding_requests(), 0);
    }

    #[test]
    fn redirect_recv_to_substitute_source() {
        let f = fabric(3);
        let mut p1 = Pml::new(f.endpoint(EndpointId(1)));
        let mut p2 = Pml::new(f.endpoint(EndpointId(2)));
        // p0 never sends; recv is redirected to p2 which does send.
        let req = p1.irecv(Some(EndpointId(0)), CommId::WORLD, TagSel::Tag(1));
        p1.redirect_recv(req, Some(EndpointId(2)));
        p2.isend(
            EndpointId(1),
            CommId::WORLD,
            1,
            0,
            Bytes::from_static(b"sub"),
        );
        p1.progress_blocking("redirected recv", false).unwrap();
        assert!(p1.is_complete(req));
        let (meta, payload) = p1.take_recv(req).unwrap();
        assert_eq!(meta.src, EndpointId(2));
        assert_eq!(&payload[..], b"sub");
    }

    #[test]
    fn pml_seq_numbers_increase_per_destination_stream() {
        let f = fabric(3);
        let mut p0 = Pml::new(f.endpoint(EndpointId(0)));
        let mut p1 = Pml::new(f.endpoint(EndpointId(1)));
        for _ in 0..3 {
            p0.isend(EndpointId(1), CommId::WORLD, 0, 0, Bytes::new());
        }
        p0.isend(EndpointId(2), CommId::WORLD, 0, 0, Bytes::new());
        let mut seqs = Vec::new();
        for _ in 0..3 {
            let req = p1.irecv(Some(EndpointId(0)), CommId::WORLD, TagSel::Tag(0));
            while !p1.is_complete(req) {
                p1.progress_blocking("seq recv", false).unwrap();
            }
            seqs.push(p1.take_recv(req).unwrap().0.seq);
        }
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    #[test]
    fn lossy_window_reorders_and_dedups_below_matching() {
        use sim_net::NetFaultConfig;
        let f = fabric(2);
        // Zero rates: the policy faults nothing, but its presence switches the
        // receive path onto the sequence window.
        f.install_net_faults(
            NetFaultConfig {
                drop_per_64k: 0,
                dup_per_64k: 0,
                delay_per_64k: 0,
                delay_ns: 0,
                ack_only: false,
            },
            1,
        );
        let mut p0 = Pml::new(f.endpoint(EndpointId(0)));
        let mut p1 = Pml::new(f.endpoint(EndpointId(1)));
        assert!(p0.lossy_transport());
        let r1 = p1.irecv(Some(EndpointId(0)), CommId::WORLD, TagSel::Tag(7));
        let r2 = p1.irecv(Some(EndpointId(0)), CommId::WORLD, TagSel::Tag(7));
        // Wire seq 1 arrives first (its predecessor was "dropped"): held back.
        p0.resend_app(
            EndpointId(1),
            CommId::WORLD,
            7,
            0,
            1,
            Bytes::from_static(b"second"),
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert!(p1.progress().is_empty(), "ahead-of-order message held back");
        assert!(!p1.is_complete(r1));
        // The "retransmit" of wire seq 0 fills the gap: both deliver, in
        // posting order, with the right payloads.
        p0.resend_app(
            EndpointId(1),
            CommId::WORLD,
            7,
            0,
            0,
            Bytes::from_static(b"first"),
        );
        while !(p1.is_complete(r1) && p1.is_complete(r2)) {
            p1.progress_blocking("gap fill", false).unwrap();
        }
        assert_eq!(&p1.take_recv(r1).unwrap().1[..], b"first");
        assert_eq!(&p1.take_recv(r2).unwrap().1[..], b"second");
        // A second copy of wire seq 0 is suppressed before matching and
        // surfaced as a DuplicateSuppressed event.
        p0.resend_app(
            EndpointId(1),
            CommId::WORLD,
            7,
            42,
            0,
            Bytes::from_static(b"first"),
        );
        let events = p1.progress_blocking("dup", false).unwrap();
        assert!(matches!(
            events[0],
            PmlEvent::DuplicateSuppressed { src, aux, .. }
                if src == EndpointId(0) && aux == 42
        ));
        assert_eq!(p1.wire_dups_suppressed(), 1);
        assert_eq!(
            p1.matching().unexpected_len(),
            0,
            "dup never reached matching"
        );
        assert_eq!(f.stats().snapshot().retransmits(), 3);
    }

    #[test]
    fn lossy_window_keeps_independent_streams_per_comm() {
        use sim_net::NetFaultConfig;
        let f = fabric(2);
        f.install_net_faults(
            NetFaultConfig {
                drop_per_64k: 0,
                dup_per_64k: 0,
                delay_per_64k: 0,
                delay_ns: 0,
                ack_only: false,
            },
            1,
        );
        let mut p0 = Pml::new(f.endpoint(EndpointId(0)));
        let mut p1 = Pml::new(f.endpoint(EndpointId(1)));
        // A gap on comm 9 must not hold back comm WORLD traffic.
        p0.resend_app(
            EndpointId(1),
            CommId(9),
            1,
            0,
            1,
            Bytes::from_static(b"gap"),
        );
        p0.isend(
            EndpointId(1),
            CommId::WORLD,
            1,
            0,
            Bytes::from_static(b"ok"),
        );
        let req = p1.irecv(Some(EndpointId(0)), CommId::WORLD, TagSel::Tag(1));
        while !p1.is_complete(req) {
            p1.progress_blocking("cross-comm", false).unwrap();
        }
        assert_eq!(&p1.take_recv(req).unwrap().1[..], b"ok");
    }

    // A blocking wait on which nothing ever arrives is a launched job's
    // quiescence verdict: `runtime::tests::deadlock_detected_by_quiescence_not_timeout`.

    #[test]
    fn progress_blocking_wakes_on_failure_notification() {
        // Two managed processes on one run permit: 0 parks waiting for 1,
        // which then crashes before its first send. The crash's system-class
        // wake-up unparks 0, which must report the failure, not a deadlock.
        let f = fabric(2);
        f.scheduler().set_workers(1);
        f.scheduler().register(EndpointId(0));
        f.scheduler().register(EndpointId(1));
        f.failure()
            .schedule(EndpointId(1), CrashSchedule::BeforeSend { nth: 1 });
        let waiter = std::thread::spawn({
            let f = std::sync::Arc::clone(&f);
            move || {
                f.scheduler().start(EndpointId(0));
                let mut p0 = Pml::new(f.endpoint(EndpointId(0)));
                let _req = p0.irecv(Some(EndpointId(1)), CommId::WORLD, TagSel::Tag(0));
                let events = p0
                    .progress_blocking("peer message or failure", false)
                    .expect("woken by the failure, not deadlocked");
                drop(p0);
                f.scheduler().finish(EndpointId(0));
                events
            }
        });
        while f.scheduler().parked_count() == 0 {
            std::thread::yield_now();
        }
        f.scheduler().start(EndpointId(1));
        let crash = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut p1 = Pml::new(f.endpoint(EndpointId(1)));
            p1.isend(EndpointId(0), CommId::WORLD, 0, 0, Bytes::new());
        }));
        assert!(crash.unwrap_err().is::<CrashSignal>());
        f.scheduler().finish(EndpointId(1));
        let events = waiter.join().unwrap();
        assert!(matches!(
            events[..],
            [PmlEvent::ProcessFailed(ev)] if ev.endpoint == EndpointId(1)
        ));
        // The waiter swept the wake-up, so it was woken by it rather than
        // reaching the failure through a quiescence verdict.
        let snap = f.stats().snapshot();
        assert_eq!(snap.msgs_delivered[class::SYSTEM as usize], 1);
    }
}
