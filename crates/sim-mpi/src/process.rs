//! The application-facing process handle: MPI-like point-to-point calls and
//! request completion (wait/test) on the world communicator, and the
//! [`Driver`] that runs a protocol's actions against the PML.
//!
//! A [`Process`] combines the [`Pml`] (point-to-point engine), the active
//! [`Protocol`] (native pass-through or a replication protocol) and its view
//! of the world communicator ([`crate::comm`]). Workloads are written against
//! this API only — the same code runs natively or replicated depending on
//! which protocol factory the job was launched with, which is the paper's
//! transparency argument for implementing replication inside the library.

use crate::comm::CommInfo;
use crate::datatype;
use crate::matching::PmlReqId;
use crate::pml::{Pml, PmlEvent};
pub use crate::protocol::Request;
use crate::protocol::{Action, Input, ProtoRecvReq, ProtoSendReq, Protocol};
use crate::types::{CommId, MpiError, Rank, Status, Tag, TagSel, ANY_SOURCE, ANY_TAG};
use bytes::Bytes;
use sim_net::stats::class;
use sim_net::trace::{digest, EventKind, EventTrace, TraceEvent};
use sim_net::SimTime;

/// Handle to a communicator owned by a [`Process`]. A job has one, the
/// world ([`crate::comm`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Comm(pub(crate) usize);

impl Comm {
    /// The world communicator handle.
    pub const WORLD: Comm = Comm(0);
}

/// The one driver of a [`Protocol`]: it hands the protocol each input at the
/// PML's clock and runs the actions that come back against the PML, in
/// order, reusing one action buffer. The PML is passed to each call, so a
/// test can drive a protocol by hand through its own PML.
pub struct Driver {
    /// The protocol this driver runs.
    pub protocol: Box<dyn Protocol>,
    actions: Vec<Action>,
}

impl Driver {
    /// Drive `protocol`.
    pub fn new(protocol: Box<dyn Protocol>) -> Self {
        Driver {
            protocol,
            actions: Vec::new(),
        }
    }

    /// Post an application send of `payload` to rank `dst`.
    pub fn isend(
        &mut self,
        pml: &mut Pml,
        dst: Rank,
        comm: CommId,
        tag: Tag,
        payload: Bytes,
    ) -> ProtoSendReq {
        let input = Input::Isend {
            dst,
            comm,
            tag,
            payload,
        };
        let req = self.protocol.input(pml.now(), input, &mut self.actions);
        self.run(pml);
        req.expect("an isend makes a send request")
    }

    /// Post an application receive from rank `src` (`None`: any source).
    pub fn irecv(
        &mut self,
        pml: &mut Pml,
        src: Option<Rank>,
        comm: CommId,
        tag: TagSel,
    ) -> ProtoRecvReq {
        let req = ProtoRecvReq(pml.reserve_recv().0);
        let input = Input::Irecv {
            req,
            src,
            comm,
            tag,
        };
        self.protocol.input(pml.now(), input, &mut self.actions);
        self.run(pml);
        req
    }

    /// Is `req` complete? A receive must be matched by the PML and accepted
    /// by the protocol.
    pub fn complete(&self, pml: &Pml, req: Request) -> bool {
        let matched = match req {
            Request::Send(_) => true,
            Request::Recv(r) => pml.is_complete(PmlReqId(r.0)),
        };
        matched && self.protocol.complete(req)
    }

    /// Take the status and payload of completed receive `req` (`None` if it
    /// is not complete). The status's `source` is an app-world rank.
    pub fn take_recv(&mut self, pml: &mut Pml, req: ProtoRecvReq) -> Option<(Status, Bytes)> {
        let msg = pml.completed_msg(PmlReqId(req.0))?;
        self.protocol
            .input(pml.now(), Input::Take { req, msg }, &mut self.actions);
        self.run(pml).0
    }

    /// Release completed send request `req`.
    pub fn free_send(&mut self, pml: &mut Pml, req: ProtoSendReq) {
        self.protocol
            .input(pml.now(), Input::Free(req), &mut self.actions);
        self.run(pml);
    }

    /// Feed `events` to the protocol in order, then return the emptied
    /// vector to the PML for its next progress call.
    pub fn handle(&mut self, pml: &mut Pml, mut events: Vec<PmlEvent>) {
        for ev in events.drain(..) {
            let input = match ev {
                PmlEvent::RecvCompleted { req } => Input::Completed {
                    req: ProtoRecvReq(req.0),
                    msg: pml.completed_msg(req).expect("a completed receive"),
                },
                PmlEvent::Control {
                    src,
                    class,
                    header,
                    arrival,
                    ..
                } => Input::Control {
                    src,
                    class,
                    header,
                    arrival,
                },
                PmlEvent::DuplicateSuppressed {
                    src, aux, arrival, ..
                } => Input::Duplicate { src, aux, arrival },
                PmlEvent::ProcessFailed(ev) => Input::Failed(ev),
            };
            self.protocol.input(pml.now(), input, &mut self.actions);
            self.run(pml);
        }
        pml.recycle_events(events);
    }

    /// `MPI_Finalize`: give the protocol [`Input::Finalize`] until it stops
    /// asking to drain.
    pub fn finalize(&mut self, pml: &mut Pml) {
        loop {
            self.protocol
                .input(pml.now(), Input::Finalize, &mut self.actions);
            let Some(what) = self.run(pml).1 else {
                return;
            };
            match pml.progress_blocking(what, false) {
                Ok(events) => self.handle(pml, events),
                Err(err) => std::panic::panic_any(err),
            }
        }
    }

    /// Run the buffered actions against `pml`, in order. Returns what a
    /// [`Action::Deliver`] handed over and what a [`Action::Drain`] waits
    /// for.
    #[inline]
    fn run(&mut self, pml: &mut Pml) -> (Option<(Status, Bytes)>, Option<&'static str>) {
        if self.actions.is_empty() {
            return (None, None);
        }
        self.run_actions(pml)
    }

    fn run_actions(&mut self, pml: &mut Pml) -> (Option<(Status, Bytes)>, Option<&'static str>) {
        let (mut delivered, mut drain) = (None, None);
        let Driver { protocol, actions } = self;
        for action in actions.drain(..) {
            match action {
                Action::Send {
                    dst,
                    comm,
                    tag,
                    aux,
                    payload,
                    log,
                } => {
                    let wire_seq = pml.isend(dst, comm, tag, aux, payload);
                    if let Some(log) = log {
                        let sent = Input::Sent { log, dst, wire_seq };
                        protocol.input(pml.now(), sent, &mut Vec::new());
                    }
                }
                Action::Resend {
                    dst,
                    comm,
                    tag,
                    aux,
                    wire_seq,
                    payload,
                } => pml.resend_app(dst, comm, tag, aux, wire_seq, payload),
                Action::Control {
                    dst,
                    class,
                    header,
                    not_before,
                } => pml.send_control_at(dst, class, header, Bytes::new(), not_before),
                Action::Timer {
                    header,
                    at,
                    from_clock,
                } => {
                    let at = if from_clock {
                        pml.now().saturating_add(at)
                    } else {
                        at
                    };
                    let me = pml.endpoint_id();
                    pml.send_control_at(me, class::CONTROL, header, Bytes::new(), at);
                }
                Action::Post {
                    req,
                    src,
                    comm,
                    tag,
                } => pml.post_recv(PmlReqId(req.0), src, comm, tag),
                Action::Repost {
                    req,
                    src,
                    comm,
                    tag,
                } => pml.repost_recv(PmlReqId(req.0), src, comm, tag),
                Action::Redirect { req, src } => pml.redirect_recv(PmlReqId(req.0), src),
                Action::DeferCost { req, since } => {
                    pml.charge_on_take(PmlReqId(req.0), pml.now() - since)
                }
                Action::Deliver { req, source } => {
                    let msg = pml.take_recv(PmlReqId(req.0)).expect("a completed receive");
                    let (tag, len) = (msg.tag, msg.payload.len());
                    delivered = Some((Status { source, tag, len }, msg.payload));
                }
                Action::SyncTo(t) => {
                    pml.endpoint_mut().clock_mut().sync_to(t);
                }
                Action::WaitUntil { at, sleep } => {
                    pml.wait_until(at);
                    if !pml.endpoint().runs_alone() {
                        pml.endpoint().fabric().stats().record_retx_real_wait();
                        std::thread::yield_now();
                        if sleep {
                            std::thread::sleep(std::time::Duration::from_micros(200));
                        }
                    }
                }
                Action::Purge => {
                    pml.purge_unexpected(|msg| protocol.stale(msg));
                }
                Action::Drain(what) => drain = Some(what),
                Action::Abort(why) => panic!("{why}"),
            }
        }
        (delivered, drain)
    }
}

/// The per-process application handle.
pub struct Process {
    pml: Pml,
    driver: Driver,
    world: CommInfo,
    trace: EventTrace,
}

impl std::fmt::Debug for Process {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Process")
            .field("rank", &self.rank())
            .field("size", &self.size())
            .field("now", &self.now())
            .finish()
    }
}

impl Process {
    /// Assemble a process of a job of `app_ranks` ranks from its parts (used
    /// by the runtime launcher).
    pub fn new(pml: Pml, protocol: Box<dyn Protocol>, app_ranks: usize, trace: EventTrace) -> Self {
        let world = CommInfo::world(app_ranks, protocol.app_rank());
        Process {
            pml,
            driver: Driver::new(protocol),
            world,
            trace,
        }
    }

    // -- identity and time ---------------------------------------------------

    /// This process's rank in the application world.
    pub fn rank(&self) -> Rank {
        self.world.my_rank
    }

    /// Number of ranks in the application world.
    pub fn size(&self) -> usize {
        self.world.size
    }

    /// The world communicator.
    pub fn world(&self) -> Comm {
        Comm::WORLD
    }

    /// Current virtual time of this process.
    pub fn now(&self) -> SimTime {
        self.pml.now()
    }

    /// Advance the virtual clock by `d` of application computation.
    pub fn compute(&mut self, d: SimTime) {
        self.drain_events();
        self.pml.compute(d);
    }

    /// Access the PML (protocol implementations and tests).
    pub fn pml(&self) -> &Pml {
        &self.pml
    }

    /// Access the active protocol (diagnostics).
    pub fn protocol(&self) -> &dyn Protocol {
        self.driver.protocol.as_ref()
    }

    // -- the world communicator -----------------------------------------------

    /// The world's [`CommInfo`]; any other handle is rejected.
    fn comm_info(&self, comm: Comm) -> &CommInfo {
        assert!(
            comm == Comm::WORLD,
            "unknown communicator {comm:?}: a job has one, the world"
        );
        &self.world
    }

    /// Size of a communicator.
    pub fn comm_size(&self, comm: Comm) -> usize {
        self.comm_info(comm).size
    }

    /// This process's rank within a communicator.
    pub fn comm_rank(&self, comm: Comm) -> Rank {
        self.comm_info(comm).my_rank
    }

    // -- point-to-point -------------------------------------------------------

    fn check_rank(&self, comm: Comm, rank: Rank) {
        let size = self.comm_size(comm);
        if rank >= size {
            std::panic::panic_any(MpiError::InvalidRank { rank, size });
        }
    }

    /// Non-blocking send of raw bytes to `dst` (communicator rank).
    pub fn isend_bytes(&mut self, comm: Comm, dst: Rank, tag: Tag, payload: Bytes) -> Request {
        self.check_rank(comm, dst);
        self.drain_events();
        let comm_id = self.comm_info(comm).id;
        if self.trace.is_enabled() {
            self.trace.record(TraceEvent {
                process: self.pml.endpoint_id(),
                kind: EventKind::Send,
                peer: Some(dst),
                tag: Some(tag),
                payload_digest: digest(&payload),
                payload_len: payload.len(),
                at: self.pml.now(),
            });
        }
        Request::Send(self.driver.isend(&mut self.pml, dst, comm_id, tag, payload))
    }

    /// Non-blocking receive of raw bytes from `src` (communicator rank, or
    /// [`ANY_SOURCE`]) with tag `tag` (or [`ANY_TAG`]).
    pub fn irecv_bytes(&mut self, comm: Comm, src: i64, tag: Tag) -> Request {
        self.drain_events();
        let comm_id = self.comm_info(comm).id;
        let src = if src == ANY_SOURCE {
            None
        } else {
            self.check_rank(comm, src as usize);
            Some(src as usize)
        };
        let tag_sel = if tag == ANY_TAG {
            TagSel::Any
        } else {
            TagSel::Tag(tag)
        };
        Request::Recv(self.driver.irecv(&mut self.pml, src, comm_id, tag_sel))
    }

    fn drain_events(&mut self) {
        let events = self.pml.progress();
        self.driver.handle(&mut self.pml, events);
    }

    /// `racy = true` marks waits whose traffic is very likely already in
    /// flight (completion acks for a send whose payload is out): the endpoint
    /// then yields once before parking so those deliveries coalesce into its
    /// lock-free wake token (see [`sim_net::Endpoint::recv_blocking_hinted`]).
    fn block_for_events(&mut self, what: &str, racy: bool) {
        // Formatted only if the wait fails; the protocol cannot change state
        // in between (blocking progress only queues events).
        let desc = std::fmt::from_fn(|f| {
            write!(
                f,
                "{what}; protocol: {}",
                self.driver.protocol.describe_pending()
            )
        });
        match self.pml.progress_blocking(desc, racy) {
            Ok(events) => self.driver.handle(&mut self.pml, events),
            Err(err) => std::panic::panic_any(err),
        }
    }

    fn request_complete(&mut self, req: Request) -> bool {
        self.driver.complete(&self.pml, req)
    }

    /// `MPI_Test`: non-blocking completion check (makes progress first).
    pub fn test(&mut self, req: Request) -> bool {
        self.drain_events();
        self.request_complete(req)
    }

    /// `MPI_Wait`: block until the request completes. For receives, returns
    /// the status and payload; for sends, the payload slot is `None`.
    pub fn wait(&mut self, comm: Comm, req: Request) -> (Status, Option<Bytes>) {
        let my_rank = self.comm_rank(comm);
        // A send request's payload is already out when we wait on it: what is
        // outstanding is the protocol-level completion (e.g. SDR acks), which
        // races with this wait — hint the wait engine accordingly. Receive
        // waits are true waits on a peer that may be far behind.
        let racy = matches!(req, Request::Send(_));
        loop {
            self.drain_events();
            if self.request_complete(req) {
                break;
            }
            self.block_for_events("request completion in MPI_Wait", racy);
        }
        match req {
            Request::Send(s) => {
                self.driver.free_send(&mut self.pml, s);
                (
                    Status {
                        source: my_rank,
                        tag: 0,
                        len: 0,
                    },
                    None,
                )
            }
            Request::Recv(r) => {
                let (status, payload) = self
                    .driver
                    .take_recv(&mut self.pml, r)
                    .expect("completed receive must yield a payload");
                if self.trace.is_enabled() {
                    self.trace.record(TraceEvent {
                        process: self.pml.endpoint_id(),
                        kind: EventKind::RecvComplete,
                        peer: Some(status.source),
                        tag: Some(status.tag),
                        payload_digest: digest(&payload),
                        payload_len: payload.len(),
                        at: self.pml.now(),
                    });
                }
                (status, Some(payload))
            }
        }
    }

    /// `MPI_Waitall`: wait for every request, in order.
    pub fn waitall(&mut self, comm: Comm, reqs: &[Request]) -> Vec<(Status, Option<Bytes>)> {
        reqs.iter().map(|&r| self.wait(comm, r)).collect()
    }

    /// Blocking send (`MPI_Send`).
    pub fn send_bytes(&mut self, comm: Comm, dst: Rank, tag: Tag, payload: Bytes) {
        let req = self.isend_bytes(comm, dst, tag, payload);
        self.wait(comm, req);
    }

    /// Blocking receive (`MPI_Recv`). Returns the status and payload.
    pub fn recv_bytes(&mut self, comm: Comm, src: i64, tag: Tag) -> (Status, Bytes) {
        let req = self.irecv_bytes(comm, src, tag);
        let (status, payload) = self.wait(comm, req);
        (status, payload.expect("receive yields a payload"))
    }

    /// `MPI_Sendrecv`: post the receive, send, then wait for both (the
    /// deadlock-free exchange order under SDR-MPI's ack protocol).
    pub fn sendrecv_bytes(
        &mut self,
        comm: Comm,
        dst: Rank,
        send_tag: Tag,
        payload: Bytes,
        src: i64,
        recv_tag: Tag,
    ) -> (Status, Bytes) {
        let rreq = self.irecv_bytes(comm, src, recv_tag);
        let sreq = self.isend_bytes(comm, dst, send_tag, payload);
        let (status, recv_payload) = self.wait(comm, rreq);
        self.wait(comm, sreq);
        (status, recv_payload.expect("receive yields a payload"))
    }

    // -- typed convenience wrappers ------------------------------------------

    /// Blocking send of a `u64` slice.
    pub fn send_u64s(&mut self, comm: Comm, dst: Rank, tag: Tag, values: &[u64]) {
        self.send_bytes(comm, dst, tag, datatype::u64s_to_bytes(values));
    }

    /// Blocking receive of a `u64` vector.
    pub fn recv_u64s(&mut self, comm: Comm, src: i64, tag: Tag) -> (Status, Vec<u64>) {
        let (status, bytes) = self.recv_bytes(comm, src, tag);
        (status, datatype::bytes_to_u64s(&bytes))
    }

    /// Finalize: let the protocol settle its state (e.g. outstanding acks).
    pub fn finalize(&mut self) {
        self.drain_events();
        self.driver.finalize(&mut self.pml);
    }

    /// Split the process back into its parts (used by the runtime to collect
    /// accounting after the application returns).
    pub fn into_parts(self) -> (Pml, Box<dyn Protocol>) {
        (self.pml, self.driver.protocol)
    }

    // -- internals shared with collectives ------------------------------------

    pub(crate) fn next_coll_tag(&mut self, comm: Comm, op_code: i64) -> Tag {
        let seq = self.comm_info(comm).coll_seq;
        self.world.coll_seq += 1;
        // Collective tags live far above any reasonable application tag.
        (1 << 40) + (seq as i64) * 64 + op_code
    }
}
