//! The application-facing process handle: MPI-like point-to-point calls and
//! request completion (wait/test) on the world communicator.
//!
//! A [`Process`] combines the [`Pml`] (point-to-point engine), the active
//! [`Protocol`] (native pass-through or a replication protocol) and its view
//! of the world communicator ([`crate::comm`]). Workloads are written against
//! this API only — the same code runs natively or replicated depending on
//! which protocol factory the job was launched with, which is the paper's
//! transparency argument for implementing replication inside the library.

use crate::comm::CommInfo;
use crate::datatype;
use crate::pml::{Pml, PmlEvent};
use crate::protocol::{ProtoRecvReq, ProtoSendReq, Protocol};
use crate::types::{MpiError, Rank, Status, Tag, TagSel, ANY_SOURCE, ANY_TAG};
use bytes::Bytes;
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

/// A non-blocking request handle returned by `isend`/`irecv`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Request {
    /// A send request.
    Send(ProtoSendReq),
    /// A receive request.
    Recv(ProtoRecvReq),
}

/// The per-process application handle.
pub struct Process {
    pml: Pml,
    protocol: Box<dyn Protocol>,
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
    /// Assemble a process from its parts (used by the runtime launcher).
    pub fn new(mut pml: Pml, mut protocol: Box<dyn Protocol>, trace: EventTrace) -> Self {
        protocol.init(&mut pml);
        let world = CommInfo::world(protocol.app_size(), protocol.app_rank());
        Process {
            pml,
            protocol,
            world,
            trace,
        }
    }

    // -- identity and time ---------------------------------------------------

    /// This process's rank in the application world.
    pub fn rank(&self) -> Rank {
        self.protocol.app_rank()
    }

    /// Number of ranks in the application world.
    pub fn size(&self) -> usize {
        self.protocol.app_size()
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
        self.protocol.as_ref()
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
        let req = self
            .protocol
            .isend(&mut self.pml, dst, comm_id, tag, payload);
        Request::Send(req)
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
        let req = self.protocol.irecv(&mut self.pml, src, comm_id, tag_sel);
        Request::Recv(req)
    }

    fn drain_events(&mut self) {
        let events = self.pml.progress();
        self.handle_events(events);
    }

    /// Feed `events` to the protocol in order, then return the emptied
    /// vector to the PML for its next progress call.
    fn handle_events(&mut self, mut events: Vec<PmlEvent>) {
        for ev in events.drain(..) {
            self.protocol.handle_event(&mut self.pml, ev);
        }
        self.pml.recycle_events(events);
    }

    /// `racy = true` marks waits whose traffic is very likely already in
    /// flight (completion acks for a send whose payload is out): the endpoint
    /// then yields once before parking so those deliveries coalesce into its
    /// lock-free wake token (see [`sim_net::Endpoint::recv_blocking_hinted`]).
    fn block_for_events(&mut self, what: &str, racy: bool) {
        // Formatted only if the wait fails; the protocol cannot change state
        // in between (blocking progress only queues events).
        let desc = std::fmt::from_fn(|f| {
            write!(f, "{what}; protocol: {}", self.protocol.describe_pending())
        });
        match self.pml.progress_blocking(desc, racy) {
            Ok(events) => self.handle_events(events),
            Err(err) => std::panic::panic_any(err),
        }
    }

    fn request_complete(&mut self, req: Request) -> bool {
        match req {
            Request::Send(s) => self.protocol.send_complete(&mut self.pml, s),
            Request::Recv(r) => self.protocol.recv_complete(&mut self.pml, r),
        }
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
                self.protocol.free_send(&mut self.pml, s);
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
                    .protocol
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
        self.protocol.finalize(&mut self.pml);
    }

    /// Split the process back into its parts (used by the runtime to collect
    /// accounting after the application returns).
    pub fn into_parts(self) -> (Pml, Box<dyn Protocol>) {
        (self.pml, self.protocol)
    }

    // -- internals shared with collectives ------------------------------------

    pub(crate) fn next_coll_tag(&mut self, comm: Comm, op_code: i64) -> Tag {
        let seq = self.comm_info(comm).coll_seq;
        self.world.coll_seq += 1;
        // Collective tags live far above any reasonable application tag.
        (1 << 40) + (seq as i64) * 64 + op_code
    }
}
