//! The protocol interception layer (the vProtocol-framework equivalent).
//!
//! A [`Protocol`] sits between the application-facing [`crate::process::Process`]
//! API and the [`crate::pml::Pml`], as a state machine that never touches the
//! PML: it takes one [`Input`] at a time — an application call or a PML
//! event — at the virtual time its driver passes with it, and appends the
//! [`Action`]s that input implies to a buffer the driver owns. The one driver,
//! [`crate::process::Driver`], runs those actions against the PML in order.
//! SDR-MPI, the mirror protocol, the leader-based protocol and the
//! redMPI-style SDC detector are all implementations of this trait (in the
//! `sdr-core` and `repl-baselines` crates); the [`NativeProtocol`] defined
//! here is the pass-through used for non-replicated (native) executions.
//!
//! The inputs are the interception points the paper uses inside Open MPI:
//! pre/post-treatment of `pml_send` / `pml_recv`, plus the
//! `pml_recv_complete` (irecvComplete) callback, [`Input::Completed`].

use crate::matching::IncomingMsg;
use crate::types::{CommId, Rank, Tag, TagSel};
use bytes::Bytes;
use sim_net::{EndpointId, FailureEvent, SimTime};

/// Handle for a protocol-level send request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProtoSendReq(pub u64);

/// Handle for a protocol-level receive request: the id of the PML request
/// the driver reserved for it, a slab index in the low 32 bits plus a
/// generation ([`crate::PmlReqId`]), so a protocol can keep its receives in a table
/// indexed by the low half.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProtoRecvReq(pub u64);

/// A non-blocking request handle returned by `isend`/`irecv`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Request {
    /// A send request.
    Send(ProtoSendReq),
    /// A receive request.
    Recv(ProtoRecvReq),
}

/// One input to a protocol: an application call or a PML event. Ranks are
/// application-world ranks; communicator ids are application-level context
/// ids.
#[derive(Debug)]
pub enum Input<'a> {
    /// `MPI_Isend` of `payload` to rank `dst` on `comm` with `tag`.
    Isend {
        dst: Rank,
        comm: CommId,
        tag: Tag,
        payload: Bytes,
    },
    /// `MPI_Irecv` from rank `src` (`None`: `MPI_ANY_SOURCE`) under handle
    /// `req`, which the driver reserved; an [`Action::Post`] posts it.
    Irecv {
        req: ProtoRecvReq,
        src: Option<Rank>,
        comm: CommId,
        tag: TagSel,
    },
    /// Receive `req` completed in the PML (`irecvComplete`) with `msg`, which
    /// stays in its slot until an [`Action::Deliver`] or [`Action::Repost`].
    Completed {
        req: ProtoRecvReq,
        msg: &'a IncomingMsg,
    },
    /// A control frame arrived from `src` ([`crate::PmlEvent::Control`]); timers are
    /// control frames a process sent itself.
    Control {
        src: EndpointId,
        class: u8,
        header: [i64; 8],
        arrival: SimTime,
    },
    /// The PML's wire window dropped a duplicate of application sequence
    /// `aux` from `src` ([`crate::PmlEvent::DuplicateSuppressed`]).
    Duplicate {
        src: EndpointId,
        aux: i64,
        arrival: SimTime,
    },
    /// A peer crashed ([`crate::PmlEvent::ProcessFailed`]).
    Failed(FailureEvent),
    /// The application completes receive `req` (`MPI_Wait`); `msg` is the
    /// message an [`Action::Deliver`] hands it.
    Take {
        req: ProtoRecvReq,
        msg: &'a IncomingMsg,
    },
    /// The application releases completed send request `req`.
    Free(ProtoSendReq),
    /// The PML stamped the [`Action::Send`] logged as `log` to `dst` with
    /// wire sequence `wire_seq`.
    Sent {
        log: u64,
        dst: EndpointId,
        wire_seq: u64,
    },
    /// `MPI_Finalize`; given again after every [`Action::Drain`].
    Finalize,
}

/// What a protocol asks its driver to do. The driver runs a step's actions
/// in the order they were appended, reading the clock as it goes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// An application frame to physical process `dst`, with `aux` in its
    /// header (SDR-MPI's application sequence). `log: Some(id)` asks for its
    /// wire sequence back as [`Input::Sent`].
    Send {
        dst: EndpointId,
        comm: CommId,
        tag: Tag,
        aux: i64,
        payload: Bytes,
        log: Option<u64>,
    },
    /// A logged frame again, under the wire sequence of its first copy, so
    /// the receiver's lossy-transport window dedups it.
    Resend {
        dst: EndpointId,
        comm: CommId,
        tag: Tag,
        aux: i64,
        wire_seq: u64,
        payload: Bytes,
    },
    /// A control frame of traffic `class` (never matched), injected no
    /// earlier than `not_before`: a reaction is not stamped before what it
    /// reacts to.
    Control {
        dst: EndpointId,
        class: u8,
        header: [i64; 8],
        not_before: SimTime,
    },
    /// A timer: a CONTROL frame to this process that comes back as a
    /// [`crate::PmlEvent::Control`] at `at` — or, `from_clock`, `at` after the clock
    /// when the driver runs this action. Queued in the process's own inbox,
    /// it keeps the process from being judged quiescent.
    Timer {
        header: [i64; 8],
        at: SimTime,
        from_clock: bool,
    },
    /// Post reserved receive `req` for physical process `src` (`None`: any).
    Post {
        req: ProtoRecvReq,
        src: Option<EndpointId>,
        comm: CommId,
        tag: TagSel,
    },
    /// Drop the message completed receive `req` matched (a duplicate) and
    /// post the receive again, at the tail of the posting order.
    Repost {
        req: ProtoRecvReq,
        src: Option<EndpointId>,
        comm: CommId,
        tag: TagSel,
    },
    /// Point pending receive `req` at source `src` (Algorithm 1, line 35).
    Redirect {
        req: ProtoRecvReq,
        src: Option<EndpointId>,
    },
    /// Charge the clock time spent since `since` again when the application
    /// takes `req`: reception processing done while the process was idle
    /// before the message arrived lands on the critical path.
    DeferCost { req: ProtoRecvReq, since: SimTime },
    /// Hand the application completed receive `req`, sent by rank `source`.
    Deliver { req: ProtoRecvReq, source: Rank },
    /// Synchronise the clock to this time: a completion is no earlier than
    /// what it waited for.
    SyncTo(SimTime),
    /// Wait out virtual deadline `at` (a retransmission timeout), handing
    /// the run permit to processes earlier in virtual time. When another
    /// permit is in circulation the driver also gives the host a scheduling
    /// point, and with `sleep` a 200 µs nap, so a peer starved of physical
    /// CPU can deliver what it already emitted.
    WaitUntil { at: SimTime, sleep: bool },
    /// Drop every unexpected message [`Protocol::stale`] calls stale.
    Purge,
    /// Block for the next events, handle them, and give
    /// [`Input::Finalize`] again; a deadlock's message names the string.
    Drain(&'static str),
    /// Fail the process with this message, once the actions before it ran.
    Abort(String),
}

/// A replication (or pass-through) protocol. One instance lives inside each
/// physical process; it never calls the PML, so it can be cloned, compared
/// and driven without a fabric.
pub trait Protocol: Send {
    /// The application-world rank this physical process plays.
    fn app_rank(&self) -> Rank;

    /// Replica id of this physical process (0 for native executions).
    fn replica_id(&self) -> usize {
        0
    }

    /// Take `input` at virtual time `now` and append the actions it implies
    /// to `out`. Returns the request an [`Input::Isend`] makes.
    fn input(
        &mut self,
        now: SimTime,
        input: Input<'_>,
        out: &mut Vec<Action>,
    ) -> Option<ProtoSendReq>;

    /// Is `req` complete at the protocol level? A receive also needs the PML
    /// to have matched it; a send, for SDR-MPI, the acknowledgements from the
    /// other replicas of the destination rank (Algorithm 1, `MPI_Wait`).
    fn complete(&self, req: Request) -> bool;

    /// Is unexpected message `msg` stale, for [`Action::Purge`]?
    fn stale(&self, _msg: &IncomingMsg) -> bool {
        false
    }

    /// One-line description of what the caller is blocked on, for deadlock
    /// diagnostics.
    fn describe_pending(&self) -> String {
        String::new()
    }

    /// Number of send-log entries the protocol currently retains (payloads
    /// kept for post-failure re-sends); 0 without a send log. Exposed so
    /// experiments can assert the log stays bounded under ack-driven garbage
    /// collection. No default: a wrapper must report its core's log.
    fn send_log_len(&self) -> usize;
}

/// Builds one [`Protocol`] instance per physical process. The factory also
/// decides how many physical processes an application of `n` ranks needs
/// (`n` for native, `r·n` for replication degree `r`).
pub trait ProtocolFactory: Send + Sync {
    /// Number of physical processes required for `app_ranks` application ranks.
    fn physical_processes(&self, app_ranks: usize) -> usize;

    /// Build the protocol for physical process `endpoint`; `lossy` says
    /// whether the fabric may drop, duplicate or delay frames.
    fn build(&self, endpoint: EndpointId, app_ranks: usize, lossy: bool) -> Box<dyn Protocol>;

    /// Human-readable protocol name (for reports).
    fn name(&self) -> &str;
}

// ---------------------------------------------------------------------------
// Native (non-replicated) pass-through protocol
// ---------------------------------------------------------------------------

/// Pass-through protocol: rank `i` is physical process `i`; every operation
/// maps 1:1 onto the PML. This is the "native Open MPI" configuration of the
/// paper's evaluation.
#[derive(Debug)]
pub struct NativeProtocol {
    rank: Rank,
    size: usize,
}

impl NativeProtocol {
    /// Protocol instance for physical process `endpoint` in a world of `size`.
    pub fn new(endpoint: EndpointId, size: usize) -> Self {
        NativeProtocol {
            rank: endpoint.0,
            size,
        }
    }
}

impl Protocol for NativeProtocol {
    fn app_rank(&self) -> Rank {
        self.rank
    }

    fn input(
        &mut self,
        _: SimTime,
        input: Input<'_>,
        out: &mut Vec<Action>,
    ) -> Option<ProtoSendReq> {
        match input {
            Input::Isend {
                dst,
                comm,
                tag,
                payload,
            } => {
                assert!(dst < self.size, "destination rank {dst} out of range");
                let (dst, aux, log) = (EndpointId(dst), 0, None);
                out.push(Action::Send {
                    dst,
                    comm,
                    tag,
                    aux,
                    payload,
                    log,
                });
                // Handed to the fabric means complete: nothing to track.
                return Some(ProtoSendReq(0));
            }
            Input::Irecv {
                req,
                src,
                comm,
                tag,
            } => {
                if let Some(s) = src {
                    assert!(s < self.size, "source rank {s} out of range");
                }
                let src = src.map(EndpointId);
                out.push(Action::Post {
                    req,
                    src,
                    comm,
                    tag,
                });
            }
            Input::Take { req, msg } => out.push(Action::Deliver {
                req,
                source: msg.src.0,
            }),
            // Native executions have no protocol traffic and no fault
            // tolerance: control messages and failure notifications are
            // ignored (a failed peer simply leads to a deadlock, as with a
            // plain MPI library).
            _ => {}
        }
        None
    }

    fn complete(&self, _: Request) -> bool {
        true
    }

    fn send_log_len(&self) -> usize {
        0
    }

    fn describe_pending(&self) -> String {
        format!("native rank {} point-to-point completion", self.rank)
    }
}

/// Factory for [`NativeProtocol`].
#[derive(Debug, Clone, Default)]
pub struct NativeFactory;

impl ProtocolFactory for NativeFactory {
    fn physical_processes(&self, app_ranks: usize) -> usize {
        app_ranks
    }

    fn build(&self, endpoint: EndpointId, app_ranks: usize, _: bool) -> Box<dyn Protocol> {
        Box::new(NativeProtocol::new(endpoint, app_ranks))
    }

    fn name(&self) -> &str {
        "native"
    }
}
