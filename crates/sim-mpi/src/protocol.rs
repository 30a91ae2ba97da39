//! The protocol interception layer (the vProtocol-framework equivalent).
//!
//! A [`Protocol`] sits between the application-facing [`crate::process::Process`]
//! API and the [`Pml`]: every application send/receive goes through it, and it
//! observes every PML event. SDR-MPI, the mirror protocol, the leader-based
//! protocol and the redMPI-style SDC detector are all implementations of this
//! trait (in the `sdr-core` and `repl-baselines` crates); the
//! [`NativeProtocol`] defined here is the pass-through used for non-replicated
//! (native) executions.
//!
//! The trait is deliberately shaped like the interception points the paper
//! uses inside Open MPI: pre/post-treatment of `pml_send` / `pml_recv`,
//! plus the `pml_recv_complete` (irecvComplete) callback delivered through
//! [`Protocol::handle_event`].

use crate::pml::{Pml, PmlEvent};
use crate::types::{Rank, Status, Tag, TagSel};
use bytes::Bytes;
use sim_net::EndpointId;

/// Handle for a protocol-level send request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProtoSendReq(pub u64);

/// Handle for a protocol-level receive request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProtoRecvReq(pub u64);

/// A replication (or pass-through) protocol. One instance lives inside each
/// physical process. All ranks passed across this interface are
/// *application-world* ranks; all communicator ids are application-level
/// context ids.
pub trait Protocol: Send {
    /// The application-world rank this physical process plays.
    fn app_rank(&self) -> Rank;

    /// Replica id of this physical process (0 for native executions).
    fn replica_id(&self) -> usize {
        0
    }

    /// Post an application send of `payload` to `dst` (app-world rank) on
    /// communicator `comm` with `tag`.
    fn isend(
        &mut self,
        pml: &mut Pml,
        dst: Rank,
        comm: crate::types::CommId,
        tag: Tag,
        payload: Bytes,
    ) -> ProtoSendReq;

    /// Post an application receive from `src` (app-world rank, `None` for
    /// `MPI_ANY_SOURCE`) on communicator `comm` with tag filter `tag`.
    fn irecv(
        &mut self,
        pml: &mut Pml,
        src: Option<Rank>,
        comm: crate::types::CommId,
        tag: TagSel,
    ) -> ProtoRecvReq;

    /// Is the protocol-level send request complete? For SDR-MPI this includes
    /// having collected the acknowledgements from the other replicas of the
    /// destination rank (Algorithm 1, `MPI_Wait`).
    fn send_complete(&mut self, pml: &mut Pml, req: ProtoSendReq) -> bool;

    /// Is the protocol-level receive request complete (payload available)?
    fn recv_complete(&mut self, pml: &mut Pml, req: ProtoRecvReq) -> bool;

    /// Take the result of a completed receive. Returns `None` if the request
    /// is not yet complete. The status's `source` is an app-world rank.
    fn take_recv(&mut self, pml: &mut Pml, req: ProtoRecvReq) -> Option<(Status, Bytes)>;

    /// Release a completed send request.
    fn free_send(&mut self, pml: &mut Pml, req: ProtoSendReq);

    /// Observe one PML event (receive completions, control traffic, failure
    /// notifications). Called by the process layer for every event, in order.
    fn handle_event(&mut self, pml: &mut Pml, ev: PmlEvent);

    /// Flush/cleanup at `MPI_Finalize` time. No default: a wrapper that
    /// forgets to forward it leaves its inner protocol undrained.
    fn finalize(&mut self, pml: &mut Pml);

    /// One-line description of what the caller is blocked on, for deadlock
    /// diagnostics.
    fn describe_pending(&self) -> String {
        String::new()
    }

    /// Number of send-log entries the protocol currently retains (payloads
    /// kept for post-failure re-sends). Protocols without a send log report 0.
    /// Exposed so experiments can assert the log stays bounded under
    /// ack-driven garbage collection. No default, for the same reason as
    /// [`Protocol::finalize`].
    fn send_log_len(&self) -> usize;
}

/// Builds one [`Protocol`] instance per physical process. The factory also
/// decides how many physical processes an application of `n` ranks needs
/// (`n` for native, `r·n` for replication degree `r`).
pub trait ProtocolFactory: Send + Sync {
    /// Number of physical processes required for `app_ranks` application ranks.
    fn physical_processes(&self, app_ranks: usize) -> usize;

    /// Build the protocol for physical process `endpoint`.
    fn build(&self, endpoint: EndpointId, app_ranks: usize) -> Box<dyn Protocol>;

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

    fn isend(
        &mut self,
        pml: &mut Pml,
        dst: Rank,
        comm: crate::types::CommId,
        tag: Tag,
        payload: Bytes,
    ) -> ProtoSendReq {
        assert!(dst < self.size, "destination rank {dst} out of range");
        pml.isend(EndpointId(dst), comm, tag, 0, payload);
        // Handed to the fabric means complete: there is nothing to track.
        ProtoSendReq(0)
    }

    fn irecv(
        &mut self,
        pml: &mut Pml,
        src: Option<Rank>,
        comm: crate::types::CommId,
        tag: TagSel,
    ) -> ProtoRecvReq {
        if let Some(s) = src {
            assert!(s < self.size, "source rank {s} out of range");
        }
        let req = pml.irecv(src.map(EndpointId), comm, tag);
        ProtoRecvReq(req.0)
    }

    fn send_complete(&mut self, _pml: &mut Pml, _req: ProtoSendReq) -> bool {
        true
    }

    fn recv_complete(&mut self, pml: &mut Pml, req: ProtoRecvReq) -> bool {
        pml.is_complete(crate::matching::PmlReqId(req.0))
    }

    fn take_recv(&mut self, pml: &mut Pml, req: ProtoRecvReq) -> Option<(Status, Bytes)> {
        let msg = pml.take_recv(crate::matching::PmlReqId(req.0))?;
        Some((
            Status {
                source: msg.src.0,
                tag: msg.tag,
                len: msg.payload.len(),
            },
            msg.payload,
        ))
    }

    fn free_send(&mut self, _pml: &mut Pml, _req: ProtoSendReq) {}

    fn finalize(&mut self, _pml: &mut Pml) {}

    fn send_log_len(&self) -> usize {
        0
    }

    fn handle_event(&mut self, _pml: &mut Pml, _ev: PmlEvent) {
        // Native executions have no protocol traffic and no fault tolerance:
        // control messages and failure notifications are ignored (a failed
        // peer simply leads to a deadlock, as with a plain MPI library).
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

    fn build(&self, endpoint: EndpointId, app_ranks: usize) -> Box<dyn Protocol> {
        Box::new(NativeProtocol::new(endpoint, app_ranks))
    }

    fn name(&self) -> &str {
        "native"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::CommId;
    use sim_net::{Fabric, LogGpModel};

    fn pml_pair() -> (Pml, Pml) {
        let f = Fabric::with_defaults(2, LogGpModel::fast_test_model());
        (
            Pml::new(f.endpoint(EndpointId(0))),
            Pml::new(f.endpoint(EndpointId(1))),
        )
    }

    #[test]
    fn native_roundtrip_send_recv() {
        let (mut pml0, mut pml1) = pml_pair();
        let mut proto0 = NativeProtocol::new(EndpointId(0), 2);
        let mut proto1 = NativeProtocol::new(EndpointId(1), 2);

        let sreq = proto0.isend(&mut pml0, 1, CommId::WORLD, 5, Bytes::from_static(b"data"));
        assert!(proto0.send_complete(&mut pml0, sreq));
        proto0.free_send(&mut pml0, sreq);

        let rreq = proto1.irecv(&mut pml1, Some(0), CommId::WORLD, TagSel::Tag(5));
        while !proto1.recv_complete(&mut pml1, rreq) {
            for ev in pml1.progress_blocking("native recv", false).unwrap() {
                proto1.handle_event(&mut pml1, ev);
            }
        }
        let (status, payload) = proto1.take_recv(&mut pml1, rreq).unwrap();
        assert_eq!(status.source, 0);
        assert_eq!(status.tag, 5);
        assert_eq!(&payload[..], b"data");
    }

    #[test]
    fn native_any_source_reports_actual_sender() {
        let (mut pml0, mut pml1) = pml_pair();
        let mut proto0 = NativeProtocol::new(EndpointId(0), 2);
        let mut proto1 = NativeProtocol::new(EndpointId(1), 2);
        proto0.isend(&mut pml0, 1, CommId::WORLD, 9, Bytes::from_static(b"anon"));
        let rreq = proto1.irecv(&mut pml1, None, CommId::WORLD, TagSel::Any);
        while !proto1.recv_complete(&mut pml1, rreq) {
            for ev in pml1.progress_blocking("any-source recv", false).unwrap() {
                proto1.handle_event(&mut pml1, ev);
            }
        }
        let (status, _) = proto1.take_recv(&mut pml1, rreq).unwrap();
        assert_eq!(status.source, 0);
        assert_eq!(status.tag, 9);
    }

    #[test]
    fn native_factory_sizes() {
        let f = NativeFactory;
        assert_eq!(f.physical_processes(16), 16);
        assert_eq!(f.name(), "native");
        let p = f.build(EndpointId(3), 16);
        assert_eq!(p.app_rank(), 3);
        assert_eq!(p.replica_id(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn native_rejects_out_of_range_destination() {
        let (mut pml0, _pml1) = pml_pair();
        let mut proto0 = NativeProtocol::new(EndpointId(0), 2);
        proto0.isend(&mut pml0, 5, CommId::WORLD, 0, Bytes::new());
    }
}
