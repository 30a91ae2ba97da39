//! Algorithm 1 without a fabric: `SdrProtocol` is a state machine that takes
//! inputs and emits actions, so it runs here with no `Fabric` and no `Pml`.
//! Two dual ranks exchange messages through a scripted in-memory wire that
//! plays the PML's part (posting, matching, control delivery); every input
//! also goes to a clone, which must stay equal. The `upon failure` re-send
//! order is checked on the actions themselves, in the scenario
//! `tests/failure_resend.rs` pins through real PMLs.

use bytes::Bytes;
use sdr_core::protocol::ctl;
use sdr_core::{ReplicaMap, ReplicationConfig, SdrProtocol, SeqTracker};
use sim_mpi::matching::IncomingMsg;
use sim_mpi::{
    Action, CommId, Input, MpiError, NativeFactory, NativeProtocol, ProtoRecvReq, ProtoSendReq,
    Protocol, ProtocolFactory, Request, TagSel,
};
use sim_net::stats::class;
use sim_net::{EndpointId, FailureEvent, SimTime};
use std::collections::VecDeque;
use std::sync::Arc;

const TAG: i64 = 4;

/// One process: its protocol, a clone fed the same inputs, and the PML's
/// part as far as these tests need it — posted receives and completed
/// messages.
struct Node {
    proto: SdrProtocol,
    twin: SdrProtocol,
    posted: Vec<(ProtoRecvReq, Option<EndpointId>)>,
    done: Vec<(ProtoRecvReq, IncomingMsg)>,
    next_req: u64,
}

/// A frame in flight: source, destination and what it carries.
enum Frame {
    App(IncomingMsg),
    Control([i64; 8], u8),
}

/// Processes of one job and the frames between them, delivered in FIFO
/// order one at a time. Virtual time advances 100 ns per step.
struct Wire {
    nodes: Vec<Node>,
    frames: VecDeque<(EndpointId, EndpointId, Frame)>,
    now: SimTime,
}

impl Wire {
    fn new(map: &Arc<ReplicaMap>, cfg: ReplicationConfig) -> Self {
        let nodes = (0..map.physical_processes())
            .map(|e| {
                let proto = SdrProtocol::new(EndpointId(e), Arc::clone(map), cfg);
                Node {
                    twin: proto.clone(),
                    proto,
                    posted: Vec::new(),
                    done: Vec::new(),
                    next_req: 0,
                }
            })
            .collect();
        Wire {
            nodes,
            frames: VecDeque::new(),
            now: SimTime::ZERO,
        }
    }

    /// Give endpoint `e` `input`, check its clone takes it the same way,
    /// and play the actions: frames onto the wire, receives into the table.
    /// Returns the send request and the actions.
    fn step<'m>(
        &mut self,
        e: usize,
        input: impl Fn() -> Input<'m>,
    ) -> (Option<ProtoSendReq>, Vec<Action>) {
        self.now += SimTime::from_nanos(100);
        let (mut out, mut twin_out) = (Vec::new(), Vec::new());
        let node = &mut self.nodes[e];
        let req = node.proto.input(self.now, input(), &mut out);
        assert_eq!(node.twin.input(self.now, input(), &mut twin_out), req);
        assert_eq!(out, twin_out, "the clone emits the same actions");
        assert!(node.proto == node.twin, "the clone's state stays equal");
        self.play(e, out.clone());
        (req, out)
    }

    fn play(&mut self, e: usize, actions: Vec<Action>) {
        let arrival = self.now + SimTime::from_nanos(1_000);
        for action in actions {
            match action {
                Action::Send {
                    dst,
                    comm,
                    tag,
                    aux,
                    payload,
                    ..
                } => {
                    let (src, seq) = (EndpointId(e), 0);
                    let msg = IncomingMsg {
                        src,
                        comm,
                        tag,
                        seq,
                        aux,
                        payload,
                        arrival,
                    };
                    self.frames.push_back((src, dst, Frame::App(msg)));
                }
                Action::Control {
                    dst, class, header, ..
                } => {
                    let frame = Frame::Control(header, class);
                    self.frames.push_back((EndpointId(e), dst, frame));
                }
                Action::Post { req, src, .. } => self.nodes[e].posted.push((req, src)),
                Action::SyncTo(_) | Action::DeferCost { .. } | Action::Deliver { .. } => {}
                other => panic!("a reliable exchange emits no {other:?}"),
            }
        }
    }

    /// Deliver every frame in flight, and the frames they cause.
    fn deliver_all(&mut self) {
        while let Some((src, dst, frame)) = self.frames.pop_front() {
            let arrival = self.now;
            match frame {
                Frame::Control(header, class) => {
                    self.step(dst.0, || Input::Control {
                        src,
                        class,
                        header,
                        arrival,
                    });
                }
                Frame::App(msg) => {
                    let node = &mut self.nodes[dst.0];
                    let at = node
                        .posted
                        .iter()
                        .position(|(_, from)| from.is_none_or(|f| f == src))
                        .expect("every message of these exchanges is expected");
                    let (req, _) = node.posted.remove(at);
                    // The message stays in its slot, as the PML keeps it.
                    node.done.push((req, msg.clone()));
                    self.step(dst.0, || Input::Completed { req, msg: &msg });
                }
            }
        }
    }

    /// Post an application receive from `src` on endpoint `e`.
    fn irecv(&mut self, e: usize, src: Option<usize>) -> ProtoRecvReq {
        let req = ProtoRecvReq(self.nodes[e].next_req);
        self.nodes[e].next_req += 1;
        let (comm, tag) = (CommId::WORLD, TagSel::Tag(TAG));
        self.step(e, || Input::Irecv {
            req,
            src,
            comm,
            tag,
        });
        req
    }

    fn isend(&mut self, e: usize, dst: usize, byte: u8) -> ProtoSendReq {
        let payload = Bytes::from(vec![byte; 8]);
        let (comm, tag) = (CommId::WORLD, TAG);
        let isend = || Input::Isend {
            dst,
            comm,
            tag,
            payload: payload.clone(),
        };
        self.step(e, isend).0.expect("a send request")
    }

    fn complete(&self, e: usize, req: Request) -> bool {
        self.nodes[e].proto.complete(req)
    }
}

#[test]
fn two_dual_ranks_exchange_and_a_send_completes_only_on_the_cross_ack() {
    // Endpoints 0 and 2 are replicas 0 and 1 of rank 0; 1 and 3 of rank 1.
    let cfg = ReplicationConfig::dual();
    let map = Arc::new(ReplicaMap::uniform(2, cfg.degree));
    let mut wire = Wire::new(&map, cfg);
    let recvs: Vec<ProtoRecvReq> = [1, 3].map(|e| wire.irecv(e, Some(0))).to_vec();
    let sends: Vec<ProtoSendReq> = [0, 2].map(|e| wire.isend(e, 1, 7)).to_vec();
    for (e, &req) in [0, 2].iter().zip(&sends) {
        assert!(
            !wire.complete(*e, Request::Send(req)),
            "endpoint {e}'s send waits for the other replica's ack"
        );
    }
    // Only endpoint 2's copy moves, then replica 1 of rank 1 acks it to
    // endpoint 0: the ack from the replica endpoint 0 did not feed.
    let (src, dst, copy) = wire.frames.remove(1).expect("endpoint 2's copy");
    assert_eq!((src, dst), (EndpointId(2), EndpointId(3)));
    let held = wire.frames.pop_front().expect("endpoint 0's copy");
    wire.frames.push_back((src, dst, copy));
    wire.deliver_all();
    assert!(
        wire.complete(0, Request::Send(sends[0])),
        "acked by endpoint 3"
    );
    assert!(
        !wire.complete(2, Request::Send(sends[1])),
        "endpoint 1 has not received"
    );
    wire.frames.push_back(held);
    wire.deliver_all();
    assert!(
        wire.complete(2, Request::Send(sends[1])),
        "acked by endpoint 1"
    );
    for (e, req) in [(1, recvs[0]), (3, recvs[1])] {
        assert!(wire.complete(e, Request::Recv(req)));
        let (req, msg) = wire.nodes[e].done.pop().expect("a completed receive");
        let (_, out) = wire.step(e, || Input::Take { req, msg: &msg });
        assert_eq!(out, [Action::Deliver { req, source: 0 }]);
    }
}

/// An acknowledgement from endpoint `from` of sequence `seq`, at `at` ns.
fn ack(from: usize, seq: u64, at: u64) -> Input<'static> {
    Input::Control {
        src: EndpointId(from),
        class: class::ACK,
        header: ctl::header(ctl::ACK, seq, 0),
        arrival: SimTime::from_nanos(at),
    }
}

fn take(proto: &mut SdrProtocol, input: Input<'_>) -> Vec<Action> {
    let mut out = Vec::new();
    proto.input(SimTime::ZERO, input, &mut out);
    out
}

fn failed(e: usize) -> Input<'static> {
    Input::Failed(FailureEvent {
        endpoint: EndpointId(e),
        at: SimTime::ZERO,
    })
}

#[test]
fn the_substitute_resends_unacked_entries_in_posting_order() {
    // The scenario of tests/failure_resend.rs: three dual ranks, endpoint
    // `k·3 + r` is replica `k` of rank `r`. Endpoint 0 posts six sends to
    // ranks 1 and 2; endpoint 4 acks the first two to rank 1 (application
    // sequences 0 and 1); endpoint 3 fails and endpoint 0 substitutes.
    const POSTED: [usize; 6] = [1, 2, 1, 2, 2, 1];
    let cfg = ReplicationConfig::dual();
    let map = Arc::new(ReplicaMap::uniform(3, cfg.degree));
    let mut wire = Wire::new(&map, cfg);
    for (i, &dst) in POSTED.iter().enumerate() {
        wire.isend(0, dst, i as u8);
    }
    let p00 = &mut wire.nodes[0].proto;
    for seq in [0, 1] {
        assert!(take(p00, ack(4, seq, 50)).is_empty());
    }
    let resent: Vec<(EndpointId, u8)> = take(p00, failed(3))
        .into_iter()
        .map(|action| match action {
            Action::Send { dst, payload, .. } => (dst, payload[0]),
            other => panic!("the substitute only re-sends: {other:?}"),
        })
        .collect();
    assert_eq!(
        resent,
        [
            (EndpointId(5), 1),
            (EndpointId(5), 3),
            (EndpointId(5), 4),
            (EndpointId(4), 5),
        ],
        "exactly the unacked entries, in posting order across destinations"
    );
    for req in 1..=6 {
        assert!(
            p00.complete(Request::Send(ProtoSendReq(req))),
            "replica 1's acks are no longer awaited"
        );
    }
}

#[test]
fn a_failure_redirects_receives_of_the_dead_replica_in_posting_order() {
    // Endpoint 1 (rank 1, replica 0) receives twice from rank 0 over
    // endpoint 0, once from any source; endpoint 0 fails.
    let cfg = ReplicationConfig::dual();
    let map = Arc::new(ReplicaMap::uniform(2, cfg.degree));
    let mut wire = Wire::new(&map, cfg);
    let reqs = [
        wire.irecv(1, Some(0)),
        wire.irecv(1, None),
        wire.irecv(1, Some(0)),
    ];
    let redirects = take(&mut wire.nodes[1].proto, failed(0));
    let src = Some(EndpointId(2));
    let want = [reqs[0], reqs[2]].map(|req| Action::Redirect { req, src });
    assert_eq!(redirects, want);
}

#[test]
fn losing_every_replica_of_a_rank_aborts_with_rank_lost() {
    let cfg = ReplicationConfig::dual();
    let partial = Arc::new(ReplicaMap::partial(2, &[0]).unwrap());
    let uniform = Arc::new(ReplicaMap::uniform(2, cfg.degree));
    // A partial map's singleton rank 1 dies on its first crash; a uniform
    // map's rank 1 on its second.
    for (map, endpoint, crashes, degree) in
        [(partial, 2, [1].as_slice(), 1), (uniform, 0, &[1, 3], 2)]
    {
        let mut proto = SdrProtocol::new(EndpointId(endpoint), map, cfg);
        let (last, first) = crashes.split_last().unwrap();
        for &e in first {
            assert!(take(&mut proto, failed(e)).is_empty());
        }
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            take(&mut proto, failed(*last));
        }))
        .expect_err("losing every replica must abort");
        let mpi_err = err.downcast_ref::<MpiError>().expect("an MpiError");
        assert_eq!(*mpi_err, MpiError::RankLost { rank: 1, degree });
        assert!(mpi_err.to_string().contains("rank 1"));
    }
}

#[test]
fn acks_that_outrun_the_send_set_its_completion_floor() {
    // Degree 3, 2 ranks: endpoint 0 sends rank 1's copy to endpoint 1 and
    // owes acks from endpoints 3 and 5. Both arrive before the send is
    // posted; the send completes at once, no earlier than the later ack.
    let cfg = ReplicationConfig::with_degree(3);
    let map = Arc::new(ReplicaMap::uniform(2, cfg.degree));
    let mut wire = Wire::new(&map, cfg);
    for (acker, at) in [(3, 80_000), (5, 50_000)] {
        wire.step(0, || ack(acker, 0, at));
    }
    let req = wire.isend(0, 1, 0);
    assert!(
        wire.complete(0, Request::Send(req)),
        "nothing left to wait for"
    );
    let floor = SimTime::from_nanos(80_000);
    assert_eq!(wire.step(0, || Input::Free(req)).1, [Action::SyncTo(floor)]);
    assert_eq!(wire.nodes[0].proto.send_log_len(), 0);
}

#[test]
fn the_send_log_keeps_a_freed_entry_until_its_last_ack() {
    let cfg = ReplicationConfig::dual();
    let map = Arc::new(ReplicaMap::uniform(2, cfg.degree));
    let mut wire = Wire::new(&map, cfg);
    // Freed before its ack: the entry stays (a substitute may need the
    // payload) and the ack collects it. Acked before it is freed: freeing
    // collects it.
    let [early, late] = [0, 1].map(|byte| wire.isend(0, 1, byte));
    wire.step(0, || Input::Free(early));
    let log = |wire: &Wire| wire.nodes[0].proto.send_log_len();
    assert_eq!(log(&wire), 2, "both entries wait for endpoint 3");
    for seq in [0, 1] {
        wire.step(0, || ack(3, seq, 50));
    }
    assert_eq!(log(&wire), 1, "the last ack collects the freed entry");
    assert!(wire.complete(0, Request::Send(late)));
    wire.step(0, || Input::Free(late));
    assert_eq!(log(&wire), 0);
}

#[test]
fn routing_follows_the_map() {
    // Endpoint 5 of 4 dual ranks is rank 1, replica 1: it receives from and
    // sends to replica 1 of every rank, only.
    let cfg = ReplicationConfig::dual();
    let map = Arc::new(ReplicaMap::uniform(4, cfg.degree));
    let mut wire = Wire::new(&map, cfg);
    assert_eq!(wire.nodes[5].proto.app_rank(), 1);
    assert_eq!(wire.nodes[5].proto.replica_id(), 1);
    for rank in 0..4 {
        wire.irecv(5, Some(rank));
        wire.isend(5, rank, 0);
    }
    let posted: Vec<_> = wire.nodes[5].posted.iter().map(|&(_, src)| src).collect();
    assert_eq!(
        posted,
        (4..8).map(|e| Some(EndpointId(e))).collect::<Vec<_>>()
    );
    let dsts: Vec<_> = wire.frames.iter().map(|(_, dst, _)| dst.0).collect();
    assert_eq!(dsts, [4, 5, 6, 7]);
    // On a partial map the singleton (rank 1, endpoint 1) feeds both
    // replicas of rank 0 directly, and both receive from it.
    let partial = Arc::new(ReplicaMap::partial(2, &[0]).unwrap());
    let mut wire = Wire::new(&partial, cfg);
    wire.isend(1, 0, 0);
    for e in [0, 2] {
        wire.irecv(e, Some(1));
        wire.isend(e, 1, 0);
    }
    let frames: Vec<_> = wire.frames.iter().map(|(s, d, _)| (s.0, d.0)).collect();
    assert_eq!(
        frames,
        [(1, 0), (1, 2), (0, 1)],
        "replica 0 owns the copy to the singleton"
    );
    for e in [0, 2] {
        assert_eq!(wire.nodes[e].posted[0].1, Some(EndpointId(1)));
    }
}

#[test]
#[should_panic(expected = "degree 65 is not supported")]
fn degrees_beyond_the_mask_width_are_rejected() {
    let cfg = ReplicationConfig::with_degree(65);
    SdrProtocol::new(EndpointId(0), Arc::new(ReplicaMap::uniform(1, 65)), cfg);
}

#[test]
fn seq_tracker_records_each_sequence_once_and_compacts_gaps() {
    let mut t = SeqTracker::default();
    assert!(t.record(2));
    assert!(t.record(0));
    assert_eq!(t.next_expected(), 1, "2 is held ahead of the gap");
    assert!(!t.record(0), "a duplicate is rejected");
    assert!(t.record(1));
    assert_eq!(t.next_expected(), 3, "filling the gap compacts 2");
    assert!(t.seen(2) && !t.seen(3));
    assert!(!t.record(2));
    assert!(t.record(3));
}

#[test]
fn the_native_protocol_maps_each_call_onto_one_pml_operation() {
    let native = NativeFactory;
    assert_eq!(
        (native.physical_processes(16), native.name()),
        (16, "native")
    );
    let mut proto = native.build(EndpointId(1), 2, false);
    assert_eq!((proto.app_rank(), proto.replica_id()), (1, 0));
    let (comm, tag, payload) = (CommId::WORLD, 5, Bytes::from_static(b"data"));
    let (req, src) = (ProtoRecvReq(7), None);
    let msg = IncomingMsg {
        src: EndpointId(0),
        comm,
        tag,
        seq: 0,
        aux: 0,
        payload: payload.clone(),
        arrival: SimTime::ZERO,
    };
    let inputs = [
        Input::Isend {
            dst: 0,
            comm,
            tag,
            payload: payload.clone(),
        },
        Input::Irecv {
            req,
            src,
            comm,
            tag: TagSel::Any,
        },
        Input::Take { req, msg: &msg },
    ];
    let mut out = Vec::new();
    let reqs: Vec<_> = inputs
        .into_iter()
        .map(|input| proto.input(SimTime::ZERO, input, &mut out))
        .collect();
    assert!(proto.complete(Request::Send(reqs[0].expect("a send request"))));
    let (dst, aux, log, tag_sel) = (EndpointId(0), 0, None, TagSel::Any);
    let send = Action::Send {
        dst,
        comm,
        tag,
        aux,
        payload,
        log,
    };
    let post = Action::Post {
        req,
        src: None,
        comm,
        tag: tag_sel,
    };
    assert_eq!(out, [send, post, Action::Deliver { req, source: 0 }]);
}

#[test]
#[should_panic(expected = "out of range")]
fn the_native_protocol_rejects_an_out_of_range_destination() {
    let mut proto = NativeProtocol::new(EndpointId(0), 2);
    let (comm, payload) = (CommId::WORLD, Bytes::new());
    let isend = Input::Isend {
        dst: 5,
        comm,
        tag: 0,
        payload,
    };
    proto.input(SimTime::ZERO, isend, &mut Vec::new());
}
