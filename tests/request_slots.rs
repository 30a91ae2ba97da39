//! A receive is one slot: the PML hands out a slab index plus a generation
//! as the request handle, matching keeps per-peer FIFOs, and the protocol's
//! receive table and send log are indexed, not keyed. Driven by hand through
//! each process's PML (and, for the send log, its protocol), as
//! `tests/failure_resend.rs` is.

mod common;

use bytes::Bytes;
use common::{fast, pump};
use sdr_core::{ReplicaMap, ReplicationConfig, SdrProtocol};
use sim_mpi::pml::Pml;
use sim_mpi::{CommId, Driver, PmlReqId, Request, TagSel};
use sim_net::{EndpointId, Fabric};
use std::collections::BTreeSet;
use std::sync::Arc;

const N: u64 = 1_000;

fn payload(i: u64) -> Bytes {
    Bytes::copy_from_slice(&i.to_le_bytes())
}

fn word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("an eight-byte payload"))
}

/// Reserve and post a receive.
fn irecv(pml: &mut Pml, src: Option<EndpointId>, comm: CommId, tag: TagSel) -> PmlReqId {
    let req = pml.reserve_recv();
    pml.post_recv(req, src, comm, tag);
    req
}

/// Drain `pml`'s inbox until a progress call reports nothing.
fn drain(pml: &mut Pml) {
    loop {
        let events = pml.progress();
        if events.is_empty() {
            return;
        }
        pml.recycle_events(events);
    }
}

/// The slot index of a handle: its low half.
fn slot_of(req: PmlReqId) -> u64 {
    req.0 & 0xffff_ffff
}

#[test]
fn a_thousand_outstanding_receives_complete_in_any_order_and_reuse_their_slots() {
    let fabric = Fabric::with_defaults(2, fast());
    let mut tx = Pml::new(fabric.endpoint(EndpointId(0)));
    let mut rx = Pml::new(fabric.endpoint(EndpointId(1)));
    let src = Some(EndpointId(0));
    // Round 1 completes in reverse posting order, round 2 in a shuffled one.
    let mut shuffled: Vec<u64> = (0..N).collect();
    let mut state = 0x2545_f491_4f6c_dd1d_u64;
    for i in (1..shuffled.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        shuffled.swap(i, (state % (i as u64 + 1)) as usize);
    }
    let reverse: Vec<u64> = (0..N).rev().collect();
    let mut first_round: Vec<PmlReqId> = Vec::new();
    for (round, order) in [reverse, shuffled].into_iter().enumerate() {
        let reqs: Vec<PmlReqId> = (0..N)
            .map(|tag| irecv(&mut rx, src, CommId::WORLD, TagSel::Tag(tag as i64)))
            .collect();
        assert_eq!(rx.outstanding_requests(), N as usize);
        for &tag in &order {
            tx.isend(EndpointId(1), CommId::WORLD, tag as i64, 0, payload(tag));
        }
        drain(&mut rx);
        for (tag, &req) in reqs.iter().enumerate() {
            let msg = rx.take_recv(req).expect("every receive completed");
            assert_eq!((msg.tag, word(&msg.payload)), (tag as i64, tag as u64));
        }
        assert_eq!(rx.outstanding_requests(), 0);
        if round == 0 {
            first_round = reqs;
            continue;
        }
        // The second round ran in the first round's slots, under new
        // handles; a first-round handle resolves to nothing.
        let slots = |reqs: &[PmlReqId]| reqs.iter().map(|&r| slot_of(r)).collect::<BTreeSet<_>>();
        assert_eq!(slots(&reqs), slots(&first_round), "freed slots are reused");
        assert!(reqs.iter().all(|r| !first_round.contains(r)));
        let fresh = irecv(&mut rx, src, CommId::WORLD, TagSel::Tag(7));
        let stale = *first_round
            .iter()
            .find(|&&r| slot_of(r) == slot_of(fresh))
            .expect("the fresh receive reuses a first-round slot");
        assert_ne!(stale, fresh);
        tx.isend(EndpointId(1), CommId::WORLD, 7, 0, payload(77));
        drain(&mut rx);
        assert!(rx.completed_msg(stale).is_none());
        assert!(
            rx.take_recv(stale).is_none(),
            "a stale handle does not resolve"
        );
        assert_eq!(
            word(&rx.take_recv(fresh).expect("current handle").payload),
            77
        );
    }
}

/// One receive's filter: `None` is the wildcard.
type Filter = (Option<usize>, Option<i64>);

/// MPI matching by its definition: an arriving message goes to the earliest
/// posted receive it matches, a posted receive takes the earliest arrived
/// message it matches. Returns, per receive, the index of its message.
fn reference(ops: &[Result<Filter, (usize, i64)>]) -> Vec<usize> {
    let fits = |f: &Filter, (src, tag): (usize, i64)| {
        f.0.is_none_or(|s| s == src) && f.1.is_none_or(|t| t == tag)
    };
    let mut matched = Vec::new();
    let (mut posted, mut unexpected) = (Vec::new(), Vec::new());
    let mut msgs = 0;
    for op in ops {
        match *op {
            Ok(filter) => {
                matched.push(usize::MAX);
                let recv = matched.len() - 1;
                match unexpected.iter().position(|&(_, m)| fits(&filter, m)) {
                    Some(at) => matched[recv] = unexpected.remove(at).0,
                    None => posted.push((recv, filter)),
                }
            }
            Err(m) => {
                match posted.iter().position(|(_, f)| fits(f, m)) {
                    Some(at) => matched[posted.remove(at).0] = msgs,
                    None => unexpected.push((msgs, m)),
                }
                msgs += 1;
            }
        }
    }
    matched
}

#[test]
fn specific_and_wildcard_receives_match_in_posting_order() {
    let fabric = Fabric::with_defaults(3, fast());
    let mut senders = [0, 1].map(|e| Pml::new(fabric.endpoint(EndpointId(e))));
    let mut rx = Pml::new(fabric.endpoint(EndpointId(2)));
    // Four kinds interleaved: specific, any source, any tag, any/any; some
    // messages land before their receive is posted.
    let mut ops: Vec<Result<Filter, (usize, i64)>> = Vec::new();
    for i in 0..240usize {
        let tag = (i % 3) as i64;
        ops.push(Ok(match i % 4 {
            0 => (Some(i % 2), Some(tag)),
            1 => (None, Some(tag)),
            2 => (Some(1 - i % 2), None),
            _ => (None, None),
        }));
        if i % 5 != 0 {
            ops.push(Err(((i / 3) % 2, ((i * 7) % 3) as i64)));
        }
    }
    // Top up with any/any receives until every message has one.
    let msgs = ops.iter().filter(|op| op.is_err()).count();
    let recvs = ops.iter().filter(|op| op.is_ok()).count();
    ops.extend((recvs..msgs + 8).map(|_| Ok((None, None))));
    let expected = reference(&ops);

    let mut reqs = Vec::new();
    let mut sent = 0u64;
    for op in &ops {
        match *op {
            Ok((src, tag)) => {
                let tag = tag.map_or(TagSel::Any, TagSel::Tag);
                reqs.push(irecv(&mut rx, src.map(EndpointId), CommId::WORLD, tag));
            }
            Err((src, tag)) => {
                // Ingested before the receiver's next call: arrival order is
                // send order.
                senders[src].isend(EndpointId(2), CommId::WORLD, tag, 0, payload(sent));
                drain(&mut rx);
                sent += 1;
            }
        }
    }
    for (recv, (&req, &want)) in reqs.iter().zip(&expected).enumerate() {
        let got = rx.take_recv(req).map(|m| word(&m.payload) as usize);
        let want = (want != usize::MAX).then_some(want);
        assert_eq!(
            got,
            want,
            "receive {recv} ({:?})",
            ops.iter().filter(|o| o.is_ok()).nth(recv)
        );
    }
}

#[test]
fn a_dual_send_log_freed_early_is_collected_from_the_middle() {
    // Rank 0 replica 0 (endpoint 0) sends three messages to rank 1; its
    // direct copy goes to endpoint 1, and each waits for the ack of rank 1's
    // replica 1 (endpoint 3), which receives its copies from endpoint 2.
    let cfg = ReplicationConfig::dual();
    let map = Arc::new(ReplicaMap::uniform(2, cfg.degree));
    let fabric = Fabric::with_defaults(4, fast());
    let node = |e: usize| {
        let pml = Pml::new(fabric.endpoint(EndpointId(e)));
        let proto = SdrProtocol::new(EndpointId(e), Arc::clone(&map), cfg);
        (pml, Driver::new(Box::new(proto)))
    };
    let (mut pml0, mut p00) = node(0);
    let (mut pml2, mut p10) = node(2);
    let (mut pml3, mut p11) = node(3);
    let sends: Vec<_> = (0..3)
        .map(|i| p00.isend(&mut pml0, 1, CommId::WORLD, 10 + i, payload(i as u64)))
        .collect();
    for i in 0..3 {
        p10.isend(&mut pml2, 1, CommId::WORLD, 10 + i, payload(i as u64));
    }
    // The application releases every request before any ack is in.
    for &s in &sends {
        p00.free_send(&mut pml0, s);
    }
    assert_eq!(
        p00.protocol.send_log_len(),
        3,
        "unacked entries stay in the log"
    );
    // Replica 1 of rank 1 receives the middle message first and acks it.
    let middle = p11.irecv(&mut pml3, Some(0), CommId::WORLD, TagSel::Tag(11));
    pump(&mut pml3, &mut p11);
    assert!(p11.take_recv(&mut pml3, middle).is_some());
    pump(&mut pml0, &mut p00);
    assert_eq!(
        p00.protocol.send_log_len(),
        2,
        "the middle entry is collected"
    );
    let complete: Vec<bool> = sends
        .iter()
        .map(|&s| p00.complete(&pml0, Request::Send(s)))
        .collect();
    assert_eq!(complete, [false, true, false]);
    // The other two acks empty the log.
    for tag in [10, 12] {
        let r = p11.irecv(&mut pml3, Some(0), CommId::WORLD, TagSel::Tag(tag));
        pump(&mut pml3, &mut p11);
        assert!(p11.take_recv(&mut pml3, r).is_some());
    }
    pump(&mut pml0, &mut p00);
    assert_eq!(p00.protocol.send_log_len(), 0);
    // A later send starts a fresh ring and is acked like any other.
    let s = p00.isend(&mut pml0, 1, CommId::WORLD, 13, payload(3));
    p10.isend(&mut pml2, 1, CommId::WORLD, 13, payload(3));
    assert!(!sends.contains(&s));
    let r = p11.irecv(&mut pml3, Some(0), CommId::WORLD, TagSel::Tag(13));
    pump(&mut pml3, &mut p11);
    assert!(p11.take_recv(&mut pml3, r).is_some());
    pump(&mut pml0, &mut p00);
    assert!(p00.complete(&pml0, Request::Send(s)));
    p00.free_send(&mut pml0, s);
    assert_eq!(p00.protocol.send_log_len(), 0);
}

#[test]
fn repost_recv_re_posts_at_the_tail() {
    // A receive re-posted after a dropped duplicate goes behind every
    // receive posted before the re-post, in matching order.
    let fabric = Fabric::with_defaults(2, fast());
    let mut tx = Pml::new(fabric.endpoint(EndpointId(0)));
    let mut rx = Pml::new(fabric.endpoint(EndpointId(1)));
    let (src, tag) = (Some(EndpointId(0)), TagSel::Tag(1));
    let a = irecv(&mut rx, src, CommId::WORLD, tag);
    tx.isend(EndpointId(1), CommId::WORLD, 1, 0, payload(1));
    drain(&mut rx);
    assert!(rx.is_complete(a));
    let b = irecv(&mut rx, src, CommId::WORLD, tag);
    rx.repost_recv(a, src, CommId::WORLD, tag);
    assert!(!rx.is_complete(a), "the same handle is armed again");
    for i in [2, 3] {
        tx.isend(EndpointId(1), CommId::WORLD, 1, 0, payload(i));
    }
    drain(&mut rx);
    assert_eq!(word(&rx.take_recv(b).unwrap().payload), 2, "b was ahead");
    assert_eq!(word(&rx.take_recv(a).unwrap().payload), 3);
    assert_eq!(rx.outstanding_requests(), 0);
}
