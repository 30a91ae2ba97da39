//! Algorithm 1's `upon failure` handler re-sends from a send log that
//! interleaves two destination ranks, and the order it re-sends in is
//! pinned here: exactly the entries missing the dead replica's
//! acknowledgement, in posting order across destinations.
//!
//! Three ranks under dual replication, driven by hand as in
//! `tests/recovery.rs` (endpoint `k·3 + r` is replica `k` of rank `r`):
//!
//! 1. p⁰₀ (endpoint 0) and p¹₀ (endpoint 3) post the same six sends,
//!    alternating irregularly between ranks 1 and 2.
//! 2. p¹₀ gets the first three out; p¹₁ (endpoint 4) receives its two and
//!    acknowledges them to p⁰₀. p¹₂ (endpoint 5) receives nothing.
//! 3. p¹₀ fails. p⁰₀ is the substitute and re-sends to p¹₁ and p¹₂ every
//!    entry whose acknowledgement from replica 1 is missing.
//!
//! Each re-send charges p⁰₀'s clock, so the injection stamps of the re-sent
//! frames give the order they were posted in. A handler that re-sent
//! destination by destination would post the one rank-1 entry first.

mod common;

use bytes::Bytes;
use common::{fast, pump};
use sdr_core::{ReplicaMap, ReplicationConfig, SdrProtocol};
use sim_mpi::pml::Pml;
use sim_mpi::{CommId, Protocol, TagSel};
use sim_net::stats::class;
use sim_net::{EndpointId, Fabric, SimTime};
use std::sync::Arc;

const TAG: i64 = 4;

/// Destination rank of each posted send; the payload is its index.
const POSTED: [usize; 6] = [1, 2, 1, 2, 2, 1];

#[test]
fn substitute_resends_unacked_entries_in_posting_order_across_destinations() {
    let cfg = ReplicationConfig::dual();
    let map = Arc::new(ReplicaMap::uniform(3, cfg.degree));
    let fabric = Fabric::with_defaults(6, fast());
    let node = |e: usize| {
        let pml = Pml::new(fabric.endpoint(EndpointId(e)));
        (pml, SdrProtocol::new(EndpointId(e), Arc::clone(&map), cfg))
    };
    let (mut pml0, mut p00) = node(0);
    let (mut pml3, mut p10) = node(3);
    let (mut pml4, mut p11) = node(4);
    let payload = |i: usize| Bytes::from(vec![i as u8; 8]);

    // --- step 1 and 2: the log fills, replica 1 of rank 1 acks its part --
    let sends: Vec<_> = (0..POSTED.len())
        .map(|i| p00.isend(&mut pml0, POSTED[i], CommId::WORLD, TAG, payload(i)))
        .collect();
    for (i, &dst) in POSTED.iter().enumerate().take(3) {
        p10.isend(&mut pml3, dst, CommId::WORLD, TAG, payload(i));
    }
    let recvs: Vec<_> = (0..2)
        .map(|_| p11.irecv(&mut pml4, Some(0), CommId::WORLD, TagSel::Tag(TAG)))
        .collect();
    pump(&mut pml4, &mut p11);
    for r in recvs {
        assert!(p11.take_recv(&mut pml4, r).is_some(), "p¹₁ got p¹₀'s copy");
    }
    pump(&mut pml0, &mut p00);
    let complete: Vec<bool> = sends
        .iter()
        .map(|&s| p00.send_complete(&mut pml0, s))
        .collect();
    assert_eq!(
        complete,
        [true, false, true, false, false, false],
        "p¹₁ acked sends 0 and 2; nothing else is acked"
    );

    // --- step 3: p¹₀ fails, p⁰₀ substitutes for it --------------------------
    fabric
        .failure()
        .record_failure(EndpointId(3), SimTime::ZERO);
    pump(&mut pml0, &mut p00);
    for &s in &sends {
        assert!(
            p00.send_complete(&mut pml0, s),
            "replica 1's acks are no longer awaited"
        );
    }

    // The frames p⁰₀ re-sent, whichever of p¹₁ and p¹₂ they went to.
    let mut resent: Vec<(SimTime, EndpointId, u8)> = Vec::new();
    let mut pml5 = Pml::new(fabric.endpoint(EndpointId(5)));
    for pml in [&mut pml4, &mut pml5] {
        while let Some(msg) = pml.endpoint_mut().try_recv() {
            if msg.src == EndpointId(0) && msg.class == class::APP {
                resent.push((msg.injected_at, msg.dst, msg.payload[0]));
            }
        }
    }
    resent.sort_by_key(|&(at, ..)| at);
    assert!(
        resent.windows(2).all(|w| w[0].0 < w[1].0),
        "each re-send has its own injection stamp: {resent:?}"
    );
    let order: Vec<(EndpointId, u8)> = resent.iter().map(|&(_, dst, i)| (dst, i)).collect();
    assert_eq!(
        order,
        [
            (EndpointId(5), 1),
            (EndpointId(5), 3),
            (EndpointId(5), 4),
            (EndpointId(4), 5),
        ],
        "exactly the unacked entries, in posting order across destinations"
    );
}
