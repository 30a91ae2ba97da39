//! Scripted reproduction of Figure 4: recovery of the failed replica p¹₁
//! under dual replication.
//!
//! The script drives the PML and SDR-MPI protocol instances of the four
//! physical processes directly (single-threaded), which makes the message
//! interleaving around the fork/notification explicit — exactly the scenario
//! drawn in the paper:
//!
//! 1. p¹₁ fails; p⁰₁ becomes its substitute.
//! 2. Rank 0 keeps sending to rank 1. Message seq 0 is received and
//!    acknowledged by the substitute *before* the fork, so it is part of the
//!    forked state; message seq 1 is still unacknowledged at fork time.
//! 3. The substitute forks the new p¹₁ from its state and broadcasts the
//!    recovery notification.
//! 4. Relying on FIFO channels, p¹₀ re-sends exactly the messages not yet
//!    acknowledged by the substitute (seq 1) to the new replica, and
//!    acknowledgements toward p¹₁ resume for messages received afterwards.
//! 5. The substitute hands p¹₁'s duties back: rank 1's next message reaches
//!    p¹₀ from p¹₁ alone, and p⁰₁ sends only its own copy.

mod common;

use bytes::Bytes;
use common::{fast, pump};
use sdr_core::{ReplicaMap, ReplicationConfig, SdrProtocol};
use sim_mpi::pml::Pml;
use sim_mpi::{CommId, Protocol, TagSel};
use sim_net::{EndpointId, Fabric, SimTime};
use std::sync::Arc;

#[test]
fn figure4_recovery_of_p11() {
    let ranks = 2;
    let cfg = ReplicationConfig::dual();
    let map = Arc::new(ReplicaMap::uniform(ranks, cfg.degree));
    let fabric = Fabric::with_defaults(4, fast());
    // Physical ids: 0 = p⁰₀, 1 = p⁰₁, 2 = p¹₀, 3 = p¹₁ (failed, recovered later).
    let mut pml0 = Pml::new(fabric.endpoint(EndpointId(0)));
    let mut pml1 = Pml::new(fabric.endpoint(EndpointId(1)));
    let mut pml2 = Pml::new(fabric.endpoint(EndpointId(2)));
    let mut p00 = SdrProtocol::new(EndpointId(0), Arc::clone(&map), cfg);
    let mut p01 = SdrProtocol::new(EndpointId(1), Arc::clone(&map), cfg);
    let mut p10 = SdrProtocol::new(EndpointId(2), Arc::clone(&map), cfg);

    // --- step 1: p¹₁ fails, everyone learns about it -----------------------
    fabric
        .failure()
        .record_failure(EndpointId(3), SimTime::ZERO);
    pump(&mut pml0, &mut p00);
    pump(&mut pml1, &mut p01);
    pump(&mut pml2, &mut p10);

    let payload = |seq: u8| Bytes::from(vec![seq; 16]);

    // --- step 2: rank 0 sends seq 0 (acked before the fork) ----------------
    let r01_0 = p01.irecv(&mut pml1, Some(0), CommId::WORLD, TagSel::Tag(5));
    let s00_0 = p00.isend(&mut pml0, 1, CommId::WORLD, 5, payload(0));
    let s10_0 = p10.isend(&mut pml2, 1, CommId::WORLD, 5, payload(0));
    pump(&mut pml1, &mut p01); // substitute receives seq 0 and acks p¹₀
    assert!(p01.recv_complete(&mut pml1, r01_0));
    pump(&mut pml2, &mut p10); // p¹₀ collects the ack
    assert!(p10.send_complete(&mut pml2, s10_0));
    pump(&mut pml0, &mut p00);
    assert!(p00.send_complete(&mut pml0, s00_0));

    // --- step 3: rank 0 sends seq 1, NOT yet received by the substitute ----
    let s00_1 = p00.isend(&mut pml0, 1, CommId::WORLD, 5, payload(1));
    let s10_1 = p10.isend(&mut pml2, 1, CommId::WORLD, 5, payload(1));
    assert!(
        !p10.send_complete(&mut pml2, s10_1),
        "no ack yet: substitute has not received seq 1"
    );

    // --- step 4: the substitute forks the new replica and notifies ---------
    let mut p11 = p01.fork(EndpointId(3));
    assert_eq!(p11.app_rank(), 1);
    let notified = p01.announce_recovery(&mut pml1, EndpointId(3));
    assert_eq!(notified, 2, "p⁰₀ and p¹₀ are notified");
    let mut pml3 = Pml::new(fabric.endpoint(EndpointId(3)));
    // The forked state already contains seq 0 from rank 0, but not seq 1.
    assert!(p11.has_delivered(0, 0));
    assert!(!p11.has_delivered(0, 1));

    // --- step 5: notification handling --------------------------------------
    pump(&mut pml0, &mut p00); // liveness update only
    let sends_before = pml2.endpoint().app_sends();
    pump(&mut pml2, &mut p10); // p¹₀ replays seq 1 to the new replica
    assert_eq!(
        pml2.endpoint().app_sends(),
        sends_before + 1,
        "exactly the unacknowledged message is replayed"
    );

    // --- step 6: the recovered replica receives the replayed message -------
    let r11_1 = p11.irecv(&mut pml3, Some(0), CommId::WORLD, TagSel::Tag(5));
    pump(&mut pml3, &mut p11);
    assert!(p11.recv_complete(&mut pml3, r11_1));
    let (status, data) = p11.take_recv(&mut pml3, r11_1).unwrap();
    assert_eq!(status.source, 0);
    assert_eq!(
        &data[..],
        &payload(1)[..],
        "the recovered replica gets seq 1, not a duplicate of seq 0"
    );

    // The substitute eventually receives its own copy of seq 1 and acks p¹₀.
    let r01_1 = p01.irecv(&mut pml1, Some(0), CommId::WORLD, TagSel::Tag(5));
    pump(&mut pml1, &mut p01);
    assert!(p01.recv_complete(&mut pml1, r01_1));
    pump(&mut pml2, &mut p10);
    assert!(p10.send_complete(&mut pml2, s10_1));
    pump(&mut pml0, &mut p00);
    assert!(p00.send_complete(&mut pml0, s00_1));

    // --- step 7: normal parallel operation resumes, acks flow to p¹₁ -------
    let s00_2 = p00.isend(&mut pml0, 1, CommId::WORLD, 5, payload(2));
    let s10_2 = p10.isend(&mut pml2, 1, CommId::WORLD, 5, payload(2));
    let r11_2 = p11.irecv(&mut pml3, Some(0), CommId::WORLD, TagSel::Tag(5));
    let r01_2 = p01.irecv(&mut pml1, Some(0), CommId::WORLD, TagSel::Tag(5));
    pump(&mut pml3, &mut p11); // p¹₁ receives from p¹₀ again and acks p⁰₀
    pump(&mut pml1, &mut p01); // p⁰₁ receives from p⁰₀ and acks p¹₀
    assert!(p11.recv_complete(&mut pml3, r11_2));
    assert!(p01.recv_complete(&mut pml1, r01_2));
    pump(&mut pml0, &mut p00);
    pump(&mut pml2, &mut p10);
    assert!(
        p00.send_complete(&mut pml0, s00_2),
        "ack from the recovered replica completes p⁰₀'s send"
    );
    assert!(p10.send_complete(&mut pml2, s10_2));

    // --- step 8: the substitute hands p¹₁'s duties back ---------------------
    // Rank 1 sends to rank 0. Each copy carries a marker byte so the script
    // can tell which replica's copy a receiver consumed.
    let sent_by_p01 = pml1.endpoint().app_sends();
    let s01_0 = p01.isend(&mut pml1, 0, CommId::WORLD, 6, Bytes::from(vec![0x01; 16]));
    let s11_0 = p11.isend(&mut pml3, 0, CommId::WORLD, 6, Bytes::from(vec![0x11; 16]));
    assert_eq!(
        pml1.endpoint().app_sends(),
        sent_by_p01 + 1,
        "the substitute no longer sends on p¹₁'s behalf"
    );
    let r00_0 = p00.irecv(&mut pml0, Some(1), CommId::WORLD, TagSel::Tag(6));
    let r10_0 = p10.irecv(&mut pml2, Some(1), CommId::WORLD, TagSel::Tag(6));
    pump(&mut pml0, &mut p00);
    pump(&mut pml2, &mut p10);
    let (_, data) = p00
        .take_recv(&mut pml0, r00_0)
        .expect("p⁰₀ receives p⁰₁'s copy");
    assert_eq!(data[0], 0x01, "the substitute's one copy went to p⁰₀");
    let (_, data) = p10.take_recv(&mut pml2, r10_0).expect("p¹₀ receives again");
    assert_eq!(data[0], 0x11, "p¹₀ consumes p¹₁'s copy");
    assert_eq!(pml0.matching().unexpected_len(), 0);
    assert_eq!(
        pml2.matching().unexpected_len(),
        0,
        "no stray copy from the substitute waits at p¹₀"
    );
    pump(&mut pml1, &mut p01);
    pump(&mut pml3, &mut p11);
    assert!(
        p01.send_complete(&mut pml1, s01_0),
        "p¹₀ acks the substitute"
    );
    assert!(p11.send_complete(&mut pml3, s11_0), "p⁰₀ acks p¹₁");
}
