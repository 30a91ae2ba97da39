//! Send means ingest: a message is in its destination's mailbox when
//! `Endpoint::send` returns — for scheduler-managed endpoints too, with no
//! blocking boundary, explicit push or drop handler in between — and the one
//! mailbox lock keeps per-pair FIFO and global arrival order under
//! concurrent senders. Only a managed endpoint can block: an unmanaged one
//! returns what is already queued and panics on an empty inbox.

use bytes::Bytes;
use sim_net::fabric::HEADER_WORDS;
use sim_net::failure::CrashSignal;
use sim_net::stats::class;
use sim_net::{CrashSchedule, Endpoint, EndpointId, Fabric, LogGpModel, SimTime};
use std::sync::{Arc, Barrier};

fn hdr(a: i64, b: i64) -> [i64; HEADER_WORDS] {
    let mut h = [0; HEADER_WORDS];
    h[0] = a;
    h[1] = b;
    h
}

/// A fabric whose endpoint 0 is scheduler-managed and holds a run permit (the
/// state of a process inside a launched job), taken as an endpoint handle.
fn managed_sender(n: usize) -> (Arc<Fabric>, Endpoint) {
    let fabric = Fabric::with_defaults(n, LogGpModel::fast_test_model());
    fabric.scheduler().register(EndpointId(0));
    fabric.scheduler().start(EndpointId(0));
    let sender = fabric.endpoint(EndpointId(0));
    (fabric, sender)
}

/// Pop everything endpoint `id` has been sent, application class only (crash
/// notifications travel in the system class).
fn drain_app(fabric: &Arc<Fabric>, id: usize) -> Vec<i64> {
    let mut rx = fabric.endpoint(EndpointId(id));
    let mut got = Vec::new();
    while let Some(msg) = rx.try_recv() {
        if msg.class == class::APP {
            got.push(msg.header[0]);
        }
    }
    got
}

#[test]
fn managed_send_is_poppable_before_the_sender_reaches_any_boundary() {
    let (fabric, mut a) = managed_sender(2);
    let mut b = fabric.endpoint(EndpointId(1));
    for i in 0..3 {
        a.send(EndpointId(1), class::APP, hdr(i, 0), Bytes::new());
        // The sender is still running: it has not parked, yielded, computed,
        // crashed or been dropped since the send.
        let msg = b.try_recv().expect("a sent message is already ingested");
        assert_eq!(msg.header[0], i);
    }
    drop(a);
    fabric.scheduler().finish(EndpointId(0));
}

#[test]
fn a_process_that_sends_and_exits_without_blocking_still_delivers() {
    let fabric = Fabric::with_defaults(2, LogGpModel::fast_test_model());
    fabric.scheduler().register(EndpointId(0));
    fabric.scheduler().register(EndpointId(1));
    let receiver = std::thread::spawn({
        let fabric = Arc::clone(&fabric);
        move || {
            fabric.scheduler().start(EndpointId(0));
            let mut a = fabric.endpoint(EndpointId(0));
            let got = a.recv_blocking();
            drop(a);
            fabric.scheduler().finish(EndpointId(0));
            got
        }
    });
    let sender = std::thread::spawn({
        let fabric = Arc::clone(&fabric);
        move || {
            fabric.scheduler().start(EndpointId(1));
            let mut b = fabric.endpoint(EndpointId(1));
            b.send(EndpointId(0), class::APP, hdr(42, 0), Bytes::new());
            // Exit straight away; leaking the handle proves delivery does not
            // depend on any drop-time work either.
            std::mem::forget(b);
            fabric.scheduler().finish(EndpointId(1));
        }
    });
    sender.join().unwrap();
    let msg = receiver.join().unwrap().expect("delivered via park/unpark");
    assert_eq!(msg.header[0], 42);
}

#[test]
fn an_unmanaged_blocking_receive_returns_a_message_already_queued() {
    // Endpoints driven by hand (the benchmark's fabric kernels among them)
    // may call `recv_blocking` on an inbox that already holds a message.
    let fabric = Fabric::with_defaults(2, LogGpModel::fast_test_model());
    let mut a = fabric.endpoint(EndpointId(0));
    let mut b = fabric.endpoint(EndpointId(1));
    for i in 0..2 {
        a.send(EndpointId(1), class::APP, hdr(i, 0), Bytes::new());
    }
    for i in 0..2 {
        let msg = b.recv_blocking().expect("an ingested message is returned");
        assert_eq!(msg.header[0], i);
    }
}

#[test]
#[should_panic(
    expected = "endpoint 1 blocked on an empty inbox: blocking needs a scheduler-managed \
                endpoint (launch through JobBuilder); polling code uses try_recv"
)]
fn an_unmanaged_blocking_receive_on_an_empty_inbox_panics() {
    // Nothing can wake an endpoint the scheduler does not manage, so a
    // blocking receive with nothing queued is a usage error, not a wait.
    let fabric = Fabric::with_defaults(2, LogGpModel::fast_test_model());
    let mut b = fabric.endpoint(EndpointId(1));
    let _ = b.recv_blocking();
}

/// Send `0..5` from a managed endpoint 0 to endpoint 1 under `schedule`;
/// returns what endpoint 1 can pop once the sender has crashed.
fn delivered_before_crash(schedule: CrashSchedule) -> Vec<i64> {
    let (fabric, mut a) = managed_sender(2);
    fabric.failure().schedule(EndpointId(0), schedule);
    let crash = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        for i in 0..5 {
            a.send(EndpointId(1), class::APP, hdr(i, 0), Bytes::new());
        }
    }))
    .expect_err("the schedule must crash the sender");
    assert!(crash.downcast_ref::<CrashSignal>().is_some());
    assert!(fabric.failure().is_failed(EndpointId(0)));
    // Drain while the crashed handle is still alive: nothing ran for it after
    // the unwind.
    let got = drain_app(&fabric, 1);
    drop(a);
    fabric.scheduler().finish(EndpointId(0));
    got
}

#[test]
fn crashes_deliver_exactly_what_was_sent_before_the_crash_point() {
    assert_eq!(
        delivered_before_crash(CrashSchedule::BeforeSend { nth: 3 }),
        [0, 1],
        "a before-send crash loses the send it pre-empts and nothing else"
    );
    assert_eq!(
        delivered_before_crash(CrashSchedule::AfterSend { nth: 3 }),
        [0, 1, 2],
        "an after-send crash keeps the send it follows"
    );
}

/// A fabric of two managed endpoints over `workers` run permits: endpoint 1
/// is started on its own thread, where it receives `expect` messages and
/// finishes; endpoint 0 is started here once endpoint 1 has parked.
fn parked_receiver(
    workers: usize,
    expect: usize,
) -> (Arc<Fabric>, Endpoint, std::thread::JoinHandle<Vec<i64>>) {
    let fabric = Fabric::with_defaults(2, LogGpModel::fast_test_model());
    fabric.scheduler().set_workers(workers);
    // Registration order is dispatch order: the receiver gets the first
    // permit, and hands it to the queued sender when it parks.
    fabric.scheduler().register(EndpointId(1));
    fabric.scheduler().register(EndpointId(0));
    let receiver = std::thread::spawn({
        let fabric = Arc::clone(&fabric);
        move || {
            fabric.scheduler().start(EndpointId(1));
            let mut b = fabric.endpoint(EndpointId(1));
            let got = (0..expect)
                .map(|_| b.recv_blocking().expect("delivered").header[0])
                .collect();
            drop(b);
            fabric.scheduler().finish(EndpointId(1));
            got
        }
    });
    wait_until_parked(&fabric);
    fabric.scheduler().start(EndpointId(0));
    let sender = fabric.endpoint(EndpointId(0));
    (fabric, sender, receiver)
}

fn wait_until_parked(fabric: &Arc<Fabric>) {
    while fabric.scheduler().parked_count() == 0 {
        std::thread::yield_now();
    }
}

#[test]
fn a_burst_wakes_its_destination_once_per_wake_window() {
    // One permit: the receiver cannot run while the sender holds it.
    let (fabric, mut a, receiver) = parked_receiver(1, 4);
    for i in 0..3 {
        a.send(EndpointId(1), class::APP, hdr(i, 0), Bytes::new());
    }
    let burst = fabric.stats().snapshot();
    assert_eq!(burst.wakes_issued(), 1, "the first send unparks");
    assert_eq!(
        burst.wakes_suppressed(),
        0,
        "later sends of the window leave no wake token behind"
    );
    a.flush();
    a.send(EndpointId(1), class::APP, hdr(3, 0), Bytes::new());
    let after = fabric.stats().snapshot();
    assert_eq!(
        (after.wakes_issued(), after.wakes_suppressed()),
        (1, 1),
        "a new window wakes again: the queued receiver gets a token"
    );
    drop(a);
    fabric.scheduler().finish(EndpointId(0));
    assert_eq!(receiver.join().unwrap(), [0, 1, 2, 3]);
}

#[test]
fn a_repeat_send_still_unparks_a_destination_that_ran_and_parked_again() {
    // Two permits: the first send hands the receiver the idle one; it takes
    // the message and parks again while the sender is still in the same
    // wake window. The second send must not count on the first one's wake.
    let (fabric, mut a, receiver) = parked_receiver(2, 2);
    a.send(EndpointId(1), class::APP, hdr(0, 0), Bytes::new());
    // The receiver has swept the first message once it counts as delivered.
    while fabric.stats().snapshot().msgs_delivered[class::APP as usize] == 0 {
        std::thread::yield_now();
    }
    wait_until_parked(&fabric);
    a.send(EndpointId(1), class::APP, hdr(1, 0), Bytes::new());
    assert_eq!(fabric.stats().snapshot().wakes_issued(), 2);
    assert_eq!(receiver.join().unwrap(), [0, 1]);
    drop(a);
    fabric.scheduler().finish(EndpointId(0));
}

#[test]
fn concurrent_senders_keep_pair_fifo_and_global_arrival_order() {
    const SENDERS: usize = 6;
    const PER_SENDER: i64 = 2_000;
    let fabric = Fabric::with_defaults(SENDERS + 1, LogGpModel::fast_test_model());
    let dst = EndpointId(SENDERS);
    let mut rx = fabric.endpoint(dst);
    let gate = Arc::new(Barrier::new(SENDERS + 1));
    let senders: Vec<_> = (0..SENDERS)
        .map(|s| {
            let fabric = Arc::clone(&fabric);
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                let mut tx = fabric.endpoint(EndpointId(s));
                gate.wait();
                for i in 0..PER_SENDER {
                    // Different compute strides make the senders' arrival
                    // stamps interleave instead of tying.
                    tx.compute(SimTime::from_nanos(1 + s as u64 * 7));
                    tx.send(dst, class::APP, hdr(s as i64, i), Bytes::new());
                }
            })
        })
        .collect();
    // Sweep while the senders ingest, so mailbox swaps race appends.
    gate.wait();
    while senders.iter().any(|h| !h.is_finished()) {
        rx.has_pending();
    }
    for h in senders {
        h.join().unwrap();
    }
    let mut next = [0i64; SENDERS];
    let mut last_arrival = SimTime::ZERO;
    let mut popped = 0;
    while let Some(msg) = rx.try_recv() {
        let s = msg.header[0] as usize;
        assert_eq!(msg.src, EndpointId(s));
        assert_eq!(
            msg.header[1], next[s],
            "per-pair FIFO broken for sender {s}"
        );
        next[s] += 1;
        assert!(
            msg.arrival >= last_arrival,
            "pop order must follow virtual arrival"
        );
        last_arrival = msg.arrival;
        popped += 1;
    }
    assert_eq!(popped, SENDERS as i64 * PER_SENDER, "no message lost");
}
