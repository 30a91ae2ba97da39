//! Layer calibration kernels (the `K` metrics): each times one layer from
//! outside, through `pub` items only, for at least ten repetitions, and
//! reports the median cost per operation. They feed the `ledger.*` shares:
//! count (from the traced pass) x kernel cost / host seconds.
//!
//! Every simulated job here runs at `workers(1)`: the numbers calibrate the
//! single-permit path the workloads use (see README on why).

use bytes::Bytes;
use sdr_core::{native_job, replicated_job, ReplicationConfig, SeqTracker};
use sim_mpi::matching::{IncomingMsg, MatchingEngine, PmlReqId, PostedRecv};
use sim_mpi::{CommId, JobBuilder, ReduceOp, TagSel};
use sim_net::sched::{Park, Scheduler};
use sim_net::stats::class;
use sim_net::{CarrierMode, CoroRuntime, EndpointId, Fabric, LogGpModel, NetStats, SimTime};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use workloads::serve::{serve, JobSpec, ServeConfig, ServeEvent, Submission};

const REPS: usize = 11;

/// Median over `REPS` repetitions of `nanoseconds / operations`, where one
/// repetition of `body` returns `(seconds it timed, operations it did)`.
fn per_op_ns(mut body: impl FnMut() -> (f64, u64)) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let (secs, ops) = body();
            secs * 1e9 / ops.max(1) as f64
        })
        .collect();
    crate::stats::median(&samples)
}

fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let v = f();
    (t.elapsed().as_secs_f64(), v)
}

const SCHED_ROUNDS: usize = 2_000;

/// Lock-step wake/park ping-pong between two thread carriers (as
/// `benches/sched_dispatch.rs`): with one permit every dispatch is a direct
/// handoff, with two every wake of a parked peer takes the cold path.
///
/// With two permits the scheduler at HEAD returns a spurious `Park::Deadlock`
/// about once in 300 ping-pongs on a 2-core host (README, findings); such a
/// repetition is discarded and run again instead of failing the benchmark.
fn sched_thread_pingpong(workers: usize) -> (f64, u64) {
    for _ in 0..10 {
        let s = Arc::new(Scheduler::new(2));
        s.set_workers(workers);
        s.register(EndpointId(0));
        s.register(EndpointId(1));
        let (secs, clean) = timed(|| {
            let s0 = Arc::clone(&s);
            let a = std::thread::spawn(move || {
                s0.start(EndpointId(0));
                let clean = (0..SCHED_ROUNDS).all(|_| {
                    s0.wake(EndpointId(1));
                    s0.park(EndpointId(0), SimTime::ZERO) == Park::Woken
                });
                s0.finish(EndpointId(0));
                clean
            });
            let s1 = Arc::clone(&s);
            let b = std::thread::spawn(move || {
                s1.start(EndpointId(1));
                let clean = (0..SCHED_ROUNDS).all(|_| {
                    let woken = s1.park(EndpointId(1), SimTime::ZERO) == Park::Woken;
                    s1.wake(EndpointId(0));
                    woken
                });
                s1.finish(EndpointId(1));
                clean
            });
            let a = a.join().expect("ping carrier panicked");
            let b = b.join().expect("pong carrier panicked");
            a && b
        });
        if clean {
            return (secs, 2 * SCHED_ROUNDS as u64);
        }
    }
    panic!("thread ping-pong at {workers} workers hit a deadlock verdict ten times in a row");
}

/// The same ping-pong on two coroutine stacks hosted by one worker thread:
/// each dispatch is a user-space stack switch.
fn sched_coro_pingpong() -> (f64, u64) {
    let s = Arc::new(Scheduler::new(2));
    s.set_workers(1);
    let rt = CoroRuntime::new(2, 128 * 1024, Arc::new(NetStats::new()));
    let s0 = Arc::clone(&s);
    let h0 = rt.spawn(0, move || {
        s0.start(EndpointId(0));
        for _ in 0..SCHED_ROUNDS {
            s0.wake(EndpointId(1));
            assert_eq!(s0.park(EndpointId(0), SimTime::ZERO), Park::Woken);
        }
        s0.finish(EndpointId(0));
    });
    let s1 = Arc::clone(&s);
    let h1 = rt.spawn(1, move || {
        s1.start(EndpointId(1));
        for _ in 0..SCHED_ROUNDS {
            assert_eq!(s1.park(EndpointId(1), SimTime::ZERO), Park::Woken);
            s1.wake(EndpointId(0));
        }
        s1.finish(EndpointId(1));
    });
    s.attach_coro(Arc::clone(&rt));
    s.register(EndpointId(0));
    s.register(EndpointId(1));
    let (secs, ()) = timed(|| {
        rt.activate(1);
        h0.join().expect("ping coroutine panicked");
        h1.join().expect("pong coroutine panicked");
    });
    rt.shutdown();
    (secs, 2 * SCHED_ROUNDS as u64)
}

/// Bare fabric round: send + flush on one endpoint, blocking receive on the
/// other, no scheduler, no PML.
fn fabric_send_recv(payload_len: usize) -> (f64, u64) {
    const MSGS: u64 = 20_000;
    let fabric = Fabric::with_defaults(2, LogGpModel::fast_test_model());
    let mut a = fabric.endpoint(EndpointId(0));
    let mut b = fabric.endpoint(EndpointId(1));
    let payload = Bytes::from(vec![7u8; payload_len]);
    let (secs, ()) = timed(|| {
        for i in 0..MSGS {
            a.send(
                EndpointId(1),
                class::APP,
                [i as i64, 0, 0, 0, 0, 0, 0, 0],
                payload.clone(),
            );
            a.flush();
            let m = b.recv_blocking().expect("message was just sent");
            black_box(m.len());
        }
    });
    (secs, MSGS)
}

/// 255 senders, one receiver, arrival stamps in reverse ingest order: the
/// all-to-all burst that drives the delivery ladder's heap fallback.
fn fabric_burst_ingest() -> (f64, u64) {
    const N: usize = 256;
    let fabric = Fabric::with_defaults(N, LogGpModel::fast_test_model());
    let mut rx = fabric.endpoint(EndpointId(0));
    let mut senders: Vec<_> = (1..N)
        .map(|i| {
            let mut ep = fabric.endpoint(EndpointId(i));
            ep.compute(SimTime::from_nanos(((N - i) * 1_000) as u64));
            ep
        })
        .collect();
    let payload = Bytes::from_static(&[1u8; 64]);
    let (secs, ()) = timed(|| {
        for _ in 0..8 {
            for tx in &mut senders {
                tx.send(EndpointId(0), class::APP, [0; 8], payload.clone());
                tx.flush();
            }
            for _ in 1..N {
                black_box(rx.recv_blocking().expect("burst message pending").len());
            }
        }
    });
    (secs, 8 * (N as u64 - 1))
}

fn incoming(src: usize, tag: i64, seq: u64) -> IncomingMsg {
    IncomingMsg {
        src: EndpointId(src),
        comm: CommId::WORLD,
        tag,
        seq,
        aux: 0,
        payload: Bytes::new(),
        arrival: SimTime::from_nanos(seq),
    }
}

fn matching_post_match() -> (f64, u64) {
    const N: u64 = 1_000;
    let (secs, eng) = timed(|| {
        let mut eng = MatchingEngine::new();
        for i in 0..N {
            eng.post_recv(PostedRecv {
                req: PmlReqId(i),
                src: Some(EndpointId((i % 8) as usize)),
                comm: CommId::WORLD,
                tag: TagSel::Tag((i % 16) as i64),
            });
        }
        for i in 0..N {
            eng.incoming(incoming((i % 8) as usize, (i % 16) as i64, i));
        }
        eng
    });
    black_box(eng.posted_len());
    (secs, N)
}

fn matching_unexpected_wildcard() -> (f64, u64) {
    const N: u64 = 1_000;
    let (secs, eng) = timed(|| {
        let mut eng = MatchingEngine::new();
        for i in 0..N {
            eng.incoming(incoming((i % 8) as usize, 3, i));
        }
        for i in 0..N {
            eng.post_recv(PostedRecv {
                req: PmlReqId(i),
                src: None,
                comm: CommId::WORLD,
                tag: TagSel::Any,
            });
        }
        eng
    });
    black_box(eng.unexpected_len());
    (secs, N)
}

/// A 512-source gather at the root with arrivals in reverse posting order.
fn matching_gather_reverse() -> (f64, u64) {
    const N: u64 = 512;
    let (secs, eng) = timed(|| {
        let mut eng = MatchingEngine::new();
        for i in 0..N {
            eng.post_recv(PostedRecv {
                req: PmlReqId(i),
                src: Some(EndpointId(i as usize)),
                comm: CommId::WORLD,
                tag: TagSel::Tag(7),
            });
        }
        for i in (0..N).rev() {
            assert!(eng.incoming(incoming(i as usize, 7, i)).is_some());
        }
        eng
    });
    black_box(eng.posted_len());
    (secs, N)
}

fn fast(builder: JobBuilder) -> JobBuilder {
    builder.network(LogGpModel::fast_test_model()).workers(1)
}

/// Two-rank ping-pong job; returns host seconds and *logical* messages
/// (what the application sent, whatever the layout multiplies it into).
fn pingpong_job(builder: JobBuilder, rounds: u64, size: usize) -> (f64, u64) {
    let (secs, report) = timed(|| {
        fast(builder).run(move |p| {
            let world = p.world();
            let peer = 1 - p.rank();
            let payload = Bytes::from(vec![7u8; size]);
            for _ in 0..rounds {
                if p.rank() == 0 {
                    p.send_bytes(world, peer, 1, payload.clone());
                    black_box(p.recv_bytes(world, peer as i64, 1).1.len());
                } else {
                    black_box(p.recv_bytes(world, peer as i64, 1).1.len());
                    p.send_bytes(world, peer, 1, payload.clone());
                }
            }
            0.0
        })
    });
    assert!(report.all_finished(), "ping-pong kernel did not finish");
    (secs, 2 * rounds)
}

fn collective_job(alltoall: bool) -> (f64, u64) {
    let (secs, report) = timed(|| {
        fast(native_job(64)).run(move |p| {
            let world = p.world();
            if alltoall {
                for _ in 0..3 {
                    let blocks = (0..p.size())
                        .map(|_| Bytes::from_static(&[3u8; 64]))
                        .collect();
                    black_box(p.alltoall_bytes(world, blocks).len());
                }
                0.0
            } else {
                (0..20)
                    .map(|i| p.allreduce_f64(world, ReduceOp::Sum, (p.rank() + i) as f64))
                    .sum()
            }
        })
    });
    assert!(report.all_finished(), "collective kernel did not finish");
    (secs, report.stats.total_msgs())
}

fn seqtracker() -> (f64, u64) {
    const N: u64 = 10_000;
    let (secs, t) = timed(|| {
        let mut t = SeqTracker::default();
        for s in 0..N {
            t.record(s);
        }
        t
    });
    black_box(t.next_expected());
    (secs, N)
}

fn launch(builder: JobBuilder) -> (f64, u64) {
    let procs = builder.physical_processes() as u64;
    let (secs, report) = timed(|| fast(builder).run(|_| 0.0));
    assert!(report.all_finished(), "empty job did not finish");
    (secs, procs)
}

/// Sample wire lines and one sample record for the serve-path kernels.
fn serve_samples() -> (Vec<String>, workloads::serve::JobRecord) {
    let queue = crate::gen::serve_mixed(1, false);
    let lines: Vec<String> = queue
        .specs
        .iter()
        .take(64)
        .map(|s| s.to_json().encode())
        .collect();
    let spec = JobSpec::parse_line(
        r#"{"id":"sample","workload":"collective","iterations":6,"ranks":8,"workers":1}"#,
    )
    .expect("sample spec is valid");
    let mut record = None;
    serve(
        vec![Submission::Spec(spec)],
        ServeConfig { max_concurrent: 1 },
        |event| {
            if let ServeEvent::Completed(r) = event {
                record = Some(*r);
            }
        },
    );
    (lines, record.expect("sample job completed"))
}

/// Run every calibration kernel; keys are the per-layer metric names.
pub fn run_all() -> BTreeMap<&'static str, f64> {
    let mut k = BTreeMap::new();
    if sim_net::carrier::coro::supported() {
        k.insert("sched.coro_handoff_ns", per_op_ns(sched_coro_pingpong));
    } else {
        k.insert("sched.coro_handoff_ns", 0.0);
    }
    k.insert(
        "sched.thread_handoff_ns",
        per_op_ns(|| sched_thread_pingpong(1)),
    );
    k.insert(
        "sched.cold_dispatch_ns",
        per_op_ns(|| sched_thread_pingpong(2)),
    );
    k.insert("fabric.send_recv_ns", per_op_ns(|| fabric_send_recv(8)));
    k.insert(
        "fabric.send_recv_4k_ns",
        per_op_ns(|| fabric_send_recv(4096)),
    );
    k.insert("fabric.burst_ingest_ns", per_op_ns(fabric_burst_ingest));
    k.insert("matching.post_match_ns", per_op_ns(matching_post_match));
    k.insert(
        "matching.unexpected_wildcard_ns",
        per_op_ns(matching_unexpected_wildcard),
    );
    k.insert(
        "matching.gather_reverse_ns",
        per_op_ns(matching_gather_reverse),
    );
    let native = per_op_ns(|| pingpong_job(native_job(2), 4_000, 8));
    let dual = per_op_ns(|| pingpong_job(replicated_job(2, ReplicationConfig::dual()), 2_000, 8));
    k.insert("pml.pingpong_native_ns", native);
    k.insert(
        "pml.pingpong_64k_ns_per_kib",
        per_op_ns(|| pingpong_job(native_job(2), 300, 64 * 1024)) / 64.0,
    );
    k.insert(
        "coll.allreduce_64_ns_per_msg",
        per_op_ns(|| collective_job(false)),
    );
    k.insert(
        "coll.alltoall_64_ns_per_msg",
        per_op_ns(|| collective_job(true)),
    );
    k.insert("proto.pingpong_dual_ns", dual);
    k.insert("proto.host_cost_ratio", dual / native);
    k.insert("proto.seqtracker_ns", per_op_ns(seqtracker));
    k.insert(
        "runtime.launch_us_per_proc_4",
        per_op_ns(|| launch(native_job(4))) / 1e3,
    );
    k.insert(
        "runtime.launch_us_per_proc_512",
        per_op_ns(|| launch(native_job(512))) / 1e3,
    );
    k.insert(
        "runtime.launch_thread_us_per_proc_8",
        per_op_ns(|| launch(native_job(8).carrier_mode(CarrierMode::Thread))) / 1e3,
    );
    let (lines, record) = serve_samples();
    k.insert(
        "serve.parse_us_per_line",
        per_op_ns(|| {
            let (secs, ()) = timed(|| {
                for line in &lines {
                    black_box(JobSpec::parse_line(line).expect("generated line is valid"));
                }
            });
            (secs, lines.len() as u64)
        }) / 1e3,
    );
    k.insert(
        "serve.record_encode_us",
        per_op_ns(|| {
            let (secs, ()) = timed(|| {
                for _ in 0..200 {
                    black_box(record.to_json().encode().len());
                }
            });
            (secs, 200)
        }) / 1e3,
    );
    k
}
