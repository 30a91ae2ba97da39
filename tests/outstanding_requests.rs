//! Many requests outstanding at once — Algorithm 1's general case.
//!
//! Every workload and every other test waits on each `isend` before posting
//! the next, so the send log never holds more than one entry and a PML never
//! holds more than a handful of requests. Here each of 4 ranks posts all its
//! receives, then a window of 6 `isend`s to each other rank, and only then
//! `waitall`s — 18 sends and 18 receives in flight per process, 5 rounds —
//! natively, under SDR-MPI at degree 2 and 3, with replica crashes inside a
//! window (the substitute re-sends from a multi-entry log, in log order),
//! over lossy links, and under the three baseline protocols.
//!
//! Checked on every finished process: each receive carries exactly the
//! payload its position in the sender's stream dictates, the send log is
//! empty and the PML's request table is empty once the application is done.
//! For the SDR-MPI cases `(elapsed_ns, total_msgs)` at one run permit are
//! literals captured before the request bookkeeping was collapsed, so
//! re-send order under a multi-entry log is pinned.

mod common;

use common::{fast, survivor_results, with_deadline};
use repl_baselines::{LeaderFactory, MirrorFactory, RedMpiFactory, SdcReport};
use sdr_core::{native_job, replicated_job, ReplicationConfig};
use sim_mpi::{JobBuilder, Process, ProtocolFactory, Rank};
use sim_net::{CrashSchedule, EndpointId, NetFaultConfig};
use std::sync::Arc;

const RANKS: usize = 4;
const WINDOW: u64 = 6;
const ROUNDS: u64 = 5;
const TAG: i64 = 3;

/// The `k`-th payload of round `round` on the `src → dst` stream.
fn payload(src: Rank, dst: Rank, round: u64, k: u64) -> u64 {
    ((src as u64 * 10 + dst as u64) * 100 + round) * 100 + k
}

/// What rank `me` must have received in total.
fn expected_sum(me: Rank) -> u64 {
    (0..ROUNDS)
        .flat_map(|round| {
            (0..RANKS)
                .filter(move |&src| src != me)
                .flat_map(move |src| (0..WINDOW).map(move |k| payload(src, me, round, k)))
        })
        .sum()
}

/// Returns `(payload sum, send-log entries, live PML requests)` as seen once
/// every request of the last round has been waited on.
fn windowed_exchange(p: &mut Process) -> (u64, usize, usize) {
    let world = p.world();
    let me = p.rank();
    let peers: Vec<Rank> = (0..p.size()).filter(|&r| r != me).collect();
    let mut sum = 0;
    for round in 0..ROUNDS {
        let mut reqs = Vec::new();
        for &src in &peers {
            for _ in 0..WINDOW {
                reqs.push(p.irecv_bytes(world, src as i64, TAG));
            }
        }
        for &dst in &peers {
            for k in 0..WINDOW {
                let bytes = sim_mpi::datatype::u64s_to_bytes(&[payload(me, dst, round, k)]);
                reqs.push(p.isend_bytes(world, dst, TAG, bytes));
            }
        }
        let done = p.waitall(world, &reqs);
        // Receives were posted first, peer by peer, and one stream's messages
        // match in posting order: position decides the payload.
        for (i, (status, bytes)) in done.iter().take(peers.len() * WINDOW as usize).enumerate() {
            let (src, k) = (peers[i / WINDOW as usize], i as u64 % WINDOW);
            let got = sim_mpi::datatype::bytes_to_u64s(bytes.as_ref().expect("receive payload"));
            assert_eq!(status.source, src);
            assert_eq!(got, [payload(src, me, round, k)], "round {round} recv {i}");
            sum += got[0];
        }
    }
    (
        sum,
        p.protocol().send_log_len(),
        p.pml().outstanding_requests(),
    )
}

/// Run one case at a single run permit and check every surviving process;
/// returns `(elapsed_ns, total_msgs)`.
fn run_case(name: &str, job: JobBuilder, crashes: usize) -> (u64, u64) {
    let report = job.network(fast()).workers(1).run(windowed_exchange);
    assert_eq!(report.crashed().len(), crashes, "{name}: crash count");
    for (rank, endpoint, (sum, send_log, live_reqs)) in survivor_results(&report) {
        assert_eq!(sum, expected_sum(rank), "{name}: {endpoint:?} payload sum");
        assert_eq!(send_log, 0, "{name}: {endpoint:?} send log not drained");
        assert_eq!(live_reqs, 0, "{name}: {endpoint:?} leaked PML requests");
    }
    (report.elapsed.as_nanos(), report.stats.total_msgs())
}

fn baseline_job(factory: Arc<dyn ProtocolFactory>) -> JobBuilder {
    JobBuilder::new(RANKS).protocol(factory)
}

#[test]
fn windows_of_outstanding_requests_complete_and_leave_no_request_behind() {
    with_deadline("outstanding_requests/baselines", |_| {
        let cases: [(&str, JobBuilder); 4] = [
            ("native", native_job(RANKS)),
            ("mirror", baseline_job(Arc::new(MirrorFactory::new(2)))),
            (
                "leader",
                baseline_job(Arc::new(LeaderFactory::new(ReplicationConfig::dual()))),
            ),
            (
                "redmpi",
                baseline_job(Arc::new(RedMpiFactory::dual(SdcReport::new()))),
            ),
        ];
        for (name, job) in cases {
            run_case(name, job, 0);
        }
    });
}

fn dual() -> JobBuilder {
    replicated_job(RANKS, ReplicationConfig::dual())
}

fn triple() -> JobBuilder {
    replicated_job(RANKS, ReplicationConfig::with_degree(3))
}

/// `(case, job, crashes, elapsed_ns, total_msgs)` at `workers(1)`.
type Pin = (&'static str, fn() -> JobBuilder, usize, u64, u64);

const SDR_PINS: &[Pin] = &[
    ("dual", dual, 0, 17_596, 1_440),
    ("degree-3", triple, 0, 19_476, 3_240),
    // Endpoint 5 = replica 1 of rank 1: dies with 8 of its first 18 sends
    // out, so endpoint 1 takes over with a full log.
    (
        "dual-crash-in-window",
        || dual().crash(EndpointId(5), CrashSchedule::AfterSend { nth: 8 }),
        1,
        17_284,
        1_118,
    ),
    // Endpoints 6 and 10 = replicas 1 and 2 of rank 2: one dies inside the
    // first window, the other inside the second, leaving endpoint 2 to send
    // on behalf of both.
    (
        "degree-3-two-crashes-of-rank-2",
        || {
            triple()
                .crash(EndpointId(6), CrashSchedule::AfterSend { nth: 8 })
                .crash(EndpointId(10), CrashSchedule::AfterSend { nth: 26 })
        },
        2,
        19_340,
        2_422,
    ),
    (
        "dual-lossy",
        || dual().net_faults(NetFaultConfig::lossy_links(), 17),
        0,
        37_003_767,
        11_068,
    ),
];

#[test]
fn sdr_windows_survive_crashes_and_loss_with_pinned_virtual_times() {
    with_deadline("outstanding_requests/sdr", |_| {
        for &(case, job, crashes, elapsed_ns, total_msgs) in SDR_PINS {
            assert_eq!(
                run_case(case, job(), crashes),
                (elapsed_ns, total_msgs),
                "simulated results moved for '{case}'"
            );
        }
    });
}
