//! The Figure 3 scenario: two ranks, dual replication, the repeated
//! send/receive pattern of the paper, with replica p¹₁ crashing mid-run.
//! The protocol substitutes p⁰₁ for the failed replica and every surviving
//! process finishes with the correct data.
//!
//! The replica-map scenarios extend this beyond the paper's dual
//! setup: degree-3 jobs surviving sequential double crashes of one rank,
//! partial layouts aborting promptly when a singleton dies, and degree-3
//! hash majorities *correcting* (not just detecting) injected bit flips.

mod common;

use common::{fast, figure3_expected, figure3_pattern, survivor_results};
use sdr_core::{partial_replicated_job, replicated_job, AckOn, ReplicationConfig};
use sim_mpi::{Process, ProcessOutcome, ReduceOp};
use sim_net::{CrashSchedule, EndpointId};
use std::time::Duration;
use workloads::campaign::{case_spec, CampaignConfig, FaultDistribution};
use workloads::serve::CrashFault;

#[test]
fn figure3_crash_of_p11_after_first_send() {
    // Physical layout: 0 = p⁰₀, 1 = p⁰₁, 2 = p¹₀, 3 = p¹₁.
    let rounds = 5;
    let report = replicated_job(2, ReplicationConfig::dual())
        .network(fast())
        .crash(EndpointId(3), CrashSchedule::AfterSend { nth: 1 })
        .run(move |p| figure3_pattern(p, rounds));
    assert_eq!(report.crashed(), vec![EndpointId(3)]);

    let (expect_rank0, expect_rank1) = figure3_expected(rounds);
    for (app_rank, _, result) in survivor_results(&report) {
        let expect = if app_rank == 0 {
            expect_rank0
        } else {
            expect_rank1
        };
        assert_eq!(result, expect, "rank {app_rank} data after substitution");
    }
    // The crash forced at least one re-send (substitution path taken) or the
    // ack cancellation path; either way acks flowed before the crash.
    assert!(report.stats.ack_msgs() > 0);
}

#[test]
fn figure3_crash_before_any_send_still_completes() {
    let rounds = 4;
    let report = replicated_job(2, ReplicationConfig::dual())
        .network(fast())
        .crash(EndpointId(3), CrashSchedule::BeforeSend { nth: 1 })
        .run(move |p| figure3_pattern(p, rounds));
    assert_eq!(report.crashed(), vec![EndpointId(3)]);
    assert_eq!(survivor_results(&report).len(), 3);
}

#[test]
fn crash_of_both_replicas_of_one_rank_is_a_clear_job_failure() {
    // ROADMAP "Missing scenarios" (d): when *every* replica of a rank dies,
    // no substitute can be elected and the job cannot be saved. That must
    // surface as a prompt job failure carrying a clear error — never as a
    // hang waiting for messages that cannot come.
    let started = std::time::Instant::now();
    let rounds = 6;
    let report = replicated_job(2, ReplicationConfig::dual())
        .network(fast())
        // Endpoints 1 and 3 are replicas 0 and 1 of rank 1.
        .crash(EndpointId(1), CrashSchedule::AfterSend { nth: 1 })
        .crash(EndpointId(3), CrashSchedule::AfterSend { nth: 1 })
        .run(move |p| figure3_pattern(p, rounds));
    assert!(
        started.elapsed() < Duration::from_secs(60),
        "both-replica crash took {:?} to surface: the job hung instead of failing",
        started.elapsed()
    );
    let mut crashed = report.crashed();
    crashed.sort();
    assert_eq!(crashed, vec![EndpointId(1), EndpointId(3)]);
    assert!(!report.all_finished());
    // The surviving processes (rank 0's replicas) must report the lost rank
    // explicitly, not finish with partial data and not deadlock silently.
    let mut clear_errors = 0;
    for proc in &report.processes {
        if crashed.contains(&proc.endpoint) {
            continue;
        }
        match &proc.outcome {
            ProcessOutcome::Panicked(msg) => {
                assert!(
                    msg.contains("rank 1") && msg.contains("replicas"),
                    "survivor {:?} error does not name the lost rank: {msg}",
                    proc.endpoint
                );
                clear_errors += 1;
            }
            ProcessOutcome::Deadlocked { .. } => {
                // Acceptable fallback only if another survivor reported the
                // rank loss; counted below.
            }
            other => panic!("survivor {:?} should fail, got {:?}", proc.endpoint, other),
        }
    }
    assert!(
        clear_errors >= 1,
        "no surviving process reported the unrecoverable rank"
    );
}

#[test]
fn ack_on_app_wait_deadlocks_the_exchange_and_quiescence_reports_it() {
    // ROADMAP "Missing scenarios" (b), the paper's Section 3.3 argument as an
    // end-to-end scenario: with acknowledgements deferred to the application's
    // MPI_Wait (instead of the library-level irecvComplete), the ubiquitous
    // `MPI_Irecv; MPI_Send; MPI_Wait` neighbour exchange deadlocks — every
    // process blocks in MPI_Send waiting for acks its peer's replicas would
    // only emit after their own MPI_Send completed. Launched processes never
    // wait out a real-time timeout: only the scheduler's exact quiescence verdict
    // (which must see through all 8 parked processes at once) can finish this
    // test quickly, and every process must be reported Deadlocked — not hung,
    // not Panicked.
    let ranks = 4;
    let exchange = move |p: &mut Process| {
        let world = p.world();
        let peer = (p.rank() + 1) % p.size();
        let from = (p.rank() + p.size() - 1) % p.size();
        let rreq = p.irecv_bytes(world, from as i64, 9);
        p.send_bytes(world, peer, 9, bytes::Bytes::from(vec![7u8; 64]));
        let _ = p.wait(world, rreq);
        p.rank()
    };
    let started = std::time::Instant::now();
    let report = replicated_job(ranks, ReplicationConfig::dual().ack_on(AckOn::AppWait))
        .network(fast())
        .run(exchange);
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "AppWait deadlock took {:?} to surface: the quiescence verdict was \
         not reached",
        started.elapsed()
    );
    assert_eq!(
        report.deadlocked().len(),
        2 * ranks,
        "every physical process blocks in the ack wait: {:?}",
        report
            .processes
            .iter()
            .map(|p| (p.endpoint, p.outcome.is_deadlocked()))
            .collect::<Vec<_>>()
    );
    // The blocked operation must be attributed to send-completion (the ack
    // wait), which is what distinguishes this protocol-level deadlock from an
    // application bug.
    for proc in &report.processes {
        match &proc.outcome {
            // The description is built only once the wait has failed; it
            // must still carry the protocol's view of what is outstanding.
            ProcessOutcome::Deadlocked { waiting_for } => assert_eq!(
                *waiting_for,
                format!(
                    "request completion in MPI_Wait; protocol: SDR-MPI rank {} replica {}: \
                     1 sends awaiting acks, 1 receives outstanding [{}]",
                    proc.app_rank,
                    proc.replica,
                    sim_net::RecvError::Quiescent
                )
            ),
            other => panic!("{:?} should be deadlocked, got {other:?}", proc.endpoint),
        }
    }
    // Identical exchange under the paper's irecvComplete acking: completes.
    let report_ok = replicated_job(ranks, ReplicationConfig::dual())
        .network(fast())
        .run(exchange);
    assert!(report_ok.all_finished());
}

#[test]
fn replica_crash_during_collective_is_survived() {
    // ROADMAP "Missing scenarios" (a): a replica dies *in the middle of a
    // collective operation*. Collectives are built purely on the intercepted
    // point-to-point layer, so the substitution protocol must carry them
    // exactly like application point-to-point traffic: the survivors finish
    // the allreduce sequence with bit-identical results.
    let ranks = 4;
    let iterations = 6u64;
    let app = move |p: &mut Process| {
        let world = p.world();
        let mut acc = 0.0f64;
        for it in 0..iterations {
            // Mix a halo exchange (generates the per-rank send traffic the
            // crash schedule counts) with the collective under test.
            let peer = (p.rank() + 1) % p.size();
            let from = (p.rank() + p.size() - 1) % p.size();
            p.sendrecv_bytes(
                world,
                peer,
                1,
                bytes::Bytes::from(vec![it as u8; 64]),
                from as i64,
                1,
            );
            let sum = p.allreduce_f64(world, ReduceOp::Sum, (p.rank() as u64 + it) as f64);
            acc += sum;
        }
        acc
    };
    // Physical layout at degree 2: endpoints 0..3 are replica 0 of ranks
    // 0..3, endpoints 4..7 replica 1. Crash replica 1 of rank 2 (endpoint 6)
    // mid-run: by the 3rd application send every rank is inside the
    // sendrecv/allreduce sequence, so the crash lands between the collective's
    // internal point-to-point rounds.
    let report = replicated_job(ranks, ReplicationConfig::dual())
        .network(fast())
        .crash(EndpointId(6), CrashSchedule::AfterSend { nth: 3 })
        .run(app);
    assert_eq!(report.crashed(), vec![EndpointId(6)]);
    // Expected value: every iteration's allreduce sums (rank + it) over all
    // ranks; accumulate over iterations.
    let expect: f64 = (0..iterations)
        .map(|it| (0..ranks as u64).map(|r| (r + it) as f64).sum::<f64>())
        .sum();
    let mut finished = 0;
    for proc in &report.processes {
        if proc.endpoint == EndpointId(6) {
            continue;
        }
        let acc = proc.outcome.result().copied().unwrap_or_else(|| {
            panic!(
                "survivor {:?} did not finish the collective sequence: {:?}",
                proc.endpoint, proc.outcome
            )
        });
        assert_eq!(
            acc, expect,
            "survivor {:?} computed a wrong allreduce series",
            proc.endpoint
        );
        finished += 1;
    }
    assert_eq!(finished, 2 * ranks - 1, "every survivor finished");
    // The substitution path was actually exercised: acks flowed and the crash
    // happened while collective traffic (tags above the collective base) was
    // in flight.
    assert!(report.stats.ack_msgs() > 0);
}

#[test]
fn double_crash_in_different_ranks_is_survived() {
    // One replica of each rank fails (different replica sets); the remaining
    // replicas substitute for both.
    let rounds = 4;
    let report = replicated_job(2, ReplicationConfig::dual())
        .network(fast())
        .crash(EndpointId(3), CrashSchedule::AfterSend { nth: 1 })
        .crash(EndpointId(0), CrashSchedule::AfterSend { nth: 2 })
        .run(move |p| figure3_pattern(p, rounds));
    let mut crashed = report.crashed();
    crashed.sort();
    assert_eq!(crashed, vec![EndpointId(0), EndpointId(3)]);
    // The two survivors (endpoints 1 and 2) finish with full data.
    for (_, _, (received, _)) in survivor_results(&report) {
        assert_eq!(received, rounds);
    }
}

#[test]
fn degree_three_survives_two_sequential_crashes_of_the_same_rank() {
    // Replica-map scenario: at degree 3 a rank tolerates losing *two* of
    // its replicas, one after the other, as long as one copy survives.
    // Physical layout (ranks=2, degree=3): endpoints 0,1 are
    // replica 0 of ranks 0,1; endpoints 2,3 replica 1; endpoints 4,5
    // replica 2. Replica 1 of rank 1 (endpoint 3) dies first, replica 2
    // (endpoint 5) dies later — the election must pick a substitute twice
    // for the same rank, and the last copy (endpoint 1) carries the rank to
    // completion with results bit-identical to a fault-free reference.
    let ranks = 2;
    let iterations = 6u64;
    let reference = replicated_job(ranks, ReplicationConfig::with_degree(3))
        .network(fast())
        .run(move |p| workloads::campaign::collective_app(p, iterations));
    assert!(reference.all_finished());
    let expect_bits: Vec<u64> = reference
        .processes
        .iter()
        .map(|p| {
            p.outcome
                .result()
                .expect("fault-free run finishes")
                .to_bits()
        })
        .collect();
    assert_eq!(
        expect_bits[0],
        workloads::campaign::collective_checksum(ranks, iterations).to_bits(),
        "reference must reproduce the closed-form checksum"
    );

    let report = replicated_job(ranks, ReplicationConfig::with_degree(3))
        .network(fast())
        .crash(EndpointId(3), CrashSchedule::AfterSend { nth: 1 })
        .crash(EndpointId(5), CrashSchedule::AfterSend { nth: 3 })
        .run(move |p| workloads::campaign::collective_app(p, iterations));
    let mut crashed = report.crashed();
    crashed.sort();
    assert_eq!(crashed, vec![EndpointId(3), EndpointId(5)]);
    let mut finished = 0;
    for (proc, expect) in report.processes.iter().zip(&expect_bits) {
        if crashed.contains(&proc.endpoint) {
            continue;
        }
        let acc = proc.outcome.result().copied().unwrap_or_else(|| {
            panic!(
                "survivor {:?} did not finish after the double substitution: {:?}",
                proc.endpoint, proc.outcome
            )
        });
        assert_eq!(
            acc.to_bits(),
            *expect,
            "survivor {:?} diverged from the fault-free reference",
            proc.endpoint
        );
        finished += 1;
    }
    assert_eq!(finished, 3 * ranks - 2, "every survivor finished");
    assert!(report.stats.ack_msgs() > 0);
}

#[test]
fn partial_layout_unreplicated_crash_aborts_promptly_with_rank_lost() {
    // Replica-map scenario: under partial replication a crash of a
    // *singleton* rank is unrecoverable by construction. It must surface as
    // a prompt typed `RankLost` abort naming the rank — never as partial
    // results and never as a burnt receive timeout. Layout (ranks=2,
    // replicated={0}): endpoints 0,1 are the first copies of ranks
    // 0,1; endpoint 2 is rank 0's second copy; rank 1 is a singleton.
    let started = std::time::Instant::now();
    let report = partial_replicated_job(2, &[0], ReplicationConfig::dual())
        .expect("valid partial layout")
        .network(fast())
        .crash(EndpointId(1), CrashSchedule::AfterSend { nth: 1 })
        .run(move |p| figure3_pattern(p, 6));
    assert!(
        started.elapsed() < Duration::from_secs(60),
        "singleton loss took {:?} to surface: the job hung instead of failing",
        started.elapsed()
    );
    assert_eq!(report.crashed(), vec![EndpointId(1)]);
    assert!(!report.all_finished());
    let clear_errors = report
        .processes
        .iter()
        .filter(|p| !p.outcome.is_crashed())
        .filter(|p| {
            matches!(&p.outcome,
                ProcessOutcome::Panicked(msg) if msg.contains("rank 1") && msg.contains("replicas"))
        })
        .count();
    assert!(
        clear_errors >= 1,
        "no survivor reported the lost singleton rank: {:?}",
        report
            .processes
            .iter()
            .map(|p| (p.endpoint, format!("{:?}", p.outcome)))
            .collect::<Vec<_>>()
    );
}

#[test]
fn degree_three_sdc_flip_is_outvoted_and_counted_as_corrected() {
    // Replica-map scenario: at degree 3 the redMPI-style hash comparison
    // holds three votes per message, so a single flipped copy is not just
    // *detected* (a two-replica tie) but *outvoted* — the campaign counts it
    // in `sdc_corrected`, one correction per injected flip.
    let config = CampaignConfig {
        ranks: 2,
        degree: 3,
        dist: FaultDistribution::SoftErrors {
            flips: 1,
            max_send: 4,
            payload_bits: 64,
        },
    };
    let outcomes = workloads::campaign::run_campaign(config, 11, 4, 4, None);
    let mut injected_total = 0;
    for o in &outcomes {
        let (seed, injected) = (o.record.spec.seed, o.record.sdc_flips_injected);
        assert!(o.survived, "seed {seed}: SDC must never kill the job");
        assert!(o.violation.is_none(), "seed {seed}: {:?}", o.violation);
        assert_eq!(
            o.sdc_detected, injected,
            "seed {seed}: every injected flip must be detected"
        );
        assert_eq!(
            o.sdc_corrected, injected,
            "seed {seed}: every detected flip must be outvoted at degree 3"
        );
        injected_total += injected;
    }
    assert!(
        injected_total >= 1,
        "across the sampled seeds at least one flip must land on a real send"
    );
}

#[test]
fn sampled_mid_collective_crashes_are_survived_at_any_phase() {
    // Campaign scenario: the `mid-collective` distribution samples a crash at
    // a *randomized* phase of the sendrecv/allreduce sequence (a random
    // endpoint, a random 1..=8th application send). Whatever phase the seed
    // lands on, the survivors must finish with the closed-form checksum —
    // compiled into the job exactly the way the campaign driver does it, one
    // `JobBuilder::crash` call per sampled crash.
    let ranks = 4;
    let iterations = 6u64;
    let config = CampaignConfig {
        ranks,
        degree: 2,
        dist: FaultDistribution::MidCollective { max_phase: 8 },
    };
    let expect = workloads::campaign::collective_checksum(ranks, iterations);
    let mut fired = 0usize;
    for seed in 40..46 {
        let mut builder = replicated_job(ranks, ReplicationConfig::dual()).network(fast());
        for c in case_spec(config, seed, iterations, None).crashes {
            builder = builder.crash(EndpointId(c.endpoint), c.schedule);
        }
        let report = builder.run(move |p| workloads::campaign::collective_app(p, iterations));
        fired += report.crashed().len();
        for (app_rank, endpoint, acc) in survivor_results(&report) {
            assert_eq!(
                acc, expect,
                "seed {seed}: survivor rank {app_rank} ({endpoint:?}) computed a wrong series"
            );
        }
    }
    assert!(
        fired >= 1,
        "across the sampled seeds at least one crash phase must land in-run"
    );
}

#[test]
fn sampled_correlated_pair_loss_surfaces_rank_lost_promptly() {
    // Campaign scenario: the `correlated-pair` distribution models a node
    // loss taking out *both* replicas of one rank — unrecoverable by
    // construction. Whatever rank the seed picks, some survivor must raise
    // `MpiError::RankLost` naming it, promptly (failure path, not a burnt
    // receive timeout).
    let ranks = 2;
    let config = CampaignConfig {
        ranks,
        degree: 2,
        dist: FaultDistribution::CorrelatedPairLoss {
            mean_sends: 2,
            horizon_sends: 4,
        },
    };
    let crashes: Vec<CrashFault> = case_spec(config, 3, 8, None).crashes;
    assert_eq!(crashes.len(), 2, "both replicas of one rank are scheduled");
    let lost_rank = crashes[0].endpoint % ranks;
    assert_eq!(crashes[1].endpoint % ranks, lost_rank, "same rank, twice");

    let started = std::time::Instant::now();
    let mut builder = replicated_job(ranks, ReplicationConfig::dual()).network(fast());
    for c in &crashes {
        builder = builder.crash(EndpointId(c.endpoint), c.schedule);
    }
    let report = builder.run(move |p| figure3_pattern(p, 8));
    assert!(
        started.elapsed() < Duration::from_secs(60),
        "correlated pair loss took {:?} to surface",
        started.elapsed()
    );
    assert_eq!(report.crashed().len(), 2);
    let needle = format!("rank {lost_rank}");
    let clear_errors = report
        .processes
        .iter()
        .filter(|p| !p.outcome.is_crashed())
        .filter(|p| {
            matches!(&p.outcome,
                ProcessOutcome::Panicked(msg) if msg.contains(&needle) && msg.contains("replicas"))
        })
        .count();
    assert!(
        clear_errors >= 1,
        "no survivor reported the lost rank {lost_rank}: {:?}",
        report
            .processes
            .iter()
            .map(|p| (p.endpoint, format!("{:?}", p.outcome)))
            .collect::<Vec<_>>()
    );
}
