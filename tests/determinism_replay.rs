//! Deterministic single-worker replay (ROADMAP "Scheduler next steps" (a)).
//!
//! With `workers(1)` the scheduler holds a single run permit, so every
//! dispatch decision — including the spin-yield requeue path that used to be
//! able to reorder under host-scheduling jitter — is a pure function of the
//! virtual-time-ordered ready queues. Two identical runs must therefore
//! produce *identical* `TraceEvent` streams: same events, same global
//! interleaving, same virtual timestamps. This is the debugging mode the
//! ROADMAP asked for: a schedule observed once can be re-observed exactly.

use sdr_mpi::sdr_core::{replicated_job, ReplicationConfig};
use sdr_mpi::sim_net::trace::TraceEvent;
use sdr_mpi::sim_net::LogGpModel;
use sdr_mpi::workloads::nas::{run_kernel, NasConfig, NasKernel};

/// One traced, replicated CG run in single-permit replay mode. CG's pattern
/// mixes row/column exchanges with reductions, and the SDR ack waits drive
/// the racy-yield path that was the known reordering risk.
fn traced_replay_run() -> (Vec<TraceEvent>, Vec<u64>) {
    let cfg = NasConfig::test_size();
    let report = replicated_job(4, ReplicationConfig::dual())
        .network(LogGpModel::fast_test_model())
        .workers(1)
        .trace(true)
        .run(move |p| run_kernel(NasKernel::Cg, p, &cfg));
    assert!(report.all_finished());
    assert_eq!(report.workers, 1, "explicit workers(1) must not be clamped");
    assert!(report.peak_concurrency <= 1);
    let finish_times = report
        .processes
        .iter()
        .map(|p| p.finish_time.as_nanos())
        .collect();
    (report.trace.events(), finish_times)
}

/// One traced, replicated single-permit run of the campaign's
/// collective-heavy workload with a seeded fault plan compiled in.
fn traced_faulted_run(seed: u64) -> (Vec<TraceEvent>, Vec<u64>) {
    use sdr_mpi::sim_net::campaign::{sample_plan, CampaignConfig, FaultDistribution};
    let ranks = 4;
    let iterations = 6u64;
    let config = CampaignConfig {
        ranks,
        degree: 2,
        dist: FaultDistribution::MidCollective { max_phase: 6 },
    };
    let plan = sample_plan(config, seed);
    let mut builder = replicated_job(ranks, ReplicationConfig::dual())
        .network(LogGpModel::fast_test_model())
        .workers(1)
        .trace(true);
    for (endpoint, schedule) in plan.crashes() {
        builder = builder.crash(endpoint, schedule);
    }
    let report = builder.run(move |p| sdr_mpi::workloads::campaign::collective_app(p, iterations));
    assert!(report.peak_concurrency <= 1);
    let finish_times = report
        .processes
        .iter()
        .map(|p| p.finish_time.as_nanos())
        .collect();
    (report.trace.events(), finish_times)
}

#[test]
fn faulted_campaign_case_replays_identical_trace_streams() {
    // The shrink-to-seed oracle rests on this: a campaign case — fault
    // injection included — replayed under `workers(1)` must reproduce the
    // exact `TraceEvent` stream, crash timing and all. Without it, binary
    // search over injected events could chase schedules that never recur.
    let seed = 41;
    let (events_a, times_a) = traced_faulted_run(seed);
    let (events_b, times_b) = traced_faulted_run(seed);
    assert!(
        !events_a.is_empty(),
        "the traced faulted run must record events"
    );
    assert_eq!(
        events_a, events_b,
        "single-worker replay of an injected-fault run diverged"
    );
    assert_eq!(times_a, times_b, "per-process finish times must replay");
}

#[test]
fn lossy_campaign_case_replays_identical_trace_streams() {
    // The netfault layer must not break replay: drop/duplicate/delay
    // verdicts are pure functions of the per-link frame counters, so under
    // `--workers 1` the same frames get the same verdicts, and the full
    // `TraceEvent` stream — retransmissions, suppressed duplicates and all —
    // is bit-identical across runs, although the retransmission-timeout
    // path interacts with carrier scheduling.
    use sdr_mpi::sim_net::campaign::{CampaignConfig, FaultDistribution};
    use sdr_mpi::workloads::campaign::replay_is_deterministic;
    let config = CampaignConfig {
        ranks: 4,
        degree: 2,
        dist: FaultDistribution::LossyLinks {
            max_drop_per_64k: 3277,
            max_dup_per_64k: 3277,
            max_delay_per_64k: 3277,
        },
    };
    for seed in [2, 5] {
        assert!(
            replay_is_deterministic(config, seed, 6),
            "lossy replay diverged (seed {seed})"
        );
    }
}

#[test]
fn faulted_degree_three_case_replays_identically() {
    // Replica-map acceptance: a degree-3 campaign case with a majority-loss
    // crash plan (two of three replicas of one rank die) must replay a
    // bit-identical `TraceEvent` stream under `--workers 1` — the
    // fork-election path adds no scheduling nondeterminism.
    use sdr_mpi::sim_net::campaign::{sample_plan, CampaignConfig, FaultDistribution};
    use sdr_mpi::workloads::campaign::replay_is_deterministic;
    let config = CampaignConfig {
        ranks: 2,
        degree: 3,
        dist: FaultDistribution::MajorityLoss {
            mean_sends: 3,
            horizon_sends: 4,
        },
    };
    let seed = 23;
    assert_eq!(
        sample_plan(config, seed).crashes().count(),
        2,
        "the majority-loss plan must schedule two same-rank crashes"
    );
    assert!(
        replay_is_deterministic(config, seed, 6),
        "degree-3 faulted replay diverged (seed {seed})"
    );
}

#[test]
fn two_single_worker_runs_replay_identical_trace_streams() {
    let (events_a, times_a) = traced_replay_run();
    let (events_b, times_b) = traced_replay_run();
    assert!(!events_a.is_empty(), "the traced run must record events");
    assert_eq!(
        events_a.len(),
        events_b.len(),
        "replayed runs must record the same number of events"
    );
    // Full-stream equality: kinds, peers, tags, payload digests, *and* the
    // global recording order and virtual timestamps. This is strictly
    // stronger than the send-determinism check (which compares per-process
    // send sequences only) — it pins down the scheduler itself.
    assert_eq!(
        events_a, events_b,
        "single-worker replay diverged between two identical runs"
    );
    assert_eq!(times_a, times_b, "per-process finish times must replay");
}
