//! Per-job isolation of the service mode (DESIGN.md §6): a job's
//! deterministic report — outcomes, checksums, virtual times, protocol and
//! fault counters, stack peak, trace digest — must be bit-identical whether
//! the job runs alone or next to arbitrary concurrent neighbours, because
//! every job gets its own fabric and the only shared state (the
//! worker-thread and coroutine-stack pools) may only influence host-side
//! counters.

mod common;

use common::with_deadline;
use workloads::serve::{
    check_isolation, mixed_queue, run_job, JobSpec, JobStatus, ServeConfig, ServeEvent, Submission,
};

/// The specs as queue-file lines, for the deadline guard's hang report.
fn queue_lines(specs: &[JobSpec]) -> String {
    let lines: Vec<String> = specs.iter().map(|s| s.to_json().encode()).collect();
    lines.join("\n")
}

/// The tentpole isolation stress: at least 8 jobs with disjoint seeds and
/// fault configurations — clean NAS kernels, a survivable crash, a
/// guaranteed `RankLost` abort, lossy links, delayed acks, a native
/// baseline — all in flight at once. Every job's
/// concurrent deterministic report must match its solo reference exactly.
#[test]
fn eight_concurrent_mixed_jobs_match_their_solo_runs() {
    with_deadline(
        "eight_concurrent_mixed_jobs_match_their_solo_runs",
        |running| {
            let specs = mixed_queue(8, 40);
            running.note(queue_lines(&specs));
            assert_eq!(specs.len(), 8);
            // The queue really is mixed: crashing, lossy and fault-free jobs with
            // pairwise-distinct seeds.
            assert!(specs.iter().any(|s| !s.crashes.is_empty()));
            assert!(specs.iter().any(|s| s.net_faults.is_some()));
            assert!(specs
                .iter()
                .any(|s| s.crashes.is_empty() && s.net_faults.is_none()));
            let mut seeds: Vec<u64> = specs.iter().map(|s| s.seed).collect();
            seeds.sort_unstable();
            seeds.dedup();
            assert_eq!(seeds.len(), specs.len(), "seeds must be disjoint");

            let (violations, summary) = check_isolation(&specs, ServeConfig { max_concurrent: 8 });
            for v in &violations {
                eprintln!(
                    "isolation violation in {}:\n  solo:       {}\n  concurrent: {}",
                    v.id, v.solo, v.concurrent
                );
            }
            assert!(violations.is_empty(), "{} jobs diverged", violations.len());
            assert_eq!(summary.completed, specs.len());
            assert_eq!(summary.failed, 0, "no job may deadlock or fail");
            assert!(summary.aborted >= 1, "the planted RankLost job must abort");
        },
    )
}

/// The `RankLost`-aborting job specifically: it aborts by plan, and every
/// neighbour that shared the server with it still reproduces its solo
/// report — an aborting job never perturbs the jobs around it.
#[test]
fn rank_lost_abort_does_not_perturb_neighbours() {
    with_deadline("rank_lost_abort_does_not_perturb_neighbours", |running| {
        let specs = mixed_queue(6, 40);
        running.note(queue_lines(&specs));
        let abort_spec = &specs[2]; // slot 2 is the correlated-pair-loss job
        assert!(!abort_spec.crashes.is_empty());
        let solo_abort = run_job(abort_spec, 0).expect("validated spec");
        assert_eq!(solo_abort.status, JobStatus::Aborted);

        let neighbours: Vec<JobSpec> = specs
            .iter()
            .filter(|s| s.id != abort_spec.id)
            .cloned()
            .collect();
        let mut solo = std::collections::BTreeMap::new();
        for (seq, spec) in neighbours.iter().enumerate() {
            solo.insert(
                spec.id.clone(),
                run_job(spec, seq)
                    .expect("validated spec")
                    .deterministic_json(),
            );
        }
        // Everything in flight together, aborting job included.
        let submissions = specs.iter().cloned().map(Submission::Spec).collect();
        let mut aborted_seen = false;
        let summary =
            workloads::serve::serve(submissions, ServeConfig { max_concurrent: 6 }, |event| {
                if let ServeEvent::Completed(record) = event {
                    if record.id == abort_spec.id {
                        assert_eq!(record.status, JobStatus::Aborted);
                        aborted_seen = true;
                    } else {
                        assert_eq!(
                            record.deterministic_json(),
                            solo[&record.id],
                            "neighbour {} diverged next to an aborting job",
                            record.id
                        );
                    }
                }
            });
        assert!(aborted_seen);
        assert_eq!(summary.completed, specs.len());
    })
}

/// Determinism under concurrency: a `workers: 1` job submitted through the
/// server yields a `TraceEvent` stream — timestamps included — bit-identical
/// to the same spec run standalone through `JobBuilder`, even while
/// unrelated jobs run beside it.
#[test]
fn served_workers1_trace_is_bit_identical_to_standalone() {
    with_deadline(
        "served_workers1_trace_is_bit_identical_to_standalone",
        |running| {
            let line = r#"{"id":"probe","workload":"cg","ranks":2,"class":"test","workers":1,"seed":7,"trace":true}"#;
            let spec = JobSpec::parse_line(line).expect("valid spec");
            running.note(line.to_string());

            // Standalone reference: the raw JobBuilder path, no server involved.
            let app = spec.app();
            let report = spec.compile().expect("valid spec").run(move |p| (app)(p));
            let standalone = report.trace.events();
            assert!(!standalone.is_empty());

            // The same spec through the server, with noisy neighbours in flight.
            let mut queue: Vec<Submission> = mixed_queue(4, 1000 + 40)
                .into_iter()
                .map(Submission::Spec)
                .collect();
            queue.insert(2, Submission::Spec(spec.clone()));
            let mut served_trace = None;
            workloads::serve::serve(queue, ServeConfig { max_concurrent: 5 }, |event| {
                if let ServeEvent::Completed(record) = event {
                    if record.id == spec.id {
                        served_trace = record.trace.clone();
                    }
                }
            });
            let served = served_trace.expect("the probe job must complete with a trace");
            assert_eq!(
                served, standalone,
                "served trace diverged from the standalone run"
            );
        },
    )
}

/// One launch path: a spec labelled `"carrier":"thread"` runs on coroutine
/// stacks hosted by the worker pool, exactly like its `"coroutine"` twin.
/// The two 64-rank dual jobs must agree on every simulated result, and the
/// thread-labelled one must lease one stack per process (128) and run on
/// `workers` OS threads — not on one OS thread per process.
#[test]
fn thread_labelled_spec_runs_on_coroutine_stacks_with_identical_results() {
    with_deadline(
        "thread_labelled_spec_runs_on_coroutine_stacks_with_identical_results",
        |running| {
            let records: Vec<_> = ["thread", "coroutine"]
                .iter()
                .map(|carrier| {
                    let line = format!(
                        "{{\"id\":\"label-{carrier}\",\"workload\":\"cg\",\"ranks\":64,\
                         \"class\":\"test\",\"layout\":\"replicated\",\"degree\":2,\
                         \"carrier\":\"{carrier}\",\"workers\":1,\"seed\":5,\"trace\":true}}"
                    );
                    running.note(line.clone());
                    let spec = JobSpec::parse_line(&line).expect("valid spec");
                    run_job(&spec, 0).expect("validated spec")
                })
                .collect();
            let (thread, coro) = (&records[0], &records[1]);
            assert_eq!(thread.status, JobStatus::Finished);
            assert_eq!(
                (thread.elapsed_ns, thread.total_msgs, thread.trace_digest),
                (coro.elapsed_ns, coro.total_msgs, coro.trace_digest)
            );
            assert!(thread.trace_len > 0);
            let image = |r: &workloads::serve::JobRecord| {
                r.processes
                    .iter()
                    .map(|p| (p.finish_ns, p.result_bits))
                    .collect::<Vec<_>>()
            };
            assert_eq!(image(thread), image(coro));
            assert_eq!(thread.stack_leases, 128, "one coroutine stack per process");
            assert_eq!(
                (thread.host.threads_spawned + thread.host.threads_reused) as usize,
                thread.workers,
                "the worker pool hosts the whole job"
            );
        },
    )
}

/// Regression pin for the global-pool bleed the isolation suite exposed:
/// `stack_bytes_peak` is part of the deterministic report, so a coroutine
/// job's peak must not inflate when other coroutine jobs hold stacks from
/// the same process-global pool at the same time. (The unit-level pin lives
/// in `sim_net::carrier::coro`; this is the job-level contract.)
#[test]
fn stack_peak_is_per_job_even_under_heavy_concurrency() {
    with_deadline(
        "stack_peak_is_per_job_even_under_heavy_concurrency",
        |running| {
            let mut specs = Vec::new();
            for i in 0..6 {
                let line = format!(
                    "{{\"id\":\"stk-{i}\",\"workload\":\"collective\",\"iterations\":5,\
             \"ranks\":4,\"workers\":1,\"carrier\":\"coroutine\",\"seed\":{i}}}"
                );
                specs.push(JobSpec::parse_line(&line).expect("valid spec"));
            }
            running.note(queue_lines(&specs));
            let solo_peaks: Vec<u64> = specs
                .iter()
                .map(|s| run_job(s, 0).expect("validated spec").stack_bytes_peak)
                .collect();
            assert!(solo_peaks.iter().all(|&p| p > 0));
            let submissions = specs.iter().cloned().map(Submission::Spec).collect();
            workloads::serve::serve(submissions, ServeConfig { max_concurrent: 6 }, |event| {
                if let ServeEvent::Completed(record) = event {
                    let idx: usize = record.id["stk-".len()..].parse().unwrap();
                    assert_eq!(
                        record.stack_bytes_peak, solo_peaks[idx],
                        "{}: stack peak bled in from a concurrent job",
                        record.id
                    );
                }
            });
        },
    )
}

/// The same contract for fault-campaign cases, which run as specs: a crash
/// case, a partial-coverage crash case and a lossy-transport case, each
/// sampled by `campaign::case_spec` and run through the serve engine, must
/// match a `JobBuilder` assembled by hand from the spec's fields — layout,
/// crashes, flips and transport policy installed one call at a time,
/// without `JobSpec::compile` — in trace digest, per-process result bits and
/// virtual elapsed time, at `workers: 1`.
#[test]
fn campaign_cases_as_specs_match_hand_built_jobs() {
    use sdr_core::{partial_replicated_job, replicated_job, ReplicationConfig};
    use sim_mpi::SdcFlip;
    use sim_net::EndpointId;
    use workloads::campaign::{case_spec, collective_app, CampaignConfig, FaultDistribution};
    use workloads::nas::{run_kernel, NasConfig};
    use workloads::serve::{trace_digest, WorkloadKind};

    let iterations = 6;
    let cases = [
        (
            CampaignConfig {
                ranks: 4,
                degree: 2,
                dist: FaultDistribution::MidCollective { max_phase: 8 },
            },
            101,
        ),
        (
            CampaignConfig {
                ranks: 4,
                degree: 2,
                dist: FaultDistribution::UnreplicatedBias {
                    replicated_mask: 0b0101,
                    horizon_sends: 6,
                },
            },
            41,
        ),
        (
            CampaignConfig {
                ranks: 4,
                degree: 2,
                dist: FaultDistribution::LossyLinks {
                    max_drop_per_64k: 3277,
                    max_dup_per_64k: 3277,
                    max_delay_per_64k: 3277,
                },
            },
            14, // seed % 6 == 2: the FT kernel
        ),
    ];
    with_deadline(
        "campaign_cases_as_specs_match_hand_built_jobs",
        move |running| {
            for (config, seed) in cases {
                let spec = JobSpec {
                    trace: true,
                    ..case_spec(config, seed, iterations, Some(1))
                };
                running.note(spec.to_json().encode());
                let record = run_job(&spec, 0).expect("a campaign case compiles");

                let mut builder = match config.dist {
                    FaultDistribution::UnreplicatedBias { .. } => {
                        partial_replicated_job(4, &[0, 2], ReplicationConfig::dual())
                            .expect("a valid partial layout")
                    }
                    _ => replicated_job(4, ReplicationConfig::with_degree(config.degree)),
                }
                .network(common::fast())
                .workers(1)
                .trace(true);
                assert!(
                    !spec.crashes.is_empty() || !spec.sdc.is_empty() || spec.net_faults.is_some(),
                    "{}: the case must inject",
                    spec.id
                );
                for c in &spec.crashes {
                    builder = builder.crash(EndpointId(c.endpoint), c.schedule);
                }
                for f in &spec.sdc {
                    let flip = SdcFlip {
                        nth_send: f.nth_send,
                        bit: f.bit,
                    };
                    builder = builder.sdc_flip(EndpointId(f.endpoint), flip);
                }
                if let Some(net) = spec.net_faults {
                    builder = builder.net_faults(net.config, net.seed);
                }
                let report = match spec.workload {
                    WorkloadKind::Nas(kernel) => {
                        let cfg = NasConfig::class_s();
                        builder.run(move |p| run_kernel(kernel, p, &cfg))
                    }
                    _ => builder.run(move |p| collective_app(p, iterations)),
                };

                let id = &spec.id;
                assert!(record.trace_len > 0, "{id}: the run must be traced");
                assert_eq!(
                    record.trace_digest,
                    trace_digest(&report.trace.events()),
                    "{id}: trace digests differ"
                );
                assert_eq!(
                    record.elapsed_ns,
                    report.elapsed.as_nanos(),
                    "{id}: virtual elapsed times differ"
                );
                let served: Vec<_> = record.processes.iter().map(|p| p.result_bits).collect();
                let hand_built: Vec<_> = report
                    .processes
                    .iter()
                    .map(|p| p.outcome.result().map(|v| v.to_bits()))
                    .collect();
                assert_eq!(served, hand_built, "{id}: per-process results differ");
            }
        },
    )
}
