//! The Monte Carlo fault campaign end to end: purity of the seeded case
//! sampling (property-tested), the per-distribution expectations over real
//! runs, and the shrink-to-seed path that reduces a violating case to a
//! minimal replayable spec line.

mod common;

use common::{with_deadline, Running};
use proptest::prelude::*;
use sim_net::CrashSchedule;
use workloads::campaign::{
    case_spec, run_case, shrink, summarize, CampaignConfig, CaseOutcome, FaultDistribution,
};
use workloads::serve::{run_job, CrashFault, JobSpec};

/// `workloads::campaign::run_campaign` at the default workers, one case at a
/// time through the one case runner, telling the deadline guard which spec
/// line is about to run — so a hung case fails its test with the line that
/// replays it.
fn run_campaign(
    running: &Running,
    config: CampaignConfig,
    base_seed: u64,
    cases: u64,
    iterations: u64,
) -> Vec<CaseOutcome> {
    let workers = None;
    (base_seed..base_seed + cases)
        .map(|seed| {
            let spec = case_spec(config, seed, iterations, workers);
            running.note(spec.to_json().encode());
            run_case(config, spec)
        })
        .collect()
}

fn soft_cfg(ranks: usize, flips: usize) -> CampaignConfig {
    CampaignConfig {
        ranks,
        degree: 2,
        dist: FaultDistribution::SoftErrors {
            flips,
            max_send: 8,
            payload_bits: 4096,
        },
    }
}

proptest! {
    /// Case sampling is a pure function of `(config, seed)`: resampling gives
    /// an equal spec, and a different seed samples different faults.
    #[test]
    fn plan_sampling_is_pure_in_config_and_seed(
        seed in any::<u64>(),
        ranks in 2usize..6,
        flips in 1usize..4,
    ) {
        let config = soft_cfg(ranks, flips);
        let a = case_spec(config, seed, 6, None);
        let b = case_spec(config, seed, 6, None);
        prop_assert_eq!(&a, &b, "same (config, seed) must replay identically");
        let c = case_spec(config, seed.wrapping_add(1), 6, None);
        prop_assert_ne!(&a.sdc, &c.sdc, "the seed decides the sampled flips");
    }

    /// Every sampled case is well-formed for its configuration: fault
    /// endpoints exist, crash schedules and flip indices are in range.
    #[test]
    fn sampled_plans_are_well_formed(seed in any::<u64>(), dist_pick in 0usize..6) {
        let ranks = 4;
        let dist = [
            FaultDistribution::ExponentialMtbf { mean_sends: 8, horizon_sends: 6, max_crashes: 2 },
            FaultDistribution::MidCollective { max_phase: 8 },
            FaultDistribution::CorrelatedPairLoss { mean_sends: 3, horizon_sends: 6 },
            FaultDistribution::SoftErrors { flips: 2, max_send: 6, payload_bits: 8192 },
            FaultDistribution::LossyLinks {
                max_drop_per_64k: 3277, max_dup_per_64k: 3277, max_delay_per_64k: 3277,
            },
            FaultDistribution::DelayedAcks { max_delay_per_64k: 32_768, max_delay_ns: 400_000 },
        ][dist_pick];
        let config = CampaignConfig { ranks, degree: 2, dist };
        let endpoints = config.ranks * config.degree;
        let spec = case_spec(config, seed, 6, None);
        for crash in &spec.crashes {
            prop_assert!(crash.endpoint < endpoints);
            match crash.schedule {
                CrashSchedule::AfterSend { nth } | CrashSchedule::BeforeSend { nth } => {
                    prop_assert!(nth >= 1);
                }
                _ => {}
            }
        }
        for flip in &spec.sdc {
            prop_assert!(flip.endpoint < endpoints);
            prop_assert!((1..=6).contains(&flip.nth_send));
            prop_assert!(flip.bit < 8192);
        }
        if let Some(net) = spec.net_faults.map(|n| n.config) {
            // A sampled policy is always installable: within the 64k
            // probability budget, and never an all-zero no-op.
            net.validate();
            prop_assert!(net.drop_per_64k + net.dup_per_64k + net.delay_per_64k >= 1);
            match dist {
                FaultDistribution::DelayedAcks { .. } => {
                    prop_assert!(net.ack_only);
                    prop_assert_eq!(net.drop_per_64k, 0);
                    prop_assert_eq!(net.dup_per_64k, 0);
                    prop_assert!(net.delay_ns >= 60_000);
                }
                _ => prop_assert!(!net.ack_only),
            }
        }
    }
}

#[test]
fn exponential_mtbf_campaign_is_fully_survived() {
    with_deadline("exponential_mtbf_campaign_is_fully_survived", |running| {
        // Single-replica losses drawn from the exponential MTBF model: the
        // substitution protocol must carry every sampled case.
        let config = CampaignConfig {
            ranks: 4,
            degree: 2,
            dist: FaultDistribution::ExponentialMtbf {
                mean_sends: 8,
                horizon_sends: 6,
                max_crashes: 2,
            },
        };
        let outcomes = run_campaign(running, config, 1, 10, 6);
        let summary = summarize(config, &outcomes);
        assert!(
            summary.violations.is_empty(),
            "violations: {:?}",
            summary.violations
        );
        assert_eq!(summary.survival_rate(), 1.0);
        assert!(
            summary.crashes_injected >= 1,
            "the seed range must include at least one case whose crash fires"
        );
    })
}

#[test]
fn correlated_pair_campaign_always_aborts_with_rank_lost() {
    with_deadline(
        "correlated_pair_campaign_always_aborts_with_rank_lost",
        |running| {
            let config = CampaignConfig {
                ranks: 2,
                degree: 2,
                dist: FaultDistribution::CorrelatedPairLoss {
                    mean_sends: 3,
                    horizon_sends: 4,
                },
            };
            let outcomes = run_campaign(running, config, 20, 6, 6);
            let summary = summarize(config, &outcomes);
            assert!(
                summary.violations.is_empty(),
                "violations: {:?}",
                summary.violations
            );
            assert_eq!(summary.abort_rate(), 1.0);
            assert_eq!(summary.survival_rate(), 0.0);
        },
    )
}

#[test]
fn sdc_campaign_detects_every_injected_flip() {
    with_deadline("sdc_campaign_detects_every_injected_flip", |running| {
        let config = soft_cfg(4, 2);
        let outcomes = run_campaign(running, config, 31, 6, 8);
        let summary = summarize(config, &outcomes);
        assert!(
            summary.violations.is_empty(),
            "violations: {:?}",
            summary.violations
        );
        assert_eq!(summary.sdc_injected, 12, "2 flips per case, all landing");
        assert_eq!(summary.sdc_detection_rate(), 1.0);
    })
}

#[test]
fn shrink_reduces_a_violating_plan_to_the_fatal_pair() {
    // Synthetic violation: a correlated pair loss of rank 1 (endpoints 1 and
    // 3 at 2 ranks × dual) behind a survivable single-replica noise crash
    // (endpoint 2, replica 1 of rank 0). The shrinker must strip the noise
    // and return exactly the two crashes that together kill the rank — and
    // dropping either one must make the job survivable again (local
    // minimality).
    let spec = JobSpec::parse_line(
        r#"{"id":"fatal-pair","workload":"collective","iterations":6,"ranks":2,
            "class":"s","layout":"replicated","degree":2,"seed":0,"crashes":[
            {"endpoint":2,"kind":"after-send","nth":2},
            {"endpoint":1,"kind":"after-send","nth":1},
            {"endpoint":3,"kind":"after-send","nth":1}]}"#,
    )
    .expect("a valid spec line");
    let shrunk = shrink(spec.clone()).expect("the full spec must violate survivability");
    let crash = |endpoint, nth| CrashFault {
        endpoint,
        schedule: CrashSchedule::AfterSend { nth },
    };
    let minimal = shrunk.spec;
    assert_eq!(minimal.crashes, vec![crash(1, 1), crash(3, 1)]);
    assert_eq!(
        minimal,
        JobSpec {
            workers: Some(1),
            crashes: minimal.crashes.clone(),
            ..spec
        },
        "only the fault items change, and the rerun is at one worker"
    );
    assert!(
        shrunk.probes >= 2,
        "shrinking must actually probe the oracle"
    );
    for kept in &minimal.crashes {
        let alone = JobSpec {
            crashes: vec![*kept],
            ..minimal.clone()
        };
        assert!(
            shrink(alone).is_none(),
            "dropping the other pair crash must make the job survivable: {kept:?}"
        );
    }
}

#[test]
fn shrink_violation_emits_a_replayable_spec_for_a_seeded_case() {
    // End-to-end shrink-to-seed: a seeded correlated-pair case violates
    // survivability; `shrink` reruns its sampled spec under the
    // deterministic single-worker scheduler, minimizes its faults, and
    // returns the minimal case as a spec line that `sdr_serve --queue`
    // replays.
    let config = CampaignConfig {
        ranks: 2,
        degree: 2,
        dist: FaultDistribution::CorrelatedPairLoss {
            mean_sends: 2,
            horizon_sends: 4,
        },
    };
    let seed = 3;
    let sampled = case_spec(config, seed, 6, None);
    let shrunk =
        shrink(sampled.clone()).expect("a correlated pair loss always violates survivability");
    assert_eq!(
        shrunk.spec.crashes.len(),
        2,
        "the minimal case is exactly the two pair crashes: {:?}",
        shrunk.spec.crashes
    );
    assert!(shrunk.probes >= 1);
    // The spec line is the job the oracle's last failing probe ran: the
    // seed, the two pair crashes and the deterministic single worker.
    let line = shrunk.spec.to_json().encode();
    let minimal_spec = JobSpec::parse_line(&line).expect("a valid spec line");
    assert_eq!(minimal_spec, shrunk.spec);
    assert_eq!(minimal_spec.seed, seed);
    assert!(minimal_spec.sdc.is_empty() && minimal_spec.net_faults.is_none());
    assert_eq!(minimal_spec.workers, Some(1));
    let replayed = run_job(&minimal_spec, 0).expect("validated spec");
    assert_eq!(replayed.status, workloads::serve::JobStatus::Aborted);
    // Sanity: the minimal crashes are a subsequence of the sampled ones.
    let mut cursor = sampled.crashes.iter();
    for c in &minimal_spec.crashes {
        assert!(
            cursor.any(|g| g == c),
            "minimal crash {c:?} not in sampled order in {:?}",
            sampled.crashes
        );
    }
}

#[test]
fn lossy_links_campaign_is_fully_masked_over_the_nas_kernels() {
    with_deadline(
        "lossy_links_campaign_is_fully_masked_over_the_nas_kernels",
        |running| {
            // The tentpole gate: drop/duplicate/delay rates up to ~5% per class,
            // rotated over the five NAS kernels plus the collective-heavy app. Every
            // case must be *masked* — bit-correct results, every duplicate
            // suppressed, every drop answered by a retransmission — with zero
            // protocol violations.
            let config = CampaignConfig {
                ranks: 4,
                degree: 2,
                dist: FaultDistribution::LossyLinks {
                    max_drop_per_64k: 3277,
                    max_dup_per_64k: 3277,
                    max_delay_per_64k: 3277,
                },
            };
            let outcomes = run_campaign(running, config, 1, 12, 6);
            let summary = summarize(config, &outcomes);
            assert!(
                summary.violations.is_empty(),
                "violations: {:?}",
                summary.violations
            );
            assert_eq!(summary.survival_rate(), 1.0);
            assert!(summary.net.msgs_dropped > 0, "{:?}", summary.net);
            assert!(summary.net.retransmits > 0, "{:?}", summary.net);
            assert_eq!(summary.net.dups_suppressed, summary.net.msgs_duplicated);
            let kernels: std::collections::BTreeSet<_> = outcomes
                .iter()
                .map(|o| o.record.spec.workload.name())
                .collect();
            assert!(
                ["bt", "cg", "ft", "mg", "sp"]
                    .iter()
                    .all(|k| kernels.contains(k)),
                "the seed range must cover all five NAS kernels: {kernels:?}"
            );
        },
    )
}

#[test]
fn delayed_acks_campaign_is_fully_masked() {
    with_deadline("delayed_acks_campaign_is_fully_masked", |running| {
        // Ack-only delays always outlast the retransmission base timeout, so
        // every case exercises spurious retransmissions whose duplicates the
        // receivers must suppress — without ever corrupting results.
        let config = CampaignConfig {
            ranks: 4,
            degree: 2,
            dist: FaultDistribution::DelayedAcks {
                max_delay_per_64k: 32_768,
                max_delay_ns: 400_000,
            },
        };
        let outcomes = run_campaign(running, config, 60, 8, 6);
        let summary = summarize(config, &outcomes);
        assert!(
            summary.violations.is_empty(),
            "violations: {:?}",
            summary.violations
        );
        assert_eq!(summary.survival_rate(), 1.0);
        assert!(summary.net.msgs_delayed > 0, "{:?}", summary.net);
        assert_eq!(summary.net.msgs_dropped, 0, "delayed-acks never drops");
        assert_eq!(summary.net.dups_suppressed, summary.net.msgs_duplicated);
    })
}

#[test]
fn shrink_reduces_a_lossy_violation_to_the_transport_fault() {
    // Synthetic unmaskable case: a total-loss link policy (every faultable
    // frame dropped) exhausts the retransmission-attempt cap, next to a
    // survivable single-replica noise crash. The shrinker must strip the
    // noise and return exactly the transport fault, and the emitted spec
    // line must carry it alone (the checked-in case lives in
    // tests/campaign_regressions.rs).
    let spec = JobSpec::parse_line(
        r#"{"id":"total-loss","workload":"collective","iterations":6,"ranks":2,
            "class":"s","layout":"replicated","degree":2,"seed":7,
            "crashes":[{"endpoint":2,"kind":"after-send","nth":2}],
            "net":{"drop_per_64k":65536,"dup_per_64k":0,"delay_per_64k":0,
                   "delay_ns":0,"ack_only":false,"seed":7}}"#,
    )
    .expect("a valid spec line");
    let shrunk = shrink(spec.clone()).expect("a total-loss policy must violate survivability");
    assert!(
        shrunk.spec.crashes.is_empty(),
        "the noise crash must be stripped"
    );
    let line = shrunk.spec.to_json().encode();
    let replay = JobSpec::parse_line(&line).expect("a valid spec line");
    let net = replay.net_faults.expect("the transport fault is kept");
    assert_eq!((net.config.drop_per_64k, net.seed), (65_536, 7));
    assert!(replay.crashes.is_empty(), "and the noise crash is not");
    assert!(
        shrink(JobSpec {
            net_faults: None,
            workers: Some(1),
            ..spec
        })
        .is_none(),
        "the noise crash alone must be survivable"
    );
}

#[test]
fn violating_cases_are_recorded_with_their_seed_for_replay() {
    with_deadline(
        "violating_cases_are_recorded_with_their_seed_for_replay",
        |running| {
            // The `(config, seed)` pair in every outcome is the replay handle: a
            // violation report must let a developer re-run the exact case. The
            // seed and the spec are read from the case's record.
            let config = CampaignConfig {
                ranks: 2,
                degree: 2,
                dist: FaultDistribution::CorrelatedPairLoss {
                    mean_sends: 3,
                    horizon_sends: 4,
                },
            };
            let outcomes = run_campaign(running, config, 50, 3, 6);
            for (i, outcome) in outcomes.iter().enumerate() {
                let spec = &outcome.record.spec;
                assert_eq!(spec.seed, 50 + i as u64);
                assert_eq!(
                    &case_spec(config, spec.seed, 6, None),
                    spec,
                    "the recorded (config, seed) must resample the identical case"
                );
                // The second handle: the case *is* a job spec, and its one-line
                // JSON survives the `sdr_serve --queue` wire format unchanged.
                let line = spec.to_json().encode();
                assert!(!line.contains('\n'));
                assert_eq!(JobSpec::parse_line(&line).as_ref(), Ok(spec));
                assert_eq!(spec.crashes.len(), 2, "both replicas of one rank");
            }
            // A violation report carries that line, so a failing CI artifact can be
            // pasted straight into a queue file.
            let mut flagged = outcomes[0].clone();
            flagged.violation = Some("planted for the test".to_string());
            let summary = summarize(config, &[flagged.clone()]);
            assert_eq!(summary.violations.len(), 1);
            let violation = &summary.violations[0];
            assert_eq!(
                (violation.seed, violation.detail.as_str()),
                (50, "planted for the test")
            );
            assert_eq!(
                JobSpec::parse_line(&violation.spec),
                Ok(flagged.record.spec)
            );
        },
    )
}

/// The replay handle reproduces the record, not just the spec: for every
/// crash and lossy distribution at `workers: 1`, the case's spec line,
/// re-parsed from the wire format and served through `run_job`, yields a
/// record whose deterministic image (status, per-process outcomes, results
/// and finish times, counters, trace digest) is byte-identical to the
/// record the campaign judged. A served SDC line runs under SDR-MPI, not the
/// redMPI baseline that judged the case, so it replays only the injection:
/// the check there is that the same flips land (`sdc_flips_injected`).
#[test]
fn every_case_record_is_reproduced_by_serving_its_spec_line() {
    with_deadline(
        "every_case_record_is_reproduced_by_serving_its_spec_line",
        |running| {
            let configs = [
                (
                    2,
                    FaultDistribution::ExponentialMtbf {
                        mean_sends: 8,
                        horizon_sends: 6,
                        max_crashes: 2,
                    },
                ),
                (2, FaultDistribution::MidCollective { max_phase: 8 }),
                (
                    2,
                    FaultDistribution::CorrelatedPairLoss {
                        mean_sends: 3,
                        horizon_sends: 6,
                    },
                ),
                (
                    3,
                    FaultDistribution::MajorityLoss {
                        mean_sends: 3,
                        horizon_sends: 6,
                    },
                ),
                (
                    2,
                    FaultDistribution::UnreplicatedBias {
                        replicated_mask: 0b0011,
                        horizon_sends: 6,
                    },
                ),
                (
                    2,
                    FaultDistribution::LossyLinks {
                        max_drop_per_64k: 3277,
                        max_dup_per_64k: 3277,
                        max_delay_per_64k: 3277,
                    },
                ),
                (
                    2,
                    FaultDistribution::DelayedAcks {
                        max_delay_per_64k: 32_768,
                        max_delay_ns: 400_000,
                    },
                ),
                (
                    2,
                    FaultDistribution::SoftErrors {
                        flips: 2,
                        max_send: 6,
                        payload_bits: 8192,
                    },
                ),
            ];
            for (degree, dist) in configs {
                let config = CampaignConfig {
                    ranks: 4,
                    degree,
                    dist,
                };
                for seed in 1..=4 {
                    let spec = case_spec(config, seed, 6, Some(1));
                    let line = spec.to_json().encode();
                    running.note(line.clone());
                    let record = run_case(config, spec).record;
                    assert_eq!(record.spec.to_json().encode(), line);
                    let served = JobSpec::parse_line(&line).expect("a valid spec line");
                    let replayed = run_job(&served, 0).expect("validated spec");
                    if matches!(dist, FaultDistribution::SoftErrors { .. }) {
                        assert!(record.sdc_flips_injected > 0, "{line}");
                        assert_eq!(
                            replayed.sdc_flips_injected, record.sdc_flips_injected,
                            "{line}: the served line must inject the same flips"
                        );
                    } else {
                        assert_eq!(
                            replayed.deterministic_json(),
                            record.deterministic_json(),
                            "{line}: the served line must reproduce the case's record"
                        );
                    }
                }
            }
        },
    )
}

#[test]
fn every_sampled_case_is_a_replayable_spec_line() {
    // Whatever the sampler draws — crashes, bit flips, transport policies
    // with seeds from the whole u64 range, partial layouts — the case's spec
    // must survive the `sdr_serve --queue` wire format unchanged, or the
    // replay handle in a violation report would not reproduce the case.
    let dists = [
        FaultDistribution::ExponentialMtbf {
            mean_sends: 8,
            horizon_sends: 6,
            max_crashes: 2,
        },
        FaultDistribution::CorrelatedPairLoss {
            mean_sends: 3,
            horizon_sends: 6,
        },
        FaultDistribution::MajorityLoss {
            mean_sends: 3,
            horizon_sends: 6,
        },
        FaultDistribution::UnreplicatedBias {
            replicated_mask: 0b0101,
            horizon_sends: 6,
        },
        FaultDistribution::SoftErrors {
            flips: 2,
            max_send: 6,
            payload_bits: 8192,
        },
        FaultDistribution::LossyLinks {
            max_drop_per_64k: 3277,
            max_dup_per_64k: 3277,
            max_delay_per_64k: 3277,
        },
        FaultDistribution::DelayedAcks {
            max_delay_per_64k: 32_768,
            max_delay_ns: 400_000,
        },
    ];
    let mut wide_seeds = 0;
    for dist in dists {
        let degree = match dist {
            FaultDistribution::MajorityLoss { .. } => 3,
            _ => 2,
        };
        let config = CampaignConfig {
            ranks: 4,
            degree,
            dist,
        };
        for seed in 0..12 {
            let spec = case_spec(config, seed, 6, None);
            let line = spec.to_json().encode();
            assert_eq!(
                JobSpec::parse_line(&line).as_ref(),
                Ok(&spec),
                "{} seed {seed}: {line}",
                dist.name()
            );
            wide_seeds += spec
                .net_faults
                .iter()
                .filter(|n| n.seed > i64::MAX as u64)
                .count();
        }
    }
    assert!(
        wide_seeds > 0,
        "the sample must include policy seeds above i64::MAX"
    );
}
