//! Fault-campaign execution: run [`FaultPlan`]s, judge each case's
//! [`JobRecord`] against its distribution's expectation, and shrink
//! violations to minimal regression cases.
//!
//! This is the execution half of the fault-campaign engine; the planning
//! half ([`sim_net::campaign`]) samples seeded plans. For every case
//! [`run_case`]:
//!
//! 1. takes a plan — sampled for `(config, seed)`
//!    ([`sim_net::campaign::sample_plan`]) or built by hand,
//! 2. turns it into a [`JobSpec`] ([`case_spec`]) — the same one-line job
//!    description `sdr_serve` accepts, so every case doubles as its own
//!    replay handle — and runs it through the serve engine's
//!    [`run_job`]: crashes compile to [`sim_mpi::JobBuilder::crash`]
//!    schedules (i.e. `FailureService::schedule` calls), soft errors to
//!    [`sim_mpi::JobBuilder::sdc_flip`] PML corruption hooks,
//! 3. judges the job's [`JobRecord`] — the record `sdr_serve` streams for
//!    the same spec line:
//!    * single-replica-loss distributions (`exp-mtbf`, `mid-collective`)
//!      must be **survived** — every non-crashed process finishes with the
//!      closed-form checksum;
//!    * `correlated-pair` loss must **abort promptly** with
//!      `MpiError::RankLost` naming the dead rank;
//!    * `sdc` flips must be **detected** by the redMPI cross-replica hash
//!      comparison, exactly once per injected flip.
//!
//! Lossy-transport distributions (`lossy-links`, `delayed-acks`) carry a
//! [`sim_mpi::JobBuilder::net_faults`] policy install in their spec: the
//! fabric drops/duplicates/delays frames per the sampled
//! [`sim_net::NetFaultConfig`], and the case must be **masked** — every
//! process finishes, the results are bit-identical to the record of a
//! fault-free twin of the same spec, every injected duplicate is suppressed
//! (`dups_suppressed == msgs_duplicated`), and any drop forces at least one
//! retransmission. Lossy cases rotate through the five NAS kernels plus the
//! collective-heavy app ([`lossy_workload`]), so the masking claim covers
//! halo exchanges, all-to-all transposes and pipelined sweeps, not just one
//! traffic shape.
//!
//! Any deviation is a *violation*; [`shrink`] replays the plan's fault list
//! under the deterministic single-worker scheduler, reduces it to a locally
//! minimal failing subset ([`sim_net::campaign::shrink_events`]) and names
//! the minimal plan as a spec line.

use crate::nas::NasKernel;
use crate::serve::{run_job, JobRecord, JobSpec, JobStatus, LayoutSpec, WorkloadKind};
use bytes::Bytes;
use repl_baselines::{RedMpiFactory, SdcReport};
use sim_mpi::{Process, ReduceOp};
use sim_net::campaign::{
    sample_plan, shrink_events, CampaignConfig, FaultDistribution, FaultPlan, PlannedFault,
};
use sim_net::{SimTime, StatsSnapshot};
use std::sync::Arc;
use std::time::Instant;

/// The collective-heavy campaign workload: every iteration mixes a ring
/// halo exchange (the per-rank send traffic crash schedules count) with an
/// allreduce, like the mid-collective scenario of `tests/fault_scenarios.rs`.
/// Returns the accumulated allreduce series as the checksum.
pub fn collective_app(p: &mut Process, iterations: u64) -> f64 {
    let world = p.world();
    let mut acc = 0.0f64;
    for it in 0..iterations {
        let peer = (p.rank() + 1) % p.size();
        let from = (p.rank() + p.size() - 1) % p.size();
        p.sendrecv_bytes(
            world,
            peer,
            1,
            Bytes::from(vec![it as u8; 64]),
            from as i64,
            1,
        );
        acc += p.allreduce_f64(world, ReduceOp::Sum, (p.rank() as u64 + it) as f64);
    }
    acc
}

/// Closed-form checksum of [`collective_app`]: per iteration the allreduce
/// sums `rank + it` over all ranks, accumulated over iterations.
pub fn collective_checksum(ranks: usize, iterations: u64) -> f64 {
    (0..iterations)
        .map(|it| (0..ranks as u64).map(|r| (r + it) as f64).sum::<f64>())
        .sum()
}

/// The SDC campaign workload: a pure ring exchange with kilobyte payloads —
/// exactly one application send per endpoint per iteration, so a flip's
/// `nth_send` lands iff it is in `[1, iterations]`, and every payload is
/// large enough to absorb any sampled bit index.
pub fn ring_app(p: &mut Process, iterations: u64) -> f64 {
    let world = p.world();
    let peer = (p.rank() + 1) % p.size();
    let from = (p.rank() + p.size() - 1) % p.size();
    let mut acc = 0.0f64;
    for it in 0..iterations {
        let payload = Bytes::from(vec![(it as u8).wrapping_add(p.rank() as u8); 1024]);
        let (_, data) = p.sendrecv_bytes(world, peer, 1, payload, from as i64, 1);
        acc += data[0] as f64;
    }
    acc
}

/// The verdict on one campaign case: the job's service record plus what a
/// record cannot say — the plan it came from, the verdict, and the
/// measurements that need a second run or another protocol.
#[derive(Debug, Clone)]
pub struct CaseOutcome {
    /// The plan the case ran with.
    pub plan: FaultPlan,
    /// The job's record, as `sdr_serve` streams it: seed, crashes, injected
    /// flips and transport counters are read from here, and
    /// `record.spec.to_json().encode()` is the line that replays the case
    /// under `sdr_serve --queue`.
    pub record: JobRecord,
    /// Did the job survive (all non-crashed processes finished with the
    /// expected checksum)? Always false for abort-expected distributions.
    pub survived: bool,
    /// Virtual-time overhead of the masked lossy run relative to its
    /// fault-free twin, in percent. `None` for non-lossy distributions.
    pub masked_overhead_pct: Option<f64>,
    /// Flips detected by the redMPI cross-replica comparison.
    pub sdc_detected: u64,
    /// Flips outvoted by a hash majority (degree ≥ 3 only): detected *and*
    /// attributable to the corrupt copy, so the receiver can substitute the
    /// majority payload.
    pub sdc_corrected: u64,
    /// Violation of the distribution's expectation, if any.
    pub violation: Option<String>,
}

impl CaseOutcome {
    /// Survived runs with at least one crash: virtual seconds from the first
    /// crash to job completion (the recovery latency the campaign
    /// aggregates). A crashed process's finish time is its crash time.
    pub fn recovery_latency_s(&self) -> Option<f64> {
        let first_crash = self
            .record
            .processes
            .iter()
            .filter(|p| p.outcome == "crashed")
            .map(|p| SimTime::from_nanos(p.finish_ns))
            .min()?;
        let elapsed = SimTime::from_nanos(self.record.elapsed_ns);
        self.survived.then(|| (elapsed - first_crash).as_secs_f64())
    }
}

/// The workload a lossy-transport case runs, rotated by case seed: the five
/// NAS kernels (class-S sizing) plus the collective-heavy campaign app.
pub fn lossy_workload(seed: u64, iterations: u64) -> WorkloadKind {
    match NasKernel::all().get((seed % 6) as usize) {
        Some(&kernel) => WorkloadKind::Nas(kernel),
        None => WorkloadKind::Collective { iterations },
    }
}

/// The one conversion from a campaign case to the job that runs it: the
/// configuration picks the layout (the partial layout the
/// [`FaultDistribution::UnreplicatedBias`] mask describes, full replication
/// at the configured degree otherwise), the plan's faults become the spec's
/// crash / bit-flip / net-fault fields, and `workers` its scheduler pool
/// size (`None` keeps the launcher's default).
/// NAS workloads run at class S. The spec round-trips through the wire
/// format, so its JSON line replays the case under `sdr_serve --queue`.
pub fn case_spec(plan: &FaultPlan, workload: WorkloadKind, workers: Option<usize>) -> JobSpec {
    let config = plan.config;
    let layout = match config.dist {
        FaultDistribution::UnreplicatedBias {
            replicated_mask, ..
        } => LayoutSpec::Partial {
            replicated: (0..config.ranks)
                .filter(|r| replicated_mask & (1u64 << r) != 0)
                .collect(),
        },
        _ => LayoutSpec::Replicated {
            degree: config.degree,
        },
    };
    JobSpec {
        id: format!(
            "{}-d{}-seed{}",
            config.dist.name(),
            config.degree,
            plan.seed
        ),
        workload,
        ranks: config.ranks,
        class: "s".to_string(),
        layout,
        carrier_mode: None,
        workers,
        seed: plan.seed,
        crashes: Vec::new(),
        sdc: Vec::new(),
        net_faults: None,
        trace: false,
    }
    .with_faults(&plan.faults)
}

/// The spec [`run_case`] runs for `plan`: the ring exchange for soft errors,
/// the seed-rotated [`lossy_workload`] for the lossy-transport
/// distributions, the collective app for every crash distribution.
fn plan_spec(plan: &FaultPlan, iterations: u64, workers: Option<usize>) -> JobSpec {
    let workload = match plan.config.dist {
        FaultDistribution::SoftErrors { .. } => WorkloadKind::Ring { iterations },
        FaultDistribution::LossyLinks { .. } | FaultDistribution::DelayedAcks { .. } => {
            lossy_workload(plan.seed, iterations)
        }
        _ => WorkloadKind::Collective { iterations },
    };
    case_spec(plan, workload, workers)
}

/// The plan [`run_case`] gets for `(config, seed)` in a campaign, and the
/// spec it runs.
pub fn sampled_case(
    config: CampaignConfig,
    seed: u64,
    iterations: u64,
    workers: Option<usize>,
) -> (FaultPlan, JobSpec) {
    let plan = sample_plan(config, seed);
    let spec = plan_spec(&plan, iterations, workers);
    (plan, spec)
}

const SINGLE_WORKER: Option<usize> = Some(1);

fn record_of(spec: &JobSpec) -> JobRecord {
    run_job(spec, 0).unwrap_or_else(|e| panic!("campaign case {} does not compile: {e}", spec.id))
}

/// Why `record` is not a fully survived run — some non-crashed process did
/// not finish with `expected` — or `None` when it is.
fn survival_failure(record: &JobRecord, expected: f64) -> Option<String> {
    let mut survivors = record.processes.iter().filter(|p| p.outcome != "crashed");
    survivors.find_map(|p| match p.result_bits.map(f64::from_bits) {
        Some(v) if v == expected => None,
        Some(v) => Some(format!(
            "survivor {} finished with wrong checksum {v} (expected {expected})",
            p.endpoint
        )),
        None => Some(format!(
            "survivor {} did not finish: {}",
            p.endpoint, p.outcome
        )),
    })
}

/// Does running [`collective_app`] under `plan`'s faults (deterministic
/// single-worker replay) violate survivability?
fn violates_survival(plan: &FaultPlan, iterations: u64) -> bool {
    let expected = collective_checksum(plan.config.ranks, iterations);
    survival_failure(&record_of(&oracle_spec(plan, iterations)), expected).is_some()
}

fn oracle_spec(plan: &FaultPlan, iterations: u64) -> JobSpec {
    case_spec(plan, WorkloadKind::Collective { iterations }, SINGLE_WORKER)
}

/// Oracle for the shrinker and the checked-in regression cases: does
/// running [`collective_app`] under `faults` (deterministic single-worker
/// replay) violate survivability — i.e. some non-crashed process fails to
/// finish with the closed-form checksum?
pub fn crash_faults_violate_survival(
    config: CampaignConfig,
    iterations: u64,
    faults: &[PlannedFault],
) -> bool {
    let plan = FaultPlan {
        config,
        seed: 0,
        faults: faults.to_vec(),
    };
    violates_survival(&plan, iterations)
}

/// Replay the case's faulted job twice under the deterministic single-worker
/// scheduler with tracing on, and report whether the two records'
/// [`JobRecord::deterministic_json`] images — full trace, per-process
/// finish times and results included — are byte-identical. A `false` here
/// is a determinism violation — exactly what the shrink path minimizes.
/// Lossy distributions replay the case's actual rotated workload, so the
/// injected drop/duplicate/delay decisions — pure functions of the per-link
/// frame counters — recur at the exact same frames.
pub fn replay_is_deterministic(config: CampaignConfig, seed: u64, iterations: u64) -> bool {
    let spec = JobSpec {
        trace: true,
        ..sampled_case(config, seed, iterations, SINGLE_WORKER).1
    };
    record_of(&spec).deterministic_json() == record_of(&spec).deterministic_json()
}

/// Run one campaign case — a sampled or hand-built plan — and judge its
/// record against the distribution's expectation (see the module docs):
///
/// * **crash** distributions: correlated loss of both replicas of a rank,
///   or — on the partial layout of [`FaultDistribution::UnreplicatedBias`]
///   — the loss of an unreplicated rank, must abort promptly with a typed
///   `RankLost` (never a hang or a wrong answer); every other loss leaves
///   one replica per rank (majority loss at degree ≥ 3 included:
///   substitution masks it) and must be survived;
/// * **lossy** distributions: a fault-free twin of the spec runs first, and
///   the faulted run must finish with every replica of every rank returning
///   the twin's exact bit pattern, every injected duplicate suppressed, and
///   retransmissions behind any drop;
/// * **soft errors**: the spec compiles the plan's bit flips like any other
///   job; only the protocol is swapped for the redMPI baseline, whose
///   cross-replica hash comparison is what detects them (the spec line of
///   an SDC case therefore replays the *injection* under SDR-MPI, not the
///   detection).
pub fn run_case(plan: FaultPlan, iterations: u64, workers: Option<usize>) -> CaseOutcome {
    let config = plan.config;
    let spec = plan_spec(&plan, iterations, workers);
    let mut masked_overhead_pct = None;
    let (mut sdc_detected, mut sdc_corrected) = (0, 0);
    let (record, survived, violation) = match config.dist {
        FaultDistribution::SoftErrors { .. } => {
            assert!(
                config.degree >= 2,
                "the redMPI comparison needs at least two replicas"
            );
            let votes = SdcReport::new();
            let app = spec.app();
            let builder = spec
                .compile()
                .unwrap_or_else(|e| panic!("campaign case {} does not compile: {e}", spec.id))
                .protocol(Arc::new(RedMpiFactory::with_degree(
                    config.degree,
                    Arc::clone(&votes),
                )));
            let started = Instant::now();
            let report = builder.run(move |p| (app)(p));
            let record = JobRecord::from_report(&spec, &report, 0, started.elapsed().as_secs_f64());
            let survived = record.status == JobStatus::Finished;
            let injected = record.sdc_flips_injected;
            (sdc_detected, sdc_corrected) = (votes.mismatches(), votes.corrected());
            let violation = if !survived {
                Some("SDC run did not finish cleanly".to_string())
            } else if sdc_detected != injected {
                Some(format!(
                    "SDC detection mismatch: {injected} flips injected, {sdc_detected} detected"
                ))
            } else if config.degree >= 3 && sdc_corrected != injected {
                // A single in-flight flip is the minority of ≥ 3 hash votes,
                // so at degree ≥ 3 every detection must also be a correction.
                Some(format!(
                    "SDC correction mismatch at degree {}: {injected} flips injected, \
                     {sdc_corrected} outvoted",
                    config.degree
                ))
            } else {
                None
            };
            (record, survived, violation)
        }
        FaultDistribution::LossyLinks { .. } | FaultDistribution::DelayedAcks { .. } => {
            let workload = spec.workload.name();
            let reference = record_of(&JobSpec {
                crashes: Vec::new(),
                sdc: Vec::new(),
                net_faults: None,
                ..spec.clone()
            });
            assert_eq!(
                reference.status,
                JobStatus::Finished,
                "{workload}: the fault-free reference run must finish"
            );
            let record = record_of(&spec);
            let bits = |r: &JobRecord| -> Vec<Option<u64>> {
                r.processes.iter().map(|p| p.result_bits).collect()
            };
            let violation = if record.status != JobStatus::Finished {
                Some(format!(
                    "{workload}: lossy run did not finish cleanly ({})",
                    record.status.name()
                ))
            } else if bits(&record) != bits(&reference) {
                Some(format!(
                    "{workload}: masked run diverged from the fault-free reference \
                     ({:?} vs {:?})",
                    bits(&record),
                    bits(&reference)
                ))
            } else if record.dups_suppressed != record.msgs_duplicated {
                Some(format!(
                    "{workload}: duplicate accounting broken: {} copies injected, {} suppressed",
                    record.msgs_duplicated, record.dups_suppressed
                ))
            } else if record.msgs_dropped > 0 && record.retransmits == 0 {
                Some(format!(
                    "{workload}: {} frames dropped but no retransmission fired",
                    record.msgs_dropped
                ))
            } else {
                None
            };
            let secs = |r: &JobRecord| SimTime::from_nanos(r.elapsed_ns).as_secs_f64();
            let ref_secs = secs(&reference);
            masked_overhead_pct =
                (ref_secs > 0.0).then(|| (secs(&record) - ref_secs) / ref_secs * 100.0);
            (record, violation.is_none(), violation)
        }
        _ => {
            let unrecoverable = match config.dist {
                FaultDistribution::CorrelatedPairLoss { .. } => {
                    Some("correlated loss of both replicas".to_string())
                }
                // The sampler's single crash always hits endpoint `r` = the
                // rank id; coverage of that rank decides the expectation.
                FaultDistribution::UnreplicatedBias {
                    replicated_mask, ..
                } => plan
                    .crashes()
                    .next()
                    .filter(|(ep, _)| replicated_mask & (1u64 << ep.0) == 0)
                    .map(|(ep, _)| format!("crash of unreplicated rank {}", ep.0)),
                _ => None,
            };
            let record = record_of(&spec);
            let not_survived =
                survival_failure(&record, collective_checksum(config.ranks, iterations));
            let survived = not_survived.is_none();
            let violation = match unrecoverable {
                Some(_) if record.status == JobStatus::Aborted => None,
                Some(loss) => Some(format!(
                    "{loss} was not reported as RankLost (survived={survived}, crashes={})",
                    record.crashes
                )),
                None => not_survived,
            };
            (record, survived, violation)
        }
    };
    CaseOutcome {
        plan,
        record,
        survived,
        masked_overhead_pct,
        sdc_detected,
        sdc_corrected,
        violation,
    }
}

/// Run `cases` seeded cases (`base_seed`, `base_seed + 1`, ...) under one
/// configuration.
pub fn run_campaign(
    config: CampaignConfig,
    base_seed: u64,
    cases: usize,
    iterations: u64,
    workers: Option<usize>,
) -> Vec<CaseOutcome> {
    (0..cases as u64)
        .map(|i| run_case(sample_plan(config, base_seed + i), iterations, workers))
        .collect()
}

/// Order statistics of a sample — the one place the harnesses compute
/// them. Named for its first use, recovery latencies in seconds; the
/// masked-overhead percentages reuse it with their own unit. Medians over
/// means, per the *MPI Benchmarking Revisited* guidance for skewed
/// distributions.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencyStats {
    /// Number of samples.
    pub samples: usize,
    /// Minimum.
    pub min_s: f64,
    /// Median (the lower central element for even sample counts).
    pub median_s: f64,
    /// 90th percentile.
    pub p90_s: f64,
    /// Maximum.
    pub max_s: f64,
}

impl LatencyStats {
    /// Summarize a sample (empty samples give all-zero stats): the `q`
    /// quantile is element `(n - 1)·q` of the sorted sample, rounded down.
    pub fn from_samples(mut secs: Vec<f64>) -> LatencyStats {
        if secs.is_empty() {
            return LatencyStats::default();
        }
        secs.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
        let pick = |q_num: usize, q_den: usize| secs[(secs.len() - 1) * q_num / q_den];
        LatencyStats {
            samples: secs.len(),
            min_s: secs[0],
            median_s: pick(1, 2),
            p90_s: pick(9, 10),
            max_s: *secs.last().expect("non-empty"),
        }
    }
}

/// One expectation violation, with its replay handles: the case seed (which
/// resamples the plan) and the spec line that reruns the job standalone.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// The case seed.
    pub seed: u64,
    /// What went wrong.
    pub detail: String,
    /// The violating job as one `sdr_serve --queue` line.
    pub spec: String,
}

/// Aggregates of one configuration's campaign.
#[derive(Debug, Clone)]
pub struct CampaignSummary {
    /// The configuration.
    pub config: CampaignConfig,
    /// Cases run.
    pub cases: usize,
    /// Cases fully survived.
    pub survived: usize,
    /// Cases aborted with a clear `RankLost` report.
    pub aborted: usize,
    /// Crashes that actually fired, across all cases.
    pub crashes_injected: u64,
    /// Soft-error flips injected across all cases.
    pub sdc_injected: u64,
    /// Soft-error flips detected across all cases.
    pub sdc_detected: u64,
    /// Soft-error flips outvoted by a hash majority (degree ≥ 3 cases).
    pub sdc_corrected: u64,
    /// Recovery-latency distribution over the survived-with-crash cases.
    pub recovery_latency: LatencyStats,
    /// The five transport counters every [`JobRecord`] carries
    /// (`msgs_dropped`, `msgs_duplicated`, `msgs_delayed`, `retransmits`,
    /// `dups_suppressed`), summed over the cases; the rest of the snapshot
    /// stays zero.
    pub net: StatsSnapshot,
    /// Median masked-delivery overhead over the lossy cases, percent of the
    /// fault-free virtual run time.
    pub masked_overhead_median_pct: f64,
    /// 90th-percentile masked-delivery overhead, percent.
    pub masked_overhead_p90_pct: f64,
    /// Every expectation violation.
    pub violations: Vec<Violation>,
}

impl CampaignSummary {
    /// Fraction of cases fully survived.
    pub fn survival_rate(&self) -> f64 {
        if self.cases == 0 {
            return 1.0;
        }
        self.survived as f64 / self.cases as f64
    }

    /// Fraction of cases aborted with a clear `RankLost` report.
    pub fn abort_rate(&self) -> f64 {
        if self.cases == 0 {
            return 0.0;
        }
        self.aborted as f64 / self.cases as f64
    }

    /// Fraction of injected flips detected (1.0 when nothing was injected).
    pub fn sdc_detection_rate(&self) -> f64 {
        if self.sdc_injected == 0 {
            return 1.0;
        }
        self.sdc_detected as f64 / self.sdc_injected as f64
    }

    /// Fraction of injected flips outvoted by a hash majority (1.0 when
    /// nothing was injected; meaningful at degree ≥ 3 only — dual
    /// replication can detect but never attribute).
    pub fn sdc_correction_rate(&self) -> f64 {
        if self.sdc_injected == 0 {
            return 1.0;
        }
        self.sdc_corrected as f64 / self.sdc_injected as f64
    }
}

/// Aggregate a configuration's case outcomes.
pub fn summarize(config: CampaignConfig, outcomes: &[CaseOutcome]) -> CampaignSummary {
    let sum = |counter: fn(&JobRecord) -> u64| -> u64 {
        outcomes.iter().map(|o| counter(&o.record)).sum()
    };
    let overhead = LatencyStats::from_samples(
        outcomes
            .iter()
            .filter_map(|o| o.masked_overhead_pct)
            .collect(),
    );
    CampaignSummary {
        config,
        cases: outcomes.len(),
        survived: outcomes.iter().filter(|o| o.survived).count(),
        aborted: outcomes
            .iter()
            .filter(|o| o.record.status == JobStatus::Aborted)
            .count(),
        crashes_injected: sum(|r| r.crashes as u64),
        sdc_injected: sum(|r| r.sdc_flips_injected),
        sdc_detected: outcomes.iter().map(|o| o.sdc_detected).sum(),
        sdc_corrected: outcomes.iter().map(|o| o.sdc_corrected).sum(),
        recovery_latency: LatencyStats::from_samples(
            outcomes
                .iter()
                .filter_map(CaseOutcome::recovery_latency_s)
                .collect(),
        ),
        net: StatsSnapshot {
            msgs_dropped: sum(|r| r.msgs_dropped),
            msgs_duplicated: sum(|r| r.msgs_duplicated),
            msgs_delayed: sum(|r| r.msgs_delayed),
            retransmits: sum(|r| r.retransmits),
            dups_suppressed: sum(|r| r.dups_suppressed),
            ..StatsSnapshot::default()
        },
        masked_overhead_median_pct: overhead.median_s,
        masked_overhead_p90_pct: overhead.p90_s,
        violations: outcomes
            .iter()
            .filter_map(|o| {
                o.violation.clone().map(|detail| Violation {
                    seed: o.record.spec.seed,
                    detail,
                    spec: o.record.spec.to_json().encode(),
                })
            })
            .collect(),
    }
}

/// Result of shrinking a violating case.
#[derive(Debug, Clone)]
pub struct ShrinkOutcome {
    /// The full plan the violation was found with.
    pub plan: FaultPlan,
    /// The locally minimal failing fault subset.
    pub minimal: Vec<PlannedFault>,
    /// Oracle replays the search needed.
    pub probes: usize,
    /// The minimal plan as one `sdr_serve --queue` line — the exact job the
    /// oracle's last failing probe ran.
    pub spec: String,
}

/// Shrink a survivability violation — a sampled plan, or one composed by
/// hand (e.g. a campaign-found fatal pair buried in survivable noise) — to
/// a locally minimal fault subset and name it as a spec line. Every probe
/// replays [`collective_app`] under the candidate faults at `--workers 1`,
/// so the search is exact. Returns `None` when the plan's full fault list
/// does not violate survivability (nothing to shrink).
pub fn shrink(plan: FaultPlan, iterations: u64) -> Option<ShrinkOutcome> {
    let with_faults = |faults: &[PlannedFault]| FaultPlan {
        config: plan.config,
        seed: plan.seed,
        faults: faults.to_vec(),
    };
    if !violates_survival(&plan, iterations) {
        return None;
    }
    let mut probes = 1;
    let minimal = shrink_events(&plan.faults, |candidate| {
        probes += 1;
        violates_survival(&with_faults(candidate), iterations)
    });
    let spec = oracle_spec(&with_faults(&minimal), iterations);
    Some(ShrinkOutcome {
        plan,
        minimal,
        probes,
        spec: spec.to_json().encode(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn survive_cfg() -> CampaignConfig {
        CampaignConfig {
            ranks: 4,
            degree: 2,
            dist: FaultDistribution::MidCollective { max_phase: 8 },
        }
    }

    #[test]
    fn mid_collective_cases_are_survived() {
        let outcomes = run_campaign(survive_cfg(), 100, 5, 6, None);
        let summary = summarize(survive_cfg(), &outcomes);
        assert_eq!(summary.cases, 5);
        assert!(
            summary.violations.is_empty(),
            "violations: {:?}",
            summary.violations
        );
        assert_eq!(summary.survival_rate(), 1.0);
        assert!(summary.crashes_injected >= 1, "some crash must have fired");
        assert!(summary.recovery_latency.samples >= 1);
        assert!(summary.recovery_latency.min_s >= 0.0);
    }

    #[test]
    fn correlated_pair_cases_abort_with_rank_lost() {
        let cfg = CampaignConfig {
            ranks: 2,
            degree: 2,
            dist: FaultDistribution::CorrelatedPairLoss {
                mean_sends: 3,
                horizon_sends: 3,
            },
        };
        let outcomes = run_campaign(cfg, 7, 4, 6, None);
        let summary = summarize(cfg, &outcomes);
        assert!(
            summary.violations.is_empty(),
            "violations: {:?}",
            summary.violations
        );
        assert_eq!(summary.abort_rate(), 1.0);
        assert_eq!(summary.survival_rate(), 0.0);
    }

    #[test]
    fn sdc_cases_detect_every_injected_flip() {
        let cfg = CampaignConfig {
            ranks: 4,
            degree: 2,
            dist: FaultDistribution::SoftErrors {
                flips: 2,
                max_send: 6,
                payload_bits: 8192,
            },
        };
        let outcomes = run_campaign(cfg, 11, 4, 6, None);
        let summary = summarize(cfg, &outcomes);
        assert!(
            summary.violations.is_empty(),
            "violations: {:?}",
            summary.violations
        );
        assert_eq!(summary.sdc_injected, 8, "2 flips per case, all landing");
        assert_eq!(summary.sdc_detected, 8);
        assert_eq!(summary.sdc_detection_rate(), 1.0);
    }

    #[test]
    fn degree_three_sdc_cases_correct_every_flip() {
        let cfg = CampaignConfig {
            ranks: 4,
            degree: 3,
            dist: FaultDistribution::SoftErrors {
                flips: 2,
                max_send: 6,
                payload_bits: 8192,
            },
        };
        let outcomes = run_campaign(cfg, 19, 3, 6, None);
        let summary = summarize(cfg, &outcomes);
        assert!(
            summary.violations.is_empty(),
            "violations: {:?}",
            summary.violations
        );
        assert_eq!(summary.sdc_injected, 6, "2 flips per case, all landing");
        assert_eq!(summary.sdc_detected, 6);
        assert_eq!(
            summary.sdc_corrected, 6,
            "every flip is the minority of three hash votes"
        );
        assert_eq!(summary.sdc_correction_rate(), 1.0);
    }

    #[test]
    fn majority_loss_cases_survive_on_the_last_replica() {
        let cfg = CampaignConfig {
            ranks: 2,
            degree: 3,
            dist: FaultDistribution::MajorityLoss {
                mean_sends: 3,
                horizon_sends: 3,
            },
        };
        let outcomes = run_campaign(cfg, 23, 4, 6, None);
        let summary = summarize(cfg, &outcomes);
        assert!(
            summary.violations.is_empty(),
            "violations: {:?}",
            summary.violations
        );
        assert_eq!(summary.survival_rate(), 1.0);
        assert_eq!(
            summary.crashes_injected, 8,
            "two of three replicas die in every case"
        );
    }

    #[test]
    fn unreplicated_bias_cases_split_by_coverage() {
        // Ranks 0 and 2 covered, 1 and 3 singletons: covered crashes must be
        // masked, singleton crashes must abort with RankLost.
        let cfg = CampaignConfig {
            ranks: 4,
            degree: 2,
            dist: FaultDistribution::UnreplicatedBias {
                replicated_mask: 0b0101,
                horizon_sends: 6,
            },
        };
        let outcomes = run_campaign(cfg, 40, 8, 6, None);
        let summary = summarize(cfg, &outcomes);
        assert!(
            summary.violations.is_empty(),
            "violations: {:?}",
            summary.violations
        );
        assert_eq!(summary.cases, 8);
        assert!(
            summary.aborted >= 1,
            "the biased sampler must hit a singleton in 8 cases"
        );
        assert_eq!(
            summary.survived + summary.aborted,
            8,
            "every case either survives (covered rank) or aborts (singleton)"
        );
    }

    #[test]
    fn lossy_links_cases_are_fully_masked() {
        // Seeds 12..18 rotate through FT, MG, SP, collective, BT, CG — six
        // different traffic shapes, all of which must mask the sampled
        // drop/duplicate/delay policy bit-exactly.
        let cfg = CampaignConfig {
            ranks: 4,
            degree: 2,
            dist: FaultDistribution::LossyLinks {
                max_drop_per_64k: 3277,
                max_dup_per_64k: 3277,
                max_delay_per_64k: 3277,
            },
        };
        let outcomes = run_campaign(cfg, 12, 6, 6, None);
        let summary = summarize(cfg, &outcomes);
        assert!(
            summary.violations.is_empty(),
            "violations: {:?}",
            summary.violations
        );
        assert_eq!(summary.survival_rate(), 1.0);
        assert!(
            summary.net.msgs_dropped > 0,
            "the seed range must include dropped frames: {:?}",
            summary.net
        );
        assert!(
            summary.net.retransmits > 0,
            "drops must force retransmissions: {:?}",
            summary.net
        );
        assert_eq!(summary.net.dups_suppressed, summary.net.msgs_duplicated);
        let workloads: std::collections::BTreeSet<_> = outcomes
            .iter()
            .map(|o| o.record.spec.workload.name())
            .collect();
        assert_eq!(workloads.len(), 6, "six distinct workloads: {workloads:?}");
        assert!(
            outcomes.iter().all(|o| o.masked_overhead_pct.is_some()),
            "every lossy case records its masked-delivery overhead"
        );
    }

    #[test]
    fn delayed_acks_cases_are_fully_masked() {
        let cfg = CampaignConfig {
            ranks: 4,
            degree: 2,
            dist: FaultDistribution::DelayedAcks {
                max_delay_per_64k: 32_768,
                max_delay_ns: 400_000,
            },
        };
        let outcomes = run_campaign(cfg, 30, 4, 6, None);
        let summary = summarize(cfg, &outcomes);
        assert!(
            summary.violations.is_empty(),
            "violations: {:?}",
            summary.violations
        );
        assert_eq!(summary.survival_rate(), 1.0);
        assert!(
            summary.net.msgs_delayed > 0,
            "the ack-delay policy must have stalled frames: {:?}",
            summary.net
        );
        assert_eq!(summary.net.msgs_dropped, 0, "delayed-acks never drops");
        assert_eq!(summary.net.dups_suppressed, summary.net.msgs_duplicated);
    }

    #[test]
    fn latency_stats_order_statistics() {
        let s = LatencyStats::from_samples(vec![3.0, 1.0, 2.0, 10.0]);
        assert_eq!(s.samples, 4);
        assert_eq!(s.min_s, 1.0);
        assert_eq!(s.median_s, 2.0);
        assert_eq!(s.max_s, 10.0);
        assert_eq!(LatencyStats::from_samples(vec![]), LatencyStats::default());
        // (12 - 1) * 9 / 10 = 9 -> the 10th order statistic.
        let twelve = LatencyStats::from_samples((1..=12).map(f64::from).collect());
        assert_eq!((twelve.median_s, twelve.p90_s), (6.0, 10.0));
    }
}
