//! Fault-campaign execution: run sampled [`FaultPlan`]s, judge each case
//! against its distribution's expectation, and shrink violations to minimal
//! regression cases.
//!
//! This is the execution half of the fault-campaign engine; the planning
//! half ([`sim_net::campaign`]) samples seeded plans. For every case the
//! driver:
//!
//! 1. samples the plan for `(config, seed)` ([`sim_net::campaign::sample_plan`]),
//! 2. turns it into a [`JobSpec`] ([`case_spec`]) — the same one-line job
//!    description `sdr_serve` accepts, so every case doubles as its own
//!    replay handle — and runs it through the serve engine's execution path
//!    ([`crate::serve::run_spec`]): crashes compile to
//!    [`sim_mpi::JobBuilder::crash`] schedules (i.e.
//!    `FailureService::schedule` calls), soft errors to
//!    [`sim_mpi::JobBuilder::sdc_flip`] PML corruption hooks,
//! 3. judges the report:
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
//! process finishes, the results are bit-identical to a fault-free reference
//! run of the same workload, every injected duplicate is suppressed
//! (`dups_suppressed == msgs_duplicated`), and any drop forces at least one
//! retransmission. Lossy cases rotate through the five NAS kernels plus the
//! collective-heavy app ([`lossy_workload`]), so the masking claim covers
//! halo exchanges, all-to-all transposes and pipelined sweeps, not just one
//! traffic shape.
//!
//! Any deviation is a *violation*; [`shrink_violation`] replays the case's
//! fault list under the deterministic single-worker scheduler and reduces it
//! to a locally minimal failing subset ([`sim_net::campaign::shrink_events`])
//! and names the minimal plan as a spec line.

use crate::nas::NasKernel;
use crate::serve::{run_spec, JobSpec, LayoutSpec, WorkloadKind};
use bytes::Bytes;
use repl_baselines::{RedMpiFactory, SdcReport};
use sim_mpi::{JobReport, Process, ProcessOutcome, ReduceOp};
use sim_net::campaign::{
    sample_plan, shrink_events, CampaignConfig, FaultDistribution, FaultPlan, PlannedFault,
};
use sim_net::StatsSnapshot;
use std::sync::Arc;

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

/// The verdict on one campaign case.
#[derive(Debug, Clone)]
pub struct CaseOutcome {
    /// The case seed.
    pub seed: u64,
    /// The sampled plan the case ran with.
    pub plan: FaultPlan,
    /// The job the case ran — the plan as a spec. `spec.to_json().encode()`
    /// is the line that replays the case under `sdr_serve --queue`.
    pub spec: JobSpec,
    /// Did the job survive (all non-crashed processes finished with the
    /// expected checksum)? Always false for abort-expected distributions.
    pub survived: bool,
    /// Did a survivor report the unrecoverable rank loss (`RankLost`)?
    pub aborted: bool,
    /// Crashes that actually fired during the run.
    pub crashes: usize,
    /// Survived runs with at least one crash: virtual seconds from the first
    /// crash to job completion (the recovery latency the campaign
    /// aggregates).
    pub recovery_latency_s: Option<f64>,
    /// Soft-error flips actually injected (a planned flip on a send index
    /// the endpoint never reached does not fire).
    pub sdc_injected: u64,
    /// Flips detected by the redMPI cross-replica comparison.
    pub sdc_detected: u64,
    /// Flips outvoted by a hash majority (degree ≥ 3 only): detected *and*
    /// attributable to the corrupt copy, so the receiver can substitute the
    /// majority payload.
    pub sdc_corrected: u64,
    /// Fabric counters of the faulted run; the transport fault and masking
    /// counters (`msgs_dropped`, `retransmits`, `dups_suppressed`, ...) are
    /// zero unless the case installed a network fault policy.
    pub net: StatsSnapshot,
    /// Virtual-time overhead of the masked lossy run relative to its
    /// fault-free reference of the same workload, in percent. `None` for
    /// non-lossy distributions.
    pub masked_overhead_pct: Option<f64>,
    /// Workload the case ran ("collective", "ring", or a NAS kernel name —
    /// lossy cases rotate through the kernels by seed).
    pub workload: &'static str,
    /// Violation of the distribution's expectation, if any.
    pub violation: Option<String>,
}

impl CaseOutcome {
    /// The verdict fields every case kind fills the same way; each kind adds
    /// its own measurements on top.
    fn judged(
        plan: FaultPlan,
        spec: JobSpec,
        report: &JobReport<f64>,
        survived: bool,
        violation: Option<String>,
    ) -> CaseOutcome {
        CaseOutcome {
            seed: plan.seed,
            plan,
            survived,
            aborted: false,
            crashes: 0,
            recovery_latency_s: None,
            sdc_injected: 0,
            sdc_detected: 0,
            sdc_corrected: 0,
            net: report.stats,
            masked_overhead_pct: None,
            workload: match &spec.workload {
                WorkloadKind::Nas(kernel) => kernel.name(),
                other => other.name(),
            },
            violation,
            spec,
        }
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

/// The plan [`run_case`] samples for `(config, seed)` and the spec it runs:
/// the ring exchange for soft errors, the seed-rotated [`lossy_workload`]
/// for the lossy-transport distributions, the collective app for every
/// crash distribution.
pub fn sampled_case(
    config: CampaignConfig,
    seed: u64,
    iterations: u64,
    workers: Option<usize>,
) -> (FaultPlan, JobSpec) {
    let workload = match config.dist {
        FaultDistribution::SoftErrors { .. } => WorkloadKind::Ring { iterations },
        FaultDistribution::LossyLinks { .. } | FaultDistribution::DelayedAcks { .. } => {
            lossy_workload(seed, iterations)
        }
        _ => WorkloadKind::Collective { iterations },
    };
    let plan = sample_plan(config, seed);
    let spec = case_spec(&plan, workload, workers);
    (plan, spec)
}

const SINGLE_WORKER: Option<usize> = Some(1);

fn run(spec: &JobSpec) -> JobReport<f64> {
    match run_spec(spec) {
        Ok((report, _host_secs)) => report,
        Err(e) => panic!("campaign case {} does not compile: {e}", spec.id),
    }
}

/// Does the crash report describe a fully survived run: every non-crashed
/// process finished with `expected`?
fn crash_report_survived(report: &JobReport<f64>, expected: f64) -> Option<String> {
    for proc in &report.processes {
        if proc.outcome.is_crashed() {
            continue;
        }
        match &proc.outcome {
            ProcessOutcome::Finished(v) if *v == expected => {}
            ProcessOutcome::Finished(v) => {
                return Some(format!(
                    "survivor {:?} finished with wrong checksum {v} (expected {expected})",
                    proc.endpoint
                ));
            }
            other => {
                return Some(format!(
                    "survivor {:?} did not finish: {other:?}",
                    proc.endpoint
                ));
            }
        }
    }
    None
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
    let report = run(&oracle_spec(config, 0, iterations, faults));
    crash_report_survived(&report, collective_checksum(config.ranks, iterations)).is_some()
}

fn oracle_spec(
    config: CampaignConfig,
    seed: u64,
    iterations: u64,
    faults: &[PlannedFault],
) -> JobSpec {
    let plan = FaultPlan {
        config,
        seed,
        faults: faults.to_vec(),
    };
    case_spec(
        &plan,
        WorkloadKind::Collective { iterations },
        SINGLE_WORKER,
    )
}

/// Replay the case's faulted job twice under the deterministic single-worker
/// scheduler with tracing on, and report whether the two `TraceEvent`
/// streams (and per-process finish times) are bit-identical. A `false` here
/// is a determinism violation — exactly what the shrink path minimizes.
/// Lossy distributions replay the case's actual rotated workload, so the
/// injected drop/duplicate/delay decisions — pure functions of the per-link
/// frame counters — recur at the exact same frames.
pub fn replay_is_deterministic(config: CampaignConfig, seed: u64, iterations: u64) -> bool {
    let spec = JobSpec {
        trace: true,
        ..sampled_case(config, seed, iterations, SINGLE_WORKER).1
    };
    let (a, b) = (run(&spec), run(&spec));
    a.trace.events() == b.trace.events()
        && a.processes.len() == b.processes.len()
        && a.processes
            .iter()
            .zip(b.processes.iter())
            .all(|(pa, pb)| pa.finish_time == pb.finish_time)
}

/// Run one crash case. The verdict depends on what the sampled plan killed:
/// correlated loss of both replicas of a rank, or — on the partial layout of
/// [`FaultDistribution::UnreplicatedBias`] — the loss of an unreplicated
/// rank, must abort promptly with a typed `RankLost` (never a hang or a
/// wrong answer); every other loss leaves one replica per rank (majority
/// loss at degree ≥ 3 included: substitution masks it) and must be
/// survived.
fn run_crash_case(
    config: CampaignConfig,
    seed: u64,
    iterations: u64,
    workers: Option<usize>,
) -> CaseOutcome {
    let (plan, spec) = sampled_case(config, seed, iterations, workers);
    let unrecoverable = match config.dist {
        FaultDistribution::CorrelatedPairLoss { .. } => {
            Some("correlated loss of both replicas".to_string())
        }
        // The sampler's single crash always hits endpoint `r` = the rank id;
        // coverage of that rank decides the expectation.
        FaultDistribution::UnreplicatedBias {
            replicated_mask, ..
        } => plan
            .crashes()
            .next()
            .filter(|(ep, _)| replicated_mask & (1u64 << ep.0) == 0)
            .map(|(ep, _)| format!("crash of unreplicated rank {}", ep.0)),
        _ => None,
    };
    let report = run(&spec);
    let crashes = report.crashed().len();
    let not_survived =
        crash_report_survived(&report, collective_checksum(config.ranks, iterations));
    let survived = not_survived.is_none();
    let aborted = report.rank_lost();
    let violation = match unrecoverable {
        Some(_) if aborted => None,
        Some(loss) => Some(format!(
            "{loss} was not reported as RankLost (survived={survived}, crashes={crashes})"
        )),
        None => not_survived,
    };
    let first_crash = report
        .processes
        .iter()
        .filter_map(|p| match p.outcome {
            ProcessOutcome::Crashed { at } => Some(at),
            _ => None,
        })
        .min();
    CaseOutcome {
        aborted,
        crashes,
        recovery_latency_s: first_crash
            .filter(|_| survived)
            .map(|at| (report.elapsed - at).as_secs_f64()),
        ..CaseOutcome::judged(plan, spec, &report, survived, violation)
    }
}

/// Run a lossy-transport case over an explicit (possibly hand-built) plan:
/// one fault-free reference run of the seed's workload, one faulted run, and
/// the masking judgement — every process finishes, every replica of every
/// rank returns the exact bit pattern the reference did, every injected
/// duplicate is suppressed, and drops force retransmissions. Used by
/// [`run_case`] for sampled plans and by the bench harness's fixed-rate
/// sweep.
pub fn run_lossy_explicit_case(
    plan: FaultPlan,
    iterations: u64,
    workers: Option<usize>,
) -> CaseOutcome {
    let spec = case_spec(&plan, lossy_workload(plan.seed, iterations), workers);
    let workload = spec.workload.name();
    let reference = run(&JobSpec {
        crashes: Vec::new(),
        sdc: Vec::new(),
        net_faults: None,
        ..spec.clone()
    });
    assert!(
        reference.all_finished(),
        "{workload}: the fault-free reference run must finish"
    );
    let report = run(&spec);
    let net = report.stats;
    let bits = |r: &JobReport<f64>| -> Vec<Option<u64>> {
        let results = r.processes.iter().map(|p| p.outcome.result());
        results.map(|v| v.map(|v| v.to_bits())).collect()
    };
    let violation = if !report.all_finished() {
        Some(format!(
            "{workload}: lossy run did not finish cleanly: {:?}",
            report
                .processes
                .iter()
                .map(|p| (p.endpoint, &p.outcome))
                .collect::<Vec<_>>()
        ))
    } else if bits(&report) != bits(&reference) {
        Some(format!(
            "{workload}: masked run diverged from the fault-free reference \
             ({:?} vs {:?})",
            bits(&report),
            bits(&reference)
        ))
    } else if net.dups_suppressed != net.msgs_duplicated {
        Some(format!(
            "{workload}: duplicate accounting broken: {} copies injected, {} suppressed",
            net.msgs_duplicated, net.dups_suppressed
        ))
    } else if net.msgs_dropped > 0 && net.retransmits == 0 {
        Some(format!(
            "{workload}: {} frames dropped but no retransmission fired",
            net.msgs_dropped
        ))
    } else {
        None
    };
    let ref_secs = reference.elapsed.as_secs_f64();
    let masked_overhead_pct =
        (ref_secs > 0.0).then(|| (report.elapsed.as_secs_f64() - ref_secs) / ref_secs * 100.0);
    CaseOutcome {
        masked_overhead_pct,
        ..CaseOutcome::judged(plan, spec, &report, violation.is_none(), violation)
    }
}

/// Run one soft-error case. The spec compiles the plan's bit flips like any
/// other job; only the protocol is swapped for the redMPI baseline, whose
/// cross-replica hash comparison is what detects them (the spec line of an
/// SDC case therefore replays the *injection* under SDR-MPI, not the
/// detection).
fn run_sdc_case(
    config: CampaignConfig,
    seed: u64,
    iterations: u64,
    workers: Option<usize>,
) -> CaseOutcome {
    assert!(
        config.degree >= 2,
        "the redMPI comparison needs at least two replicas"
    );
    let (plan, spec) = sampled_case(config, seed, iterations, workers);
    let report_handle = SdcReport::new();
    let app = spec.app();
    let report = spec
        .compile()
        .unwrap_or_else(|e| panic!("campaign case {} does not compile: {e}", spec.id))
        .protocol(Arc::new(RedMpiFactory::with_degree(
            config.degree,
            Arc::clone(&report_handle),
        )))
        .run(move |p| (app)(p));
    let survived = report.all_finished();
    let injected = report.stats.sdc_flips_injected();
    let detected = report_handle.mismatches();
    let corrected = report_handle.corrected();
    let violation = if !survived {
        Some("SDC run did not finish cleanly".to_string())
    } else if detected != injected {
        Some(format!(
            "SDC detection mismatch: {injected} flips injected, {detected} detected"
        ))
    } else if config.degree >= 3 && corrected != injected {
        // A single in-flight flip is the minority of ≥ 3 hash votes, so at
        // degree ≥ 3 every detection must also be a correction.
        Some(format!(
            "SDC correction mismatch at degree {}: {injected} flips injected, \
             {corrected} outvoted",
            config.degree
        ))
    } else {
        None
    };
    CaseOutcome {
        sdc_injected: injected,
        sdc_detected: detected,
        sdc_corrected: corrected,
        ..CaseOutcome::judged(plan, spec, &report, survived, violation)
    }
}

/// Run one campaign case: sample the plan for `(config, seed)`, turn it into
/// a spec, run it, and judge the outcome against the distribution's
/// expectation (see the module docs).
pub fn run_case(
    config: CampaignConfig,
    seed: u64,
    iterations: u64,
    workers: Option<usize>,
) -> CaseOutcome {
    match config.dist {
        FaultDistribution::SoftErrors { .. } => run_sdc_case(config, seed, iterations, workers),
        FaultDistribution::LossyLinks { .. } | FaultDistribution::DelayedAcks { .. } => {
            run_lossy_explicit_case(sample_plan(config, seed), iterations, workers)
        }
        _ => run_crash_case(config, seed, iterations, workers),
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
        .map(|i| run_case(config, base_seed + i, iterations, workers))
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
    /// The cases' fabric counters merged (see [`CaseOutcome::net`]).
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
        aborted: outcomes.iter().filter(|o| o.aborted).count(),
        crashes_injected: outcomes.iter().map(|o| o.crashes as u64).sum(),
        sdc_injected: outcomes.iter().map(|o| o.sdc_injected).sum(),
        sdc_detected: outcomes.iter().map(|o| o.sdc_detected).sum(),
        sdc_corrected: outcomes.iter().map(|o| o.sdc_corrected).sum(),
        recovery_latency: LatencyStats::from_samples(
            outcomes
                .iter()
                .filter_map(|o| o.recovery_latency_s)
                .collect(),
        ),
        net: outcomes
            .iter()
            .fold(StatsSnapshot::default(), |sum, o| sum.merged(&o.net)),
        masked_overhead_median_pct: overhead.median_s,
        masked_overhead_p90_pct: overhead.p90_s,
        violations: outcomes
            .iter()
            .filter_map(|o| {
                o.violation.clone().map(|detail| Violation {
                    seed: o.seed,
                    detail,
                    spec: o.spec.to_json().encode(),
                })
            })
            .collect(),
    }
}

/// Result of shrinking a violating case.
#[derive(Debug, Clone)]
pub struct ShrinkOutcome {
    /// The full sampled plan the violation was found with.
    pub plan: FaultPlan,
    /// The locally minimal failing fault subset.
    pub minimal: Vec<PlannedFault>,
    /// Oracle replays the search needed.
    pub probes: usize,
    /// The minimal plan as one `sdr_serve --queue` line — the exact job the
    /// oracle's last failing probe ran.
    pub spec: String,
}

/// Shrink a survivability violation to a locally minimal fault subset and
/// name it as a spec line. Returns `None` when the case's full fault
/// list does not actually violate survivability (nothing to shrink). The
/// oracle replays candidates under `--workers 1`, so the search is exact.
pub fn shrink_violation(
    config: CampaignConfig,
    seed: u64,
    iterations: u64,
) -> Option<ShrinkOutcome> {
    shrink_explicit_violation(config, seed, iterations, &sample_plan(config, seed).faults)
}

/// Like [`shrink_violation`], but over an explicit fault list instead of a
/// sampled plan (for violations composed synthetically, e.g. a campaign-found
/// fatal pair buried in survivable noise). `seed_label` only names the
/// emitted spec. Returns `None` when the list does not violate
/// survivability.
pub fn shrink_explicit_violation(
    config: CampaignConfig,
    seed_label: u64,
    iterations: u64,
    faults: &[PlannedFault],
) -> Option<ShrinkOutcome> {
    let plan = FaultPlan {
        config,
        seed: seed_label,
        faults: faults.to_vec(),
    };
    shrink_fault_list(config, seed_label, iterations, faults).map(|(minimal, probes)| {
        let spec = oracle_spec(config, seed_label, iterations, &minimal)
            .to_json()
            .encode();
        ShrinkOutcome {
            plan,
            minimal,
            probes,
            spec,
        }
    })
}

/// Shrink an explicit fault list (used both by [`shrink_violation`] and the
/// synthetic-violation tests). Returns the minimal failing subset and the
/// number of oracle probes, or `None` if the full list does not fail.
pub fn shrink_fault_list(
    config: CampaignConfig,
    _seed: u64,
    iterations: u64,
    faults: &[PlannedFault],
) -> Option<(Vec<PlannedFault>, usize)> {
    let mut probes = 0usize;
    let oracle =
        |candidate: &[PlannedFault]| crash_faults_violate_survival(config, iterations, candidate);
    if !oracle(faults) {
        return None;
    }
    probes += 1;
    let minimal = shrink_events(faults, |candidate| {
        probes += 1;
        oracle(candidate)
    });
    Some((minimal, probes))
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
        let workloads: std::collections::BTreeSet<_> =
            outcomes.iter().map(|o| o.workload).collect();
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
