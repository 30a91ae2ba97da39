//! The Monte Carlo fault campaign: seeded fault-injection sweeps over the
//! failure distributions of the paper's fault model (exponential MTBF per
//! rank, correlated node loss taking out both replicas of a pair, crashes
//! landing mid-collective) plus redMPI-style soft-error injection, aggregated
//! into the `BENCH_faults.json` CI artifact.
//!
//! Every case is fully determined by `(config, seed)`; the planning lives in
//! `sim_net::campaign` and the execution/judging in `workloads::campaign`.
//! The CI gate (`faults-smoke`) demands 100% survivability for the
//! single-replica-loss configurations, a 100% prompt-abort rate for the
//! correlated pair loss, 100% SDC detection, and — for the lossy-transport
//! distributions — 100% masked survival with exact duplicate accounting
//! (`dups_suppressed == msgs_duplicated`) and at least one retransmission.
//! The replica-map rows add degree-3 majority loss (fork-election
//! must mask losing all but one replica of a rank), degree-3 soft errors
//! (every flip *corrected* by hash majority, `sdc_corrected ==
//! sdc_injected`), and a partial-coverage crash distribution (covered ranks
//! survive, unreplicated ranks abort promptly with a typed rank-loss).
//!
//! [`lossy_rate_sweep`] adds the survivability/masked-delivery-overhead
//! curve: fixed drop rates from 1% to 10%, each row aggregating seeded cases
//! that rotate through the NAS kernels.

use crate::parse_shared_flag;
use sim_net::campaign::{FaultPlan, PlannedFault};
use sim_net::NetFaultConfig;
use workloads::campaign::{
    run_campaign, run_lossy_explicit_case, summarize, CampaignSummary, CaseOutcome,
};
use workloads::runner::RunTuning;
use workloads::serve::Json;

pub use sim_net::campaign::{CampaignConfig, FaultDistribution};

/// One configuration's campaign result.
#[derive(Debug, Clone)]
pub struct FaultConfigRow {
    /// The aggregated campaign outcome.
    pub summary: CampaignSummary,
    /// Workload iterations each case ran.
    pub iterations: u64,
    /// First seed of the configuration's seed range.
    pub base_seed: u64,
}

/// The default campaign configurations: three crash distributions, the
/// soft-error class, and the two lossy-transport distributions (frame
/// drop/duplicate/delay up to ~5% per class, and heavy ack-only delays
/// always outlasting the retransmission timer) at dual replication, plus the
/// replica-map rows — degree-3 majority loss (fork-election must
/// mask the loss of all but one replica of a rank), degree-3 soft errors
/// (flips must be *corrected* by hash majority, not just detected), and a
/// partial-coverage crash distribution biased toward the unreplicated ranks
/// (covered ranks survive, singletons abort promptly with a typed rank-loss).
pub fn default_fault_configs(ranks: usize, iterations: u64) -> Vec<CampaignConfig> {
    // Replicate the low half of the rank space for the partial row (at least
    // one covered and, for ranks >= 2, at least one singleton rank).
    let replicated_mask = (1u64 << (ranks / 2).max(1)) - 1;
    vec![
        CampaignConfig {
            ranks,
            degree: 2,
            dist: FaultDistribution::ExponentialMtbf {
                mean_sends: 8,
                horizon_sends: iterations,
                max_crashes: 2,
            },
        },
        CampaignConfig {
            ranks,
            degree: 2,
            dist: FaultDistribution::MidCollective { max_phase: 8 },
        },
        CampaignConfig {
            ranks,
            degree: 2,
            dist: FaultDistribution::CorrelatedPairLoss {
                mean_sends: 3,
                horizon_sends: iterations.max(2),
            },
        },
        CampaignConfig {
            ranks,
            degree: 2,
            dist: FaultDistribution::SoftErrors {
                flips: 2,
                max_send: iterations,
                payload_bits: 8192,
            },
        },
        CampaignConfig {
            ranks,
            degree: 2,
            dist: FaultDistribution::LossyLinks {
                max_drop_per_64k: 3277,
                max_dup_per_64k: 3277,
                max_delay_per_64k: 3277,
            },
        },
        CampaignConfig {
            ranks,
            degree: 2,
            dist: FaultDistribution::DelayedAcks {
                max_delay_per_64k: 32_768,
                max_delay_ns: 400_000,
            },
        },
        CampaignConfig {
            ranks,
            degree: 3,
            dist: FaultDistribution::MajorityLoss {
                mean_sends: 3,
                horizon_sends: iterations.max(2),
            },
        },
        CampaignConfig {
            ranks,
            degree: 3,
            dist: FaultDistribution::SoftErrors {
                flips: 2,
                max_send: iterations,
                payload_bits: 8192,
            },
        },
        CampaignConfig {
            ranks,
            degree: 2,
            dist: FaultDistribution::UnreplicatedBias {
                replicated_mask,
                horizon_sends: iterations.max(2),
            },
        },
    ]
}

/// Fraction of ranks with a second copy under `config` — 1.0 for the uniform
/// distributions, the replicated-mask density for [`UnreplicatedBias`].
///
/// [`UnreplicatedBias`]: FaultDistribution::UnreplicatedBias
pub fn config_coverage(config: &CampaignConfig) -> f64 {
    match config.dist {
        FaultDistribution::UnreplicatedBias {
            replicated_mask, ..
        } => replicated_mask.count_ones() as f64 / config.ranks as f64,
        _ => 1.0,
    }
}

/// The drop rates (per-64k, i.e. 1%, 2.5%, 5%, 10%) of the fixed-rate lossy
/// sweep. Duplicate and delay rates ride along at half the drop rate.
pub const LOSSY_SWEEP_RATES: [u32; 4] = [655, 1638, 3277, 6554];

/// One row of the survivability / masked-delivery-overhead vs fault-rate
/// sweep: seeded cases (rotating through the NAS kernels) at one fixed
/// [`NetFaultConfig`], judged with the same masking oracle as the campaign.
#[derive(Debug, Clone)]
pub struct LossySweepRow {
    /// The fixed fault configuration of the row.
    pub config: NetFaultConfig,
    /// Aggregated case outcomes (cases, survival, net counters, overhead).
    pub summary: CampaignSummary,
}

/// Run the fixed-rate lossy sweep: `cases` seeded cases per rate in
/// [`LOSSY_SWEEP_RATES`]. Unlike the campaign configurations (which sample
/// rates up to a maximum), every case of a row runs the exact same
/// [`NetFaultConfig`] — only the policy seed and the workload rotate — so the
/// row is a true point on the overhead-vs-rate curve.
pub fn lossy_rate_sweep(
    ranks: usize,
    cases: usize,
    base_seed: u64,
    iterations: u64,
    tuning: RunTuning,
) -> Vec<LossySweepRow> {
    LOSSY_SWEEP_RATES
        .iter()
        .map(|&rate| {
            let net_config = NetFaultConfig {
                drop_per_64k: rate,
                dup_per_64k: rate / 2,
                delay_per_64k: rate / 2,
                delay_ns: 20_000,
                ack_only: false,
            };
            net_config.validate();
            let campaign_config = CampaignConfig {
                ranks,
                degree: 2,
                dist: FaultDistribution::LossyLinks {
                    max_drop_per_64k: rate,
                    max_dup_per_64k: (rate / 2).max(1),
                    max_delay_per_64k: (rate / 2).max(1),
                },
            };
            let outcomes: Vec<CaseOutcome> = (0..cases as u64)
                .map(|i| {
                    let seed = base_seed + i;
                    let plan = FaultPlan {
                        config: campaign_config,
                        seed,
                        faults: vec![PlannedFault::LossyTransport {
                            config: net_config,
                            policy_seed: seed,
                        }],
                    };
                    run_lossy_explicit_case(plan, iterations, tuning)
                })
                .collect();
            LossySweepRow {
                config: net_config,
                summary: summarize(campaign_config, &outcomes),
            }
        })
        .collect()
}

/// Run the full campaign: `seeds` seeded cases per configuration.
pub fn fault_campaign_rows(
    ranks: usize,
    seeds: usize,
    base_seed: u64,
    iterations: u64,
    tuning: RunTuning,
) -> Vec<FaultConfigRow> {
    default_fault_configs(ranks, iterations)
        .into_iter()
        .map(|config| {
            let outcomes = run_campaign(config, base_seed, seeds, iterations, tuning);
            FaultConfigRow {
                summary: summarize(config, &outcomes),
                iterations,
                base_seed,
            }
        })
        .collect()
}

/// Format the campaign results as a text table.
pub fn format_faults_table(title: &str, rows: &[FaultConfigRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{title}\n"));
    out.push_str(&format!(
        "{:<18} {:>4} {:>5} {:>6} {:>9} {:>7} {:>8} {:>10} {:>10} {:>8} {:>12} {:>8} {:>8} {:>9} {:>9}  {}\n",
        "distribution",
        "deg",
        "cov",
        "cases",
        "survive%",
        "abort%",
        "crashes",
        "sdc inj",
        "sdc det",
        "sdc cor",
        "med rec (s)",
        "dropped",
        "retx",
        "dup=sup",
        "med ovh%",
        "violations"
    ));
    for row in rows {
        let s = &row.summary;
        out.push_str(&format!(
            "{:<18} {:>4} {:>5.2} {:>6} {:>9.1} {:>7.1} {:>8} {:>10} {:>10} {:>8} {:>12.6} {:>8} {:>8} {:>9} {:>9.2}  {}\n",
            s.config.dist.name(),
            s.config.degree,
            config_coverage(&s.config),
            s.cases,
            s.survival_rate() * 100.0,
            s.abort_rate() * 100.0,
            s.crashes_injected,
            s.sdc_injected,
            s.sdc_detected,
            s.sdc_corrected,
            s.recovery_latency.median_s,
            s.net.msgs_dropped,
            s.net.retransmits,
            format!(
                "{}/{}",
                s.net.dups_suppressed, s.net.msgs_duplicated
            ),
            s.masked_overhead_median_pct,
            s.violations.len()
        ));
    }
    for row in rows {
        for v in &row.summary.violations {
            out.push_str(&format!(
                "VIOLATION {} seed {}: {}\n  replay: {}\n",
                row.summary.config.dist.name(),
                v.seed,
                v.detail,
                v.spec
            ));
        }
    }
    out
}

/// Format the fixed-rate lossy sweep as a text table.
pub fn format_lossy_sweep_table(title: &str, rows: &[LossySweepRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{title}\n"));
    out.push_str(&format!(
        "{:<10} {:>6} {:>9} {:>8} {:>8} {:>8} {:>9} {:>9} {:>9}  {}\n",
        "drop/64k",
        "cases",
        "survive%",
        "dropped",
        "retx",
        "delayed",
        "dup=sup",
        "med ovh%",
        "p90 ovh%",
        "violations"
    ));
    for row in rows {
        let s = &row.summary;
        out.push_str(&format!(
            "{:<10} {:>6} {:>9.1} {:>8} {:>8} {:>8} {:>9} {:>9.2} {:>9.2}  {}\n",
            row.config.drop_per_64k,
            s.cases,
            s.survival_rate() * 100.0,
            s.net.msgs_dropped,
            s.net.retransmits,
            s.net.msgs_delayed,
            format!("{}/{}", s.net.dups_suppressed, s.net.msgs_duplicated),
            s.masked_overhead_median_pct,
            s.masked_overhead_p90_pct,
            s.violations.len()
        ));
    }
    for row in rows {
        for v in &row.summary.violations {
            out.push_str(&format!(
                "VIOLATION drop/64k={} seed {}: {}\n  replay: {}\n",
                row.config.drop_per_64k, v.seed, v.detail, v.spec
            ));
        }
    }
    out
}

/// The transport-masking columns and the violation list the campaign rows
/// and the sweep rows share. Each violation carries its replay handle: the
/// `"spec"` string is the one-line job that reruns it under
/// `sdr_serve --queue`.
fn masking_fields(s: &CampaignSummary) -> Vec<(&'static str, Json)> {
    let mut fields = Json::counters(
        &s.net,
        &[
            "msgs_dropped",
            "msgs_duplicated",
            "msgs_delayed",
            "retransmits",
            "dups_suppressed",
        ],
    );
    let violations = s.violations.iter().map(|v| {
        Json::obj([
            ("seed", v.seed.into()),
            ("detail", v.detail.as_str().into()),
            ("spec", v.spec.as_str().into()),
        ])
    });
    fields.extend([
        (
            "masked_overhead_median_pct",
            Json::fixed(s.masked_overhead_median_pct, 4),
        ),
        (
            "masked_overhead_p90_pct",
            Json::fixed(s.masked_overhead_p90_pct, 4),
        ),
        ("violations", Json::Arr(violations.collect())),
    ]);
    fields
}

/// Serialise the campaign as the machine-readable `BENCH_faults.json` report.
pub fn faults_report_json(
    benchmark: &str,
    ranks: usize,
    seeds: usize,
    base_seed: u64,
    iterations: u64,
    rows: &[FaultConfigRow],
    sweep: &[LossySweepRow],
) -> String {
    let configs = rows.iter().map(|row| {
        let s = &row.summary;
        let lat = &s.recovery_latency;
        let mut fields = vec![
            ("dist", s.config.dist.name().into()),
            ("degree", s.config.degree.into()),
            ("coverage", Json::fixed(config_coverage(&s.config), 4)),
            ("cases", s.cases.into()),
            ("survived", s.survived.into()),
            ("aborted", s.aborted.into()),
            ("survival_rate", Json::fixed(s.survival_rate(), 4)),
            ("abort_rate", Json::fixed(s.abort_rate(), 4)),
            ("crashes_injected", s.crashes_injected.into()),
            ("sdc_injected", s.sdc_injected.into()),
            ("sdc_detected", s.sdc_detected.into()),
            ("sdc_corrected", s.sdc_corrected.into()),
            ("sdc_detection_rate", Json::fixed(s.sdc_detection_rate(), 4)),
            (
                "sdc_correction_rate",
                Json::fixed(s.sdc_correction_rate(), 4),
            ),
            (
                "recovery_latency",
                Json::obj([
                    ("samples", lat.samples.into()),
                    ("min_s", Json::fixed(lat.min_s, 6)),
                    ("median_s", Json::fixed(lat.median_s, 6)),
                    ("p90_s", Json::fixed(lat.p90_s, 6)),
                    ("max_s", Json::fixed(lat.max_s, 6)),
                ]),
            ),
        ];
        fields.extend(masking_fields(s));
        Json::obj(fields)
    });
    let sweep = sweep.iter().map(|row| {
        let s = &row.summary;
        let mut fields = vec![
            ("drop_per_64k", (row.config.drop_per_64k as u64).into()),
            ("dup_per_64k", (row.config.dup_per_64k as u64).into()),
            ("delay_per_64k", (row.config.delay_per_64k as u64).into()),
            ("delay_ns", row.config.delay_ns.into()),
            ("cases", s.cases.into()),
            ("survived", s.survived.into()),
            ("survival_rate", Json::fixed(s.survival_rate(), 4)),
        ];
        fields.extend(masking_fields(s));
        Json::obj(fields)
    });
    Json::obj([
        ("benchmark", benchmark.into()),
        ("ranks", ranks.into()),
        ("seeds_per_config", seeds.into()),
        ("base_seed", base_seed.into()),
        ("iterations", iterations.into()),
        ("configs", Json::Arr(configs.collect())),
        ("lossy_sweep", Json::Arr(sweep.collect())),
    ])
    .encode()
}

/// Parsed command line of the fault-campaign harness.
#[derive(Debug, Clone)]
pub struct FaultsArgs {
    /// Application rank count.
    pub ranks: usize,
    /// Seeded cases per configuration.
    pub seeds: usize,
    /// First seed.
    pub base_seed: u64,
    /// Workload iterations per case.
    pub iterations: u64,
    /// Execution-layer tuning.
    pub tuning: RunTuning,
    /// Where to write the machine-readable JSON report, if requested.
    pub json_path: Option<std::path::PathBuf>,
}

/// CLI parsing for `table_faults`: `--ranks N`, `--seeds N`, `--base-seed N`,
/// `--iters N`, plus the [`parse_shared_flag`] pair (`--workers N`,
/// `--json PATH`).
pub fn parse_faults_args<I: Iterator<Item = String>>(args: I) -> FaultsArgs {
    let mut parsed = FaultsArgs {
        ranks: 4,
        seeds: 25,
        base_seed: 1,
        iterations: 6,
        tuning: RunTuning::default(),
        json_path: None,
    };
    fn next_usize<I: Iterator<Item = String>>(args: &mut I, name: &str) -> usize {
        args.next()
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("{name} needs a positive integer"))
    }
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--ranks" => parsed.ranks = next_usize(&mut args, "--ranks"),
            "--seeds" => parsed.seeds = next_usize(&mut args, "--seeds"),
            "--base-seed" => parsed.base_seed = next_usize(&mut args, "--base-seed") as u64,
            "--iters" => parsed.iterations = next_usize(&mut args, "--iters") as u64,
            other
                if parse_shared_flag(
                    other,
                    &mut args,
                    &mut parsed.tuning,
                    &mut parsed.json_path,
                ) => {}
            other => panic!("unrecognised argument {other:?}"),
        }
    }
    assert!(parsed.ranks > 0 && parsed.seeds > 0 && parsed.iterations > 0);
    parsed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_campaign_rows_have_all_configs_and_json_is_shaped() {
        let rows = fault_campaign_rows(2, 2, 5, 4, RunTuning::default());
        assert_eq!(rows.len(), 9);
        let names: Vec<_> = rows.iter().map(|r| r.summary.config.dist.name()).collect();
        assert_eq!(
            names,
            vec![
                "exp-mtbf",
                "mid-collective",
                "correlated-pair",
                "sdc",
                "lossy-links",
                "delayed-acks",
                "majority-loss",
                "sdc",
                "unreplicated-bias"
            ]
        );
        let degrees: Vec<_> = rows.iter().map(|r| r.summary.config.degree).collect();
        assert_eq!(degrees, vec![2, 2, 2, 2, 2, 2, 3, 3, 2]);
        let partial = rows.last().expect("non-empty");
        assert_eq!(config_coverage(&partial.summary.config), 0.5);
        let degree3_sdc = &rows[7];
        assert_eq!(
            degree3_sdc.summary.sdc_corrected, degree3_sdc.summary.sdc_injected,
            "degree-3 hash majority must outvote every flip"
        );
        assert!(degree3_sdc.summary.sdc_injected > 0);
        for row in &rows {
            assert_eq!(row.summary.cases, 2);
            assert!(
                row.summary.violations.is_empty(),
                "{}: {:?}",
                row.summary.config.dist.name(),
                row.summary.violations
            );
        }
        let sweep = lossy_rate_sweep(2, 2, 5, 4, RunTuning::default());
        assert_eq!(sweep.len(), LOSSY_SWEEP_RATES.len());
        for row in &sweep {
            assert_eq!(
                row.summary.survival_rate(),
                1.0,
                "drop/64k={}: {:?}",
                row.config.drop_per_64k,
                row.summary.violations
            );
            assert_eq!(
                row.summary.net.dups_suppressed,
                row.summary.net.msgs_duplicated
            );
        }
        assert!(
            sweep.last().expect("non-empty").summary.net.msgs_dropped
                > sweep.first().expect("non-empty").summary.net.msgs_dropped,
            "a 10x drop rate must drop more frames than 1%"
        );
        let text = format_faults_table("Fault campaign", &rows);
        assert!(text.contains("exp-mtbf") && text.contains("lossy-links"));
        let sweep_text = format_lossy_sweep_table("Lossy sweep", &sweep);
        assert!(sweep_text.contains("655") && sweep_text.contains("6554"));
        let json = faults_report_json("table_faults", 2, 2, 5, 4, &rows, &sweep);
        assert!(json.contains("\"dist\":\"correlated-pair\""));
        assert!(json.contains("\"dist\":\"delayed-acks\""));
        assert!(json.contains("\"dist\":\"majority-loss\""));
        assert!(json.contains("\"dist\":\"unreplicated-bias\""));
        assert!(json.contains("\"degree\":3"));
        assert!(json.contains("\"coverage\":0.5"));
        assert!(json.contains("\"sdc_corrected\""));
        assert!(json.contains("\"sdc_correction_rate\""));
        assert!(json.contains("\"lossy_sweep\""));
        assert!(json.contains("\"dups_suppressed\""));
        assert!(json.contains("\"seeds_per_config\":2"));
    }

    #[test]
    fn faults_args_parse_round_trip() {
        let args = parse_faults_args(
            [
                "--ranks",
                "8",
                "--seeds",
                "50",
                "--iters",
                "10",
                "--workers",
                "2",
            ]
            .iter()
            .map(|s| s.to_string()),
        );
        assert_eq!(args.ranks, 8);
        assert_eq!(args.seeds, 50);
        assert_eq!(args.iterations, 10);
        assert_eq!(args.tuning.workers, Some(2));
    }
}
