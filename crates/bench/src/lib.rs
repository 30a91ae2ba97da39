//! # sdr-bench — harnesses that regenerate every table and figure of the paper
//!
//! Each public function reproduces one experiment from the evaluation section
//! of *Replication for Send-Deterministic MPI HPC Applications* and returns
//! the corresponding rows/series; the binaries in `src/bin/` print them in the
//! paper's format, and `EXPERIMENTS.md` records the paper-vs-measured
//! comparison.
//!
//! | function | paper artefact |
//! |---|---|
//! | [`fig7_series`] | Figure 7a (latency) and 7b (throughput) vs message size |
//! | [`table1_rows`] | Table 1: NAS BT/CG/FT/MG/SP native vs replicated |
//! | [`table2_rows`] | Table 2: HPCCG and CM1 (with `MPI_ANY_SOURCE`) |
//! | [`fig2_comparison`] | Figure 2: anonymous reception, leader-based vs send-deterministic |
//! | [`mirror_vs_parallel`] | Section 2.4: `O(q·r²)` vs `O(q·r)` message complexity |
//! | [`redmpi_detection`] | Section 2.4 / redMPI: SDC detection traffic and coverage |
//! | [`faults::fault_campaign_rows`] | Monte Carlo fault campaign (`BENCH_faults.json`) |

pub mod faults;
pub mod serve;

pub use serve::{parse_serve_args, ServeArgs, ServeMode};

pub use faults::{
    config_coverage, fault_campaign_rows, faults_report_json, format_faults_table,
    format_lossy_sweep_table, lossy_rate_sweep, parse_faults_args, FaultConfigRow, FaultsArgs,
    LossySweepRow, LOSSY_SWEEP_RATES,
};

use repl_baselines::{CorruptionSpec, LeaderFactory, MirrorFactory, RedMpiFactory, SdcReport};
use sdr_core::{native_job, replicated_job, ReplicationConfig};
use sim_mpi::{JobBuilder, ANY_SOURCE};
use sim_net::{Cluster, LogGpModel, Placement};
use std::path::PathBuf;
use std::sync::Arc;
use workloads::apps::{run_cm1, run_hpccg, AppConfig};
use workloads::nas::{run_kernel, NasConfig, NasKernel};
use workloads::netpipe::{self, NetpipePoint};
use workloads::runner::{compare, ComparisonRow, RunSide, RunTuning, WorkloadSpec};
use workloads::serve::{Json, LayoutSpec};

/// One row of the Figure 7 sweep: native and replicated measurements for a
/// message size, plus the relative performance decrease.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7Row {
    /// Message size in bytes.
    pub size: usize,
    /// Native point.
    pub native: NetpipePoint,
    /// SDR-MPI (dual replication) point.
    pub sdr: NetpipePoint,
    /// Latency increase in percent.
    pub latency_decrease_pct: f64,
    /// Throughput decrease in percent.
    pub throughput_decrease_pct: f64,
}

/// Figure 7a/7b: NetPipe latency and throughput, native Open MPI vs SDR-MPI.
pub fn fig7_series(sizes: &[usize], reps: usize) -> Vec<Fig7Row> {
    sizes
        .iter()
        .map(|&size| {
            let native = netpipe::measure(
                native_job(2).network(LogGpModel::infiniband_20g()),
                size,
                reps,
            );
            let sdr = netpipe::measure(
                replicated_job(2, ReplicationConfig::dual()).network(LogGpModel::infiniband_20g()),
                size,
                reps,
            );
            Fig7Row {
                size,
                native,
                sdr,
                latency_decrease_pct: (sdr.latency_us - native.latency_us) / native.latency_us
                    * 100.0,
                throughput_decrease_pct: (native.throughput_mbps - sdr.throughput_mbps)
                    / native.throughput_mbps
                    * 100.0,
            }
        })
        .collect()
}

/// Default Figure 7 sweep sizes (a subset of the full NetPipe ladder that
/// still spans 1 B – 4 MiB).
pub fn fig7_default_sizes() -> Vec<usize> {
    vec![1, 8, 64, 512, 4 * 1024, 64 * 1024, 1 << 20, 4 << 20]
}

/// Table 1: the five NAS-like kernels, native vs replicated under `layout`
/// (the paper's is dual replication, [`harness_layout`]`(2, 1.0)`). `tuning`
/// is the `--workers` scaling axis: 64/128/256-rank
/// configurations run through the same bounded scheduler pool as the 16-rank
/// default.
pub fn table1_rows(
    ranks: usize,
    cfg: NasConfig,
    layout: &LayoutSpec,
    tuning: RunTuning,
) -> Vec<ComparisonRow> {
    NasKernel::all()
        .iter()
        .map(|&kernel| compare_nas(kernel, ranks, cfg, layout, tuning))
        .collect()
}

fn compare_nas(
    kernel: NasKernel,
    ranks: usize,
    cfg: NasConfig,
    layout: &LayoutSpec,
    tuning: RunTuning,
) -> ComparisonRow {
    let spec = WorkloadSpec::new(kernel.name(), ranks, move |p| run_kernel(kernel, p, &cfg));
    compare(&spec, layout, tuning)
}

/// The layout the harness flags `--degree D --coverage F` select:
/// `coverage < 1.0` replicates only the first `ceil(coverage * ranks)` ranks
/// at degree 2 (`sdr_core::ReplicaMap::with_coverage`) and leaves the rest
/// as singletons; full coverage replicates every rank uniformly at `degree`.
/// The dual full layout (`degree == 2`, `coverage == 1.0`) is exactly the
/// historic Table 1 configuration, so sweep rows at that point stay
/// comparable with `BENCH_table1.json`.
pub fn harness_layout(degree: usize, coverage: f64) -> LayoutSpec {
    assert!(degree >= 2, "replication needs a degree of at least 2");
    assert!(
        coverage > 0.0 && coverage <= 1.0,
        "coverage must be in (0, 1], got {coverage}"
    );
    if coverage < 1.0 {
        assert_eq!(
            degree, 2,
            "partial replication covers its replicated ranks at degree 2"
        );
        LayoutSpec::Coverage { coverage }
    } else {
        LayoutSpec::Replicated { degree }
    }
}

/// The coverage ladder of the overhead-vs-coverage frontier
/// (`BENCH_layouts.json`).
pub const LAYOUT_SWEEP_COVERAGES: [f64; 4] = [0.25, 0.5, 0.75, 1.0];

/// The overhead-vs-coverage frontier on one kernel: degree 2 at each coverage
/// in [`LAYOUT_SWEEP_COVERAGES`] (the 1.0 point is the historic full-dual
/// Table 1 configuration), plus full replication at degree 3. Replication
/// cost must grow monotonically along the coverage ladder — each additional
/// covered rank adds replica traffic and ack round-trips — which the
/// `layout_sweep` binary asserts before writing the artifact. Each row's
/// `degree` and `coverage` are the layout the run actually had (the covered
/// *fraction of ranks*, which equals the ladder value whenever it divides
/// the rank count).
pub fn layout_sweep_points(
    ranks: usize,
    cfg: NasConfig,
    kernel: NasKernel,
    tuning: RunTuning,
) -> Vec<ComparisonRow> {
    let ladder = LAYOUT_SWEEP_COVERAGES.iter().map(|&coverage| (2, coverage));
    ladder
        .chain([(3, 1.0)])
        .map(|(degree, coverage)| {
            compare_nas(
                kernel,
                ranks,
                cfg,
                &harness_layout(degree, coverage),
                tuning,
            )
        })
        .collect()
}

/// The measurement columns a Table 1/2 row and a layout-sweep point share.
fn measurement_fields(row: &ComparisonRow) -> Vec<(&str, Json)> {
    vec![
        ("degree", row.degree.into()),
        ("coverage", Json::fixed(row.coverage, 4)),
        ("native_secs", Json::fixed(row.native_secs, 6)),
        ("replicated_secs", Json::fixed(row.replicated_secs, 6)),
        ("overhead_pct", Json::fixed(row.overhead_pct, 3)),
        ("results_match", row.results_match.into()),
        ("native_app_msgs", row.native.stats.app_msgs().into()),
        (
            "replicated_app_msgs",
            row.replicated.stats.app_msgs().into(),
        ),
        (
            "replicated_ack_msgs",
            row.replicated.stats.ack_msgs().into(),
        ),
    ]
}

/// Serialise the layout sweep as the machine-readable `BENCH_layouts.json`
/// report.
pub fn layouts_report_json(
    benchmark: &str,
    ranks: usize,
    class_name: &str,
    kernel_name: &str,
    points: &[ComparisonRow],
) -> String {
    let points = points.iter().map(|p| Json::obj(measurement_fields(p)));
    Json::obj([
        ("benchmark", benchmark.into()),
        ("ranks", ranks.into()),
        ("class", class_name.into()),
        ("kernel", kernel_name.into()),
        ("points", Json::Arr(points.collect())),
    ])
    .encode()
}

/// Table 2: HPCCG and CM1 (both with anonymous receptions), native vs dual
/// replication, under the same execution-layer tuning as [`table1_rows`].
pub fn table2_rows(ranks: usize, tuning: RunTuning) -> Vec<ComparisonRow> {
    let hpccg_cfg = AppConfig::hpccg_paper_like();
    let cm1_cfg = AppConfig::cm1_paper_like();
    let dual = harness_layout(2, 1.0);
    vec![
        compare(
            &WorkloadSpec::new("HPCCG", ranks, move |p| run_hpccg(p, &hpccg_cfg)),
            &dual,
            tuning,
        ),
        compare(
            &WorkloadSpec::new("CM1", ranks, move |p| run_cm1(p, &cm1_cfg)),
            &dual,
            tuning,
        ),
    ]
}

/// Parsed command line of the table harnesses (see [`parse_harness_args`]).
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    /// Application rank count.
    pub ranks: usize,
    /// NAS problem-size configuration.
    pub cfg: NasConfig,
    /// Canonical name of the selected class (for reports), e.g. `"s"`.
    pub class_name: String,
    /// Replication degree for the replicated runs (2 = the paper's dual).
    pub degree: usize,
    /// Fraction of ranks replicated (1.0 = full replication; < 1.0 selects
    /// the degree-2 partial layout over the first `ceil(coverage * ranks)`
    /// ranks).
    pub coverage: f64,
    /// Execution-layer tuning.
    pub tuning: RunTuning,
    /// Where to write the machine-readable JSON report, if requested.
    pub json_path: Option<PathBuf>,
}

impl HarnessArgs {
    /// The replica layout `--degree`/`--coverage` selected.
    pub fn layout(&self) -> LayoutSpec {
        harness_layout(self.degree, self.coverage)
    }
}

/// The flags every harness binary spells the same way: `--workers N`
/// (rejected below [`sim_net::sched::MIN_WORKERS`]) and `--json PATH`.
/// Consumes `flag`'s value from `args` and returns `true` if `flag` is one
/// of them.
pub fn parse_shared_flag<I: Iterator<Item = String>>(
    flag: &str,
    args: &mut I,
    tuning: &mut RunTuning,
    json_path: &mut Option<PathBuf>,
) -> bool {
    match flag {
        "--workers" => {
            let w: usize = args
                .next()
                .and_then(|s| s.parse().ok())
                .expect("--workers needs a positive integer");
            assert!(
                w >= sim_net::sched::MIN_WORKERS,
                "--workers needs an integer >= {}",
                sim_net::sched::MIN_WORKERS
            );
            if w == 1 {
                eprintln!(
                    "note: --workers 1 runs the deterministic single-permit replay \
                     mode (slowest, but two identical runs schedule identically)"
                );
            }
            tuning.workers = Some(w);
        }
        "--json" => {
            let path = args.next().expect("--json needs a file path");
            *json_path = Some(PathBuf::from(path));
        }
        _ => return false,
    }
    true
}

/// Shared CLI parsing for the table harnesses: `--ranks N`, `--class
/// s|test|d`, `--degree N` (replication degree, default 2), `--coverage F`
/// (fraction of ranks replicated, default 1.0; `< 1.0` runs the degree-2
/// partial layout), the [`parse_shared_flag`] pair — `--workers N` and
/// `--json PATH` (machine-readable report, uploaded as a CI artifact) —
/// plus a bare positional rank count for backwards compatibility.
pub fn parse_harness_args<I: Iterator<Item = String>>(
    args: I,
    default_ranks: usize,
) -> HarnessArgs {
    let mut parsed = HarnessArgs {
        ranks: default_ranks,
        cfg: NasConfig::class_d_like(),
        class_name: "d".to_string(),
        degree: 2,
        coverage: 1.0,
        tuning: RunTuning::default(),
        json_path: None,
    };
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--ranks" => {
                parsed.ranks = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--ranks needs a positive integer");
            }
            "--class" => {
                let name = args.next().expect("--class needs a class name");
                parsed.cfg = NasConfig::from_class_name(&name)
                    .unwrap_or_else(|| panic!("unknown NAS class {name:?} (use s, test or d)"));
                parsed.class_name = name.to_ascii_lowercase();
            }
            "--degree" => {
                parsed.degree = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--degree needs an integer >= 2");
            }
            "--coverage" => {
                parsed.coverage = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--coverage needs a number in (0, 1]");
            }
            other
                if parse_shared_flag(
                    other,
                    &mut args,
                    &mut parsed.tuning,
                    &mut parsed.json_path,
                ) => {}
            other => {
                if let Ok(n) = other.parse() {
                    parsed.ranks = n;
                } else {
                    panic!("unrecognised argument {other:?}");
                }
            }
        }
    }
    assert!(parsed.ranks > 0, "rank count must be positive");
    // Range-checks `--degree`/`--coverage` and their combination.
    parsed.layout();
    parsed
}

/// Result of the Figure 2 comparison: wall-clock time of an anonymous
/// reception benchmark under the leader-based protocol vs SDR-MPI.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig2Row {
    /// Number of request/reply rounds measured.
    pub rounds: usize,
    /// Elapsed virtual seconds with the leader-based protocol.
    pub leader_secs: f64,
    /// Elapsed virtual seconds with SDR-MPI.
    pub sdr_secs: f64,
    /// Leader decision messages exchanged.
    pub decision_msgs: u64,
    /// Advantage of send-determinism, in percent of leader time.
    pub improvement_pct: f64,
}

fn anon_reception_app(
    rounds: usize,
) -> impl Fn(&mut sim_mpi::Process) -> f64 + Send + Sync + Clone {
    move |p: &mut sim_mpi::Process| {
        let world = p.world();
        if p.rank() == 0 {
            for _ in 0..rounds {
                let (status, _) = p.recv_bytes(world, ANY_SOURCE, 1);
                p.send_u64s(world, status.source, 2, &[1]);
            }
        } else {
            for i in 0..rounds as u64 {
                p.send_u64s(world, 0, 1, &[i]);
                let _ = p.recv_u64s(world, 0, 2);
            }
        }
        p.now().as_secs_f64()
    }
}

/// Figure 2: handling an anonymous reception with (left) and without (right) a
/// leader, measured as the elapsed time of a request/reply loop over
/// `MPI_ANY_SOURCE`.
pub fn fig2_comparison(rounds: usize) -> Fig2Row {
    let cfg = ReplicationConfig::dual();
    let app = anon_reception_app(rounds);
    let leader = JobBuilder::new(2)
        .network(LogGpModel::infiniband_20g())
        .protocol(Arc::new(LeaderFactory::new(cfg)))
        .cluster(Cluster::new(4, 1))
        .placement(Placement::ReplicaSets {
            ranks: 2,
            degree: 2,
        })
        .run(app.clone());
    let sdr = replicated_job(2, cfg)
        .network(LogGpModel::infiniband_20g())
        .run(app);
    assert!(leader.all_finished() && sdr.all_finished());
    let leader_secs = leader.elapsed.as_secs_f64();
    let sdr_secs = sdr.elapsed.as_secs_f64();
    Fig2Row {
        rounds,
        leader_secs,
        sdr_secs,
        decision_msgs: leader.stats.control_msgs(),
        improvement_pct: (leader_secs - sdr_secs) / leader_secs * 100.0,
    }
}

/// Message-complexity comparison between the mirror and parallel protocols.
#[derive(Debug, Clone, PartialEq)]
pub struct MirrorRow {
    /// Replication degree.
    pub degree: usize,
    /// Application messages in the native run.
    pub native_app_msgs: u64,
    /// Application messages with the parallel protocol (SDR-MPI).
    pub parallel_app_msgs: u64,
    /// Protocol acks with the parallel protocol.
    pub parallel_ack_msgs: u64,
    /// Application messages with the mirror protocol.
    pub mirror_app_msgs: u64,
    /// Elapsed seconds, parallel protocol.
    pub parallel_secs: f64,
    /// Elapsed seconds, mirror protocol.
    pub mirror_secs: f64,
}

/// Section 2.4: mirror (`O(q·r²)`) vs parallel (`O(q·r)`) message complexity
/// on a halo-exchange workload.
pub fn mirror_vs_parallel(ranks: usize, degree: usize, iterations: usize) -> MirrorRow {
    let app = move |p: &mut sim_mpi::Process| {
        let world = p.world();
        for _ in 0..iterations {
            let peer = (p.rank() + 1) % p.size();
            let from = (p.rank() + p.size() - 1) % p.size();
            p.sendrecv_bytes(
                world,
                peer,
                0,
                bytes::Bytes::from(vec![7u8; 2048]),
                from as i64,
                0,
            );
        }
        p.now().as_secs_f64()
    };
    let native = native_job(ranks)
        .network(LogGpModel::infiniband_20g())
        .run(app);
    let parallel = replicated_job(ranks, ReplicationConfig::with_degree(degree))
        .network(LogGpModel::infiniband_20g())
        .run(app);
    let mirror = JobBuilder::new(ranks)
        .network(LogGpModel::infiniband_20g())
        .protocol(Arc::new(MirrorFactory::new(degree)))
        .cluster(Cluster::new(ranks * degree, 1))
        .placement(Placement::ReplicaSets { ranks, degree })
        .run(app);
    assert!(native.all_finished() && parallel.all_finished() && mirror.all_finished());
    MirrorRow {
        degree,
        native_app_msgs: native.stats.app_msgs(),
        parallel_app_msgs: parallel.stats.app_msgs(),
        parallel_ack_msgs: parallel.stats.ack_msgs(),
        mirror_app_msgs: mirror.stats.app_msgs(),
        parallel_secs: parallel.elapsed.as_secs_f64(),
        mirror_secs: mirror.elapsed.as_secs_f64(),
    }
}

/// redMPI ablation result.
#[derive(Debug, Clone, PartialEq)]
pub struct RedMpiRow {
    /// Whether a corruption was injected.
    pub corrupted: bool,
    /// Hash messages exchanged.
    pub hash_msgs: u64,
    /// Hash comparisons performed.
    pub comparisons: u64,
    /// Mismatches (detections).
    pub detections: u64,
    /// Elapsed seconds under the redMPI-style protocol.
    pub redmpi_secs: f64,
    /// Elapsed seconds under SDR-MPI for the same workload.
    pub sdr_secs: f64,
}

/// redMPI-style SDC detection: traffic overhead and detection of an injected
/// bit flip.
pub fn redmpi_detection(ranks: usize, iterations: usize, inject: bool) -> RedMpiRow {
    let app = move |p: &mut sim_mpi::Process| {
        let world = p.world();
        for i in 0..iterations as u64 {
            let peer = (p.rank() + 1) % p.size();
            let from = (p.rank() + p.size() - 1) % p.size();
            p.sendrecv_bytes(
                world,
                peer,
                3,
                bytes::Bytes::from(vec![(i % 251) as u8; 1024]),
                from as i64,
                3,
            );
        }
        p.now().as_secs_f64()
    };
    let report = SdcReport::new();
    let mut factory = RedMpiFactory::dual(Arc::clone(&report));
    if inject {
        factory = factory.with_corruption(CorruptionSpec {
            replica: 1,
            src_rank: 0,
            dst_rank: 1,
            seq: (iterations / 2) as u64,
        });
    }
    let redmpi = JobBuilder::new(ranks)
        .network(LogGpModel::infiniband_20g())
        .protocol(Arc::new(factory))
        .cluster(Cluster::new(ranks * 2, 1))
        .placement(Placement::ReplicaSets { ranks, degree: 2 })
        .run(app);
    let sdr = replicated_job(ranks, ReplicationConfig::dual())
        .network(LogGpModel::infiniband_20g())
        .run(app);
    assert!(redmpi.all_finished() && sdr.all_finished());
    RedMpiRow {
        corrupted: inject,
        hash_msgs: redmpi.stats.hash_msgs(),
        comparisons: report.comparisons(),
        detections: report.mismatches(),
        redmpi_secs: redmpi.elapsed.as_secs_f64(),
        sdr_secs: sdr.elapsed.as_secs_f64(),
    }
}

/// Format a row set — Table 1, Table 2, or the layout sweep's points — in the
/// paper's layout, plus the replicated run's message counts (what the
/// sweep's coverage ladder is read off).
pub fn format_comparison_table(title: &str, rows: &[ComparisonRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{title}\n"));
    out.push_str(&format!(
        "{:<8} {:>6} {:>8} {:>14} {:>16} {:>12} {:>12} {:>12}  {}\n",
        "",
        "degree",
        "coverage",
        "Native (s)",
        "Replicated (s)",
        "Overhead (%)",
        "app msgs",
        "ack msgs",
        "results"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:<8} {:>6} {:>8.2} {:>14.3} {:>16.3} {:>12.2} {:>12} {:>12}  {}\n",
            row.name,
            row.degree,
            row.coverage,
            row.native_secs,
            row.replicated_secs,
            row.overhead_pct,
            row.replicated.stats.app_msgs(),
            row.replicated.stats.ack_msgs(),
            if row.results_match {
                "match"
            } else {
                "MISMATCH"
            }
        ));
    }
    out
}

/// Fold both runs of every row into one [`RunSide`]: fabric counters merge
/// through the counter table (sums; the stack peak, a gauge, takes the
/// maximum), thread churn and host seconds add, and `workers` is the largest
/// pool seen.
fn totals(rows: &[ComparisonRow]) -> RunSide {
    rows.iter()
        .flat_map(|row| [row.native, row.replicated])
        .reduce(|a, b| RunSide {
            stats: a.stats.merged(&b.stats),
            threads_spawned: a.threads_spawned + b.threads_spawned,
            threads_reused: a.threads_reused + b.threads_reused,
            workers: a.workers.max(b.workers),
            host_secs: a.host_secs + b.host_secs,
        })
        .expect("a report has at least one row")
}

/// Wakes the scheduler would have issued at one per delivery, per wake that
/// actually unparked a process (`None` when no wake ever took the slow path:
/// the reduction is unbounded, not a number).
fn wake_reduction(t: &sim_net::StatsSnapshot) -> Option<f64> {
    (t.wakes_issued != 0)
        .then(|| (t.wakes_issued + t.wakes_suppressed) as f64 / t.wakes_issued as f64)
}

/// Format the delivery-layer summary of a row set: scheduler wakes actually
/// issued vs one per delivery, the direct-handoff dispatch split, and
/// worker-thread and stack churn.
pub fn format_delivery_summary(rows: &[ComparisonRow]) -> String {
    let side = totals(rows);
    let t = &side.stats;
    format!(
        "delivery: {} wakes issued, {} suppressed \
         ({:.2}x fewer than one per delivery)\n\
         dispatch: {} handoffs direct vs {} cold \
         ({:.1}% direct); threads: {} spawned, {} reused\n\
         carriers: {} stack switches, {} stacks leased \
         ({} fresh, {} reused), pool peak {:.1} MiB\n",
        t.wakes_issued,
        t.wakes_suppressed,
        wake_reduction(t).unwrap_or(f64::INFINITY),
        t.handoffs,
        t.condvar_waits,
        t.direct_dispatch_fraction() * 100.0,
        side.threads_spawned,
        side.threads_reused,
        t.stack_switches,
        t.stacks_allocated + t.stacks_reused,
        t.stacks_allocated,
        t.stacks_reused,
        t.stack_bytes_peak as f64 / (1024.0 * 1024.0),
    )
}

/// The wake, dispatch and stack counters both the per-run delivery objects
/// and the totals of a table report carry.
const EXECUTION_COUNTERS: [&str; 8] = [
    "wakes_issued",
    "wakes_suppressed",
    "handoffs",
    "condvar_waits",
    "stack_switches",
    "stacks_allocated",
    "stacks_reused",
    "stack_bytes_peak",
];

fn side_fields(side: &RunSide) -> Vec<(&'static str, Json)> {
    let mut fields = Json::counters(&side.stats, &EXECUTION_COUNTERS);
    fields.extend([
        ("threads_spawned", side.threads_spawned.into()),
        ("threads_reused", side.threads_reused.into()),
        ("workers", side.workers.into()),
    ]);
    fields
}

/// Serialise a Table-1/2-style row set as the machine-readable benchmark
/// report (`BENCH_table1.json` in CI).
pub fn table_report_json(
    benchmark: &str,
    ranks: usize,
    class_name: &str,
    rows: &[ComparisonRow],
) -> String {
    let delivery = |side: &RunSide| {
        let mut fields = side_fields(side);
        fields.push(("host_secs", Json::fixed(side.host_secs, 3)));
        Json::obj(fields)
    };
    let rows_json = rows.iter().map(|row| {
        let mut fields = vec![("name", row.name.as_str().into())];
        fields.extend(measurement_fields(row));
        fields.extend([
            ("native_delivery", delivery(&row.native)),
            ("replicated_delivery", delivery(&row.replicated)),
        ]);
        Json::obj(fields)
    });
    let side = totals(rows);
    let t = &side.stats;
    let mut total_fields = side_fields(&side);
    total_fields.extend([
        // Null when unbounded, so artifact consumers don't record a bogus
        // value.
        (
            "wake_reduction_factor",
            wake_reduction(t).map_or(Json::Null, |r| Json::fixed(r, 3)),
        ),
        (
            "direct_dispatch_fraction",
            Json::fixed(t.direct_dispatch_fraction(), 4),
        ),
    ]);
    Json::obj([
        ("benchmark", benchmark.into()),
        ("ranks", ranks.into()),
        ("class", class_name.into()),
        ("rows", Json::Arr(rows_json.collect())),
        ("totals", Json::obj(total_fields)),
    ])
    .encode()
}

/// Format the Figure 7 series as a text table (one row per size).
pub fn format_fig7(rows: &[Fig7Row]) -> String {
    let mut out = String::new();
    out.push_str("Figure 7: NetPipe latency / throughput, Open MPI (native) vs SDR-MPI\n");
    out.push_str(&format!(
        "{:>10} {:>15} {:>13} {:>9} {:>16} {:>13} {:>9}\n",
        "size(B)",
        "lat native(us)",
        "lat SDR(us)",
        "decr(%)",
        "bw native(Mb/s)",
        "bw SDR(Mb/s)",
        "decr(%)"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:>10} {:>15.2} {:>13.2} {:>9.1} {:>16.0} {:>13.0} {:>9.1}\n",
            r.size,
            r.native.latency_us,
            r.sdr.latency_us,
            r.latency_decrease_pct,
            r.native.throughput_mbps,
            r.sdr.throughput_mbps,
            r.throughput_decrease_pct
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_small_sweep_has_expected_shape() {
        let rows = fig7_series(&[1, 65536], 6);
        assert_eq!(rows.len(), 2);
        // Small messages: noticeable latency overhead. Large: negligible.
        assert!(rows[0].latency_decrease_pct > 5.0);
        assert!(rows[1].latency_decrease_pct < 5.0);
        assert!(rows[1].native.throughput_mbps > rows[0].native.throughput_mbps);
    }

    #[test]
    fn fig2_leader_slower_than_sdr() {
        let row = fig2_comparison(10);
        assert!(row.leader_secs > row.sdr_secs);
        assert!(row.improvement_pct > 0.0);
        assert_eq!(row.decision_msgs, 10);
    }

    #[test]
    fn mirror_blowup_matches_theory() {
        let row = mirror_vs_parallel(3, 2, 4);
        assert_eq!(row.parallel_app_msgs, row.native_app_msgs * 2);
        assert_eq!(row.mirror_app_msgs, row.native_app_msgs * 4);
        assert!(row.parallel_ack_msgs > 0);
    }

    #[test]
    fn redmpi_detects_injected_corruption() {
        let clean = redmpi_detection(2, 6, false);
        assert_eq!(clean.detections, 0);
        assert!(clean.comparisons > 0);
        assert!(clean.hash_msgs > 0);
        let corrupted = redmpi_detection(2, 6, true);
        assert!(corrupted.detections >= 1);
    }

    #[test]
    fn formatting_helpers_mention_rows() {
        let rows = table1_rows(
            4,
            NasConfig::test_size(),
            &harness_layout(2, 1.0),
            RunTuning::default(),
        );
        let text = format_comparison_table("Table 1", &rows);
        for k in ["BT", "CG", "FT", "MG", "SP"] {
            assert!(text.contains(k));
        }
        assert!(text.contains("Overhead"));
        assert!(text.contains("coverage"));
        let json = table_report_json("table1_nas", 4, "test", &rows);
        assert!(json.contains("\"degree\":2"));
        assert!(json.contains("\"coverage\":1.0"));
    }

    #[test]
    fn harness_args_accept_degree_and_coverage() {
        let args = parse_harness_args(
            ["--ranks", "8", "--degree", "3"]
                .iter()
                .map(|s| s.to_string()),
            16,
        );
        assert_eq!((args.ranks, args.degree), (8, 3));
        assert_eq!(args.coverage, 1.0);
        let args = parse_harness_args(["--coverage", "0.5"].iter().map(|s| s.to_string()), 16);
        assert_eq!((args.degree, args.coverage), (2, 0.5));
        assert_eq!(args.layout(), LayoutSpec::Coverage { coverage: 0.5 });
    }

    /// Every binary's parser must refuse `--workers 0` and a flag it does
    /// not know (for `sdr_serve`, which has no tuning flags at all, both as
    /// unrecognised arguments).
    #[test]
    fn every_parser_rejects_zero_workers_and_unknown_flags() {
        type Parser = fn(Vec<String>);
        let parsers: [(&str, Parser); 3] = [
            ("table harnesses", |a| {
                parse_harness_args(a.into_iter(), 16);
            }),
            ("table_faults", |a| {
                parse_faults_args(a.into_iter());
            }),
            ("sdr_serve", |a| {
                parse_serve_args(a.into_iter());
            }),
        ];
        for (binary, parse) in parsers {
            for bad in [["--workers", "0"], ["--fibers", "on"]] {
                let args: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
                let rejected = std::panic::catch_unwind(move || parse(args)).is_err();
                assert!(rejected, "{binary} accepted {bad:?}");
            }
        }
    }

    #[test]
    fn layout_sweep_overhead_grows_with_coverage() {
        let points = layout_sweep_points(
            4,
            NasConfig::test_size(),
            NasKernel::Cg,
            RunTuning::default(),
        );
        assert_eq!(points.len(), LAYOUT_SWEEP_COVERAGES.len() + 1);
        for p in &points {
            assert!(
                p.results_match,
                "degree {} coverage {}",
                p.degree, p.coverage
            );
        }
        // Each additional covered rank adds replica traffic, so the message
        // count climbs exactly and the virtual-time overhead climbs up to
        // run-to-run scheduling drift.
        for w in points[..LAYOUT_SWEEP_COVERAGES.len()].windows(2) {
            assert!(
                w[0].replicated.stats.app_msgs() < w[1].replicated.stats.app_msgs(),
                "coverage {} -> {} must add replica traffic",
                w[0].coverage,
                w[1].coverage
            );
            assert!(
                w[1].overhead_pct >= w[0].overhead_pct - 1.0,
                "coverage {} -> {} must not get cheaper",
                w[0].coverage,
                w[1].coverage
            );
        }
        // Degree 3 sends one more copy of everything than full dual.
        let dual_full = &points[LAYOUT_SWEEP_COVERAGES.len() - 1];
        let triple = points.last().unwrap();
        assert_eq!(triple.degree, 3);
        assert!(triple.replicated.stats.app_msgs() > dual_full.replicated.stats.app_msgs());
        let json = layouts_report_json("layout_sweep", 4, "test", "CG", &points);
        assert!(json.contains("\"coverage\":0.25"));
        assert!(json.contains("\"degree\":3"));
        let text = format_comparison_table("Layout sweep", &points);
        assert!(text.contains("match"));
    }
}
