//! Service-mode benchmark: sustained job throughput and tail latency of the
//! `sdr-serve` server under the standard heavy mixed queue.
//!
//! Methodology follows the paired-rounds convention of the other harnesses
//! (see `EXPERIMENTS.md`): each round serves the *same* queue twice,
//! interleaved — once at the configured concurrency (A) and once serially at
//! concurrency 1 (B) — so host noise hits both sides alike. The report takes
//! medians over rounds and carries min/max dispersion; per-job tail latency
//! is the p99 order statistic of the concurrent run's per-job host
//! latencies, again medianed over rounds (all through the harnesses' one
//! order-statistic helper, `LatencyStats::from_samples`).
//! `serve_report_json` writes the machine-readable `BENCH_serve.json`
//! artifact CI uploads.

use crate::parse_shared_flag;
use std::time::Instant;
use workloads::campaign::LatencyStats;
use workloads::serve::{mixed_queue, serve, Json, ServeConfig, ServeEvent, Submission};

/// Configuration of one service-mode benchmark run.
#[derive(Debug, Clone, Copy)]
pub struct ServeBenchConfig {
    /// Jobs per queue (the mixed queue rotates through six shapes, so 12
    /// covers every shape twice).
    pub jobs: usize,
    /// Paired A/B rounds to run.
    pub rounds: usize,
    /// Concurrency of the A side (the B side is always 1).
    pub max_concurrent: usize,
    /// Base seed of the mixed queue.
    pub seed: u64,
}

impl Default for ServeBenchConfig {
    fn default() -> Self {
        ServeBenchConfig {
            jobs: 12,
            rounds: 5,
            max_concurrent: 4,
            seed: 40,
        }
    }
}

/// One paired round: the same queue served concurrently and serially.
#[derive(Debug, Clone, Copy)]
pub struct ServeBenchRound {
    /// Wall-clock seconds of the concurrent (A) pass.
    pub concurrent_secs: f64,
    /// Wall-clock seconds of the serial (B) pass.
    pub serial_secs: f64,
    /// Sustained throughput of the A pass, jobs per minute.
    pub concurrent_jobs_per_minute: f64,
    /// Sustained throughput of the B pass, jobs per minute.
    pub serial_jobs_per_minute: f64,
    /// p99 per-job latency of the A pass, seconds (order statistic over the
    /// queue's per-job host latencies).
    pub p99_latency_s: f64,
    /// Slowest single job of the A pass, seconds.
    pub max_latency_s: f64,
    /// Jobs that ended `aborted` in the A pass (the mixed queue plants
    /// guaranteed `RankLost` aborts, so this is nonzero by design and must
    /// be identical every round).
    pub aborted: usize,
    /// Jobs that ended `deadlocked` or `failed` in the A pass (must be 0).
    pub failed: usize,
}

/// The benchmark report: per-round data plus the medians and dispersion the
/// artifact gates on.
#[derive(Debug, Clone)]
pub struct ServeBenchReport {
    /// Jobs per queue.
    pub jobs: usize,
    /// Concurrency of the A side.
    pub max_concurrent: usize,
    /// Base seed of the mixed queue.
    pub seed: u64,
    /// The paired rounds, in execution order.
    pub rounds: Vec<ServeBenchRound>,
    /// Median sustained throughput at the configured concurrency.
    pub median_concurrent_jpm: f64,
    /// Dispersion floor of the concurrent throughput.
    pub min_concurrent_jpm: f64,
    /// Dispersion ceiling of the concurrent throughput.
    pub max_concurrent_jpm: f64,
    /// Median sustained throughput of the serial baseline.
    pub median_serial_jpm: f64,
    /// Median over rounds of the per-round p99 job latency, seconds.
    pub median_p99_latency_s: f64,
    /// Concurrent-over-serial throughput ratio of the medians.
    pub speedup: f64,
}

/// Serve the queue once at the given concurrency; returns (wall seconds,
/// per-job latencies, aborted, failed) — the last two as the server itself
/// counted them.
fn one_pass(specs: &[workloads::JobSpec], max_concurrent: usize) -> (f64, Vec<f64>, usize, usize) {
    let submissions: Vec<Submission> = specs.iter().cloned().map(Submission::Spec).collect();
    let started = Instant::now();
    let mut latencies = Vec::with_capacity(specs.len());
    let summary = serve(submissions, ServeConfig { max_concurrent }, |event| {
        if let ServeEvent::Completed(record) = event {
            latencies.push(record.host.latency_s);
        }
    });
    assert_eq!(summary.rejected, 0, "the mixed queue is pre-validated");
    assert_eq!(summary.completed, specs.len(), "every job must complete");
    let host_secs = started.elapsed().as_secs_f64();
    (host_secs, latencies, summary.aborted, summary.failed)
}

/// Run the paired-rounds benchmark.
pub fn serve_bench(cfg: ServeBenchConfig) -> ServeBenchReport {
    assert!(cfg.rounds >= 1, "need at least one round");
    let specs = mixed_queue(cfg.jobs, cfg.seed);
    let mut rounds = Vec::with_capacity(cfg.rounds);
    for _ in 0..cfg.rounds {
        // A: configured concurrency.
        let (concurrent_secs, latencies, aborted, failed) =
            one_pass(&specs, cfg.max_concurrent.max(1));
        // B: serial baseline, interleaved so host noise hits both alike.
        let (serial_secs, _, _, _) = one_pass(&specs, 1);
        let latency = LatencyStats::from_samples(latencies);
        rounds.push(ServeBenchRound {
            concurrent_secs,
            serial_secs,
            concurrent_jobs_per_minute: cfg.jobs as f64 / concurrent_secs * 60.0,
            serial_jobs_per_minute: cfg.jobs as f64 / serial_secs * 60.0,
            p99_latency_s: latency.p99_s,
            max_latency_s: latency.max_s,
            aborted,
            failed,
        });
    }
    let over_rounds = |column: fn(&ServeBenchRound) -> f64| {
        LatencyStats::from_samples(rounds.iter().map(column).collect())
    };
    let concurrent_jpm = over_rounds(|r| r.concurrent_jobs_per_minute);
    let median_serial_jpm = over_rounds(|r| r.serial_jobs_per_minute).median_s;
    let median_p99_latency_s = over_rounds(|r| r.p99_latency_s).median_s;
    ServeBenchReport {
        jobs: cfg.jobs,
        max_concurrent: cfg.max_concurrent.max(1),
        seed: cfg.seed,
        rounds,
        median_concurrent_jpm: concurrent_jpm.median_s,
        min_concurrent_jpm: concurrent_jpm.min_s,
        max_concurrent_jpm: concurrent_jpm.max_s,
        median_serial_jpm,
        median_p99_latency_s,
        speedup: concurrent_jpm.median_s / median_serial_jpm,
    }
}

/// Format the benchmark as a text table.
pub fn format_serve_table(title: &str, report: &ServeBenchReport) -> String {
    let mut out = String::new();
    out.push_str(&format!("{title}\n"));
    out.push_str(&format!(
        "{:>6} {:>12} {:>12} {:>12} {:>12} {:>10} {:>8} {:>7}\n",
        "round",
        "conc (s)",
        "serial (s)",
        "conc j/min",
        "serial j/min",
        "p99 (s)",
        "aborted",
        "failed"
    ));
    for (i, r) in report.rounds.iter().enumerate() {
        out.push_str(&format!(
            "{:>6} {:>12.3} {:>12.3} {:>12.1} {:>12.1} {:>10.3} {:>8} {:>7}\n",
            i + 1,
            r.concurrent_secs,
            r.serial_secs,
            r.concurrent_jobs_per_minute,
            r.serial_jobs_per_minute,
            r.p99_latency_s,
            r.aborted,
            r.failed
        ));
    }
    out.push_str(&format!(
        "median: {:.1} jobs/min at {} in flight ({:.1}–{:.1} over rounds), \
         {:.1} jobs/min serial, speedup {:.2}x, median p99 job latency {:.3} s\n",
        report.median_concurrent_jpm,
        report.max_concurrent,
        report.min_concurrent_jpm,
        report.max_concurrent_jpm,
        report.median_serial_jpm,
        report.speedup,
        report.median_p99_latency_s
    ));
    out
}

/// Serialise the benchmark as the machine-readable `BENCH_serve.json` report.
pub fn serve_report_json(benchmark: &str, report: &ServeBenchReport) -> String {
    let rounds = report.rounds.iter().map(|r| {
        Json::obj([
            ("concurrent_secs", Json::fixed(r.concurrent_secs, 6)),
            ("serial_secs", Json::fixed(r.serial_secs, 6)),
            (
                "concurrent_jobs_per_minute",
                Json::fixed(r.concurrent_jobs_per_minute, 3),
            ),
            (
                "serial_jobs_per_minute",
                Json::fixed(r.serial_jobs_per_minute, 3),
            ),
            ("p99_latency_s", Json::fixed(r.p99_latency_s, 6)),
            ("max_latency_s", Json::fixed(r.max_latency_s, 6)),
            ("aborted", r.aborted.into()),
            ("failed", r.failed.into()),
        ])
    });
    Json::obj([
        ("benchmark", benchmark.into()),
        ("jobs", report.jobs.into()),
        ("max_concurrent", report.max_concurrent.into()),
        ("seed", report.seed.into()),
        ("rounds", Json::Arr(rounds.collect())),
        (
            "totals",
            Json::obj([
                (
                    "median_concurrent_jobs_per_minute",
                    Json::fixed(report.median_concurrent_jpm, 3),
                ),
                (
                    "min_concurrent_jobs_per_minute",
                    Json::fixed(report.min_concurrent_jpm, 3),
                ),
                (
                    "max_concurrent_jobs_per_minute",
                    Json::fixed(report.max_concurrent_jpm, 3),
                ),
                (
                    "median_serial_jobs_per_minute",
                    Json::fixed(report.median_serial_jpm, 3),
                ),
                (
                    "median_p99_latency_s",
                    Json::fixed(report.median_p99_latency_s, 6),
                ),
                ("speedup", Json::fixed(report.speedup, 3)),
            ]),
        ),
    ])
    .encode()
}

/// Parsed command line of the `sdr_serve` binary (see [`parse_serve_args`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// What the binary should do.
    pub mode: ServeMode,
    /// Queue file for serve mode (stdin when absent).
    pub queue: Option<std::path::PathBuf>,
    /// Jobs in flight at once.
    pub max_jobs: usize,
    /// Mixed-queue base seed (self-test and bench modes).
    pub seed: u64,
    /// Mixed-queue length (self-test and bench modes).
    pub jobs: usize,
    /// Paired rounds (bench mode).
    pub rounds: usize,
    /// Machine-readable report path (bench mode).
    pub json_path: Option<std::path::PathBuf>,
    /// Report-stream path for serve mode (stdout when absent).
    pub out_path: Option<std::path::PathBuf>,
}

/// Which top-level mode `sdr_serve` runs in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeMode {
    /// Serve a queue of JSON job specs, streaming one report line per job.
    Serve,
    /// Run the per-job isolation gate over the standard mixed queue.
    SelfTest,
    /// Run the paired-rounds throughput/latency benchmark.
    Bench,
}

/// Shared CLI parsing for the service binary: `--queue PATH` (serve mode
/// input; stdin if omitted), `--max-jobs N` (concurrency, default 4),
/// `--self-test N` (isolation gate over an N-job mixed queue), `--bench`
/// (paired-rounds benchmark), `--jobs N` / `--rounds N` / `--seed N`
/// (bench/self-test queue shape), `--json PATH` (bench report artifact, the
/// one [`parse_shared_flag`] flag this binary takes — jobs carry their own
/// execution-layer tuning in their specs), `--out PATH` (serve-mode report
/// stream).
pub fn parse_serve_args<I: Iterator<Item = String>>(args: I) -> ServeArgs {
    let mut parsed = ServeArgs {
        mode: ServeMode::Serve,
        queue: None,
        max_jobs: 4,
        seed: 40,
        jobs: 12,
        rounds: 5,
        json_path: None,
        out_path: None,
    };
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--queue" => {
                let path = args.next().expect("--queue needs a file path");
                parsed.queue = Some(std::path::PathBuf::from(path));
            }
            "--max-jobs" => {
                let n: usize = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--max-jobs needs a positive integer");
                assert!(n >= 1, "--max-jobs needs a positive integer");
                parsed.max_jobs = n;
            }
            "--self-test" => {
                parsed.mode = ServeMode::SelfTest;
                parsed.jobs = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--self-test needs a job count");
                assert!(parsed.jobs >= 1, "--self-test needs a positive job count");
            }
            "--bench" => parsed.mode = ServeMode::Bench,
            "--jobs" => {
                parsed.jobs = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--jobs needs a positive integer");
                assert!(parsed.jobs >= 1, "--jobs needs a positive integer");
            }
            "--rounds" => {
                parsed.rounds = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--rounds needs a positive integer");
                assert!(parsed.rounds >= 1, "--rounds needs a positive integer");
            }
            "--seed" => {
                parsed.seed = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--seed needs an unsigned integer");
            }
            "--out" => {
                let path = args.next().expect("--out needs a file path");
                parsed.out_path = Some(std::path::PathBuf::from(path));
            }
            other if parse_shared_flag(other, &mut args, None, &mut parsed.json_path) => {}
            other => panic!("unrecognised argument {other:?}"),
        }
    }
    parsed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_args_parse_every_mode() {
        let args = parse_serve_args(
            ["--queue", "q.jsonl", "--max-jobs", "8", "--out", "r.jsonl"]
                .iter()
                .map(|s| s.to_string()),
        );
        assert_eq!(args.mode, ServeMode::Serve);
        assert_eq!(args.max_jobs, 8);
        assert!(args.queue.is_some() && args.out_path.is_some());
        let args = parse_serve_args(["--self-test", "6"].iter().map(|s| s.to_string()));
        assert_eq!((args.mode, args.jobs), (ServeMode::SelfTest, 6));
        let args = parse_serve_args(
            [
                "--bench", "--jobs", "9", "--rounds", "3", "--json", "b.json",
            ]
            .iter()
            .map(|s| s.to_string()),
        );
        assert_eq!(args.mode, ServeMode::Bench);
        assert_eq!((args.jobs, args.rounds), (9, 3));
        assert!(args.json_path.is_some());
    }

    #[test]
    fn small_bench_round_trip() {
        let report = serve_bench(ServeBenchConfig {
            jobs: 6,
            rounds: 1,
            max_concurrent: 3,
            seed: 40,
        });
        assert_eq!(report.rounds.len(), 1);
        let r = &report.rounds[0];
        assert_eq!(r.failed, 0);
        assert_eq!(r.aborted, 1, "one correlated-pair slot in a 6-job queue");
        assert!(report.median_concurrent_jpm > 0.0);
        assert!(report.median_p99_latency_s > 0.0);
        let json = serve_report_json("serve_bench", &report);
        assert!(json.contains("\"median_concurrent_jobs_per_minute\""));
        assert!(json.contains("\"p99_latency_s\""));
        let text = format_serve_table("Serve bench", &report);
        assert!(text.contains("speedup"));
    }
}
