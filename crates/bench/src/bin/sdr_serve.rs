//! `sdr-serve` — the long-running multi-job simulation server.
//!
//! Reads a queue of job specs (one JSON object per line; blank lines and
//! `#`-comments skipped) from `--queue PATH` or stdin, runs up to
//! `--max-jobs` of them concurrently over the shared thread/stack pools,
//! and streams one JSON report line per job as it completes (stdout, or
//! `--out PATH`). Malformed lines are rejected with a typed error report
//! line — the server loop never panics on input.
//!
//! Usage:
//!   `sdr_serve [--queue PATH] [--max-jobs N] [--out PATH]`
//!   `sdr_serve --self-test N [--max-jobs N] [--seed N]`
//!
//! `--self-test N` is the CI isolation gate: it builds the standard N-job
//! mixed queue (clean NAS kernels, survivable crashes, guaranteed `RankLost`
//! aborts, lossy links, delayed acks, native baselines, partial layouts),
//! runs every job solo and then the whole queue
//! concurrently, and exits nonzero if any job's deterministic report
//! diverged from its solo reference (see DESIGN.md §6).

use sdr_bench::serve::{parse_serve_args, ServeMode, SERVE_USAGE};
use std::io::{Read, Write};
use workloads::serve::{check_isolation, mixed_queue, parse_queue, serve, ServeConfig};

fn main() {
    let args = sdr_bench::or_exit(parse_serve_args(std::env::args().skip(1)), SERVE_USAGE);
    let config = ServeConfig {
        max_concurrent: args.max_jobs,
    };
    match args.mode {
        ServeMode::Serve => {
            let text = match &args.queue {
                Some(path) => std::fs::read_to_string(path)
                    .unwrap_or_else(|e| panic!("cannot read queue {}: {e}", path.display())),
                None => {
                    let mut buf = String::new();
                    std::io::stdin()
                        .read_to_string(&mut buf)
                        .expect("cannot read queue from stdin");
                    buf
                }
            };
            let mut out: Box<dyn Write> = match &args.out_path {
                Some(path) => Box::new(
                    std::fs::File::create(path)
                        .unwrap_or_else(|e| panic!("cannot create {}: {e}", path.display())),
                ),
                None => Box::new(std::io::stdout().lock()),
            };
            let summary = serve(parse_queue(&text), config, |event| {
                writeln!(out, "{}", event.to_json().encode()).expect("report stream");
            });
            out.flush().expect("report stream");
            eprintln!(
                "served {} jobs in {:.3} s ({:.1} jobs/min): \
                 {} aborted, {} failed, {} lines rejected",
                summary.completed,
                summary.host_secs,
                summary.jobs_per_minute,
                summary.aborted,
                summary.failed,
                summary.rejected
            );
        }
        ServeMode::SelfTest => {
            let specs = mixed_queue(args.jobs, args.seed);
            eprintln!(
                "self-test: {} mixed jobs, {} in flight, seed {}",
                specs.len(),
                config.max_concurrent,
                args.seed
            );
            let (violations, summary) = check_isolation(&specs, config);
            for v in &violations {
                eprintln!("ISOLATION VIOLATION in {}:", v.id);
                eprintln!("  solo:       {}", v.solo);
                eprintln!("  concurrent: {}", v.concurrent);
            }
            eprintln!(
                "self-test: {} completed ({} aborted by plan, {} failed), \
                 {} isolation violations",
                summary.completed,
                summary.aborted,
                summary.failed,
                violations.len()
            );
            if !violations.is_empty() || summary.failed > 0 || summary.completed != specs.len() {
                std::process::exit(1);
            }
        }
    }
}
