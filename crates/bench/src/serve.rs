//! Command line of the `sdr_serve` binary: serve a queue, or run the
//! isolation self-test. (Sustained service throughput is the `serve_mixed`
//! workload of the repo's benchmark, `benchmark/`.)

use crate::CliStop;

/// The usage line `sdr_serve --help` prints.
pub const SERVE_USAGE: &str =
    "usage: sdr_serve [--queue PATH] [--max-jobs N] [--out PATH]\n       \
                               sdr_serve --self-test N [--max-jobs N] [--seed N]";

/// Parsed command line of the `sdr_serve` binary (see [`parse_serve_args`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// What the binary should do.
    pub mode: ServeMode,
    /// Queue file for serve mode (stdin when absent).
    pub queue: Option<std::path::PathBuf>,
    /// Jobs in flight at once.
    pub max_jobs: usize,
    /// Mixed-queue base seed (self-test mode).
    pub seed: u64,
    /// Mixed-queue length (self-test mode).
    pub jobs: usize,
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
}

/// CLI parsing for the service binary: `--queue PATH` (serve mode input;
/// stdin if omitted), `--max-jobs N` (concurrency, default 4), `--self-test N`
/// (isolation gate over an N-job mixed queue), `--seed N` (self-test queue
/// seed), `--out PATH` (serve-mode report stream). There are no
/// execution-layer flags: jobs carry their own tuning in their specs.
pub fn parse_serve_args<I: Iterator<Item = String>>(mut args: I) -> Result<ServeArgs, CliStop> {
    let mut parsed = ServeArgs {
        mode: ServeMode::Serve,
        queue: None,
        max_jobs: 4,
        seed: 40,
        jobs: 12,
        out_path: None,
    };
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
            "--help" | "-h" => return Err(CliStop::Help),
            other => return Err(CliStop::Unknown(other.to_string())),
        }
    }
    Ok(parsed)
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
        )
        .unwrap();
        assert_eq!(args.mode, ServeMode::Serve);
        assert_eq!(args.max_jobs, 8);
        assert!(args.queue.is_some() && args.out_path.is_some());
        let args = parse_serve_args(["--self-test", "6"].iter().map(|s| s.to_string())).unwrap();
        assert_eq!((args.mode, args.jobs), (ServeMode::SelfTest, 6));
    }
}
