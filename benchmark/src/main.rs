//! `sdr_benchmark` — the repo's one benchmark.
//!
//! ```text
//! sdr_benchmark [--seed N] [--seconds S] [--workload NAME]   full report
//! sdr_benchmark --workload NAME --seed N --seconds S --trace 0|1
//!                                                  one run, one JSON line
//! sdr_benchmark compare <a.json[,..]> <b.json[,..]>  apply BENCHMARK.json bounds
//! ```
//!
//! Run from the repository root. Every measurement happens in a re-exec'd
//! child under a wall-clock watchdog: the simulator can hang (see
//! `benchmark/README.md`), and a hung run must end as a loud failure, not as
//! a benchmark that never returns. See `benchmark/README.md` for the
//! workloads, the metrics and what each layer metric should move.

mod compare;
mod gen;
mod host;
mod kernels;
mod measure;
mod metrics;
mod stats;
mod trace;
mod workload;

use measure::Outcome;
use metrics::{Metric, Metrics, END_TO_END, PER_LAYER, WORKLOADS};
use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};
use workloads::serve::{json, Json};

/// Fresh-process set-ups timed per end-to-end run; `setup_s` is their median.
const SETUP_SAMPLES: usize = 3;
/// Wall-clock limit of one driver-mode invocation (the contract allows 180 s).
const DRIVER_LIMIT: Duration = Duration::from_secs(170);
/// Wall-clock limit per child in a full report.
const REPORT_LIMIT: Duration = Duration::from_secs(300);

struct Opts {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    child: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: sdr_benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]\n       \
         sdr_benchmark compare <a.json[,...]> <b.json[,...]>\nworkloads: {}",
        WORKLOADS.join(", ")
    );
    std::process::exit(2);
}

/// `run_seconds` from `BENCHMARK.json`, the default measuring time.
fn default_seconds() -> f64 {
    std::fs::read_to_string("BENCHMARK.json")
        .ok()
        .and_then(|t| json::parse(&t).ok())
        .and_then(|d| d.get("run_seconds").and_then(Json::as_f64))
        .unwrap_or(20.0)
}

fn parse_opts(args: &[String]) -> Opts {
    let mut opts = Opts {
        workload: None,
        seed: 1,
        seconds: 0.0,
        trace: None,
        child: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => {
                opts.workload = Some(value.clone())
            }
            "--seed" => opts.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| usage())
            }
            "--trace" => {
                opts.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                })
            }
            "--child" => opts.child = Some(value.clone()),
            _ => usage(),
        }
    }
    if opts.seconds == 0.0 {
        opts.seconds = default_seconds();
    }
    opts
}

fn emit(line: &Json) {
    let mut out = std::io::stdout().lock();
    writeln!(out, "{}", line.encode())
        .and_then(|()| out.flush())
        .expect("stdout closed");
}

/// The child side: set up, announce readiness (the parent clocks `setup_s`
/// from spawn to this line), measure, print the result.
fn child_main(opts: &Opts, mode: &str) {
    let workload = opts.workload.as_deref().unwrap_or_else(|| usage());
    let prepared = measure::prepare(workload, opts.seed);
    emit(&Json::Obj(vec![(
        "ev".to_string(),
        Json::Str("ready".to_string()),
    )]));
    if mode == "setup" {
        return;
    }
    let outcome = if opts.trace == Some(true) {
        measure::per_layer(workload, opts.seed, &prepared, opts.seconds)
    } else {
        measure::end_to_end(&prepared, opts.seconds)
    };
    emit(&outcome.to_json());
}

struct ChildReport {
    /// Spawn until the child's `ready` line.
    setup_s: Option<f64>,
    result: Option<Json>,
}

/// Re-exec this binary as a measuring child and wait for it, at most until
/// `deadline`. A child that overruns is killed and reported as an error.
fn run_child(
    workload: &str,
    opts: &Opts,
    trace: bool,
    mode: &str,
    deadline: Instant,
) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let spawned = Instant::now();
    let mut child = Command::new(exe)
        .args(["--child", mode, "--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot spawn child: {e}"))?;
    let stdout = child.stdout.take().expect("child stdout is piped");
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines().map_while(Result::ok) {
            if tx.send((Instant::now(), line)).is_err() {
                break;
            }
        }
    });
    let mut report = ChildReport {
        setup_s: None,
        result: None,
    };
    let timed_out = loop {
        let left = deadline.saturating_duration_since(Instant::now());
        match rx.recv_timeout(left) {
            Ok((at, line)) => match json::parse(&line) {
                Ok(doc) => match doc.get("ev").and_then(Json::as_str) {
                    Some("ready") => {
                        report.setup_s = Some(at.duration_since(spawned).as_secs_f64())
                    }
                    Some("result") => report.result = Some(doc),
                    _ => {}
                },
                Err(_) => eprintln!("[child] {line}"),
            },
            Err(mpsc::RecvTimeoutError::Disconnected) => break false,
            Err(mpsc::RecvTimeoutError::Timeout) => break true,
        }
    };
    if timed_out {
        // Best effort: the child may have exited between the timeout and now.
        let _ = child.kill();
    }
    let status = child
        .wait()
        .map_err(|e| format!("cannot reap child: {e}"))?;
    reader.join().expect("reader thread panicked");
    if timed_out {
        return Err(format!(
            "WATCHDOG: {workload} (trace {}) did not finish in time and was killed — \
             a simulated job hung",
            trace as u8
        ));
    }
    if !status.success() {
        return Err(format!("{workload} child exited with {status}"));
    }
    if report.setup_s.is_none() || (mode == "run" && report.result.is_none()) {
        return Err(format!("{workload} child ended without reporting"));
    }
    Ok(report)
}

/// One complete run of one workload: the measuring child and, for an
/// end-to-end run, the extra fresh-process set-ups behind `setup_s`.
fn run_once(
    workload: &str,
    opts: &Opts,
    trace: bool,
    deadline: Instant,
) -> Result<Outcome, String> {
    let main = run_child(workload, opts, trace, "run", deadline)?;
    let mut m = main
        .result
        .as_ref()
        .and_then(Outcome::from_json)
        .ok_or(format!("{workload} child printed a malformed result"))?;
    if !trace {
        let mut setups = Vec::new();
        setups.extend(main.setup_s);
        while setups.len() < SETUP_SAMPLES {
            setups.extend(run_child(workload, opts, trace, "setup", deadline)?.setup_s);
        }
        m.metrics
            .insert("setup_s".to_string(), Metric::of_samples(&setups));
    }
    Ok(m)
}

/// Driver mode: one run, and as the last line of stdout one JSON object with
/// exactly the keys `correct`, `attempted`, `failed` and `metrics`.
fn driver_main(workload: &str, opts: &Opts, trace: bool) -> i32 {
    match run_once(workload, opts, trace, Instant::now() + DRIVER_LIMIT) {
        Ok(m) => {
            for f in &m.failures {
                eprintln!("[sdr_benchmark] FAILED {f}");
            }
            let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
            emit(&Json::Obj(vec![
                ("correct".to_string(), Json::Bool(m.failed == 0)),
                ("attempted".to_string(), Json::Int(m.attempted as i64)),
                ("failed".to_string(), Json::Int(m.failed as i64)),
                (
                    "metrics".to_string(),
                    metrics::to_json(&m.metrics, table, false),
                ),
            ]));
            0
        }
        Err(e) => {
            eprintln!("[sdr_benchmark] {e}");
            1
        }
    }
}

fn print_metrics(title: &str, table: &[(&str, &str)], m: &Metrics) {
    println!("  {title}");
    for (name, unit) in table {
        let Some(metric) = m.get(*name) else { continue };
        match metric.summary {
            Some(s) => println!(
                "    {name:<36} {:>16.4} {unit:<6} q1 {:.4}  q3 {:.4}  min {:.4}  max {:.4}  n {}",
                metric.value, s.q1, s.q3, s.min, s.max, s.n
            ),
            None => println!("    {name:<36} {:>16.4} {unit}", metric.value),
        }
    }
}

/// Full report: every workload (or the one named), end-to-end run plus
/// traced run, printed by name with units and written to
/// `benchmark/out/result.json` for `compare`.
fn report_main(opts: &Opts) -> i32 {
    let mut code = 0;
    let mut entries = Vec::new();
    let selected: Vec<&str> = match &opts.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    for workload in selected {
        println!("== {workload} (seed {}, {} s) ==", opts.seed, opts.seconds);
        let e2e = run_once(workload, opts, false, Instant::now() + REPORT_LIMIT);
        let layer = run_once(workload, opts, true, Instant::now() + REPORT_LIMIT);
        let (e2e, layer) = match (e2e, layer) {
            (Ok(a), Ok(b)) => (a, b),
            (a, b) => {
                for e in [a.err(), b.err()].into_iter().flatten() {
                    println!("  !! {e}");
                }
                code = 1;
                continue;
            }
        };
        let attempted = e2e.attempted + layer.attempted;
        let failed = e2e.failed + layer.failed;
        let failed_share = failed as f64 / attempted.max(1) as f64;
        print_metrics("end-to-end (tracing off)", &END_TO_END, &e2e.metrics);
        println!(
            "    {:<36} {failed_share:>16.4} ratio  ({failed} of {attempted} operations)",
            "failed_share"
        );
        print_metrics(
            "per-layer (traced run; ledger.* are estimates)",
            &PER_LAYER,
            &layer.metrics,
        );
        let failures: Vec<String> = e2e.failures.into_iter().chain(layer.failures).collect();
        for f in &failures {
            println!("  !! FAILED {f}");
        }
        if failed > 0 {
            code = 1;
        }
        entries.push((
            workload.to_string(),
            Json::Obj(vec![
                ("attempted".to_string(), Json::Int(attempted as i64)),
                ("failed".to_string(), Json::Int(failed as i64)),
                ("failed_share".to_string(), Json::Num(failed_share)),
                (
                    "failures".to_string(),
                    Json::Arr(failures.into_iter().map(Json::Str).collect()),
                ),
                (
                    "sim_digest".to_string(),
                    layer.digest.map_or(Json::Null, Json::Str),
                ),
                (
                    "end_to_end".to_string(),
                    metrics::to_json(&e2e.metrics, &END_TO_END, true),
                ),
                (
                    "per_layer".to_string(),
                    metrics::to_json(&layer.metrics, &PER_LAYER, true),
                ),
            ]),
        ));
    }
    let doc = Json::Obj(vec![
        ("host".to_string(), host::factors()),
        ("seed".to_string(), Json::Int(opts.seed as i64)),
        ("seconds".to_string(), Json::Num(opts.seconds)),
        ("workloads".to_string(), Json::Obj(entries)),
    ]);
    let path = std::path::Path::new(measure::OUT_DIR).join("result.json");
    match std::fs::create_dir_all(measure::OUT_DIR)
        .and_then(|()| std::fs::write(&path, doc.encode() + "\n"))
    {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => {
            println!("!! cannot write {}: {e}", path.display());
            code = 1;
        }
    }
    code
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args.as_slice() else { usage() };
        match compare::run(a, b) {
            Ok(code) => std::process::exit(code),
            Err(e) => {
                eprintln!("compare: {e}");
                std::process::exit(2);
            }
        }
    }
    let opts = parse_opts(&args);
    let code = match (&opts.child, &opts.workload, opts.trace) {
        (Some(mode), _, _) => {
            child_main(&opts, mode);
            0
        }
        (None, Some(workload), Some(trace)) => driver_main(workload, &opts, trace),
        (None, _, None) => report_main(&opts),
        (None, None, Some(_)) => usage(),
    };
    std::process::exit(code);
}
