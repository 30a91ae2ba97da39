//! The serve engine: run many validated [`JobSpec`]s concurrently over the
//! process-global worker-thread and coroutine-stack pools and stream one
//! [`JobRecord`] per job as it completes.
//!
//! ## Isolation invariants (DESIGN.md §6)
//!
//! Every job gets its own `Fabric` — scheduler, virtual clock, statistics,
//! endpoints' crash schedules, net-fault policy, and `EventTrace` are all
//! per-job state, so nothing protocol-visible is shared between
//! concurrently running jobs. The only process-global state jobs share is
//! the worker-thread pool and the coroutine stack pool, and those may only
//! influence the *host-side* counters (thread/stack reuse splits, wall-clock
//! latency). [`JobRecord::deterministic_json`] is exactly the job-level
//! image that must be bit-identical between a job run alone and the same
//! job run next to arbitrary neighbours: outcomes, checksums, virtual
//! times, protocol and fault counters, and the trace digest. Host-side
//! counters live under the `"host"` key and are excluded. The
//! `tests/serve_isolation.rs` suite and the `sdr_serve --self-test` CI gate
//! both enforce the invariant through [`check_isolation`].

use super::json::Json;
use super::spec::{CrashFault, JobSpec, LayoutSpec, SpecError, WorkloadKind};
use crate::campaign::{case_spec, CampaignConfig, FaultDistribution};
use crate::nas::NasKernel;
use sim_mpi::{JobReport, ProcessOutcome};
use sim_net::sched::{default_workers, host_cores};
use sim_net::{NetFaultConfig, TraceEvent};
use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// How one job ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Every process finished.
    Finished,
    /// Some replicas crashed, every survivor finished (the loss was masked).
    Survived,
    /// A survivor reported an unrecoverable rank loss (`RankLost`).
    Aborted,
    /// At least one process deadlocked.
    Deadlocked,
    /// At least one process panicked for another reason.
    Failed,
}

impl JobStatus {
    /// Wire name of the status.
    pub fn name(&self) -> &'static str {
        match self {
            JobStatus::Finished => "finished",
            JobStatus::Survived => "survived",
            JobStatus::Aborted => "aborted",
            JobStatus::Deadlocked => "deadlocked",
            JobStatus::Failed => "failed",
        }
    }
}

/// Per-process outcome inside a [`JobRecord`].
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessRecord {
    /// Physical endpoint id.
    pub endpoint: usize,
    /// Application rank the process played.
    pub app_rank: usize,
    /// Replica index within its rank; replica 0 is the job's primary output.
    pub replica: usize,
    /// Outcome kind (`"finished"`, `"crashed"`, `"deadlocked"`,
    /// `"panicked"`).
    pub outcome: &'static str,
    /// Exact bit pattern of the checksum, for finished processes.
    pub result_bits: Option<u64>,
    /// Final virtual time, nanoseconds.
    pub finish_ns: u64,
    /// What a panicked process's panic said: a lost rank, a protocol abort,
    /// a coroutine stack that could not be mapped. `None` for every other
    /// outcome.
    pub message: Option<String>,
}

/// Everything the service reports about one completed job. The
/// deterministic part (everything except [`JobRecord::host`]) is a pure
/// function of the spec for `workers: 1` jobs, independent of what else the
/// server is running — that is the per-job isolation contract.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// The spec's job id.
    pub id: String,
    /// The validated spec the job ran (echoed so a report is
    /// self-describing).
    pub spec: JobSpec,
    /// How the job ended.
    pub status: JobStatus,
    /// Per-process outcomes, in endpoint order.
    pub processes: Vec<ProcessRecord>,
    /// Simulated wall-clock time, nanoseconds.
    pub elapsed_ns: u64,
    /// Application messages sent.
    pub app_msgs: u64,
    /// Acknowledgement messages sent.
    pub ack_msgs: u64,
    /// All messages (app + ack + control + hash).
    pub total_msgs: u64,
    /// Total payload bytes moved.
    pub total_bytes: u64,
    /// Frames the net-fault policy dropped.
    pub msgs_dropped: u64,
    /// Extra frame copies the policy injected.
    pub msgs_duplicated: u64,
    /// Frames the policy delayed.
    pub msgs_delayed: u64,
    /// Retransmissions the send-log timeout path issued.
    pub retransmits: u64,
    /// Duplicate copies suppressed before the application saw them.
    pub dups_suppressed: u64,
    /// PML bit flips actually injected.
    pub sdc_flips_injected: u64,
    /// Processes that crashed (scheduled faults that fired).
    pub crashes: usize,
    /// Coroutine stacks leased over the job (fresh + recycled).
    pub stack_leases: u64,
    /// Peak bytes of coroutine stack this job had leased at once. Per-job by
    /// construction — see `sim_net::NetStats::record_stack_lease`.
    pub stack_bytes_peak: u64,
    /// Worker-pool size the job ran with.
    pub workers: usize,
    /// Number of trace events recorded (0 unless the spec asked for
    /// tracing).
    pub trace_len: usize,
    /// FNV-1a digest over the ordered determinism keys of the job's trace.
    pub trace_digest: u64,
    /// The full trace, when the spec asked for it.
    pub trace: Option<Vec<TraceEvent>>,
    /// Host-side (non-deterministic) observations.
    pub host: HostRecord,
}

/// The host-side, scheduling-dependent part of a report: excluded from the
/// isolation comparison because thread/stack reuse and wall-clock latency
/// legitimately depend on what else the server is running.
#[derive(Debug, Clone, PartialEq)]
pub struct HostRecord {
    /// Submission index within the queue.
    pub seq: usize,
    /// Real seconds from job start to completion.
    pub latency_s: f64,
    /// Worker threads freshly spawned.
    pub threads_spawned: u64,
    /// Worker threads recycled from the global pool.
    pub threads_reused: u64,
    /// Coroutine stacks freshly mapped.
    pub stacks_allocated: u64,
    /// Coroutine stacks recycled from the global pool.
    pub stacks_reused: u64,
}

fn hex(v: u64) -> Json {
    Json::Str(format!("{v:#018x}"))
}

fn kind_name(kind: sim_net::EventKind) -> &'static str {
    match kind {
        sim_net::EventKind::Send => "send",
        sim_net::EventKind::RecvComplete => "recv",
        sim_net::EventKind::Crash => "crash",
    }
}

/// FNV-1a over the ordered determinism keys (plus process ids) of a trace.
pub fn trace_digest(events: &[TraceEvent]) -> u64 {
    let mut hash: u64 = 0xcbf29ce484222325;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x100000001b3);
        }
    };
    for e in events {
        mix(e.process.0 as u64);
        mix(match e.kind {
            sim_net::EventKind::Send => 0,
            sim_net::EventKind::RecvComplete => 1,
            sim_net::EventKind::Crash => 2,
        });
        mix(e.peer.map(|p| p as u64 + 1).unwrap_or(0));
        mix(e.tag.map(|t| t as u64 ^ 0x5555).unwrap_or(0));
        mix(e.payload_digest);
        mix(e.payload_len as u64);
    }
    hash
}

impl JobRecord {
    /// Condense the raw report of `spec`'s run into its service record;
    /// `seq` and `latency_s` fill the host part. [`run_job`] builds every
    /// served record this way, and so does a caller that ran the compiled
    /// spec under another protocol (the fault campaign's soft-error cases).
    pub fn from_report(
        spec: &JobSpec,
        report: &JobReport<f64>,
        seq: usize,
        latency_s: f64,
    ) -> JobRecord {
        let crashes = report.crashed().len();
        let mut deadlocked = false;
        let mut failed = false;
        let processes: Vec<ProcessRecord> = report
            .processes
            .iter()
            .map(|p| {
                let (outcome, result_bits, message) = match &p.outcome {
                    ProcessOutcome::Finished(v) => ("finished", Some(v.to_bits()), None),
                    ProcessOutcome::Crashed { .. } => ("crashed", None, None),
                    ProcessOutcome::Deadlocked { .. } => {
                        deadlocked = true;
                        ("deadlocked", None, None)
                    }
                    ProcessOutcome::Panicked(msg) => {
                        failed = true;
                        ("panicked", None, Some(msg.clone()))
                    }
                };
                ProcessRecord {
                    endpoint: p.endpoint.0,
                    app_rank: p.app_rank,
                    replica: p.replica,
                    outcome,
                    result_bits,
                    finish_ns: p.finish_time.as_nanos(),
                    message,
                }
            })
            .collect();
        let status = if report.rank_lost() {
            JobStatus::Aborted
        } else if deadlocked {
            JobStatus::Deadlocked
        } else if failed {
            JobStatus::Failed
        } else if crashes > 0 {
            JobStatus::Survived
        } else {
            JobStatus::Finished
        };
        let events = report.trace.events();
        let stats = &report.stats;
        JobRecord {
            id: spec.id.clone(),
            spec: spec.clone(),
            status,
            processes,
            elapsed_ns: report.elapsed.as_nanos(),
            app_msgs: stats.app_msgs(),
            ack_msgs: stats.ack_msgs(),
            total_msgs: stats.total_msgs(),
            total_bytes: stats.total_bytes(),
            msgs_dropped: stats.msgs_dropped(),
            msgs_duplicated: stats.msgs_duplicated(),
            msgs_delayed: stats.msgs_delayed(),
            retransmits: stats.retransmits(),
            dups_suppressed: stats.dups_suppressed(),
            sdc_flips_injected: stats.sdc_flips_injected(),
            crashes,
            stack_leases: stats.stacks_allocated() + stats.stacks_reused(),
            stack_bytes_peak: stats.stack_bytes_peak(),
            workers: report.workers,
            trace_len: events.len(),
            trace_digest: trace_digest(&events),
            trace: spec.trace.then_some(events),
            host: HostRecord {
                seq,
                latency_s,
                threads_spawned: report.threads_spawned as u64,
                threads_reused: report.threads_reused as u64,
                stacks_allocated: stats.stacks_allocated(),
                stacks_reused: stats.stacks_reused(),
            },
        }
    }

    /// The full report as JSON, host observations included.
    pub fn to_json(&self) -> Json {
        let processes = self.processes.iter().map(|p| {
            let mut fields = vec![
                ("endpoint", p.endpoint.into()),
                ("app_rank", p.app_rank.into()),
                ("replica", p.replica.into()),
                ("primary", (p.replica == 0).into()),
                ("outcome", p.outcome.into()),
                ("finish_ns", p.finish_ns.into()),
            ];
            fields.extend(p.result_bits.map(|bits| ("result_bits", hex(bits))));
            fields.extend(p.message.as_deref().map(|m| ("message", m.into())));
            Json::obj(fields)
        });
        let mut fields = vec![
            ("id", self.id.as_str().into()),
            ("status", self.status.name().into()),
            ("spec", self.spec.to_json()),
            ("elapsed_ns", self.elapsed_ns.into()),
            ("app_msgs", self.app_msgs.into()),
            ("ack_msgs", self.ack_msgs.into()),
            ("total_msgs", self.total_msgs.into()),
            ("total_bytes", self.total_bytes.into()),
            ("msgs_dropped", self.msgs_dropped.into()),
            ("msgs_duplicated", self.msgs_duplicated.into()),
            ("msgs_delayed", self.msgs_delayed.into()),
            ("retransmits", self.retransmits.into()),
            ("dups_suppressed", self.dups_suppressed.into()),
            ("sdc_flips_injected", self.sdc_flips_injected.into()),
            ("crashes", self.crashes.into()),
            ("stack_leases", self.stack_leases.into()),
            ("stack_bytes_peak", self.stack_bytes_peak.into()),
            ("workers", self.workers.into()),
            ("processes", Json::Arr(processes.collect())),
            ("trace_len", self.trace_len.into()),
            ("trace_digest", hex(self.trace_digest)),
        ];
        if let Some(events) = &self.trace {
            let events = events.iter().map(|e| {
                Json::obj([
                    ("process", e.process.0.into()),
                    ("kind", kind_name(e.kind).into()),
                    (
                        "peer",
                        e.peer.map(|p| Json::Int(p as i64)).unwrap_or(Json::Null),
                    ),
                    ("tag", e.tag.map(Json::Int).unwrap_or(Json::Null)),
                    ("digest", hex(e.payload_digest)),
                    ("len", e.payload_len.into()),
                    ("at_ns", e.at.as_nanos().into()),
                ])
            });
            fields.push(("trace", Json::Arr(events.collect())));
        }
        fields.push((
            "host",
            Json::obj([
                ("seq", self.host.seq.into()),
                ("latency_s", Json::Num(self.host.latency_s)),
                ("threads_spawned", self.host.threads_spawned.into()),
                ("threads_reused", self.host.threads_reused.into()),
                ("stacks_allocated", self.host.stacks_allocated.into()),
                ("stacks_reused", self.host.stacks_reused.into()),
            ]),
        ));
        Json::obj(fields)
    }

    /// The deterministic image of the report: the full JSON with the
    /// `"host"` object removed. For a `workers: 1` job this string is a pure
    /// function of the spec — bit-identical no matter what else the server
    /// is running — and it is exactly what the isolation tests compare.
    pub fn deterministic_json(&self) -> String {
        match self.to_json() {
            Json::Obj(fields) => {
                Json::Obj(fields.into_iter().filter(|(k, _)| k != "host").collect()).encode()
            }
            other => other.encode(),
        }
    }
}

/// Compile `spec` and run it to completion on the calling thread, as the
/// only job on the host; returns the raw job report and the host seconds the
/// run took. This is the single execution path: [`run_job`] (and through it
/// the isolation tests' solo references, the bench driver and the fault
/// campaign's crash and lossy cases) goes through it, and so does the
/// concurrent server, on each job's share of the cores ([`serve`]) —
/// sharing it is what makes "bit-identical to the same job run alone" a
/// meaningful comparison.
pub fn run_spec(spec: &JobSpec) -> Result<(JobReport<f64>, f64), SpecError> {
    run_on(spec, host_cores())
}

/// [`run_spec`] for a job that has `cores` of the host's cores to itself: a
/// spec that names no `workers` runs with [`default_workers`]`(physical
/// processes, cores)` run permits; one that names them gets what it asked for.
fn run_on(spec: &JobSpec, cores: usize) -> Result<(JobReport<f64>, f64), SpecError> {
    let mut builder = spec.compile()?;
    if spec.workers.is_none() {
        let physical = builder.physical_processes();
        builder = builder.workers(default_workers(physical, cores));
    }
    let app = spec.app();
    let started = Instant::now();
    let report = builder.run(move |p| (app)(p));
    Ok((report, started.elapsed().as_secs_f64()))
}

/// [`run_spec`], condensed into the job's service record.
pub fn run_job(spec: &JobSpec, seq: usize) -> Result<JobRecord, SpecError> {
    let (report, latency_s) = run_spec(spec)?;
    Ok(JobRecord::from_report(spec, &report, seq, latency_s))
}

/// One submitted queue entry: a validated spec or a typed rejection.
#[derive(Debug, Clone)]
pub enum Submission {
    /// A validated job.
    Spec(JobSpec),
    /// A line that failed validation, with its 1-based line number.
    Invalid {
        /// 1-based line number in the queue.
        line: usize,
        /// Why it was rejected.
        error: SpecError,
    },
}

/// Parse a whole queue file: one JSON spec per line; blank lines and
/// `#`-comments are skipped. Malformed lines become [`Submission::Invalid`]
/// — the caller decides whether to stop or stream an error report.
pub fn parse_queue(text: &str) -> Vec<Submission> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| {
            let t = l.trim();
            !t.is_empty() && !t.starts_with('#')
        })
        .map(|(i, l)| match JobSpec::parse_line(l.trim()) {
            Ok(spec) => Submission::Spec(spec),
            Err(error) => Submission::Invalid { line: i + 1, error },
        })
        .collect()
}

/// A streamed server event.
#[derive(Debug, Clone)]
pub enum ServeEvent {
    /// A job finished (events arrive in completion order).
    Completed(Box<JobRecord>),
    /// A queue line was rejected.
    Rejected {
        /// 1-based line number.
        line: usize,
        /// The typed error.
        error: SpecError,
    },
}

impl ServeEvent {
    /// The event as one JSON line.
    pub fn to_json(&self) -> Json {
        match self {
            ServeEvent::Completed(record) => record.to_json(),
            ServeEvent::Rejected { line, error } => Json::obj([
                ("status", "rejected".into()),
                ("line", (*line).into()),
                ("error", Json::Str(error.to_string())),
            ]),
        }
    }
}

/// Server configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Jobs run concurrently (each still gets its own fabric; this only
    /// bounds how many are in flight at once). 0 is clamped to 1.
    pub max_concurrent: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig { max_concurrent: 4 }
    }
}

/// End-of-run summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeSummary {
    /// Jobs completed.
    pub completed: usize,
    /// Queue lines rejected.
    pub rejected: usize,
    /// Completed jobs that aborted with `RankLost`.
    pub aborted: usize,
    /// Completed jobs that deadlocked or failed.
    pub failed: usize,
    /// Real seconds the whole queue took.
    pub host_secs: f64,
    /// Sustained throughput over the queue.
    pub jobs_per_minute: f64,
}

/// Run a parsed queue: rejected lines are streamed first, then every
/// validated job runs (at most `max_concurrent` in flight) and its record
/// is streamed in completion order. The sink runs on the calling thread.
/// Nothing in this loop panics on malformed input — validation happened at
/// parse time and job-level failures become [`JobStatus`] values.
///
/// Cores go to jobs: a job whose spec names no `workers` runs with
/// [`default_workers`]`(physical processes, max(1, host cores / in
/// flight))` run permits, its share of the host, so the jobs in flight do
/// not oversubscribe it; a job that names `workers` gets what it asked for.
pub fn serve<F: FnMut(ServeEvent)>(
    submissions: Vec<Submission>,
    config: ServeConfig,
    mut sink: F,
) -> ServeSummary {
    let started = Instant::now();
    let mut rejected = 0usize;
    let mut queue = VecDeque::new();
    for (seq, sub) in submissions.into_iter().enumerate() {
        match sub {
            Submission::Spec(spec) => queue.push_back((seq, spec)),
            Submission::Invalid { line, error } => {
                rejected += 1;
                sink(ServeEvent::Rejected { line, error });
            }
        }
    }
    let jobs = queue.len();
    let in_flight = config.max_concurrent.max(1).min(jobs.max(1));
    let share = (host_cores() / in_flight).max(1);
    let queue = Arc::new(Mutex::new(queue));
    let (tx, rx) = mpsc::channel::<Box<JobRecord>>();
    let mut carriers = Vec::with_capacity(in_flight);
    for _ in 0..in_flight {
        let queue = Arc::clone(&queue);
        let tx = tx.clone();
        carriers.push(std::thread::spawn(move || loop {
            let next = queue.lock().expect("serve queue lock").pop_front();
            let Some((seq, spec)) = next else { break };
            // The spec was validated (and compiled once) at parse time, so
            // run_on cannot fail here; keep the loop panic-free anyway.
            let Ok((report, latency_s)) = run_on(&spec, share) else {
                break;
            };
            // The record echoes the spec as submitted; its `workers` field
            // reports the permits the job ran with.
            let record = JobRecord::from_report(&spec, &report, seq, latency_s);
            if tx.send(Box::new(record)).is_err() {
                break;
            }
        }));
    }
    drop(tx);
    let mut completed = 0usize;
    let mut aborted = 0usize;
    let mut failed = 0usize;
    while let Ok(record) = rx.recv() {
        completed += 1;
        match record.status {
            JobStatus::Aborted => aborted += 1,
            JobStatus::Deadlocked | JobStatus::Failed => failed += 1,
            _ => {}
        }
        sink(ServeEvent::Completed(record));
    }
    for c in carriers {
        let _ = c.join();
    }
    let host_secs = started.elapsed().as_secs_f64();
    ServeSummary {
        completed,
        rejected,
        aborted,
        failed,
        host_secs,
        jobs_per_minute: if host_secs > 0.0 {
            completed as f64 / host_secs * 60.0
        } else {
            0.0
        },
    }
}

/// Build the standard heavy mixed queue: `jobs` specs rotating through
/// clean NAS kernels, crash-surviving replicated jobs, a guaranteed
/// `RankLost` abort, lossy links, delayed acks, native baselines, and
/// partial layouts — all at `workers: 1` so every job is exactly replayable
/// (the isolation-check precondition).
pub fn mixed_queue(jobs: usize, seed: u64) -> Vec<JobSpec> {
    let kernels = [
        NasKernel::Bt,
        NasKernel::Cg,
        NasKernel::Ft,
        NasKernel::Mg,
        NasKernel::Sp,
    ];
    (0..jobs)
        .map(|slot| {
            let jseed = seed.wrapping_add(slot as u64);
            let base = JobSpec {
                id: format!("job-{slot:03}"),
                workload: WorkloadKind::Collective { iterations: 6 },
                ranks: 4,
                class: "test".to_string(),
                layout: LayoutSpec::Replicated { degree: 2 },
                carrier_mode: None,
                workers: Some(1),
                seed: jseed,
                crashes: Vec::new(),
                sdc: Vec::new(),
                net_faults: None,
                trace: false,
            };
            match slot % 6 {
                // Clean NAS kernel, dual replication.
                0 => JobSpec {
                    workload: WorkloadKind::Nas(kernels[slot / 6 % kernels.len()]),
                    trace: true,
                    ..base
                },
                // Survivable single-replica crash mid-collective.
                1 => JobSpec {
                    crashes: vec![CrashFault {
                        endpoint: (jseed % 8) as usize,
                        schedule: sim_net::CrashSchedule::AfterSend { nth: 1 + jseed % 4 },
                    }],
                    ..base
                },
                // Guaranteed abort: both replicas of one rank die (the
                // crashes of a sampled correlated-pair campaign case).
                2 => {
                    let cfg = CampaignConfig {
                        ranks: 2,
                        degree: 2,
                        dist: FaultDistribution::CorrelatedPairLoss {
                            mean_sends: 3,
                            horizon_sends: 3,
                        },
                    };
                    JobSpec {
                        ranks: 2,
                        crashes: case_spec(cfg, 7 + jseed % 4, 6, None).crashes,
                        ..base
                    }
                }
                // Lossy links over a ring exchange.
                3 => JobSpec {
                    workload: WorkloadKind::Ring { iterations: 8 },
                    net_faults: Some(super::spec::NetFaultSpec {
                        config: NetFaultConfig::lossy_links(),
                        seed: jseed,
                    }),
                    trace: slot % 4 == 3,
                    ..base
                },
                // Native (unreplicated) clean baseline.
                4 => JobSpec {
                    workload: WorkloadKind::Nas(kernels[(slot / 6 + 2) % kernels.len()]),
                    layout: LayoutSpec::Native,
                    ..base
                },
                // Delayed acks over the collective app, partial layout.
                _ => JobSpec {
                    layout: LayoutSpec::Partial {
                        replicated: vec![0, 1],
                    },
                    net_faults: Some(super::spec::NetFaultSpec {
                        config: NetFaultConfig::delayed_acks(),
                        seed: jseed,
                    }),
                    ..base
                },
            }
        })
        .collect()
}

/// One isolation violation: a job whose concurrent record diverged from its
/// solo record.
#[derive(Debug, Clone)]
pub struct IsolationViolation {
    /// The job id.
    pub id: String,
    /// The solo (reference) deterministic image.
    pub solo: String,
    /// The concurrent deterministic image that diverged.
    pub concurrent: String,
}

/// The isolation gate: run every spec alone (sequentially), then run the
/// whole queue concurrently, and compare each job's
/// [`JobRecord::deterministic_json`] images. Specs must be `workers: 1`
/// (exactly replayable) for the comparison to be meaningful; the function
/// asserts that. Returns the violations (empty = the isolation invariant
/// held) plus the concurrent run's summary.
pub fn check_isolation(
    specs: &[JobSpec],
    config: ServeConfig,
) -> (Vec<IsolationViolation>, ServeSummary) {
    for spec in specs {
        assert_eq!(
            spec.workers,
            Some(1),
            "isolation checks need exactly-replayable (workers: 1) jobs; '{}' is not",
            spec.id
        );
    }
    let mut solo = std::collections::BTreeMap::new();
    for (seq, spec) in specs.iter().enumerate() {
        let record = run_job(spec, seq).expect("validated spec");
        solo.insert(spec.id.clone(), record.deterministic_json());
    }
    let mut violations = Vec::new();
    let submissions = specs.iter().cloned().map(Submission::Spec).collect();
    let summary = serve(submissions, config, |event| {
        if let ServeEvent::Completed(record) = event {
            let concurrent = record.deterministic_json();
            let reference = solo.get(&record.id).expect("every job has a solo run");
            if *reference != concurrent {
                violations.push(IsolationViolation {
                    id: record.id.clone(),
                    solo: reference.clone(),
                    concurrent,
                });
            }
        }
    });
    (violations, summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_job_reports_a_clean_collective() {
        let spec = JobSpec::parse_line(
            r#"{"id":"c1","workload":"collective","iterations":4,"ranks":3,"workers":1,"trace":true}"#,
        )
        .unwrap();
        let record = run_job(&spec, 0).unwrap();
        assert_eq!(record.status, JobStatus::Finished);
        assert_eq!(record.processes.len(), 6);
        let expected = crate::campaign::collective_checksum(3, 4).to_bits();
        for p in &record.processes {
            assert_eq!(p.outcome, "finished");
            assert_eq!(p.result_bits, Some(expected));
        }
        assert!(record.app_msgs > 0);
        assert!(record.trace_len > 0);
        assert_eq!(record.trace.as_ref().unwrap().len(), record.trace_len);
        assert_eq!(
            record.trace_digest,
            trace_digest(record.trace.as_ref().unwrap())
        );
        // The deterministic image hides the host object but keeps the rest.
        let det = record.deterministic_json();
        assert!(!det.contains("\"host\""));
        assert!(det.contains("\"trace_digest\""));
    }

    #[test]
    fn serve_streams_rejections_and_completions() {
        let text = "\n# a comment\n\
            {\"id\":\"ok\",\"workload\":\"ring\",\"ranks\":2,\"iterations\":3,\"workers\":1}\n\
            {\"id\":\"bad\",\"workload\":\"nope\",\"ranks\":2}\n\
            not json at all\n";
        let submissions = parse_queue(text);
        assert_eq!(submissions.len(), 3);
        let mut completed = Vec::new();
        let mut rejected = Vec::new();
        let summary = serve(submissions, ServeConfig::default(), |ev| match ev {
            ServeEvent::Completed(r) => completed.push(r.id.clone()),
            ServeEvent::Rejected { line, .. } => rejected.push(line),
        });
        assert_eq!(completed, vec!["ok".to_string()]);
        assert_eq!(rejected, vec![4, 5]);
        assert_eq!(summary.completed, 1);
        assert_eq!(summary.rejected, 2);
        assert_eq!(summary.failed, 0);
        assert!(summary.jobs_per_minute > 0.0);
    }

    #[test]
    fn mixed_queue_covers_the_advertised_shapes() {
        let specs = mixed_queue(12, 40);
        assert_eq!(specs.len(), 12);
        // Every spec revalidates through the wire format.
        for spec in &specs {
            let re = JobSpec::parse_line(&spec.to_json().encode()).unwrap();
            assert_eq!(*spec, re);
        }
        assert!(specs.iter().any(|s| !s.crashes.is_empty()));
        assert!(specs.iter().any(|s| s.net_faults.is_some()));
        assert!(specs.iter().any(|s| s.layout == LayoutSpec::Native));
        assert!(specs
            .iter()
            .any(|s| matches!(s.layout, LayoutSpec::Partial { .. })));
    }

    #[test]
    fn correlated_pair_slot_aborts_with_rank_lost() {
        let specs = mixed_queue(3, 40);
        let record = run_job(&specs[2], 0).unwrap();
        assert_eq!(record.status, JobStatus::Aborted, "slot 2 must abort");
    }
}
