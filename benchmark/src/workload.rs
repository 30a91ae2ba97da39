//! The pass runners. A *pass* runs every job of a workload once. Library
//! workloads go through `sdr_core::{native_job, replicated_job}` +
//! `JobBuilder::run` + `workloads::nas::run_kernel`; service workloads go
//! through the wire path `parse_queue` → `serve`. Nothing here reaches into
//! `sdr_bench` helpers or `workloads::runner`.
//!
//! Every job is checked: a wrong status, a checksum that differs from the
//! native reference, a missing record or a wrongly accepted malformed line
//! counts as a failure.

use crate::gen::{Expect, LibJob, Queue};
use crate::host;
use crate::trace::Tracer;
use sdr_core::{native_job, replicated_job, ReplicationConfig};
use sim_net::{CarrierPool, StatsSnapshot};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};
use workloads::nas::run_kernel;
use workloads::serve::{
    parse_queue, serve, JobRecord, JobSpec, JobStatus, Json, LayoutSpec, ServeConfig, ServeEvent,
    Submission,
};

/// Named counters summed over the jobs of a pass (the `C` metrics).
pub type Counters = BTreeMap<&'static str, f64>;

fn bump(c: &mut Counters, name: &'static str, by: f64) {
    *c.entry(name).or_insert(0.0) += by;
}

fn raise(c: &mut Counters, name: &'static str, to: f64) {
    let slot = c.entry(name).or_insert(0.0);
    *slot = slot.max(to);
}

/// The simulated, host-independent image of one job: what the digest pins.
#[derive(Debug, Clone)]
pub struct SimRow {
    pub id: String,
    pub elapsed_ns: u64,
    pub total_msgs: u64,
    /// FNV-1a over the finished processes' checksum bits, in endpoint order.
    pub result_hash: u64,
}

/// One job as the harness saw it.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    pub id: String,
    pub latency_s: f64,
    pub failure: Option<String>,
}

/// Everything one pass produced.
#[derive(Debug, Default)]
pub struct PassResult {
    pub host_s: f64,
    pub cpu_s: f64,
    pub msgs: u64,
    /// Every job that produced a record (or, on the library path, ran).
    pub jobs: Vec<JobOutcome>,
    /// Attempts that are not jobs: the malformed lines that must be rejected.
    pub other_attempted: usize,
    /// Failures not tied to a completed job (missing records, a malformed
    /// line accepted).
    pub other_failures: Vec<String>,
    pub counters: Counters,
    pub sim: Vec<SimRow>,
    /// Mean over native/dual pairs of (dual − native)/native virtual time, %.
    pub sim_overhead_pct: f64,
}

impl PassResult {
    pub fn attempted(&self) -> usize {
        self.jobs.len() + self.other_attempted + self.other_failures.len()
    }

    /// One line per failed operation.
    pub fn failures(&self) -> Vec<String> {
        self.jobs
            .iter()
            .filter_map(|j| j.failure.as_ref().map(|f| format!("{}: {f}", j.id)))
            .chain(self.other_failures.iter().cloned())
            .collect()
    }
}

pub fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

fn count_stats(c: &mut Counters, s: &StatsSnapshot) {
    bump(c, "sched.wakes_issued", s.wakes_issued() as f64);
    bump(c, "sched.wakes_suppressed", s.wakes_suppressed() as f64);
    bump(c, "sched.handoffs", s.handoffs() as f64);
    bump(c, "sched.steals", s.steals() as f64);
    bump(c, "sched.condvar_waits", s.condvar_waits() as f64);
    bump(c, "carrier.stack_switches", s.stack_switches() as f64);
    bump(c, "carrier.stacks_allocated", s.stacks_allocated() as f64);
    bump(c, "carrier.stacks_reused", s.stacks_reused() as f64);
    raise(
        c,
        "carrier.stack_bytes_peak_mb",
        s.stack_bytes_peak() as f64 / (1 << 20) as f64,
    );
    bump(c, "fabric.flushes", s.flushes() as f64);
    bump(c, "fabric.flushed_msgs", s.flushed_msgs() as f64);
    bump(c, "fabric.deliveries_direct", s.deliveries_direct() as f64);
    bump(c, "fabric.heap_fallbacks", s.heap_fallbacks() as f64);
    bump(c, "msgs.total", s.total_msgs() as f64);
    bump(c, "msgs.app", s.app_msgs() as f64);
    bump(c, "msgs.ack", s.ack_msgs() as f64);
    bump(c, "bytes.total", s.total_bytes() as f64);
}

/// Wait (briefly) until every pooled carrier thread has parked itself again.
/// A worker hands its result back *before* it rejoins the pool's idle list,
/// so a caller that launches the next job at once can lose that race; the
/// pool then spawns a fresh thread, which brings a fresh malloc arena, and
/// peak RSS becomes multi-modal (502 / 697 / 899 / 947 MB were all seen on
/// `ft_payload_128` for the same inputs). Back-to-back library jobs wait out
/// the race so `peak_rss_mb` measures the simulator, not the coin toss.
fn settle_carriers() {
    let pool = CarrierPool::global();
    let deadline = Instant::now() + Duration::from_millis(100);
    while (pool.idle_count() as u64) < pool.spawned_total() && Instant::now() < deadline {
        std::thread::yield_now();
    }
}

/// One leg (native or dual) of a library pair, kept for the cross-check.
struct Leg {
    dual: bool,
    /// Primary checksum bits per rank.
    bits: Vec<u64>,
    virtual_ns: u64,
}

/// Run every library job once, in list order, and check each dual leg's
/// primary checksums against its native twin, bit for bit.
pub fn lib_pass(jobs: &[LibJob], tracer: &mut Tracer) -> PassResult {
    let mut out = PassResult::default();
    let mut legs: BTreeMap<String, Vec<Leg>> = BTreeMap::new();
    let cpu0 = host::cpu_seconds();
    let started = Instant::now();
    tracer.begin("pass", None);
    for job in jobs {
        tracer.begin("job", Some(&job.id));
        tracer.begin("build", Some(&job.id));
        let builder = if job.dual {
            replicated_job(job.ranks, ReplicationConfig::dual())
        } else {
            native_job(job.ranks)
        }
        .workers(1);
        let (kernel, cfg) = (job.kernel, job.cfg);
        bump(
            &mut out.counters,
            "runtime.procs_launched",
            builder.physical_processes() as f64,
        );
        tracer.end(Vec::new());

        tracer.begin("JobBuilder::run", Some(&job.id));
        let t = Instant::now();
        let report = builder.run(move |p| run_kernel(kernel, p, &cfg));
        let latency_s = t.elapsed().as_secs_f64();
        tracer.end(Vec::new());
        settle_carriers();

        tracer.begin("report read-out", Some(&job.id));
        let failure = (!report.all_finished()).then(|| "not every process finished".to_string());
        let bits: Vec<u64> = report
            .primary_results()
            .into_iter()
            .map(|v| v.to_bits())
            .collect();
        let all_bits = report
            .processes
            .iter()
            .filter_map(|p| p.outcome.result().map(|v| v.to_bits()));
        out.sim.push(SimRow {
            id: job.id.clone(),
            elapsed_ns: report.elapsed.as_nanos(),
            total_msgs: report.stats.total_msgs(),
            result_hash: fnv1a(all_bits),
        });
        count_stats(&mut out.counters, &report.stats);
        bump(
            &mut out.counters,
            if job.dual {
                "host.dual_s"
            } else {
                "host.native_s"
            },
            latency_s,
        );
        if job.dual {
            bump(
                &mut out.counters,
                "proto.clean_app_msgs",
                report.stats.app_msgs() as f64,
            );
            bump(
                &mut out.counters,
                "proto.clean_ack_msgs",
                report.stats.ack_msgs() as f64,
            );
        }
        out.msgs += report.stats.total_msgs();
        legs.entry(job.pair().to_string()).or_default().push(Leg {
            dual: job.dual,
            bits,
            virtual_ns: report.elapsed.as_nanos(),
        });
        out.jobs.push(JobOutcome {
            id: job.id.clone(),
            latency_s,
            failure,
        });
        tracer.end(vec![
            (
                "total_msgs".to_string(),
                Json::Int(report.stats.total_msgs() as i64),
            ),
            (
                "stack_switches".to_string(),
                Json::Int(report.stats.stack_switches() as i64),
            ),
            (
                "flushes".to_string(),
                Json::Int(report.stats.flushes() as i64),
            ),
            (
                "heap_fallbacks".to_string(),
                Json::Int(report.stats.heap_fallbacks() as i64),
            ),
            (
                "virtual_ns".to_string(),
                Json::Int(report.elapsed.as_nanos() as i64),
            ),
        ]);
        tracer.end(vec![("latency_s".to_string(), Json::Num(latency_s))]);
    }
    out.host_s = started.elapsed().as_secs_f64();
    out.cpu_s = host::cpu_seconds() - cpu0;
    tracer.end(vec![("host_s".to_string(), Json::Num(out.host_s))]);

    let mut overheads = Vec::new();
    for (pair, legs) in &legs {
        let native = legs.iter().find(|l| !l.dual);
        let dual = legs.iter().find(|l| l.dual);
        let (Some(native), Some(dual)) = (native, dual) else {
            continue;
        };
        if native.bits != dual.bits {
            if let Some(job) = out
                .jobs
                .iter_mut()
                .find(|j| j.id == format!("{pair}-dual") && j.failure.is_none())
            {
                job.failure = Some("dual checksum bits differ from native".to_string());
            }
        }
        overheads.push(
            (dual.virtual_ns as f64 - native.virtual_ns as f64) / native.virtual_ns as f64 * 100.0,
        );
    }
    if !overheads.is_empty() {
        out.sim_overhead_pct = overheads.iter().sum::<f64>() / overheads.len() as f64;
    }
    out
}

/// Native reference checksums (bits per application rank), keyed by
/// [`crate::gen::reference_key`].
pub type References = BTreeMap<String, Vec<u64>>;

/// Run the native, fault-free twin of every distinct job shape in `specs`
/// once and keep its per-rank checksum bits.
pub fn native_references(specs: &[JobSpec]) -> References {
    let mut twins: BTreeMap<String, JobSpec> = BTreeMap::new();
    for spec in specs {
        twins
            .entry(crate::gen::reference_key(spec))
            .or_insert_with(|| JobSpec {
                id: crate::gen::reference_key(spec),
                layout: LayoutSpec::Native,
                carrier_mode: Some(sim_net::CarrierMode::Coroutine),
                workers: Some(1),
                crashes: Vec::new(),
                sdc: Vec::new(),
                net_faults: None,
                trace: false,
                ..spec.clone()
            });
    }
    let submissions = twins.into_values().map(Submission::Spec).collect();
    let mut refs = References::new();
    serve(submissions, ServeConfig { max_concurrent: 1 }, |event| {
        if let ServeEvent::Completed(record) = event {
            assert_eq!(
                record.status,
                JobStatus::Finished,
                "native reference run '{}' did not finish",
                record.id
            );
            let mut bits = vec![0u64; record.spec.ranks];
            for p in &record.processes {
                bits[p.app_rank] = p.result_bits.expect("finished process has a result");
            }
            refs.insert(record.id.clone(), bits);
        }
    });
    refs
}

fn check_record(record: &JobRecord, expect: Option<&Expect>, refs: &References) -> Option<String> {
    let Some(expect) = expect else {
        return Some("record for a job that was never submitted".to_string());
    };
    if record.status != expect.status {
        return Some(format!(
            "status {} (expected {})",
            record.status.name(),
            expect.status.name()
        ));
    }
    if record.status == JobStatus::Aborted {
        return None;
    }
    let Some(reference) = refs.get(&expect.reference) else {
        return Some(format!("no native reference '{}'", expect.reference));
    };
    let mut covered = vec![false; record.spec.ranks];
    for p in &record.processes {
        if let Some(bits) = p.result_bits {
            if bits != reference[p.app_rank] {
                return Some(format!(
                    "rank {} replica {} checksum bits differ from native",
                    p.app_rank, p.replica
                ));
            }
            covered[p.app_rank] = true;
        }
    }
    covered
        .iter()
        .position(|c| !c)
        .map(|rank| format!("no surviving result for rank {rank}"))
}

fn count_record(c: &mut Counters, r: &JobRecord) {
    bump(c, "msgs.total", r.total_msgs as f64);
    bump(c, "msgs.app", r.app_msgs as f64);
    bump(c, "msgs.ack", r.ack_msgs as f64);
    bump(c, "bytes.total", r.total_bytes as f64);
    bump(c, "runtime.procs_launched", r.processes.len() as f64);
    bump(c, "proto.retransmits", r.retransmits as f64);
    bump(c, "proto.dups_suppressed", r.dups_suppressed as f64);
    bump(c, "netfault.dropped", r.msgs_dropped as f64);
    bump(c, "netfault.duplicated", r.msgs_duplicated as f64);
    bump(c, "netfault.delayed", r.msgs_delayed as f64);
    bump(c, "recovery.crashes_fired", r.crashes as f64);
    bump(
        c,
        "carrier.stacks_allocated",
        r.host.stacks_allocated as f64,
    );
    bump(c, "carrier.stacks_reused", r.host.stacks_reused as f64);
    raise(
        c,
        "carrier.stack_bytes_peak_mb",
        r.stack_bytes_peak as f64 / (1 << 20) as f64,
    );
    // Acks per application message, over dual jobs that lost nothing: the
    // protocol sends exactly one.
    if r.spec.layout == (LayoutSpec::Replicated { degree: 2 })
        && r.crashes == 0
        && r.spec.net_faults.is_none()
    {
        bump(c, "proto.clean_app_msgs", r.app_msgs as f64);
        bump(c, "proto.clean_ack_msgs", r.ack_msgs as f64);
    }
}

/// Feed the queue text through `parse_queue` → `serve` and check every
/// record as it streams out. The sink encodes each event to its wire form,
/// as `sdr-serve` does, so record encoding is part of the measured round.
pub fn serve_pass(
    queue: &Queue,
    refs: &References,
    max_concurrent: usize,
    tracer: &mut Tracer,
) -> PassResult {
    let mut out = PassResult::default();
    let cpu0 = host::cpu_seconds();
    let started = Instant::now();
    tracer.begin("pass", None);
    tracer.begin("parse_queue", None);
    let submissions = parse_queue(&queue.text);
    tracer.end(vec![(
        "lines".to_string(),
        Json::Int(submissions.len() as i64),
    )]);

    tracer.begin("serve", None);
    let mut rejected = 0usize;
    let mut seen = std::collections::BTreeSet::new();
    let mut last_cpu = host::cpu_seconds();
    // At `max_concurrent` 1 jobs run one after another, so the interval
    // between two completions brackets one job.
    tracer.begin("job", None);
    serve(submissions, ServeConfig { max_concurrent }, |event| {
        let encoded = event.to_json().encode();
        black_box(encoded.len());
        match event {
            ServeEvent::Rejected { .. } => rejected += 1,
            ServeEvent::Completed(record) => {
                tracer.end(vec![
                    ("job".to_string(), Json::Str(record.id.clone())),
                    ("latency_s".to_string(), Json::Num(record.host.latency_s)),
                    (
                        "total_msgs".to_string(),
                        Json::Int(record.total_msgs as i64),
                    ),
                    (
                        "retransmits".to_string(),
                        Json::Int(record.retransmits as i64),
                    ),
                    ("crashes".to_string(), Json::Int(record.crashes as i64)),
                    (
                        "virtual_ns".to_string(),
                        Json::Int(record.elapsed_ns as i64),
                    ),
                ]);
                tracer.begin("report read-out", Some(&record.id));
                let mut failure = check_record(&record, queue.expect.get(&record.id), refs);
                if !seen.insert(record.id.clone()) && failure.is_none() {
                    failure = Some("job reported twice".to_string());
                }
                count_record(&mut out.counters, &record);
                let now_cpu = host::cpu_seconds();
                if record.spec.net_faults.is_some() {
                    bump(&mut out.counters, "netfault.cpu_s", now_cpu - last_cpu);
                    bump(&mut out.counters, "netfault.wall_s", record.host.latency_s);
                }
                last_cpu = now_cpu;
                if !record.spec.crashes.is_empty() {
                    bump(&mut out.counters, "recovery.crash_s", record.host.latency_s);
                } else if record.id.ends_with("-twin") {
                    bump(&mut out.counters, "recovery.twin_s", record.host.latency_s);
                }
                out.msgs += record.total_msgs;
                out.sim.push(SimRow {
                    id: record.id.clone(),
                    elapsed_ns: record.elapsed_ns,
                    total_msgs: record.total_msgs,
                    result_hash: fnv1a(record.processes.iter().filter_map(|p| p.result_bits)),
                });
                out.jobs.push(JobOutcome {
                    id: record.id.clone(),
                    latency_s: record.host.latency_s,
                    failure,
                });
                tracer.end(Vec::new());
                tracer.begin("job", None);
            }
        }
    });
    tracer.cancel(); // the job span opened after the last completion
    tracer.end(vec![("rejected".to_string(), Json::Int(rejected as i64))]);
    out.host_s = started.elapsed().as_secs_f64();
    out.cpu_s = host::cpu_seconds() - cpu0;
    tracer.end(vec![("host_s".to_string(), Json::Num(out.host_s))]);

    bump(&mut out.counters, "serve.rejected", rejected as f64);
    for id in queue.expect.keys().filter(|id| !seen.contains(*id)) {
        out.other_failures
            .push(format!("{id}: no record, the job never completed"));
    }
    // Each malformed line is one attempt; one that was accepted (or a good
    // line that was rejected) is a failed operation.
    out.other_attempted = queue.malformed.min(rejected);
    for _ in 0..queue.malformed.abs_diff(rejected) {
        out.other_failures.push(format!(
            "{rejected} lines rejected, {} malformed lines planted",
            queue.malformed
        ));
    }
    out
}
