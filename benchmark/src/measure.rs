//! One measurement of one workload, as run inside the watchdogged child
//! process: set-up, then either the timed passes (end-to-end metrics, tracing
//! off) or the traced run (per-layer metrics).

use crate::gen::{self, LibJob, Queue};
use crate::metrics::{Metric, Metrics};
use crate::trace::Tracer;
use crate::workload::{self, Counters, PassResult, References};
use crate::{host, kernels, stats};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;
use workloads::serve::Json;

pub const OUT_DIR: &str = "benchmark/out";
const DIGEST_FILE: &str = "benchmark/reference/sim_digest.json";

/// A workload after set-up: inputs generated, references computed, pools
/// warm.
pub enum Prepared {
    Lib {
        jobs: Vec<LibJob>,
    },
    Serve {
        queue: Queue,
        /// The queue as the traced run uses it: every job at `workers: 1`
        /// (exactly repeatable), crash jobs joined by their fault-free twins.
        exact: Queue,
        refs: References,
        max_concurrent: usize,
    },
}

fn dump_queue(workload: &str, lines: impl Iterator<Item = String>) {
    let path = Path::new(OUT_DIR).join(format!("{workload}.queue.jsonl"));
    let text: String = lines.map(|l| l + "\n").collect();
    std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, text))
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
}

/// Set-up: generate the inputs from the seed, dump them, compute the native
/// reference checksums and warm the stack/carrier pools.
pub fn prepare(workload: &str, seed: u64) -> Prepared {
    let lib = |jobs: Vec<LibJob>| {
        dump_queue(workload, jobs.iter().map(|j| j.to_json().encode()));
        // Warm-up: a class-S dual CG at full width leases (and touches) the
        // stacks every timed dual job will reuse.
        let warm = LibJob {
            id: "warmup-dual".to_string(),
            kernel: workloads::nas::NasKernel::Cg,
            cfg: workloads::nas::NasConfig::class_s(),
            ranks: jobs[0].ranks,
            dual: true,
        };
        let pass = workload::lib_pass(&[warm], &mut Tracer::new(false));
        assert!(pass.failures().is_empty(), "warm-up job failed");
        Prepared::Lib { jobs }
    };
    let serve = |queue: Queue, exact: Queue, max_concurrent: usize| {
        dump_queue(workload, queue.text.lines().map(str::to_string));
        let refs = workload::native_references(&queue.specs);
        Prepared::Serve {
            queue,
            exact,
            refs,
            max_concurrent,
        }
    };
    match workload {
        "nas_msgbound_256" => lib(gen::nas_msgbound(seed)),
        "ft_payload_128" => lib(gen::ft_payload(seed)),
        "serve_mixed" => serve(
            gen::serve_mixed(seed, false),
            gen::serve_mixed(seed, true),
            2,
        ),
        "fault_recovery_64" => serve(
            gen::fault_recovery(seed, false),
            gen::fault_recovery(seed, true),
            1,
        ),
        other => panic!("unknown workload '{other}'"),
    }
}

impl Prepared {
    /// One pass exactly as the end-to-end measurement runs it.
    fn standard_pass(&self) -> PassResult {
        let mut off = Tracer::new(false);
        match self {
            Prepared::Lib { jobs } => workload::lib_pass(jobs, &mut off),
            Prepared::Serve {
                queue,
                refs,
                max_concurrent,
                ..
            } => workload::serve_pass(queue, refs, *max_concurrent, &mut off),
        }
    }

    /// One pass of the exactly repeatable configuration (`workers: 1`
    /// everywhere, one job in flight).
    fn exact_pass(&self, tracer: &mut Tracer) -> PassResult {
        match self {
            Prepared::Lib { jobs } => workload::lib_pass(jobs, tracer),
            Prepared::Serve { exact, refs, .. } => workload::serve_pass(exact, refs, 1, tracer),
        }
    }
}

/// What one child run reports back.
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: usize,
    pub failed: usize,
    /// The first few failure descriptions, for the human reader.
    pub failures: Vec<String>,
    /// Hex digest of the exact pass (traced run only).
    pub digest: Option<String>,
}

impl Outcome {
    /// Parse what [`Outcome::to_json`] wrote (the parent reading its child).
    pub fn from_json(doc: &Json) -> Option<Outcome> {
        Some(Outcome {
            metrics: crate::metrics::from_json(doc.get("metrics")?),
            attempted: doc.get("attempted")?.as_u64()? as usize,
            failed: doc.get("failed")?.as_u64()? as usize,
            failures: doc
                .get("failures")?
                .as_arr()?
                .iter()
                .filter_map(|f| f.as_str().map(str::to_string))
                .collect(),
            digest: doc.get("digest")?.as_str().map(str::to_string),
        })
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("ev".to_string(), Json::Str("result".to_string())),
            ("attempted".to_string(), Json::Int(self.attempted as i64)),
            ("failed".to_string(), Json::Int(self.failed as i64)),
            (
                "failures".to_string(),
                Json::Arr(self.failures.iter().cloned().map(Json::Str).collect()),
            ),
            (
                "digest".to_string(),
                self.digest.clone().map_or(Json::Null, Json::Str),
            ),
            (
                "metrics".to_string(),
                crate::metrics::to_json_raw(&self.metrics),
            ),
        ])
    }
}

fn tally(passes: &[&PassResult]) -> (usize, usize, Vec<String>) {
    let attempted = passes.iter().map(|p| p.attempted()).sum();
    let failures: Vec<String> = passes.iter().flat_map(|p| p.failures()).collect();
    (
        attempted,
        failures.len(),
        failures.into_iter().take(10).collect(),
    )
}

fn progress(msg: &str) {
    // Progress goes to stderr: stdout carries only the result lines.
    eprintln!("[sdr_benchmark] {msg}");
}

/// End-to-end measurement: run standard passes for `seconds` (at least
/// three), tracing off.
pub fn end_to_end(prepared: &Prepared, seconds: f64) -> Outcome {
    let started = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < 3 || started.elapsed().as_secs_f64() < seconds {
        let pass = prepared.standard_pass();
        progress(&format!(
            "pass {}: {:.3} s, {} jobs, {} failed",
            passes.len() + 1,
            pass.host_s,
            pass.jobs.len(),
            pass.failures().len()
        ));
        passes.push(pass);
    }
    let per_pass = |f: &dyn Fn(&PassResult) -> f64| -> Vec<f64> { passes.iter().map(f).collect() };
    let mut metrics = Metrics::new();
    metrics.insert(
        "host_s".to_string(),
        Metric::of_samples(&per_pass(&|p| p.host_s)),
    );
    metrics.insert(
        "sim_msgs_per_host_s".to_string(),
        Metric::of_samples(&per_pass(&|p| p.msgs as f64 / p.host_s)),
    );
    metrics.insert(
        "jobs_per_min".to_string(),
        Metric::of_samples(&per_pass(&|p| p.jobs.len() as f64 / p.host_s * 60.0)),
    );
    // Median over passes of each pass's median job latency, so that the
    // recorded dispersion is pass-to-pass like the other metrics', not the
    // (wide, fixed) spread of the job mix.
    metrics.insert(
        "job_p50_ms".to_string(),
        Metric::of_samples(&per_pass(&|p| {
            let ms: Vec<f64> = p.jobs.iter().map(|j| j.latency_s * 1e3).collect();
            stats::median(&ms)
        })),
    );
    metrics.insert(
        "peak_rss_mb".to_string(),
        Metric::single(host::peak_rss_mb()),
    );
    let (attempted, failed, failures) = tally(&passes.iter().collect::<Vec<_>>());
    Outcome {
        metrics,
        attempted,
        failed,
        failures,
        digest: None,
    }
}

/// Counters that legitimately differ between two exact passes: pool state
/// and host time (every seconds accumulator is named `*_s`).
fn host_dependent(name: &str) -> bool {
    name.starts_with("carrier.stacks_")
        || name.ends_with("_s")
        || name == "carrier.stack_bytes_peak_mb"
}

/// What must repeat exactly between two exact passes: per-job virtual time,
/// message count and checksums, and every host-independent counter.
#[derive(PartialEq)]
struct ExactImage {
    /// `(job id, virtual ns, messages, checksum hash)`, sorted by id.
    rows: Vec<(String, u64, u64, u64)>,
    counters: Vec<(&'static str, u64)>,
}

fn exact_image(pass: &PassResult) -> ExactImage {
    let mut rows: Vec<_> = pass
        .sim
        .iter()
        .map(|r| (r.id.clone(), r.elapsed_ns, r.total_msgs, r.result_hash))
        .collect();
    rows.sort();
    let counters = pass
        .counters
        .iter()
        .filter(|(name, _)| !host_dependent(name))
        .map(|(name, v)| (*name, v.to_bits()))
        .collect();
    ExactImage { rows, counters }
}

fn digest_of(pass: &PassResult) -> String {
    let rows = exact_image(pass).rows;
    let words = rows.iter().flat_map(|(id, ns, msgs, hash)| {
        [
            workload::fnv1a(id.bytes().map(u64::from)),
            *ns,
            *msgs,
            *hash,
        ]
    });
    format!("{:#018x}", workload::fnv1a(words))
}

/// 1 = matches the pinned digest, 0 = differs, -1 = nothing pinned for this
/// workload and seed.
fn digest_match(workload: &str, seed: u64, is_lib: bool, digest: &str) -> f64 {
    // Library job lists do not depend on the seed beyond their order, which
    // the digest ignores; serve queues do, so they are pinned per seed.
    let key = if is_lib {
        workload.to_string()
    } else {
        format!("{workload}@{seed}")
    };
    let pinned = std::fs::read_to_string(DIGEST_FILE)
        .ok()
        .and_then(|t| workloads::serve::json::parse(&t).ok())
        .and_then(|doc| doc.get(&key).and_then(Json::as_str).map(str::to_string));
    match pinned {
        None => -1.0,
        Some(p) if p == digest => 1.0,
        Some(p) => {
            progress(&format!(
                "SIM DIGEST MISMATCH for {key}: pinned {p}, measured {digest} \
                 (virtual times, message counts or checksums moved; legitimate only \
                 if the model changed — then update {DIGEST_FILE})"
            ));
            0.0
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The ledger: for each layer, count x calibrated cost / host seconds. These
/// are estimates — kernels run in isolation, with warm caches — and are
/// labelled as such everywhere they are printed.
fn ledger(c: &Counters, k: &BTreeMap<&'static str, f64>, host_s: f64, out: &mut Metrics) {
    let get = |name: &str| c.get(name).copied().unwrap_or(0.0);
    let host_ns = host_s * 1e9;
    let msgs = get("msgs.total");
    let app = get("msgs.app");
    let dispatches = get("sched.handoffs") + get("sched.steals") + get("sched.condvar_waits");
    let mean_kib = ratio(get("bytes.total"), msgs) / 1024.0;
    // Per-message fabric cost, interpolated between the 8 B and 4 KiB kernels.
    let fabric_per_kib = (k["fabric.send_recv_4k_ns"] - k["fabric.send_recv_ns"]).max(0.0) / 4.0;
    let fabric_ns = k["fabric.send_recv_ns"] + fabric_per_kib * mean_kib;
    // What a native ping-pong message costs beyond its fabric crossing and
    // its dispatch is the PML's own work (matching, requests, progress); the
    // 64 KiB kernel prices payload marshalling per KiB.
    let pml_own_ns =
        (k["pml.pingpong_native_ns"] - k["fabric.send_recv_ns"] - k["sched.coro_handoff_ns"])
            .max(0.0);
    let pml_per_kib = (k["pml.pingpong_64k_ns_per_kib"] - fabric_per_kib).max(0.0);
    let pml_ns = pml_own_ns + pml_per_kib * mean_kib;
    // A dual logical message is two application sends plus two acks; what it
    // costs beyond those four crossings is the protocol's own bookkeeping.
    let proto_own_ns = (k["proto.pingpong_dual_ns"]
        - 2.0 * k["pml.pingpong_native_ns"]
        - 2.0 * (k["fabric.send_recv_ns"] + k["sched.coro_handoff_ns"]))
        .max(0.0);
    let shares = [
        (
            "ledger.sched_share",
            dispatches * k["sched.coro_handoff_ns"],
        ),
        ("ledger.fabric_share", msgs * fabric_ns),
        ("ledger.pml_share", app * pml_ns),
        ("ledger.proto_share", get("msgs.ack") * proto_own_ns),
        (
            "ledger.launch_share",
            get("runtime.procs_launched") * k["runtime.launch_us_per_proc_512"] * 1e3,
        ),
    ];
    let mut modelled = 0.0;
    for (name, ns) in shares {
        let share = ratio(ns, host_ns);
        modelled += share;
        out.insert(name.to_string(), Metric::single(share));
    }
    out.insert(
        "ledger.residual_share".to_string(),
        Metric::single(1.0 - modelled),
    );
}

/// The traced run: calibration kernels, one traced exact pass (spans +
/// counters), one untraced exact pass (tracing overhead, repeatability),
/// then standard passes for what is left of `seconds`.
pub fn per_layer(workload: &str, seed: u64, prepared: &Prepared, seconds: f64) -> Outcome {
    progress("calibration kernels");
    let kernel = kernels::run_all();
    let started = Instant::now();

    let mut tracer = Tracer::new(true);
    tracer.begin("workload", None);
    let traced = prepared.exact_pass(&mut tracer);
    tracer.end(Vec::new());
    progress(&format!("traced pass: {:.3} s", traced.host_s));
    let untraced = prepared.exact_pass(&mut Tracer::new(false));
    progress(&format!("untraced exact pass: {:.3} s", untraced.host_s));

    // serve_mixed only: the same exact queue with two jobs in flight.
    let concurrent = match prepared {
        Prepared::Serve {
            exact,
            refs,
            max_concurrent: 2,
            ..
        } => Some(workload::serve_pass(
            exact,
            refs,
            2,
            &mut Tracer::new(false),
        )),
        _ => None,
    };
    let mut standard = Vec::new();
    while started.elapsed().as_secs_f64() < seconds {
        standard.push(prepared.standard_pass());
    }

    let trace_path = Path::new(OUT_DIR).join(format!("trace_{workload}.json"));
    std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&trace_path, tracer.to_chrome_json().encode()))
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", trace_path.display()));

    let c = &traced.counters;
    let get = |name: &str| c.get(name).copied().unwrap_or(0.0);
    let mut m = Metrics::new();
    for (name, value) in &kernel {
        m.insert(name.to_string(), Metric::single(*value));
    }
    for name in [
        "sched.wakes_issued",
        "sched.wakes_suppressed",
        "sched.handoffs",
        "sched.steals",
        "sched.condvar_waits",
        "carrier.stack_switches",
        "carrier.stacks_allocated",
        "carrier.stacks_reused",
        "carrier.stack_bytes_peak_mb",
        "fabric.flushes",
        "fabric.deliveries_direct",
        "fabric.heap_fallbacks",
        "proto.retransmits",
        "proto.dups_suppressed",
        "recovery.crashes_fired",
        "netfault.dropped",
        "netfault.duplicated",
        "netfault.delayed",
        "serve.rejected",
    ] {
        m.insert(name.to_string(), Metric::single(get(name)));
    }
    let mut put = |name: &str, value: f64| {
        m.insert(name.to_string(), Metric::single(value));
    };
    put(
        "fabric.mean_flush_batch",
        ratio(get("fabric.flushed_msgs"), get("fabric.flushes")),
    );
    put(
        "fabric.direct_share",
        ratio(
            get("fabric.deliveries_direct"),
            get("fabric.deliveries_direct") + get("fabric.heap_fallbacks"),
        ),
    );
    put(
        "proto.acks_per_app_msg",
        ratio(get("proto.clean_ack_msgs"), get("proto.clean_app_msgs")),
    );
    put(
        "proto.retx_per_drop",
        ratio(get("proto.retransmits"), get("netfault.dropped")),
    );
    put(
        "recovery.crash_host_ratio",
        ratio(get("recovery.crash_s"), get("recovery.twin_s")),
    );
    put(
        "netfault.cpu_util",
        ratio(get("netfault.cpu_s"), get("netfault.wall_s")),
    );
    put(
        "nas.repl_host_ratio",
        ratio(get("host.dual_s"), get("host.native_s")),
    );
    put("nas.payload_mb", get("bytes.total") / 1e6);
    put(
        "serve.concurrency_speedup",
        concurrent
            .as_ref()
            .map_or(0.0, |two| ratio(untraced.host_s, two.host_s)),
    );
    put("sim.overhead_pct", traced.sim_overhead_pct);
    put(
        "trace.overhead_pct",
        (traced.host_s - untraced.host_s) / untraced.host_s * 100.0,
    );
    put("trace.spans", tracer.span_count() as f64);
    put(
        "sim.counts_repeat",
        if exact_image(&traced) == exact_image(&untraced) {
            1.0
        } else {
            progress("EXACT PASSES DIFFER: counters or virtual times did not repeat at workers: 1");
            0.0
        },
    );
    let digest = digest_of(&traced);
    put(
        "sim.digest_match",
        digest_match(
            workload,
            seed,
            matches!(prepared, Prepared::Lib { .. }),
            &digest,
        ),
    );

    // Host-time ratios come from every untraced pass of this run.
    let mut untraced_passes: Vec<&PassResult> = vec![&untraced];
    untraced_passes.extend(concurrent.as_ref());
    untraced_passes.extend(standard.iter());
    let cpu: f64 = untraced_passes.iter().map(|p| p.cpu_s).sum();
    let wall: f64 = untraced_passes.iter().map(|p| p.host_s).sum();
    put("sched.cpu_util", ratio(cpu, wall));
    // The service-latency tail comes from the standard passes when the time
    // budget allowed any, else from the exact one; the percentile is lowered
    // until enough samples lie beyond it (30 for a p99, never under 10).
    let tail_from: Vec<&PassResult> = if standard.is_empty() {
        vec![&untraced]
    } else {
        standard.iter().collect()
    };
    let latencies_ms: Vec<f64> = tail_from
        .iter()
        .flat_map(|p| p.jobs.iter().map(|j| j.latency_s * 1e3))
        .collect();
    let min_beyond = if latencies_ms.len() >= 3000 { 30 } else { 10 };
    let (pct, p99) = stats::tail(&latencies_ms, 0.99, min_beyond);
    progress(&format!(
        "serve.job_p99_ms is the p{:.1} of {} job latencies",
        pct * 100.0,
        latencies_ms.len()
    ));
    put("serve.job_p99_ms", p99);

    let mut all: Vec<&PassResult> = vec![&traced];
    all.extend(untraced_passes);
    let (attempted, failed, failures) = tally(&all);
    put("failed_share", ratio(failed as f64, attempted as f64));
    ledger(c, &kernel, untraced.host_s, &mut m);
    Outcome {
        metrics: m,
        attempted,
        failed,
        failures,
        digest: Some(digest),
    }
}
