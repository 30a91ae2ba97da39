//! The metric names and units: the one table `BENCHMARK.json`, the harness
//! output and `compare` all agree on (a unit test pins it to
//! `BENCHMARK.json`). Every later issue uses these names.

use crate::stats::Summary;
use std::collections::BTreeMap;
use workloads::serve::Json;

pub const WORKLOADS: [&str; 4] = [
    "nas_msgbound_256",
    "ft_payload_128",
    "serve_mixed",
    "fault_recovery_64",
];

/// End-to-end metrics `(name, unit)`, measured with tracing off.
pub const END_TO_END: [(&str, &str); 6] = [
    ("host_s", "s"),
    ("sim_msgs_per_host_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("jobs_per_min", "1/min"),
    ("job_p50_ms", "ms"),
];

/// Per-layer metrics `(name, unit)`, from the traced run.
pub const PER_LAYER: [(&str, &str); 63] = [
    // sim_net::sched / sim_net::carrier
    ("sched.coro_handoff_ns", "ns"),
    ("sched.thread_handoff_ns", "ns"),
    ("sched.cold_dispatch_ns", "ns"),
    ("sched.wakes_issued", "count"),
    ("sched.wakes_suppressed", "count"),
    ("sched.handoffs", "count"),
    ("sched.steals", "count"),
    ("sched.condvar_waits", "count"),
    ("sched.cpu_util", "ratio"),
    ("carrier.stack_switches", "count"),
    ("carrier.stacks_allocated", "count"),
    ("carrier.stacks_reused", "count"),
    ("carrier.stack_bytes_peak_mb", "MB"),
    // sim_net::fabric
    ("fabric.send_recv_ns", "ns"),
    ("fabric.send_recv_4k_ns", "ns"),
    ("fabric.burst_ingest_ns", "ns"),
    ("fabric.flushes", "count"),
    ("fabric.mean_flush_batch", "ratio"),
    ("fabric.deliveries_direct", "count"),
    ("fabric.heap_fallbacks", "count"),
    ("fabric.direct_share", "ratio"),
    // sim_mpi::matching / pml / collectives
    ("matching.post_match_ns", "ns"),
    ("matching.unexpected_wildcard_ns", "ns"),
    ("matching.gather_reverse_ns", "ns"),
    ("pml.pingpong_native_ns", "ns"),
    ("pml.pingpong_64k_ns_per_kib", "ns"),
    ("coll.allreduce_64_ns_per_msg", "ns"),
    ("coll.alltoall_64_ns_per_msg", "ns"),
    // sdr_core::protocol
    ("proto.pingpong_dual_ns", "ns"),
    ("proto.host_cost_ratio", "ratio"),
    ("proto.seqtracker_ns", "ns"),
    ("proto.acks_per_app_msg", "ratio"),
    ("proto.retransmits", "count"),
    ("proto.retx_per_drop", "ratio"),
    ("proto.dups_suppressed", "count"),
    // sdr_core::recovery / sim_net::netfault
    ("recovery.crash_host_ratio", "ratio"),
    ("recovery.crashes_fired", "count"),
    ("netfault.dropped", "count"),
    ("netfault.duplicated", "count"),
    ("netfault.delayed", "count"),
    ("netfault.cpu_util", "ratio"),
    // sim_mpi::runtime / workloads::serve
    ("runtime.launch_us_per_proc_4", "us"),
    ("runtime.launch_us_per_proc_512", "us"),
    ("runtime.launch_thread_us_per_proc_8", "us"),
    ("serve.parse_us_per_line", "us"),
    ("serve.record_encode_us", "us"),
    ("serve.concurrency_speedup", "ratio"),
    ("serve.rejected", "count"),
    ("serve.job_p99_ms", "ms"),
    // workloads::nas
    ("nas.repl_host_ratio", "ratio"),
    ("nas.payload_mb", "MB"),
    // the ledger: count x kernel cost / host seconds (estimates)
    ("ledger.sched_share", "ratio"),
    ("ledger.fabric_share", "ratio"),
    ("ledger.pml_share", "ratio"),
    ("ledger.proto_share", "ratio"),
    ("ledger.launch_share", "ratio"),
    ("ledger.residual_share", "ratio"),
    // the simulated result and the traced run itself
    ("sim.overhead_pct", "%"),
    ("sim.digest_match", "count"),
    ("sim.counts_repeat", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
    ("failed_share", "ratio"),
];

/// One measured value, with its dispersion where it came from samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub summary: Option<Summary>,
}

impl Metric {
    pub fn single(value: f64) -> Metric {
        Metric {
            value,
            summary: None,
        }
    }

    /// A metric whose value is the median of `samples`.
    pub fn of_samples(samples: &[f64]) -> Metric {
        let summary = crate::stats::summarize(samples);
        Metric {
            value: summary.median,
            summary: Some(summary),
        }
    }
}

pub type Metrics = BTreeMap<String, Metric>;

impl Metric {
    /// `{"value", "unit"?, "summary"?}`.
    fn to_json(&self, unit: Option<&str>, with_summary: bool) -> Json {
        let mut fields = vec![("value".to_string(), Json::Num(self.value))];
        if let Some(unit) = unit {
            fields.push(("unit".to_string(), Json::Str(unit.to_string())));
        }
        if let (true, Some(s)) = (with_summary, self.summary) {
            fields.push(("summary".to_string(), s.to_json()));
        }
        Json::Obj(fields)
    }
}

/// Encode every metric of `table`, in table order, with its unit — and with
/// its dispersion (`summary`) if `full`. Panics if one was not measured: a
/// result must never silently lack a metric `BENCHMARK.json` promises.
pub fn to_json(metrics: &Metrics, table: &[(&str, &str)], full: bool) -> Json {
    Json::Obj(
        table
            .iter()
            .map(|(name, unit)| {
                let m = metrics
                    .get(*name)
                    .unwrap_or_else(|| panic!("metric '{name}' was not measured"));
                (name.to_string(), m.to_json(Some(unit), full))
            })
            .collect(),
    )
}

/// Encode whatever was measured, without units: the child-to-parent form.
pub fn to_json_raw(metrics: &Metrics) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|(name, m)| (name.clone(), m.to_json(None, true)))
            .collect(),
    )
}

pub fn from_json(doc: &Json) -> Metrics {
    let Json::Obj(fields) = doc else {
        return Metrics::new();
    };
    fields
        .iter()
        .filter_map(|(name, m)| {
            Some((
                name.clone(),
                Metric {
                    value: m.get("value")?.as_f64()?,
                    summary: m.get("summary").and_then(Summary::from_json),
                },
            ))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and this table name the same workloads and metrics,
    /// with the same units.
    #[test]
    fn benchmark_json_matches_the_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = workloads::serve::json::parse(&text).expect("BENCHMARK.json parses");
        let pairs = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Json::as_str).unwrap().to_string(),
                        m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                    )
                })
                .collect()
        };
        let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(pairs("end_to_end"), table(&END_TO_END));
        assert_eq!(pairs("per_layer"), table(&PER_LAYER));
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(names, WORKLOADS);
    }
}
