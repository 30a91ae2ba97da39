//! Schema gate for the three `BENCH_*.json` report builders in `sdr-bench`.
//!
//! CI's Python gates and the committed artifacts read these reports by key,
//! so each builder's output must (a) parse with the workspace's own JSON
//! parser, (b) carry — recursively — exactly the pinned key set, which is
//! what the previous hand-formatted emitters produced plus the one sanctioned
//! addition (`"spec"` inside each violation object), (c) cover every key of
//! the committed artifact of the same name, and (d) survive arbitrary text in
//! a violation detail.

use sdr_bench::{
    fault_campaign_rows, faults_report_json, harness_layout, layout_sweep_points,
    layouts_report_json, lossy_rate_sweep, table1_rows, table_report_json,
};
use std::collections::BTreeSet;
use workloads::campaign::Violation;
use workloads::nas::{NasConfig, NasKernel};
use workloads::runner::RunTuning;
use workloads::serve::json::{parse, Json};

const SINGLE_WORKER: RunTuning = RunTuning { workers: Some(1) };

/// Every object key of `doc` as a path: `a.b` for nesting, `[]` for "in each
/// element of this array".
fn key_paths(doc: &Json) -> BTreeSet<String> {
    fn walk(value: &Json, prefix: &str, out: &mut BTreeSet<String>) {
        match value {
            Json::Obj(fields) => {
                for (key, inner) in fields {
                    let path = if prefix.is_empty() {
                        key.clone()
                    } else {
                        format!("{prefix}.{key}")
                    };
                    walk(inner, &path, out);
                    out.insert(path);
                }
            }
            Json::Arr(items) => {
                for item in items {
                    walk(item, &format!("{prefix}[]"), out);
                }
            }
            _ => {}
        }
    }
    let mut out = BTreeSet::new();
    walk(doc, "", &mut out);
    out
}

/// `report` parses, has exactly `expected` as its key paths, and covers the
/// committed artifact's.
fn assert_schema(report: &str, expected: &[String], committed: &str) -> Json {
    let doc = parse(report).unwrap_or_else(|e| panic!("report does not parse: {e}\n{report}"));
    let got = key_paths(&doc);
    let want: BTreeSet<String> = expected.iter().cloned().collect();
    let missing: Vec<_> = want.difference(&got).collect();
    let extra: Vec<_> = got.difference(&want).collect();
    assert!(
        missing.is_empty() && extra.is_empty(),
        "schema drift — missing {missing:?}, unexpected {extra:?}"
    );
    let artifact = key_paths(&parse(committed).expect("the committed artifact parses"));
    let uncovered: Vec<_> = artifact.difference(&got).collect();
    assert!(
        uncovered.is_empty(),
        "the committed artifact has keys the builder no longer emits: {uncovered:?}"
    );
    doc
}

fn paths(prefix: &str, keys: &[&str]) -> Vec<String> {
    keys.iter().map(|k| format!("{prefix}{k}")).collect()
}

const MEASUREMENT_KEYS: [&str; 9] = [
    "degree",
    "coverage",
    "native_secs",
    "replicated_secs",
    "overhead_pct",
    "results_match",
    "native_app_msgs",
    "replicated_app_msgs",
    "replicated_ack_msgs",
];

const EXECUTION_KEYS: [&str; 11] = [
    "wakes_issued",
    "wakes_suppressed",
    "handoffs",
    "condvar_waits",
    "threads_spawned",
    "threads_reused",
    "workers",
    "stack_switches",
    "stacks_allocated",
    "stacks_reused",
    "stack_bytes_peak",
];

const MASKING_KEYS: [&str; 8] = [
    "msgs_dropped",
    "msgs_duplicated",
    "msgs_delayed",
    "retransmits",
    "dups_suppressed",
    "masked_overhead_median_pct",
    "masked_overhead_p90_pct",
    "violations",
];

#[test]
fn table_report_keeps_its_schema() {
    let rows = table1_rows(
        4,
        NasConfig::test_size(),
        &harness_layout(2, 1.0),
        SINGLE_WORKER,
    );
    let report = table_report_json("table1_nas", 4, "test", &rows);
    let mut expected = paths("", &["benchmark", "ranks", "class", "rows", "totals"]);
    expected.extend(paths("rows[].", &["name"]));
    expected.extend(paths("rows[].", &MEASUREMENT_KEYS));
    for side in ["native_delivery", "replicated_delivery"] {
        expected.push(format!("rows[].{side}"));
        expected.extend(paths(&format!("rows[].{side}."), &EXECUTION_KEYS));
        expected.push(format!("rows[].{side}.host_secs"));
    }
    expected.extend(paths("totals.", &EXECUTION_KEYS));
    expected.extend(paths(
        "totals.",
        &["wake_reduction_factor", "direct_dispatch_fraction"],
    ));
    let doc = assert_schema(&report, &expected, include_str!("../BENCH_table1.json"));
    // Values CI's gates compute with keep their types.
    let totals = doc.get("totals").expect("totals");
    assert!(totals.get("handoffs").and_then(Json::as_u64).is_some());
    let first = &doc.get("rows").and_then(Json::as_arr).expect("rows")[0];
    assert_eq!(first.get("results_match"), Some(&Json::Bool(true)));
    assert_eq!(first.get("coverage").and_then(Json::as_f64), Some(1.0));
}

#[test]
fn layouts_report_keeps_its_schema() {
    let points = layout_sweep_points(4, NasConfig::test_size(), NasKernel::Cg, SINGLE_WORKER);
    let report = layouts_report_json("layout_sweep", 4, "test", "CG", &points);
    let mut expected = paths("", &["benchmark", "ranks", "class", "kernel", "points"]);
    expected.extend(paths("points[].", &MEASUREMENT_KEYS));
    let doc = assert_schema(&report, &expected, include_str!("../BENCH_layouts.json"));
    let coverages: Vec<f64> = doc
        .get("points")
        .and_then(Json::as_arr)
        .expect("points")
        .iter()
        .map(|p| p.get("coverage").and_then(Json::as_f64).expect("coverage"))
        .collect();
    assert_eq!(coverages, [0.25, 0.5, 0.75, 1.0, 1.0]);
}

#[test]
fn faults_report_keeps_its_schema_and_escapes_violation_details() {
    let mut rows = fault_campaign_rows(2, 1, 5, 4, SINGLE_WORKER);
    let sweep = lossy_rate_sweep(2, 1, 5, 4, SINGLE_WORKER);
    assert!(rows.iter().all(|r| r.summary.violations.is_empty()));
    // The previous emitter escaped quotes and backslashes but passed a raw
    // newline through, which is not JSON.
    let nasty = "survivor said \"no\\way\"\nand wrapped the line".to_string();
    let spec_line = r#"{"id":"planted","workload":"ring","ranks":2}"#.to_string();
    rows[0].summary.violations.push(Violation {
        seed: 77,
        detail: nasty.clone(),
        spec: spec_line.clone(),
    });
    let report = faults_report_json("table_faults", 2, 1, 5, 4, &rows, &sweep);
    let mut expected = paths(
        "",
        &[
            "benchmark",
            "ranks",
            "seeds_per_config",
            "base_seed",
            "iterations",
            "configs",
            "lossy_sweep",
        ],
    );
    expected.extend(paths(
        "configs[].",
        &[
            "dist",
            "degree",
            "coverage",
            "cases",
            "survived",
            "aborted",
            "survival_rate",
            "abort_rate",
            "crashes_injected",
            "sdc_injected",
            "sdc_detected",
            "sdc_corrected",
            "sdc_detection_rate",
            "sdc_correction_rate",
            "recovery_latency",
        ],
    ));
    expected.extend(paths(
        "configs[].recovery_latency.",
        &["samples", "min_s", "median_s", "p90_s", "max_s"],
    ));
    expected.extend(paths("configs[].", &MASKING_KEYS));
    expected.extend(paths(
        "configs[].violations[].",
        &["seed", "detail", "spec"],
    ));
    expected.extend(paths(
        "lossy_sweep[].",
        &[
            "drop_per_64k",
            "dup_per_64k",
            "delay_per_64k",
            "delay_ns",
            "cases",
            "survived",
            "survival_rate",
        ],
    ));
    expected.extend(paths("lossy_sweep[].", &MASKING_KEYS));
    let doc = assert_schema(&report, &expected, include_str!("../BENCH_faults.json"));
    let configs = doc.get("configs").and_then(Json::as_arr).expect("configs");
    assert_eq!(configs.len(), 9);
    let planted = &configs[0].get("violations").and_then(Json::as_arr).unwrap()[0];
    assert_eq!(planted.get("seed"), Some(&Json::Int(77)));
    assert_eq!(planted.get("detail").and_then(Json::as_str), Some(&*nasty));
    assert_eq!(
        planted.get("spec").and_then(Json::as_str),
        Some(&*spec_line)
    );
    // The rates CI compares with `== 1.0` and `== 0.5` stay exact.
    assert_eq!(
        configs[0].get("survival_rate").and_then(Json::as_f64),
        Some(1.0)
    );
    assert_eq!(configs[8].get("coverage").and_then(Json::as_f64), Some(0.5));
}
