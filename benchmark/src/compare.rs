//! `compare <a.json[,a2.json,...]> <b.json[,b2.json,...]>`: hold result files
//! (as written by a full run to `benchmark/out/result.json`) against the
//! bounds in `BENCHMARK.json`. `a` is the baseline, `b` the candidate; each
//! side may be one file or a comma-separated list of files from repeated
//! runs, which is what the host's minute-scale noise calls for (README).
//!
//! With several files a side's value is the median over its runs and its
//! spread the interquartile range of those runs as a share of that median;
//! with one file the spread is the one recorded over the passes of that run.
//! A metric whose spread, on either side, exceeds its bound cannot resolve a
//! difference of that size and is reported as *unresolved*, never as
//! unchanged.

use crate::metrics::{self, Metrics};
use crate::stats;
use workloads::serve::{json, Json};

struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn bounds() -> Result<Vec<Bound>, String> {
    let doc = load("BENCHMARK.json")?;
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            Some(Bound {
                name: m.get("name")?.as_str()?.to_string(),
                lower_is_better: m.get("better")?.as_str()? == "lower",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "BENCHMARK.json: malformed end_to_end entry".to_string())
}

/// One side of the comparison: the result files of one or more runs.
struct Side {
    runs: Vec<Json>,
}

impl Side {
    fn load(paths: &str) -> Result<Side, String> {
        let runs = paths.split(',').map(load).collect::<Result<Vec<_>, _>>()?;
        Ok(Side { runs })
    }

    /// Per run, the workload's end-to-end metrics and failed share.
    fn workload(&self, workload: &str) -> Vec<(Metrics, f64)> {
        self.runs
            .iter()
            .filter_map(|doc| {
                let w = doc.get("workloads")?.get(workload)?;
                Some((
                    metrics::from_json(w.get("end_to_end")?),
                    w.get("failed_share")?.as_f64()?,
                ))
            })
            .collect()
    }

    fn describe(&self) -> String {
        let host = self.runs[0]
            .get("host")
            .map_or("?".to_string(), Json::encode);
        format!("{} run(s), {host}", self.runs.len())
    }
}

/// `(value, spread)` of one metric over a side's runs.
fn value_and_spread(runs: &[(Metrics, f64)], name: &str) -> Option<(f64, f64)> {
    let found: Vec<_> = runs.iter().filter_map(|(m, _)| m.get(name)).collect();
    match found.as_slice() {
        [] => None,
        [one] => Some((one.value, one.summary.map_or(0.0, |s| s.spread()))),
        many => {
            let values: Vec<f64> = many.iter().map(|m| m.value).collect();
            let s = stats::summarize(&values);
            Some((s.median, s.spread()))
        }
    }
}

/// Returns the process exit code: 0 when nothing regressed.
pub fn run(a_paths: &str, b_paths: &str) -> Result<i32, String> {
    let (a, b) = (Side::load(a_paths)?, Side::load(b_paths)?);
    let bounds = bounds()?;
    println!("baseline  {}", a.describe());
    println!("candidate {}", b.describe());
    println!(
        "{:<18} {:<20} {:>14} {:>14} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "baseline", "candidate", "worse%", "spread%", "bound%"
    );
    let mut regressed = 0;
    let mut unresolved = 0;
    for workload in metrics::WORKLOADS {
        let (ra, rb) = (a.workload(workload), b.workload(workload));
        if ra.is_empty() || rb.is_empty() {
            println!("{workload:<18} (missing from one side)");
            continue;
        }
        for bound in &bounds {
            let (Some((x, sx)), Some((y, sy))) = (
                value_and_spread(&ra, &bound.name),
                value_and_spread(&rb, &bound.name),
            ) else {
                continue;
            };
            let worse = if bound.lower_is_better {
                (y - x) / x
            } else {
                (x - y) / x
            };
            let spread = sx.max(sy);
            let verdict = if spread > bound.bound {
                unresolved += 1;
                "unresolved"
            } else if worse > bound.bound {
                regressed += 1;
                "REGRESSED"
            } else {
                "ok"
            };
            println!(
                "{workload:<18} {:<20} {x:>14.4} {y:>14.4} {:>8.2} {:>8.2} {:>6.0}  {verdict}",
                bound.name,
                worse * 100.0,
                spread * 100.0,
                bound.bound * 100.0
            );
        }
        // Any increase in the failed share (worst run of each side) is a
        // regression.
        let worst = |runs: &[(Metrics, f64)]| runs.iter().map(|r| r.1).fold(0.0, f64::max);
        let (fa, fb) = (worst(&ra), worst(&rb));
        let verdict = if fb > fa {
            regressed += 1;
            "REGRESSED"
        } else {
            "ok"
        };
        println!(
            "{workload:<18} {:<20} {fa:>14.4} {fb:>14.4} {:>8} {:>8} {:>6}  {verdict}",
            "failed_share", "", "", "0"
        );
    }
    println!("{regressed} regressed, {unresolved} unresolved");
    if a.runs.len().min(b.runs.len()) < 3 {
        println!(
            "note: fewer than three runs on a side — on a noisy host, drift between two \
             runs can exceed a bound that the passes inside each run agree on"
        );
    }
    Ok(if regressed > 0 { 1 } else { 0 })
}
