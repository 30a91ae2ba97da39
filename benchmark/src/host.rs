//! Host observations read from `/proc`: peak resident set, process CPU time,
//! and the host factors recorded next to every result.

use sim_net::CarrierMode;
use workloads::serve::Json;

/// `VmHWM` of this process in MB (0 where `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU seconds this process has consumed, all threads
/// included. `/proc/self/stat` counts in clock ticks; Linux fixes
/// `_SC_CLK_TCK` at 100 on every supported architecture.
pub fn cpu_seconds() -> f64 {
    const TICKS_PER_SEC: f64 = 100.0;
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields overall, i.e. the 12th and 13th after the ')'.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / TICKS_PER_SEC
}

fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The factors a timing depends on besides the code: recorded in every
/// output file so two results are only compared like for like.
pub fn factors() -> Json {
    let cores = std::thread::available_parallelism().map_or(0, |c| c.get());
    Json::Obj(vec![
        ("cores".to_string(), Json::Int(cores as i64)),
        (
            "workers".to_string(),
            Json::Str(
                "1 per job (see README: coroutine carriers hang at workers >= 2)".to_string(),
            ),
        ),
        (
            "carrier_mode".to_string(),
            Json::Str(CarrierMode::default_mode().effective().as_str().to_string()),
        ),
        (
            "profile".to_string(),
            Json::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .to_string(),
            ),
        ),
        ("commit".to_string(), Json::Str(commit())),
    ])
}
