//! In-memory span recorder for the traced pass. Spans are opened and closed
//! by the harness around its calls into the layers (workload → pass → job →
//! parse / run / read-out); counter deltas ride along as span arguments. The
//! recorder is written out once, at exit, as Chrome trace-event JSON.

use std::collections::BTreeMap;
use std::time::Instant;
use workloads::serve::Json;

struct Span {
    name: &'static str,
    job: Option<String>,
    parent: Option<usize>,
    start_us: f64,
    end_us: f64,
    args: Vec<(String, Json)>,
}

/// Span recorder. A disabled tracer records nothing, so the untraced passes
/// run the same code path minus the bookkeeping.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, job: Option<&str>) {
        if !self.enabled {
            return;
        }
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            job: job.map(str::to_string),
            parent: self.open.last().copied(),
            start_us,
            end_us: start_us,
            args: Vec::new(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span, attaching `args` (counter deltas).
    pub fn end(&mut self, args: Vec<(String, Json)>) {
        if !self.enabled {
            return;
        }
        let id = self.open.pop().expect("end without a matching begin");
        self.spans[id].end_us = self.now_us();
        self.spans[id].args = args;
    }

    /// Drop the innermost open span, which must be the newest one recorded.
    pub fn cancel(&mut self) {
        if !self.enabled {
            return;
        }
        let id = self.open.pop().expect("cancel without a matching begin");
        assert_eq!(id + 1, self.spans.len(), "cancelled span has children");
        self.spans.pop();
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Self time per span name, seconds: a span's duration minus the part of
    /// it its child spans cover.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut child_us = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.end_us - s.start_us;
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            *out.entry(s.name).or_insert(0.0) += (s.end_us - s.start_us - child_us[i]) / 1e6;
        }
        out
    }

    /// The spans as Chrome trace-event JSON (`chrome://tracing`, Perfetto),
    /// with the per-name self times alongside.
    pub fn to_chrome_json(&self) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let mut args = vec![
                    ("span".to_string(), Json::Int(id as i64)),
                    (
                        "parent".to_string(),
                        s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                    ),
                ];
                if let Some(job) = &s.job {
                    args.push(("job".to_string(), Json::Str(job.clone())));
                }
                args.extend(s.args.iter().cloned());
                Json::Obj(vec![
                    ("name".to_string(), Json::Str(s.name.to_string())),
                    ("ph".to_string(), Json::Str("X".to_string())),
                    ("ts".to_string(), Json::Num(s.start_us)),
                    ("dur".to_string(), Json::Num(s.end_us - s.start_us)),
                    ("pid".to_string(), Json::Int(1)),
                    ("tid".to_string(), Json::Int(1)),
                    ("args".to_string(), Json::Obj(args)),
                ])
            })
            .collect();
        let own = self
            .self_seconds()
            .into_iter()
            .map(|(name, secs)| (name.to_string(), Json::Num(secs)))
            .collect();
        Json::Obj(vec![
            ("traceEvents".to_string(), Json::Arr(events)),
            ("selfSeconds".to_string(), Json::Obj(own)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.begin("pass", None);
        t.begin("job", Some("a"));
        std::thread::sleep(std::time::Duration::from_millis(5));
        t.end(Vec::new());
        t.end(Vec::new());
        let own = t.self_seconds();
        assert!(own["job"] >= 0.005);
        assert!(own["pass"] < own["job"]);
        assert_eq!(t.span_count(), 2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.begin("pass", None);
        t.end(Vec::new());
        assert_eq!(t.span_count(), 0);
    }
}
