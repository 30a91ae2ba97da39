//! Job specifications: the line protocol `sdr-serve` accepts.
//!
//! One JSON object per line describes one simulation job — workload, ranks,
//! NAS class, replica layout, fault and net-fault config, worker count, and
//! seed. [`JobSpec::from_json`] validates everything up front and returns a
//! typed [`SpecError`] on any malformed input, so the server loop never
//! panics on user data; [`JobSpec::compile`] turns a validated spec into the
//! exact same [`JobBuilder`] + application closure a standalone run would
//! use, which is what makes the serve-vs-standalone bit-identity tests in
//! `tests/serve_isolation.rs` meaningful.

use super::json::{self, Json, JsonError};
use crate::campaign::{collective_app, ring_app};
use crate::nas::{run_kernel, NasConfig, NasKernel};
use sdr_core::{
    coverage_job, native_job, partial_replicated_job, replicated_job, ReplicationConfig,
};
use sim_mpi::{JobBuilder, Process, SdcFlip};
use sim_net::{CarrierMode, CrashSchedule, EndpointId, LogGpModel, NetFaultConfig, SimTime};
use std::fmt;
use std::sync::Arc;

/// Upper bound on `ranks` accepted by the service (the coroutine carriers
/// are proven to 4096 ranks = 8192 processes; see `table1_nas --ranks`).
pub const MAX_RANKS: usize = 4096;
/// Upper bound on the replication degree.
pub const MAX_DEGREE: usize = 8;
/// Upper bound on per-job `workers`.
pub const MAX_WORKERS: usize = 1024;
/// Upper bound on collective/ring iterations.
pub const MAX_ITERATIONS: u64 = 100_000;
/// Upper bound on the job-id length, in characters.
pub const MAX_ID_LEN: usize = 128;

/// The application a job runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadKind {
    /// One of the five NAS mini-kernels, sized by the spec's `class`.
    Nas(NasKernel),
    /// The collective-heavy campaign app (ring halo + allreduce per
    /// iteration).
    Collective {
        /// Number of iterations.
        iterations: u64,
    },
    /// The pure ring exchange with kilobyte payloads.
    Ring {
        /// Number of iterations.
        iterations: u64,
    },
}

impl WorkloadKind {
    /// The wire name (`"bt"`, `"cg"`, ..., `"collective"`, `"ring"`).
    pub fn name(&self) -> &'static str {
        match self {
            WorkloadKind::Nas(NasKernel::Bt) => "bt",
            WorkloadKind::Nas(NasKernel::Cg) => "cg",
            WorkloadKind::Nas(NasKernel::Ft) => "ft",
            WorkloadKind::Nas(NasKernel::Mg) => "mg",
            WorkloadKind::Nas(NasKernel::Sp) => "sp",
            WorkloadKind::Collective { .. } => "collective",
            WorkloadKind::Ring { .. } => "ring",
        }
    }
}

/// The replica layout a job runs under.
#[derive(Debug, Clone, PartialEq)]
pub enum LayoutSpec {
    /// Unreplicated baseline.
    Native,
    /// Every rank replicated at `degree`.
    Replicated {
        /// Replication degree (2 = the paper's dual replication).
        degree: usize,
    },
    /// An explicit subset of ranks replicated at degree 2, the rest
    /// singletons.
    Partial {
        /// The replicated ranks.
        replicated: Vec<usize>,
    },
    /// The first `ceil(coverage · ranks)` ranks replicated at degree 2.
    Coverage {
        /// Replicated-rank fraction in `(0, 1]`.
        coverage: f64,
    },
}

impl LayoutSpec {
    fn name(&self) -> &'static str {
        match self {
            LayoutSpec::Native => "native",
            LayoutSpec::Replicated { .. } => "replicated",
            LayoutSpec::Partial { .. } => "partial",
            LayoutSpec::Coverage { .. } => "coverage",
        }
    }

    /// The [`JobBuilder`] for `ranks` application ranks under this layout:
    /// the one place a (degree, coverage) choice becomes a protocol factory.
    /// Specs compile through it and so do the
    /// Table 1/2 and layout-sweep rows ([`crate::runner::compare`]), which
    /// then install their own network model. Structurally invalid subsets
    /// surface as [`SpecError::InvalidLayout`].
    pub fn builder(&self, ranks: usize) -> Result<JobBuilder, SpecError> {
        let invalid = |e| SpecError::InvalidLayout(format!("{e:?}"));
        match self {
            LayoutSpec::Native => Ok(native_job(ranks)),
            LayoutSpec::Replicated { degree } => Ok(replicated_job(
                ranks,
                ReplicationConfig::with_degree(*degree),
            )),
            LayoutSpec::Partial { replicated } => {
                partial_replicated_job(ranks, replicated, ReplicationConfig::dual())
                    .map_err(invalid)
            }
            LayoutSpec::Coverage { coverage } => {
                coverage_job(ranks, *coverage, ReplicationConfig::dual()).map_err(invalid)
            }
        }
    }
}

/// A scheduled crash of one physical process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashFault {
    /// The physical process (endpoint) to crash.
    pub endpoint: usize,
    /// When to crash it.
    pub schedule: CrashSchedule,
}

/// A scheduled PML-level bit flip on one physical process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SdcFault {
    /// The physical process whose send gets corrupted.
    pub endpoint: usize,
    /// 1-based index of the application send to corrupt.
    pub nth_send: u64,
    /// Bit to flip (taken modulo the payload size in bits).
    pub bit: u32,
}

/// A transport fault policy install.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetFaultSpec {
    /// Drop/duplicate/delay rates.
    pub config: NetFaultConfig,
    /// Policy seed (the fault decisions are a pure function of
    /// `(config, seed, link, frame_index)`).
    pub seed: u64,
}

/// One validated simulation-job specification.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Caller-chosen job id, echoed in the report.
    pub id: String,
    /// The application to run.
    pub workload: WorkloadKind,
    /// Number of application (logical MPI) ranks.
    pub ranks: usize,
    /// NAS problem class (`"test"`, `"s"`, or `"d"`); ignored by the
    /// collective/ring workloads.
    pub class: String,
    /// Replica layout.
    pub layout: LayoutSpec,
    /// The optional `"carrier"` label (`thread` or `coroutine`). It is
    /// validated and echoed back on the wire but selects nothing: every job
    /// runs on coroutine stacks.
    pub carrier_mode: Option<CarrierMode>,
    /// Scheduler worker-pool size override; `Some(1)` makes the job an
    /// exact-deterministic replay. `None` takes
    /// [`sim_net::sched::default_workers`]: of all the host's cores when the
    /// job runs alone, of its share of them (host cores / jobs in flight)
    /// when [`super::serve`] runs it beside others.
    pub workers: Option<usize>,
    /// Job seed, echoed in the report and used as the default net-fault
    /// policy seed.
    pub seed: u64,
    /// Scheduled crashes.
    pub crashes: Vec<CrashFault>,
    /// Scheduled PML bit flips.
    pub sdc: Vec<SdcFault>,
    /// Transport fault policy, if any.
    pub net_faults: Option<NetFaultSpec>,
    /// Record the job's [`sim_net::TraceEvent`] stream and include it in the
    /// report.
    pub trace: bool,
}

/// Why a spec was rejected. Every variant is a deterministic function of the
/// input line — the server loop turns these into error reports, never
/// panics.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The line is not well-formed JSON.
    Json(JsonError),
    /// The document is not a JSON object.
    NotAnObject,
    /// A required field is absent.
    MissingField(&'static str),
    /// A field has the wrong JSON type or an out-of-domain scalar.
    WrongType {
        /// The offending field.
        field: &'static str,
        /// What the field must be.
        expected: &'static str,
    },
    /// The `id` is empty, too long, or contains control characters.
    InvalidId,
    /// `workload` names no known kernel.
    UnknownWorkload(String),
    /// `class` names no NAS problem class.
    UnknownClass(String),
    /// `layout` names no known layout.
    UnknownLayout(String),
    /// `carrier` names no known carrier mode.
    UnknownCarrierMode(String),
    /// `profile` names no known net-fault preset.
    UnknownProfile(String),
    /// `kind` names no known crash schedule.
    UnknownCrashKind(String),
    /// `ranks` outside `1..=MAX_RANKS`.
    InvalidRanks(usize),
    /// Replication degree outside `1..=MAX_DEGREE`.
    InvalidDegree(usize),
    /// Coverage outside `(0, 1]`.
    InvalidCoverage(f64),
    /// Iterations outside `1..=MAX_ITERATIONS`.
    InvalidIterations(u64),
    /// `workers` outside `1..=MAX_WORKERS`.
    InvalidWorkers(usize),
    /// The partial/coverage layout is structurally invalid (empty subset,
    /// out-of-range or duplicate rank, ...).
    InvalidLayout(String),
    /// A fault names a physical process the layout does not create.
    EndpointOutOfRange {
        /// The offending endpoint.
        endpoint: usize,
        /// Physical processes the job actually has.
        physical: usize,
    },
    /// A crash/SDC send index of 0 (they are 1-based).
    ZeroSendIndex,
    /// The net-fault rates sum past the 16-bit draw they share.
    InvalidFaultRates {
        /// `drop + dup + delay`, which must be ≤ 65 536.
        sum: u64,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Json(e) => write!(f, "{e}"),
            SpecError::NotAnObject => write!(f, "spec must be a JSON object"),
            SpecError::MissingField(field) => write!(f, "missing field '{field}'"),
            SpecError::WrongType { field, expected } => {
                write!(f, "field '{field}' must be {expected}")
            }
            SpecError::InvalidId => write!(f, "id must be 1..={MAX_ID_LEN} printable characters"),
            SpecError::UnknownWorkload(w) => write!(
                f,
                "unknown workload '{w}' (expected bt|cg|ft|mg|sp|collective|ring)"
            ),
            SpecError::UnknownClass(c) => {
                write!(f, "unknown class '{c}' (expected test|s|d)")
            }
            SpecError::UnknownLayout(l) => write!(
                f,
                "unknown layout '{l}' (expected native|replicated|partial|coverage)"
            ),
            SpecError::UnknownCarrierMode(m) => {
                write!(f, "unknown carrier mode '{m}' (expected coroutine|thread)")
            }
            SpecError::UnknownProfile(p) => write!(
                f,
                "unknown net-fault profile '{p}' (expected lossy-links|delayed-acks)"
            ),
            SpecError::UnknownCrashKind(k) => write!(
                f,
                "unknown crash kind '{k}' (expected before-send|after-send|at-time)"
            ),
            SpecError::InvalidRanks(r) => {
                write!(f, "ranks {r} outside 1..={MAX_RANKS}")
            }
            SpecError::InvalidDegree(d) => {
                write!(f, "degree {d} outside 1..={MAX_DEGREE}")
            }
            SpecError::InvalidCoverage(c) => {
                write!(f, "coverage {c} outside (0, 1]")
            }
            SpecError::InvalidIterations(i) => {
                write!(f, "iterations {i} outside 1..={MAX_ITERATIONS}")
            }
            SpecError::InvalidWorkers(w) => {
                write!(f, "workers {w} outside 1..={MAX_WORKERS}")
            }
            SpecError::InvalidLayout(msg) => write!(f, "invalid layout: {msg}"),
            SpecError::EndpointOutOfRange { endpoint, physical } => write!(
                f,
                "fault endpoint {endpoint} outside the job's {physical} physical processes"
            ),
            SpecError::ZeroSendIndex => {
                write!(f, "send indices are 1-based; 0 never fires")
            }
            SpecError::InvalidFaultRates { sum } => write!(
                f,
                "net-fault rates sum to {sum}, above the 65536 draw space"
            ),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<JsonError> for SpecError {
    fn from(e: JsonError) -> Self {
        SpecError::Json(e)
    }
}

fn get_u64(obj: &Json, field: &'static str) -> Result<Option<u64>, SpecError> {
    match obj.get(field) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v.as_u64().map(Some).ok_or(SpecError::WrongType {
            field,
            expected: "a non-negative integer",
        }),
    }
}

/// Seeds are 64-bit patterns (the campaign sampler draws policy seeds from
/// the whole `u64` range), but a JSON integer here is an `i64`: the encoder
/// writes `seed as i64`, so seeds ≥ 2⁶³ appear negative on the wire and are
/// read back bit for bit.
fn get_seed(obj: &Json, field: &'static str) -> Result<Option<u64>, SpecError> {
    match obj.get(field) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Int(bits)) => Ok(Some(*bits as u64)),
        Some(_) => Err(SpecError::WrongType {
            field,
            expected: "an integer",
        }),
    }
}

/// A 32-bit field: a larger integer is rejected rather than wrapped, so it
/// can never pass a range check as its low 32 bits.
fn get_u32(obj: &Json, field: &'static str) -> Result<Option<u32>, SpecError> {
    get_u64(obj, field)?
        .map(|v| {
            u32::try_from(v).map_err(|_| SpecError::WrongType {
                field,
                expected: "an integer below 2^32",
            })
        })
        .transpose()
}

fn get_usize(obj: &Json, field: &'static str) -> Result<Option<usize>, SpecError> {
    Ok(get_u64(obj, field)?.map(|v| v as usize))
}

fn get_str<'a>(obj: &'a Json, field: &'static str) -> Result<Option<&'a str>, SpecError> {
    match obj.get(field) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v.as_str().map(Some).ok_or(SpecError::WrongType {
            field,
            expected: "a string",
        }),
    }
}

fn get_bool(obj: &Json, field: &'static str) -> Result<Option<bool>, SpecError> {
    match obj.get(field) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v.as_bool().map(Some).ok_or(SpecError::WrongType {
            field,
            expected: "a boolean",
        }),
    }
}

/// The objects of an optional array-of-objects field (absent = empty).
fn get_objects<'a>(
    obj: &'a Json,
    field: &'static str,
    expected: &'static str,
) -> Result<&'a [Json], SpecError> {
    let wrong = SpecError::WrongType { field, expected };
    match obj.get(field) {
        None => Ok(&[]),
        Some(list) => match list.as_arr() {
            Some(items) if items.iter().all(Json::is_obj) => Ok(items),
            _ => Err(wrong),
        },
    }
}

fn require<T>(value: Option<T>, field: &'static str) -> Result<T, SpecError> {
    value.ok_or(SpecError::MissingField(field))
}

impl JobSpec {
    /// Parse and validate one queue line.
    pub fn parse_line(line: &str) -> Result<JobSpec, SpecError> {
        let doc = json::parse(line)?;
        JobSpec::from_json(&doc)
    }

    /// Build and validate a spec from a parsed JSON document.
    pub fn from_json(doc: &Json) -> Result<JobSpec, SpecError> {
        if !doc.is_obj() {
            return Err(SpecError::NotAnObject);
        }
        let id = require(get_str(doc, "id")?, "id")?.to_string();
        if id.is_empty() || id.chars().count() > MAX_ID_LEN || id.chars().any(char::is_control) {
            return Err(SpecError::InvalidId);
        }
        let ranks = require(get_usize(doc, "ranks")?, "ranks")?;
        if ranks == 0 || ranks > MAX_RANKS {
            return Err(SpecError::InvalidRanks(ranks));
        }
        let workload_name = require(get_str(doc, "workload")?, "workload")?;
        let iterations = get_u64(doc, "iterations")?.unwrap_or(6);
        if iterations == 0 || iterations > MAX_ITERATIONS {
            return Err(SpecError::InvalidIterations(iterations));
        }
        let workload = match workload_name {
            "bt" => WorkloadKind::Nas(NasKernel::Bt),
            "cg" => WorkloadKind::Nas(NasKernel::Cg),
            "ft" => WorkloadKind::Nas(NasKernel::Ft),
            "mg" => WorkloadKind::Nas(NasKernel::Mg),
            "sp" => WorkloadKind::Nas(NasKernel::Sp),
            "collective" => WorkloadKind::Collective { iterations },
            "ring" => WorkloadKind::Ring { iterations },
            other => return Err(SpecError::UnknownWorkload(other.to_string())),
        };
        let class = get_str(doc, "class")?.unwrap_or("test").to_string();
        if NasConfig::from_class_name(&class).is_none() {
            return Err(SpecError::UnknownClass(class));
        }
        let layout = match get_str(doc, "layout")?.unwrap_or("replicated") {
            "native" => LayoutSpec::Native,
            "replicated" => {
                let degree = get_usize(doc, "degree")?.unwrap_or(2);
                if degree == 0 || degree > MAX_DEGREE {
                    return Err(SpecError::InvalidDegree(degree));
                }
                LayoutSpec::Replicated { degree }
            }
            "partial" => {
                let ranks_field = require(doc.get("replicated_ranks"), "replicated_ranks")?;
                let arr = ranks_field.as_arr().ok_or(SpecError::WrongType {
                    field: "replicated_ranks",
                    expected: "an array of rank numbers",
                })?;
                let mut replicated = Vec::with_capacity(arr.len());
                for item in arr {
                    replicated.push(item.as_u64().ok_or(SpecError::WrongType {
                        field: "replicated_ranks",
                        expected: "an array of rank numbers",
                    })? as usize);
                }
                LayoutSpec::Partial { replicated }
            }
            "coverage" => {
                let coverage = doc
                    .get("coverage")
                    .ok_or(SpecError::MissingField("coverage"))?
                    .as_f64()
                    .ok_or(SpecError::WrongType {
                        field: "coverage",
                        expected: "a number",
                    })?;
                if !(coverage > 0.0 && coverage <= 1.0) {
                    return Err(SpecError::InvalidCoverage(coverage));
                }
                LayoutSpec::Coverage { coverage }
            }
            other => return Err(SpecError::UnknownLayout(other.to_string())),
        };
        let carrier_mode = match get_str(doc, "carrier")? {
            None => None,
            Some("coroutine") => Some(CarrierMode::Coroutine),
            Some("thread") => Some(CarrierMode::Thread),
            Some(other) => return Err(SpecError::UnknownCarrierMode(other.to_string())),
        };
        let workers = get_usize(doc, "workers")?;
        if let Some(w) = workers {
            if w == 0 || w > MAX_WORKERS {
                return Err(SpecError::InvalidWorkers(w));
            }
        }
        let seed = get_seed(doc, "seed")?.unwrap_or(0);
        let mut crashes = Vec::new();
        for item in get_objects(doc, "crashes", "an array of crash objects")? {
            let endpoint = require(get_usize(item, "endpoint")?, "endpoint")?;
            let schedule = match require(get_str(item, "kind")?, "kind")? {
                "before-send" => {
                    let nth = require(get_u64(item, "nth")?, "nth")?;
                    if nth == 0 {
                        return Err(SpecError::ZeroSendIndex);
                    }
                    CrashSchedule::BeforeSend { nth }
                }
                "after-send" => {
                    let nth = require(get_u64(item, "nth")?, "nth")?;
                    if nth == 0 {
                        return Err(SpecError::ZeroSendIndex);
                    }
                    CrashSchedule::AfterSend { nth }
                }
                "at-time" => CrashSchedule::AtTime {
                    at: SimTime::from_nanos(require(get_u64(item, "at_ns")?, "at_ns")?),
                },
                other => return Err(SpecError::UnknownCrashKind(other.to_string())),
            };
            crashes.push(CrashFault { endpoint, schedule });
        }
        let mut sdc = Vec::new();
        for item in get_objects(doc, "sdc", "an array of flip objects")? {
            let nth_send = require(get_u64(item, "nth_send")?, "nth_send")?;
            if nth_send == 0 {
                return Err(SpecError::ZeroSendIndex);
            }
            sdc.push(SdcFault {
                endpoint: require(get_usize(item, "endpoint")?, "endpoint")?,
                nth_send,
                bit: require(get_u32(item, "bit")?, "bit")?,
            });
        }
        let net_faults = match doc.get("net") {
            None | Some(Json::Null) => None,
            Some(net) => {
                if !net.is_obj() {
                    return Err(SpecError::WrongType {
                        field: "net",
                        expected: "an object",
                    });
                }
                let net_seed = get_seed(net, "seed")?.unwrap_or(seed);
                let config = match get_str(net, "profile")? {
                    Some("lossy-links") => NetFaultConfig::lossy_links(),
                    Some("delayed-acks") => NetFaultConfig::delayed_acks(),
                    Some(other) => return Err(SpecError::UnknownProfile(other.to_string())),
                    None => NetFaultConfig {
                        drop_per_64k: require(get_u32(net, "drop_per_64k")?, "drop_per_64k")?,
                        dup_per_64k: require(get_u32(net, "dup_per_64k")?, "dup_per_64k")?,
                        delay_per_64k: require(get_u32(net, "delay_per_64k")?, "delay_per_64k")?,
                        delay_ns: require(get_u64(net, "delay_ns")?, "delay_ns")?,
                        ack_only: get_bool(net, "ack_only")?.unwrap_or(false),
                    },
                };
                let sum = config.drop_per_64k as u64
                    + config.dup_per_64k as u64
                    + config.delay_per_64k as u64;
                if sum > 65_536 {
                    return Err(SpecError::InvalidFaultRates { sum });
                }
                Some(NetFaultSpec {
                    config,
                    seed: net_seed,
                })
            }
        };
        let spec = JobSpec {
            id,
            workload,
            ranks,
            class,
            layout,
            carrier_mode,
            workers,
            seed,
            crashes,
            sdc,
            net_faults,
            trace: get_bool(doc, "trace")?.unwrap_or(false),
        };
        // Layout structure and fault endpoints are checked by actually
        // compiling the spec — the same code path the engine runs, so a spec
        // that parses cleanly can never fail (or panic) at job-start time.
        spec.compile()?;
        Ok(spec)
    }

    /// Encode the spec back to its wire form. `parse_line(to_json().encode())`
    /// reproduces the spec exactly (the property pinned by
    /// `tests/serve_spec.rs`).
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("id", self.id.as_str().into()),
            ("workload", self.workload.name().into()),
            ("ranks", self.ranks.into()),
            ("class", self.class.as_str().into()),
            ("layout", self.layout.name().into()),
        ];
        match &self.workload {
            WorkloadKind::Collective { iterations } | WorkloadKind::Ring { iterations } => {
                fields.push(("iterations", (*iterations).into()));
            }
            WorkloadKind::Nas(_) => {}
        }
        match &self.layout {
            LayoutSpec::Native => {}
            LayoutSpec::Replicated { degree } => fields.push(("degree", (*degree).into())),
            LayoutSpec::Partial { replicated } => fields.push((
                "replicated_ranks",
                Json::Arr(replicated.iter().map(|&r| r.into()).collect()),
            )),
            LayoutSpec::Coverage { coverage } => fields.push(("coverage", Json::Num(*coverage))),
        }
        if let Some(mode) = self.carrier_mode {
            fields.push(("carrier", mode.as_str().into()));
        }
        if let Some(w) = self.workers {
            fields.push(("workers", w.into()));
        }
        fields.push(("seed", self.seed.into()));
        if !self.crashes.is_empty() {
            let crashes = self.crashes.iter().map(|c| {
                let (kind, when, value) = match c.schedule {
                    CrashSchedule::Never => ("at-time", "at_ns", i64::MAX as u64),
                    CrashSchedule::AtTime { at } => ("at-time", "at_ns", at.as_nanos()),
                    CrashSchedule::BeforeSend { nth } => ("before-send", "nth", nth),
                    CrashSchedule::AfterSend { nth } => ("after-send", "nth", nth),
                };
                Json::obj([
                    ("endpoint", c.endpoint.into()),
                    ("kind", kind.into()),
                    (when, value.into()),
                ])
            });
            fields.push(("crashes", Json::Arr(crashes.collect())));
        }
        if !self.sdc.is_empty() {
            let flips = self.sdc.iter().map(|s| {
                Json::obj([
                    ("endpoint", s.endpoint.into()),
                    ("nth_send", s.nth_send.into()),
                    ("bit", (s.bit as u64).into()),
                ])
            });
            fields.push(("sdc", Json::Arr(flips.collect())));
        }
        if let Some(net) = &self.net_faults {
            fields.push((
                "net",
                Json::obj([
                    ("drop_per_64k", (net.config.drop_per_64k as u64).into()),
                    ("dup_per_64k", (net.config.dup_per_64k as u64).into()),
                    ("delay_per_64k", (net.config.delay_per_64k as u64).into()),
                    ("delay_ns", net.config.delay_ns.into()),
                    ("ack_only", net.config.ack_only.into()),
                    ("seed", net.seed.into()),
                ]),
            ));
        }
        if self.trace {
            fields.push(("trace", true.into()));
        }
        Json::obj(fields)
    }

    /// The application closure the spec's workload names.
    pub fn app(&self) -> Arc<dyn Fn(&mut Process) -> f64 + Send + Sync> {
        match self.workload {
            WorkloadKind::Nas(kernel) => {
                let cfg =
                    NasConfig::from_class_name(&self.class).expect("class validated in from_json");
                Arc::new(move |p| run_kernel(kernel, p, &cfg))
            }
            WorkloadKind::Collective { iterations } => {
                Arc::new(move |p| collective_app(p, iterations))
            }
            WorkloadKind::Ring { iterations } => Arc::new(move |p| ring_app(p, iterations)),
        }
    }

    /// Compile the spec into the exact [`JobBuilder`] a standalone run would
    /// use: layout factory, fast test network model, fault installs, and the
    /// worker count. Structural layout errors and out-of-range
    /// fault endpoints surface here as typed errors (and therefore already
    /// at [`JobSpec::from_json`] time, which calls this).
    pub fn compile(&self) -> Result<JobBuilder, SpecError> {
        let mut builder = self
            .layout
            .builder(self.ranks)?
            .network(LogGpModel::fast_test_model());
        let physical = builder.physical_processes();
        for c in &self.crashes {
            if c.endpoint >= physical {
                return Err(SpecError::EndpointOutOfRange {
                    endpoint: c.endpoint,
                    physical,
                });
            }
            builder = builder.crash(EndpointId(c.endpoint), c.schedule);
        }
        for s in &self.sdc {
            if s.endpoint >= physical {
                return Err(SpecError::EndpointOutOfRange {
                    endpoint: s.endpoint,
                    physical,
                });
            }
            builder = builder.sdc_flip(
                EndpointId(s.endpoint),
                SdcFlip {
                    nth_send: s.nth_send,
                    bit: s.bit,
                },
            );
        }
        if let Some(net) = &self.net_faults {
            builder = builder.net_faults(net.config, net.seed);
        }
        if let Some(w) = self.workers {
            builder = builder.workers(w);
        }
        Ok(builder.trace(self.trace))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_spec_parses_with_defaults() {
        let spec = JobSpec::parse_line(r#"{"id": "j1", "workload": "cg", "ranks": 4}"#).unwrap();
        assert_eq!(spec.id, "j1");
        assert_eq!(spec.workload, WorkloadKind::Nas(NasKernel::Cg));
        assert_eq!(spec.layout, LayoutSpec::Replicated { degree: 2 });
        assert_eq!(spec.class, "test");
        assert!(!spec.trace);
        assert_eq!(spec.compile().unwrap().physical_processes(), 8);
    }

    #[test]
    fn full_spec_round_trips() {
        let line = r#"{"id":"mix","workload":"collective","iterations":5,"ranks":3,
            "layout":"replicated","degree":2,"carrier":"thread","workers":1,"seed":9,
            "crashes":[{"endpoint":4,"kind":"after-send","nth":2}],
            "sdc":[{"endpoint":1,"nth_send":3,"bit":17}],
            "net":{"profile":"lossy-links","seed":11},"trace":true}"#;
        let spec = JobSpec::parse_line(line).unwrap();
        let re = JobSpec::parse_line(&spec.to_json().encode()).unwrap();
        assert_eq!(spec, re);
        assert_eq!(
            spec.net_faults.unwrap().config,
            NetFaultConfig::lossy_links()
        );
    }

    #[test]
    fn malformed_specs_give_typed_errors() {
        let cases: Vec<(&str, SpecError)> = vec![
            (r#"[]"#, SpecError::NotAnObject),
            (
                r#"{"workload":"cg","ranks":4}"#,
                SpecError::MissingField("id"),
            ),
            (
                r#"{"id":"","workload":"cg","ranks":4}"#,
                SpecError::InvalidId,
            ),
            (
                r#"{"id":"x","workload":"lu","ranks":4}"#,
                SpecError::UnknownWorkload("lu".to_string()),
            ),
            (
                r#"{"id":"x","workload":"cg","ranks":0}"#,
                SpecError::InvalidRanks(0),
            ),
            (
                r#"{"id":"x","workload":"cg","ranks":4,"class":"z"}"#,
                SpecError::UnknownClass("z".to_string()),
            ),
            (
                r#"{"id":"x","workload":"cg","ranks":4,"degree":9}"#,
                SpecError::InvalidDegree(9),
            ),
            (
                r#"{"id":"x","workload":"cg","ranks":4,"carrier":"fibers"}"#,
                SpecError::UnknownCarrierMode("fibers".to_string()),
            ),
            (
                r#"{"id":"x","workload":"cg","ranks":4,"layout":"coverage","coverage":1.5}"#,
                SpecError::InvalidCoverage(1.5),
            ),
            (
                r#"{"id":"x","workload":"cg","ranks":4,"crashes":[{"endpoint":8,"kind":"after-send","nth":1}]}"#,
                SpecError::EndpointOutOfRange {
                    endpoint: 8,
                    physical: 8,
                },
            ),
            (
                r#"{"id":"x","workload":"cg","ranks":4,"crashes":[{"endpoint":0,"kind":"after-send","nth":0}]}"#,
                SpecError::ZeroSendIndex,
            ),
            (
                r#"{"id":"x","workload":"cg","ranks":4,"net":{"drop_per_64k":65536,"dup_per_64k":1,"delay_per_64k":0,"delay_ns":0}}"#,
                SpecError::InvalidFaultRates { sum: 65_537 },
            ),
            (
                r#"{"id":"x","workload":"cg","ranks":4,"net":{"drop_per_64k":4294967296,"dup_per_64k":0,"delay_per_64k":0,"delay_ns":0}}"#,
                SpecError::WrongType {
                    field: "drop_per_64k",
                    expected: "an integer below 2^32",
                },
            ),
            (
                r#"{"id":"x","workload":"cg","ranks":4,"sdc":[{"endpoint":0,"nth_send":1,"bit":4294967301}]}"#,
                SpecError::WrongType {
                    field: "bit",
                    expected: "an integer below 2^32",
                },
            ),
            (
                r#"{"id":"x","workload":"cg","ranks":"four"}"#,
                SpecError::WrongType {
                    field: "ranks",
                    expected: "a non-negative integer",
                },
            ),
            (
                r#"{"id":"x","workload":"cg","ranks":4,"layout":"partial","replicated_ranks":[]}"#,
                SpecError::InvalidLayout("EmptyReplicatedSet".to_string()),
            ),
        ];
        for (line, want) in cases {
            assert_eq!(JobSpec::parse_line(line).unwrap_err(), want, "for {line}");
        }
        assert!(matches!(
            JobSpec::parse_line("{nope").unwrap_err(),
            SpecError::Json(_)
        ));
    }
}
