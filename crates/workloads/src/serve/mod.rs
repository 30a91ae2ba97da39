//! Multi-job service mode: the simulator as a long-running server.
//!
//! `sdr-serve` (in `sdr-bench`) accepts a stream of JSON job specs — one
//! [`JobSpec`] per line — runs many jobs concurrently over the shared
//! worker-thread and coroutine-stack pools, and streams one [`JobRecord`] per job as it
//! completes. The module splits into:
//!
//! * [`json`] — the JSON value/parser/encoder the wire format and every
//!   benchmark report writer use (the offline build vendors no serializer);
//! * [`spec`] — [`JobSpec`] validation with typed [`SpecError`]s, and the
//!   spec → [`sim_mpi::JobBuilder`] compiler;
//! * [`engine`] — [`run_spec`]/[`run_job`] (the one execution path, shared
//!   with the fault campaigns, whose cases are judged on the
//!   [`JobRecord`] [`JobRecord::from_report`] condenses), the concurrent
//!   [`serve`] loop, the standard [`mixed_queue`], and the
//!   [`check_isolation`] gate.
//!
//! The per-job isolation contract and its verification strategy are
//! documented on [`engine`] and in DESIGN.md §6.

pub mod engine;
pub mod json;
pub mod spec;

pub use engine::{
    check_isolation, mixed_queue, parse_queue, run_job, run_spec, serve, trace_digest, HostRecord,
    IsolationViolation, JobRecord, JobStatus, ProcessRecord, ServeConfig, ServeEvent, ServeSummary,
    Submission,
};
pub use json::{Json, JsonError};
pub use spec::{CrashFault, JobSpec, LayoutSpec, NetFaultSpec, SdcFault, SpecError, WorkloadKind};
