//! # workloads — the applications the paper evaluates SDR-MPI with
//!
//! The paper's evaluation (Section 4) uses:
//!
//! * **NetPipe** ping-pong for latency/throughput (Figure 7a/7b) — [`netpipe`];
//! * five **NAS Parallel Benchmarks** (BT, CG, FT, MG, SP, class D) for
//!   Table 1 — [`nas`];
//! * **HPCCG** (Mantevo conjugate gradient on a 3D chimney domain) and **CM1**
//!   (cloud model), both containing `MPI_ANY_SOURCE` receptions, for
//!   Table 2 — [`apps`].
//!
//! Since the original codes and the 64-node InfiniBand cluster are not
//! available here, each workload is re-implemented as a communication-pattern
//! faithful mini-kernel: real (small-scale) numerics produce a checksum that
//! must agree between native and replicated executions, and the per-iteration
//! computation cost is charged to the virtual clock through an explicit cost
//! model so that the compute/communication ratio is class-D-like (see
//! `DESIGN.md` §2 for the substitution argument).
//!
//! [`runner`] packages the native-vs-replicated comparison used by the
//! Table 1/2 harnesses, and [`serve`] holds the job spec every harness above
//! the simulator launches through. [`pool`] lends the host's idle cores to a
//! kernel's per-row numerics. Definition 1 (send-determinism) is checked on
//! every workload here by `tests/send_determinism.rs`, which re-runs each
//! one under the fabric's seeded delay policy and compares per-rank sends.

pub mod apps;
pub mod campaign;
pub mod nas;
pub mod netpipe;
pub mod pool;
pub mod runner;
pub mod serve;

pub use campaign::{
    case_spec, run_campaign, run_case, shrink, CampaignSummary, CaseOutcome, LatencyStats,
    ShrinkOutcome, Violation,
};
pub use netpipe::{netpipe_sweep, NetpipePoint};
pub use runner::{compare, ComparisonRow, WorkloadSpec};
pub use serve::{JobRecord, JobSpec, ServeConfig, ServeEvent, SpecError};
