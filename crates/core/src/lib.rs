//! # sdr-core — SDR-MPI: replication for send-deterministic MPI applications
//!
//! This crate is the Rust reproduction of the core contribution of
//! *Replication for Send-Deterministic MPI HPC Applications*
//! (Lefray, Ropars, Schiper — FTXS workshop at HPDC, 2013): a **parallel
//! replication protocol** implemented *inside* the MPI library, which uses the
//! send-determinism of typical MPI HPC applications to avoid any leader-based
//! agreement on non-deterministic events (`MPI_ANY_SOURCE`, `MPI_Test`,
//! `MPI_Waitany`).
//!
//! * [`protocol::SdrProtocol`] — Algorithm 1: receiver-driven acknowledgements
//!   emitted on the library-level `irecvComplete` event and send completion
//!   gated on collecting the acks of all other replicas of the destination
//!   rank (the fast path, `protocol/mod.rs`), with one file per slow path:
//!   loss masking (`lossy.rs`) and the `upon failure` substitution handler
//!   (`failure.rs`). Crashes are masked, not repaired: a failed replica
//!   stays dead, and Section 3.4's recovery is not reproduced.
//! * [`config::ReplicationConfig`] — replication degree and the ack-timing
//!   ablation ([`config::AckOn`]).
//! * [`layout::ReplicaMap`] — the rank → replica-set mapping: the
//!   transparent `MPI_COMM_WORLD` splitting of Figure 6 at any degree
//!   ([`ReplicaMap::uniform`]) and partial replication of a configured rank
//!   subset ([`ReplicaMap::partial`]). Its
//!   [`ReplicaMap::lowest_live_replica`] is the one election: the substitute
//!   of Algorithm 1.
//! * [`factory::mapped_job`] — one-call launcher for a job on one map;
//!   [`factory::replicated_job`] is its uniform case.
//!
//! ## Quick example
//!
//! ```
//! use sdr_core::{replicated_job, ReplicationConfig};
//! use sim_mpi::ReduceOp;
//! use sim_net::LogGpModel;
//!
//! // 4 MPI ranks, dual replication (8 physical processes), allreduce.
//! let report = replicated_job(4, ReplicationConfig::dual())
//!     .network(LogGpModel::fast_test_model())
//!     .run(|p| p.allreduce_f64(p.world(), ReduceOp::Sum, (p.rank() + 1) as f64));
//! assert!(report.all_finished());
//! assert_eq!(report.primary_results(), vec![&10.0; 4]);
//! ```

pub mod config;
pub mod factory;
pub mod layout;
pub mod protocol;

pub use config::{AckOn, ReplicationConfig};
pub use factory::{
    coverage_job, mapped_job, native_job, partial_replicated_job, replicated_job, SdrFactory,
};
pub use layout::{LayoutError, ReplicaMap};
pub use protocol::{SdrProtocol, SeqTracker};
