//! # sim-mpi — an MPI-like message-passing runtime with a protocol
//! interception layer
//!
//! This crate stands in for the Open MPI library of the paper
//! *Replication for Send-Deterministic MPI HPC Applications* (Lefray, Ropars,
//! Schiper — FTXS/HPDC 2013). It provides:
//!
//! * non-blocking point-to-point communication with MPI matching semantics
//!   (source/tag wildcards, unexpected-message queue) — [`pml`], [`matching`];
//! * one world communicator per replica set, as SDR-MPI's transparent
//!   `MPI_COMM_WORLD` (Figure 6) — [`comm`], [`process`];
//! * collective operations implemented over point-to-point — [`collectives`];
//! * a protocol interception layer equivalent to Open MPI's vProtocol
//!   framework, through which SDR-MPI and the baseline replication protocols
//!   are implemented without touching the rest of the library — [`protocol`];
//! * a job launcher that runs each simulated MPI process as a schedulable
//!   process over the `sim-net` virtual-time fabric — bounded worker pool,
//!   park/unpark blocking, quiescence-based deadlock detection — so one host
//!   can launch hundreds of simulated processes — [`runtime`].
//!
//! ## Quick example
//!
//! ```
//! use sim_mpi::{JobBuilder, ReduceOp};
//! use sim_net::LogGpModel;
//!
//! let report = JobBuilder::new(4)
//!     .network(LogGpModel::fast_test_model())
//!     .run(|p| {
//!         let world = p.world();
//!         // Every rank contributes its rank+1; all ranks get the total.
//!         p.allreduce_f64(world, ReduceOp::Sum, (p.rank() + 1) as f64)
//!     });
//! assert!(report.all_finished());
//! assert_eq!(report.primary_results(), vec![&10.0, &10.0, &10.0, &10.0]);
//! ```

pub mod collectives;
pub mod comm;
pub mod datatype;
pub mod matching;
pub mod pml;
pub mod process;
pub mod protocol;
pub mod runtime;
pub mod types;

pub use collectives::ReduceOp;
pub use comm::CommInfo;
pub use matching::PmlReqId;
pub use pml::{Pml, PmlEvent, SdcFlip};
pub use process::{Comm, Driver, Process, Request};
pub use protocol::{
    Action, Input, NativeFactory, NativeProtocol, ProtoRecvReq, ProtoSendReq, Protocol,
    ProtocolFactory,
};
pub use runtime::{JobBuilder, JobReport, ProcessOutcome, ProcessReport};
pub use types::{CommId, MpiError, MpiResult, Rank, Status, Tag, TagSel, ANY_SOURCE, ANY_TAG};
