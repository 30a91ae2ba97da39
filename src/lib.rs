//! Umbrella crate for the SDR-MPI reproduction of *Replication for
//! Send-Deterministic MPI HPC Applications* (Lefray, Ropars, Schiper —
//! FTXS/HPDC 2013).
//!
//! This crate only re-exports the workspace members so that the repository's
//! top-level `examples/` and `tests/` can use a single dependency. See the
//! `README.md` for the workspace layout and `DESIGN.md` for the architecture
//! (the rustdoc of each member cites the relevant DESIGN section).
//!
//! | re-export | crate | role |
//! |---|---|---|
//! | [`sim_net`] | `crates/sim-net` | virtual-time fabric: LogGP model, failures |
//! | [`sim_mpi`] | `crates/sim-mpi` | MPI-like runtime: PML, matching, collectives, interception |
//! | [`sdr_core`] | `crates/core` | the paper's protocol: acks, substitution, Section 3.4 recovery, replica layout |
//! | [`repl_baselines`] | `crates/repl-baselines` | mirror / leader / redMPI baselines |
//! | [`workloads`] | `crates/workloads` | NAS, NetPipe, HPCCG, CM1 mini-kernels |

pub use repl_baselines;
pub use sdr_core;
pub use sim_mpi;
pub use sim_net;
pub use workloads;
