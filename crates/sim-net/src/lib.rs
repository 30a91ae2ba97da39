//! # sim-net — a virtual-time simulated interconnect
//!
//! This crate provides the network substrate on which the `sim-mpi` runtime
//! (and on top of it, the SDR-MPI replication protocol) is built. It plays the
//! role that InfiniBand + the Open MPI BTL layer played in the original paper:
//! reliable FIFO channels between physical processes, with communication costs
//! charged in *virtual time* by a LogGP-style model.
//!
//! Design summary (see `DESIGN.md` §5):
//!
//! * Every physical process owns a [`clock::VirtualClock`]. Computation
//!   advances the clock explicitly; communication costs are charged by the
//!   [`model::NetworkModel`].
//! * Execution goes through the [`sched::Scheduler`]: each simulated process
//!   lives on a coroutine stack ([`carrier::coro`]), hosted by a few worker
//!   threads leased from the process-global [`carrier::CarrierPool`], and
//!   only a bounded pool of run permits executes at a time, dispatched
//!   lowest-virtual-time-first. A departing carrier hands its
//!   permit *directly* to the next ready process (one ready heap keyed by
//!   virtual time); blocking waits park on the scheduler
//!   (park/unpark wake-token protocol) and deadlocks are detected exactly,
//!   by quiescence, instead of by real-time timeouts.
//! * Transport is a single-pass delivery pipeline: one fabric-owned mailbox
//!   per destination endpoint behind one lock, which a send ingests into
//!   *in place* before it returns, feeding a receiver-side heap keyed by
//!   `(arrival, ingest sequence)`. Messages from one sender to one
//!   receiver are delivered in order (the paper's FIFO reliable channel
//!   assumption; ties between equal virtual arrivals are broken by physical
//!   ingest order). A sender wakes each destination once per wake window
//!   ([`Endpoint::flush`]); wakes to already-runnable targets take a
//!   lock-free fast path ([`sched::Scheduler::wake`]).
//! * Crash failures are injected by the [`failure::FailureService`], which also
//!   acts as the "external service" the paper assumes for failure detection:
//!   every alive endpoint learns about a crash.
//! * [`stats::NetStats`] counts messages and bytes so protocol-level message
//!   complexity (e.g. mirror's `O(q·r²)` vs parallel's `O(q·r)`) can be
//!   measured directly.
//! * [`campaign`] samples seeded, reproducible fault plans (exponential-MTBF
//!   crashes, correlated replica-pair loss, mid-collective crashes, soft
//!   errors, lossy links and delayed acks) that the upper layers compile into
//!   `FailureService` schedules, PML corruption hooks and fabric-level
//!   [`netfault::NetFaultPolicy`] installations, and shrinks failing plans to
//!   minimal regression cases.
//! * [`netfault`] is the lossy-transport injection layer: a seeded per-job
//!   policy that drops, duplicates or delays application/ack deliveries at
//!   configured per-link rates, deterministically, while preserving per-link
//!   FIFO (delays raise a link arrival floor). The replication protocol is
//!   expected to *mask* these faults (retransmit/timeout/backoff + duplicate
//!   suppression); see DESIGN.md §5.5.
//!
//! # Concurrency protocols at a glance
//!
//! Three modules own lock-free protocols; each states its
//! full argument in its own docs (and DESIGN.md §5.1–§5.3 gives the
//! narrative version, `ARCHITECTURE.md` the end-to-end tour):
//!
//! * [`fabric`] — mailbox ingest order (count, then append under the
//!   mailbox lock, then wake).
//! * [`sched`] — per-slot atomic phase words, wake tokens with the
//!   Dekker-style store-load re-check, direct permit handoff, and the
//!   verdict mutex that serialises quiescence.
//! * [`failure`] — atomic fast paths (a per-endpoint `may_crash` flag, the
//!   `failed_seq` allocator) answering the per-send crash checks and
//!   per-progress failure polls without touching the service's inner lock.

#![deny(missing_docs)]

pub mod campaign;
pub mod carrier;
pub mod clock;
pub mod fabric;
pub mod failure;
pub mod model;
pub mod netfault;
pub mod sched;
pub mod stats;
pub mod time;
pub mod topology;
pub mod trace;

pub use campaign::{
    sample_plan, shrink_events, CampaignConfig, CampaignRng, FaultDistribution, FaultPlan,
    PlannedFault,
};
pub use carrier::coro::CoroRuntime;
pub use carrier::stack::StackPool;
pub use carrier::{CarrierHandle, CarrierMode, CarrierPool, CarrierSource};
pub use clock::VirtualClock;
pub use fabric::{Endpoint, EndpointId, Fabric, RawMessage, RecvError};
pub use failure::{CrashSchedule, FailureEvent, FailureService};
pub use model::{HockneyModel, LogGpModel, NetworkModel};
pub use netfault::{FaultVerdict, NetFaultConfig, NetFaultPolicy};
pub use sched::{Park, Scheduler, WakeOutcome};
pub use stats::{NetStats, StatsSnapshot};
pub use time::SimTime;
pub use topology::{Cluster, NodeId, Placement};
pub use trace::{EventKind, EventTrace, TraceEvent};
