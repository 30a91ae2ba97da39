//! The job launcher: runs every physical process as a *schedulable process*
//! over the `sim-net` [`sim_net::Scheduler`], wires each to the fabric and the
//! selected protocol, runs the application closure, and collects a
//! [`JobReport`].
//!
//! Each simulated process owns a *carrier* — the stack its application
//! closure lives on: a guarded stack from the process-global
//! [`sim_net::StackPool`], hosted together with every other process of the
//! job by a [`CoroRuntime`] on `workers` OS threads leased from the
//! process-global [`sim_net::CarrierPool`]. A scheduler handoff is a
//! user-space stack switch, and a 4096-rank (8192-process) job costs a few
//! threads plus 8192 lazily-committed stacks. Both pools recycle across
//! back-to-back jobs (a benchmark harness's rows, a server's queue) —
//! [`JobReport::threads_spawned`]/[`JobReport::threads_reused`] and the
//! stack counters on [`StatsSnapshot`] account for the churn. Carriers only
//! execute while holding one of the scheduler's bounded run permits —
//! `workers` of them, defaulting to the host core count. Blocked processes
//! park on the scheduler instead of pinning an OS thread: concurrency never
//! exceeds the worker pool, and parked carriers cost nothing but their
//! (small, pooled) stacks.
//!
//! Crashed processes (scheduled via [`sim_net::CrashSchedule`]) unwind with a
//! `CrashSignal` panic that the launcher converts into a
//! [`ProcessOutcome::Crashed`] record rather than a test failure; deadlocks —
//! detected exactly, by the scheduler's quiescence check (run queue empty, no
//! message in flight, unfinished processes parked) — become
//! [`ProcessOutcome::Deadlocked`]. The job's *elapsed* virtual time — the
//! quantity reported in the paper's tables — is the maximum finish time over
//! the processes that completed the application.

use crate::pml::{Pml, SdcFlip};
use crate::process::Process;
use crate::protocol::{NativeFactory, ProtocolFactory};
use crate::types::{MpiError, Rank};
use sim_net::failure::CrashSignal;
use sim_net::sched::{default_workers, host_cores};
use sim_net::stats::StatsSnapshot;
use sim_net::trace::EventTrace;
use sim_net::{
    CarrierMode, CoroRuntime, CrashSchedule, EndpointId, Fabric, LogGpModel, NetFaultConfig,
    SimTime,
};
use std::sync::{Arc, Once};

/// How one physical process finished.
#[derive(Debug)]
pub enum ProcessOutcome<R> {
    /// The application closure returned normally.
    Finished(R),
    /// The process crashed (its crash schedule fired).
    Crashed {
        /// Virtual time of the crash.
        at: SimTime,
    },
    /// The process was blocked when the scheduler proved the job deadlocked.
    Deadlocked {
        /// Description of what it was waiting for.
        waiting_for: String,
    },
    /// The application panicked for another reason (a real bug).
    Panicked(String),
}

impl<R> ProcessOutcome<R> {
    /// True if the process finished the application normally.
    pub fn is_finished(&self) -> bool {
        matches!(self, ProcessOutcome::Finished(_))
    }

    /// True if the process crashed by schedule.
    pub fn is_crashed(&self) -> bool {
        matches!(self, ProcessOutcome::Crashed { .. })
    }

    /// True if the process deadlocked.
    pub fn is_deadlocked(&self) -> bool {
        matches!(self, ProcessOutcome::Deadlocked { .. })
    }

    /// The result, if finished.
    pub fn result(&self) -> Option<&R> {
        match self {
            ProcessOutcome::Finished(r) => Some(r),
            _ => None,
        }
    }
}

/// Per-process record in the job report.
#[derive(Debug)]
pub struct ProcessReport<R> {
    /// Physical identity.
    pub endpoint: EndpointId,
    /// Application-world rank this process played.
    pub app_rank: Rank,
    /// Replica id (0 when not replicated). Replica 0 of every rank is the
    /// job's primary output.
    pub replica: usize,
    /// How the process finished.
    pub outcome: ProcessOutcome<R>,
    /// Final virtual time of the process.
    pub finish_time: SimTime,
    /// Time accounted to application computation.
    pub compute_time: SimTime,
    /// Time accounted to communication overheads.
    pub comm_time: SimTime,
    /// Time accounted to idle waiting.
    pub idle_time: SimTime,
}

/// The result of running a job.
#[derive(Debug)]
pub struct JobReport<R> {
    /// One report per physical process, indexed by endpoint id.
    pub processes: Vec<ProcessReport<R>>,
    /// Fabric-wide message statistics.
    pub stats: StatsSnapshot,
    /// Simulated wall-clock time of the job: the maximum finish time over all
    /// processes that completed the application.
    pub elapsed: SimTime,
    /// Name of the protocol the job ran with.
    pub protocol: String,
    /// The shared event trace (empty unless tracing was enabled).
    pub trace: EventTrace,
    /// Size of the scheduler's worker pool the job ran with.
    pub workers: usize,
    /// Highest number of simultaneously executing simulated processes the
    /// scheduler observed — always `<= workers` outside deadlock teardown.
    pub peak_concurrency: usize,
    /// Worker threads freshly spawned to host this job's coroutine stacks.
    /// With [`JobReport::threads_reused`] this sums to `workers`, never to
    /// one thread per process.
    pub threads_spawned: usize,
    /// Worker threads reused from the process-global pool.
    pub threads_reused: usize,
}

impl<R> JobReport<R> {
    /// Results of the primary replica set, in application-rank order.
    pub fn primary_results(&self) -> Vec<&R> {
        let mut with_rank: Vec<(Rank, &R)> = self
            .processes
            .iter()
            .filter(|p| p.replica == 0)
            .filter_map(|p| p.outcome.result().map(|r| (p.app_rank, r)))
            .collect();
        with_rank.sort_by_key(|(r, _)| *r);
        with_rank.into_iter().map(|(_, r)| r).collect()
    }

    /// Did every process finish normally?
    pub fn all_finished(&self) -> bool {
        self.processes.iter().all(|p| p.outcome.is_finished())
    }

    /// Endpoints that crashed.
    pub fn crashed(&self) -> Vec<EndpointId> {
        self.processes
            .iter()
            .filter(|p| p.outcome.is_crashed())
            .map(|p| p.endpoint)
            .collect()
    }

    /// Did a surviving process abort with [`MpiError::RankLost`] — every
    /// replica of some rank is gone and the job reported it promptly?
    pub fn rank_lost(&self) -> bool {
        self.processes.iter().any(|p| {
            matches!(&p.outcome,
                ProcessOutcome::Panicked(msg) if MpiError::is_rank_lost_message(msg))
        })
    }

    /// Endpoints that deadlocked.
    pub fn deadlocked(&self) -> Vec<EndpointId> {
        self.processes
            .iter()
            .filter(|p| p.outcome.is_deadlocked())
            .map(|p| p.endpoint)
            .collect()
    }
}

/// Builder for a simulated MPI job.
pub struct JobBuilder {
    app_ranks: usize,
    model: LogGpModel,
    factory: Arc<dyn ProtocolFactory>,
    crash_schedules: Vec<(EndpointId, CrashSchedule)>,
    sdc_flips: Vec<(EndpointId, SdcFlip)>,
    net_faults: Option<(NetFaultConfig, u64)>,
    trace: bool,
    workers: Option<usize>,
}

/// Usable size of every simulated process's coroutine stack. Simulated
/// processes keep their data on the heap (payloads are `Bytes`, workloads
/// use `Vec`s), so a modest stack keeps a 512-process job cheap; an
/// application that recurses past it hits the stack's guard page and aborts
/// with a diagnostic naming this constant.
pub const DEFAULT_PROC_STACK: usize = 1 << 20;

impl JobBuilder {
    /// A job of `app_ranks` application ranks, run natively (no replication)
    /// on the InfiniBand-20G model.
    pub fn new(app_ranks: usize) -> Self {
        assert!(app_ranks > 0, "a job needs at least one rank");
        JobBuilder {
            app_ranks,
            model: LogGpModel::infiniband_20g(),
            factory: Arc::new(NativeFactory),
            crash_schedules: Vec::new(),
            sdc_flips: Vec::new(),
            net_faults: None,
            trace: false,
            workers: None,
        }
    }

    /// Use a specific network cost model.
    pub fn network(mut self, model: LogGpModel) -> Self {
        self.model = model;
        self
    }

    /// Select the protocol (native, SDR-MPI, mirror, ...).
    pub fn protocol(mut self, factory: Arc<dyn ProtocolFactory>) -> Self {
        self.factory = factory;
        self
    }

    /// Schedule a crash for a physical process.
    pub fn crash(mut self, endpoint: EndpointId, schedule: CrashSchedule) -> Self {
        self.crash_schedules.push((endpoint, schedule));
        self
    }

    /// Schedule a soft-error injection: flip one payload bit of the given
    /// process's `flip.nth_send`-th application send, below the protocol
    /// layer (see [`SdcFlip`]). The fault-campaign engine's second fault
    /// class, next to [`JobBuilder::crash`].
    pub fn sdc_flip(mut self, endpoint: EndpointId, flip: SdcFlip) -> Self {
        self.sdc_flips.push((endpoint, flip));
        self
    }

    /// Make the transport lossy: install a seeded [`sim_net::NetFaultPolicy`]
    /// that drops, duplicates or delays application and ack deliveries at the
    /// rates in `config` (see [`NetFaultConfig::lossy_links`] and
    /// [`NetFaultConfig::delayed_acks`]). The fault-campaign engine's third
    /// fault class, next to [`JobBuilder::crash`] and [`JobBuilder::sdc_flip`].
    /// The policy is a pure function of `(config, seed)` and the per-link
    /// message indices, so identical jobs replay identical fault decisions.
    /// Protocols ask [`Pml::lossy_transport`](crate::pml::Pml::lossy_transport)
    /// wherever the mode matters to them and are expected to mask the loss
    /// (SDR-MPI retransmits on a virtual-time timer and suppresses
    /// duplicates; see DESIGN.md §5.5).
    pub fn net_faults(mut self, config: NetFaultConfig, seed: u64) -> Self {
        self.net_faults = Some((config, seed));
        self
    }

    /// Enable event tracing: the job's sends and receives are recorded in
    /// [`JobReport::trace`].
    pub fn trace(mut self, enabled: bool) -> Self {
        self.trace = enabled;
        self
    }

    /// Size of the scheduler's worker pool: how many simulated processes may
    /// execute concurrently. Defaults to [`default_workers`]`(physical
    /// processes, host cores)` — one permit per core, never more than
    /// processes — and is clamped to at least [`sim_net::sched::MIN_WORKERS`].
    /// `workers(1)` selects *deterministic replay*: with a single run permit,
    /// dispatch is a pure function of the virtual-time-ordered ready queues,
    /// so two identical runs schedule — and trace — identically.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Accepted and ignored: every simulated process runs on a coroutine
    /// stack, whichever [`CarrierMode`] is named. Kept for callers that
    /// still name one.
    pub fn carrier_mode(self, _mode: CarrierMode) -> Self {
        self
    }

    /// Number of physical processes this job will launch.
    pub fn physical_processes(&self) -> usize {
        self.factory.physical_processes(self.app_ranks)
    }

    /// Launch the job: run `app` once per physical process and collect the
    /// report. The closure receives the application-facing [`Process`] handle;
    /// replicas of the same rank run the same closure (replication is
    /// transparent, as in the paper's Figure 6).
    pub fn run<F, R>(self, app: F) -> JobReport<R>
    where
        F: Fn(&mut Process) -> R + Send + Sync + 'static,
        R: Send + 'static,
    {
        install_quiet_panic_hook();
        let physical = self.factory.physical_processes(self.app_ranks);
        let fabric = Fabric::with_defaults(physical, self.model);
        // Install before anything runs: protocols read the policy's presence
        // from their first call on, and per-link fault indices must start at
        // zero.
        if let Some((config, seed)) = self.net_faults {
            fabric.install_net_faults(config, seed);
        }
        let trace = if self.trace {
            EventTrace::enabled()
        } else {
            EventTrace::disabled()
        };
        let workers = self
            .workers
            .unwrap_or_else(|| default_workers(physical, host_cores()));
        fabric.scheduler().set_workers(workers);
        let app = Arc::new(app);
        let factory = Arc::clone(&self.factory);
        let app_ranks = self.app_ranks;
        let sdc_flips = self.sdc_flips;
        let crash_schedules = self.crash_schedules;
        // One process body per physical process, each run on its own
        // coroutine stack.
        let body_for = {
            let fabric = Arc::clone(&fabric);
            let trace = trace.clone();
            move |p: usize| {
                let fabric = Arc::clone(&fabric);
                let factory = Arc::clone(&factory);
                let app = Arc::clone(&app);
                let trace = trace.clone();
                let flips: Vec<SdcFlip> = sdc_flips
                    .iter()
                    .filter(|(ep, _)| *ep == EndpointId(p))
                    .map(|(_, f)| *f)
                    .collect();
                // The last schedule `crash` set for this endpoint wins.
                let crash = crash_schedules
                    .iter()
                    .rev()
                    .find(|(ep, _)| *ep == EndpointId(p))
                    .map_or(CrashSchedule::Never, |(_, s)| *s);
                move || {
                    // Mark the slot finished on every exit path (including
                    // unexpected panics), so peers never wait on a ghost.
                    let _finish = FinishGuard {
                        fabric: Arc::clone(&fabric),
                        endpoint: EndpointId(p),
                    };
                    // The scheduler's grant of a run permit *is* this
                    // coroutine's first resume, so this returns immediately.
                    fabric.scheduler().start(EndpointId(p));
                    let mut endpoint = fabric.endpoint(EndpointId(p));
                    endpoint.schedule_crash(crash);
                    let mut pml = Pml::new(endpoint);
                    if !flips.is_empty() {
                        pml.arm_sdc_flips(flips);
                    }
                    let protocol = factory.build(EndpointId(p), app_ranks);
                    let app_rank = protocol.app_rank();
                    let replica = protocol.replica_id();
                    let mut process = Process::new(pml, protocol, app_ranks, trace);
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        let r = app(&mut process);
                        process.finalize();
                        r
                    }));
                    let outcome = match result {
                        Ok(r) => ProcessOutcome::Finished(r),
                        Err(payload) => classify_panic(payload),
                    };
                    let (pml, _protocol) = process.into_parts();
                    let clock = pml.endpoint().clock();
                    ProcessReport {
                        endpoint: EndpointId(p),
                        app_rank,
                        replica,
                        outcome,
                        finish_time: clock.now(),
                        compute_time: clock.compute_time(),
                        comm_time: clock.comm_overhead_time(),
                        idle_time: clock.idle_time(),
                    }
                }
            }
        };
        // Spawn-all / attach / register-all / activate, in that order: a
        // registered slot may be dispatched on the spot, so its coroutine
        // must already be prepared and the scheduler must already route
        // dispatches to the runtime — and the quiescence detector assumes
        // the registered population is complete before anything blocks,
        // which holds because nothing executes until `activate` leases the
        // workers.
        let rt = CoroRuntime::new(physical, DEFAULT_PROC_STACK, Arc::clone(fabric.stats()));
        let handles: Vec<_> = (0..physical).map(|p| rt.spawn(p, body_for(p))).collect();
        fabric.scheduler().attach_coro(Arc::clone(&rt));
        for p in 0..physical {
            fabric.scheduler().register(EndpointId(p));
        }
        let (threads_spawned, threads_reused) = rt.activate(workers);
        let mut processes: Vec<ProcessReport<R>> = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .expect("simulated process carrier must not die unexpectedly")
            })
            .collect();
        rt.shutdown();
        processes.sort_by_key(|p| p.endpoint);
        let elapsed = processes
            .iter()
            .filter(|p| p.outcome.is_finished())
            .map(|p| p.finish_time)
            .max()
            .unwrap_or(SimTime::ZERO);
        JobReport {
            processes,
            stats: fabric.stats().snapshot(),
            elapsed,
            protocol: self.factory.name().to_string(),
            trace,
            workers: fabric.scheduler().workers(),
            peak_concurrency: fabric.scheduler().peak_running(),
            threads_spawned,
            threads_reused,
        }
    }
}

/// Drop guard marking a simulated process finished with the scheduler on
/// every carrier exit path.
struct FinishGuard {
    fabric: Arc<Fabric>,
    endpoint: EndpointId,
}

impl Drop for FinishGuard {
    fn drop(&mut self) {
        self.fabric.scheduler().finish(self.endpoint);
    }
}

fn classify_panic<R>(payload: Box<dyn std::any::Any + Send>) -> ProcessOutcome<R> {
    if let Some(sig) = payload.downcast_ref::<CrashSignal>() {
        return ProcessOutcome::Crashed { at: sig.at };
    }
    if let Some(err) = payload.downcast_ref::<MpiError>() {
        if let MpiError::Deadlock { waiting_for, .. } = err {
            return ProcessOutcome::Deadlocked {
                waiting_for: waiting_for.clone(),
            };
        }
        return ProcessOutcome::Panicked(err.to_string());
    }
    let msg = if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    };
    ProcessOutcome::Panicked(msg)
}

/// Silence the default panic printer for the panics we use as control flow
/// (crash signals, deadlock reports); real panics still print.
fn install_quiet_panic_hook() {
    static INIT: Once = Once::new();
    INIT.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            if payload.downcast_ref::<CrashSignal>().is_some()
                || payload.downcast_ref::<MpiError>().is_some()
            {
                return;
            }
            previous(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::ReduceOp;
    use bytes::Bytes;
    use sim_net::trace::EventKind;
    use std::time::Duration;

    fn fast() -> LogGpModel {
        LogGpModel::fast_test_model()
    }

    #[test]
    fn rank_lost_unwinds_are_recognised_and_lookalike_panics_are_not() {
        let lost = |outcome: ProcessOutcome<()>| match outcome {
            ProcessOutcome::Panicked(msg) => MpiError::is_rank_lost_message(&msg),
            other => panic!("expected a panic outcome, got {other:?}"),
        };
        assert!(lost(classify_panic(Box::new(MpiError::RankLost {
            rank: 3,
            degree: 2
        }))));
        assert!(!lost(classify_panic(Box::new(
            "assertion failed: we lost all the replicas of the matrix"
        ))));
        assert!(!lost(classify_panic(Box::new(MpiError::PeerFailed {
            endpoint: EndpointId(1)
        }))));
    }

    #[test]
    fn two_rank_ping_pong_native() {
        let report = JobBuilder::new(2).network(fast()).run(|p| {
            let world = p.world();
            if p.rank() == 0 {
                p.send_bytes(world, 1, 7, Bytes::from_static(b"ping"));
                let (_, data) = p.recv_bytes(world, 1, 8);
                assert_eq!(&data[..], b"pong");
            } else {
                let (_, data) = p.recv_bytes(world, 0, 7);
                assert_eq!(&data[..], b"ping");
                p.send_bytes(world, 0, 8, Bytes::from_static(b"pong"));
            }
            p.rank()
        });
        assert!(report.all_finished());
        assert_eq!(report.primary_results(), vec![&0, &1]);
        assert!(report.elapsed > SimTime::ZERO);
        assert_eq!(report.stats.app_msgs(), 2);
        assert_eq!(report.protocol, "native");
    }

    #[test]
    fn wildcard_receive_reports_actual_source() {
        let report = JobBuilder::new(3).network(fast()).run(|p| {
            let world = p.world();
            if p.rank() == 0 {
                let mut sources = Vec::new();
                for _ in 0..2 {
                    let (status, data) = p.recv_bytes(world, crate::types::ANY_SOURCE, 1);
                    assert_eq!(data.len(), 8);
                    sources.push(status.source);
                }
                sources.sort();
                sources
            } else {
                p.send_u64s(world, 0, 1, &[p.rank() as u64]);
                vec![]
            }
        });
        assert!(report.all_finished());
        assert_eq!(report.primary_results()[0], &vec![1, 2]);
    }

    #[test]
    fn collectives_native_smoke() {
        let report = JobBuilder::new(4).network(fast()).run(|p| {
            let world = p.world();
            let root_data = (p.rank() == 2).then(|| Bytes::from_static(b"bcast"));
            let bcast = p.bcast_bytes(world, 2, root_data);
            assert_eq!(&bcast[..], b"bcast");

            let sum = p.allreduce_f64(world, ReduceOp::Sum, (p.rank() + 1) as f64);
            assert_eq!(sum, 10.0);

            let blocks: Vec<Bytes> = (0..4)
                .map(|d| Bytes::from(vec![(p.rank() * 10 + d) as u8]))
                .collect();
            let a2a = p.alltoall_bytes(world, blocks);
            for (src, b) in a2a.iter().enumerate() {
                assert_eq!(b[0] as usize, src * 10 + p.rank());
            }

            true
        });
        assert!(report.all_finished());
    }

    #[test]
    fn test_polls_a_receive_to_completion() {
        let report = JobBuilder::new(2).network(fast()).run(|p| {
            let world = p.world();
            if p.rank() == 0 {
                // test() on a fresh request eventually turns true.
                let r = p.irecv_bytes(world, 1, 3);
                while !p.test(r) {
                    std::thread::yield_now();
                }
            } else {
                p.compute(SimTime::from_micros(3));
                p.send_bytes(world, 0, 3, Bytes::from_static(b"late"));
            }
            true
        });
        assert!(report.all_finished());
    }

    #[test]
    fn scheduled_crash_reported_not_failed_test() {
        let report = JobBuilder::new(2)
            .network(fast())
            .crash(EndpointId(1), CrashSchedule::BeforeSend { nth: 1 })
            .run(|p| {
                let world = p.world();
                if p.rank() == 0 {
                    // This receive can never be satisfied: the peer crashes
                    // before sending. The process deadlocks.
                    let (_, _) = p.recv_bytes(world, 1, 0);
                    0
                } else {
                    p.send_bytes(world, 0, 0, Bytes::from_static(b"never"));
                    1
                }
            });
        assert_eq!(report.crashed(), vec![EndpointId(1)]);
        assert_eq!(report.deadlocked(), vec![EndpointId(0)]);
        assert!(!report.all_finished());
    }

    #[test]
    fn worker_pool_bounds_concurrency() {
        // 12 physical processes over 2 run permits: the scheduler must never
        // let more than 2 execute at once, and the job still completes.
        let report = JobBuilder::new(12).network(fast()).workers(2).run(|p| {
            let world = p.world();
            let peer = (p.rank() + 1) % p.size();
            let from = (p.rank() + p.size() - 1) % p.size();
            for _ in 0..3 {
                p.compute(SimTime::from_micros(5));
                p.sendrecv_bytes(world, peer, 0, Bytes::from(vec![1u8; 64]), from as i64, 0);
            }
            p.rank()
        });
        assert!(report.all_finished());
        assert_eq!(report.workers, 2);
        assert!(
            report.peak_concurrency <= 2,
            "peak concurrency {} exceeded the 2-worker pool",
            report.peak_concurrency
        );
    }

    #[test]
    fn many_processes_multiplex_over_few_workers() {
        // 64 simulated processes on a 4-permit pool: well past the old
        // "everything runs at once" regime.
        let report = JobBuilder::new(64).network(fast()).workers(4).run(|p| {
            let world = p.world();
            let peer = (p.rank() + 1) % p.size();
            let from = (p.rank() + p.size() - 1) % p.size();
            let (_, data) = p.sendrecv_bytes(
                world,
                peer,
                0,
                Bytes::from(vec![p.rank() as u8; 8]),
                from as i64,
                0,
            );
            data[0] as usize
        });
        assert!(report.all_finished());
        assert!(report.peak_concurrency <= 4);
        for proc in &report.processes {
            let from = (proc.app_rank + 64 - 1) % 64;
            assert_eq!(proc.outcome.result(), Some(&from));
        }
    }

    #[test]
    fn deadlock_detected_by_quiescence_not_timeout() {
        // Launched processes never wait out a real-time timeout; only the
        // scheduler's quiescence check can report this deadlock.
        let started = std::time::Instant::now();
        let report = JobBuilder::new(2).network(fast()).run(|p| {
            let world = p.world();
            if p.rank() == 0 {
                // Nobody ever sends tag 99.
                let (_, _) = p.recv_bytes(world, 1, 99);
            }
            p.rank()
        });
        assert_eq!(report.deadlocked(), vec![EndpointId(0)]);
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "quiescence verdict took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn busy_poll_spinner_cannot_defeat_deadlock_detection() {
        // Rank 0 spins on MPI_Test for a message nobody will ever send — the
        // classic quiescence-defeating pattern: it never parks, so the PR 2
        // scheduler could never declare the job dead and the test would hang
        // forever. The yield-streak guard must convert the fruitless spin
        // into a park and report the deadlock promptly.
        let started = std::time::Instant::now();
        let report = JobBuilder::new(2).network(fast()).run(|p| {
            let world = p.world();
            if p.rank() == 0 {
                let req = p.irecv_bytes(world, 1, 99);
                while !p.test(req) {
                    std::hint::spin_loop();
                }
            }
            p.rank()
        });
        assert_eq!(report.deadlocked(), vec![EndpointId(0)]);
        assert!(
            report.processes[1].outcome.is_finished(),
            "rank 1 has nothing to wait for and finishes"
        );
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "busy-poll deadlock took {:?} to surface",
            started.elapsed()
        );
    }

    #[test]
    fn compute_time_accounted_and_elapsed_reasonable() {
        let report = JobBuilder::new(2).network(fast()).run(|p| {
            p.compute(SimTime::from_micros(5_000));
            let world = p.world();
            // simple exchange
            let peer = 1 - p.rank();
            let (_, _data) =
                p.sendrecv_bytes(world, peer, 0, Bytes::from(vec![0u8; 64]), peer as i64, 0);
        });
        assert!(report.all_finished());
        for proc in &report.processes {
            assert!(proc.compute_time >= SimTime::from_micros(5_000));
            assert!(proc.finish_time >= proc.compute_time);
        }
        assert!(report.elapsed >= SimTime::from_micros(5_000));
        // Elapsed is maximum over processes.
        let max_finish = report
            .processes
            .iter()
            .map(|p| p.finish_time)
            .max()
            .unwrap();
        assert_eq!(report.elapsed, max_finish);
    }

    #[test]
    fn single_worker_replay_is_deterministic() {
        // `workers(1)` is the deterministic replay mode: one run permit makes
        // dispatch a pure function of the ready queues, so two identical runs
        // must produce identical event traces (order, peers, payload digests
        // and virtual timestamps) — including across an ANY_SOURCE gather,
        // the pattern whose completion order host scheduling can otherwise
        // perturb.
        let run = || {
            JobBuilder::new(6)
                .network(fast())
                .workers(1)
                .trace(true)
                .run(|p| {
                    let world = p.world();
                    let peer = (p.rank() + 1) % p.size();
                    let from = (p.rank() + p.size() - 1) % p.size();
                    for round in 0..3u8 {
                        p.sendrecv_bytes(
                            world,
                            peer,
                            1,
                            Bytes::from(vec![round; 32]),
                            from as i64,
                            1,
                        );
                    }
                    if p.rank() == 0 {
                        for _ in 0..(p.size() - 1) {
                            let (_, _) = p.recv_bytes(world, crate::types::ANY_SOURCE, 2);
                        }
                    } else {
                        p.send_bytes(world, 0, 2, Bytes::from(vec![p.rank() as u8]));
                    }
                    p.now()
                })
        };
        let a = run();
        let b = run();
        assert!(a.all_finished() && b.all_finished());
        assert_eq!(a.workers, 1);
        assert!(a.peak_concurrency <= 1);
        assert_eq!(
            a.trace.events(),
            b.trace.events(),
            "single-worker replay must record identical TraceEvent streams"
        );
        for (pa, pb) in a.processes.iter().zip(b.processes.iter()) {
            assert_eq!(pa.finish_time, pb.finish_time);
        }
    }

    #[test]
    fn trace_records_send_sequences() {
        let report = JobBuilder::new(2).network(fast()).trace(true).run(|p| {
            let world = p.world();
            if p.rank() == 0 {
                for i in 0..3u8 {
                    p.send_bytes(world, 1, i as i64, Bytes::from(vec![i]));
                }
            } else {
                for i in 0..3 {
                    p.recv_bytes(world, 0, i as i64);
                }
            }
        });
        assert!(report.all_finished());
        let sends = |process| {
            report
                .trace
                .events()
                .iter()
                .filter(|e| e.process == process && e.kind == EventKind::Send)
                .count()
        };
        assert_eq!(sends(EndpointId(0)), 3);
        assert_eq!(sends(EndpointId(1)), 0);
    }
}
