//! Shared fixtures for the integration tests: the fast network model, the
//! Figure 3 communication pattern, the survivor assertions of the fault
//! scenarios, the PML/protocol pump of the hand-driven failure test, and the
//! wall-clock deadline that turns a hung job into a failed test.
#![allow(dead_code)]

use sim_mpi::pml::Pml;
use sim_mpi::{Driver, JobReport, Process, Rank};
use sim_net::{EndpointId, LogGpModel};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

/// How long a deadline-guarded test body may run.
pub const TEST_DEADLINE: Duration = Duration::from_secs(120);

/// What a deadline-guarded test body is running right now (a job-spec line),
/// so a hang can name its offender.
#[derive(Clone, Default)]
pub struct Running(Arc<Mutex<String>>);

impl Running {
    /// Record the spec line about to run.
    pub fn note(&self, spec_line: String) {
        *self.0.lock().unwrap() = spec_line;
    }
}

/// Run `body` on its own thread and wait at most [`TEST_DEADLINE`] for it. A
/// simulated job that livelocks (a carrier spinning without ever parking is
/// invisible to the scheduler's quiescence check) would otherwise hang the
/// whole test binary forever; here it fails the test, naming it and the last
/// spec line the body [`Running::note`]d. A panic inside `body` is re-raised
/// unchanged, so assertion messages read as if the body had run inline. The
/// hung thread is abandoned — the process exits once the harness is done.
pub fn with_deadline<T: Send + 'static>(
    test: &str,
    body: impl FnOnce(&Running) -> T + Send + 'static,
) -> T {
    let running = Running::default();
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::Builder::new().name(test.to_string()).spawn({
        let running = running.clone();
        move || drop(tx.send(body(&running)))
    });
    let worker = worker.expect("spawn the test body");
    match rx.recv_timeout(TEST_DEADLINE) {
        Ok(value) => value,
        Err(mpsc::RecvTimeoutError::Disconnected) => match worker.join() {
            Err(panic) => std::panic::resume_unwind(panic),
            Ok(()) => unreachable!("the body returned without sending its result"),
        },
        Err(mpsc::RecvTimeoutError::Timeout) => panic!(
            "{test}: no result within {TEST_DEADLINE:?} — the job hung. Last spec started:\n{}",
            running.0.lock().unwrap()
        ),
    }
}

/// The fast test network (low latency/gap so runs finish quickly).
pub fn fast() -> LogGpModel {
    LogGpModel::fast_test_model()
}

/// Figure 3's communication pattern: rank 1 sends to rank 0, then rank 0
/// sends to rank 1, repeated. Returns `(messages received, payload sum)`.
pub fn figure3_pattern(p: &mut Process, rounds: u64) -> (u64, u64) {
    let world = p.world();
    let mut received = 0u64;
    let mut sum = 0u64;
    for round in 0..rounds {
        if p.rank() == 1 {
            p.send_u64s(world, 0, 1, &[round * 2]);
            let (_, v) = p.recv_u64s(world, 0, 2);
            sum += v[0];
            received += 1;
        } else {
            let (_, v) = p.recv_u64s(world, 1, 1);
            sum += v[0];
            received += 1;
            p.send_u64s(world, 1, 2, &[round * 2 + 1]);
        }
    }
    (received, sum)
}

/// The per-rank expected `(received, sum)` of [`figure3_pattern`]:
/// `figure3_expected(rounds).0` for rank 0, `.1` for rank 1.
pub fn figure3_expected(rounds: u64) -> ((u64, u64), (u64, u64)) {
    let rank0_sum: u64 = (0..rounds).map(|r| r * 2).sum();
    let rank1_sum: u64 = (0..rounds).map(|r| r * 2 + 1).sum();
    ((rounds, rank0_sum), (rounds, rank1_sum))
}

/// Assert every process that did not crash finished normally; returns the
/// survivors' `(app_rank, endpoint, result)` triples.
pub fn survivor_results<R: Clone + std::fmt::Debug>(
    report: &JobReport<R>,
) -> Vec<(Rank, EndpointId, R)> {
    let crashed = report.crashed();
    report
        .processes
        .iter()
        .filter(|p| !crashed.contains(&p.endpoint))
        .map(|p| {
            let r = p.outcome.result().cloned().unwrap_or_else(|| {
                panic!("survivor {:?} did not finish: {:?}", p.endpoint, p.outcome)
            });
            (p.app_rank, p.endpoint, r)
        })
        .collect()
}

/// Drive one PML and its protocol's driver until the PML reports no further
/// events — the single-threaded progress loop of the scripted protocol tests.
pub fn pump(pml: &mut Pml, driver: &mut Driver) {
    loop {
        let events = pml.progress();
        if events.is_empty() {
            return;
        }
        driver.handle(pml, events);
    }
}
