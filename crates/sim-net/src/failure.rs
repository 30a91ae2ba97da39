//! Crash-failure injection and detection.
//!
//! The paper assumes a crash failure model and "an external service provided
//! in the system" that gives every process a consistent view of failures.
//! [`FailureService`] plays both roles:
//!
//! * **Injection** — a [`CrashSchedule`] decides when a physical process must
//!   crash: at a given virtual time, after its k-th application send, or never.
//!   The endpoint checks the schedule at every fabric interaction; when the
//!   schedule fires, the endpoint raises a [`CrashSignal`] panic which the
//!   runtime catches and converts into a dead process (no further sends, but
//!   messages already handed to the fabric stay in flight — channels are
//!   reliable).
//! * **Detection** — once a crash is recorded, every other process observes it
//!   the next time it polls the service (which the `sim-mpi` progress engine
//!   does on every call). This models a perfect failure detector.
//!
//! # Concurrency protocol
//!
//! The service sits on two of the simulator's hottest paths: the crash check
//! runs at every send/compute boundary and the failure poll on every
//! progress call — tens of millions of times per benchmark row. Both are
//! therefore answered from atomics, with the inner `RwLock` consulted only by
//! the endpoints something actually happened to:
//!
//! * `may_crash[e]` is set (and never reset) when endpoint `e` is given a
//!   non-`Never` schedule or is recorded as failed; `should_crash(e, ..)`
//!   returns `false` without locking while it is clear. The gate is per
//!   endpoint, not per job: one armed replica of a 128-process fault job
//!   used to send every endpoint's check — about five per message — through
//!   two reader locks and a set lookup. A clear flag is exact, not a hint:
//!   an endpoint that never had a schedule and never failed has nothing the
//!   locked rule could fire on. The flags are sized at construction;
//!   endpoints beyond them (only ever created by hand, in tests) always take
//!   the locked path.
//! * `failed_seq` is a **monotonic sequence allocator**, written under the
//!   inner write lock and read lock-free: `failures_since(from)` returns
//!   empty without locking when `from >= failed_seq`. Recovery
//!   (`mark_recovered`) removes events but never lowers the counter, so the
//!   lock-free early-out can never hide a failure a poller has not yet
//!   observed, even across recoveries that reuse endpoint ids.
//!
//! All of them are SeqCst: a recorder publishes the event list (under the
//! lock) before bumping `failed_seq`, so any poller that sees the new
//! sequence value also sees the event behind it; `may_crash[e]` is raised
//! under the same write lock as the state it announces, so a check that
//! reads it clear is ordered before that `schedule`/`record_failure`.

use crate::fabric::EndpointId;
use crate::time::SimTime;
use parking_lot::RwLock;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Panic payload used to unwind a simulated process out of arbitrary user
/// code when its crash schedule fires. The runtime recognises this payload and
/// records a crash instead of a test failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashSignal {
    /// The physical process that crashed.
    pub endpoint: EndpointId,
    /// Virtual time of the crash.
    pub at: SimTime,
}

/// When a given physical process should crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashSchedule {
    /// Never crash (default).
    Never,
    /// Crash the first time the process's virtual clock reaches `at`.
    AtTime {
        /// Virtual time threshold.
        at: SimTime,
    },
    /// Crash immediately before performing the `nth` application send
    /// (1-based: `nth == 1` crashes before the first send).
    BeforeSend {
        /// 1-based application-send index.
        nth: u64,
    },
    /// Crash immediately after completing the `nth` application send.
    AfterSend {
        /// 1-based application-send index.
        nth: u64,
    },
}

impl Default for CrashSchedule {
    fn default() -> Self {
        CrashSchedule::Never
    }
}

/// A failure observed by the detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailureEvent {
    /// Which physical process failed.
    pub endpoint: EndpointId,
    /// Virtual time (on the failed process's clock) at which it failed.
    pub at: SimTime,
    /// Monotonic sequence number in global detection order.
    pub seq: u64,
}

#[derive(Debug, Default)]
struct Inner {
    schedules: Vec<CrashSchedule>,
    failed: Vec<FailureEvent>,
    failed_set: BTreeSet<usize>,
}

/// Shared failure-injection + perfect-failure-detection service.
///
/// The overwhelmingly common questions — "must I crash?" from an endpoint
/// nothing was ever scheduled for, "anything new?" from a poller that has
/// seen every failure — are answered from atomics (`may_crash`,
/// `failed_seq`): the crash check runs on every send/compute boundary and
/// the failure poll on every progress call, tens of millions of times per
/// benchmark row, so the lock-guarded state is only consulted by the
/// endpoints something actually happened to (module docs).
#[derive(Debug, Clone, Default)]
pub struct FailureService {
    inner: Arc<RwLock<Inner>>,
    /// Per endpoint: true once it was given a schedule other than `Never` or
    /// was recorded as failed. Never reset (a recovered endpoint just keeps
    /// taking the locked path); purely a fast-path gate for `should_crash`.
    may_crash: Arc<[AtomicBool]>,
    /// Monotonic next failure sequence number — one past the highest `seq`
    /// ever assigned. Written under the inner write lock, read lock-free by
    /// the per-progress poll. Never decremented: `mark_recovered` removes
    /// events from the list but does not reclaim their sequence numbers, so
    /// `from_seq >= failed_seq` always means "no event with `seq >= from_seq`
    /// exists" even across recoveries.
    failed_seq: Arc<AtomicU64>,
}

impl FailureService {
    /// A service for `n` physical processes, with no crashes scheduled.
    pub fn new(n: usize) -> Self {
        FailureService {
            inner: Arc::new(RwLock::new(Inner {
                schedules: vec![CrashSchedule::Never; n],
                failed: Vec::new(),
                failed_set: BTreeSet::new(),
            })),
            may_crash: (0..n).map(|_| AtomicBool::new(false)).collect(),
            failed_seq: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Schedule a crash for `endpoint`. Replaces any previous schedule.
    pub fn schedule(&self, endpoint: EndpointId, schedule: CrashSchedule) {
        let mut g = self.inner.write();
        if endpoint.0 >= g.schedules.len() {
            g.schedules.resize(endpoint.0 + 1, CrashSchedule::Never);
        }
        g.schedules[endpoint.0] = schedule;
        if !matches!(schedule, CrashSchedule::Never) {
            self.mark_may_crash(endpoint);
        }
    }

    /// Send `endpoint`'s crash checks to the locked path from now on. Called
    /// with the inner write lock held.
    fn mark_may_crash(&self, endpoint: EndpointId) {
        if let Some(flag) = self.may_crash.get(endpoint.0) {
            flag.store(true, Ordering::SeqCst);
        }
    }

    /// The schedule currently assigned to `endpoint`.
    pub fn schedule_of(&self, endpoint: EndpointId) -> CrashSchedule {
        self.inner
            .read()
            .schedules
            .get(endpoint.0)
            .copied()
            .unwrap_or(CrashSchedule::Never)
    }

    /// Should `endpoint` crash *now*, given its clock and the number of
    /// application sends it has performed so far (`app_sends`), and whether the
    /// check happens just before (`pre_send = true`) or after a send?
    pub fn should_crash(
        &self,
        endpoint: EndpointId,
        now: SimTime,
        app_sends: u64,
        pre_send: bool,
    ) -> bool {
        // Fast path: never scheduled, never failed — no lock.
        if self
            .may_crash
            .get(endpoint.0)
            .is_some_and(|flag| !flag.load(Ordering::SeqCst))
        {
            return false;
        }
        if self.is_failed(endpoint) {
            return true;
        }
        match self.schedule_of(endpoint) {
            CrashSchedule::Never => false,
            CrashSchedule::AtTime { at } => now >= at,
            CrashSchedule::BeforeSend { nth } => pre_send && app_sends + 1 >= nth,
            CrashSchedule::AfterSend { nth } => !pre_send && app_sends >= nth,
        }
    }

    /// Record that `endpoint` has crashed at virtual time `at`. Idempotent.
    /// Returns the recorded event (existing one if already failed).
    pub fn record_failure(&self, endpoint: EndpointId, at: SimTime) -> FailureEvent {
        let mut g = self.inner.write();
        if g.failed_set.contains(&endpoint.0) {
            return *g
                .failed
                .iter()
                .find(|e| e.endpoint == endpoint)
                .expect("failed_set and failed list out of sync");
        }
        // Sequence numbers come from the monotonic counter, NOT from
        // `failed.len()`: recovery shrinks the list, and reusing a length-
        // derived seq would hand a new failure a number that pollers have
        // already consumed, making them skip the event forever.
        let seq = self.failed_seq.load(Ordering::SeqCst);
        let ev = FailureEvent { endpoint, at, seq };
        g.failed.push(ev);
        g.failed_set.insert(endpoint.0);
        self.mark_may_crash(endpoint);
        self.failed_seq.store(seq + 1, Ordering::SeqCst);
        ev
    }

    /// Has `endpoint` been recorded as failed?
    pub fn is_failed(&self, endpoint: EndpointId) -> bool {
        if self.failed_seq.load(Ordering::SeqCst) == 0 {
            return false;
        }
        self.inner.read().failed_set.contains(&endpoint.0)
    }

    /// Remove `endpoint` from the failed set (used by recovery when a new
    /// process is forked to replace a failed replica and takes over its id).
    pub fn mark_recovered(&self, endpoint: EndpointId) {
        let mut g = self.inner.write();
        g.failed_set.remove(&endpoint.0);
        g.failed.retain(|e| e.endpoint != endpoint);
        // `failed_seq` is deliberately left alone: it is a monotonic
        // sequence allocator, not a list length. Lowering it here would make
        // the lock-free fast path in `failures_since` hide still-unobserved
        // failures whose seq is at or above the lowered value.
        if endpoint.0 < g.schedules.len() {
            g.schedules[endpoint.0] = CrashSchedule::Never;
        }
    }

    /// All failures detected so far, in detection order. A process polls this
    /// from its progress loop and reacts to events with `seq` it has not seen
    /// yet (perfect failure detector: every alive process eventually sees every
    /// failure, in the same order).
    pub fn failures(&self) -> Vec<FailureEvent> {
        self.inner.read().failed.clone()
    }

    /// Failures with sequence number `>= from_seq` (what a process has not yet
    /// observed). The caller-has-seen-everything case is answered from an
    /// atomic without taking the lock — this runs on every progress poll.
    pub fn failures_since(&self, from_seq: u64) -> Vec<FailureEvent> {
        if from_seq >= self.failed_seq.load(Ordering::SeqCst) {
            return Vec::new();
        }
        self.inner
            .read()
            .failed
            .iter()
            .filter(|e| e.seq >= from_seq)
            .copied()
            .collect()
    }

    /// Number of processes known to this service.
    pub fn capacity(&self) -> usize {
        self.inner.read().schedules.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ep(i: usize) -> EndpointId {
        EndpointId(i)
    }

    #[test]
    fn default_schedule_never_crashes() {
        let svc = FailureService::new(4);
        assert!(!svc.should_crash(ep(0), SimTime::from_secs(1000), 1_000_000, true));
        assert!(!svc.should_crash(ep(3), SimTime::MAX, u64::MAX, false));
    }

    #[test]
    fn at_time_schedule_fires_at_threshold() {
        let svc = FailureService::new(2);
        svc.schedule(
            ep(1),
            CrashSchedule::AtTime {
                at: SimTime::from_micros(10),
            },
        );
        assert!(!svc.should_crash(ep(1), SimTime::from_micros(9), 0, false));
        assert!(svc.should_crash(ep(1), SimTime::from_micros(10), 0, false));
        assert!(!svc.should_crash(ep(0), SimTime::from_micros(10), 0, false));
    }

    #[test]
    fn before_send_schedule() {
        let svc = FailureService::new(1);
        svc.schedule(ep(0), CrashSchedule::BeforeSend { nth: 3 });
        // Before sends 1 and 2: no crash.
        assert!(!svc.should_crash(ep(0), SimTime::ZERO, 0, true));
        assert!(!svc.should_crash(ep(0), SimTime::ZERO, 1, true));
        // Before send 3 (2 sends already done): crash.
        assert!(svc.should_crash(ep(0), SimTime::ZERO, 2, true));
        // Never fires on the post-send check.
        assert!(!svc.should_crash(ep(0), SimTime::ZERO, 2, false));
    }

    #[test]
    fn after_send_schedule() {
        let svc = FailureService::new(1);
        svc.schedule(ep(0), CrashSchedule::AfterSend { nth: 2 });
        assert!(!svc.should_crash(ep(0), SimTime::ZERO, 1, false));
        assert!(svc.should_crash(ep(0), SimTime::ZERO, 2, false));
        assert!(!svc.should_crash(ep(0), SimTime::ZERO, 2, true));
    }

    #[test]
    fn record_failure_is_idempotent_and_ordered() {
        let svc = FailureService::new(4);
        let a = svc.record_failure(ep(2), SimTime::from_nanos(5));
        let b = svc.record_failure(ep(1), SimTime::from_nanos(7));
        let again = svc.record_failure(ep(2), SimTime::from_nanos(99));
        assert_eq!(a.seq, 0);
        assert_eq!(b.seq, 1);
        assert_eq!(again, a, "second report of the same failure is ignored");
        assert!(svc.is_failed(ep(2)));
        assert!(!svc.is_failed(ep(0)));
        let all = svc.failures();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].endpoint, ep(2));
        assert_eq!(all[1].endpoint, ep(1));
    }

    #[test]
    fn failures_since_filters_by_seq() {
        let svc = FailureService::new(4);
        svc.record_failure(ep(0), SimTime::ZERO);
        svc.record_failure(ep(1), SimTime::ZERO);
        svc.record_failure(ep(2), SimTime::ZERO);
        assert_eq!(svc.failures_since(0).len(), 3);
        assert_eq!(svc.failures_since(2).len(), 1);
        assert_eq!(svc.failures_since(3).len(), 0);
    }

    #[test]
    fn failed_process_reported_as_should_crash() {
        let svc = FailureService::new(2);
        svc.record_failure(ep(0), SimTime::ZERO);
        // Even with no schedule, a process recorded as failed keeps crashing
        // (this matters for recovery tests that reuse endpoint ids).
        assert!(svc.should_crash(ep(0), SimTime::ZERO, 0, false));
    }

    #[test]
    fn mark_recovered_clears_state() {
        let svc = FailureService::new(2);
        svc.schedule(ep(0), CrashSchedule::AtTime { at: SimTime::ZERO });
        svc.record_failure(ep(0), SimTime::ZERO);
        svc.mark_recovered(ep(0));
        assert!(!svc.is_failed(ep(0)));
        assert!(svc.failures().is_empty());
        assert!(!svc.should_crash(ep(0), SimTime::from_secs(1), 0, false));
    }

    #[test]
    fn recovery_does_not_hide_later_failures() {
        // Regression: A fails (seq 0), a poller advances to from_seq = 1,
        // B fails (seq 1), then A recovers. The lock-free fast path in
        // `failures_since` must not early-return empty — B is still
        // unobserved.
        let svc = FailureService::new(4);
        svc.record_failure(ep(0), SimTime::ZERO);
        let b = svc.record_failure(ep(1), SimTime::from_nanos(3));
        svc.mark_recovered(ep(0));
        assert_eq!(svc.failures_since(1), vec![b]);
        assert_eq!(svc.failures_since(2), vec![]);
    }

    #[test]
    fn seq_is_never_reused_after_recovery() {
        // Regression: seqs must come from a monotonic counter, not the list
        // length, or a post-recovery failure reuses a seq that pollers have
        // already consumed and is silently skipped.
        let svc = FailureService::new(4);
        svc.record_failure(ep(0), SimTime::ZERO); // seq 0
        svc.record_failure(ep(1), SimTime::ZERO); // seq 1
        svc.mark_recovered(ep(0));
        let c = svc.record_failure(ep(2), SimTime::ZERO);
        assert_eq!(c.seq, 2, "recovered seqs must not be reallocated");
        // A poller that had observed seqs 0 and 1 still sees C.
        assert_eq!(svc.failures_since(2), vec![c]);
    }

    #[test]
    fn schedule_beyond_capacity_grows() {
        let svc = FailureService::new(1);
        svc.schedule(ep(5), CrashSchedule::AtTime { at: SimTime::ZERO });
        assert_eq!(svc.capacity(), 6);
        assert!(svc.should_crash(ep(5), SimTime::ZERO, 0, false));
    }
}
