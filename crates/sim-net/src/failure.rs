//! Crash-failure injection.
//!
//! The paper assumes a crash failure model in which "the underlying system
//! notifies every process" of a failure. Each [`Endpoint`](crate::Endpoint)
//! owns the [`CrashSchedule`] of its physical process: at a given virtual
//! time, before or after its k-th application send, or never. The endpoint
//! checks it at every fabric interaction; when it fires,
//! [`Fabric::fail`](crate::Fabric::fail) sends every other endpoint a
//! `class::SYSTEM` message naming the failed process — the notification —
//! and the endpoint unwinds with a [`CrashSignal`] panic, which the runtime
//! catches and converts into a dead process (no further sends, but messages
//! already handed to the fabric stay in flight — channels are reliable).
//!
//! A failed endpoint stays failed: once a check of one kind fires, it fires
//! at every later clock and send count ([`CrashSchedule::fires`]).

use crate::fabric::EndpointId;
use crate::time::SimTime;

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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CrashSchedule {
    /// Never crash (default).
    #[default]
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

impl CrashSchedule {
    /// Must the process crash *now*, given its clock, the number of
    /// application sends it has performed so far (`app_sends`), and whether
    /// the check happens just before (`pre_send = true`) or after a send?
    pub fn fires(&self, now: SimTime, app_sends: u64, pre_send: bool) -> bool {
        match *self {
            CrashSchedule::Never => false,
            CrashSchedule::AtTime { at } => now >= at,
            CrashSchedule::BeforeSend { nth } => pre_send && app_sends + 1 >= nth,
            CrashSchedule::AfterSend { nth } => !pre_send && app_sends >= nth,
        }
    }
}

/// A crash, as the failed process's peers learn of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailureEvent {
    /// Which physical process failed.
    pub endpoint: EndpointId,
    /// Virtual time (on the failed process's clock) at which it failed.
    pub at: SimTime,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_schedule_never_fires() {
        let never = CrashSchedule::default();
        assert!(!never.fires(SimTime::from_micros(1_000_000_000), 1_000_000, true));
        assert!(!never.fires(SimTime::MAX, u64::MAX, false));
    }

    #[test]
    fn at_time_schedule_fires_at_threshold() {
        let s = CrashSchedule::AtTime {
            at: SimTime::from_micros(10),
        };
        assert!(!s.fires(SimTime::from_micros(9), 0, false));
        assert!(s.fires(SimTime::from_micros(10), 0, false));
        assert!(s.fires(SimTime::from_micros(10), 0, true));
    }

    #[test]
    fn before_send_schedule() {
        let s = CrashSchedule::BeforeSend { nth: 3 };
        // Before sends 1 and 2: no crash.
        assert!(!s.fires(SimTime::ZERO, 0, true));
        assert!(!s.fires(SimTime::ZERO, 1, true));
        // Before send 3 (2 sends already done): crash.
        assert!(s.fires(SimTime::ZERO, 2, true));
        // Never fires on the post-send check.
        assert!(!s.fires(SimTime::ZERO, 2, false));
    }

    #[test]
    fn after_send_schedule() {
        let s = CrashSchedule::AfterSend { nth: 2 };
        assert!(!s.fires(SimTime::ZERO, 1, false));
        assert!(s.fires(SimTime::ZERO, 2, false));
        assert!(!s.fires(SimTime::ZERO, 2, true));
    }
}
