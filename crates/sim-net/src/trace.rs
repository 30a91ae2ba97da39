//! Lightweight event tracing.
//!
//! The send-determinism test (`tests/send_determinism.rs`) and several
//! integration tests need to compare the *sequence of send events* of a
//! process across executions — the operational form of the paper's
//! Definition 1. [`EventTrace`] records those events, in order, with a
//! stable digest of the payload so traces can be compared cheaply.

use crate::fabric::EndpointId;
use crate::time::SimTime;
use std::sync::{Arc, Mutex, PoisonError};

/// Kinds of traced events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// An application-level send was issued.
    Send,
    /// An application-level receive completed.
    RecvComplete,
    /// A crash was observed locally.
    Crash,
}

/// One traced event.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TraceEvent {
    /// The process on which the event occurred.
    pub process: EndpointId,
    /// Event kind.
    pub kind: EventKind,
    /// The communication peer (destination for sends, source for receives);
    /// `None` for local events such as crashes.
    pub peer: Option<usize>,
    /// Application-level tag of the message, if any.
    pub tag: Option<i64>,
    /// FNV-1a digest of the payload (0 for empty payloads).
    pub payload_digest: u64,
    /// Payload length in bytes.
    pub payload_len: usize,
    /// Virtual time of the event. Excluded from determinism comparisons
    /// (timing is allowed to differ between executions).
    pub at: SimTime,
}

/// FNV-1a digest of a byte slice. Stable across platforms and executions.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

/// A shared, append-only event trace (one per simulated job).
#[derive(Debug, Clone, Default)]
pub struct EventTrace {
    events: Arc<Mutex<Vec<TraceEvent>>>,
    enabled: bool,
}

impl EventTrace {
    /// An enabled trace.
    pub fn enabled() -> Self {
        EventTrace {
            events: Arc::new(Mutex::new(Vec::new())),
            enabled: true,
        }
    }

    /// A disabled trace: `record` becomes a no-op. This is the default so
    /// that benchmark runs pay nothing for tracing.
    pub fn disabled() -> Self {
        EventTrace {
            events: Arc::new(Mutex::new(Vec::new())),
            enabled: false,
        }
    }

    /// Is recording enabled?
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Append an event (no-op when disabled).
    pub fn record(&self, ev: TraceEvent) {
        if self.enabled {
            self.events
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(ev);
        }
    }

    /// All recorded events, in recording order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(proc_: usize, kind: EventKind, peer: usize, tag: i64, payload: &[u8]) -> TraceEvent {
        TraceEvent {
            process: EndpointId(proc_),
            kind,
            peer: Some(peer),
            tag: Some(tag),
            payload_digest: digest(payload),
            payload_len: payload.len(),
            at: SimTime::ZERO,
        }
    }

    #[test]
    fn digest_is_stable_and_discriminating() {
        assert_eq!(digest(b"hello"), digest(b"hello"));
        assert_ne!(digest(b"hello"), digest(b"hellp"));
        assert_eq!(digest(b""), 0xcbf29ce484222325);
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let t = EventTrace::disabled();
        t.record(ev(0, EventKind::Send, 1, 0, b"x"));
        assert!(t.events().is_empty());
        assert!(!t.is_enabled());
    }

    #[test]
    fn enabled_trace_records_in_order() {
        let t = EventTrace::enabled();
        t.record(ev(0, EventKind::Send, 1, 0, b"a"));
        t.record(ev(1, EventKind::RecvComplete, 0, 0, b"a"));
        t.record(ev(0, EventKind::Send, 1, 1, b"b"));
        let kinds: Vec<_> = t.events().iter().map(|e| (e.process.0, e.kind)).collect();
        assert_eq!(
            kinds,
            [
                (0, EventKind::Send),
                (1, EventKind::RecvComplete),
                (0, EventKind::Send)
            ]
        );
    }

    #[test]
    fn trace_is_shared_between_clones() {
        let t = EventTrace::enabled();
        let t2 = t.clone();
        t.record(ev(0, EventKind::Send, 1, 0, b"x"));
        assert_eq!(t2.events().len(), 1);
    }
}
