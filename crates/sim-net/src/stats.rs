//! Network statistics.
//!
//! Counters are split by *traffic class* so that protocol-level message
//! complexity can be measured directly: the SDR-MPI paper argues that a
//! parallel protocol sends `O(q·r)` application messages plus acks whereas a
//! mirror protocol sends `O(q·r²)` application messages. The `bench` crate's
//! ablation harness reads these counters to reproduce that comparison.

use crate::sched::WakeOutcome;
use std::sync::atomic::{AtomicU64, Ordering};

/// Traffic classes used by the upper layers. The fabric itself treats the
/// class as an opaque label; it only uses it to bucket counters.
pub mod class {
    /// Ordinary application payload (point-to-point or collective fragment).
    pub const APP: u8 = 0;
    /// Replication-protocol acknowledgement.
    pub const ACK: u8 = 1;
    /// Replication-protocol control traffic (leader decisions, recovery
    /// notifications, substitution announcements).
    pub const CONTROL: u8 = 2;
    /// Payload-hash messages (redMPI-style SDC detection).
    pub const HASH: u8 = 3;
    /// System-level traffic generated by the simulated platform itself
    /// (failure-detector wake-ups), not by any protocol.
    pub const SYSTEM: u8 = 4;
    /// Number of classes tracked.
    pub const COUNT: usize = 5;
}

/// The scalar counter table: one line per counter declares its doc comment,
/// its name and how windows combine it in [`StatsSnapshot::merged`] (`sum`
/// for event counters, `max` for gauges). The macro derives everything that
/// used to be spelled out per counter — the [`NetStats`] atomic, the
/// [`StatsSnapshot`] field and getter, [`NetStats::snapshot`],
/// [`StatsSnapshot::since`]/[`StatsSnapshot::merged`] and the name-indexed
/// [`StatsSnapshot::counters`] view the report emitters iterate.
macro_rules! counter_table {
    (@gauge sum) => {
        false
    };
    (@gauge max) => {
        true
    };
    ($($(#[$doc:meta])* $name:ident: $merge:ident,)*) => {
        /// Lock-free counters shared by all endpoints of a fabric.
        #[derive(Debug, Default)]
        pub struct NetStats {
            msgs: [AtomicU64; class::COUNT],
            bytes: [AtomicU64; class::COUNT],
            delivered: [AtomicU64; class::COUNT],
            $($name: AtomicU64,)*
        }

        /// Point-in-time copy of the fabric counters.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct StatsSnapshot {
            /// Messages injected, per class.
            pub msgs_sent: [u64; class::COUNT],
            /// Payload bytes injected, per class.
            pub bytes_sent: [u64; class::COUNT],
            /// Messages drained by receivers, per class.
            pub msgs_delivered: [u64; class::COUNT],
            $($(#[$doc])* pub $name: u64,)*
        }

        impl NetStats {
            /// Consistent snapshot of all counters.
            pub fn snapshot(&self) -> StatsSnapshot {
                let read = |a: &[AtomicU64; class::COUNT]| {
                    std::array::from_fn(|i| a[i].load(Ordering::Relaxed))
                };
                StatsSnapshot {
                    msgs_sent: read(&self.msgs),
                    bytes_sent: read(&self.bytes),
                    msgs_delivered: read(&self.delivered),
                    $($name: self.$name.load(Ordering::Relaxed),)*
                }
            }
        }

        impl StatsSnapshot {
            $($(#[$doc])* pub fn $name(&self) -> u64 { self.$name })*

            /// Every scalar counter as `(name, value)`, in table order — the
            /// name-indexed view report emitters select their columns from.
            pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$((stringify!($name), self.$name),)*].into_iter()
            }

            /// Combine two windows element by element: `counter` on the
            /// per-class arrays and the event counters, `gauge` on the
            /// table's `max` entries.
            fn zip(
                &self,
                other: &StatsSnapshot,
                counter: fn(u64, u64) -> u64,
                gauge: fn(u64, u64) -> u64,
            ) -> StatsSnapshot {
                let arr = |a: &[u64; class::COUNT], b: &[u64; class::COUNT]| {
                    std::array::from_fn(|i| counter(a[i], b[i]))
                };
                StatsSnapshot {
                    msgs_sent: arr(&self.msgs_sent, &other.msgs_sent),
                    bytes_sent: arr(&self.bytes_sent, &other.bytes_sent),
                    msgs_delivered: arr(&self.msgs_delivered, &other.msgs_delivered),
                    $($name: if counter_table!(@gauge $merge) { gauge } else { counter }(
                        self.$name,
                        other.$name,
                    ),)*
                }
            }
        }
    };
}

counter_table! {
    /// Scheduler wakes that unparked the target (moved it to the ready
    /// heap).
    wakes_issued: sum,
    /// Wakes served by the lock-free fast path (target running/ready or wake
    /// already pending) or ignored (unmanaged/finished target) — deliveries
    /// that did *not* touch the ready heap.
    wakes_suppressed: sum,
    // Shims for the frozen benchmark surface (`benchmark/src/workload.rs`
    // reads these getters): never recorded, always 0. The first two counted
    // a staging outbox, the other three the dispatch and delivery splits of
    // structures now replaced by one heap each. Awaiting a benchmark-only
    // change that drops the reads; delete them then.
    #[doc(hidden)]
    flushes: sum,
    #[doc(hidden)]
    flushed_msgs: sum,
    #[doc(hidden)]
    steals: sum,
    #[doc(hidden)]
    deliveries_direct: sum,
    #[doc(hidden)]
    heap_fallbacks: sum,
    /// Dispatches where a departing carrier handed its run permit directly to
    /// the best ready process.
    handoffs: sum,
    /// Dispatches that went through the cold path — an idle permit was
    /// acquired and the target woken through the permit counter, the
    /// moral equivalent of the old global-run-queue condvar handshake.
    condvar_waits: sum,
    /// Soft-error payload bit flips injected below the protocol layer (the
    /// fault-campaign engine's SDC fault class).
    sdc_flips_injected: sum,
    /// Messages dropped by the installed [`crate::netfault::NetFaultPolicy`].
    msgs_dropped: sum,
    /// Duplicate copies injected by the fault policy (one count per extra
    /// copy, not per original message).
    msgs_duplicated: sum,
    /// Messages whose arrival the fault policy pushed to a later virtual
    /// time.
    msgs_delayed: sum,
    /// Protocol-level retransmissions of unacked send-log entries (the
    /// masking half of the lossy-transport fault model).
    retransmits: sum,
    /// Retransmission timeouts that waited in *real* time (an OS yield, and
    /// a short sleep once attempts pile up) because another run permit was in
    /// circulation or the endpoint was unmanaged — counted at the one wait
    /// site, `sdr_core::protocol`. Zero in every `workers: 1` job.
    retx_real_waits: sum,
    /// Policy-injected duplicate copies suppressed by the receiver-side
    /// transport dedup before they could reach the protocol layer. The
    /// fault-campaign gate demands this equals `msgs_duplicated`.
    dups_suppressed: sum,
    /// User-space context switches performed by the coroutine carrier
    /// runtime.
    stack_switches: sum,
    /// Coroutine stacks freshly mapped for this job's processes.
    stacks_allocated: sum,
    /// Coroutine stack leases served by recycling a pooled stack.
    stacks_reused: sum,
    /// High-water mark of the coroutine-stack bytes *this job* had leased at
    /// once. Deliberately not the global pool's resident footprint: in
    /// service mode many jobs share the pool, and a neighbour's allocations
    /// must not inflate this job's reported peak (see
    /// `crate::carrier::coro::CoroRuntime`). A gauge, not a counter:
    /// [`StatsSnapshot::merged`] takes the maximum, and
    /// [`StatsSnapshot::since`] deltas are only meaningful against an empty
    /// baseline snapshot.
    stack_bytes_peak: max,
}

impl NetStats {
    /// New zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one injected message of `len` payload bytes in `cls`.
    pub fn record_send(&self, cls: u8, len: usize) {
        let c = (cls as usize).min(class::COUNT - 1);
        self.msgs[c].fetch_add(1, Ordering::Relaxed);
        self.bytes[c].fetch_add(len as u64, Ordering::Relaxed);
    }

    /// Record one delivered (drained by the receiver) message in `cls`.
    pub fn record_delivery(&self, cls: u8) {
        let c = (cls as usize).min(class::COUNT - 1);
        self.delivered[c].fetch_add(1, Ordering::Relaxed);
    }

    /// Record how a delivery's scheduler wake was served (one call per
    /// delivery).
    pub fn record_wake(&self, outcome: WakeOutcome) {
        match outcome {
            WakeOutcome::Unparked => self.wakes_issued.fetch_add(1, Ordering::Relaxed),
            WakeOutcome::Coalesced | WakeOutcome::Ignored => {
                self.wakes_suppressed.fetch_add(1, Ordering::Relaxed)
            }
        };
    }

    /// Record a direct permit handoff (a departing carrier dispatched a ready
    /// process).
    pub fn record_handoff(&self) {
        self.handoffs.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a cold-path dispatch (idle-permit grant).
    pub fn record_cold_dispatch(&self) {
        self.condvar_waits.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one injected soft-error payload bit flip.
    pub fn record_sdc_flip(&self) {
        self.sdc_flips_injected.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one message dropped by the network fault policy.
    pub fn record_msg_dropped(&self) {
        self.msgs_dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one duplicate copy injected by the network fault policy.
    pub fn record_msg_duplicated(&self) {
        self.msgs_duplicated.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one message delayed by the network fault policy.
    pub fn record_msg_delayed(&self) {
        self.msgs_delayed.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one protocol-level retransmission of an unacked send-log entry.
    pub fn record_retransmit(&self) {
        self.retransmits.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one retransmission timeout that waited in real time.
    pub fn record_retx_real_wait(&self) {
        self.retx_real_waits.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one policy-injected duplicate suppressed by the receiver-side
    /// transport dedup.
    pub fn record_dup_suppressed(&self) {
        self.dups_suppressed.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one user-space coroutine context switch.
    pub fn record_stack_switch(&self) {
        self.stack_switches.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a coroutine stack lease (`fresh` = newly mapped rather than
    /// recycled) and fold the *job's* current leased bytes into the peak
    /// gauge. The caller passes its own outstanding-lease total, not the
    /// global pool's resident bytes: stats objects are per-job, and in
    /// service mode a concurrently running neighbour's stacks must not
    /// show up in this job's peak.
    pub fn record_stack_lease(&self, fresh: bool, leased_bytes_now: u64) {
        if fresh {
            self.stacks_allocated.fetch_add(1, Ordering::Relaxed);
        } else {
            self.stacks_reused.fetch_add(1, Ordering::Relaxed);
        }
        self.stack_bytes_peak
            .fetch_max(leased_bytes_now, Ordering::Relaxed);
    }
}

impl StatsSnapshot {
    /// Application messages injected.
    pub fn app_msgs(&self) -> u64 {
        self.msgs_sent[class::APP as usize]
    }

    /// Acknowledgement messages injected.
    pub fn ack_msgs(&self) -> u64 {
        self.msgs_sent[class::ACK as usize]
    }

    /// Control messages injected.
    pub fn control_msgs(&self) -> u64 {
        self.msgs_sent[class::CONTROL as usize]
    }

    /// Hash messages injected.
    pub fn hash_msgs(&self) -> u64 {
        self.msgs_sent[class::HASH as usize]
    }

    /// All messages injected, any class.
    pub fn total_msgs(&self) -> u64 {
        self.msgs_sent.iter().sum()
    }

    /// All payload bytes injected, any class.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_sent.iter().sum()
    }

    /// Fraction of dispatches served by direct handoff rather than the cold
    /// permit-counter path (1.0 when nothing was dispatched).
    pub fn direct_dispatch_fraction(&self) -> f64 {
        let total = self.handoffs + self.condvar_waits;
        if total == 0 {
            1.0
        } else {
            self.handoffs as f64 / total as f64
        }
    }

    /// Difference `self - earlier`, per counter (saturating).
    pub fn since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        self.zip(earlier, u64::saturating_sub, u64::saturating_sub)
    }

    /// Union of two windows (e.g. the rows of one report): event counters
    /// add, gauges take the maximum.
    pub fn merged(&self, other: &StatsSnapshot) -> StatsSnapshot {
        self.zip(other, |a, b| a + b, u64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_class() {
        let s = NetStats::new();
        s.record_send(class::APP, 100);
        s.record_send(class::APP, 50);
        s.record_send(class::ACK, 0);
        s.record_delivery(class::APP);
        let snap = s.snapshot();
        assert_eq!(snap.app_msgs(), 2);
        assert_eq!(snap.ack_msgs(), 1);
        assert_eq!(snap.bytes_sent[class::APP as usize], 150);
        assert_eq!(snap.msgs_delivered[class::APP as usize], 1);
        assert_eq!(snap.total_msgs(), 3);
        assert_eq!(snap.total_bytes(), 150);
    }

    #[test]
    fn unknown_class_clamped_to_last_bucket() {
        let s = NetStats::new();
        s.record_send(200, 10);
        let snap = s.snapshot();
        assert_eq!(snap.msgs_sent[class::COUNT - 1], 1);
    }

    #[test]
    fn since_subtracts() {
        let s = NetStats::new();
        s.record_send(class::APP, 10);
        let before = s.snapshot();
        s.record_send(class::APP, 10);
        s.record_send(class::CONTROL, 4);
        let delta = s.snapshot().since(&before);
        assert_eq!(delta.app_msgs(), 1);
        assert_eq!(delta.control_msgs(), 1);
        assert_eq!(delta.total_bytes(), 14);
    }

    #[test]
    fn wake_counters_roundtrip() {
        let s = NetStats::new();
        s.record_wake(WakeOutcome::Unparked);
        s.record_wake(WakeOutcome::Coalesced);
        s.record_wake(WakeOutcome::Coalesced);
        s.record_wake(WakeOutcome::Ignored);
        let before = s.snapshot();
        assert_eq!(before.wakes_issued(), 1);
        assert_eq!(before.wakes_suppressed(), 3);
        s.record_wake(WakeOutcome::Unparked);
        let delta = s.snapshot().since(&before);
        assert_eq!(delta.wakes_issued(), 1);
        assert_eq!(delta.wakes_suppressed(), 0);
    }

    #[test]
    fn dispatch_counters_roundtrip_and_fraction() {
        let s = NetStats::new();
        s.record_handoff();
        s.record_handoff();
        s.record_handoff();
        s.record_cold_dispatch();
        let snap = s.snapshot();
        assert_eq!(snap.handoffs(), 3);
        assert_eq!(snap.condvar_waits(), 1);
        assert!((snap.direct_dispatch_fraction() - 0.75).abs() < f64::EPSILON);
        s.record_cold_dispatch();
        let delta = s.snapshot().since(&snap);
        assert_eq!(delta.handoffs(), 0);
        assert_eq!(delta.condvar_waits(), 1);
        // An idle snapshot reports a full direct fraction, not a NaN.
        assert!((StatsSnapshot::default().direct_dispatch_fraction() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn sdc_flip_counter_roundtrips() {
        let s = NetStats::new();
        s.record_sdc_flip();
        s.record_sdc_flip();
        let snap = s.snapshot();
        assert_eq!(snap.sdc_flips_injected(), 2);
        s.record_sdc_flip();
        let delta = s.snapshot().since(&snap);
        assert_eq!(delta.sdc_flips_injected(), 1);
    }

    #[test]
    fn netfault_counters_roundtrip() {
        let s = NetStats::new();
        s.record_msg_dropped();
        s.record_msg_duplicated();
        s.record_msg_duplicated();
        s.record_msg_delayed();
        s.record_retransmit();
        s.record_dup_suppressed();
        s.record_dup_suppressed();
        let snap = s.snapshot();
        assert_eq!(snap.msgs_dropped(), 1);
        assert_eq!(snap.msgs_duplicated(), 2);
        assert_eq!(snap.msgs_delayed(), 1);
        assert_eq!(snap.retransmits(), 1);
        assert_eq!(snap.dups_suppressed(), 2);
        s.record_retransmit();
        s.record_msg_dropped();
        let delta = s.snapshot().since(&snap);
        assert_eq!(delta.retransmits(), 1);
        assert_eq!(delta.msgs_dropped(), 1);
        assert_eq!(delta.msgs_duplicated(), 0);
    }

    #[test]
    fn stack_counters_roundtrip_and_peak_is_a_max() {
        let s = NetStats::new();
        s.record_stack_switch();
        s.record_stack_switch();
        s.record_stack_lease(true, 1 << 20);
        s.record_stack_lease(false, 1 << 20);
        s.record_stack_lease(true, 3 << 20);
        // A lower observation must not shrink the peak gauge.
        s.record_stack_lease(false, 1 << 20);
        let snap = s.snapshot();
        assert_eq!(snap.stack_switches(), 2);
        assert_eq!(snap.stacks_allocated(), 2);
        assert_eq!(snap.stacks_reused(), 2);
        assert_eq!(snap.stack_bytes_peak(), 3 << 20);
        s.record_stack_switch();
        let delta = s.snapshot().since(&snap);
        assert_eq!(delta.stack_switches(), 1);
        assert_eq!(delta.stacks_allocated(), 0);
    }

    #[test]
    fn table_views_cover_every_counter_once() {
        let s = NetStats::new();
        s.record_handoff();
        s.record_retransmit();
        s.record_stack_lease(true, 4096);
        let a = s.snapshot();
        let names: Vec<_> = a.counters().map(|(n, _)| n).collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "counter names must be unique");
        let by_name: std::collections::HashMap<_, _> = a.counters().collect();
        assert_eq!(by_name["handoffs"], a.handoffs());
        assert_eq!(by_name["retransmits"], 1);
        // Merging adds counters but takes the maximum of the gauge.
        s.record_stack_lease(false, 1024);
        let m = a.merged(&s.snapshot());
        assert_eq!(m.handoffs(), 2);
        assert_eq!(m.stacks_allocated() + m.stacks_reused(), 3);
        assert_eq!(m.stack_bytes_peak(), 4096);
    }

    #[test]
    fn concurrent_recording_is_consistent() {
        use std::sync::Arc;
        let s = Arc::new(NetStats::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    s.record_send(class::APP, 8);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.snapshot().app_msgs(), 4000);
        assert_eq!(s.snapshot().total_bytes(), 32000);
    }
}
