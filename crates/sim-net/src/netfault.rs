//! Seeded lossy-transport fault injection for the fabric.
//!
//! The paper's protocol assumes reliable FIFO channels; ROADMAP item 4 asks
//! what happens when the transport *underneath* that assumption misbehaves.
//! [`NetFaultPolicy`] is the answer's injection half: a per-job policy,
//! installed on the [`crate::fabric::Fabric`], that at delivery time can
//! **drop**, **duplicate** or **delay** any application or acknowledgement
//! message with configured per-link rates. The masking half (retransmission
//! timers, the wire-sequence window) lives in the protocol layer above; the
//! gate between them is the counter quintet in [`crate::stats::NetStats`]
//! (`msgs_dropped`/`msgs_duplicated`/`msgs_delayed` on this side,
//! `retransmits` on the masking side). A duplicate verdict's extra copy is
//! suppressed below the protocol layer: the fabric counts it into
//! `dups_suppressed` where the verdict is drawn and never builds it, so
//! `dups_suppressed == msgs_duplicated` holds by construction.
//!
//! # Determinism
//!
//! Every verdict is a pure function of `(config, seed, src, dst, k)` where
//! `k` is the per-link index of the message among the link's *faultable*
//! messages — the same splitmix64 discipline `workloads::campaign` uses to
//! sample fault cases ([`decide`] is exposed so tests can check purity
//! directly).
//! The per-link counters are deterministic because only `src`'s carrier ever
//! sends on the link `(src, dst)` and its sends are in program order; no
//! cross-process race can reorder a link's message indices.
//!
//! # Fault scope
//!
//! Only application ([`class::APP`]) and acknowledgement ([`class::ACK`])
//! traffic is ever faulted. `CONTROL`, `HASH` and `SYSTEM` messages are
//! exempt: retransmission pushes, virtual-time timer ticks, crash wake-ups
//! and the redMPI hash streams are the *mechanism* of masking and detection,
//! and the paper's fault model (like FTHP-MPI's) asks whether the protocol
//! masks a lossy data plane, not whether an adversary may also cut the
//! control plane. A drop still wakes the destination's scheduler slot
//! (a spurious wake is harmless; a lost wake would deadlock — see
//! DESIGN.md §5.5).
//!
//! # Ordering under delay
//!
//! The fabric keeps the paper's per-link FIFO even when deliveries are
//! delayed: each link carries a monotone *arrival floor*, every message's
//! arrival is clamped up to the floor, and a delay raises the floor past the
//! delayed message's new arrival. A delay therefore behaves like a burst
//! stall of the link — later messages on the same link queue behind it —
//! rather than a reordering, so the protocol's per-(peer, communicator)
//! sequence windows only ever see in-order-or-duplicate traffic from the
//! transport itself.

use crate::stats::class;
use crate::time::SimTime;
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-link fault rates of a lossy-transport policy. Rates are expressed in
/// parts per 65 536 (16-bit fixed point) so that configurations hash and
/// replay exactly — the campaign layer packs the three rates into a single
/// `u64` parameter word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetFaultConfig {
    /// Probability a faultable message is silently dropped, per 65 536.
    pub drop_per_64k: u32,
    /// Probability a faultable message is duplicated, per 65 536. The extra
    /// copy is suppressed below the protocol layer, so only the counters
    /// see it (`msgs_duplicated`, `dups_suppressed`).
    pub dup_per_64k: u32,
    /// Probability a faultable message is delayed, per 65 536.
    pub delay_per_64k: u32,
    /// Virtual nanoseconds a delayed message's arrival (and the link's
    /// arrival floor) is pushed forward by.
    pub delay_ns: u64,
    /// Restrict faults to acknowledgement traffic (the `DelayedAcks`
    /// campaign distribution); application payloads then pass untouched.
    pub ack_only: bool,
}

impl NetFaultConfig {
    /// The `LossyLinks` campaign default: a few percent of both application
    /// and ack traffic dropped, duplicated or briefly delayed — enough to
    /// exercise every masking path (retransmit, dedup, delay floor) in a
    /// short run without livelocking it.
    pub fn lossy_links() -> Self {
        NetFaultConfig {
            drop_per_64k: 1638,  // ~2.5 %
            dup_per_64k: 1638,   // ~2.5 %
            delay_per_64k: 1638, // ~2.5 %
            delay_ns: 20_000,    // 20 µs: ~10–20 wire times on the test model
            ack_only: false,
        }
    }

    /// The `DelayedAcks` campaign default: no loss, but a quarter of all
    /// acknowledgements delayed well past the protocol's retransmission
    /// timeout, so the sender-side timer demonstrably fires (and the
    /// receiver's sequence window must absorb the resulting echoes).
    pub fn delayed_acks() -> Self {
        NetFaultConfig {
            drop_per_64k: 0,
            dup_per_64k: 0,
            delay_per_64k: 16_384, // 25 %
            delay_ns: 200_000,     // 200 µs: > the 50 µs retx timeout base
            ack_only: true,
        }
    }

    /// Panic unless the three rates sum to at most 65 536 (they are drawn
    /// from disjoint slices of one 16-bit draw).
    pub fn validate(&self) {
        let sum = self.drop_per_64k as u64 + self.dup_per_64k as u64 + self.delay_per_64k as u64;
        assert!(sum <= 65_536, "net-fault rates sum to {sum} > 65536 parts");
    }

    /// May messages of `cls` be faulted at all under this configuration?
    pub fn faultable(&self, cls: u8) -> bool {
        match cls {
            class::ACK => true,
            class::APP => !self.ack_only,
            _ => false,
        }
    }
}

/// What the policy decided for one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultVerdict {
    /// Deliver normally.
    Deliver,
    /// Silently drop (the destination is still woken).
    Drop,
    /// Deliver the original; its duplicate copy is counted and suppressed
    /// where the verdict is drawn.
    Duplicate,
    /// Deliver with the arrival pushed `delay_ns` later (raising the link's
    /// arrival floor with it).
    Delay,
}

/// One `splitmix64` step: advance `x` by the golden-ratio increment and
/// finalize it. The fault verdicts below and `workloads::campaign`'s case
/// sampler draw from this one function.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The pure decision function: the verdict for the `k`-th faultable message
/// on link `src → dst` under `(config, seed)`. Free of all state so tests can
/// assert purity and well-formedness directly; [`NetFaultPolicy::route`] only
/// adds the per-link `k` counter and the arrival-floor bookkeeping.
pub fn decide(config: &NetFaultConfig, seed: u64, src: usize, dst: usize, k: u64) -> FaultVerdict {
    let mut x = splitmix64(seed ^ (src as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    x = splitmix64(x ^ (dst as u64).wrapping_mul(0xc2b2_ae3d_27d4_eb4f));
    x = splitmix64(x ^ k);
    let draw = (x >> 48) as u32; // uniform in 0..65536
    if draw < config.drop_per_64k {
        FaultVerdict::Drop
    } else if draw < config.drop_per_64k + config.dup_per_64k {
        FaultVerdict::Duplicate
    } else if draw < config.drop_per_64k + config.dup_per_64k + config.delay_per_64k {
        FaultVerdict::Delay
    } else {
        FaultVerdict::Deliver
    }
}

/// A job's installed lossy-transport policy: the pure [`decide`] function
/// plus per-link message counters (the `k` inputs) and per-link arrival
/// floors (the FIFO-preserving delay mechanism). One instance is shared by
/// every endpoint of a fabric; the `n × n` link state is only allocated when
/// a policy is actually installed, so fault-free runs pay nothing.
pub struct NetFaultPolicy {
    config: NetFaultConfig,
    seed: u64,
    n: usize,
    /// `n · n` per-link counters of faultable messages routed so far.
    counters: Vec<AtomicU64>,
    /// `n · n` per-link arrival floors, in nanoseconds. Monotone: only ever
    /// raised, and every message on the link is clamped up to it.
    floors: Vec<AtomicU64>,
}

impl std::fmt::Debug for NetFaultPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetFaultPolicy")
            .field("config", &self.config)
            .field("seed", &self.seed)
            .field("endpoints", &self.n)
            .finish()
    }
}

impl NetFaultPolicy {
    /// Build a policy for a fabric of `n` endpoints.
    pub fn new(config: NetFaultConfig, seed: u64, n: usize) -> Self {
        config.validate();
        NetFaultPolicy {
            config,
            seed,
            n,
            counters: (0..n * n).map(|_| AtomicU64::new(0)).collect(),
            floors: (0..n * n).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn link(&self, src: usize, dst: usize) -> usize {
        debug_assert!(src < self.n && dst < self.n);
        src * self.n + dst
    }

    /// Route one message: draw the link's verdict (consuming a per-link `k`
    /// for faultable classes), clamp `arrival` to the link's floor, apply a
    /// delay to it, and raise the floor. Returns the verdict and the
    /// (possibly pushed) arrival the message must carry. Exempt classes
    /// always get [`FaultVerdict::Deliver`] but still respect the floor, so
    /// a delayed message stalls *everything* behind it on its link and
    /// per-link FIFO order survives.
    pub fn route(
        &self,
        src: usize,
        dst: usize,
        cls: u8,
        arrival: SimTime,
    ) -> (FaultVerdict, SimTime) {
        let verdict = if self.config.faultable(cls) {
            let k = self.counters[self.link(src, dst)].fetch_add(1, Ordering::Relaxed);
            decide(&self.config, self.seed, src, dst, k)
        } else {
            FaultVerdict::Deliver
        };
        let floor = &self.floors[self.link(src, dst)];
        let mut out = arrival.max(SimTime::from_nanos(floor.load(Ordering::Relaxed)));
        if verdict == FaultVerdict::Delay {
            out = out.saturating_add(SimTime::from_nanos(self.config.delay_ns));
        }
        // Single writer per link (only src's carrier sends on src → dst) and
        // `out >= floor`, so a plain store keeps the floor monotone.
        floor.store(out.as_nanos(), Ordering::Relaxed);
        (verdict, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decide_is_pure_and_covers_all_verdicts() {
        let cfg = NetFaultConfig {
            drop_per_64k: 16_384,
            dup_per_64k: 16_384,
            delay_per_64k: 16_384,
            delay_ns: 1_000,
            ack_only: false,
        };
        let mut seen = [false; 4];
        for k in 0..4096u64 {
            let a = decide(&cfg, 42, 1, 2, k);
            let b = decide(&cfg, 42, 1, 2, k);
            assert_eq!(
                a, b,
                "verdict must be a pure function of (config, seed, link, k)"
            );
            seen[match a {
                FaultVerdict::Deliver => 0,
                FaultVerdict::Drop => 1,
                FaultVerdict::Duplicate => 2,
                FaultVerdict::Delay => 3,
            }] = true;
        }
        assert!(
            seen.iter().all(|s| *s),
            "25 % rates must produce every verdict"
        );
    }

    #[test]
    fn decide_depends_on_seed_and_link() {
        let cfg = NetFaultConfig::lossy_links();
        let base: Vec<_> = (0..512).map(|k| decide(&cfg, 7, 0, 1, k)).collect();
        let other_seed: Vec<_> = (0..512).map(|k| decide(&cfg, 8, 0, 1, k)).collect();
        let other_link: Vec<_> = (0..512).map(|k| decide(&cfg, 7, 1, 0, k)).collect();
        assert_ne!(base, other_seed, "seed must matter");
        assert_ne!(base, other_link, "link direction must matter");
    }

    #[test]
    fn zero_rates_always_deliver() {
        let cfg = NetFaultConfig {
            drop_per_64k: 0,
            dup_per_64k: 0,
            delay_per_64k: 0,
            delay_ns: 0,
            ack_only: false,
        };
        for k in 0..1024 {
            assert_eq!(decide(&cfg, 3, 0, 1, k), FaultVerdict::Deliver);
        }
    }

    #[test]
    fn exempt_classes_pass_and_consume_no_draw() {
        // All-drop config: every faultable draw is a Drop, so if CONTROL
        // consumed a draw the subsequent APP verdicts would shift.
        let cfg = NetFaultConfig {
            drop_per_64k: 65_536,
            dup_per_64k: 0,
            delay_per_64k: 0,
            delay_ns: 0,
            ack_only: false,
        };
        let p = NetFaultPolicy::new(cfg, 1, 2);
        let (v, _) = p.route(0, 1, class::CONTROL, SimTime::from_nanos(10));
        assert_eq!(v, FaultVerdict::Deliver, "control traffic is exempt");
        let (v, _) = p.route(0, 1, class::SYSTEM, SimTime::from_nanos(10));
        assert_eq!(v, FaultVerdict::Deliver, "system traffic is exempt");
        let (v, _) = p.route(0, 1, class::HASH, SimTime::from_nanos(10));
        assert_eq!(v, FaultVerdict::Deliver, "hash traffic is exempt");
        let (v, _) = p.route(0, 1, class::APP, SimTime::from_nanos(10));
        assert_eq!(
            v,
            FaultVerdict::Drop,
            "faultable draw was not consumed early"
        );
    }

    #[test]
    fn ack_only_exempts_app_traffic() {
        let cfg = NetFaultConfig {
            drop_per_64k: 65_536,
            dup_per_64k: 0,
            delay_per_64k: 0,
            delay_ns: 0,
            ack_only: true,
        };
        let p = NetFaultPolicy::new(cfg, 1, 2);
        let (v, _) = p.route(0, 1, class::APP, SimTime::ZERO);
        assert_eq!(v, FaultVerdict::Deliver);
        let (v, _) = p.route(0, 1, class::ACK, SimTime::ZERO);
        assert_eq!(v, FaultVerdict::Drop);
    }

    #[test]
    fn delay_raises_the_link_floor_and_preserves_link_fifo() {
        let cfg = NetFaultConfig {
            drop_per_64k: 0,
            dup_per_64k: 0,
            delay_per_64k: 65_536,
            delay_ns: 500,
            ack_only: false,
        };
        let p = NetFaultPolicy::new(cfg, 9, 2);
        let (v, a1) = p.route(0, 1, class::APP, SimTime::from_nanos(100));
        assert_eq!(v, FaultVerdict::Delay);
        assert_eq!(a1, SimTime::from_nanos(600));
        // A later message with an *earlier* own arrival is clamped behind it.
        let (_, a2) = p.route(0, 1, class::APP, SimTime::from_nanos(150));
        assert!(a2 >= a1, "link floor must preserve per-link FIFO");
        // Exempt classes respect the floor too.
        let (v3, a3) = p.route(0, 1, class::CONTROL, SimTime::from_nanos(10));
        assert_eq!(v3, FaultVerdict::Deliver);
        assert!(a3 >= a2);
        // The other direction of the link is independent.
        let (_, b) = p.route(1, 0, class::CONTROL, SimTime::from_nanos(10));
        assert_eq!(b, SimTime::from_nanos(10));
    }

    #[test]
    fn presets_validate() {
        NetFaultConfig::lossy_links().validate();
        NetFaultConfig::delayed_acks().validate();
        assert!(NetFaultConfig::lossy_links().faultable(class::APP));
        assert!(!NetFaultConfig::delayed_acks().faultable(class::APP));
        assert!(NetFaultConfig::delayed_acks().faultable(class::ACK));
    }

    #[test]
    #[should_panic(expected = "net-fault rates")]
    fn oversubscribed_rates_panic() {
        NetFaultConfig {
            drop_per_64k: 40_000,
            dup_per_64k: 40_000,
            delay_per_64k: 0,
            delay_ns: 0,
            ack_only: false,
        }
        .validate();
    }
}
