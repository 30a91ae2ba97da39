//! Monte Carlo fault-campaign planning: seeded, reproducible fault plans.
//!
//! The paper validates SDR-MPI against a handful of hand-picked crash
//! scenarios (Figure 3, Figure 4); a replication protocol earns trust from
//! *campaigns* — hundreds of randomized fault injections per configuration,
//! every one reproducible from a small seed. This module is the planning half
//! of that engine: it turns a `(configuration, seed)` pair into a concrete
//! [`FaultPlan`] — a list of [`PlannedFault`]s that the job launcher compiles
//! into [`crate::FailureService::schedule`] calls (crashes) and PML
//! payload-corruption hooks (soft errors) before launch. The execution half
//! lives in `workloads::campaign`, which runs the plans and aggregates
//! survival/abort/detection rates.
//!
//! Design rules (DESIGN.md §4.2):
//!
//! * **Pure sampling.** [`sample_plan`] is a pure function of
//!   `(config, seed)`: no ambient randomness, no floating point, no
//!   platform-dependent state. Two calls with the same inputs yield equal
//!   plans, so a regression case can reference a plan by its seed alone.
//! * **Integer-only distributions.** The exponential inter-failure law is
//!   sampled as its discrete counterpart, the geometric distribution
//!   ([`CampaignRng::geometric`]): memoryless, mean `mean_sends`, and exact
//!   with nothing but integer comparisons — no `ln`, so plans cannot drift
//!   across platforms or math libraries.
//! * **Replica-set aware.** Crash distributions know the endpoint layout of
//!   a uniformly replicated job (`sdr_core::ReplicaMap::uniform`: `endpoint =
//!   replica · ranks + rank`) so they can either *guarantee* single-replica loss (the
//!   survivable regime the paper's protocol covers) or *force* correlated
//!   loss of every replica of one rank (the regime that must abort promptly).
//!
//! When a campaign case violates its expectation, [`shrink_events`] reduces
//! the injected fault list to a locally minimal failing subset by a
//! ddmin-style binary search; the driver replays candidates under the
//! deterministic `--workers 1` scheduler so the oracle is exact.

use crate::fabric::EndpointId;
use crate::failure::CrashSchedule;
use crate::netfault::NetFaultConfig;

/// Deterministic splitmix64 generator used for plan sampling.
///
/// The same generator the vendored proptest stand-in uses: tiny state, full
/// 64-bit period-free mixing, identical output on every platform. Campaign
/// plans derive all their randomness from one of these seeded with
/// [`mix_seed`]`(config, seed)`.
#[derive(Debug, Clone)]
pub struct CampaignRng(u64);

impl CampaignRng {
    /// Generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        CampaignRng(seed)
    }

    /// Next raw 64-bit value (splitmix64 step).
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`; `bound` must be non-zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        self.next_u64() % bound
    }

    /// Geometric deviate on `{1, 2, ...}` with mean `mean` (success
    /// probability `1/mean`): the discrete exponential. Memoryless like the
    /// continuous law the MTBF literature uses, but sampled with integer
    /// comparisons only, so it is bit-stable across platforms. `mean = 1`
    /// (or 0) degenerates to the constant 1.
    pub fn geometric(&mut self, mean: u64) -> u64 {
        let mean = mean.max(1);
        let mut n = 1u64;
        // Failure with probability (mean-1)/mean per step; bounded so a
        // pathological mean cannot spin forever.
        while n < 1_000_000 && self.below(mean) != 0 {
            n += 1;
        }
        n
    }
}

/// One fault to inject into a job before launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlannedFault {
    /// Crash-stop failure of one physical process, compiled into
    /// [`crate::FailureService::schedule`].
    Crash {
        /// The physical process to kill.
        endpoint: EndpointId,
        /// When to kill it.
        schedule: CrashSchedule,
    },
    /// Soft error: flip one bit of the payload of the `nth_send`-th
    /// application message this endpoint sends (1-based), below the protocol
    /// layer — the wire carries the corrupted copy while the sender's own
    /// bookkeeping (e.g. redMPI's payload hash) saw the clean one, exactly
    /// like a NIC/DRAM upset.
    BitFlip {
        /// The physical process whose outgoing payload is corrupted.
        endpoint: EndpointId,
        /// 1-based index of the corrupted application send.
        nth_send: u64,
        /// Bit to flip, taken modulo the payload size in bits.
        bit: u32,
    },
    /// Lossy transport: a fabric-wide [`crate::netfault::NetFaultPolicy`]
    /// installed before launch, dropping/duplicating/delaying app and ack
    /// deliveries at the sampled rates. Unlike crashes and bit flips this
    /// fault is not tied to one endpoint — it degrades every link — and the
    /// job is expected to *mask* it completely (retransmission + duplicate
    /// suppression), not merely survive it.
    LossyTransport {
        /// The fault rates and delay to install.
        config: NetFaultConfig,
        /// Seed of the policy's per-link splitmix64 verdict stream.
        policy_seed: u64,
    },
}

/// Parameterized fault distributions a campaign can draw plans from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDistribution {
    /// Exponential (discretized: geometric) mean-time-between-failures per
    /// process, measured in application sends. Each endpoint independently
    /// draws an inter-failure time; it crashes if the draw lands within the
    /// run's horizon. At most one replica per rank is ever killed (draws on
    /// a rank that already lost a replica are discarded), so every sampled
    /// plan stays inside the protocol's survivable single-replica-loss
    /// regime — any non-survival is a protocol bug, not sampling bad luck.
    ExponentialMtbf {
        /// Mean sends between failures of one process.
        mean_sends: u64,
        /// Only draws `<= horizon_sends` become crashes (the run is finite).
        horizon_sends: u64,
        /// Upper bound on crashes per plan.
        max_crashes: usize,
    },
    /// Correlated node-level failure: both (all) replicas of one uniformly
    /// chosen rank crash, each at an independent geometric send index within
    /// the horizon. This models the paper's worst case — the replicas of a
    /// rank sharing a failure domain — and the job is *expected* to abort
    /// with `RankLost`, promptly.
    CorrelatedPairLoss {
        /// Mean sends before each replica's crash.
        mean_sends: u64,
        /// Crash indices are folded into `[1, horizon_sends]` so the loss
        /// always lands mid-run.
        horizon_sends: u64,
    },
    /// One crash landing mid-collective: a uniformly chosen endpoint dies
    /// after a uniformly chosen application send in `[1, max_phase]`. With
    /// the driver's collective-heavy workload, low send indices fall between
    /// the internal point-to-point rounds of a collective at a randomized
    /// phase.
    MidCollective {
        /// Upper bound (inclusive) on the crash's send index.
        max_phase: u64,
    },
    /// Soft errors: `flips` distinct `(endpoint, nth_send)` payload bit
    /// flips, uniform over endpoints, send indices in `[1, max_send]` and
    /// bit positions in `[0, payload_bits)`.
    SoftErrors {
        /// Number of distinct corrupted messages.
        flips: usize,
        /// Upper bound (inclusive) on corrupted send indices.
        max_send: u64,
        /// Exclusive upper bound on the flipped bit position.
        payload_bits: u32,
    },
    /// Lossy links: one fabric-wide [`PlannedFault::LossyTransport`] whose
    /// drop/duplicate/delay rates are drawn uniformly in `[1, max]` per
    /// fault kind (per 65 536), with a short sampled delay (5–50 µs). The
    /// protocol must mask every sampled policy: bit-correct results, zero
    /// violations, `dups_suppressed == msgs_duplicated`.
    LossyLinks {
        /// Inclusive upper bound on the sampled drop rate, per 65 536.
        max_drop_per_64k: u32,
        /// Inclusive upper bound on the sampled duplication rate, per 65 536.
        max_dup_per_64k: u32,
        /// Inclusive upper bound on the sampled delay rate, per 65 536.
        max_delay_per_64k: u32,
    },
    /// Delayed acknowledgements: no loss, but an ack-only delay policy whose
    /// rate is drawn in `[1, max_delay_per_64k]` and whose delay is drawn
    /// past the retransmission timeout base (60 µs up to `max_delay_ns`),
    /// so sender-side timers demonstrably fire and the receive windows must
    /// absorb the spurious retransmits without double delivery.
    DelayedAcks {
        /// Inclusive upper bound on the sampled ack-delay rate, per 65 536.
        max_delay_per_64k: u32,
        /// Upper bound on the sampled virtual delay, nanoseconds.
        max_delay_ns: u64,
    },
    /// One crash under a *partial* replication layout, biased 3:1 toward
    /// unreplicated ranks. `replicated_mask` bit `r` set means rank `r` has a
    /// second copy (the replica map numbers first copies and
    /// singletons at endpoint `r` and second copies after them). The sampled
    /// crash always hits endpoint `r` — the singleton itself, or the first
    /// copy of a replicated rank (the copy guaranteed to perform physical
    /// sends) — so the campaign oracle's verdict splits cleanly: a crash on a
    /// masked rank must be survived, a crash on an unmasked rank must abort
    /// promptly with `RankLost`.
    UnreplicatedBias {
        /// Bitmask of replicated ranks (rank `r` replicated iff bit `r` set).
        replicated_mask: u64,
        /// Crash send indices are drawn uniformly in `[1, horizon_sends]`.
        horizon_sends: u64,
    },
    /// Majority loss at degree ≥ 3: all but one replica of a uniformly
    /// chosen rank crash, each at an independent geometric send index within
    /// the horizon. Substitution (the lowest live replica takes over) lets
    /// the single survivor carry the rank, so the job is *expected to
    /// survive* — unlike [`FaultDistribution::CorrelatedPairLoss`], which
    /// removes every copy.
    MajorityLoss {
        /// Mean sends before each doomed replica's crash.
        mean_sends: u64,
        /// Crash indices are folded into `[1, horizon_sends]`.
        horizon_sends: u64,
    },
}

impl FaultDistribution {
    /// Stable discriminant used by [`mix_seed`].
    fn tag(&self) -> u8 {
        match self {
            FaultDistribution::ExponentialMtbf { .. } => 1,
            FaultDistribution::CorrelatedPairLoss { .. } => 2,
            FaultDistribution::MidCollective { .. } => 3,
            FaultDistribution::SoftErrors { .. } => 4,
            FaultDistribution::LossyLinks { .. } => 5,
            FaultDistribution::DelayedAcks { .. } => 6,
            FaultDistribution::UnreplicatedBias { .. } => 7,
            FaultDistribution::MajorityLoss { .. } => 8,
        }
    }

    /// Distribution parameters as canonical u64 words (same order as the
    /// struct fields), for seed mixing.
    fn params(&self) -> [u64; 3] {
        match *self {
            FaultDistribution::ExponentialMtbf {
                mean_sends,
                horizon_sends,
                max_crashes,
            } => [mean_sends, horizon_sends, max_crashes as u64],
            FaultDistribution::CorrelatedPairLoss {
                mean_sends,
                horizon_sends,
            } => [mean_sends, horizon_sends, 0],
            FaultDistribution::MidCollective { max_phase } => [max_phase, 0, 0],
            FaultDistribution::SoftErrors {
                flips,
                max_send,
                payload_bits,
            } => [flips as u64, max_send, payload_bits as u64],
            // The three 16-bit rate bounds pack into one canonical word.
            FaultDistribution::LossyLinks {
                max_drop_per_64k,
                max_dup_per_64k,
                max_delay_per_64k,
            } => [
                (max_drop_per_64k as u64)
                    | (max_dup_per_64k as u64) << 16
                    | (max_delay_per_64k as u64) << 32,
                0,
                0,
            ],
            FaultDistribution::DelayedAcks {
                max_delay_per_64k,
                max_delay_ns,
            } => [max_delay_per_64k as u64, max_delay_ns, 0],
            FaultDistribution::UnreplicatedBias {
                replicated_mask,
                horizon_sends,
            } => [replicated_mask, horizon_sends, 0],
            FaultDistribution::MajorityLoss {
                mean_sends,
                horizon_sends,
            } => [mean_sends, horizon_sends, 0],
        }
    }

    /// Human-readable name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            FaultDistribution::ExponentialMtbf { .. } => "exp-mtbf",
            FaultDistribution::CorrelatedPairLoss { .. } => "correlated-pair",
            FaultDistribution::MidCollective { .. } => "mid-collective",
            FaultDistribution::SoftErrors { .. } => "sdc",
            FaultDistribution::LossyLinks { .. } => "lossy-links",
            FaultDistribution::DelayedAcks { .. } => "delayed-acks",
            FaultDistribution::UnreplicatedBias { .. } => "unreplicated-bias",
            FaultDistribution::MajorityLoss { .. } => "majority-loss",
        }
    }
}

/// One campaign configuration: the job shape plus the fault distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignConfig {
    /// Application ranks of the job under test.
    pub ranks: usize,
    /// Replication degree (2 for the paper's dual setup).
    pub degree: usize,
    /// The distribution faults are drawn from.
    pub dist: FaultDistribution,
}

impl CampaignConfig {
    /// Physical processes of a job with this shape.
    pub fn endpoints(&self) -> usize {
        self.ranks * self.degree
    }
}

/// Fold the configuration into the case seed so that the same seed under
/// different configurations yields unrelated plans. FNV-1a over the canonical
/// config words, xored into the seed.
pub fn mix_seed(config: &CampaignConfig, seed: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut absorb = |w: u64| {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    absorb(config.ranks as u64);
    absorb(config.degree as u64);
    absorb(config.dist.tag() as u64);
    for p in config.dist.params() {
        absorb(p);
    }
    h ^ seed
}

/// A sampled fault plan: the `(config, seed)` provenance plus the concrete
/// faults to inject.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// The configuration the plan was sampled under.
    pub config: CampaignConfig,
    /// The case seed (pre-mixing).
    pub seed: u64,
    /// Faults to inject, in sampling order.
    pub faults: Vec<PlannedFault>,
}

impl FaultPlan {
    /// The crash faults of the plan, in order.
    pub fn crashes(&self) -> impl Iterator<Item = (EndpointId, CrashSchedule)> + '_ {
        self.faults.iter().filter_map(|f| match *f {
            PlannedFault::Crash { endpoint, schedule } => Some((endpoint, schedule)),
            _ => None,
        })
    }
}

/// Sample the fault plan for `(config, seed)`. Pure: no ambient state, no
/// floating point; see the module docs for the per-distribution semantics.
pub fn sample_plan(config: CampaignConfig, seed: u64) -> FaultPlan {
    assert!(config.ranks > 0, "a campaign needs at least one rank");
    assert!(config.degree > 0, "a campaign needs degree >= 1");
    let mut rng = CampaignRng::new(mix_seed(&config, seed));
    let n_eps = config.endpoints() as u64;
    let mut faults = Vec::new();
    match config.dist {
        FaultDistribution::ExponentialMtbf {
            mean_sends,
            horizon_sends,
            max_crashes,
        } => {
            // Fixed endpoint order keeps sampling canonical; ranks that
            // already lost a replica are skipped so the plan stays inside
            // the survivable regime by construction.
            let mut lost_ranks = vec![false; config.ranks];
            for ep in 0..n_eps as usize {
                if faults.len() >= max_crashes {
                    break;
                }
                let nth = rng.geometric(mean_sends);
                let rank = ep % config.ranks;
                if nth <= horizon_sends && !lost_ranks[rank] {
                    lost_ranks[rank] = true;
                    faults.push(PlannedFault::Crash {
                        endpoint: EndpointId(ep),
                        schedule: CrashSchedule::AfterSend { nth },
                    });
                }
            }
        }
        FaultDistribution::CorrelatedPairLoss {
            mean_sends,
            horizon_sends,
        } => {
            let rank = rng.below(config.ranks as u64) as usize;
            let horizon = horizon_sends.max(1);
            for rep in 0..config.degree {
                let nth = (rng.geometric(mean_sends) - 1) % horizon + 1;
                faults.push(PlannedFault::Crash {
                    endpoint: EndpointId(rep * config.ranks + rank),
                    schedule: CrashSchedule::AfterSend { nth },
                });
            }
        }
        FaultDistribution::MidCollective { max_phase } => {
            let ep = rng.below(n_eps) as usize;
            let nth = 1 + rng.below(max_phase.max(1));
            faults.push(PlannedFault::Crash {
                endpoint: EndpointId(ep),
                schedule: CrashSchedule::AfterSend { nth },
            });
        }
        FaultDistribution::SoftErrors {
            flips,
            max_send,
            payload_bits,
        } => {
            // Distinct (endpoint, nth_send) targets: one flip per message,
            // so detections count 1:1 against injections.
            let mut taken = std::collections::BTreeSet::new();
            let mut attempts = 0;
            while faults.len() < flips && attempts < flips * 64 + 64 {
                attempts += 1;
                let ep = rng.below(n_eps) as usize;
                let nth = 1 + rng.below(max_send.max(1));
                let bit = rng.below(payload_bits.max(1) as u64) as u32;
                if taken.insert((ep, nth)) {
                    faults.push(PlannedFault::BitFlip {
                        endpoint: EndpointId(ep),
                        nth_send: nth,
                        bit,
                    });
                }
            }
        }
        FaultDistribution::LossyLinks {
            max_drop_per_64k,
            max_dup_per_64k,
            max_delay_per_64k,
        } => {
            // One fabric-wide policy per plan; each rate is drawn in
            // [1, max] so every sampled case actually exercises all three
            // fault kinds (a zero-rate case would test nothing).
            let mut draw = |max: u32| 1 + rng.below(max.max(1) as u64) as u32;
            let config = NetFaultConfig {
                drop_per_64k: draw(max_drop_per_64k),
                dup_per_64k: draw(max_dup_per_64k),
                delay_per_64k: draw(max_delay_per_64k),
                // 5–50 µs: around and below the 50 µs retransmission base,
                // so delays sometimes look like losses to the sender.
                delay_ns: 5_000 + rng.below(45_001),
                ack_only: false,
            };
            config.validate();
            faults.push(PlannedFault::LossyTransport {
                config,
                policy_seed: rng.next_u64(),
            });
        }
        FaultDistribution::DelayedAcks {
            max_delay_per_64k,
            max_delay_ns,
        } => {
            let config = NetFaultConfig {
                drop_per_64k: 0,
                dup_per_64k: 0,
                delay_per_64k: 1 + rng.below(max_delay_per_64k.max(1) as u64) as u32,
                // Always past the 50 µs retransmission base, so the
                // sender-side timer demonstrably fires.
                delay_ns: 60_000 + rng.below(max_delay_ns.saturating_sub(60_000).max(1)),
                ack_only: true,
            };
            config.validate();
            faults.push(PlannedFault::LossyTransport {
                config,
                policy_seed: rng.next_u64(),
            });
        }
        FaultDistribution::UnreplicatedBias {
            replicated_mask,
            horizon_sends,
        } => {
            assert!(config.ranks <= 64, "the replicated mask covers 64 ranks");
            let unrep: Vec<usize> = (0..config.ranks)
                .filter(|r| replicated_mask & (1u64 << r) == 0)
                .collect();
            let rep: Vec<usize> = (0..config.ranks)
                .filter(|r| replicated_mask & (1u64 << r) != 0)
                .collect();
            let nth = 1 + rng.below(horizon_sends.max(1));
            // 3:1 bias toward unreplicated ranks (fall back to whichever
            // side is non-empty).
            let pick_unrep = !unrep.is_empty() && (rep.is_empty() || rng.below(4) < 3);
            let pool = if pick_unrep { &unrep } else { &rep };
            let rank = pool[rng.below(pool.len() as u64) as usize];
            faults.push(PlannedFault::Crash {
                endpoint: EndpointId(rank),
                schedule: CrashSchedule::AfterSend { nth },
            });
        }
        FaultDistribution::MajorityLoss {
            mean_sends,
            horizon_sends,
        } => {
            // All but one replica of one rank die; the spared replica index
            // is sampled so election must cope with any survivor, not just
            // replica 0.
            let rank = rng.below(config.ranks as u64) as usize;
            let spared = rng.below(config.degree.max(1) as u64) as usize;
            let horizon = horizon_sends.max(1);
            for rep in 0..config.degree {
                if rep == spared {
                    continue;
                }
                let nth = (rng.geometric(mean_sends) - 1) % horizon + 1;
                faults.push(PlannedFault::Crash {
                    endpoint: EndpointId(rep * config.ranks + rank),
                    schedule: CrashSchedule::AfterSend { nth },
                });
            }
        }
    }
    FaultPlan {
        config,
        seed,
        faults,
    }
}

/// Reduce `events` to a locally minimal subset still satisfying `fails`
/// (ddmin-style): repeatedly try to delete chunks of halving size, keeping
/// any deletion after which the oracle still reports failure, until no
/// single-event deletion helps. Returns the minimal subset (possibly empty
/// if the failure does not depend on the events at all). The caller's oracle
/// should replay candidates deterministically (`--workers 1`) so a flaky
/// verdict cannot derail the search; `fails(events)` is expected to be true
/// on entry (if it is not, the input is returned unchanged).
pub fn shrink_events<E, F>(events: &[E], mut fails: F) -> Vec<E>
where
    E: Clone,
    F: FnMut(&[E]) -> bool,
{
    let mut current: Vec<E> = events.to_vec();
    if !fails(&current) {
        return current;
    }
    loop {
        let mut reduced = false;
        let mut chunk = current.len().max(1).div_ceil(2);
        while chunk >= 1 {
            let mut i = 0;
            while i < current.len() {
                let end = (i + chunk).min(current.len());
                let mut candidate = Vec::with_capacity(current.len() - (end - i));
                candidate.extend_from_slice(&current[..i]);
                candidate.extend_from_slice(&current[end..]);
                if fails(&candidate) {
                    current = candidate;
                    reduced = true;
                    // Retry the same offset against the shrunk list.
                } else {
                    i += chunk;
                }
            }
            if chunk == 1 {
                break;
            }
            chunk /= 2;
        }
        if !reduced {
            break;
        }
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(dist: FaultDistribution) -> CampaignConfig {
        CampaignConfig {
            ranks: 4,
            degree: 2,
            dist,
        }
    }

    #[test]
    fn sampling_is_pure_and_byte_stable() {
        for dist in [
            FaultDistribution::ExponentialMtbf {
                mean_sends: 8,
                horizon_sends: 6,
                max_crashes: 4,
            },
            FaultDistribution::CorrelatedPairLoss {
                mean_sends: 4,
                horizon_sends: 3,
            },
            FaultDistribution::MidCollective { max_phase: 8 },
            FaultDistribution::SoftErrors {
                flips: 3,
                max_send: 6,
                payload_bits: 8192,
            },
            FaultDistribution::LossyLinks {
                max_drop_per_64k: 3277,
                max_dup_per_64k: 3277,
                max_delay_per_64k: 3277,
            },
            FaultDistribution::DelayedAcks {
                max_delay_per_64k: 32_768,
                max_delay_ns: 400_000,
            },
            FaultDistribution::UnreplicatedBias {
                replicated_mask: 0b0101,
                horizon_sends: 6,
            },
            FaultDistribution::MajorityLoss {
                mean_sends: 4,
                horizon_sends: 3,
            },
        ] {
            for seed in 0..32 {
                let a = sample_plan(cfg(dist), seed);
                let b = sample_plan(cfg(dist), seed);
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn different_seeds_give_different_plans() {
        let dist = FaultDistribution::SoftErrors {
            flips: 4,
            max_send: 1 << 20,
            payload_bits: 8192,
        };
        let plans: Vec<_> = (0..256u64)
            .map(|seed| sample_plan(cfg(dist), seed).faults)
            .collect();
        // The plan space is astronomically larger than 256; any collision at
        // all would indicate broken seed mixing. (Deterministic: this is a
        // fixed fact of the generator, not a flaky statistical test.)
        for (i, a) in plans.iter().enumerate() {
            assert!(plans[i + 1..].iter().all(|b| a != b), "seed {i} collides");
        }
    }

    #[test]
    fn config_is_mixed_into_the_seed() {
        let a = cfg(FaultDistribution::MidCollective { max_phase: 8 });
        let b = cfg(FaultDistribution::MidCollective { max_phase: 9 });
        assert_ne!(mix_seed(&a, 7), mix_seed(&b, 7));
        let wide = CampaignConfig { ranks: 8, ..a };
        assert_ne!(mix_seed(&a, 7), mix_seed(&wide, 7));
    }

    #[test]
    fn exponential_mtbf_never_kills_two_replicas_of_one_rank() {
        let dist = FaultDistribution::ExponentialMtbf {
            mean_sends: 2, // aggressive: most endpoints draw within horizon
            horizon_sends: 10,
            max_crashes: 8,
        };
        for seed in 0..200 {
            let plan = sample_plan(cfg(dist), seed);
            let mut per_rank = [0usize; 4];
            for (ep, schedule) in plan.crashes() {
                assert!(matches!(schedule, CrashSchedule::AfterSend { nth } if nth >= 1));
                per_rank[ep.0 % 4] += 1;
            }
            assert!(
                per_rank.iter().all(|&c| c <= 1),
                "seed {seed} killed two replicas of one rank: {:?}",
                plan.faults
            );
        }
    }

    #[test]
    fn correlated_pair_loss_kills_all_replicas_of_one_rank() {
        let dist = FaultDistribution::CorrelatedPairLoss {
            mean_sends: 4,
            horizon_sends: 3,
        };
        for seed in 0..100 {
            let plan = sample_plan(cfg(dist), seed);
            let crashes: Vec<_> = plan.crashes().collect();
            assert_eq!(crashes.len(), 2);
            assert_eq!(crashes[0].0 .0 % 4, crashes[1].0 .0 % 4, "same rank");
            assert_ne!(crashes[0].0, crashes[1].0, "different replicas");
            for (_, s) in crashes {
                match s {
                    CrashSchedule::AfterSend { nth } => assert!((1..=3).contains(&nth)),
                    other => panic!("unexpected schedule {other:?}"),
                }
            }
        }
    }

    #[test]
    fn soft_errors_are_distinct_per_message() {
        let dist = FaultDistribution::SoftErrors {
            flips: 5,
            max_send: 6,
            payload_bits: 64,
        };
        for seed in 0..50 {
            let plan = sample_plan(cfg(dist), seed);
            let mut targets = Vec::new();
            for fault in &plan.faults {
                let PlannedFault::BitFlip {
                    endpoint,
                    nth_send,
                    bit,
                } = *fault
                else {
                    panic!("seed {seed}: a soft-error plan holds only flips");
                };
                assert!((1..=6).contains(&nth_send));
                assert!(bit < 64);
                targets.push((endpoint, nth_send));
            }
            let mut dedup = targets.clone();
            dedup.sort();
            dedup.dedup();
            assert_eq!(targets.len(), dedup.len(), "seed {seed} repeated a target");
        }
    }

    #[test]
    fn lossy_links_plans_are_well_formed() {
        let dist = FaultDistribution::LossyLinks {
            max_drop_per_64k: 3277,
            max_dup_per_64k: 3277,
            max_delay_per_64k: 3277,
        };
        let mut distinct = std::collections::BTreeSet::new();
        for seed in 0..100 {
            let plan = sample_plan(cfg(dist), seed);
            let [PlannedFault::LossyTransport {
                config,
                policy_seed,
            }] = plan.faults[..]
            else {
                panic!("one fabric-wide policy per plan: {plan:?}");
            };
            config.validate();
            assert!((1..=3277).contains(&config.drop_per_64k));
            assert!((1..=3277).contains(&config.dup_per_64k));
            assert!((1..=3277).contains(&config.delay_per_64k));
            assert!((5_000..=50_000).contains(&config.delay_ns));
            assert!(!config.ack_only);
            distinct.insert((config.drop_per_64k, config.delay_ns, policy_seed));
        }
        assert!(distinct.len() > 90, "seeds must spread the sampled rates");
    }

    #[test]
    fn delayed_acks_plans_always_outlast_the_retx_base() {
        let dist = FaultDistribution::DelayedAcks {
            max_delay_per_64k: 32_768,
            max_delay_ns: 400_000,
        };
        for seed in 0..100 {
            let plan = sample_plan(cfg(dist), seed);
            let [PlannedFault::LossyTransport { config, .. }] = plan.faults[..] else {
                panic!("one policy per plan: {plan:?}");
            };
            config.validate();
            assert!(config.ack_only, "delayed-acks must not touch payloads");
            assert_eq!(config.drop_per_64k, 0);
            assert_eq!(config.dup_per_64k, 0);
            assert!((1..=32_768).contains(&config.delay_per_64k));
            assert!(
                config.delay_ns >= 60_000,
                "sampled delay {} must exceed the 50 µs retx base",
                config.delay_ns
            );
            assert!(config.delay_ns < 400_000);
        }
    }

    #[test]
    fn unreplicated_bias_favors_singleton_ranks() {
        // Ranks 0 and 2 replicated, 1 and 3 singletons.
        let dist = FaultDistribution::UnreplicatedBias {
            replicated_mask: 0b0101,
            horizon_sends: 8,
        };
        let mut singleton_hits = 0;
        for seed in 0..200 {
            let plan = sample_plan(cfg(dist), seed);
            let crashes: Vec<_> = plan.crashes().collect();
            assert_eq!(crashes.len(), 1, "one crash per plan");
            let (ep, schedule) = crashes[0];
            assert!(ep.0 < 4, "always the rank-numbered copy: {ep:?}");
            assert!(matches!(schedule, CrashSchedule::AfterSend { nth } if (1..=8).contains(&nth)));
            if ep.0 == 1 || ep.0 == 3 {
                singleton_hits += 1;
            }
        }
        // 3:1 bias — with 200 draws, well above half must hit singletons
        // (deterministic: a fixed fact of the seeded generator).
        assert!(
            singleton_hits > 120,
            "only {singleton_hits}/200 crashes hit unreplicated ranks"
        );
    }

    #[test]
    fn unreplicated_bias_respects_degenerate_masks() {
        // Everything replicated: crashes must still come from somewhere.
        let all = FaultDistribution::UnreplicatedBias {
            replicated_mask: 0b1111,
            horizon_sends: 4,
        };
        // Nothing replicated: all crashes hit singletons.
        let none = FaultDistribution::UnreplicatedBias {
            replicated_mask: 0,
            horizon_sends: 4,
        };
        for seed in 0..50 {
            assert_eq!(sample_plan(cfg(all), seed).crashes().count(), 1);
            assert_eq!(sample_plan(cfg(none), seed).crashes().count(), 1);
        }
    }

    #[test]
    fn majority_loss_spares_exactly_one_replica() {
        let dist = FaultDistribution::MajorityLoss {
            mean_sends: 4,
            horizon_sends: 3,
        };
        let config = CampaignConfig {
            ranks: 4,
            degree: 3,
            dist,
        };
        let mut spared_seen = std::collections::BTreeSet::new();
        for seed in 0..100 {
            let plan = sample_plan(config, seed);
            let crashes: Vec<_> = plan.crashes().collect();
            assert_eq!(crashes.len(), 2, "two of three replicas die");
            let rank = crashes[0].0 .0 % 4;
            let mut dead_reps = std::collections::BTreeSet::new();
            for (ep, schedule) in &crashes {
                assert_eq!(ep.0 % 4, rank, "all crashes on one rank");
                dead_reps.insert(ep.0 / 4);
                assert!(
                    matches!(schedule, CrashSchedule::AfterSend { nth } if (1..=3).contains(nth))
                );
            }
            assert_eq!(dead_reps.len(), 2, "distinct replicas");
            let spared = (0..3).find(|r| !dead_reps.contains(r)).unwrap();
            spared_seen.insert(spared);
        }
        assert_eq!(
            spared_seen.len(),
            3,
            "every replica index must sometimes be the survivor"
        );
    }

    #[test]
    fn geometric_mean_is_roughly_right() {
        let mut rng = CampaignRng::new(42);
        let n = 10_000u64;
        let sum: u64 = (0..n).map(|_| rng.geometric(8)).sum();
        let mean = sum as f64 / n as f64;
        assert!((6.0..10.0).contains(&mean), "geometric(8) mean was {mean}");
        // Degenerate means collapse to the constant 1.
        assert_eq!(CampaignRng::new(1).geometric(1), 1);
        assert_eq!(CampaignRng::new(1).geometric(0), 1);
    }

    #[test]
    fn shrink_finds_the_minimal_failing_pair() {
        // Failure iff both 3 and 7 are present — buried in noise.
        let events: Vec<u32> = vec![1, 2, 3, 4, 5, 6, 7, 8, 9];
        let mut probes = 0;
        let minimal = shrink_events(&events, |c| {
            probes += 1;
            c.contains(&3) && c.contains(&7)
        });
        assert_eq!(minimal, vec![3, 7]);
        assert!(probes < 100, "shrink probed {probes} times");
    }

    #[test]
    fn shrink_handles_unconditional_and_non_failing_oracles() {
        // Failure independent of the events: shrinks to empty.
        let minimal = shrink_events(&[1, 2, 3], |_| true);
        assert!(minimal.is_empty());
        // Not failing on entry: input returned unchanged.
        let kept = shrink_events(&[1, 2, 3], |_| false);
        assert_eq!(kept, vec![1, 2, 3]);
    }

    #[test]
    fn shrink_single_event_minimum() {
        let events: Vec<u32> = (0..33).collect();
        let minimal = shrink_events(&events, |c| c.contains(&17));
        assert_eq!(minimal, vec![17]);
    }
}
