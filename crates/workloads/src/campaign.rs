//! The Monte Carlo fault campaign: seeded fault cases, each one a
//! [`JobSpec`], judged on the [`JobRecord`] of its run and shrunk to minimal
//! regression cases.
//!
//! The paper validates SDR-MPI against a handful of hand-picked crash
//! scenarios (Figure 3, Figure 4); a replication protocol earns trust from
//! *campaigns* — hundreds of randomized fault injections per configuration,
//! every one reproducible from a small seed. A case is a
//! [`CampaignConfig`] (job shape plus [`FaultDistribution`]) and the spec
//! [`case_spec`] samples for it: the same one-line job description
//! `sdr_serve` accepts, so every case doubles as its own replay handle.
//!
//! Sampling rules (DESIGN.md §4.2):
//!
//! * **Pure sampling.** [`case_spec`] is a pure function of
//!   `(config, seed, iterations, workers)`: no ambient randomness, no
//!   floating point, no platform-dependent state. Two calls with the same
//!   inputs yield equal specs, so a case can be referenced by its seed alone.
//! * **Integer-only distributions.** The exponential inter-failure law is
//!   sampled as its discrete counterpart, the geometric distribution
//!   ([`CampaignRng::geometric`]): memoryless, mean `mean_sends`, and exact
//!   with nothing but integer comparisons — no `ln`, so cases cannot drift
//!   across platforms or math libraries.
//! * **Replica-set aware.** Crash distributions take endpoints from the
//!   job's [`ReplicaMap`] so they can either *guarantee* single-replica loss
//!   (the survivable regime the paper's protocol covers) or *force*
//!   correlated loss of every replica of one rank (the regime that must abort
//!   promptly).
//!
//! [`run_case`] runs a case's spec through the serve engine's [`run_job`] —
//! crashes compile to [`sim_mpi::JobBuilder::crash`] schedules (each
//! endpoint's own `CrashSchedule`), soft errors to
//! [`sim_mpi::JobBuilder::sdc_flip`] PML corruption hooks — and judges the
//! job's [`JobRecord`], the record `sdr_serve` streams for the same spec
//! line:
//!
//! * single-replica-loss distributions (`exp-mtbf`, `mid-collective`) must be
//!   **survived** — every non-crashed process finishes with the closed-form
//!   checksum;
//! * `correlated-pair` loss must **abort promptly** with
//!   `MpiError::RankLost` naming the dead rank;
//! * `sdc` flips must be **detected** by the redMPI cross-replica hash
//!   comparison, exactly once per injected flip.
//!
//! Lossy-transport distributions (`lossy-links`, `delayed-acks`) carry a
//! [`sim_mpi::JobBuilder::net_faults`] policy install in their spec: the
//! fabric drops/duplicates/delays frames per the sampled
//! [`sim_net::NetFaultConfig`], and the case must be **masked** — every
//! process finishes, the results are bit-identical to the record of a
//! fault-free twin of the same spec, the duplicate accounting pairs up
//! (`dups_suppressed == msgs_duplicated`: the fabric records both where it
//! draws a duplicate verdict, so this is exact at the draw), and any drop
//! forces at least one retransmission. Lossy cases rotate through the five NAS kernels plus the
//! collective-heavy app ([`lossy_workload`]), so the masking claim covers
//! halo exchanges, all-to-all transposes and pipelined sweeps, not just one
//! traffic shape.
//!
//! Any deviation is a *violation*; [`shrink`] reruns the violating spec
//! under the deterministic single-worker scheduler, reduces its fault items
//! to a locally minimal failing subset by delta debugging, and returns the
//! minimal case as a spec line.

use crate::nas::NasKernel;
use crate::serve::{
    run_job, CrashFault, JobRecord, JobSpec, JobStatus, LayoutSpec, NetFaultSpec, SdcFault,
    WorkloadKind,
};
use bytes::Bytes;
use repl_baselines::{RedMpiFactory, SdcReport};
use sdr_core::ReplicaMap;
use sim_mpi::{Process, ReduceOp};
use sim_net::netfault::splitmix64;
use sim_net::{CrashSchedule, EndpointId, NetFaultConfig, SimTime, StatsSnapshot};
use std::sync::Arc;
use std::time::Instant;

/// The collective-heavy campaign workload: every iteration mixes a ring
/// halo exchange (the per-rank send traffic crash schedules count) with an
/// allreduce, like the mid-collective scenario of `tests/fault_scenarios.rs`.
/// Returns the accumulated allreduce series as the checksum.
pub fn collective_app(p: &mut Process, iterations: u64) -> f64 {
    let world = p.world();
    let mut acc = 0.0f64;
    for it in 0..iterations {
        let peer = (p.rank() + 1) % p.size();
        let from = (p.rank() + p.size() - 1) % p.size();
        p.sendrecv_bytes(
            world,
            peer,
            1,
            Bytes::from(vec![it as u8; 64]),
            from as i64,
            1,
        );
        acc += p.allreduce_f64(world, ReduceOp::Sum, (p.rank() as u64 + it) as f64);
    }
    acc
}

/// Closed-form checksum of [`collective_app`]: per iteration the allreduce
/// sums `rank + it` over all ranks, accumulated over iterations.
pub fn collective_checksum(ranks: usize, iterations: u64) -> f64 {
    (0..iterations)
        .map(|it| (0..ranks as u64).map(|r| (r + it) as f64).sum::<f64>())
        .sum()
}

/// The SDC campaign workload: a pure ring exchange with kilobyte payloads —
/// exactly one application send per endpoint per iteration, so a flip's
/// `nth_send` lands iff it is in `[1, iterations]`, and every payload is
/// large enough to absorb any sampled bit index.
pub fn ring_app(p: &mut Process, iterations: u64) -> f64 {
    let world = p.world();
    let peer = (p.rank() + 1) % p.size();
    let from = (p.rank() + p.size() - 1) % p.size();
    let mut acc = 0.0f64;
    for it in 0..iterations {
        let payload = Bytes::from(vec![(it as u8).wrapping_add(p.rank() as u8); 1024]);
        let (_, data) = p.sendrecv_bytes(world, peer, 1, payload, from as i64, 1);
        acc += data[0] as f64;
    }
    acc
}

/// Deterministic splitmix64 generator used for case sampling.
///
/// The same generator the vendored proptest stand-in uses: tiny state, full
/// 64-bit period-free mixing, identical output on every platform. Campaign
/// cases derive all their randomness from one of these seeded with
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
        let z = splitmix64(self.0);
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z
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

/// Parameterized fault distributions a campaign draws its cases' faults from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDistribution {
    /// Exponential (discretized: geometric) mean-time-between-failures per
    /// process, measured in application sends. Each endpoint independently
    /// draws an inter-failure time; it crashes if the draw lands within the
    /// run's horizon. At most one replica per rank is ever killed (draws on
    /// a rank that already lost a replica are discarded), so every sampled
    /// case stays inside the protocol's survivable single-replica-loss
    /// regime — any non-survival is a protocol bug, not sampling bad luck.
    ExponentialMtbf {
        /// Mean sends between failures of one process.
        mean_sends: u64,
        /// Only draws `<= horizon_sends` become crashes (the run is finite).
        horizon_sends: u64,
        /// Upper bound on crashes per case.
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
    /// Lossy links: one fabric-wide transport policy (the spec's
    /// [`JobSpec::net_faults`]) whose drop/duplicate/delay rates are drawn uniformly in `[1, max]` per
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

/// Fold the configuration into the case seed so that the same seed under
/// different configurations yields unrelated cases. FNV-1a over the canonical
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

/// The workload a lossy-transport case runs, rotated by case seed: the five
/// NAS kernels (class-S sizing) plus the collective-heavy campaign app.
pub fn lossy_workload(seed: u64, iterations: u64) -> WorkloadKind {
    match NasKernel::all().get((seed % 6) as usize) {
        Some(&kernel) => WorkloadKind::Nas(kernel),
        None => WorkloadKind::Collective { iterations },
    }
}

/// The one spec constructor: the job case `(config, seed)` runs, with the
/// faults sampled for it written straight into its crash / bit-flip /
/// net-fault fields. The configuration picks the layout (the partial layout
/// the [`FaultDistribution::UnreplicatedBias`] mask describes, full
/// replication at the configured degree otherwise) and the workload (the
/// ring exchange for soft errors, the seed-rotated [`lossy_workload`] for
/// the lossy-transport distributions, the collective app for every crash
/// distribution, all at `iterations`); `workers` is the scheduler pool size
/// (`None` keeps the launcher's default). NAS workloads run at class S.
/// Pure: no ambient state, no floating point; the spec round-trips through
/// the wire format, so its JSON line replays the case under
/// `sdr_serve --queue`.
pub fn case_spec(
    config: CampaignConfig,
    seed: u64,
    iterations: u64,
    workers: Option<usize>,
) -> JobSpec {
    assert!(config.ranks > 0, "a campaign needs at least one rank");
    assert!(config.degree > 0, "a campaign needs degree >= 1");
    let (layout, map) = match config.dist {
        FaultDistribution::UnreplicatedBias {
            replicated_mask, ..
        } => {
            assert!(config.ranks <= 64, "the replicated mask covers 64 ranks");
            let replicated: Vec<usize> = (0..config.ranks)
                .filter(|r| replicated_mask & (1u64 << r) != 0)
                .collect();
            let map = ReplicaMap::partial(config.ranks, &replicated)
                .expect("the replicated mask names at least one rank of the job");
            (LayoutSpec::Partial { replicated }, map)
        }
        _ => (
            LayoutSpec::Replicated {
                degree: config.degree,
            },
            ReplicaMap::uniform(config.ranks, config.degree),
        ),
    };
    let workload = match config.dist {
        FaultDistribution::SoftErrors { .. } => WorkloadKind::Ring { iterations },
        FaultDistribution::LossyLinks { .. } | FaultDistribution::DelayedAcks { .. } => {
            lossy_workload(seed, iterations)
        }
        _ => WorkloadKind::Collective { iterations },
    };
    let mut spec = JobSpec {
        id: format!("{}-d{}-seed{seed}", config.dist.name(), config.degree),
        workload,
        ranks: config.ranks,
        class: "s".to_string(),
        layout,
        carrier_mode: None,
        workers,
        seed,
        crashes: Vec::new(),
        sdc: Vec::new(),
        net_faults: None,
        trace: false,
    };
    let crash = |endpoint: EndpointId, nth| CrashFault {
        endpoint: endpoint.0,
        schedule: CrashSchedule::AfterSend { nth },
    };
    let mut rng = CampaignRng::new(mix_seed(&config, seed));
    let n_eps = map.physical_processes() as u64;
    match config.dist {
        FaultDistribution::ExponentialMtbf {
            mean_sends,
            horizon_sends,
            max_crashes,
        } => {
            // Fixed endpoint order keeps sampling canonical; ranks that
            // already lost a replica are skipped so the case stays inside
            // the survivable regime by construction.
            let mut lost_ranks = vec![false; config.ranks];
            for ep in (0..map.physical_processes()).map(EndpointId) {
                if spec.crashes.len() >= max_crashes {
                    break;
                }
                let nth = rng.geometric(mean_sends);
                let rank = map.rank_of(ep);
                if nth <= horizon_sends && !lost_ranks[rank] {
                    lost_ranks[rank] = true;
                    spec.crashes.push(crash(ep, nth));
                }
            }
        }
        FaultDistribution::CorrelatedPairLoss {
            mean_sends,
            horizon_sends,
        } => {
            let rank = rng.below(config.ranks as u64) as usize;
            let horizon = horizon_sends.max(1);
            for replica in 0..config.degree {
                let nth = (rng.geometric(mean_sends) - 1) % horizon + 1;
                spec.crashes.push(crash(map.endpoint(rank, replica), nth));
            }
        }
        FaultDistribution::MidCollective { max_phase } => {
            let ep = EndpointId(rng.below(n_eps) as usize);
            let nth = 1 + rng.below(max_phase.max(1));
            spec.crashes.push(crash(ep, nth));
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
            while spec.sdc.len() < flips && attempts < flips * 64 + 64 {
                attempts += 1;
                let endpoint = rng.below(n_eps) as usize;
                let nth_send = 1 + rng.below(max_send.max(1));
                let bit = rng.below(payload_bits.max(1) as u64) as u32;
                if taken.insert((endpoint, nth_send)) {
                    spec.sdc.push(SdcFault {
                        endpoint,
                        nth_send,
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
            // One fabric-wide policy per case; each rate is drawn in
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
            spec.net_faults = Some(NetFaultSpec {
                config,
                seed: rng.next_u64(),
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
            spec.net_faults = Some(NetFaultSpec {
                config,
                seed: rng.next_u64(),
            });
        }
        FaultDistribution::UnreplicatedBias { horizon_sends, .. } => {
            let (rep, unrep): (Vec<usize>, Vec<usize>) =
                (0..config.ranks).partition(|&r| map.is_replicated(r));
            let nth = 1 + rng.below(horizon_sends.max(1));
            // 3:1 bias toward unreplicated ranks (fall back to whichever
            // side is non-empty).
            let pick_unrep = !unrep.is_empty() && (rep.is_empty() || rng.below(4) < 3);
            let pool = if pick_unrep { &unrep } else { &rep };
            let rank = pool[rng.below(pool.len() as u64) as usize];
            spec.crashes.push(crash(map.endpoint(rank, 0), nth));
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
            for replica in (0..config.degree).filter(|&r| r != spared) {
                let nth = (rng.geometric(mean_sends) - 1) % horizon + 1;
                spec.crashes.push(crash(map.endpoint(rank, replica), nth));
            }
        }
    }
    spec
}

/// The verdict on one campaign case: the job's service record plus what a
/// record cannot say — the verdict, and the measurements that need a second
/// run or another protocol.
#[derive(Debug, Clone)]
pub struct CaseOutcome {
    /// The job's record, as `sdr_serve` streams it: the case's spec, seed,
    /// crashes, injected flips and transport counters are read from here, and
    /// `record.spec.to_json().encode()` is the line that replays the case
    /// under `sdr_serve --queue`.
    pub record: JobRecord,
    /// Did the job survive (all non-crashed processes finished with the
    /// expected checksum)? Always false for abort-expected distributions.
    pub survived: bool,
    /// Virtual-time overhead of the masked lossy run relative to its
    /// fault-free twin, in percent. `None` for non-lossy distributions.
    pub masked_overhead_pct: Option<f64>,
    /// Flips detected by the redMPI cross-replica comparison.
    pub sdc_detected: u64,
    /// Flips outvoted by a hash majority (degree ≥ 3 only): detected *and*
    /// attributable to the corrupt copy, so the receiver can substitute the
    /// majority payload.
    pub sdc_corrected: u64,
    /// Violation of the distribution's expectation, if any.
    pub violation: Option<String>,
}

impl CaseOutcome {
    /// Survived runs with at least one crash: virtual seconds from the first
    /// crash to job completion (the recovery latency the campaign
    /// aggregates). A crashed process's finish time is its crash time.
    pub fn recovery_latency_s(&self) -> Option<f64> {
        let first_crash = self
            .record
            .processes
            .iter()
            .filter(|p| p.outcome == "crashed")
            .map(|p| SimTime::from_nanos(p.finish_ns))
            .min()?;
        let elapsed = SimTime::from_nanos(self.record.elapsed_ns);
        self.survived.then(|| (elapsed - first_crash).as_secs_f64())
    }
}

const SINGLE_WORKER: Option<usize> = Some(1);

fn record_of(spec: &JobSpec) -> JobRecord {
    run_job(spec, 0).unwrap_or_else(|e| panic!("campaign case {} does not compile: {e}", spec.id))
}

/// Why `record` is not a fully survived run of the collective app — some
/// non-crashed process did not finish with the closed-form checksum — or
/// `None` when it is.
fn survival_failure(record: &JobRecord) -> Option<String> {
    let spec = &record.spec;
    let WorkloadKind::Collective { iterations } = spec.workload else {
        panic!("{}: the survival oracle runs the collective app", spec.id)
    };
    let expected = collective_checksum(spec.ranks, iterations);
    let mut survivors = record.processes.iter().filter(|p| p.outcome != "crashed");
    survivors.find_map(|p| match p.result_bits.map(f64::from_bits) {
        Some(v) if v == expected => None,
        Some(v) => Some(format!(
            "survivor {} finished with wrong checksum {v} (expected {expected})",
            p.endpoint
        )),
        None => Some(format!(
            "survivor {} did not finish: {}",
            p.endpoint, p.outcome
        )),
    })
}

/// Run one campaign case — `config` and a spec sampled for it by
/// [`case_spec`] or written by hand — and judge its record against the
/// distribution's expectation (see the module docs):
///
/// * **crash** distributions: correlated loss of both replicas of a rank,
///   or — on the partial layout of [`FaultDistribution::UnreplicatedBias`]
///   — the loss of an unreplicated rank, must abort promptly with a typed
///   `RankLost` (never a hang or a wrong answer); every other loss leaves
///   one replica per rank (majority loss at degree ≥ 3 included:
///   substitution masks it) and must be survived;
/// * **lossy** distributions: a fault-free twin of the spec runs first, and
///   the faulted run must finish with every replica of every rank returning
///   the twin's exact bit pattern, every injected duplicate suppressed, and
///   retransmissions behind any drop;
/// * **soft errors**: the spec compiles its bit flips like any other job;
///   only the protocol is swapped for the redMPI baseline, whose
///   cross-replica hash comparison is what detects them (the spec line of
///   an SDC case therefore replays the *injection* under SDR-MPI, not the
///   detection).
pub fn run_case(config: CampaignConfig, spec: JobSpec) -> CaseOutcome {
    let mut masked_overhead_pct = None;
    let (mut sdc_detected, mut sdc_corrected) = (0, 0);
    let (record, survived, violation) = match config.dist {
        FaultDistribution::SoftErrors { .. } => {
            assert!(
                config.degree >= 2,
                "the redMPI comparison needs at least two replicas"
            );
            let votes = SdcReport::new();
            let app = spec.app();
            let builder = spec
                .compile()
                .unwrap_or_else(|e| panic!("campaign case {} does not compile: {e}", spec.id))
                .protocol(Arc::new(RedMpiFactory::with_degree(
                    config.degree,
                    Arc::clone(&votes),
                )));
            let started = Instant::now();
            let report = builder.run(move |p| (app)(p));
            let record = JobRecord::from_report(&spec, &report, 0, started.elapsed().as_secs_f64());
            let survived = record.status == JobStatus::Finished;
            let injected = record.sdc_flips_injected;
            (sdc_detected, sdc_corrected) = (votes.mismatches(), votes.corrected());
            let violation = if !survived {
                Some("SDC run did not finish cleanly".to_string())
            } else if sdc_detected != injected {
                Some(format!(
                    "SDC detection mismatch: {injected} flips injected, {sdc_detected} detected"
                ))
            } else if config.degree >= 3 && sdc_corrected != injected {
                // A single in-flight flip is the minority of ≥ 3 hash votes,
                // so at degree ≥ 3 every detection must also be a correction.
                Some(format!(
                    "SDC correction mismatch at degree {}: {injected} flips injected, \
                     {sdc_corrected} outvoted",
                    config.degree
                ))
            } else {
                None
            };
            (record, survived, violation)
        }
        FaultDistribution::LossyLinks { .. } | FaultDistribution::DelayedAcks { .. } => {
            let workload = spec.workload.name();
            let reference = record_of(&JobSpec {
                crashes: Vec::new(),
                sdc: Vec::new(),
                net_faults: None,
                ..spec.clone()
            });
            assert_eq!(
                reference.status,
                JobStatus::Finished,
                "{workload}: the fault-free reference run must finish"
            );
            let record = record_of(&spec);
            let bits = |r: &JobRecord| -> Vec<Option<u64>> {
                r.processes.iter().map(|p| p.result_bits).collect()
            };
            let violation = if record.status != JobStatus::Finished {
                Some(format!(
                    "{workload}: lossy run did not finish cleanly ({})",
                    record.status.name()
                ))
            } else if bits(&record) != bits(&reference) {
                Some(format!(
                    "{workload}: masked run diverged from the fault-free reference \
                     ({:?} vs {:?})",
                    bits(&record),
                    bits(&reference)
                ))
            } else if record.dups_suppressed != record.msgs_duplicated {
                Some(format!(
                    "{workload}: duplicate accounting broken: {} copies injected, {} suppressed",
                    record.msgs_duplicated, record.dups_suppressed
                ))
            } else if record.msgs_dropped > 0 && record.retransmits == 0 {
                Some(format!(
                    "{workload}: {} frames dropped but no retransmission fired",
                    record.msgs_dropped
                ))
            } else {
                None
            };
            let secs = |r: &JobRecord| SimTime::from_nanos(r.elapsed_ns).as_secs_f64();
            let ref_secs = secs(&reference);
            masked_overhead_pct =
                (ref_secs > 0.0).then(|| (secs(&record) - ref_secs) / ref_secs * 100.0);
            (record, violation.is_none(), violation)
        }
        _ => {
            let unrecoverable = match config.dist {
                FaultDistribution::CorrelatedPairLoss { .. } => {
                    Some("correlated loss of both replicas".to_string())
                }
                // The sampler's single crash always hits endpoint `r` = the
                // rank id; coverage of that rank decides the expectation.
                FaultDistribution::UnreplicatedBias {
                    replicated_mask, ..
                } => spec
                    .crashes
                    .first()
                    .map(|c| c.endpoint)
                    .filter(|&ep| ep < config.ranks && replicated_mask & (1u64 << ep) == 0)
                    .map(|ep| format!("crash of unreplicated rank {ep}")),
                _ => None,
            };
            let record = record_of(&spec);
            let not_survived = survival_failure(&record);
            let survived = not_survived.is_none();
            let violation = match unrecoverable {
                Some(_) if record.status == JobStatus::Aborted => None,
                Some(loss) => Some(format!(
                    "{loss} was not reported as RankLost (survived={survived}, crashes={})",
                    record.crashes
                )),
                None => not_survived,
            };
            (record, survived, violation)
        }
    };
    CaseOutcome {
        record,
        survived,
        masked_overhead_pct,
        sdc_detected,
        sdc_corrected,
        violation,
    }
}

/// Run `cases` seeded cases (`base_seed`, `base_seed + 1`, ...) under one
/// configuration.
pub fn run_campaign(
    config: CampaignConfig,
    base_seed: u64,
    cases: usize,
    iterations: u64,
    workers: Option<usize>,
) -> Vec<CaseOutcome> {
    (0..cases as u64)
        .map(|i| {
            run_case(
                config,
                case_spec(config, base_seed + i, iterations, workers),
            )
        })
        .collect()
}

/// Order statistics of a sample — the one place the harnesses compute
/// them. Named for its first use, recovery latencies in seconds; the
/// masked-overhead percentages reuse it with their own unit. Medians over
/// means, per the *MPI Benchmarking Revisited* guidance for skewed
/// distributions.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencyStats {
    /// Number of samples.
    pub samples: usize,
    /// Minimum.
    pub min_s: f64,
    /// Median (the lower central element for even sample counts).
    pub median_s: f64,
    /// 90th percentile.
    pub p90_s: f64,
    /// Maximum.
    pub max_s: f64,
}

impl LatencyStats {
    /// Summarize a sample (empty samples give all-zero stats): the `q`
    /// quantile is element `(n - 1)·q` of the sorted sample, rounded down.
    pub fn from_samples(mut secs: Vec<f64>) -> LatencyStats {
        if secs.is_empty() {
            return LatencyStats::default();
        }
        secs.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
        let pick = |q_num: usize, q_den: usize| secs[(secs.len() - 1) * q_num / q_den];
        LatencyStats {
            samples: secs.len(),
            min_s: secs[0],
            median_s: pick(1, 2),
            p90_s: pick(9, 10),
            max_s: *secs.last().expect("non-empty"),
        }
    }
}

/// One expectation violation, with its replay handles: the case seed (which
/// resamples the case) and the spec line that reruns the job standalone.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// The case seed.
    pub seed: u64,
    /// What went wrong.
    pub detail: String,
    /// The violating job as one `sdr_serve --queue` line.
    pub spec: String,
}

/// Aggregates of one configuration's campaign.
#[derive(Debug, Clone)]
pub struct CampaignSummary {
    /// The configuration.
    pub config: CampaignConfig,
    /// Cases run.
    pub cases: usize,
    /// Cases fully survived.
    pub survived: usize,
    /// Cases aborted with a clear `RankLost` report.
    pub aborted: usize,
    /// Crashes that actually fired, across all cases.
    pub crashes_injected: u64,
    /// Soft-error flips injected across all cases.
    pub sdc_injected: u64,
    /// Soft-error flips detected across all cases.
    pub sdc_detected: u64,
    /// Soft-error flips outvoted by a hash majority (degree ≥ 3 cases).
    pub sdc_corrected: u64,
    /// Recovery-latency distribution over the survived-with-crash cases.
    pub recovery_latency: LatencyStats,
    /// The five transport counters every [`JobRecord`] carries
    /// (`msgs_dropped`, `msgs_duplicated`, `msgs_delayed`, `retransmits`,
    /// `dups_suppressed`), summed over the cases; the rest of the snapshot
    /// stays zero.
    pub net: StatsSnapshot,
    /// Median masked-delivery overhead over the lossy cases, percent of the
    /// fault-free virtual run time.
    pub masked_overhead_median_pct: f64,
    /// 90th-percentile masked-delivery overhead, percent.
    pub masked_overhead_p90_pct: f64,
    /// Every expectation violation.
    pub violations: Vec<Violation>,
}

impl CampaignSummary {
    /// Fraction of cases fully survived.
    pub fn survival_rate(&self) -> f64 {
        if self.cases == 0 {
            return 1.0;
        }
        self.survived as f64 / self.cases as f64
    }

    /// Fraction of cases aborted with a clear `RankLost` report.
    pub fn abort_rate(&self) -> f64 {
        if self.cases == 0 {
            return 0.0;
        }
        self.aborted as f64 / self.cases as f64
    }

    /// Fraction of injected flips detected (1.0 when nothing was injected).
    pub fn sdc_detection_rate(&self) -> f64 {
        if self.sdc_injected == 0 {
            return 1.0;
        }
        self.sdc_detected as f64 / self.sdc_injected as f64
    }

    /// Fraction of injected flips outvoted by a hash majority (1.0 when
    /// nothing was injected; meaningful at degree ≥ 3 only — dual
    /// replication can detect but never attribute).
    pub fn sdc_correction_rate(&self) -> f64 {
        if self.sdc_injected == 0 {
            return 1.0;
        }
        self.sdc_corrected as f64 / self.sdc_injected as f64
    }
}

/// Aggregate a configuration's case outcomes.
pub fn summarize(config: CampaignConfig, outcomes: &[CaseOutcome]) -> CampaignSummary {
    let sum = |counter: fn(&JobRecord) -> u64| -> u64 {
        outcomes.iter().map(|o| counter(&o.record)).sum()
    };
    let overhead = LatencyStats::from_samples(
        outcomes
            .iter()
            .filter_map(|o| o.masked_overhead_pct)
            .collect(),
    );
    CampaignSummary {
        config,
        cases: outcomes.len(),
        survived: outcomes.iter().filter(|o| o.survived).count(),
        aborted: outcomes
            .iter()
            .filter(|o| o.record.status == JobStatus::Aborted)
            .count(),
        crashes_injected: sum(|r| r.crashes as u64),
        sdc_injected: sum(|r| r.sdc_flips_injected),
        sdc_detected: outcomes.iter().map(|o| o.sdc_detected).sum(),
        sdc_corrected: outcomes.iter().map(|o| o.sdc_corrected).sum(),
        recovery_latency: LatencyStats::from_samples(
            outcomes
                .iter()
                .filter_map(CaseOutcome::recovery_latency_s)
                .collect(),
        ),
        net: StatsSnapshot {
            msgs_dropped: sum(|r| r.msgs_dropped),
            msgs_duplicated: sum(|r| r.msgs_duplicated),
            msgs_delayed: sum(|r| r.msgs_delayed),
            retransmits: sum(|r| r.retransmits),
            dups_suppressed: sum(|r| r.dups_suppressed),
            ..StatsSnapshot::default()
        },
        masked_overhead_median_pct: overhead.median_s,
        masked_overhead_p90_pct: overhead.p90_s,
        violations: outcomes
            .iter()
            .filter_map(|o| {
                o.violation.clone().map(|detail| Violation {
                    seed: o.record.spec.seed,
                    detail,
                    spec: o.record.spec.to_json().encode(),
                })
            })
            .collect(),
    }
}

/// Result of shrinking a violating case.
#[derive(Debug, Clone)]
pub struct ShrinkOutcome {
    /// The locally minimal failing case: the input spec at `workers: 1`,
    /// keeping only the fault items the violation needs. It is the exact job
    /// the oracle's last failing probe ran; `spec.to_json().encode()` is its
    /// `sdr_serve --queue` line.
    pub spec: JobSpec,
    /// Oracle replays the search needed.
    pub probes: usize,
}

/// Shrink a survivability violation — a sampled case, or one composed by
/// hand (e.g. a campaign-found fatal pair buried in survivable noise) — to a
/// spec with a locally minimal subset of its fault items. The items are the
/// spec's own crashes, bit flips and transport policy, taken as one list.
/// The oracle — does running the spec (a [`collective_app`] job) leave some
/// non-crashed process without the closed-form checksum? — reruns every
/// candidate at `workers: 1`, so the search is exact. Returns `None` when
/// the full spec does not violate survivability (nothing to shrink).
pub fn shrink(spec: JobSpec) -> Option<ShrinkOutcome> {
    let spec = JobSpec {
        workers: SINGLE_WORKER,
        ..spec
    };
    let violates = |spec: &JobSpec| survival_failure(&record_of(spec)).is_some();
    if !violates(&spec) {
        return None;
    }
    let items = spec.crashes.len() + spec.sdc.len() + usize::from(spec.net_faults.is_some());
    let mut probes = 1;
    let kept = shrink_events(&(0..items).collect::<Vec<_>>(), |candidate| {
        probes += 1;
        violates(&keep_faults(&spec, candidate))
    });
    Some(ShrinkOutcome {
        spec: keep_faults(&spec, &kept),
        probes,
    })
}

/// `spec` with only the fault items at positions `kept` of its fault list:
/// the crashes, then the bit flips, then the transport policy.
fn keep_faults(spec: &JobSpec, kept: &[usize]) -> JobSpec {
    let (crashes, flips) = (spec.crashes.len(), spec.sdc.len());
    JobSpec {
        crashes: kept
            .iter()
            .filter_map(|&i| spec.crashes.get(i))
            .copied()
            .collect(),
        sdc: kept
            .iter()
            .filter_map(|&i| spec.sdc.get(i.checked_sub(crashes)?))
            .copied()
            .collect(),
        net_faults: spec
            .net_faults
            .filter(|_| kept.contains(&(crashes + flips))),
        ..spec.clone()
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
fn shrink_events<E, F>(events: &[E], mut fails: F) -> Vec<E>
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

    fn crashes_of(config: CampaignConfig, seed: u64) -> Vec<CrashFault> {
        case_spec(config, seed, 6, None).crashes
    }

    fn nth_of(crash: &CrashFault) -> u64 {
        match crash.schedule {
            CrashSchedule::AfterSend { nth } => nth,
            other => panic!("unexpected schedule {other:?}"),
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
                let a = case_spec(cfg(dist), seed, 6, None);
                let b = case_spec(cfg(dist), seed, 6, None);
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn different_seeds_give_different_faults() {
        let dist = FaultDistribution::SoftErrors {
            flips: 4,
            max_send: 1 << 20,
            payload_bits: 8192,
        };
        let flips: Vec<_> = (0..256u64)
            .map(|seed| case_spec(cfg(dist), seed, 6, None).sdc)
            .collect();
        // The fault space is astronomically larger than 256; any collision
        // at all would indicate broken seed mixing. (Deterministic: this is a
        // fixed fact of the generator, not a flaky statistical test.)
        for (i, a) in flips.iter().enumerate() {
            assert!(flips[i + 1..].iter().all(|b| a != b), "seed {i} collides");
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
            let crashes = crashes_of(cfg(dist), seed);
            let mut per_rank = [0usize; 4];
            for c in &crashes {
                assert!(nth_of(c) >= 1);
                per_rank[c.endpoint % 4] += 1;
            }
            assert!(
                per_rank.iter().all(|&c| c <= 1),
                "seed {seed} killed two replicas of one rank: {crashes:?}"
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
            let crashes = crashes_of(cfg(dist), seed);
            assert_eq!(crashes.len(), 2);
            assert_eq!(
                crashes[0].endpoint % 4,
                crashes[1].endpoint % 4,
                "same rank"
            );
            assert_ne!(
                crashes[0].endpoint, crashes[1].endpoint,
                "different replicas"
            );
            assert!(crashes.iter().all(|c| (1..=3).contains(&nth_of(c))));
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
            let spec = case_spec(cfg(dist), seed, 6, None);
            assert!(
                spec.crashes.is_empty() && spec.net_faults.is_none(),
                "seed {seed}: a soft-error case holds only flips"
            );
            let mut targets = Vec::new();
            for flip in &spec.sdc {
                assert!((1..=6).contains(&flip.nth_send));
                assert!(flip.bit < 64);
                targets.push((flip.endpoint, flip.nth_send));
            }
            let mut dedup = targets.clone();
            dedup.sort();
            dedup.dedup();
            assert_eq!(targets.len(), dedup.len(), "seed {seed} repeated a target");
        }
    }

    #[test]
    fn lossy_links_cases_are_well_formed() {
        let dist = FaultDistribution::LossyLinks {
            max_drop_per_64k: 3277,
            max_dup_per_64k: 3277,
            max_delay_per_64k: 3277,
        };
        let mut distinct = std::collections::BTreeSet::new();
        for seed in 0..100 {
            let spec = case_spec(cfg(dist), seed, 6, None);
            assert!(spec.crashes.is_empty() && spec.sdc.is_empty());
            let net = spec
                .net_faults
                .unwrap_or_else(|| panic!("one fabric-wide policy per case: {spec:?}"));
            let config = net.config;
            config.validate();
            assert!((1..=3277).contains(&config.drop_per_64k));
            assert!((1..=3277).contains(&config.dup_per_64k));
            assert!((1..=3277).contains(&config.delay_per_64k));
            assert!((5_000..=50_000).contains(&config.delay_ns));
            assert!(!config.ack_only);
            distinct.insert((config.drop_per_64k, config.delay_ns, net.seed));
        }
        assert!(distinct.len() > 90, "seeds must spread the sampled rates");
    }

    #[test]
    fn delayed_acks_cases_always_outlast_the_retx_base() {
        let dist = FaultDistribution::DelayedAcks {
            max_delay_per_64k: 32_768,
            max_delay_ns: 400_000,
        };
        for seed in 0..100 {
            let spec = case_spec(cfg(dist), seed, 6, None);
            let config = spec
                .net_faults
                .unwrap_or_else(|| panic!("one policy per case: {spec:?}"))
                .config;
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
            let crashes = crashes_of(cfg(dist), seed);
            assert_eq!(crashes.len(), 1, "one crash per case");
            let ep = crashes[0].endpoint;
            assert!(ep < 4, "always the rank-numbered copy: {ep}");
            assert!((1..=8).contains(&nth_of(&crashes[0])));
            if ep == 1 || ep == 3 {
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
    fn unreplicated_bias_respects_a_fully_replicated_mask() {
        // Everything replicated: crashes must still come from somewhere.
        let all = FaultDistribution::UnreplicatedBias {
            replicated_mask: 0b1111,
            horizon_sends: 4,
        };
        for seed in 0..50 {
            assert_eq!(crashes_of(cfg(all), seed).len(), 1);
        }
    }

    #[test]
    #[should_panic(expected = "the replicated mask names at least one rank")]
    fn unreplicated_bias_rejects_an_empty_mask() {
        // Nothing replicated is no partial layout: the spec could not run.
        let none = FaultDistribution::UnreplicatedBias {
            replicated_mask: 0,
            horizon_sends: 4,
        };
        crashes_of(cfg(none), 0);
    }

    #[test]
    fn majority_loss_spares_exactly_one_replica() {
        let config = CampaignConfig {
            ranks: 4,
            degree: 3,
            dist: FaultDistribution::MajorityLoss {
                mean_sends: 4,
                horizon_sends: 3,
            },
        };
        let mut spared_seen = std::collections::BTreeSet::new();
        for seed in 0..100 {
            let crashes = crashes_of(config, seed);
            assert_eq!(crashes.len(), 2, "two of three replicas die");
            let rank = crashes[0].endpoint % 4;
            let mut dead_reps = std::collections::BTreeSet::new();
            for c in &crashes {
                assert_eq!(c.endpoint % 4, rank, "all crashes on one rank");
                dead_reps.insert(c.endpoint / 4);
                assert!((1..=3).contains(&nth_of(c)));
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
    fn shrink_events_finds_the_minimal_failing_pair() {
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
    fn shrink_events_handles_unconditional_and_non_failing_oracles() {
        // Failure independent of the events: shrinks to empty.
        let minimal = shrink_events(&[1, 2, 3], |_| true);
        assert!(minimal.is_empty());
        // Not failing on entry: input returned unchanged.
        let kept = shrink_events(&[1, 2, 3], |_| false);
        assert_eq!(kept, vec![1, 2, 3]);
    }

    #[test]
    fn shrink_events_single_event_minimum() {
        let events: Vec<u32> = (0..33).collect();
        let minimal = shrink_events(&events, |c| c.contains(&17));
        assert_eq!(minimal, vec![17]);
    }

    #[test]
    fn keep_faults_indexes_crashes_then_flips_then_the_policy() {
        let spec = JobSpec::parse_line(
            r#"{"id":"items","workload":"collective","ranks":2,"seed":5,
                "crashes":[{"endpoint":0,"kind":"after-send","nth":1},
                           {"endpoint":3,"kind":"after-send","nth":2}],
                "sdc":[{"endpoint":1,"nth_send":1,"bit":3}],
                "net":{"profile":"lossy-links"}}"#,
        )
        .expect("a valid spec line");
        let only = |kept: &[usize]| keep_faults(&spec, kept);
        assert_eq!(only(&[0, 1, 2, 3]), spec);
        assert_eq!(only(&[1]).crashes, spec.crashes[1..]);
        assert!(only(&[1]).sdc.is_empty() && only(&[1]).net_faults.is_none());
        assert_eq!(only(&[2]).sdc, spec.sdc);
        assert!(only(&[2]).crashes.is_empty());
        assert_eq!(only(&[3]).net_faults, spec.net_faults);
        assert!(only(&[]).crashes.is_empty() && only(&[]).net_faults.is_none());
    }

    fn survive_cfg() -> CampaignConfig {
        CampaignConfig {
            ranks: 4,
            degree: 2,
            dist: FaultDistribution::MidCollective { max_phase: 8 },
        }
    }

    #[test]
    fn mid_collective_cases_are_survived() {
        let outcomes = run_campaign(survive_cfg(), 100, 5, 6, None);
        let summary = summarize(survive_cfg(), &outcomes);
        assert_eq!(summary.cases, 5);
        assert!(
            summary.violations.is_empty(),
            "violations: {:?}",
            summary.violations
        );
        assert_eq!(summary.survival_rate(), 1.0);
        assert!(summary.crashes_injected >= 1, "some crash must have fired");
        assert!(summary.recovery_latency.samples >= 1);
        assert!(summary.recovery_latency.min_s >= 0.0);
    }

    #[test]
    fn correlated_pair_cases_abort_with_rank_lost() {
        let cfg = CampaignConfig {
            ranks: 2,
            degree: 2,
            dist: FaultDistribution::CorrelatedPairLoss {
                mean_sends: 3,
                horizon_sends: 3,
            },
        };
        let outcomes = run_campaign(cfg, 7, 4, 6, None);
        let summary = summarize(cfg, &outcomes);
        assert!(
            summary.violations.is_empty(),
            "violations: {:?}",
            summary.violations
        );
        assert_eq!(summary.abort_rate(), 1.0);
        assert_eq!(summary.survival_rate(), 0.0);
    }

    #[test]
    fn sdc_cases_detect_every_injected_flip() {
        let cfg = CampaignConfig {
            ranks: 4,
            degree: 2,
            dist: FaultDistribution::SoftErrors {
                flips: 2,
                max_send: 6,
                payload_bits: 8192,
            },
        };
        let outcomes = run_campaign(cfg, 11, 4, 6, None);
        let summary = summarize(cfg, &outcomes);
        assert!(
            summary.violations.is_empty(),
            "violations: {:?}",
            summary.violations
        );
        assert_eq!(summary.sdc_injected, 8, "2 flips per case, all landing");
        assert_eq!(summary.sdc_detected, 8);
        assert_eq!(summary.sdc_detection_rate(), 1.0);
    }

    #[test]
    fn degree_three_sdc_cases_correct_every_flip() {
        let cfg = CampaignConfig {
            ranks: 4,
            degree: 3,
            dist: FaultDistribution::SoftErrors {
                flips: 2,
                max_send: 6,
                payload_bits: 8192,
            },
        };
        let outcomes = run_campaign(cfg, 19, 3, 6, None);
        let summary = summarize(cfg, &outcomes);
        assert!(
            summary.violations.is_empty(),
            "violations: {:?}",
            summary.violations
        );
        assert_eq!(summary.sdc_injected, 6, "2 flips per case, all landing");
        assert_eq!(summary.sdc_detected, 6);
        assert_eq!(
            summary.sdc_corrected, 6,
            "every flip is the minority of three hash votes"
        );
        assert_eq!(summary.sdc_correction_rate(), 1.0);
    }

    #[test]
    fn majority_loss_cases_survive_on_the_last_replica() {
        let cfg = CampaignConfig {
            ranks: 2,
            degree: 3,
            dist: FaultDistribution::MajorityLoss {
                mean_sends: 3,
                horizon_sends: 3,
            },
        };
        let outcomes = run_campaign(cfg, 23, 4, 6, None);
        let summary = summarize(cfg, &outcomes);
        assert!(
            summary.violations.is_empty(),
            "violations: {:?}",
            summary.violations
        );
        assert_eq!(summary.survival_rate(), 1.0);
        assert_eq!(
            summary.crashes_injected, 8,
            "two of three replicas die in every case"
        );
    }

    #[test]
    fn unreplicated_bias_cases_split_by_coverage() {
        // Ranks 0 and 2 covered, 1 and 3 singletons: covered crashes must be
        // masked, singleton crashes must abort with RankLost.
        let cfg = CampaignConfig {
            ranks: 4,
            degree: 2,
            dist: FaultDistribution::UnreplicatedBias {
                replicated_mask: 0b0101,
                horizon_sends: 6,
            },
        };
        let outcomes = run_campaign(cfg, 40, 8, 6, None);
        let summary = summarize(cfg, &outcomes);
        assert!(
            summary.violations.is_empty(),
            "violations: {:?}",
            summary.violations
        );
        assert_eq!(summary.cases, 8);
        assert!(
            summary.aborted >= 1,
            "the biased sampler must hit a singleton in 8 cases"
        );
        assert_eq!(
            summary.survived + summary.aborted,
            8,
            "every case either survives (covered rank) or aborts (singleton)"
        );
    }

    #[test]
    fn lossy_links_cases_are_fully_masked() {
        // Seeds 12..18 rotate through FT, MG, SP, collective, BT, CG — six
        // different traffic shapes, all of which must mask the sampled
        // drop/duplicate/delay policy bit-exactly.
        let cfg = CampaignConfig {
            ranks: 4,
            degree: 2,
            dist: FaultDistribution::LossyLinks {
                max_drop_per_64k: 3277,
                max_dup_per_64k: 3277,
                max_delay_per_64k: 3277,
            },
        };
        let outcomes = run_campaign(cfg, 12, 6, 6, None);
        let summary = summarize(cfg, &outcomes);
        assert!(
            summary.violations.is_empty(),
            "violations: {:?}",
            summary.violations
        );
        assert_eq!(summary.survival_rate(), 1.0);
        assert!(
            summary.net.msgs_dropped > 0,
            "the seed range must include dropped frames: {:?}",
            summary.net
        );
        assert!(
            summary.net.retransmits > 0,
            "drops must force retransmissions: {:?}",
            summary.net
        );
        assert_eq!(summary.net.dups_suppressed, summary.net.msgs_duplicated);
        let workloads: std::collections::BTreeSet<_> = outcomes
            .iter()
            .map(|o| o.record.spec.workload.name())
            .collect();
        assert_eq!(workloads.len(), 6, "six distinct workloads: {workloads:?}");
        assert!(
            outcomes.iter().all(|o| o.masked_overhead_pct.is_some()),
            "every lossy case records its masked-delivery overhead"
        );
    }

    #[test]
    fn delayed_acks_cases_are_fully_masked() {
        let cfg = CampaignConfig {
            ranks: 4,
            degree: 2,
            dist: FaultDistribution::DelayedAcks {
                max_delay_per_64k: 32_768,
                max_delay_ns: 400_000,
            },
        };
        let outcomes = run_campaign(cfg, 30, 4, 6, None);
        let summary = summarize(cfg, &outcomes);
        assert!(
            summary.violations.is_empty(),
            "violations: {:?}",
            summary.violations
        );
        assert_eq!(summary.survival_rate(), 1.0);
        assert!(
            summary.net.msgs_delayed > 0,
            "the ack-delay policy must have stalled frames: {:?}",
            summary.net
        );
        assert_eq!(summary.net.msgs_dropped, 0, "delayed-acks never drops");
        assert_eq!(summary.net.dups_suppressed, summary.net.msgs_duplicated);
    }

    #[test]
    fn latency_stats_order_statistics() {
        let s = LatencyStats::from_samples(vec![3.0, 1.0, 2.0, 10.0]);
        assert_eq!(s.samples, 4);
        assert_eq!(s.min_s, 1.0);
        assert_eq!(s.median_s, 2.0);
        assert_eq!(s.max_s, 10.0);
        assert_eq!(LatencyStats::from_samples(vec![]), LatencyStats::default());
        // (12 - 1) * 9 / 10 = 9 -> the 10th order statistic.
        let twelve = LatencyStats::from_samples((1..=12).map(f64::from).collect());
        assert_eq!((twelve.median_s, twelve.p90_s), (6.0, 10.0));
    }
}
