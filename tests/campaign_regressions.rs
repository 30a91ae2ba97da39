//! Minimal regression cases found and shrunk by the fault campaign.
//!
//! Each test below pins a fault plan that `workloads::campaign::shrink`
//! reduced: a campaign case that violated the survivability expectation,
//! replayed under the deterministic `--workers 1` scheduler and reduced
//! (delta-debugging over the injected events) to a locally minimal fault
//! plan. The shrinker names that plan as a spec line (`ShrinkOutcome::spec`,
//! replayable with `sdr_serve --queue`); the test states the same plan as
//! Rust and checks that it still violates survivability and that every fault
//! in it is needed. The provenance comment on each test names the
//! `(config, seed)` the case came from, so the full pre-shrink plan can be
//! resampled with `sim_net::campaign::sample_plan`.
//!
//! The first was produced from the correlated-pair case `seed 3` (both
//! replicas of rank 3 lost) buried in two survivable single-replica noise
//! crashes — the shrinker stripped the noise and kept exactly the fatal
//! pair.
//!
//! The second came out of the lossy-transport campaign work: a total-loss
//! link policy (`drop_per_64k: 65536` — every faultable frame dropped, acks
//! included) is beyond what retransmission can mask, so every process
//! exhausts the retransmission-attempt cap. The case was composed with a
//! survivable single-replica noise crash; the shrinker stripped the crash
//! and kept exactly the transport fault
//! (`tests/fault_campaign.rs::shrink_reduces_a_lossy_violation_to_the_transport_fault`
//! shrinks it again).

#[test]
fn campaign_correlated_pair_seed_3_minimal_plan_is_fatal() {
    // Shrunk by workloads::campaign::shrink.
    // config: ranks=4 degree=2 dist=correlated_pair; seed=3;
    // shrunk 4 sampled fault(s) to 2 in 10 oracle probe(s).
    use sdr_mpi::sim_net::campaign::{CampaignConfig, FaultDistribution, PlannedFault};
    use sdr_mpi::sim_net::{CrashSchedule, EndpointId};
    use sdr_mpi::workloads::campaign::crash_faults_violate_survival;
    let config = CampaignConfig {
        ranks: 4,
        degree: 2,
        dist: FaultDistribution::MidCollective { max_phase: 1 }, // shape only
    };
    let faults = [
        PlannedFault::Crash {
            endpoint: EndpointId(3),
            schedule: CrashSchedule::AfterSend { nth: 2 },
        },
        PlannedFault::Crash {
            endpoint: EndpointId(7),
            schedule: CrashSchedule::AfterSend { nth: 3 },
        },
    ];
    assert!(
        crash_faults_violate_survival(config, 6, &faults),
        "the shrunk plan must still violate survivability"
    );
    for drop in 0..faults.len() {
        let without: Vec<_> = faults
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != drop)
            .map(|(_, f)| *f)
            .collect();
        assert!(
            !crash_faults_violate_survival(config, 6, &without),
            "dropping fault {drop} should make the job survivable (minimality)"
        );
    }
}

#[test]
fn campaign_lossy_links_seed_7_minimal_plan_is_fatal() {
    // Shrunk by workloads::campaign::shrink.
    // config: ranks=2 degree=2 dist=lossy_links; seed=7;
    // shrunk 2 sampled fault(s) to 1 in 5 oracle probe(s).
    use sdr_mpi::sim_net::campaign::{CampaignConfig, FaultDistribution, PlannedFault};
    use sdr_mpi::sim_net::NetFaultConfig;
    use sdr_mpi::workloads::campaign::crash_faults_violate_survival;
    let config = CampaignConfig {
        ranks: 2,
        degree: 2,
        dist: FaultDistribution::MidCollective { max_phase: 1 }, // shape only
    };
    let faults = [PlannedFault::LossyTransport {
        config: NetFaultConfig {
            drop_per_64k: 65536,
            dup_per_64k: 0,
            delay_per_64k: 0,
            delay_ns: 0,
            ack_only: false,
        },
        policy_seed: 7,
    }];
    assert!(
        crash_faults_violate_survival(config, 6, &faults),
        "the shrunk plan must still violate survivability"
    );
    for drop in 0..faults.len() {
        let without: Vec<_> = faults
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != drop)
            .map(|(_, f)| *f)
            .collect();
        assert!(
            !crash_faults_violate_survival(config, 6, &without),
            "dropping fault {drop} should make the job survivable (minimality)"
        );
    }
}
