//! Minimal regression cases found and shrunk by the fault campaign.
//!
//! Each test below pins a spec line that `workloads::campaign::shrink`
//! returned: a campaign case that violated the survivability expectation,
//! rerun under the deterministic `--workers 1` scheduler and reduced (delta
//! debugging over the spec's crashes, bit flips and transport policy) to a
//! locally minimal case. The line is the case — `sdr_serve --queue` replays
//! it as is. Each test checks that the line is still in canonical wire form,
//! still violates survivability, and that shrinking it again keeps every
//! fault (each one is needed). The provenance comment on each test names the
//! `(config, seed)` the case came from, so the full pre-shrink case can be
//! resampled with `workloads::campaign::case_spec`.
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

use sdr_mpi::workloads::campaign::shrink;
use sdr_mpi::workloads::serve::JobSpec;

/// Parse a pinned line, check it is canonical and still fatal, and check
/// that shrinking it again keeps it whole.
fn assert_minimal_violation(line: &str) {
    let spec = JobSpec::parse_line(line).expect("a valid spec line");
    assert_eq!(
        spec.to_json().encode(),
        line,
        "the pinned line is canonical"
    );
    let again = shrink(spec.clone()).expect("the shrunk case must still violate survivability");
    assert_eq!(
        again.spec, spec,
        "dropping any one fault should make the job survivable (minimality)"
    );
}

#[test]
fn campaign_correlated_pair_seed_3_minimal_plan_is_fatal() {
    // Shrunk by workloads::campaign::shrink.
    // config: ranks=4 degree=2 dist=correlated_pair; seed=3;
    // shrunk 4 sampled fault(s) to 2 in 10 oracle probe(s).
    assert_minimal_violation(
        r#"{"id":"correlated-pair-d2-seed3","workload":"collective","ranks":4,"class":"s","layout":"replicated","iterations":6,"degree":2,"workers":1,"seed":3,"crashes":[{"endpoint":3,"kind":"after-send","nth":2},{"endpoint":7,"kind":"after-send","nth":3}]}"#,
    );
}

#[test]
fn campaign_lossy_links_seed_7_minimal_plan_is_fatal() {
    // Shrunk by workloads::campaign::shrink.
    // config: ranks=2 degree=2 dist=lossy_links; seed=7;
    // shrunk 2 sampled fault(s) to 1 in 5 oracle probe(s).
    assert_minimal_violation(
        r#"{"id":"lossy-links-d2-seed7","workload":"collective","ranks":2,"class":"s","layout":"replicated","iterations":6,"degree":2,"workers":1,"seed":7,"net":{"drop_per_64k":65536,"dup_per_64k":0,"delay_per_64k":0,"delay_ns":0,"ack_only":false,"seed":7}}"#,
    );
}
