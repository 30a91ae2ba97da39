//! Pins the job every generated fault case runs: the spec lines of the
//! default campaign (`default_fault_configs(4, 6)`, seeds 1–25, one worker),
//! of the mixed service queue (`mixed_queue(12, 40)`), and the rows of the
//! fixed-rate lossy sweep (5 cases per rate, one worker), which keeps its
//! cases to itself — at one worker every count and overhead in a row is a
//! pure function of the sweep's spec lines. The digest was captured when
//! the campaign sampler was first pinned; a change that moves it changes
//! which jobs the campaign runs, not just how it is written.

use sdr_bench::faults::default_fault_configs;
use sdr_bench::{format_lossy_sweep_table, lossy_rate_sweep};
use workloads::campaign::run_campaign;
use workloads::serve::mixed_queue;

/// FNV-1a over the bytes of `text`.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn generated_fault_cases_keep_their_spec_lines() {
    let mut lines = Vec::new();
    for config in default_fault_configs(4, 6) {
        for outcome in run_campaign(config, 1, 25, 6, Some(1)) {
            lines.push(outcome.record.spec.to_json().encode());
        }
    }
    assert_eq!(lines.len(), 9 * 25);
    lines.extend(mixed_queue(12, 40).iter().map(|s| s.to_json().encode()));
    let sweep = lossy_rate_sweep(4, 5, 1, 6, Some(1));
    lines.push(format_lossy_sweep_table("lossy sweep", &sweep));
    let text = lines.join("\n");
    let digest = fnv1a(&text);
    assert_eq!(
        digest,
        0x1edc_e66d_94e3_4a41,
        "spec lines moved (digest {digest:#018x}); first lines:\n{}",
        lines[..3].join("\n")
    );
}
