//! Operational send-determinism checking (Definition 1 of the paper).
//!
//! An algorithm is send-deterministic if, for a given input, every process
//! emits the same sequence of send events in any correct execution, whatever
//! the timing or relative order of message receptions. We check this
//! operationally: run the application several times under a [`JitterModel`]
//! that perturbs per-message wire latency with a seeded pseudo-random jitter
//! (changing reception orders), record every application-level send with the
//! job trace, and compare the per-rank sequences of
//! (destination, tag, payload digest, length) across runs.
//!
//! The paper's claim (from Cappello et al., reference 5 of the paper) is that SPMD HPC codes are
//! send-deterministic while master–worker codes are not; the tests below
//! exercise both directions.

use sim_mpi::{JobBuilder, Process};
use sim_net::trace::EventKind;
use sim_net::{NetworkModel, SimTime};

/// Wraps a network model and adds a deterministic (seeded) pseudo-random
/// jitter to each message's wire time, perturbing reception orders without
/// changing any protocol behaviour.
#[derive(Debug, Clone)]
pub struct JitterModel<M> {
    inner: M,
    seed: u64,
    max_jitter_ns: u64,
    counter: std::sync::Arc<std::sync::atomic::AtomicU64>,
}

impl<M: NetworkModel> JitterModel<M> {
    /// Wrap `inner`, adding up to `max_jitter_ns` of extra wire time per
    /// message, derived from `seed`.
    pub fn new(inner: M, seed: u64, max_jitter_ns: u64) -> Self {
        JitterModel {
            inner,
            seed,
            max_jitter_ns,
            counter: std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0)),
        }
    }

    fn jitter(&self, salt: u64) -> u64 {
        if self.max_jitter_ns == 0 {
            return 0;
        }
        let n = self
            .counter
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let mut z = self
            .seed
            .wrapping_add(salt.wrapping_mul(0x9E3779B97F4A7C15))
            .wrapping_add(n.wrapping_mul(0xD1B54A32D192ED03));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        (z ^ (z >> 31)) % self.max_jitter_ns
    }
}

impl<M: NetworkModel> NetworkModel for JitterModel<M> {
    fn send_overhead(&self, payload_bytes: usize, intra_node: bool) -> SimTime {
        self.inner.send_overhead(payload_bytes, intra_node)
    }

    fn recv_overhead(&self, payload_bytes: usize, intra_node: bool) -> SimTime {
        self.inner.recv_overhead(payload_bytes, intra_node)
    }

    fn wire_time(&self, payload_bytes: usize, intra_node: bool) -> SimTime {
        self.inner.wire_time(payload_bytes, intra_node)
            + SimTime::from_nanos(self.jitter(payload_bytes as u64))
    }
}

/// Result of a determinism check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeterminismReport {
    /// Number of perturbed executions compared (including the reference).
    pub runs: usize,
    /// Ranks whose send sequences differed from the reference run, if any.
    pub divergent_ranks: Vec<usize>,
}

impl DeterminismReport {
    /// Did every rank emit the same send sequence in every run?
    pub fn is_send_deterministic(&self) -> bool {
        self.divergent_ranks.is_empty()
    }
}

/// Run `app` `runs` times under different perturbations and compare per-rank
/// send sequences. `make_builder` must produce identical job configurations
/// (the function enables tracing and installs the jitter model itself).
///
/// Each perturbed run (every run but the reference) samples a different
/// *correct execution* along two axes: seeded wire-latency jitter (changing
/// virtual arrival orders) and a seeded per-rank start-time stagger
/// (changing which process reaches each communication point first). The
/// stagger matters under the coroutine carriers, whose dispatch is fully
/// deterministic: without it, every run would schedule identically and a
/// timing-dependent pattern (the master–worker counter-example) would look
/// deterministic even though *other* correct executions order its sends
/// differently. A genuinely send-deterministic application must emit the
/// same sends whatever the timing, so neither axis may change its sequences.
pub fn check_send_determinism<F, A, R>(
    ranks: usize,
    runs: usize,
    make_builder: F,
    app: A,
) -> DeterminismReport
where
    F: Fn() -> JobBuilder,
    A: Fn(&mut Process) -> R + Send + Sync + Clone + 'static,
    R: Send + 'static,
{
    assert!(runs >= 2, "need at least two runs to compare");
    let mut sequences: Vec<Vec<Vec<_>>> = Vec::new();
    for run in 0..runs {
        let builder = make_builder()
            .network(JitterModel::new(
                sim_net::LogGpModel::fast_test_model(),
                0xC0FFEE ^ (run as u64 * 7919),
                if run == 0 { 0 } else { 5_000 },
            ))
            // Single-permit replay mode: each run is then one reproducible
            // execution uniquely determined by the jitter seed and stagger —
            // dispatch follows virtual time (`Scheduler::advance`), so the
            // perturbations translate into reception-order changes instead of
            // being washed out (or frozen) by host-level thread timing.
            .workers(1)
            .trace(true);
        let app = app.clone();
        let run_salt = run as u64;
        let report = builder.run(move |p| {
            if run_salt > 0 {
                // Stagger this rank's start by up to 20 µs (seeded, per run
                // and per rank) so perturbed runs really are different
                // executions, not replays of the reference schedule.
                let mut z = (0xA5A5_5A5A_u64 ^ run_salt.wrapping_mul(0x9E3779B97F4A7C15))
                    .wrapping_add((p.rank() as u64).wrapping_mul(0xD1B54A32D192ED03));
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                z ^= z >> 27;
                p.compute(SimTime::from_nanos(z % 20_000));
            }
            app(p)
        });
        assert!(
            report.all_finished(),
            "determinism-check run {run} did not finish"
        );
        // A send is compared on everything but its timestamp: timing may
        // differ between correct executions.
        let events = report.trace.events();
        let per_rank: Vec<Vec<_>> = (0..ranks)
            .map(|r| {
                events
                    .iter()
                    .filter(|e| e.process == sim_net::EndpointId(r) && e.kind == EventKind::Send)
                    .map(|e| (e.peer, e.tag, e.payload_digest, e.payload_len))
                    .collect()
            })
            .collect();
        sequences.push(per_rank);
    }
    let reference = &sequences[0];
    let mut divergent = Vec::new();
    for rank in 0..ranks {
        if sequences.iter().any(|s| s[rank] != reference[rank]) {
            divergent.push(rank);
        }
    }
    DeterminismReport {
        runs,
        divergent_ranks: divergent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nas::{run_cg, NasConfig};
    use bytes::Bytes;
    use sdr_core::native_job;
    use sim_mpi::datatype::{bytes_to_f64s, f64s_to_bytes};
    use sim_mpi::{ReduceOp, ANY_SOURCE};

    #[test]
    fn jitter_model_perturbs_wire_time_only() {
        let base = sim_net::LogGpModel::fast_test_model();
        let jittered = JitterModel::new(base, 42, 1_000);
        assert_eq!(
            jittered.send_overhead(100, false),
            base.send_overhead(100, false)
        );
        assert_eq!(
            jittered.recv_overhead(100, false),
            base.recv_overhead(100, false)
        );
        assert!(jittered.wire_time(100, false) >= base.wire_time(100, false));
    }

    #[test]
    fn cg_kernel_is_send_deterministic() {
        let cfg = NasConfig {
            local_size: 64,
            iterations: 3,
            compute_ns_per_point: 1,
        };
        let report = check_send_determinism(4, 3, || native_job(4), move |p| run_cg(p, &cfg));
        assert!(report.is_send_deterministic(), "{report:?}");
    }

    #[test]
    fn any_source_sum_is_send_deterministic() {
        // Receiving with ANY_SOURCE and summing is still send-deterministic:
        // the messages sent do not depend on the reception order.
        let report = check_send_determinism(
            4,
            3,
            || native_job(4),
            |p| {
                let world = p.world();
                if p.rank() == 0 {
                    let mut total = 0.0;
                    for _ in 0..3 {
                        let (_, v) = p.recv_bytes(world, ANY_SOURCE, 5);
                        total += bytes_to_f64s(&v)[0];
                    }
                    p.send_bytes(world, 1, 6, f64s_to_bytes(&[total]));
                } else {
                    p.send_bytes(world, 0, 5, f64s_to_bytes(&[p.rank() as f64]));
                    if p.rank() == 1 {
                        let _ = p.recv_bytes(world, 0, 6);
                    }
                }
                p.allreduce_f64(world, ReduceOp::Sum, 1.0)
            },
        );
        assert!(report.is_send_deterministic(), "{report:?}");
    }

    #[test]
    fn master_worker_is_not_send_deterministic() {
        // The classic counter-example (Section 2.1): a master hands the next
        // work item to whichever worker answers first, so the sequence of
        // destinations it sends to depends on reception order.
        let report = check_send_determinism(
            3,
            4,
            || native_job(3),
            |p| {
                let world = p.world();
                if p.rank() == 0 {
                    // Master: 6 work items, dispatched to whoever is idle.
                    for item in 0..6u64 {
                        let (status, _) = p.recv_bytes(world, ANY_SOURCE, 1);
                        p.send_u64s(world, status.source, 2, &[item]);
                    }
                    // Tell both workers to stop.
                    for w in 1..3 {
                        p.send_u64s(world, w, 3, &[u64::MAX]);
                    }
                } else {
                    // Worker: request work, process it, repeat until told to
                    // stop. Work (tag 2) and stop (tag 3) arrive on the same
                    // FIFO channel from the master, so a wildcard-tag receive
                    // picks whichever comes next.
                    loop {
                        p.send_bytes(world, 0, 1, Bytes::new());
                        let (status, _payload) = p.recv_bytes(world, 0, sim_mpi::ANY_TAG);
                        if status.tag == 3 {
                            break;
                        }
                        // Identical processing time on every worker: the
                        // master's dispatch order is then decided purely by
                        // message timing, i.e. by the injected jitter.
                        p.compute(SimTime::from_micros(10));
                    }
                }
            },
        );
        assert!(
            !report.is_send_deterministic(),
            "the master-worker pattern should be flagged as non-send-deterministic"
        );
        assert!(
            report.divergent_ranks.contains(&0),
            "the master diverges: {report:?}"
        );
    }
}
