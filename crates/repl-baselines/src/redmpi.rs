//! redMPI-style silent-data-corruption (SDC) detection.
//!
//! redMPI (Fiala et al., SC'12 — reference 10 of the paper) replicates MPI
//! ranks not to survive crashes but to *detect and correct silent data
//! corruption*: each replica sends its message to one receiver plus a hash of
//! the message to the other receiver replicas, which compare the hash of what
//! they received against the hashes the other senders computed. A mismatch
//! reveals a corrupted message.
//!
//! This baseline reproduces the detection mechanism (and its traffic overhead
//! shape) on the same substrate as SDR-MPI. Crashes are not handled, so no
//! acknowledgements are exchanged ([`sdr_core::AckOn::Never`]). Corruption is
//! injected deliberately through [`CorruptionSpec`] for the detection tests
//! and the `ablation_redmpi` harness.

use bytes::Bytes;
use sdr_core::{AckOn, ReplicaMap, ReplicationConfig, SdrProtocol};
use sim_mpi::{Action, Input, ProtoSendReq, Protocol, ProtocolFactory, Rank, Request};
use sim_net::stats::class;
use sim_net::trace::digest;
use sim_net::{EndpointId, SimTime};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

/// Control-message kind for payload hashes.
pub const HASH_KIND: i64 = 200;

/// Deliberate corruption of one message, for detection experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorruptionSpec {
    /// Replica id whose outgoing message is corrupted.
    pub replica: usize,
    /// Sending rank whose message is corrupted.
    pub src_rank: Rank,
    /// Destination rank of the corrupted message.
    pub dst_rank: Rank,
    /// Application-level sequence number (per source→destination pair) of the
    /// corrupted message.
    pub seq: u64,
}

/// Shared record of SDC detections across all processes of a job.
#[derive(Debug, Default)]
pub struct SdcReport {
    inner: Mutex<SdcReportInner>,
}

#[derive(Debug, Default)]
struct SdcReportInner {
    comparisons: u64,
    mismatches: u64,
    corrected: u64,
}

impl SdcReport {
    /// New empty report.
    pub fn new() -> Arc<Self> {
        Arc::new(SdcReport::default())
    }

    fn record(&self, mismatch: bool, corrected: bool) {
        let mut g = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        g.comparisons += 1;
        if mismatch {
            g.mismatches += 1;
        }
        if corrected {
            g.corrected += 1;
        }
    }

    /// Total hash comparisons performed.
    pub fn comparisons(&self) -> u64 {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .comparisons
    }

    /// Hash mismatches (detected corruptions).
    pub fn mismatches(&self) -> u64 {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .mismatches
    }

    /// Mismatches outvoted by a hash majority (degree ≥ 3 only): the receiver
    /// knows which copy is corrupt and can substitute the majority value, so
    /// the corruption is *corrected*, not merely detected.
    pub fn corrected(&self) -> u64 {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .corrected
    }
}

/// The redMPI-style protocol.
pub struct RedMpiProtocol {
    core: SdrProtocol,
    map: Arc<ReplicaMap>,
    degree: usize,
    corruption: Option<CorruptionSpec>,
    report: Arc<SdcReport>,
    /// Blocking waits for hashes at finalize so far (at most 10 000).
    flush_waits: u32,
    /// Per-source-rank count of delivered messages (defines the seq of the
    /// next delivery).
    recv_count: Vec<u64>,
    /// Digests of messages this process has delivered, awaiting the remote
    /// hashes, keyed by (source rank, seq).
    local_digest: HashMap<(Rank, u64), u64>,
    /// Hashes received from other sender replicas, keyed by (source rank,
    /// seq). At degree `d` each delivery is checked against `d - 1` remote
    /// hashes; the comparison fires once all have arrived.
    remote_hash: HashMap<(Rank, u64), Vec<u64>>,
}

impl RedMpiProtocol {
    /// Build the protocol for physical process `endpoint` of `map`.
    pub fn new(
        endpoint: EndpointId,
        map: Arc<ReplicaMap>,
        corruption: Option<CorruptionSpec>,
        report: Arc<SdcReport>,
        lossy: bool,
    ) -> Self {
        let (app_ranks, degree) = (map.ranks(), map.max_degree());
        let cfg = ReplicationConfig::with_degree(degree).ack_on(AckOn::Never);
        RedMpiProtocol {
            core: SdrProtocol::new(endpoint, Arc::clone(&map), cfg).on_transport(lossy),
            map,
            degree,
            corruption,
            report,
            flush_waits: 0,
            recv_count: vec![0; app_ranks],
            local_digest: HashMap::new(),
            remote_hash: HashMap::new(),
        }
    }

    fn compare_if_ready(&mut self, key: (Rank, u64)) {
        let expected_remotes = self.degree - 1;
        let ready = self.local_digest.contains_key(&key)
            && self
                .remote_hash
                .get(&key)
                .is_some_and(|v| v.len() >= expected_remotes);
        if !ready {
            return;
        }
        let local = self.local_digest.remove(&key).unwrap();
        let remotes = self.remote_hash.remove(&key).unwrap();
        let mismatch =
            remotes.iter().any(|&r| r != local) || remotes.windows(2).any(|w| w[0] != w[1]);
        // Majority vote: with degree ≥ 3 votes (our copy plus the remote
        // hashes), a strict-majority value outvotes a single corrupted copy —
        // redMPI can then substitute the majority payload, turning detection
        // into correction. At degree 2 the two votes only ever tie.
        let corrected = mismatch && self.degree >= 3 && {
            let mut votes: Vec<u64> = remotes;
            votes.push(local);
            let n = votes.len();
            votes
                .iter()
                .any(|&v| votes.iter().filter(|&&x| x == v).count() * 2 > n)
        };
        self.report.record(mismatch, corrected);
    }
}

impl Protocol for RedMpiProtocol {
    fn app_rank(&self) -> Rank {
        self.core.app_rank()
    }

    fn replica_id(&self) -> usize {
        self.core.replica_id()
    }

    fn input(
        &mut self,
        now: SimTime,
        input: Input<'_>,
        out: &mut Vec<Action>,
    ) -> Option<ProtoSendReq> {
        match input {
            Input::Isend {
                dst,
                comm,
                tag,
                mut payload,
            } => {
                let (seq, me) = (self.core.send_seq(dst), self.replica_id());
                // Optional fault injection: flip one byte of this replica's copy.
                if let Some(spec) = self.corruption {
                    if (spec.replica, spec.src_rank, spec.dst_rank, spec.seq)
                        == (me, self.app_rank(), dst, seq)
                        && !payload.is_empty()
                    {
                        let mut bytes = payload.to_vec();
                        bytes[0] ^= 0xFF;
                        payload = Bytes::from(bytes);
                    }
                }
                // Hash of the (possibly corrupted) copy goes to every *other*
                // replica of the destination rank so they can cross-check the
                // copy they got from their own sender replica.
                let h = digest(&payload) as i64;
                let header = [HASH_KIND, self.app_rank() as i64, seq as i64, h, 0, 0, 0, 0];
                for rep in (0..self.degree).filter(|&rep| rep != me) {
                    out.push(Action::Control {
                        dst: self.map.endpoint(dst, rep),
                        class: class::HASH,
                        header,
                        not_before: SimTime::ZERO,
                    });
                }
                let isend = Input::Isend {
                    dst,
                    comm,
                    tag,
                    payload,
                };
                self.core.input(now, isend, out)
            }
            Input::Take { req, msg } => {
                let delivered = out.len();
                self.core.input(now, Input::Take { req, msg }, out);
                if out.len() > delivered {
                    let src = self.map.rank_of(msg.src);
                    let seq = self.recv_count[src];
                    self.recv_count[src] += 1;
                    self.local_digest.insert((src, seq), digest(&msg.payload));
                    self.compare_if_ready((src, seq));
                }
                None
            }
            Input::Control {
                class: cls, header, ..
            } if cls == class::HASH && header[0] == HASH_KIND => {
                let (src_rank, seq, hash) =
                    (header[1] as usize, header[2] as u64, header[3] as u64);
                let remote = self.remote_hash.entry((src_rank, seq)).or_default();
                remote.push(hash);
                self.compare_if_ready((src_rank, seq));
                None
            }
            // Flush outstanding hash comparisons first: every delivered
            // message will be matched by a hash from the other sender replica
            // (it was sent before that replica's copy of the application
            // finished), so wait for the stragglers before tearing down.
            Input::Finalize if !self.local_digest.is_empty() && self.flush_waits < 10_000 => {
                self.flush_waits += 1;
                out.push(Action::Drain("redMPI hash flush at finalize"));
                None
            }
            input => self.core.input(now, input, out),
        }
    }

    fn complete(&self, req: Request) -> bool {
        self.core.complete(req)
    }

    fn describe_pending(&self) -> String {
        format!(
            "redMPI-style protocol: {} hash comparisons pending; {}",
            self.local_digest.len() + self.remote_hash.len(),
            self.core.describe_pending()
        )
    }

    fn send_log_len(&self) -> usize {
        self.core.send_log_len()
    }
}

/// Factory for the redMPI-style protocol.
#[derive(Clone)]
pub struct RedMpiFactory {
    degree: usize,
    corruption: Option<CorruptionSpec>,
    report: Arc<SdcReport>,
}

impl RedMpiFactory {
    /// Dual replication with no corruption injected.
    pub fn dual(report: Arc<SdcReport>) -> Self {
        RedMpiFactory::with_degree(2, report)
    }

    /// Uniform replication at the given degree (≥ 2). Degree ≥ 3 enables
    /// majority-vote correction of single corrupted copies.
    pub fn with_degree(degree: usize, report: Arc<SdcReport>) -> Self {
        assert!(degree >= 2, "redMPI needs at least two replicas to compare");
        RedMpiFactory {
            degree,
            corruption: None,
            report,
        }
    }

    /// Inject the given corruption.
    pub fn with_corruption(mut self, spec: CorruptionSpec) -> Self {
        self.corruption = Some(spec);
        self
    }
}

impl ProtocolFactory for RedMpiFactory {
    fn physical_processes(&self, app_ranks: usize) -> usize {
        app_ranks * self.degree
    }

    fn build(&self, endpoint: EndpointId, app_ranks: usize, lossy: bool) -> Box<dyn Protocol> {
        Box::new(RedMpiProtocol::new(
            endpoint,
            Arc::new(ReplicaMap::uniform(app_ranks, self.degree)),
            self.corruption,
            Arc::clone(&self.report),
            lossy,
        ))
    }

    fn name(&self) -> &str {
        "redmpi"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_mpi::JobBuilder;
    use sim_net::LogGpModel;

    fn redmpi_job(ranks: usize, factory: RedMpiFactory) -> JobBuilder {
        JobBuilder::new(ranks)
            .network(LogGpModel::fast_test_model())
            .protocol(Arc::new(factory))
    }

    fn exchange_app(p: &mut sim_mpi::Process) -> u64 {
        let world = p.world();
        let mut acc = 0;
        if p.rank() == 0 {
            for i in 0..4u64 {
                p.send_u64s(world, 1, 1, &[i * 7]);
            }
        } else {
            for _ in 0..4 {
                let (_, v) = p.recv_u64s(world, 0, 1);
                acc += v[0];
            }
        }
        acc
    }

    #[test]
    fn clean_run_has_comparisons_but_no_mismatches() {
        let report_handle = SdcReport::new();
        let job = redmpi_job(2, RedMpiFactory::dual(Arc::clone(&report_handle)));
        let result = job.run(exchange_app);
        assert!(result.all_finished());
        assert_eq!(result.primary_results()[1], &(0..4).map(|i| i * 7).sum());
        // Each of the 4 messages per replica set is hash-checked by the
        // receiving replica (2 replicas × 4 messages = 8 comparisons).
        assert_eq!(report_handle.comparisons(), 8);
        assert_eq!(report_handle.mismatches(), 0);
        assert_eq!(result.stats.hash_msgs(), 8);
        assert_eq!(result.stats.ack_msgs(), 0, "redMPI does not handle crashes");
    }

    #[test]
    fn injected_corruption_is_detected() {
        let report_handle = SdcReport::new();
        let corruption = CorruptionSpec {
            replica: 1,
            src_rank: 0,
            dst_rank: 1,
            seq: 2,
        };
        let job = redmpi_job(
            2,
            RedMpiFactory::dual(Arc::clone(&report_handle)).with_corruption(corruption),
        );
        let result = job.run(exchange_app);
        assert!(result.all_finished());
        // The corrupted copy travelled inside replica set 1; both receiver
        // replicas compare against the other sender's hash, so the mismatch is
        // seen twice (once by each receiver replica of rank 1).
        assert_eq!(report_handle.mismatches(), 2);
        assert!(report_handle.comparisons() >= 8);
        // The primary replica set still computed the uncorrupted result.
        assert_eq!(result.primary_results()[1], &42);
    }

    #[test]
    fn pml_level_flip_is_detected_exactly_once() {
        // The fault-campaign SDC class corrupts the payload *below* the
        // protocol layer: the sender's hash was computed on the clean copy,
        // so only the receiver replica that got the flipped copy mismatches
        // (against the other sender's clean hash) — one detection per flip,
        // unlike the protocol-level CorruptionSpec which is seen twice.
        let report_handle = SdcReport::new();
        let job = redmpi_job(2, RedMpiFactory::dual(Arc::clone(&report_handle)))
            // Endpoint 2 is replica 1 of rank 0; corrupt its 2nd app send.
            .sdc_flip(
                EndpointId(2),
                sim_mpi::SdcFlip {
                    nth_send: 2,
                    bit: 3,
                },
            );
        let result = job.run(exchange_app);
        assert!(result.all_finished());
        assert_eq!(result.stats.sdc_flips_injected(), 1);
        assert_eq!(report_handle.mismatches(), 1);
        assert_eq!(report_handle.corrected(), 0, "two votes can only tie");
        // The primary replica set never saw the corruption.
        assert_eq!(result.primary_results()[1], &42);
    }

    #[test]
    fn degree_three_outvotes_a_single_flip() {
        // At degree 3 the corrupted copy is the minority of three votes
        // (local digest vs two clean sender hashes), so the receiver that got
        // it both detects and *corrects* the corruption. The other two
        // receiver replicas see three agreeing votes.
        let report_handle = SdcReport::new();
        let job = redmpi_job(2, RedMpiFactory::with_degree(3, Arc::clone(&report_handle)))
            // Endpoint 2 is replica 1 of rank 0 (`replica · ranks + rank`);
            // corrupt its 2nd app send below the protocol layer.
            .sdc_flip(
                EndpointId(2),
                sim_mpi::SdcFlip {
                    nth_send: 2,
                    bit: 3,
                },
            );
        let result = job.run(exchange_app);
        assert!(result.all_finished());
        assert_eq!(result.stats.sdc_flips_injected(), 1);
        assert_eq!(report_handle.mismatches(), 1);
        assert_eq!(
            report_handle.corrected(),
            1,
            "minority of three is outvoted"
        );
        // 3 replicas × 4 messages, each checked against 2 remote hashes.
        assert_eq!(report_handle.comparisons(), 12);
        assert_eq!(result.primary_results()[1], &42);
    }
}
