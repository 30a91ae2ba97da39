//! Launch-time integration: the [`SdrFactory`] plugs the SDR-MPI protocol into
//! the `sim-mpi` job launcher, and [`mapped_job`] builds a ready-to-run
//! [`JobBuilder`] on one [`ReplicaMap`]. Every physical process is its own
//! node, so different replicas of a rank never share a node whatever the
//! numbering.

use crate::config::ReplicationConfig;
use crate::layout::{LayoutError, ReplicaMap};
use crate::protocol::SdrProtocol;
use sim_mpi::{JobBuilder, Protocol, ProtocolFactory, Rank};
use sim_net::EndpointId;
use std::sync::Arc;

/// Protocol factory for SDR-MPI: every process of the job shares one map.
#[derive(Debug, Clone)]
pub struct SdrFactory {
    cfg: ReplicationConfig,
    map: Arc<ReplicaMap>,
}

impl SdrFactory {
    /// Factory for the job `map` lays out. The job's rank count must match
    /// the map's.
    pub fn new(map: Arc<ReplicaMap>, cfg: ReplicationConfig) -> Self {
        SdrFactory { cfg, map }
    }
}

impl ProtocolFactory for SdrFactory {
    fn physical_processes(&self, app_ranks: usize) -> usize {
        assert_eq!(
            self.map.ranks(),
            app_ranks,
            "replica map rank count must match the job"
        );
        self.map.physical_processes()
    }

    fn build(&self, endpoint: EndpointId, _app_ranks: usize, lossy: bool) -> Box<dyn Protocol> {
        let proto = SdrProtocol::new(endpoint, Arc::clone(&self.map), self.cfg);
        Box::new(proto.on_transport(lossy))
    }

    fn name(&self) -> &str {
        "sdr-mpi"
    }
}

/// A [`JobBuilder`] on one replica map.
pub fn mapped_job(map: Arc<ReplicaMap>, cfg: ReplicationConfig) -> JobBuilder {
    JobBuilder::new(map.ranks()).protocol(Arc::new(SdrFactory::new(map, cfg)))
}

/// A [`JobBuilder`] for `app_ranks` logical ranks, every one replicated
/// `cfg.degree` times (the paper's configuration at degree 2).
pub fn replicated_job(app_ranks: usize, cfg: ReplicationConfig) -> JobBuilder {
    mapped_job(Arc::new(ReplicaMap::uniform(app_ranks, cfg.degree)), cfg)
}

/// A partially replicated [`JobBuilder`]: the ranks in `replicated` run at
/// degree 2, every other rank is a singleton. Invalid subsets surface as
/// typed [`LayoutError`]s.
pub fn partial_replicated_job(
    app_ranks: usize,
    replicated: &[Rank],
    cfg: ReplicationConfig,
) -> Result<JobBuilder, LayoutError> {
    Ok(mapped_job(
        Arc::new(ReplicaMap::partial(app_ranks, replicated)?),
        cfg,
    ))
}

/// A partially replicated [`JobBuilder`] covering the first
/// `ceil(coverage · app_ranks)` ranks — the overhead-vs-coverage sweep's
/// deterministic subset.
pub fn coverage_job(
    app_ranks: usize,
    coverage: f64,
    cfg: ReplicationConfig,
) -> Result<JobBuilder, LayoutError> {
    Ok(mapped_job(
        Arc::new(ReplicaMap::with_coverage(app_ranks, coverage)?),
        cfg,
    ))
}

/// A native (non-replicated) [`JobBuilder`], for apples-to-apples baseline
/// runs.
pub fn native_job(app_ranks: usize) -> JobBuilder {
    JobBuilder::new(app_ranks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AckOn;
    use bytes::Bytes;
    use sim_mpi::{datatype, ReduceOp, ANY_SOURCE};
    use sim_net::{CrashSchedule, LogGpModel, NetFaultConfig, SimTime};

    fn fast() -> LogGpModel {
        LogGpModel::fast_test_model()
    }

    #[test]
    fn factory_sizes_and_identity() {
        let f = SdrFactory::new(
            Arc::new(ReplicaMap::uniform(8, 2)),
            ReplicationConfig::dual(),
        );
        assert_eq!(f.physical_processes(8), 16);
        assert_eq!(f.name(), "sdr-mpi");
        let p = f.build(EndpointId(11), 8, false);
        assert_eq!(p.app_rank(), 3);
        assert_eq!(p.replica_id(), 1);
        let p0 = f.build(EndpointId(3), 8, false);
        assert_eq!(p0.replica_id(), 0, "replica 0 reports the job's results");
    }

    #[test]
    fn replicated_ping_pong_matches_native_results() {
        let app = |p: &mut sim_mpi::Process| {
            let world = p.world();
            if p.rank() == 0 {
                p.send_bytes(world, 1, 1, Bytes::from_static(b"ping"));
                let (_, reply) = p.recv_bytes(world, 1, 2);
                String::from_utf8(reply.to_vec()).unwrap()
            } else {
                let (_, msg) = p.recv_bytes(world, 0, 1);
                assert_eq!(&msg[..], b"ping");
                p.send_bytes(world, 0, 2, Bytes::from_static(b"pong"));
                "sender".to_string()
            }
        };
        let native = native_job(2).network(fast()).run(app);
        let replicated = replicated_job(2, ReplicationConfig::dual())
            .network(fast())
            .run(app);
        assert!(native.all_finished());
        assert!(replicated.all_finished());
        assert_eq!(native.primary_results(), replicated.primary_results());
        // Parallel protocol: application messages double (each replica set runs
        // its own copy), and acks flow (one per received message per other
        // replica of the sender rank).
        assert_eq!(replicated.stats.app_msgs(), 2 * native.stats.app_msgs());
        assert_eq!(replicated.stats.ack_msgs(), replicated.stats.app_msgs());
        assert_eq!(native.stats.ack_msgs(), 0);
        // Both replica sets report the application result.
        assert_eq!(replicated.processes.len(), 4);
    }

    #[test]
    fn replicated_collectives_produce_correct_results() {
        let report = replicated_job(4, ReplicationConfig::dual())
            .network(fast())
            .run(|p| {
                let world = p.world();
                let sum = p.allreduce_f64(world, ReduceOp::Sum, (p.rank() + 1) as f64);
                let root_data = (p.rank() == 1).then(|| datatype::f64_to_bytes(2.5));
                let bcast = datatype::bytes_to_f64(&p.bcast_bytes(world, 1, root_data));
                let blocks = (0..4)
                    .map(|d| Bytes::from(vec![(p.rank() * 10 + d) as u8]))
                    .collect();
                let exchanged = p.alltoall_bytes(world, blocks);
                let exchanged_ok = exchanged
                    .iter()
                    .enumerate()
                    .all(|(src, b)| b[0] as usize == src * 10 + p.rank());
                (sum, bcast, exchanged_ok)
            });
        assert!(report.all_finished());
        for r in report.primary_results() {
            assert_eq!(*r, (10.0, 2.5, true));
        }
        // Non-primary replicas computed the same thing.
        for proc in &report.processes {
            if let Some(r) = proc.outcome.result() {
                assert_eq!(*r, (10.0, 2.5, true));
            }
        }
    }

    #[test]
    fn any_source_reception_needs_no_leader() {
        // HPCCG/CM1-style anonymous receptions: rank 0 receives from everyone
        // with MPI_ANY_SOURCE. Under SDR-MPI each replica decides locally; the
        // run must produce identical data on both replicas with zero control
        // messages (no leader decisions).
        let report = replicated_job(4, ReplicationConfig::dual())
            .network(fast())
            .run(|p| {
                let world = p.world();
                if p.rank() == 0 {
                    let mut total = 0u64;
                    for _ in 0..3 {
                        let (_, data) = p.recv_bytes(world, ANY_SOURCE, 7);
                        total += sim_mpi::datatype::bytes_to_u64s(&data)[0];
                    }
                    total
                } else {
                    p.send_u64s(world, 0, 7, &[p.rank() as u64 * 100]);
                    0
                }
            });
        assert!(report.all_finished());
        assert_eq!(report.primary_results()[0], &600);
        // Every replica of rank 0 got the same total.
        for proc in report.processes.iter().filter(|p| p.app_rank == 0) {
            assert_eq!(proc.outcome.result(), Some(&600));
        }
        assert_eq!(report.stats.control_msgs(), 0, "no leader traffic");
    }

    #[test]
    fn replica_crash_mid_run_application_still_completes() {
        // Figure 3 scenario: two ranks, dual replication, repeated exchange;
        // replica 1 of rank 1 (endpoint 3) crashes after its second send. The
        // application (both replica sets' surviving processes) completes.
        let rounds = 6u64;
        let report = replicated_job(2, ReplicationConfig::dual())
            .network(fast())
            .crash(EndpointId(3), CrashSchedule::AfterSend { nth: 2 })
            .run(move |p| {
                let world = p.world();
                let peer = 1 - p.rank();
                let mut acc = 0u64;
                for round in 0..rounds {
                    if p.rank() == 1 {
                        p.send_u64s(world, peer, 1, &[round]);
                        let (_, v) = p.recv_u64s(world, peer as i64, 2);
                        acc += v[0];
                    } else {
                        let (_, v) = p.recv_u64s(world, peer as i64, 1);
                        acc += v[0];
                        p.send_u64s(world, peer, 2, &[round * 10]);
                    }
                }
                acc
            });
        // Endpoint 3 crashed; everyone else finished.
        assert_eq!(report.crashed(), vec![EndpointId(3)]);
        let finished: Vec<_> = report
            .processes
            .iter()
            .filter(|p| p.outcome.is_finished())
            .map(|p| p.endpoint)
            .collect();
        assert_eq!(finished, vec![EndpointId(0), EndpointId(1), EndpointId(2)]);
        // All finished processes computed the correct sums.
        let expect_rank0: u64 = (0..rounds).sum();
        let expect_rank1: u64 = (0..rounds).map(|r| r * 10).sum();
        for proc in &report.processes {
            if let Some(&acc) = proc.outcome.result() {
                if proc.app_rank == 0 {
                    assert_eq!(acc, expect_rank0);
                } else {
                    assert_eq!(acc, expect_rank1);
                }
            }
        }
    }

    #[test]
    fn crash_of_receiver_side_replica_also_tolerated() {
        // Crash a replica of the *receiving* rank (endpoint 2 = rank 0,
        // replica 1) early in the run: the sender replicas stop expecting its
        // acks and the rest completes.
        let report = replicated_job(2, ReplicationConfig::dual())
            .network(fast())
            .crash(EndpointId(2), CrashSchedule::AtTime { at: SimTime::ZERO })
            .run(|p| {
                let world = p.world();
                if p.rank() == 1 {
                    for i in 0..4u64 {
                        p.send_u64s(world, 0, 1, &[i]);
                    }
                    0
                } else {
                    let mut acc = 0;
                    for _ in 0..4 {
                        let (_, v) = p.recv_u64s(world, 1, 1);
                        acc += v[0];
                    }
                    acc
                }
            });
        assert_eq!(report.crashed(), vec![EndpointId(2)]);
        for proc in &report.processes {
            if proc.app_rank == 0 {
                if let Some(&acc) = proc.outcome.result() {
                    assert_eq!(acc, 6);
                }
            } else {
                assert!(proc.outcome.is_finished() || proc.endpoint == EndpointId(2));
            }
        }
    }

    #[test]
    fn degree_three_replication_works() {
        let report = replicated_job(2, ReplicationConfig::with_degree(3))
            .network(fast())
            .run(|p| {
                let world = p.world();
                let peer = 1 - p.rank();
                let (_, data) = p.sendrecv_bytes(
                    world,
                    peer,
                    0,
                    Bytes::from(vec![p.rank() as u8; 8]),
                    peer as i64,
                    0,
                );
                data[0] as usize
            });
        assert!(report.all_finished());
        assert_eq!(report.processes.len(), 6);
        for proc in &report.processes {
            let expect = 1 - proc.app_rank;
            assert_eq!(proc.outcome.result(), Some(&expect));
        }
        // Each received message is acked to the r-1 = 2 other sender replicas.
        assert_eq!(report.stats.ack_msgs(), report.stats.app_msgs() * 2);
    }

    #[test]
    fn partial_replication_matches_native_results() {
        let app = |p: &mut sim_mpi::Process| {
            let world = p.world();
            let sum = p.allreduce_f64(world, ReduceOp::Sum, (p.rank() * 3 + 1) as f64);
            let peer = (p.rank() + 1) % p.size();
            let from = (p.rank() + p.size() - 1) % p.size();
            let (_, v) = p.sendrecv_bytes(
                world,
                peer,
                5,
                Bytes::from(vec![p.rank() as u8; 16]),
                from as i64,
                5,
            );
            sum + v[0] as f64
        };
        let native = native_job(4).network(fast()).run(app);
        let partial = partial_replicated_job(4, &[0, 2], ReplicationConfig::dual())
            .unwrap()
            .network(fast())
            .run(app);
        assert!(native.all_finished() && partial.all_finished());
        assert_eq!(native.primary_results(), partial.primary_results());
        // 4 singleton-or-primary copies + 2 second copies.
        assert_eq!(partial.processes.len(), 6);
    }

    #[test]
    fn partial_replication_survives_replica_crash_of_covered_rank() {
        // Rank 0 is replicated; losing its second copy must be masked. The
        // second copy never physically sends (its only destination is the
        // singleton rank 1, served by replica 0), so the crash is scheduled
        // on the virtual clock rather than on a send index.
        let partial = partial_replicated_job(2, &[0], ReplicationConfig::dual())
            .unwrap()
            .network(fast())
            .crash(
                EndpointId(2),
                CrashSchedule::AtTime {
                    at: SimTime::from_nanos(1),
                },
            )
            .run(|p| {
                let world = p.world();
                let peer = 1 - p.rank();
                let mut acc = 0u64;
                for round in 0..6u64 {
                    if p.rank() == 0 {
                        p.send_u64s(world, peer, 1, &[round * 2]);
                        let (_, v) = p.recv_u64s(world, peer as i64, 2);
                        acc += v[0];
                    } else {
                        let (_, v) = p.recv_u64s(world, peer as i64, 1);
                        acc += v[0];
                        p.send_u64s(world, peer, 2, &[round * 5]);
                    }
                }
                acc
            });
        assert_eq!(partial.crashed(), vec![EndpointId(2)]);
        let expect0: u64 = (0..6).map(|r| r * 5).sum();
        let expect1: u64 = (0..6).map(|r| r * 2).sum();
        for proc in &partial.processes {
            if proc.endpoint == EndpointId(2) {
                continue;
            }
            let expect = if proc.app_rank == 0 { expect0 } else { expect1 };
            assert_eq!(
                proc.outcome.result(),
                Some(&expect),
                "survivor {:?} must finish with the fault-free result",
                proc.endpoint
            );
        }
    }

    #[test]
    fn partial_replication_unreplicated_crash_is_prompt_rank_lost() {
        // Rank 1 is a singleton: its crash must abort the survivors with a
        // typed RankLost instead of hanging until the receive timeout.
        let partial = partial_replicated_job(2, &[0], ReplicationConfig::dual())
            .unwrap()
            .network(fast())
            .crash(EndpointId(1), CrashSchedule::AfterSend { nth: 1 })
            .run(|p| {
                let world = p.world();
                let peer = 1 - p.rank();
                let mut acc = 0u64;
                for round in 0..6u64 {
                    if p.rank() == 1 {
                        p.send_u64s(world, peer, 1, &[round]);
                        let (_, v) = p.recv_u64s(world, peer as i64, 2);
                        acc += v[0];
                    } else {
                        let (_, v) = p.recv_u64s(world, peer as i64, 1);
                        acc += v[0];
                        p.send_u64s(world, peer, 2, &[round]);
                    }
                }
                acc
            });
        assert_eq!(partial.crashed(), vec![EndpointId(1)]);
        let lost: Vec<String> = partial
            .processes
            .iter()
            .filter(|p| p.endpoint != EndpointId(1))
            .filter_map(|p| match &p.outcome {
                sim_mpi::ProcessOutcome::Panicked(msg) => Some(msg.clone()),
                _ => None,
            })
            .collect();
        assert!(
            !lost.is_empty(),
            "survivors must abort with RankLost, not hang"
        );
        for msg in lost {
            assert!(
                msg.contains("rank 1") && msg.contains("lost all"),
                "panic must name the lost singleton rank: {msg}"
            );
        }
    }

    #[test]
    fn degree_one_behaves_like_native() {
        let app = |p: &mut sim_mpi::Process| {
            let world = p.world();
            p.allreduce_f64(world, ReduceOp::Sum, p.rank() as f64)
        };
        let native = native_job(4).network(fast()).run(app);
        let degree1 = replicated_job(4, ReplicationConfig::with_degree(1))
            .network(fast())
            .run(app);
        assert_eq!(native.primary_results(), degree1.primary_results());
        assert_eq!(native.stats.app_msgs(), degree1.stats.app_msgs());
        assert_eq!(degree1.stats.ack_msgs(), 0);
    }

    #[test]
    fn ack_on_app_wait_deadlocks_irecv_send_wait_pattern() {
        // Section 3.3: if acks were only emitted when the application waits on
        // the receive, the Irecv-Send-Wait exchange deadlocks because both
        // sides block in MPI_Send waiting for an ack that will never be sent.
        let cfg = ReplicationConfig::dual().ack_on(AckOn::AppWait);
        let report = replicated_job(2, cfg).network(fast()).run(|p| {
            let world = p.world();
            let peer = 1 - p.rank();
            let rreq = p.irecv_bytes(world, peer as i64, 0);
            // Blocking send: cannot complete before the peer's replicas ack.
            p.send_bytes(world, peer, 0, Bytes::from(vec![1u8; 32]));
            let _ = p.wait(world, rreq);
        });
        assert!(
            !report.deadlocked().is_empty(),
            "AppWait acking must deadlock the exchange"
        );

        // The same pattern with the paper's RecvComplete acking finishes.
        let report_ok = replicated_job(2, ReplicationConfig::dual())
            .network(fast())
            .run(|p| {
                let world = p.world();
                let peer = 1 - p.rank();
                let rreq = p.irecv_bytes(world, peer as i64, 0);
                p.send_bytes(world, peer, 0, Bytes::from(vec![1u8; 32]));
                let _ = p.wait(world, rreq);
            });
        assert!(report_ok.all_finished());
    }

    #[test]
    fn lossy_links_masked_end_to_end() {
        // The tentpole smoke: dual replication over a transport that drops,
        // duplicates and delays ~2.5% of app/ack deliveries each. SDR-MPI's
        // retransmission timer plus the PML wire-seq dedup window must mask
        // every fault: all processes finish, every accumulated checksum is
        // bit-correct, and the fabric counters prove faults actually fired.
        let rounds = 8u64;
        let report = replicated_job(2, ReplicationConfig::dual())
            .network(fast())
            .net_faults(NetFaultConfig::lossy_links(), 0x1_0551_1105)
            .run(move |p| {
                let world = p.world();
                let peer = 1 - p.rank();
                let mut acc = 0u64;
                for round in 0..rounds {
                    if p.rank() == 0 {
                        p.send_u64s(world, peer, 1, &[round * 3 + 1]);
                        let (_, v) = p.recv_u64s(world, peer as i64, 2);
                        acc = acc.wrapping_mul(31).wrapping_add(v[0]);
                    } else {
                        let (_, v) = p.recv_u64s(world, peer as i64, 1);
                        acc = acc.wrapping_mul(31).wrapping_add(v[0]);
                        p.send_u64s(world, peer, 2, &[round * 7 + 2]);
                    }
                }
                acc
            });
        assert!(
            report.all_finished(),
            "lossy transport must be fully masked: {:?}",
            report
                .processes
                .iter()
                .map(|p| (p.endpoint, p.outcome.is_finished()))
                .collect::<Vec<_>>()
        );
        // Both replicas of each rank computed the identical checksum.
        let mut expect0 = 0u64;
        let mut expect1 = 0u64;
        for round in 0..rounds {
            expect1 = expect1.wrapping_mul(31).wrapping_add(round * 3 + 1);
            expect0 = expect0.wrapping_mul(31).wrapping_add(round * 7 + 2);
        }
        for proc in &report.processes {
            let expect = if proc.app_rank == 0 { expect0 } else { expect1 };
            assert_eq!(proc.outcome.result(), Some(&expect));
        }
        // The faults really fired, and masking really worked.
        assert!(report.stats.msgs_dropped() > 0, "no drops sampled");
        assert!(report.stats.retransmits() > 0, "drops imply retransmits");
        assert_eq!(
            report.stats.dups_suppressed(),
            report.stats.msgs_duplicated(),
            "every duplicated frame must be suppressed exactly once"
        );
    }

    #[test]
    fn delayed_acks_masked_end_to_end() {
        // The second preset: 25% of ack deliveries delayed by 200µs — far
        // past the 50µs retransmission base — provoking spurious retransmits
        // that the receive window must absorb without double delivery.
        let report = replicated_job(2, ReplicationConfig::dual())
            .network(fast())
            .net_faults(NetFaultConfig::delayed_acks(), 0xACDC)
            .run(|p| {
                let world = p.world();
                let peer = 1 - p.rank();
                let mut total = 0u64;
                for round in 0..6u64 {
                    let (_, v) = p.sendrecv_bytes(
                        world,
                        peer,
                        1,
                        Bytes::from((round + p.rank() as u64).to_le_bytes().to_vec()),
                        peer as i64,
                        1,
                    );
                    total += u64::from_le_bytes(v[..8].try_into().unwrap());
                }
                total
            });
        assert!(
            report.all_finished(),
            "delayed acks must be fully masked: {:?}",
            report
                .processes
                .iter()
                .map(|p| (p.endpoint, &p.outcome))
                .collect::<Vec<_>>()
        );
        let expect_r0: u64 = (0..6).map(|r| r + 1).sum();
        let expect_r1: u64 = (0..6).sum();
        for proc in &report.processes {
            let expect = if proc.app_rank == 0 {
                expect_r0
            } else {
                expect_r1
            };
            assert_eq!(proc.outcome.result(), Some(&expect));
        }
        assert!(report.stats.msgs_delayed() > 0, "no ack delays sampled");
        assert_eq!(report.stats.msgs_dropped(), 0, "delayed-acks never drops");
        assert_eq!(
            report.stats.dups_suppressed(),
            report.stats.msgs_duplicated()
        );
    }

    #[test]
    fn send_log_stays_bounded_under_sustained_loss() {
        // Ack-driven GC must keep working when acks themselves get dropped:
        // an unacked entry survives only until its retransmission is
        // re-acked, so the log tracks the (drop rate × retransmission
        // latency) window, not total traffic. 384 synchronous rounds at the
        // lossy-links preset; the bound is far below the round count but
        // generously above the handful of entries a ~2.5% drop rate can keep
        // in flight across one 50µs retransmission window.
        let rounds = 384u64;
        let report = replicated_job(2, ReplicationConfig::dual())
            .network(fast())
            .net_faults(NetFaultConfig::lossy_links(), 0xB0B)
            .run(move |p| {
                let world = p.world();
                let peer = 1 - p.rank();
                let mut peak = 0usize;
                for i in 0..rounds {
                    let (_, v) = p.sendrecv_bytes(
                        world,
                        peer,
                        0,
                        Bytes::from(vec![(i % 256) as u8; 64]),
                        peer as i64,
                        0,
                    );
                    assert_eq!(v.len(), 64);
                    let log = p.protocol().send_log_len();
                    peak = peak.max(log);
                    assert!(
                        log <= 32,
                        "send log grew to {log} entries after {i} rounds: \
                         GC broke under loss"
                    );
                }
                peak as u64
            });
        assert!(report.all_finished());
        assert!(
            report.stats.msgs_dropped() > 0 && report.stats.retransmits() > 0,
            "the run must actually have exercised loss: {} dropped, {} retx",
            report.stats.msgs_dropped(),
            report.stats.retransmits()
        );
        assert_eq!(
            report.stats.dups_suppressed(),
            report.stats.msgs_duplicated()
        );
    }

    #[test]
    fn replication_overhead_is_small_for_compute_bound_app() {
        // The qualitative Table 1 claim: for compute-dominated applications the
        // wall-clock overhead of dual replication is small.
        let app = |p: &mut sim_mpi::Process| {
            let world = p.world();
            for _ in 0..20 {
                p.compute(SimTime::from_micros(200));
                let peer = (p.rank() + 1) % p.size();
                let from = (p.rank() + p.size() - 1) % p.size();
                p.sendrecv_bytes(world, peer, 0, Bytes::from(vec![0u8; 1024]), from as i64, 0);
            }
            p.now().as_micros_f64()
        };
        let native = native_job(4).network(LogGpModel::infiniband_20g()).run(app);
        let replicated = replicated_job(4, ReplicationConfig::dual())
            .network(LogGpModel::infiniband_20g())
            .run(app);
        assert!(native.all_finished() && replicated.all_finished());
        let t_native = native.elapsed.as_secs_f64();
        let t_repl = replicated.elapsed.as_secs_f64();
        let overhead = (t_repl - t_native) / t_native;
        assert!(
            (-0.01..0.25).contains(&overhead),
            "overhead {overhead} out of the expected range (native {t_native}s, replicated {t_repl}s)"
        );
    }
}
