//! NetPipe-style ping-pong microbenchmark (Figure 7a/7b of the paper).
//!
//! Two ranks exchange a message of a given size back and forth; the reported
//! latency is half the average round-trip time and the throughput is the
//! message size divided by that latency — exactly what NetPipe reports.
//! Running the same loop natively and under a replication protocol reproduces
//! the latency/throughput degradation curves of Figure 7.

use bytes::Bytes;
use sim_mpi::{JobBuilder, Process};
use sim_net::SimTime;

/// One point of the NetPipe sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetpipePoint {
    /// Message size in bytes.
    pub size: usize,
    /// One-way latency in microseconds.
    pub latency_us: f64,
    /// Throughput in megabits per second.
    pub throughput_mbps: f64,
}

/// The ping-pong loop run by both ranks. Returns this rank's virtual time
/// spent in the measurement loop.
pub fn ping_pong(p: &mut Process, size: usize, reps: usize) -> SimTime {
    let world = p.world();
    let payload = Bytes::from(vec![0x5Au8; size]);
    // One warm-up round, not timed.
    if p.rank() == 0 {
        p.send_bytes(world, 1, 0, payload.clone());
        p.recv_bytes(world, 1, 0);
    } else {
        p.recv_bytes(world, 0, 0);
        p.send_bytes(world, 0, 0, payload.clone());
    }
    let start = p.now();
    for _ in 0..reps {
        if p.rank() == 0 {
            p.send_bytes(world, 1, 1, payload.clone());
            p.recv_bytes(world, 1, 1);
        } else {
            p.recv_bytes(world, 0, 1);
            p.send_bytes(world, 0, 1, payload.clone());
        }
    }
    p.now() - start
}

/// Run the ping-pong for one message size on a prepared two-rank job builder
/// and convert the result into a [`NetpipePoint`].
pub fn measure(builder: JobBuilder, size: usize, reps: usize) -> NetpipePoint {
    assert!(reps > 0);
    let report = builder.run(move |p| ping_pong(p, size, reps).as_micros_f64());
    assert!(
        report.all_finished(),
        "netpipe run did not finish cleanly: {:?} crashed, {:?} deadlocked",
        report.crashed(),
        report.deadlocked()
    );
    // Rank 0 of the primary replica set measured the full round trips.
    let rank0_us: f64 = *report.primary_results()[0];
    let latency_us = rank0_us / (2.0 * reps as f64);
    let throughput_mbps = if latency_us > 0.0 {
        (size as f64 * 8.0) / latency_us
    } else {
        0.0
    };
    NetpipePoint {
        size,
        latency_us,
        throughput_mbps,
    }
}

/// Sweep the message sizes with a builder factory (one fresh job per size).
pub fn netpipe_sweep<F>(mut make_builder: F, sizes: &[usize], reps: usize) -> Vec<NetpipePoint>
where
    F: FnMut() -> JobBuilder,
{
    sizes
        .iter()
        .map(|&size| measure(make_builder(), size, reps))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdr_core::{native_job, replicated_job, ReplicationConfig};
    use sim_net::LogGpModel;

    #[test]
    fn native_one_byte_latency_matches_calibration() {
        let point = measure(native_job(2).network(LogGpModel::infiniband_20g()), 1, 20);
        // Paper: native Open MPI one-byte latency ≈ 1.67 µs.
        assert!(
            point.latency_us > 1.4 && point.latency_us < 2.0,
            "native 1-byte latency {} µs out of range",
            point.latency_us
        );
    }

    #[test]
    fn replicated_one_byte_latency_overhead_is_noticeable_but_bounded() {
        let native = measure(native_job(2).network(LogGpModel::infiniband_20g()), 1, 20);
        let sdr = measure(
            replicated_job(2, ReplicationConfig::dual()).network(LogGpModel::infiniband_20g()),
            1,
            20,
        );
        let overhead = (sdr.latency_us - native.latency_us) / native.latency_us;
        // Paper: 1.67 µs → 2.37 µs, i.e. ≈ +42%. Accept a generous band.
        assert!(
            overhead > 0.10 && overhead < 0.90,
            "1-byte replication latency overhead {overhead} out of the expected band (native {} µs, SDR {} µs)",
            native.latency_us,
            sdr.latency_us
        );
    }

    #[test]
    fn large_message_overhead_vanishes() {
        let size = 1 << 20;
        let native = measure(native_job(2).network(LogGpModel::infiniband_20g()), size, 5);
        let sdr = measure(
            replicated_job(2, ReplicationConfig::dual()).network(LogGpModel::infiniband_20g()),
            size,
            5,
        );
        let overhead = (sdr.latency_us - native.latency_us) / native.latency_us;
        assert!(
            overhead < 0.05,
            "1 MiB replication overhead {overhead} should be below 5%"
        );
        assert!(native.throughput_mbps > 1_000.0);
    }

    #[test]
    fn throughput_grows_with_message_size() {
        let points = netpipe_sweep(
            || native_job(2).network(LogGpModel::infiniband_20g()),
            &[64, 4096, 262144],
            5,
        );
        assert!(points[0].throughput_mbps < points[1].throughput_mbps);
        assert!(points[1].throughput_mbps < points[2].throughput_mbps);
    }
}
