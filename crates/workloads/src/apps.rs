//! HPCCG- and CM1-like applications (Table 2 of the paper).
//!
//! These two applications matter because they contain `MPI_ANY_SOURCE`
//! receptions: the paper uses them to show that SDR-MPI's performance does not
//! degrade on anonymous receptions (contrary to the leader-based rMPI and
//! redMPI protocols).
//!
//! * [`run_hpccg`] — conjugate gradient on a 3-D chimney domain decomposed in
//!   the z direction; each mat-vec exchanges boundary planes with the up/down
//!   neighbours, and the receives use `MPI_ANY_SOURCE` (the sender is
//!   identified from the status), plus the usual dot-product allreduces.
//! * [`run_cm1`] — an atmospheric-model-like stencil on a 2-D process grid:
//!   per step, halo exchange with the four neighbours using `MPI_ANY_SOURCE`
//!   receives, local advection/diffusion update, and a CFL allreduce every few
//!   steps.

use sim_mpi::datatype::{f64s_to_bytes, iter_f64s};
use sim_mpi::{Process, ReduceOp, ANY_SOURCE};
use sim_net::SimTime;

/// Configuration shared by the two applications.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppConfig {
    /// Local plane size (points per boundary plane exchanged with a
    /// neighbour).
    pub plane_points: usize,
    /// Local volume points per rank (drives the compute charge).
    pub volume_points: usize,
    /// Outer iterations (CG iterations / time steps).
    pub iterations: usize,
    /// Virtual nanoseconds of computation per volume point per iteration.
    pub compute_ns_per_point: u64,
}

impl AppConfig {
    /// Small configuration for unit tests.
    pub fn test_size() -> Self {
        AppConfig {
            plane_points: 64,
            volume_points: 2_048,
            iterations: 4,
            compute_ns_per_point: 30,
        }
    }

    /// HPCCG with the paper's 128×128×64 local domain flavour (scaled).
    pub fn hpccg_paper_like() -> Self {
        AppConfig {
            plane_points: 1_024,
            volume_points: 32_768,
            iterations: 20,
            compute_ns_per_point: 60,
        }
    }

    /// CM1 with the paper's 160×160×160 flavour (scaled).
    pub fn cm1_paper_like() -> Self {
        AppConfig {
            plane_points: 1_536,
            volume_points: 49_152,
            iterations: 16,
            compute_ns_per_point: 90,
        }
    }

    fn charge(&self, p: &mut Process, weight: f64) {
        let ns = (self.volume_points as f64 * self.compute_ns_per_point as f64 * weight) as u64;
        p.compute(SimTime::from_nanos(ns));
    }
}

/// HPCCG-like conjugate gradient with anonymous halo receptions. Returns the
/// final residual norm.
pub fn run_hpccg(p: &mut Process, cfg: &AppConfig) -> f64 {
    let world = p.world();
    let rank = p.rank();
    let size = p.size();
    let n = cfg.plane_points;
    let mut x: Vec<f64> = (0..n)
        .map(|i| ((rank * n + i) as f64 * 0.21).sin())
        .collect();
    let up = (rank + 1 < size).then_some(rank + 1);
    let down = rank.checked_sub(1);
    // Halo planes decoded into buffers owned from before the first
    // iteration; a missing neighbour's plane stays zero.
    let mut halo_up = vec![0.0; n];
    let mut halo_down = vec![0.0; n];
    let mut residual = 0.0;
    for it in 0..cfg.iterations {
        // Boundary-plane exchange with up/down neighbours, received
        // anonymously (HPCCG posts wildcard receives for its neighbour
        // planes and sorts them out by inspecting the status).
        let tag = 200 + it as i64 % 2;
        let reqs = [up, down].map(|nb| nb.map(|_| p.irecv_bytes(world, ANY_SOURCE, tag)));
        // Both neighbours get the same plane: encoded once, shared.
        let plane = f64s_to_bytes(&x);
        for nb in [up, down].into_iter().flatten() {
            p.send_bytes(world, nb, tag, plane.clone());
        }
        for req in reqs.into_iter().flatten() {
            let (status, payload) = p.wait(world, req);
            let halo = if Some(status.source) == up {
                &mut halo_up
            } else {
                &mut halo_down
            };
            for (h, v) in halo
                .iter_mut()
                .zip(iter_f64s(&payload.expect("halo plane")))
            {
                *h = v;
            }
        }
        // 27-point-ish local mat-vec + CG vector updates (charged, simplified
        // numerically to a weighted neighbour sum).
        cfg.charge(p, 4.0);
        for i in 0..n {
            x[i] = 0.6 * x[i] + 0.2 * halo_up[i] + 0.2 * halo_down[i] + 1e-3;
        }
        // Two dot products per iteration (residual and search direction).
        let local: f64 = x.iter().map(|v| v * v).sum();
        residual = p.allreduce_f64(world, ReduceOp::Sum, local);
        let _alpha = p.allreduce_f64(world, ReduceOp::Sum, local * 0.5);
    }
    residual.sqrt()
}

/// CM1-like atmospheric stencil with anonymous halo receptions. Returns a
/// domain checksum.
pub fn run_cm1(p: &mut Process, cfg: &AppConfig) -> f64 {
    let world = p.world();
    let size = p.size();
    let rank = p.rank();
    // 2-D process grid.
    let mut px = (size as f64).sqrt() as usize;
    while px > 1 && !size.is_multiple_of(px) {
        px -= 1;
    }
    let px = px.max(1);
    let py = size / px;
    let (ix, iy) = (rank % px, rank / px);
    let n = cfg.plane_points;
    let mut field: Vec<f64> = (0..n)
        .map(|i| ((rank * 7 + i) as f64 * 0.05).cos())
        .collect();
    let neighbour = |dx: i64, dy: i64| -> Option<usize> {
        let nx = ix as i64 + dx;
        let ny = iy as i64 + dy;
        if nx < 0 || ny < 0 || nx >= px as i64 || ny >= py as i64 {
            None
        } else {
            Some(ny as usize * px + nx as usize)
        }
    };
    let neighbours: Vec<usize> = [(1i64, 0i64), (-1, 0), (0, 1), (0, -1)]
        .iter()
        .filter_map(|&(dx, dy)| neighbour(dx, dy))
        .collect();
    // One halo buffer per neighbour, in ascending source order, and their
    // sum: owned from before the first step.
    let mut sources = neighbours.clone();
    sources.sort_unstable();
    let mut halos = vec![vec![0.0; n]; sources.len()];
    let mut halo_sum = vec![0.0; n];
    let mut checksum = 0.0;
    for step in 0..cfg.iterations {
        let tag = 300 + (step % 2) as i64;
        // CM1 posts wildcard receives for all incoming halos of the step.
        let mut reqs = [None; 4];
        for req in &mut reqs[..neighbours.len()] {
            *req = Some(p.irecv_bytes(world, ANY_SOURCE, tag));
        }
        // Every neighbour gets the same field: encoded once, shared.
        let face = f64s_to_bytes(&field);
        for &nb in &neighbours {
            p.send_bytes(world, nb, tag, face.clone());
        }
        // Decode each halo into its actual sender's buffer, then combine them
        // in source order: the result is independent of the reception order,
        // which keeps the kernel send-deterministic down to the last
        // floating-point bit (the property the whole protocol relies on).
        for req in reqs.into_iter().flatten() {
            let (status, payload) = p.wait(world, req);
            let slot = sources
                .binary_search(&status.source)
                .expect("a halo from a neighbour");
            for (h, v) in halos[slot]
                .iter_mut()
                .zip(iter_f64s(&payload.expect("halo")))
            {
                *h = v;
            }
        }
        halo_sum.fill(0.0);
        for values in &halos {
            for (h, v) in halo_sum.iter_mut().zip(values) {
                *h += v;
            }
        }
        // Advection/diffusion update over the local volume.
        cfg.charge(p, 6.0);
        for i in 0..n {
            field[i] = 0.92 * field[i] + 0.02 * halo_sum[i] + 1e-4;
        }
        // CFL condition check every 4 steps (global max reduce).
        if step % 4 == 3 {
            let local_max = field.iter().cloned().fold(f64::MIN, f64::max);
            let _cfl = p.allreduce_f64(world, ReduceOp::Max, local_max);
        }
        checksum = p.allreduce_f64(world, ReduceOp::Sum, field.iter().sum());
    }
    checksum
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdr_core::{native_job, replicated_job, ReplicationConfig};
    use sim_net::LogGpModel;

    #[test]
    fn hpccg_native_equals_replicated() {
        let cfg = AppConfig::test_size();
        let app = move |p: &mut Process| run_hpccg(p, &cfg);
        let native = native_job(4)
            .network(LogGpModel::fast_test_model())
            .run(app);
        let repl = replicated_job(4, ReplicationConfig::dual())
            .network(LogGpModel::fast_test_model())
            .run(app);
        assert!(native.all_finished() && repl.all_finished());
        assert_eq!(native.primary_results(), repl.primary_results());
        // Anonymous receptions must not require any leader traffic.
        assert_eq!(repl.stats.control_msgs(), 0);
    }

    #[test]
    fn cm1_native_equals_replicated() {
        let cfg = AppConfig::test_size();
        let app = move |p: &mut Process| run_cm1(p, &cfg);
        let native = native_job(4)
            .network(LogGpModel::fast_test_model())
            .run(app);
        let repl = replicated_job(4, ReplicationConfig::dual())
            .network(LogGpModel::fast_test_model())
            .run(app);
        assert!(native.all_finished() && repl.all_finished());
        assert_eq!(native.primary_results(), repl.primary_results());
        assert_eq!(repl.stats.control_msgs(), 0);
    }

    #[test]
    fn hpccg_all_replicas_agree_despite_any_source() {
        // Both replicas of every rank must compute the same residual even
        // though their reception orders may differ.
        let cfg = AppConfig::test_size();
        let repl = replicated_job(4, ReplicationConfig::dual())
            .network(LogGpModel::fast_test_model())
            .run(move |p| run_hpccg(p, &cfg));
        assert!(repl.all_finished());
        for rank in 0..4 {
            let values: Vec<f64> = repl
                .processes
                .iter()
                .filter(|pr| pr.app_rank == rank)
                .filter_map(|pr| pr.outcome.result().copied())
                .collect();
            assert_eq!(values.len(), 2);
            assert_eq!(values[0], values[1], "replicas of rank {rank} diverged");
        }
    }

    #[test]
    fn cm1_survives_replica_crash() {
        use sim_net::{CrashSchedule, EndpointId};
        let cfg = AppConfig::test_size();
        let repl = replicated_job(4, ReplicationConfig::dual())
            .network(LogGpModel::fast_test_model())
            .crash(EndpointId(6), CrashSchedule::AfterSend { nth: 6 })
            .run(move |p| run_cm1(p, &cfg));
        assert_eq!(repl.crashed(), vec![EndpointId(6)]);
        // The primary replica set is unaffected and computes the full result.
        let finished_primary = repl
            .processes
            .iter()
            .filter(|p| p.replica == 0)
            .all(|p| p.outcome.is_finished());
        assert!(finished_primary, "primary replica set must finish");
    }
}
