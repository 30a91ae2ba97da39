//! Native-vs-replicated comparison runner.
//!
//! The rows of the paper's Table 1 and Table 2 all have the same shape:
//! *application, native wall-clock time, replicated wall-clock time, overhead
//! in percent*. [`compare`] runs one workload under both configurations on
//! the calibrated InfiniBand-20G model and produces such a row; the
//! `sdr-bench` harness binaries print them.

use crate::serve::LayoutSpec;
use sim_mpi::{JobBuilder, JobReport, Process};
use sim_net::{LogGpModel, StatsSnapshot};
use std::sync::Arc;

/// A workload packaged for comparison runs.
#[derive(Clone)]
pub struct WorkloadSpec {
    /// Display name (e.g. "CG", "HPCCG").
    pub name: String,
    /// Number of application ranks to run with.
    pub ranks: usize,
    /// The application body. Must be send-deterministic and return a checksum.
    pub app: Arc<dyn Fn(&mut Process) -> f64 + Send + Sync>,
}

impl WorkloadSpec {
    /// Package a workload.
    pub fn new<F>(name: &str, ranks: usize, app: F) -> Self
    where
        F: Fn(&mut Process) -> f64 + Send + Sync + 'static,
    {
        WorkloadSpec {
            name: name.to_string(),
            ranks,
            app: Arc::new(app),
        }
    }
}

/// One side (native or replicated) of a comparison: the run's fabric
/// counters — message counts per class, wakes, dispatch and ingest
/// splits, coroutine stacks; see [`StatsSnapshot`] — plus the host-side
/// facts only the job report knows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSide {
    /// The fabric's counter table at the end of the run.
    pub stats: StatsSnapshot,
    /// Worker threads freshly spawned for the run.
    pub threads_spawned: u64,
    /// Worker threads recycled from the process-global pool.
    pub threads_reused: u64,
    /// Scheduler worker-pool size the run executed with.
    pub workers: u64,
    /// Host (real) seconds the run took, as opposed to simulated seconds.
    pub host_secs: f64,
}

impl RunSide {
    fn from_report<R>(report: &JobReport<R>, host_secs: f64) -> Self {
        RunSide {
            stats: report.stats,
            threads_spawned: report.threads_spawned as u64,
            threads_reused: report.threads_reused as u64,
            workers: report.workers as u64,
            host_secs,
        }
    }
}

/// One row of a Table-1/Table-2-style comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonRow {
    /// Workload name.
    pub name: String,
    /// Number of application ranks.
    pub ranks: usize,
    /// Replication degree of the replicated run (the maximum per-rank degree
    /// for partial layouts).
    pub degree: usize,
    /// Fraction of ranks with at least two replicas (1.0 for the full
    /// layouts, the covered fraction for partial replication).
    pub coverage: f64,
    /// Native simulated wall-clock time, seconds.
    pub native_secs: f64,
    /// Replicated simulated wall-clock time, seconds.
    pub replicated_secs: f64,
    /// Overhead in percent.
    pub overhead_pct: f64,
    /// Whether the native and replicated checksums agreed.
    pub results_match: bool,
    /// Counters of the native run.
    pub native: RunSide,
    /// Counters of the replicated run.
    pub replicated: RunSide,
}

fn checksums(report: &JobReport<f64>) -> Vec<f64> {
    report.primary_results().into_iter().copied().collect()
}

/// Execution-layer tuning for harness runs, threaded down to the scheduler:
/// `None` fields keep the [`sim_mpi::JobBuilder`] defaults.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunTuning {
    /// Scheduler worker-pool size (how many simulated processes execute
    /// concurrently). Defaults to `min(host cores, physical processes)`.
    pub workers: Option<usize>,
}

impl RunTuning {
    /// Apply the tuning to a builder (`None` fields leave the defaults).
    pub fn apply(self, builder: JobBuilder) -> JobBuilder {
        match self.workers {
            Some(w) => builder.workers(w),
            None => builder,
        }
    }
}

/// Run `spec` natively and replicated under `layout` — full replication at
/// any degree, or a partial layout — on the InfiniBand-20G model and build
/// the row. Both builders come from [`LayoutSpec::builder`], the same switch
/// job specs compile through, so a table row and a served job of the same
/// layout launch the same protocol factory, cluster and placement. The row's
/// `degree` and `coverage` are read back from the replicated run's process
/// table. The scheduler multiplexes the job's processes over the bounded
/// worker pool regardless of rank count, which is what carries the ≥ 64-rank
/// harness configurations.
pub fn compare(spec: &WorkloadSpec, layout: &LayoutSpec, tuning: RunTuning) -> ComparisonRow {
    let run = |layout: &LayoutSpec, side: &str| {
        let builder = layout
            .builder(spec.ranks)
            .unwrap_or_else(|e| panic!("{}: {e}", spec.name))
            .network(LogGpModel::infiniband_20g());
        let app = Arc::clone(&spec.app);
        let started = std::time::Instant::now();
        let report = tuning.apply(builder).run(move |p| (app)(p));
        let host_secs = started.elapsed().as_secs_f64();
        assert!(
            report.all_finished(),
            "{}: {side} run did not finish",
            spec.name
        );
        (report, host_secs)
    };
    let (native, native_host_secs) = run(&LayoutSpec::Native, "native");
    let (replicated, replicated_host_secs) = run(layout, "replicated");
    let replicas = &replicated.processes;
    let covered = replicas.iter().filter(|p| p.replica == 1).count();
    let native_secs = native.elapsed.as_secs_f64();
    let replicated_secs = replicated.elapsed.as_secs_f64();
    ComparisonRow {
        name: spec.name.clone(),
        ranks: spec.ranks,
        degree: replicas.iter().map(|p| p.replica + 1).max().unwrap_or(0),
        coverage: covered as f64 / spec.ranks as f64,
        native_secs,
        replicated_secs,
        overhead_pct: (replicated_secs - native_secs) / native_secs * 100.0,
        results_match: checksums(&native) == checksums(&replicated),
        native: RunSide::from_report(&native, native_host_secs),
        replicated: RunSide::from_report(&replicated, replicated_host_secs),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nas::{run_kernel, NasConfig, NasKernel};

    const DUAL: LayoutSpec = LayoutSpec::Replicated { degree: 2 };

    #[test]
    fn comparison_row_for_cg_is_sane() {
        let cfg = NasConfig::test_size();
        let spec = WorkloadSpec::new("CG", 4, move |p| run_kernel(NasKernel::Cg, p, &cfg));
        let row = compare(&spec, &DUAL, RunTuning::default());
        assert!(
            row.results_match,
            "native and replicated checksums must agree"
        );
        assert_eq!((row.degree, row.coverage), (2, 1.0));
        assert!(row.native_secs > 0.0);
        assert!(row.replicated_secs > 0.0);
        let side = &row.replicated;
        let d = &side.stats;
        assert_eq!(d.app_msgs(), row.native.stats.app_msgs() * 2);
        assert!(d.ack_msgs() > 0);
        assert!(
            d.handoffs + d.condvar_waits > 0,
            "the run must have dispatched through the scheduler"
        );
        assert_eq!(
            d.stacks_allocated + d.stacks_reused,
            8,
            "4 ranks at dual replication need exactly 8 coroutine stacks"
        );
        assert!(d.stack_switches > 0, "the run must have stack-switched");
        assert_eq!(
            side.threads_spawned + side.threads_reused,
            side.workers,
            "the worker pool hosts the whole job"
        );
        assert!(side.host_secs > 0.0);
        assert!(
            row.overhead_pct > -2.0 && row.overhead_pct < 50.0,
            "unexpected overhead {}% for a small test problem",
            row.overhead_pct
        );
    }

    #[test]
    fn partial_layout_row_scales_message_overhead_with_coverage() {
        let cfg = NasConfig::test_size();
        let spec = WorkloadSpec::new("CG", 4, move |p| run_kernel(NasKernel::Cg, p, &cfg));
        let layout = LayoutSpec::Coverage { coverage: 0.5 };
        let row = compare(&spec, &layout, RunTuning::default());
        assert!(
            row.results_match,
            "mapped run must match the native results"
        );
        assert_eq!(row.coverage, 0.5);
        assert_eq!(row.degree, 2);
        // Each logical message is physically copied once per destination
        // replica: at half coverage the traffic sits strictly between the
        // native and full-dual volumes.
        let (native, replicated) = (row.native.stats.app_msgs(), row.replicated.stats.app_msgs());
        assert!(replicated > native);
        assert!(replicated < native * 2);
    }

    #[test]
    fn class_d_like_cg_overhead_below_five_percent() {
        // The Table 1 claim, at reduced scale: with class-D-like compute
        // density the SDR-MPI overhead stays below 5%.
        let cfg = NasConfig::class_d_like();
        let spec = WorkloadSpec::new("CG", 8, move |p| run_kernel(NasKernel::Cg, p, &cfg));
        let row = compare(&spec, &DUAL, RunTuning::default());
        assert!(row.results_match);
        assert!(
            row.overhead_pct < 5.0,
            "CG overhead {}% exceeds the paper's 5% bound",
            row.overhead_pct
        );
    }
}
