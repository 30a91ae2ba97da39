//! Regenerates Table 1: NAS-like kernels (BT, CG, FT, MG, SP), native vs SDR-MPI.
//!
//! Usage: `table1_nas [--ranks N] [--class s|test|d] [--degree D]
//! [--coverage F] [--workers W] [--json PATH]`
//!
//! The paper evaluates at 256 ranks; `--ranks 64|128|256` reproduces that
//! scaling axis (pair large rank counts with `--class s` for a fast run, or
//! `--class d` for the class-D-like compute density — the batched delivery
//! path keeps even `--ranks 256 --class d` CI-feasible). The scheduler
//! multiplexes all simulated processes — 512 of them at `--ranks 256` under
//! dual replication — over a worker pool bounded by the host core count
//! (override with `--workers`; `--workers 1` is the deterministic
//! single-permit replay mode). Every process lives on a pooled user-space
//! stack and the whole job runs on the worker threads, which is what carries
//! the harness to `--ranks 4096` (8192 processes); the worker threads come
//! from the process-global pool, so the ten back-to-back jobs of one
//! invocation reuse one thread set.
//! `--json PATH` writes the machine-readable report (wall times plus
//! scheduler wake / dispatch / ingest / thread-churn counters) that CI
//! uploads as the `BENCH_table1.json` artifact. `--degree D` replicates every
//! rank at degree D instead of the paper's dual; `--coverage F` (with degree
//! 2) replicates only the first `ceil(F * ranks)` ranks and leaves the rest
//! as crash-fatal singletons — the partial layouts of the replica
//! map.
fn main() {
    let args = sdr_bench::parse_harness_args(std::env::args().skip(1), 16);
    let rows = sdr_bench::table1_rows(args.ranks, args.cfg, &args.layout(), args.tuning);
    print!(
        "{}",
        sdr_bench::format_comparison_table(
            &format!(
                "Table 1: NAS-like kernels (ranks={}, replication degree={}, coverage={})",
                args.ranks, args.degree, args.coverage
            ),
            &rows
        )
    );
    print!("{}", sdr_bench::format_delivery_summary(&rows));
    if let Some(path) = &args.json_path {
        let json = sdr_bench::table_report_json("table1_nas", args.ranks, &args.class_name, &rows);
        std::fs::write(path, json)
            .unwrap_or_else(|e| panic!("cannot write JSON report to {}: {e}", path.display()));
        eprintln!("wrote {}", path.display());
    }
}
