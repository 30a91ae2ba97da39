//! The overhead-vs-coverage frontier of partial replica maps: one NAS
//! kernel measured native vs replicated at degree 2 for every coverage in
//! `{0.25, 0.5, 0.75, 1.0}`, plus full replication at degree 3.
//!
//! Usage: `layout_sweep [--ranks N] [--class s|test|d] [--workers W]
//! [--json PATH]`
//!
//! The sweep quantifies what partial replication buys: a coverage-F run
//! replicates only the first `ceil(F * ranks)` ranks, pays replica traffic
//! and ack round-trips only for those, and leaves the rest as crash-fatal
//! singletons. The binary asserts the frontier's invariants before writing
//! anything — replica traffic must climb strictly along the coverage ladder
//! (message counts are deterministic), virtual-time overhead must climb up
//! to a small scheduling-drift tolerance (reported timings wobble ~0.02%
//! between runs, which at communication-dominated classes exceeds the gap
//! between adjacent coverage points), every layout must reproduce the native
//! result bit-identically, and the coverage-1.0 degree-2 point is the exact
//! historic Table 1 configuration, so it stays comparable with the
//! `BENCH_table1.json` band. `--json PATH` writes the `BENCH_layouts.json`
//! artifact.
fn main() {
    let args = sdr_bench::parse_harness_args(std::env::args().skip(1), 16);
    let kernel = workloads::nas::NasKernel::Cg;
    let points = sdr_bench::layout_sweep_points(args.ranks, args.cfg, kernel, args.tuning);
    print!(
        "{}",
        sdr_bench::format_comparison_table(
            &format!(
                "Layout sweep: {} overhead vs coverage (ranks={}, class={})",
                kernel.name(),
                args.ranks,
                args.class_name
            ),
            &points
        )
    );
    for p in &points {
        assert!(
            p.results_match,
            "degree {} coverage {} diverged from the native result",
            p.degree, p.coverage
        );
    }
    // Message counts are exact; virtual-time overhead carries run-to-run
    // scheduling drift, so tolerate a sub-point dip before calling it a
    // regression.
    const OVERHEAD_DRIFT_TOLERANCE_PCT: f64 = 1.0;
    let ladder: Vec<_> = points.iter().filter(|p| p.degree == 2).collect();
    for w in ladder.windows(2) {
        assert!(
            w[0].replicated.stats.app_msgs() < w[1].replicated.stats.app_msgs(),
            "replica traffic must grow with coverage: {:.2} -> {:.2}",
            w[0].coverage,
            w[1].coverage
        );
        assert!(
            w[1].overhead_pct >= w[0].overhead_pct - OVERHEAD_DRIFT_TOLERANCE_PCT,
            "overhead must grow with coverage: {:.2} ({:.3}%) -> {:.2} ({:.3}%)",
            w[0].coverage,
            w[0].overhead_pct,
            w[1].coverage,
            w[1].overhead_pct
        );
    }
    if let Some(path) = &args.json_path {
        let json = sdr_bench::layouts_report_json(
            "layout_sweep",
            args.ranks,
            &args.class_name,
            kernel.name(),
            &points,
        );
        std::fs::write(path, json)
            .unwrap_or_else(|e| panic!("cannot write JSON report to {}: {e}", path.display()));
        eprintln!("wrote {}", path.display());
    }
}
