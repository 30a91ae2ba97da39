//! Regenerates Table 2: HPCCG and CM1 (applications with MPI_ANY_SOURCE).
//!
//! Usage: `table2_apps [--ranks N] [--workers W] [--json PATH]` (`--class` is
//! accepted for symmetry with `table1_nas` but ignored: Table 2's applications
//! carry their own problem configuration).
fn main() {
    let args = sdr_bench::or_exit(
        sdr_bench::parse_harness_args(std::env::args().skip(1), 16),
        &format!("usage: table2_apps {}", sdr_bench::HARNESS_FLAGS),
    );
    let rows = sdr_bench::table2_rows(args.ranks, args.workers);
    print!(
        "{}",
        sdr_bench::format_comparison_table(
            &format!(
                "Table 2: HPCCG and CM1 (ranks={}, replication degree=2)",
                args.ranks
            ),
            &rows
        )
    );
    print!("{}", sdr_bench::format_delivery_summary(&rows));
    if let Some(path) = &args.json_path {
        let json = sdr_bench::table_report_json("table2_apps", args.ranks, "-", &rows);
        std::fs::write(path, json)
            .unwrap_or_else(|e| panic!("cannot write JSON report to {}: {e}", path.display()));
        eprintln!("wrote {}", path.display());
    }
}
