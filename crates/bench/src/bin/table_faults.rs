//! Runs the Monte Carlo fault campaign: seeded crash and soft-error
//! injection over the paper's fault model, one seed range per distribution.
//!
//! Usage: `table_faults [--ranks N] [--seeds N] [--base-seed N] [--iters N]
//! [--workers W] [--json PATH]`
//!
//! Each case is fully determined by `(config, seed)`: sampling writes the
//! faults straight into the case's `JobSpec`, and every case is judged on
//! the `JobRecord` that `sdr_serve` streams for it, so a reported violation
//! prints (and the JSON report embeds) the one line that replays it under
//! `sdr_serve --queue`; `workloads::campaign::shrink` reduces it to a
//! minimal failing spec line, rerunning candidates under the deterministic
//! `--workers 1` scheduler. At `--workers 1` two runs print byte-identical
//! text and JSON (CI `faults-smoke` compares them).
//! `--json PATH` writes the machine-readable report that CI uploads as the
//! `BENCH_faults.json` artifact and gates on: 100% survivability for the
//! single-replica-loss distributions, 100% prompt aborts for the correlated
//! pair loss, 100% SDC detection, and 100% masked survival with exact
//! duplicate accounting for the lossy-transport distributions. The
//! replica-map rows additionally gate on degree-3 majority-loss
//! survival, degree-3 SDC *correction* (`sdc_corrected == sdc_injected`),
//! and the partial-coverage split (covered ranks survive, unreplicated ranks
//! abort promptly). The report also carries the fixed-rate lossy sweep
//! (survivability and masked-delivery overhead vs drop rate, 1%–10%).
fn main() {
    let args = sdr_bench::or_exit(
        sdr_bench::parse_faults_args(std::env::args().skip(1)),
        sdr_bench::FAULTS_USAGE,
    );
    let rows = sdr_bench::fault_campaign_rows(
        args.ranks,
        args.seeds,
        args.base_seed,
        args.iterations,
        args.workers,
    );
    print!(
        "{}",
        sdr_bench::format_faults_table(
            &format!(
                "Fault campaign: {} seeded cases per distribution (ranks={}, \
                 iters={}, seeds {}..{})",
                args.seeds,
                args.ranks,
                args.iterations,
                args.base_seed,
                args.base_seed + args.seeds as u64 - 1
            ),
            &rows
        )
    );
    let sweep_cases = (args.seeds / 5).max(3);
    let sweep = sdr_bench::lossy_rate_sweep(
        args.ranks,
        sweep_cases,
        args.base_seed,
        args.iterations,
        args.workers,
    );
    print!(
        "{}",
        sdr_bench::format_lossy_sweep_table(
            &format!(
                "Lossy-link sweep: {sweep_cases} cases per fixed drop rate \
                 (dup/delay at half the drop rate, delay 20us)"
            ),
            &sweep
        )
    );
    if let Some(path) = &args.json_path {
        let json = sdr_bench::faults_report_json(
            "table_faults",
            args.ranks,
            args.seeds,
            args.base_seed,
            args.iterations,
            &rows,
            &sweep,
        );
        std::fs::write(path, json)
            .unwrap_or_else(|e| panic!("cannot write JSON report to {}: {e}", path.display()));
        eprintln!("wrote {}", path.display());
    }
    let violations: usize = rows
        .iter()
        .map(|r| r.summary.violations.len())
        .chain(sweep.iter().map(|r| r.summary.violations.len()))
        .sum();
    if violations > 0 {
        eprintln!("{violations} expectation violation(s) — see the tables above");
        std::process::exit(1);
    }
}
