//! A protocol abort is control flow, not a bug. `Action::Abort` fails its
//! process with `sim_mpi::MpiError::ProtocolAbort`, which the launcher's
//! panic hook silences, as it does for crash signals and lost ranks. The
//! served record carries the abort's message instead.
//!
//! The job is `bt-lossy-crash` from `benchmark/README.md` without its
//! `"carrier"` key. Its elected substitute re-sends without a wire sequence,
//! so some sends stay unacknowledged until the retransmission cap aborts
//! them (ROADMAP item 2). The parent re-executes this test binary on the
//! ignored child test with `RUST_BACKTRACE=1` and `--nocapture`, so a panic
//! report, had one been printed, would reach the child's stderr.

use sdr_mpi::workloads::serve::{run_job, JobSpec};

const CHILD_ENV: &str = "SDR_PROTOCOL_ABORT_CHILD";

const LINE: &str = r#"{"id":"bt-lossy-crash","workload":"bt","ranks":64,"class":"s","layout":"replicated","degree":2,"workers":1,"seed":148841292080977,"crashes":[{"endpoint":79,"kind":"after-send","nth":3}],"net":{"drop_per_64k":1638,"dup_per_64k":1638,"delay_per_64k":1638,"delay_ns":20000,"ack_only":false,"seed":4192}}"#;

const ABORT: &str = "still unacked after 32 retransmission timeouts";

#[test]
#[ignore = "prints to the real stderr; run by a_protocol_abort_prints_no_panic_report_and_is_recorded"]
fn protocol_abort_child() {
    if std::env::var(CHILD_ENV).is_err() {
        return;
    }
    let spec = JobSpec::parse_line(LINE).expect("a valid spec line");
    let record = run_job(&spec, 0).expect("the spec compiles");
    let panicked: Vec<_> = record
        .processes
        .iter()
        .filter(|p| p.outcome == "panicked")
        .collect();
    assert!(!panicked.is_empty(), "the job aborted no process");
    for p in &panicked {
        let message = p.message.as_deref().unwrap_or("");
        assert!(
            message.contains(ABORT),
            "endpoint {}: {message}",
            p.endpoint
        );
    }
    let json = record.to_json().encode();
    assert!(json.contains(ABORT), "the encoded record names the abort");
}

#[test]
fn a_protocol_abort_prints_no_panic_report_and_is_recorded() {
    let exe = std::env::current_exe().expect("test binary path");
    let out = std::process::Command::new(exe)
        .args([
            "--ignored",
            "--exact",
            "protocol_abort_child",
            "--nocapture",
            "--test-threads=1",
        ])
        .env(CHILD_ENV, "1")
        .env("RUST_BACKTRACE", "1")
        .output()
        .expect("spawn child test process");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success() && stdout.contains("1 passed"),
        "child failed: {:?}\nstdout:\n{stdout}\nstderr:\n{stderr}",
        out.status
    );
    assert!(
        !stderr.contains("panicked at") && !stderr.contains("stack backtrace"),
        "a protocol abort printed a panic report:\n{stderr}"
    );
}
