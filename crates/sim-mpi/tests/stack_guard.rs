//! Stack-overflow containment for coroutine carriers.
//!
//! A simulated process that recurses past its coroutine stack must hit the
//! `PROT_NONE` guard region, print an actionable diagnostic, and abort the
//! process — instead of silently scribbling over the neighbouring stack in
//! the pool's mmap'd region. Aborting is deliberate: once a guard page is
//! hit the faulting frame cannot be unwound safely, so the only sound
//! containment is "loud, immediate death" with a diagnostic that names the
//! stack size (`sim_mpi::runtime::DEFAULT_PROC_STACK`).
//!
//! The overflow necessarily kills the whole process, so the test runs the
//! overflowing job in a child: the parent re-executes this test binary with
//! `SDR_STACK_GUARD_CHILD=1` targeting the `#[ignore]`d child test, and
//! asserts on the child's exit status and stderr.

use sim_mpi::JobBuilder;
use sim_net::LogGpModel;

/// Burn ~1 KiB of stack per level, defeating tail-call and frame-merging
/// optimisations with `black_box`, until well past any plausible stack size
/// (the 1 MiB default is crossed after about a thousand frames).
fn recurse(depth: u64) -> u64 {
    let mut frame = [depth; 128];
    std::hint::black_box(&mut frame);
    if depth >= 10_000_000 {
        return frame[0];
    }
    recurse(depth + 1).wrapping_add(std::hint::black_box(frame[127]))
}

#[test]
#[ignore = "aborts by design; run by stack_overflow_is_contained_with_a_diagnostic"]
fn overflow_child() {
    if std::env::var("SDR_STACK_GUARD_CHILD").is_err() {
        return;
    }
    // Every coroutine stack is `DEFAULT_PROC_STACK` bytes: the recursion
    // crosses its guard region.
    let report = JobBuilder::new(2)
        .network(LogGpModel::fast_test_model())
        .run(|p| if p.rank() == 0 { recurse(0) } else { 0 });
    // Unreachable: the overflow aborts the process before the job returns.
    panic!("job survived a stack overflow: {:?}", report.all_finished());
}

#[test]
fn stack_overflow_is_contained_with_a_diagnostic() {
    let exe = std::env::current_exe().expect("test binary path");
    let out = std::process::Command::new(exe)
        .args(["--ignored", "--exact", "overflow_child", "--test-threads=1"])
        .env("SDR_STACK_GUARD_CHILD", "1")
        .output()
        .expect("spawn child test process");
    assert!(
        !out.status.success(),
        "the overflowing child must die, got {:?}",
        out.status
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("stack overflow"),
        "child stderr must carry the guard-page diagnostic, got:\n{stderr}"
    );
    assert!(
        stderr.contains("DEFAULT_PROC_STACK"),
        "the diagnostic must name the stack size, got:\n{stderr}"
    );
}
