//! A coroutine stack that cannot be mapped with its guard fails its job by
//! name. There is one kind of stack: a lease either maps an `mmap` region
//! with its `PROT_NONE` guard, or it is an error — never an unguarded stack.
//!
//! Making `mmap` fail needs a process-wide limit, so the check runs in a
//! child: the parent re-executes this test binary on the ignored child test.
//! The child runs a small job, which leaves its 8 stacks in the pool. It then
//! caps its own address space with `setrlimit(RLIMIT_AS)` at 64 MiB above
//! what it uses, which leaves room for a few dozen 1 MiB stacks, and runs a
//! 256-process job. Its stack leases fail part-way. The job must come back
//! `failed`, every process naming the limit, with no stack leased and the
//! stacks it mapped unmapped again. The small job then runs once more, on
//! the pooled stacks. Last, the child fills the 16 384-entry guard table with
//! small stacks: the next lease is the named error, and a dropped stack's
//! entry serves the next one.

use sdr_mpi::sim_net::carrier::stack::{StackError, MAX_GUARDS};
use sdr_mpi::sim_net::StackPool;
use sdr_mpi::workloads::serve::{run_job, JobSpec, JobStatus};
use std::os::raw::c_int;

const CHILD_ENV: &str = "SDR_LEASE_FAILURE_CHILD";

/// `RLIMIT_AS` on Linux (x86-64 and aarch64 alike).
const RLIMIT_AS: c_int = 9;

/// `struct rlimit`: the soft and the hard limit, in bytes.
#[repr(C)]
struct Rlimit {
    cur: u64,
    max: u64,
}

extern "C" {
    fn getrlimit(resource: c_int, rlim: *mut Rlimit) -> c_int;
    fn setrlimit(resource: c_int, rlim: *const Rlimit) -> c_int;
}

/// The message every process of a job whose stacks could not be mapped
/// carries, up to the errno and the host's mapping limit.
const NAMED: &str = "cannot map a guarded coroutine stack: mmap of";

/// Bytes of address space this process has mapped (`VmSize`).
fn vm_size() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmSize:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .expect("a VmSize line");
    kib << 10
}

fn set_address_space_limit(cur: u64, max: u64) {
    let rc = unsafe { setrlimit(RLIMIT_AS, &Rlimit { cur, max }) };
    assert_eq!(rc, 0, "setrlimit(RLIMIT_AS, {cur})");
}

#[test]
#[ignore = "caps its own address space; run by a_stack_that_cannot_be_mapped_fails_its_job_by_name"]
fn lease_failure_child() {
    if std::env::var(CHILD_ENV).is_err() {
        return;
    }
    let too_big = JobSpec::parse_line(
        r#"{"id":"too-many-stacks","workload":"cg","ranks":128,"class":"s","layout":"replicated","degree":2,"workers":1}"#,
    )
    .expect("a valid spec line");
    let small = JobSpec::parse_line(
        r#"{"id":"small","workload":"cg","ranks":4,"class":"s","layout":"replicated","degree":2,"workers":1}"#,
    )
    .expect("a valid spec line");

    let first = run_job(&small, 0).expect("the spec compiles");
    assert_eq!(first.status, JobStatus::Finished);
    assert_eq!(first.host.stacks_allocated, 8);

    let mut old = Rlimit { cur: 0, max: 0 };
    assert_eq!(unsafe { getrlimit(RLIMIT_AS, &mut old) }, 0, "getrlimit");
    let before = vm_size();
    set_address_space_limit(before + (64 << 20), old.max);

    // Under the cap, a lease that does not fit is an error that names the
    // limit, not a stack.
    let err = match StackPool::global().get(128 << 20) {
        Ok(_) => panic!("a 128 MiB stack was mapped under a 64 MiB headroom"),
        Err(err) => err.to_string(),
    };
    assert!(err.contains(NAMED), "{err}");
    assert!(err.contains("vm.max_map_count is"), "{err}");

    let failed = run_job(&too_big, 1).expect("the spec compiles");
    let after = vm_size();
    set_address_space_limit(old.cur, old.max);
    assert!(
        after < before + (16 << 20),
        "the failed job unmapped what it mapped: {before} -> {after} bytes"
    );

    assert_eq!(failed.status, JobStatus::Failed);
    assert_eq!(failed.processes.len(), 256);
    for p in &failed.processes {
        assert_eq!(p.outcome, "panicked", "endpoint {}", p.endpoint);
        let message = p.message.as_deref().unwrap_or("");
        assert!(
            message.contains(NAMED),
            "endpoint {}: {message}",
            p.endpoint
        );
        assert!(message.contains("vm.max_map_count is"), "{message}");
        assert_eq!(
            (p.app_rank, p.replica),
            (p.endpoint % 128, p.endpoint / 128)
        );
    }
    assert_eq!(failed.stack_leases, 0, "the failed job holds no stack");
    assert_eq!(
        (failed.elapsed_ns, failed.total_msgs),
        (0, 0),
        "nothing ran"
    );
    let json = failed.to_json().encode();
    assert!(json.contains(&format!("\"message\":\"{NAMED}")), "{json}");

    // The pool is intact: the small job runs again on its pooled stacks.
    let again = run_job(&small, 2).expect("the spec compiles");
    assert_eq!(again.status, JobStatus::Finished);
    assert_eq!(
        (again.host.stacks_allocated, again.host.stacks_reused),
        (0, 8)
    );
    assert_eq!(again.processes, first.processes, "the same results");

    // Every guard-table entry but the small job's 8 goes to a fresh 16 KiB
    // stack (the failed job's entries were freed with its stacks).
    let mut held = Vec::new();
    let full = loop {
        match StackPool::global().get(16 << 10) {
            Ok((stack, _)) => held.push(stack),
            Err(err) => break err,
        }
    };
    assert_eq!(full, StackError::GuardTableFull);
    assert_eq!(held.len() + 8, MAX_GUARDS);
    assert_eq!(
        full.to_string(),
        "cannot map a guarded coroutine stack: the SIGSEGV guard table is full (16384 entries)"
    );
    drop(held.pop());
    held.push(StackPool::global().get(16 << 10).expect("a freed entry").0);
}

#[test]
fn a_stack_that_cannot_be_mapped_fails_its_job_by_name() {
    let exe = std::env::current_exe().expect("test binary path");
    let out = std::process::Command::new(exe)
        .args([
            "--ignored",
            "--exact",
            "lease_failure_child",
            "--test-threads=1",
        ])
        .env(CHILD_ENV, "1")
        .output()
        .expect("spawn child test process");
    assert!(
        out.status.success(),
        "child failed: {:?}\nstdout:\n{}\nstderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("1 passed"),
        "the child test must have run:\n{stdout}"
    );
}
