//! Cores go to jobs (DESIGN.md §6): the server gives a job whose spec names
//! no `workers` its share of the host's cores, `default_workers(physical,
//! max(1, host cores / in flight))` run permits, while a job that names
//! `workers` keeps what it asked for and a job run alone keeps the
//! standalone default. The record echoes the spec as submitted.

mod common;

use common::with_deadline;
use sim_net::sched::{default_workers, host_cores};
use workloads::serve::{
    parse_queue, run_job, serve, JobRecord, JobSpec, ServeConfig, ServeEvent, Submission,
};

/// Four small jobs: three that name no `workers` and one at `workers: 1`.
const QUEUE: &str = r#"
{"id":"ring-default","workload":"ring","iterations":4,"ranks":4}
{"id":"coll-default","workload":"collective","iterations":4,"ranks":3,"layout":"native"}
{"id":"ring-one","workload":"ring","iterations":4,"ranks":4,"workers":1}
{"id":"coll-deg3","workload":"collective","iterations":3,"ranks":2,"degree":3}
"#;

/// Serve `QUEUE` at `max_concurrent` and return each job's spec and record.
fn served(max_concurrent: usize) -> Vec<(JobSpec, JobRecord)> {
    let submissions = parse_queue(QUEUE);
    let specs: Vec<JobSpec> = submissions
        .iter()
        .map(|s| match s {
            Submission::Spec(spec) => spec.clone(),
            Submission::Invalid { line, error } => panic!("line {line} rejected: {error}"),
        })
        .collect();
    let mut records = Vec::new();
    let summary = serve(submissions, ServeConfig { max_concurrent }, |event| {
        if let ServeEvent::Completed(record) = event {
            records.push(*record);
        }
    });
    assert_eq!(summary.completed, specs.len());
    assert_eq!(summary.failed, 0);
    specs
        .into_iter()
        .map(|spec| {
            let record = records
                .iter()
                .find(|r| r.id == spec.id)
                .unwrap_or_else(|| panic!("no record for {}", spec.id))
                .clone();
            (spec, record)
        })
        .collect()
}

#[test]
fn a_job_without_workers_gets_its_share_of_the_cores() {
    with_deadline("a_job_without_workers_gets_its_share_of_the_cores", |_| {
        for max_concurrent in [1, 2, 4] {
            let in_flight = max_concurrent.min(4);
            let share = (host_cores() / in_flight).max(1);
            for (spec, record) in served(max_concurrent) {
                let physical = record.processes.len();
                let want = match spec.workers {
                    Some(w) => w,
                    None => default_workers(physical, share),
                };
                assert_eq!(
                    record.workers,
                    want,
                    "{} at {max_concurrent} in flight on {} cores",
                    spec.id,
                    host_cores()
                );
                assert_eq!(record.spec, spec, "{}: the record echoes the spec", spec.id);
            }
        }
    })
}

#[test]
fn a_job_that_names_workers_keeps_them() {
    with_deadline("a_job_that_names_workers_keeps_them", |_| {
        let (_, record) = served(4)
            .into_iter()
            .find(|(spec, _)| spec.id == "ring-one")
            .unwrap();
        assert_eq!(record.workers, 1);
    })
}

#[test]
fn an_absent_workers_stays_absent_in_the_record() {
    with_deadline("an_absent_workers_stays_absent_in_the_record", |_| {
        for (spec, record) in served(2) {
            let echoed = record.spec.to_json();
            assert_eq!(
                echoed.get("workers").is_some(),
                spec.workers.is_some(),
                "{}: {}",
                spec.id,
                echoed.encode()
            );
        }
    })
}

#[test]
fn a_job_run_alone_keeps_the_standalone_default() {
    with_deadline("a_job_run_alone_keeps_the_standalone_default", |_| {
        for (spec, _) in served(1) {
            let record = run_job(&spec, 0).expect("validated spec");
            let physical = record.processes.len();
            let want = spec
                .workers
                .unwrap_or_else(|| default_workers(physical, host_cores()));
            assert_eq!(record.workers, want, "{}", spec.id);
        }
    })
}
