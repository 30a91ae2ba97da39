//! Virtual-time pins: literal `(elapsed_ns, total_msgs, FNV-1a of the
//! finished processes' checksum bits)` for twenty `workers: 1` spec lines, in
//! both carrier modes.
//!
//! With one run permit a job's virtual times, message counts and checksums
//! are a pure function of its spec, so they are pinned as constants: a
//! change to the delivery or dispatch path that moves any of them has changed
//! simulated results, not only host time. (The benchmark's `sim.digest_match`
//! checks the same thing at 64–256 ranks; this is the `cargo test` form.)
//! The sixth line is the one most sensitive to wake tokens: the sole survivor
//! of a rank acks and sends to the same endpoint back to back.
//!
//! The two lossy lines also guard the host side of a retransmission timeout:
//! with one permit nobody can run while the timed-out process waits, so it
//! must never yield or sleep in real time (`retx_real_waits`, DESIGN.md §5.5).

mod common;

use sim_net::CarrierMode;
use workloads::serve::{run_job, run_spec, JobSpec, JobStatus};

/// `(spec line, expected status, elapsed_ns, total_msgs, result hash)`.
const PINS: &[(&str, JobStatus, u64, u64, u64)] = &[
    (
        r#"{"id":"cg-dual","workload":"cg","ranks":8,"class":"s","layout":"replicated","degree":2,"workers":1,"seed":11}"#,
        JobStatus::Finished,
        201_108,
        840,
        0xc881fb04fa1d1965,
    ),
    (
        r#"{"id":"ft-dual","workload":"ft","ranks":8,"class":"s","layout":"replicated","degree":2,"workers":1,"seed":12}"#,
        JobStatus::Finished,
        1_123_566,
        960,
        0x2542c46db6cb4ca5,
    ),
    (
        r#"{"id":"sp-deg3-crash","workload":"sp","ranks":4,"class":"s","layout":"replicated","degree":3,"workers":1,"seed":13,"crashes":[{"endpoint":6,"kind":"after-send","nth":4}]}"#,
        JobStatus::Survived,
        105_740,
        469,
        0x9438517f54f72d79,
    ),
    (
        r#"{"id":"bt-lossy","workload":"bt","ranks":4,"class":"test","layout":"replicated","degree":2,"workers":1,"seed":14,"net":{"drop_per_64k":1638,"dup_per_64k":1638,"delay_per_64k":1638,"delay_ns":20000,"ack_only":false,"seed":4181}}"#,
        JobStatus::Finished,
        14_258_620,
        2_185,
        0x81a61b87236529f5,
    ),
    (
        r#"{"id":"sp-lossy-crash","workload":"sp","ranks":4,"class":"test","layout":"replicated","degree":2,"workers":1,"seed":15,"crashes":[{"endpoint":5,"kind":"after-send","nth":4}],"net":{"drop_per_64k":1638,"dup_per_64k":1638,"delay_per_64k":1638,"delay_ns":20000,"ack_only":false,"seed":8278}}"#,
        JobStatus::Survived,
        4_412_700,
        1_544,
        0x59826b8d528dfb91,
    ),
    (
        r#"{"id":"cg-deg3-sole-survivor","workload":"cg","ranks":8,"class":"s","layout":"replicated","degree":3,"workers":1,"seed":21,"crashes":[{"endpoint":12,"kind":"after-send","nth":2},{"endpoint":20,"kind":"after-send","nth":4}]}"#,
        JobStatus::Survived,
        201_346,
        1_595,
        0xec4a2fa9b6ed22fd,
    ),
    // Kernel-side pins (class D moves real grids, MG had no pin at all): a
    // change to `workloads::nas`, `sim_mpi::datatype` or the vendored `Bytes`
    // that alters one floating-point operation, one message or one payload
    // byte moves these.
    (
        r#"{"id":"mg-s-dual","workload":"mg","ranks":4,"class":"s","layout":"replicated","degree":2,"workers":1,"seed":31}"#,
        JobStatus::Finished,
        192_868,
        704,
        0x0daeee5ff396d425,
    ),
    (
        r#"{"id":"mg-d-native","workload":"mg","ranks":4,"class":"d","layout":"native","workers":1,"seed":32}"#,
        JobStatus::Finished,
        81_138_450,
        680,
        0x50abbd6486079655,
    ),
    (
        r#"{"id":"mg-d-dual","workload":"mg","ranks":4,"class":"d","layout":"replicated","degree":2,"workers":1,"seed":33}"#,
        JobStatus::Finished,
        81_178_480,
        2_720,
        0x8e72d8077a4076c5,
    ),
    (
        r#"{"id":"cg-d-dual","workload":"cg","ranks":4,"class":"d","layout":"replicated","degree":2,"workers":1,"seed":34}"#,
        JobStatus::Finished,
        87_433_656,
        1_088,
        0xc0c72efc21d1d0c5,
    ),
    (
        r#"{"id":"bt-d-dual","workload":"bt","ranks":4,"class":"d","layout":"replicated","degree":2,"workers":1,"seed":35}"#,
        JobStatus::Finished,
        304_959_394,
        960,
        0x98edbfd913c954b5,
    ),
    (
        r#"{"id":"ft-d-dual","workload":"ft","ranks":8,"class":"d","layout":"replicated","degree":2,"workers":1,"seed":36}"#,
        JobStatus::Finished,
        521_016_228,
        3_840,
        0x97474c1194068ca5,
    ),
    // Rank counts that are not a power of two: the allreduce takes its
    // reduce-then-broadcast branch, FT's `cols` is not a multiple of the
    // rank count (the remainder columns never travel), and BT/SP grids have
    // ranks with a neighbour missing.
    (
        r#"{"id":"ft-6-dual","workload":"ft","ranks":6,"class":"test","layout":"replicated","degree":2,"workers":1,"seed":41}"#,
        JobStatus::Finished,
        32_078_774,
        640,
        0xa88286282823b61d,
    ),
    (
        r#"{"id":"ft-3-native","workload":"ft","ranks":3,"class":"s","layout":"native","workers":1,"seed":42}"#,
        JobStatus::Finished,
        8_895_522,
        30,
        0xe0f67519c7c31751,
    ),
    (
        r#"{"id":"bt-5-dual","workload":"bt","ranks":5,"class":"test","layout":"replicated","degree":2,"workers":1,"seed":43}"#,
        JobStatus::Finished,
        1_737_734,
        320,
        0x30d0383bbc84b791,
    ),
    (
        r#"{"id":"sp-6-native","workload":"sp","ranks":6,"class":"d","layout":"native","workers":1,"seed":44}"#,
        JobStatus::Finished,
        24_758_058,
        372,
        0x39d72b5bd2f24169,
    ),
    (
        r#"{"id":"mg-5-dual","workload":"mg","ranks":5,"class":"d","layout":"replicated","degree":2,"workers":1,"seed":45}"#,
        JobStatus::Finished,
        81_184_954,
        3_488,
        0xa169787af4318d3d,
    ),
    (
        r#"{"id":"cg-6-dual","workload":"cg","ranks":6,"class":"test","layout":"replicated","degree":2,"workers":1,"seed":46}"#,
        JobStatus::Finished,
        350_808,
        520,
        0x36a78949ccb77725,
    ),
    // Partial layouts: a non-prefix subset (the second copies of ranks 1 and
    // 3 are endpoints 4 and 5) and a coverage prefix with a crash of
    // endpoint 9, rank 1's second copy. Both numberings come from the
    // replica map, so a renumbering moves these.
    (
        r#"{"id":"cg-partial-1-3","workload":"cg","ranks":4,"class":"s","layout":"partial","replicated_ranks":[1,3],"workers":1,"seed":51}"#,
        JobStatus::Finished,
        197_454,
        162,
        0x85868a228d38c5a9,
    ),
    (
        r#"{"id":"mg-coverage-half-crash","workload":"mg","ranks":8,"class":"s","layout":"coverage","coverage":0.5,"workers":1,"seed":52,"crashes":[{"endpoint":9,"kind":"after-send","nth":3}]}"#,
        JobStatus::Survived,
        194_090,
        823,
        0x07f9c430cc60d588,
    ),
];

fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash: u64 = 0xcbf29ce484222325;
    for word in words {
        for byte in word.to_le_bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x100000001b3);
        }
    }
    hash
}

#[test]
fn single_permit_virtual_times_counts_and_checksums_match_their_pins() {
    common::with_deadline("virtual_time_pins", |running| {
        for &(line, status, elapsed_ns, total_msgs, result_hash) in PINS {
            for mode in [CarrierMode::Coroutine, CarrierMode::Thread] {
                let mut spec = JobSpec::parse_line(line).expect("pinned spec line parses");
                spec.carrier_mode = Some(mode);
                running.note(spec.to_json().encode());
                let record = run_job(&spec, 0).expect("pinned spec compiles");
                let hash = fnv1a(record.processes.iter().filter_map(|p| p.result_bits));
                assert_eq!(
                    (
                        record.status,
                        record.elapsed_ns,
                        record.total_msgs,
                        format!("{hash:#018x}")
                    ),
                    (
                        status,
                        elapsed_ns,
                        total_msgs,
                        format!("{result_hash:#018x}")
                    ),
                    "simulated results moved for '{}' under {mode:?} carriers",
                    spec.id
                );
            }
        }
    });
}

#[test]
fn lossy_single_permit_jobs_retransmit_without_waiting_in_real_time() {
    common::with_deadline("virtual_time_pins_real_waits", |running| {
        let lossy: Vec<JobSpec> = PINS
            .iter()
            .map(|pin| JobSpec::parse_line(pin.0).expect("pinned spec line parses"))
            .filter(|spec| spec.net_faults.is_some())
            .collect();
        assert_eq!(lossy.len(), 2, "bt-lossy and sp-lossy-crash");
        for mut spec in lossy {
            for mode in [CarrierMode::Coroutine, CarrierMode::Thread] {
                spec.carrier_mode = Some(mode);
                running.note(spec.to_json().encode());
                let (report, _) = run_spec(&spec).expect("pinned spec compiles");
                assert!(
                    report.stats.retransmits() > 0,
                    "'{}' under {mode:?} carriers never hit a retransmission timeout",
                    spec.id
                );
                assert_eq!(
                    report.stats.retx_real_waits(),
                    0,
                    "'{}' under {mode:?} carriers waited in real time while holding the only permit",
                    spec.id
                );
            }
        }
    });
}
