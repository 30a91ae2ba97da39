//! Property tests over the `sdr-serve` job-spec wire format: every valid
//! spec round-trips bit-exactly through JSON encode/decode, and malformed
//! input of any shape is rejected with a typed [`SpecError`] — the server
//! loop never panics on what a client sends it.

use proptest::prelude::*;
use sim_net::{CrashSchedule, NetFaultConfig, SimTime};
use workloads::nas::NasKernel;
use workloads::serve::{
    CrashFault, JobSpec, LayoutSpec, NetFaultSpec, SdcFault, SpecError, WorkloadKind,
};

/// Deterministically assemble a *valid* spec from raw generator draws. All
/// the interesting coupling lives here: fault endpoints stay inside the
/// physical process count the layout implies, send indices stay 1-based,
/// net-fault rates stay under the 64k budget.
#[allow(clippy::too_many_arguments)]
fn assemble(
    wl: usize,
    ranks: usize,
    degree: usize,
    iterations: u64,
    seed: u64,
    carrier: usize,
    layout_pick: usize,
    workers: usize,
    trace: bool,
    crash_pick: usize,
    with_sdc: bool,
    net_pick: usize,
    cov_eighths: u64,
) -> JobSpec {
    let kernels = [
        NasKernel::Bt,
        NasKernel::Cg,
        NasKernel::Ft,
        NasKernel::Mg,
        NasKernel::Sp,
    ];
    let workload = match wl {
        0..=4 => WorkloadKind::Nas(kernels[wl]),
        5 => WorkloadKind::Collective { iterations },
        _ => WorkloadKind::Ring { iterations },
    };
    let layout = match layout_pick {
        0 => LayoutSpec::Native,
        1 => LayoutSpec::Replicated { degree },
        2 => LayoutSpec::Partial {
            // A nonempty, strictly increasing subset of the ranks.
            replicated: (0..ranks).step_by(2).collect(),
        },
        _ => LayoutSpec::Coverage {
            // Eighths are exact in binary, so the f64 survives the wire.
            coverage: cov_eighths as f64 / 8.0,
        },
    };
    // Smallest physical footprint the layout can produce: fault endpoints
    // drawn below `ranks` are valid under every layout above.
    let endpoint = seed as usize % ranks;
    let crashes = match crash_pick {
        0 => vec![],
        1 => vec![CrashFault {
            endpoint,
            schedule: CrashSchedule::AfterSend { nth: 1 + seed % 5 },
        }],
        2 => vec![CrashFault {
            endpoint,
            schedule: CrashSchedule::BeforeSend { nth: 1 + seed % 5 },
        }],
        _ => vec![CrashFault {
            endpoint,
            schedule: CrashSchedule::AtTime {
                at: SimTime::from_nanos(seed),
            },
        }],
    };
    let sdc = if with_sdc {
        vec![SdcFault {
            endpoint,
            nth_send: 1 + seed % 7,
            bit: (seed % 512) as u32,
        }]
    } else {
        vec![]
    };
    let net_faults = match net_pick {
        0 => None,
        1 => Some(NetFaultSpec {
            config: NetFaultConfig::lossy_links(),
            seed,
        }),
        2 => Some(NetFaultSpec {
            config: NetFaultConfig::delayed_acks(),
            seed: seed ^ 0xabcd,
        }),
        _ => Some(NetFaultSpec {
            config: NetFaultConfig {
                drop_per_64k: (seed % 2000) as u32,
                dup_per_64k: (seed % 1000) as u32,
                delay_per_64k: (seed % 3000) as u32,
                delay_ns: seed % 50_000,
                ack_only: seed.is_multiple_of(2),
            },
            seed,
        }),
    };
    JobSpec {
        id: format!("p-{wl}-{layout_pick}-{seed}"),
        workload,
        ranks,
        class: "test".to_string(),
        layout,
        carrier_mode: match carrier {
            0 => None,
            1 => Some(sim_net::CarrierMode::Coroutine),
            _ => Some(sim_net::CarrierMode::Thread),
        },
        workers: if workers == 0 { None } else { Some(workers) },
        seed,
        crashes,
        sdc,
        net_faults,
        trace,
    }
}

proptest! {
    /// Encode → parse reproduces the spec exactly, for arbitrary valid
    /// combinations of workload, layout, carrier, faults and tracing.
    #[test]
    fn valid_specs_round_trip_bit_exactly(
        wl in 0usize..7,
        ranks in 1usize..7,
        degree in 2usize..5,
        iterations in 1u64..12,
        seed in 0u64..1_000_000,
        carrier in 0usize..3,
        layout_pick in 0usize..4,
        workers in 0usize..3,
        trace in any::<bool>(),
        crash_pick in 0usize..4,
        with_sdc in any::<bool>(),
        net_pick in 0usize..4,
        cov_eighths in 1u64..9,
    ) {
        let spec = assemble(
            wl, ranks, degree, iterations, seed, carrier, layout_pick,
            workers, trace, crash_pick, with_sdc, net_pick, cov_eighths,
        );
        let line = spec.to_json().encode();
        let reparsed = JobSpec::parse_line(&line);
        prop_assert!(reparsed.is_ok(), "valid spec rejected: {line}");
        prop_assert_eq!(spec, reparsed.unwrap());
    }

    /// Any prefix or single-byte corruption of a valid encoding either
    /// parses cleanly or comes back as a typed error — never a panic. This
    /// is the server loop's no-panic guarantee in fuzz form.
    #[test]
    fn mangled_specs_fail_typed_not_loud(
        wl in 0usize..7,
        ranks in 1usize..7,
        seed in 0u64..100_000,
        cut in 0usize..400,
        junk in 0u8..128,
    ) {
        let spec = assemble(
            wl, ranks, 2, 5, seed, 1, wl % 4, 1, false,
            wl % 4, false, seed as usize % 4, 1 + seed % 8,
        );
        let line = spec.to_json().encode();
        // Truncation at an arbitrary byte (the encoding is pure ASCII).
        let cut = cut.min(line.len());
        let _ = JobSpec::parse_line(&line[..cut]);
        // Single-byte substitution with arbitrary printable-or-not ASCII.
        if !line.is_empty() {
            let mut bytes = line.clone().into_bytes();
            let idx = cut.min(bytes.len() - 1);
            bytes[idx] = junk;
            if let Ok(s) = String::from_utf8(bytes) {
                let _ = JobSpec::parse_line(&s);
            }
        }
    }

    /// Out-of-range fields are rejected with the *right* typed error, not
    /// just any error.
    #[test]
    fn out_of_range_fields_get_specific_errors(
        ranks in 5000usize..9000,
        nth in 0u64..1,
        endpoint in 100usize..500,
    ) {
        let huge = format!(r#"{{"id":"x","workload":"ring","ranks":{ranks},"iterations":3}}"#);
        prop_assert_eq!(
            JobSpec::parse_line(&huge).unwrap_err(),
            SpecError::InvalidRanks(ranks)
        );
        let zero_nth = format!(
            r#"{{"id":"x","workload":"ring","ranks":2,"iterations":3,"crashes":[{{"endpoint":0,"kind":"after-send","nth":{nth}}}]}}"#
        );
        prop_assert_eq!(JobSpec::parse_line(&zero_nth).unwrap_err(), SpecError::ZeroSendIndex);
        let oob = format!(
            r#"{{"id":"x","workload":"ring","ranks":2,"iterations":3,"sdc":[{{"endpoint":{endpoint},"nth_send":1,"bit":0}}]}}"#
        );
        prop_assert_eq!(
            JobSpec::parse_line(&oob).unwrap_err(),
            SpecError::EndpointOutOfRange { endpoint, physical: 4 }
        );
    }
}

/// A whole queue of garbage lines streams back typed rejections and still
/// runs the valid lines — end to end, nothing panics.
#[test]
fn garbage_queue_is_rejected_line_by_line() {
    let queue = "\
        {\"id\":\"good\",\"workload\":\"ring\",\"ranks\":2,\"iterations\":2,\"workers\":1}\n\
        {\"id\":\"bad-deep\",\"workload\":[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[]]\n\
        {\"id\":7,\"workload\":\"ring\",\"ranks\":2}\n\
        {\"id\":\"neg\",\"workload\":\"ring\",\"ranks\":-3,\"iterations\":2}\n\
        \u{1f980} not json\n\
        {\"id\":\"dup\",\"workload\":\"ring\",\"ranks\":2,\"iterations\":2,\"net\":{\"drop_per_64k\":65536,\"dup_per_64k\":65536,\"delay_per_64k\":0,\"delay_ns\":0,\"ack_only\":false}}\n";
    let submissions = workloads::serve::parse_queue(queue);
    assert_eq!(submissions.len(), 6);
    let mut completed = 0;
    let mut rejected = 0;
    let summary = workloads::serve::serve(
        submissions,
        workloads::serve::ServeConfig { max_concurrent: 2 },
        |ev| match ev {
            workloads::serve::ServeEvent::Completed(r) => {
                assert_eq!(r.id, "good");
                completed += 1;
            }
            workloads::serve::ServeEvent::Rejected { .. } => rejected += 1,
        },
    );
    assert_eq!((completed, rejected), (1, 5));
    assert_eq!(summary.completed, 1);
    assert_eq!(summary.rejected, 5);
}
