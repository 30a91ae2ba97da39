//! Property-based tests (proptest) over the core data structures and protocol
//! invariants.

use proptest::prelude::*;
use sdr_core::SeqTracker;
use sim_mpi::matching::{IncomingMsg, MatchingEngine, PmlReqId, PostedRecv};
use sim_mpi::{CommId, TagSel};
use sim_net::{CrashSchedule, EndpointId, SimTime};

proptest! {
    /// A SeqTracker accepts every sequence number exactly once, in any order.
    #[test]
    fn seq_tracker_accepts_each_seq_exactly_once(mut seqs in proptest::collection::vec(0u64..64, 1..80)) {
        let mut tracker = SeqTracker::default();
        let mut first_seen = std::collections::HashSet::new();
        for &s in &seqs {
            let fresh = tracker.record(s);
            prop_assert_eq!(fresh, first_seen.insert(s));
        }
        // Afterwards, everything delivered is flagged as seen.
        seqs.sort();
        for s in seqs {
            prop_assert!(tracker.seen(s));
        }
    }

    /// SimTime addition/subtraction never wraps and max is consistent.
    #[test]
    fn simtime_arithmetic_is_sane(a in 0u64..u64::MAX / 2, b in 0u64..u64::MAX / 2) {
        let ta = SimTime::from_nanos(a);
        let tb = SimTime::from_nanos(b);
        prop_assert_eq!((ta + tb).as_nanos(), a + b);
        prop_assert_eq!((ta - tb).as_nanos(), a.saturating_sub(b));
        prop_assert_eq!(ta.max(tb).as_nanos(), a.max(b));
    }

    /// A failed endpoint stays failed: `CrashSchedule::fires` is monotone.
    /// Once a check of one kind (pre-send or post-send) fires, it fires at
    /// every later clock and every larger application-send count, so the
    /// endpoint's later checks keep unwinding it.
    #[test]
    fn a_fired_crash_check_keeps_firing(kind in 0u8..4, k in 0u64..6) {
        let schedule = match kind {
            0 => CrashSchedule::Never,
            1 => CrashSchedule::AtTime { at: SimTime::from_nanos(k) },
            2 => CrashSchedule::BeforeSend { nth: k },
            _ => CrashSchedule::AfterSend { nth: k },
        };
        let t = SimTime::from_nanos;
        for pre_send in [false, true] {
            for (now, sends) in (0..8).flat_map(|now| (0..8).map(move |sends| (now, sends))) {
                if !schedule.fires(t(now), sends, pre_send) {
                    continue;
                }
                for (later, more) in (now..10).flat_map(|l| (sends..10).map(move |m| (l, m))) {
                    prop_assert!(
                        schedule.fires(t(later), more, pre_send),
                        "{:?} fired at ({}, {}) but not at ({}, {}), pre_send {}",
                        schedule, now, sends, later, more, pre_send
                    );
                }
            }
        }
    }

    /// The matching engine delivers every message exactly once when enough
    /// wildcard receives are posted, regardless of arrival/post interleaving.
    #[test]
    fn matching_engine_delivers_each_message_once(
        order in proptest::collection::vec(any::<bool>(), 1..60),
    ) {
        let mut engine = MatchingEngine::new();
        let mut next_msg = 0u64;
        let mut next_req = 0u64;
        let mut delivered = Vec::new();
        for post_first in order {
            if post_first {
                let maybe = engine.post_recv(PostedRecv {
                    req: PmlReqId(next_req),
                    src: None,
                    comm: CommId::WORLD,
                    tag: TagSel::Any,
                });
                next_req += 1;
                if let Some(d) = maybe {
                    delivered.push(d.seq);
                }
            } else {
                let maybe = engine.incoming(IncomingMsg {
                    src: EndpointId((next_msg % 3) as usize),
                    comm: CommId::WORLD,
                    tag: 1,
                    seq: next_msg,
                    aux: 0,
                    payload: bytes::Bytes::new(),
                    arrival: SimTime::from_nanos(next_msg),
                });
                next_msg += 1;
                if let Some((_, m)) = maybe {
                    delivered.push(m.seq);
                }
            }
        }
        // Flush: post enough wildcard receives to drain the unexpected queue.
        while engine.unexpected_len() > 0 {
            if let Some(d) = engine.post_recv(PostedRecv {
                req: PmlReqId(next_req),
                src: None,
                comm: CommId::WORLD,
                tag: TagSel::Any,
            }) {
                delivered.push(d.seq);
            }
            next_req += 1;
        }
        delivered.sort();
        delivered.dedup();
        prop_assert_eq!(delivered.len() as u64, next_msg, "each message delivered exactly once");
    }

    /// A receiver pops in `(virtual arrival, ingest sequence)` order (DESIGN
    /// §5.3). Random sends from several endpoints to one receiver, with
    /// random compute strides and payload sizes so that arrival ties and
    /// inversions both occur, and sweeps at random points between them:
    /// `try_recv` returns the ingest sequence stably sorted by arrival.
    #[test]
    fn try_recv_pops_the_ingest_sequence_stably_sorted_by_arrival(
        senders in 1usize..5,
        ops in proptest::collection::vec(any::<u64>(), 1..120),
    ) {
        use sim_net::fabric::HEADER_WORDS;
        use sim_net::stats::class;
        use sim_net::{Fabric, LogGpModel};
        let fabric = Fabric::with_defaults(senders + 1, LogGpModel::fast_test_model());
        let dst = EndpointId(senders);
        let mut tx: Vec<_> = (0..senders).map(|s| fabric.endpoint(EndpointId(s))).collect();
        let mut rx = fabric.endpoint(dst);
        // Sends run on this one thread, so call order is ingest order.
        for (i, &op) in ops.iter().enumerate() {
            let sender = &mut tx[(op % senders as u64) as usize];
            sender.compute(SimTime::from_nanos([0, 1, 700][(op >> 8) as usize % 3]));
            let size = [0, 8, 4096][(op >> 16) as usize % 3];
            let mut header = [0; HEADER_WORDS];
            header[0] = i as i64;
            sender.send(dst, class::APP, header, bytes::Bytes::from(vec![0u8; size]));
            if (op >> 24) % 4 == 0 {
                rx.has_pending();
            }
        }
        let popped: Vec<(i64, SimTime)> = std::iter::from_fn(|| rx.try_recv())
            .map(|m| (m.header[0], m.arrival))
            .collect();
        let mut expected = popped.clone();
        expected.sort_by_key(|&(i, _)| i);
        expected.sort_by_key(|&(_, arrival)| arrival);
        prop_assert_eq!(popped.len(), ops.len(), "every send is popped once");
        prop_assert_eq!(popped, expected);
    }

    /// Pops and sweeps interleaved with sends: a `has_pending` sweep or a
    /// `try_recv` that pops one of many leaves the rest behind, and the next
    /// sweep lands new frames on those leftovers. Senders either sync to a
    /// shared virtual grid point (equal sizes then tie exactly, across
    /// batches too) or step their own clock by a stride; the 4 KiB size
    /// overtakes a later small send (an inversion). `quiet` picks how often
    /// the receiver pops and sweeps, from every few sends to batches of
    /// dozens. Every pop — interleaved or in the final drain — must return
    /// the least `(arrival, send index)` of the frames sent and not yet
    /// popped.
    #[test]
    fn interleaved_pops_and_sweeps_pop_the_least_unpopped_frame(
        senders in 1usize..5,
        quiet in 0usize..3,
        ops in proptest::collection::vec(any::<u64>(), 1..200),
    ) {
        use sim_net::fabric::HEADER_WORDS;
        use sim_net::stats::class;
        use sim_net::{Fabric, LogGpModel};
        let model = LogGpModel::fast_test_model();
        let fabric = Fabric::with_defaults(senders + 1, model);
        let dst = EndpointId(senders);
        let mut tx: Vec<_> = (0..senders).map(|s| fabric.endpoint(EndpointId(s))).collect();
        let mut rx = fabric.endpoint(dst);
        // Out of 16: below `pop` a `try_recv`, below `sweep` a `has_pending`.
        let (pop, sweep) = [(3, 6), (1, 2), (0, 1)][quiet];
        let mut unpopped: Vec<(SimTime, i64)> = Vec::new();
        let mut grid = SimTime::ZERO;
        let mut sent = 0i64;
        let check_pop = |rx: &mut sim_net::Endpoint, unpopped: &mut Vec<(SimTime, i64)>| {
            let least = unpopped.iter().enumerate().min_by_key(|(_, key)| **key).map(|(at, _)| at);
            let msg = rx.try_recv();
            prop_assert_eq!(
                msg.map(|m| (m.arrival, m.header[0])),
                least.map(|at| unpopped.swap_remove(at)),
                "a pop returns the least unpopped (arrival, send index)"
            );
        };
        for &op in &ops {
            match op % 16 {
                k if k < pop => check_pop(&mut rx, &mut unpopped),
                k if k < sweep => {
                    prop_assert_eq!(rx.has_pending(), !unpopped.is_empty());
                }
                _ => {
                    let sender = &mut tx[(op >> 4) as usize % senders];
                    if (op >> 8) % 8 == 0 {
                        grid += SimTime::from_nanos(1_000);
                    }
                    match (op >> 12) % 4 {
                        0 | 1 => sender.wait_until(grid),
                        stride => sender.compute(SimTime::from_nanos([1, 700][stride as usize - 2])),
                    }
                    let size = [0, 8, 4096][(op >> 16) as usize % 3];
                    let mut header = [0; HEADER_WORDS];
                    header[0] = sent;
                    sender.send(dst, class::APP, header, bytes::Bytes::from(vec![0u8; size]));
                    unpopped.push((sender.now() + model.wire_time(size, false), sent));
                    sent += 1;
                }
            }
        }
        while !unpopped.is_empty() {
            check_pop(&mut rx, &mut unpopped);
        }
        prop_assert!(rx.try_recv().is_none(), "every frame pops exactly once");
    }

    /// The replica map is a bijection between the logical pairs
    /// `{(rank, rep) : rep < degree_of(rank)}` and the dense endpoint range
    /// `0..Σdegree` for every kind of map its constructors build — uniform at
    /// degrees 1–4, partial over an arbitrary (non-prefix) subset, coverage
    /// prefixes — and the routing rule (`direct_src`/`direct_dests`) stays a
    /// consistent inverse pair.
    #[test]
    fn replica_maps_are_bijections(
        ranks in 1usize..32,
        degree in 1usize..5,
        subset_bits in any::<u64>(),
        cov_numer in 1usize..9,
    ) {
        use sdr_core::ReplicaMap;
        check_map_bijection(&ReplicaMap::uniform(ranks, degree));
        let replicated = rank_subset(ranks, subset_bits);
        check_map_bijection(&ReplicaMap::partial(ranks, &replicated).expect("valid subset"));
        let coverage = cov_numer as f64 / 8.0;
        check_map_bijection(&ReplicaMap::with_coverage(ranks, coverage).expect("valid coverage"));
    }

    /// Endpoint numbering is pinned to its closed forms: `k·n + r` on a
    /// uniform map; on a partial map the first copies at `0..n`, then the
    /// second copies from `n` upward in sorted subset order, whatever order
    /// the subset was given in. Every virtual time depends on which endpoint
    /// plays which replica, so a renumbering must fail here first.
    #[test]
    fn replica_map_numbering_matches_its_closed_forms(
        ranks in 1usize..32,
        degree in 1usize..5,
        subset_bits in any::<u64>(),
    ) {
        use sdr_core::ReplicaMap;
        let uniform = ReplicaMap::uniform(ranks, degree);
        for rank in 0..ranks {
            for k in 0..degree {
                prop_assert_eq!(uniform.endpoint(rank, k), EndpointId(k * ranks + rank));
            }
        }
        let replicated = rank_subset(ranks, subset_bits);
        let partial = ReplicaMap::partial(ranks, &replicated).expect("valid subset");
        let reversed: Vec<usize> = replicated.iter().rev().copied().collect();
        prop_assert_eq!(&ReplicaMap::partial(ranks, &reversed).expect("valid subset"), &partial);
        prop_assert_eq!(partial.physical_processes(), ranks + replicated.len());
        for rank in 0..ranks {
            prop_assert_eq!(partial.endpoint(rank, 0), EndpointId(rank));
        }
        for (i, &rank) in replicated.iter().enumerate() {
            prop_assert_eq!(partial.endpoint(rank, 1), EndpointId(ranks + i));
        }
    }

    /// The one election ([`sdr_core::ReplicaMap::lowest_live_replica`], the
    /// substitute of Algorithm 1) is a pure function of the survivor set: the
    /// lowest surviving replica index wins, repeated elections agree, and
    /// killing the losers never changes the winner. On partial maps a
    /// singleton rank elects its only replica while it lives and nobody once
    /// it is dead.
    #[test]
    fn substitute_election_is_deterministic_across_survivor_subsets(
        ranks in 1usize..12,
        degree in 2usize..5,
        replicated_mask in any::<u64>(),
        dead_mask in any::<u64>(),
    ) {
        use sdr_core::ReplicaMap;
        let replicated: Vec<usize> =
            (0..ranks).filter(|r| replicated_mask & (1u64 << r) != 0).collect();
        let mut maps = vec![ReplicaMap::uniform(ranks, degree)];
        maps.extend(ReplicaMap::partial(ranks, &replicated).ok());
        for map in &maps {
            let alive: Vec<bool> = (0..map.physical_processes())
                .map(|e| dead_mask & (1u64 << (e % 64)) == 0)
                .collect();
            // The rank's liveness mask, as each process keeps it per peer.
            let mask = |alive: &[bool], rank: usize| {
                (0..map.degree_of(rank))
                    .filter(|&rep| alive[map.endpoint(rank, rep).0])
                    .fold(0u64, |mask, rep| mask | 1 << rep)
            };
            for rank in 0..ranks {
                let live = |rep: usize| alive[map.endpoint(rank, rep).0];
                let got = map.lowest_live_replica(rank, mask(&alive, rank));
                prop_assert_eq!(got, (0..map.degree_of(rank)).find(|&rep| live(rep)));
                prop_assert_eq!(map.lowest_live_replica(rank, mask(&alive, rank)), got, "election must be stable");
                if !map.is_replicated(rank) {
                    prop_assert_eq!(got, live(0).then_some(0), "a singleton elects itself or nobody");
                }
                if let Some(rep) = got {
                    // Survivor subsets: with every non-elected replica of the
                    // rank dead too, the winner is unchanged.
                    let mut fewer = alive.clone();
                    for other in (0..map.degree_of(rank)).filter(|&other| other != rep) {
                        fewer[map.endpoint(rank, other).0] = false;
                    }
                    prop_assert_eq!(map.lowest_live_replica(rank, mask(&fewer, rank)), Some(rep));
                }
            }
        }
    }
}

/// The matching engine keeps its postings and unexpected messages in two
/// node pools with free lists. Cycles in which `WIDTH` entries go live and
/// empty again — an all-to-all's shape, spread over three sources — must
/// leave nothing behind and reuse the same `WIDTH` nodes of each pool
/// however many cycles run.
#[test]
fn matching_engine_cycles_leave_no_entry_and_reuse_their_nodes() {
    const WIDTH: u64 = 16;
    let msg = |tag: u64| IncomingMsg {
        src: EndpointId((tag % 3) as usize),
        comm: CommId::WORLD,
        tag: tag as i64,
        seq: tag,
        aux: 0,
        payload: bytes::Bytes::new(),
        arrival: SimTime::from_nanos(tag),
    };
    let post = |tag: u64| PostedRecv {
        req: PmlReqId(tag),
        src: Some(EndpointId((tag % 3) as usize)),
        comm: CommId::WORLD,
        tag: TagSel::Tag(tag as i64),
    };
    let mut engine = MatchingEngine::new();
    for cycle in 0..10_000u64 {
        let tags = cycle * WIDTH..(cycle + 1) * WIDTH;
        // Post, then match: `WIDTH` postings go live and empty.
        for tag in tags.clone() {
            assert!(engine.post_recv(post(tag)).is_none());
        }
        for tag in tags.clone() {
            let (req, _) = engine.incoming(msg(tag)).expect("posted receive matches");
            assert_eq!(req, PmlReqId(tag));
        }
        // Unexpected, then post: `WIDTH` messages go live and empty.
        for tag in tags.clone() {
            assert!(engine.incoming(msg(tag)).is_none());
        }
        for tag in tags {
            let delivery = engine
                .post_recv(post(tag))
                .expect("unexpected message matches");
            assert_eq!(delivery.seq, tag);
        }
        assert_eq!((engine.posted_len(), engine.unexpected_len()), (0, 0));
        assert_eq!(engine.pool_sizes(), (WIDTH as usize, WIDTH as usize));
    }
}

/// Assert the [`sdr_core::ReplicaMap`] bijection and routing invariants for
/// one concrete map (plain panics — proptest catches them as failures).
fn check_map_bijection(map: &sdr_core::ReplicaMap) {
    use std::collections::BTreeSet;
    let total: usize = (0..map.ranks()).map(|r| map.degree_of(r)).sum();
    assert_eq!(map.physical_processes(), total);
    // endpoint() covers 0..Σdegree exactly once, and locate() inverts it.
    let mut seen = BTreeSet::new();
    for rank in 0..map.ranks() {
        for rep in 0..map.degree_of(rank) {
            let e = map.endpoint(rank, rep);
            assert!(
                e.0 < total,
                "endpoint {e:?} out of the dense range 0..{total}"
            );
            assert!(seen.insert(e.0), "endpoint {e:?} assigned twice");
            assert_eq!(map.locate(e), (rank, rep));
        }
    }
    assert_eq!(
        seen.len(),
        total,
        "every endpoint in 0..{total} must be covered"
    );
    // Routing: direct_dests is the exact inverse of direct_src, and every
    // destination replica has exactly one direct source replica.
    for j in 0..map.ranks() {
        for i in 0..map.ranks() {
            let mut covered = BTreeSet::new();
            for l in 0..map.degree_of(j) {
                let dests = map.direct_dests(j, l, i);
                for m in (0..u64::BITS as usize).filter(|m| dests >> m & 1 == 1) {
                    assert!(
                        m < map.degree_of(i),
                        "replica {m} of rank {i} does not exist"
                    );
                    assert_eq!(map.direct_src(m, j), map.endpoint(j, l));
                    assert!(covered.insert(m), "replica {m} of rank {i} fed twice");
                }
            }
            assert_eq!(covered.len(), map.degree_of(i));
        }
    }
}

/// The ranks below `ranks` whose bit is set in `bits`, in ascending order;
/// one rank picked from `bits` when no bit below `ranks` is set.
fn rank_subset(ranks: usize, bits: u64) -> Vec<usize> {
    let subset: Vec<usize> = (0..ranks).filter(|&r| bits >> r & 1 == 1).collect();
    if subset.is_empty() {
        vec![bits as usize % ranks]
    } else {
        subset
    }
}

/// The duplicate-suppression window never lets a payload reach the
/// application twice. A deterministic seed sweep (a proptest-style property,
/// unrolled because every case is a full job run): under a duplicate-heavy
/// transport policy, a replicated ping-pong must finish with exactly the
/// fault-free checksums, and the fabric/protocol accounting must balance —
/// every injected copy suppressed, none delivered. A single leaked duplicate
/// would either corrupt a checksum (payload consumed by the wrong receive)
/// or strand a process on a receive that already matched.
#[test]
fn duplicate_frames_are_never_delivered_twice() {
    use sdr_core::{replicated_job, ReplicationConfig};
    use sim_net::{LogGpModel, NetFaultConfig};

    let rounds = 10u64;
    let expected: u64 = (0..rounds).map(|i| i * i).sum();
    for seed in 0..8u64 {
        let config = NetFaultConfig {
            drop_per_64k: 0,
            dup_per_64k: 13_000, // ~20% of frames duplicated
            delay_per_64k: 0,
            delay_ns: 0,
            ack_only: false,
        };
        let report = replicated_job(2, ReplicationConfig::dual())
            .network(LogGpModel::fast_test_model())
            .net_faults(config, seed)
            .run(move |p| {
                let world = p.world();
                let peer = 1 - p.rank();
                let mut acc = 0u64;
                for i in 0..rounds {
                    let (_, v) = p.sendrecv_bytes(
                        world,
                        peer,
                        0,
                        bytes::Bytes::from(vec![(i * i) as u8; 32]),
                        peer as i64,
                        0,
                    );
                    acc += v[0] as u64;
                }
                acc as f64
            });
        assert!(report.all_finished(), "seed {seed}: job must finish");
        for proc in &report.processes {
            let acc = *proc.outcome.result().expect("finished") as u64;
            assert_eq!(
                acc, expected,
                "seed {seed}: endpoint {:?} saw a wrong payload sum",
                proc.endpoint
            );
        }
        assert!(
            report.stats.msgs_duplicated() > 0,
            "seed {seed}: a 20% duplication rate must fire over ~{} frames",
            rounds * 12
        );
        assert_eq!(
            report.stats.dups_suppressed(),
            report.stats.msgs_duplicated(),
            "seed {seed}: every injected duplicate must be suppressed"
        );
    }
}

proptest! {
    /// A `Bytes` written in place (`Bytes::from_fill`) is indistinguishable
    /// from one copied from the same bytes, for every length on both sides of
    /// `INLINE_CAP`: equality, length, representation, sub-slices and clones.
    /// `Bytes::from(Vec<u8>)` is the third way to the same buffer.
    #[test]
    fn bytes_written_in_place_equal_the_copied_bytes(
        content in proptest::collection::vec(any::<u8>(), 80..81),
        cut_a in 0usize..81,
        cut_b in 0usize..81,
    ) {
        use bytes::{Bytes, INLINE_CAP};
        for len in 0..=80usize {
            let want = Bytes::copy_from_slice(&content[..len]);
            let built = Bytes::from_fill(len, |buf| buf.copy_from_slice(&content[..len]));
            prop_assert_eq!(&built, &want);
            prop_assert_eq!(built.len(), len);
            prop_assert_eq!(built.is_inline(), len <= INLINE_CAP);
            prop_assert_eq!(built.is_inline(), want.is_inline());
            prop_assert_eq!(&Bytes::from(content[..len].to_vec()), &want);
            prop_assert_eq!(&built.clone(), &want);
            let (lo, hi) = (cut_a.min(cut_b).min(len), cut_a.max(cut_b).min(len));
            prop_assert_eq!(&built.slice(lo..hi)[..], &content[lo..hi]);
            prop_assert_eq!(built.slice(lo..hi), want.slice(lo..hi));
        }
    }

    /// Every encoder writes exactly the little-endian bytes of its words, and
    /// every decoder returns the bit patterns that went in — NaN payloads,
    /// signalling NaNs, infinities and `-0.0` included — for 0 to 10 words
    /// (0 to 80 bytes, inline and shared).
    #[test]
    fn word_codecs_round_trip_every_bit_pattern(
        random in proptest::collection::vec(any::<u64>(), 0..7),
        specials in 0usize..5,
    ) {
        use bytes::{Bytes, INLINE_CAP};
        use sim_mpi::datatype::*;
        const SPECIALS: [u64; 4] = [
            0x7ff8_dead_beef_0001, // quiet NaN with a payload
            0xfff0_0000_0000_0001, // negative signalling NaN
            0x8000_0000_0000_0000, // -0.0
            0x7ff0_0000_0000_0000, // +inf
        ];
        let words: Vec<u64> = SPECIALS[..specials].iter().copied().chain(random).collect();
        let le: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let want = Bytes::copy_from_slice(&le);
        let floats: Vec<f64> = words.iter().map(|&w| f64::from_bits(w)).collect();

        for encoded in [
            f64s_to_bytes(&floats),
            f64s_to_bytes_iter(floats.len(), floats.iter().copied()),
            u64s_to_bytes(&words),
        ] {
            prop_assert_eq!(&encoded, &want);
            prop_assert_eq!(encoded.is_inline(), le.len() <= INLINE_CAP);
        }
        let bits = |values: Vec<f64>| values.into_iter().map(f64::to_bits).collect::<Vec<u64>>();
        prop_assert_eq!(&bits(bytes_to_f64s(&want)), &words);
        prop_assert_eq!(&bits(iter_f64s(&want).collect()), &words);
        prop_assert_eq!(iter_f64s(&want).len(), words.len());
        prop_assert_eq!(&bytes_to_u64s(&want), &words);
        for &w in &words {
            let one = f64_to_bytes(f64::from_bits(w));
            prop_assert_eq!(&one[..], &w.to_le_bytes()[..]);
            prop_assert_eq!(bytes_to_f64(&one).to_bits(), w);
        }
    }
}
