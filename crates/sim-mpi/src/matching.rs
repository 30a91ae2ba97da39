//! The message matching engine: posted-receive queue and unexpected-message
//! queue.
//!
//! This is the part of the PML where the paper's `match` event happens: an
//! incoming message is matched against posted receive requests on
//! (communicator, source, tag), honouring the `MPI_ANY_SOURCE` and
//! `MPI_ANY_TAG` wildcards. Messages that arrive before a matching receive has
//! been posted go to the *unexpected queue*; delivering from the unexpected
//! queue later costs an extra copy, which is exactly the cost the paper says
//! leader-based protocols inflate by delaying receive posting (Section 3.1).
//!
//! Both queues are **indexed**, not linear:
//!
//! * Posted receives live in buckets keyed by `(comm, source filter, tag
//!   filter)` — wildcard filters get their own buckets — and carry a global
//!   posting-order sequence number. An incoming message can only be claimed by
//!   one of the four buckets its `(comm, src, tag)` projects onto
//!   (specific/specific, specific/any, any/specific, any/any); taking the
//!   bucket head with the smallest posting sequence reproduces MPI's
//!   posting-order semantics exactly, in O(1) hash lookups instead of a scan.
//! * Unexpected messages live in buckets keyed by the concrete `(comm, src,
//!   tag)` and carry an arrival sequence number. A specific receive pops its
//!   bucket head directly; a wildcard receive takes the minimum arrival
//!   sequence over the communicator's matching bucket heads (bounded by the
//!   number of distinct live `(src, tag)` pairs, not by queue length).

use crate::types::{CommId, Tag, TagSel};
use bytes::Bytes;
use sim_net::{EndpointId, SimTime};
use std::collections::VecDeque;
use std::hash::{BuildHasherDefault, Hasher};

/// A fast multiplicative hasher for the engine's small integer-tuple keys.
/// The default SipHash is DoS-resistant but costs more than the matching
/// logic itself at this granularity; bucket keys are derived from trusted
/// in-process state, so the cheap mix is safe.
#[derive(Default)]
pub struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u64(&mut self, v: u64) {
        // Fibonacci-style multiplicative mixing; plenty for integer keys.
        self.0 = (self.0 ^ v)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(23);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    fn write_i64(&mut self, v: i64) {
        self.write_u64(v as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type HashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<KeyHasher>>;

/// How many emptied buckets of each kind (posted, unexpected) the engine
/// keeps for reuse. Under an all-to-all every bucket holds one entry, so
/// without the free list each message allocates a deque when its bucket
/// appears and frees it when the bucket empties; a handful of spares absorbs
/// that, and the bound keeps the retained memory negligible (a few hundred
/// bytes per spare).
pub const SPARE_BUCKETS: usize = 8;

/// Keep the just-emptied `bucket` for reuse unless `spare` is full.
fn retire_bucket<T>(spare: &mut Vec<VecDeque<T>>, bucket: VecDeque<T>) {
    debug_assert!(bucket.is_empty());
    if spare.len() < SPARE_BUCKETS {
        spare.push(bucket);
    }
}

/// One communicator's unexpected-message buckets: concrete (src, tag) →
/// FIFO of (arrival seq, message).
type UnexpectedBuckets = HashMap<(EndpointId, Tag), VecDeque<(u64, IncomingMsg)>>;

/// Identifier of a PML-level receive request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PmlReqId(pub u64);

/// An application-class message delivered by the fabric, after the wire
/// header has been decoded.
#[derive(Debug, Clone)]
pub struct IncomingMsg {
    /// Sending physical process.
    pub src: EndpointId,
    /// Communicator context.
    pub comm: CommId,
    /// Message tag.
    pub tag: Tag,
    /// PML-level sequence number for the (src, dst, comm) stream.
    pub seq: u64,
    /// Protocol-defined auxiliary word (SDR-MPI stores its application-level
    /// per-rank-pair sequence number here).
    pub aux: i64,
    /// Payload.
    pub payload: Bytes,
    /// Virtual arrival time at the receiver.
    pub arrival: SimTime,
}

/// A receive request posted to the matching engine.
#[derive(Debug, Clone)]
pub struct PostedRecv {
    /// The request this posting belongs to.
    pub req: PmlReqId,
    /// Source filter: `None` means `MPI_ANY_SOURCE`.
    pub src: Option<EndpointId>,
    /// Communicator context.
    pub comm: CommId,
    /// Tag filter.
    pub tag: TagSel,
}

impl PostedRecv {
    fn matches(&self, m: &IncomingMsg) -> bool {
        self.comm == m.comm
            && self.tag.matches(m.tag)
            && self.src.map(|s| s == m.src).unwrap_or(true)
    }
}

/// Result of delivering a message from the unexpected queue: the engine also
/// reports that an extra copy is required so the PML can charge its cost.
#[derive(Debug, Clone)]
pub struct UnexpectedDelivery {
    /// The matched message.
    pub msg: IncomingMsg,
    /// Always true; kept explicit for readability at call sites.
    pub extra_copy: bool,
}

/// Bucket key for posted receives: the filter triple, with `None` standing
/// for the `MPI_ANY_SOURCE` / `MPI_ANY_TAG` wildcards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct PostKey {
    comm: CommId,
    src: Option<EndpointId>,
    tag: Option<Tag>,
}

impl PostKey {
    fn of(posting: &PostedRecv) -> PostKey {
        PostKey {
            comm: posting.comm,
            src: posting.src,
            tag: match posting.tag {
                TagSel::Tag(t) => Some(t),
                TagSel::Any => None,
            },
        }
    }

    /// Which of the four filter kinds this key belongs to; see
    /// [`MatchingEngine::posted_kinds`].
    fn kind(&self) -> usize {
        (self.src.is_none() as usize) | ((self.tag.is_none() as usize) << 1)
    }
}

/// Matching engine state.
#[derive(Debug, Default)]
pub struct MatchingEngine {
    /// Posted receives, bucketed by filter triple. Entries carry the global
    /// posting sequence; each bucket is sorted by it and never left empty.
    posted: HashMap<PostKey, VecDeque<(u64, PostedRecv)>>,
    /// Request id → bucket it currently lives in (a redirect moves it).
    posted_where: HashMap<PmlReqId, PostKey>,
    /// Live posting count per filter kind (specific/specific, any-source,
    /// any-tag, any/any). Lets [`MatchingEngine::incoming`] probe only bucket
    /// kinds that can exist — applications that never post wildcards pay for
    /// exactly one lookup per message.
    posted_kinds: [usize; 4],
    posted_seq: u64,
    /// Unexpected messages, bucketed per communicator by concrete (src, tag).
    /// Entries carry the global arrival sequence; buckets are FIFO in it and
    /// never left empty (a communicator's map, once created, is — it stays
    /// for the next message).
    unexpected: HashMap<CommId, UnexpectedBuckets>,
    unexpected_live: usize,
    arrival_seq: u64,
    /// Emptied posted buckets awaiting reuse, at most [`SPARE_BUCKETS`].
    spare_posted: Vec<VecDeque<(u64, PostedRecv)>>,
    /// Emptied unexpected buckets awaiting reuse, at most [`SPARE_BUCKETS`].
    spare_unexpected: Vec<VecDeque<(u64, IncomingMsg)>>,
}

impl MatchingEngine {
    /// New empty engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket of `comm_map` holding the earliest-arriving message that
    /// matches the (src, tag) filter pair, honouring wildcards; what
    /// [`MatchingEngine::take_unexpected`] pops.
    fn earliest_unexpected_bucket(
        comm_map: &UnexpectedBuckets,
        src: Option<EndpointId>,
        tag: TagSel,
    ) -> Option<(EndpointId, Tag)> {
        if let (Some(s), TagSel::Tag(t)) = (src, tag) {
            let k = (s, t);
            return comm_map.contains_key(&k).then_some(k);
        }
        // Wildcard on source and/or tag: minimum arrival sequence over the
        // communicator's matching bucket heads.
        let mut best: Option<(u64, (EndpointId, Tag))> = None;
        for (&(msrc, mtag), q) in comm_map.iter() {
            if let Some(want) = src {
                if want != msrc {
                    continue;
                }
            }
            if !tag.matches(mtag) {
                continue;
            }
            if let Some(&(seq, _)) = q.front() {
                if best.map(|(s, _)| seq < s).unwrap_or(true) {
                    best = Some((seq, (msrc, mtag)));
                }
            }
        }
        best.map(|(_, bucket)| bucket)
    }

    /// Pop the earliest unexpected message matching `posting`, if any.
    fn take_unexpected(&mut self, posting: &PostedRecv) -> Option<IncomingMsg> {
        let comm_map = self.unexpected.get_mut(&posting.comm)?;
        let bucket = Self::earliest_unexpected_bucket(comm_map, posting.src, posting.tag)?;
        let q = comm_map.get_mut(&bucket).expect("bucket exists");
        let (_, msg) = q.pop_front().expect("bucket non-empty");
        if q.is_empty() {
            let q = comm_map.remove(&bucket).expect("bucket exists");
            retire_bucket(&mut self.spare_unexpected, q);
        }
        self.unexpected_live -= 1;
        Some(msg)
    }

    /// Post a receive request. If a message in the unexpected queue already
    /// matches it, the earliest such message is removed and returned (the
    /// request completes immediately, at the cost of an extra copy).
    pub fn post_recv(&mut self, posting: PostedRecv) -> Option<UnexpectedDelivery> {
        if let Some(msg) = self.take_unexpected(&posting) {
            return Some(UnexpectedDelivery {
                msg,
                extra_copy: true,
            });
        }
        let key = PostKey::of(&posting);
        let seq = self.posted_seq;
        self.posted_seq += 1;
        self.posted_where.insert(posting.req, key);
        self.posted_kinds[key.kind()] += 1;
        self.posted
            .entry(key)
            .or_insert_with(|| self.spare_posted.pop().unwrap_or_default())
            .push_back((seq, posting));
        None
    }

    /// Handle an incoming message. If a posted receive matches (first match in
    /// posting order, per MPI semantics), that posting is removed and its
    /// request id returned together with the message. Otherwise the message is
    /// stored in the unexpected queue.
    pub fn incoming(&mut self, msg: IncomingMsg) -> Option<(PmlReqId, IncomingMsg)> {
        // The only buckets whose filters can match this message.
        let candidates = [
            PostKey {
                comm: msg.comm,
                src: Some(msg.src),
                tag: Some(msg.tag),
            },
            PostKey {
                comm: msg.comm,
                src: Some(msg.src),
                tag: None,
            },
            PostKey {
                comm: msg.comm,
                src: None,
                tag: Some(msg.tag),
            },
            PostKey {
                comm: msg.comm,
                src: None,
                tag: None,
            },
        ];
        let mut best: Option<(u64, PostKey)> = None;
        for key in candidates {
            if self.posted_kinds[key.kind()] == 0 {
                continue; // no live posting of this filter kind exists at all
            }
            if let Some(&(seq, _)) = self.posted.get(&key).and_then(|q| q.front()) {
                if best.map(|(s, _)| seq < s).unwrap_or(true) {
                    best = Some((seq, key));
                }
            }
        }
        if let Some((_, key)) = best {
            let q = self.posted.get_mut(&key).expect("bucket exists");
            let (_, posting) = q.pop_front().expect("bucket non-empty");
            if q.is_empty() {
                let q = self.posted.remove(&key).expect("bucket exists");
                retire_bucket(&mut self.spare_posted, q);
            }
            self.posted_where.remove(&posting.req);
            self.posted_kinds[key.kind()] -= 1;
            debug_assert!(posting.matches(&msg));
            Some((posting.req, msg))
        } else {
            let seq = self.arrival_seq;
            self.arrival_seq += 1;
            self.unexpected
                .entry(msg.comm)
                .or_default()
                .entry((msg.src, msg.tag))
                .or_insert_with(|| self.spare_unexpected.pop().unwrap_or_default())
                .push_back((seq, msg));
            self.unexpected_live += 1;
            None
        }
    }

    /// Change the source filter of a posted receive (Algorithm 1, line 35:
    /// receive requests from a failed replica are redirected to its
    /// substitute). If the new filter matches an unexpected message, that
    /// message is delivered immediately; otherwise the posting moves to its
    /// new bucket, keeping its original posting-order priority.
    pub fn redirect(
        &mut self,
        req: PmlReqId,
        new_src: Option<EndpointId>,
    ) -> Option<UnexpectedDelivery> {
        let old_key = *self.posted_where.get(&req)?;
        let old_bucket = self.posted.get_mut(&old_key).expect("live posting bucket");
        let pos = old_bucket
            .iter()
            .position(|(_, p)| p.req == req)
            .expect("live posting present in its bucket");
        let (seq, mut posting) = old_bucket.remove(pos).expect("position valid");
        if old_bucket.is_empty() {
            self.posted.remove(&old_key);
        }
        posting.src = new_src;
        self.posted_kinds[old_key.kind()] -= 1;
        if let Some(msg) = self.take_unexpected(&posting) {
            self.posted_where.remove(&req);
            return Some(UnexpectedDelivery {
                msg,
                extra_copy: true,
            });
        }
        let new_key = PostKey::of(&posting);
        self.posted_where.insert(req, new_key);
        self.posted_kinds[new_key.kind()] += 1;
        let bucket = self.posted.entry(new_key).or_default();
        // Keep the bucket sorted by posting sequence: the redirected request
        // retains its original matching priority.
        let at = bucket.partition_point(|&(s, _)| s < seq);
        bucket.insert(at, (seq, posting));
        None
    }

    /// Number of currently posted receives.
    pub fn posted_len(&self) -> usize {
        self.posted_where.len()
    }

    /// Number of currently queued unexpected messages.
    pub fn unexpected_len(&self) -> usize {
        self.unexpected_live
    }

    /// Emptied `(posted, unexpected)` buckets currently kept for reuse, each
    /// at most [`SPARE_BUCKETS`] (diagnostics).
    pub fn spare_buckets(&self) -> (usize, usize) {
        (self.spare_posted.len(), self.spare_unexpected.len())
    }

    /// The source filters of all currently posted receives, **in posting
    /// order** (used by failure handling to find requests that need
    /// redirecting — redirects deliver queued unexpected messages
    /// immediately, so the iteration order decides which posting matches
    /// first and must follow MPI's posting-order rule).
    pub fn posted_requests(&self) -> impl Iterator<Item = &PostedRecv> {
        let mut live: Vec<&(u64, PostedRecv)> = self.posted.values().flatten().collect();
        live.sort_unstable_by_key(|(seq, _)| *seq);
        live.into_iter().map(|(_, p)| p)
    }

    /// Drop every unexpected message for which `discard` returns true.
    /// Returns how many were dropped. Used by protocols that deliberately
    /// over-send (the mirror protocol's redundant copies) to keep the
    /// unexpected queue bounded.
    pub fn purge_unexpected<F: FnMut(&IncomingMsg) -> bool>(&mut self, mut discard: F) -> usize {
        let mut dropped = 0;
        for comm_map in self.unexpected.values_mut() {
            comm_map.retain(|_, q| {
                let before = q.len();
                q.retain(|(_, m)| !discard(m));
                dropped += before - q.len();
                !q.is_empty()
            });
        }
        self.unexpected_live -= dropped;
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(src: usize, comm: u64, tag: Tag, seq: u64) -> IncomingMsg {
        IncomingMsg {
            src: EndpointId(src),
            comm: CommId(comm),
            tag,
            seq,
            aux: 0,
            payload: Bytes::from(vec![seq as u8]),
            arrival: SimTime::from_nanos(seq),
        }
    }

    fn posting(req: u64, src: Option<usize>, comm: u64, tag: TagSel) -> PostedRecv {
        PostedRecv {
            req: PmlReqId(req),
            src: src.map(EndpointId),
            comm: CommId(comm),
            tag,
        }
    }

    #[test]
    fn exact_match_on_posted_recv() {
        let mut eng = MatchingEngine::new();
        assert!(eng
            .post_recv(posting(1, Some(0), 1, TagSel::Tag(5)))
            .is_none());
        let matched = eng.incoming(msg(0, 1, 5, 0));
        assert_eq!(matched.map(|(r, _)| r), Some(PmlReqId(1)));
        assert_eq!(eng.posted_len(), 0);
        assert_eq!(eng.unexpected_len(), 0);
    }

    #[test]
    fn mismatched_message_goes_unexpected() {
        let mut eng = MatchingEngine::new();
        eng.post_recv(posting(1, Some(0), 1, TagSel::Tag(5)));
        // Wrong tag.
        assert!(eng.incoming(msg(0, 1, 6, 0)).is_none());
        // Wrong source.
        assert!(eng.incoming(msg(2, 1, 5, 1)).is_none());
        // Wrong communicator.
        assert!(eng.incoming(msg(0, 2, 5, 2)).is_none());
        assert_eq!(eng.unexpected_len(), 3);
        assert_eq!(eng.posted_len(), 1);
    }

    #[test]
    fn any_source_matches_any_sender() {
        let mut eng = MatchingEngine::new();
        eng.post_recv(posting(1, None, 1, TagSel::Tag(5)));
        let matched = eng.incoming(msg(17, 1, 5, 0));
        assert_eq!(
            matched.map(|(r, m)| (r, m.src)),
            Some((PmlReqId(1), EndpointId(17)))
        );
    }

    #[test]
    fn any_tag_matches_any_tag() {
        let mut eng = MatchingEngine::new();
        eng.post_recv(posting(1, Some(0), 1, TagSel::Any));
        assert!(eng.incoming(msg(0, 1, 999, 0)).is_some());
    }

    #[test]
    fn unexpected_message_delivered_on_later_post() {
        let mut eng = MatchingEngine::new();
        assert!(eng.incoming(msg(0, 1, 5, 0)).is_none());
        let delivery = eng.post_recv(posting(1, Some(0), 1, TagSel::Tag(5)));
        let d = delivery.expect("unexpected message should be delivered");
        assert!(d.extra_copy);
        assert_eq!(d.msg.seq, 0);
        assert_eq!(eng.unexpected_len(), 0);
        assert_eq!(eng.posted_len(), 0);
    }

    #[test]
    fn posting_order_respected_for_matching() {
        // Two identical postings: the first posted must match the first message.
        let mut eng = MatchingEngine::new();
        eng.post_recv(posting(1, Some(0), 1, TagSel::Tag(5)));
        eng.post_recv(posting(2, Some(0), 1, TagSel::Tag(5)));
        let first = eng.incoming(msg(0, 1, 5, 0)).unwrap();
        let second = eng.incoming(msg(0, 1, 5, 1)).unwrap();
        assert_eq!(first.0, PmlReqId(1));
        assert_eq!(second.0, PmlReqId(2));
    }

    #[test]
    fn arrival_order_respected_in_unexpected_queue() {
        let mut eng = MatchingEngine::new();
        eng.incoming(msg(0, 1, 5, 0));
        eng.incoming(msg(0, 1, 5, 1));
        let d1 = eng
            .post_recv(posting(1, Some(0), 1, TagSel::Tag(5)))
            .unwrap();
        let d2 = eng
            .post_recv(posting(2, Some(0), 1, TagSel::Tag(5)))
            .unwrap();
        assert_eq!(d1.msg.seq, 0, "earliest unexpected message first");
        assert_eq!(d2.msg.seq, 1);
    }

    #[test]
    fn wildcard_posting_does_not_steal_from_specific_older_posting() {
        // MPI semantics: matching is in posting order. A specific posting made
        // earlier must match before a wildcard posted later.
        let mut eng = MatchingEngine::new();
        eng.post_recv(posting(1, Some(0), 1, TagSel::Tag(5)));
        eng.post_recv(posting(2, None, 1, TagSel::Any));
        let (req, _) = eng.incoming(msg(0, 1, 5, 0)).unwrap();
        assert_eq!(req, PmlReqId(1));
    }

    #[test]
    fn redirect_changes_source_and_may_deliver_unexpected() {
        let mut eng = MatchingEngine::new();
        // Message from endpoint 9 arrives; posted recv expects endpoint 3.
        eng.incoming(msg(9, 1, 5, 0));
        eng.post_recv(posting(1, Some(3), 1, TagSel::Tag(5)));
        assert_eq!(eng.unexpected_len(), 1);
        // Failure handling redirects the posting to endpoint 9 (the substitute):
        // the queued message is delivered immediately.
        let d = eng
            .redirect(PmlReqId(1), Some(EndpointId(9)))
            .expect("delivered");
        assert_eq!(d.msg.src, EndpointId(9));
        assert_eq!(eng.posted_len(), 0);
    }

    #[test]
    fn redirect_without_queued_message_just_updates_filter() {
        let mut eng = MatchingEngine::new();
        eng.post_recv(posting(1, Some(3), 1, TagSel::Tag(5)));
        assert!(eng.redirect(PmlReqId(1), Some(EndpointId(9))).is_none());
        // Now a message from 9 matches, one from 3 does not.
        assert!(eng.incoming(msg(3, 1, 5, 0)).is_none());
        assert!(eng.incoming(msg(9, 1, 5, 1)).is_some());
    }

    #[test]
    fn wildcard_post_takes_earliest_arrival_across_source_buckets() {
        // Messages land in distinct (src, tag) buckets; an any-source/any-tag
        // posting must still drain them in global arrival order.
        let mut eng = MatchingEngine::new();
        eng.incoming(msg(4, 1, 8, 0));
        eng.incoming(msg(2, 1, 5, 1));
        eng.incoming(msg(4, 1, 5, 2));
        eng.incoming(msg(7, 1, 9, 3));
        for expect in 0..4u64 {
            let d = eng
                .post_recv(posting(expect, None, 1, TagSel::Any))
                .expect("delivered");
            assert_eq!(d.msg.seq, expect, "arrival order across buckets");
        }
        assert_eq!(eng.unexpected_len(), 0);
    }

    #[test]
    fn redirect_preserves_posting_order_priority_in_new_bucket() {
        // Posting 1 (earlier) expects src 5; posting 2 (later) expects src 9.
        // Redirecting posting 1 to src 9 moves it into posting 2's bucket but
        // must keep its earlier posting-order priority.
        let mut eng = MatchingEngine::new();
        eng.post_recv(posting(1, Some(5), 1, TagSel::Tag(3)));
        eng.post_recv(posting(2, Some(9), 1, TagSel::Tag(3)));
        assert!(eng.redirect(PmlReqId(1), Some(EndpointId(9))).is_none());
        let (first, _) = eng.incoming(msg(9, 1, 3, 0)).unwrap();
        let (second, _) = eng.incoming(msg(9, 1, 3, 1)).unwrap();
        assert_eq!(first, PmlReqId(1), "redirected posting keeps its priority");
        assert_eq!(second, PmlReqId(2));
    }

    #[test]
    fn postings_redirected_away_do_not_block_their_old_bucket() {
        let mut eng = MatchingEngine::new();
        eng.post_recv(posting(1, Some(0), 1, TagSel::Tag(5)));
        eng.post_recv(posting(2, Some(0), 1, TagSel::Tag(5)));
        eng.post_recv(posting(3, Some(0), 1, TagSel::Tag(5)));
        assert!(eng.redirect(PmlReqId(1), Some(EndpointId(9))).is_none());
        assert!(eng.redirect(PmlReqId(2), Some(EndpointId(9))).is_none());
        assert_eq!(eng.posted_len(), 3);
        let (req, _) = eng.incoming(msg(0, 1, 5, 0)).unwrap();
        assert_eq!(req, PmlReqId(3), "the old bucket holds only what stayed");
        assert_eq!(
            eng.posted_requests().count(),
            2,
            "and nothing is listed twice"
        );
        assert!(
            eng.incoming(msg(0, 1, 5, 1)).is_none(),
            "emptied bucket matches nothing"
        );
    }

    #[test]
    fn specific_posting_beats_later_wildcard_across_buckets() {
        let mut eng = MatchingEngine::new();
        // Wildcard posted FIRST must win over a specific posting made later.
        eng.post_recv(posting(1, None, 1, TagSel::Any));
        eng.post_recv(posting(2, Some(0), 1, TagSel::Tag(5)));
        let (req, _) = eng.incoming(msg(0, 1, 5, 0)).unwrap();
        assert_eq!(req, PmlReqId(1), "posting order wins across bucket kinds");
    }

    #[test]
    fn posted_requests_iterates_in_posting_order_across_buckets() {
        // Failure handling redirects pending receives in the order this
        // iterator yields them, and a redirect can consume a queued
        // unexpected message immediately — so the order must be posting
        // order even though the postings live in different hash buckets.
        let mut eng = MatchingEngine::new();
        eng.post_recv(posting(5, Some(0), 1, TagSel::Any));
        eng.post_recv(posting(3, Some(0), 1, TagSel::Tag(7)));
        eng.post_recv(posting(9, None, 2, TagSel::Any));
        eng.post_recv(posting(1, Some(4), 1, TagSel::Tag(7)));
        let order: Vec<u64> = eng.posted_requests().map(|p| p.req.0).collect();
        assert_eq!(order, vec![5, 3, 9, 1]);
    }

    #[test]
    fn redirecting_in_posted_requests_order_matches_earliest_posting_first() {
        // The failover scenario: two receives posted for a (now dead)
        // source — the earlier one a wildcard-tag receive, the later one
        // tag-specific — and the substitute's tag-7 message already queued
        // unexpected. Redirecting in posted_requests() order must hand the
        // message to the *earlier* posting (MPI posting-order rule).
        let mut eng = MatchingEngine::new();
        eng.post_recv(posting(1, Some(0), 1, TagSel::Any));
        eng.post_recv(posting(2, Some(0), 1, TagSel::Tag(7)));
        eng.incoming(msg(9, 1, 7, 0));
        let pending: Vec<PmlReqId> = eng
            .posted_requests()
            .filter(|p| p.src == Some(EndpointId(0)))
            .map(|p| p.req)
            .collect();
        let mut delivered_to = None;
        for req in pending {
            if eng.redirect(req, Some(EndpointId(9))).is_some() {
                delivered_to = Some(req);
                break;
            }
        }
        assert_eq!(
            delivered_to,
            Some(PmlReqId(1)),
            "queued message must match the earliest posting"
        );
    }
}
