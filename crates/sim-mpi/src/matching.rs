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
//! Both queues are kept per peer, as Open MPI's `ob1` keeps them, in lists
//! threaded through two node pools — nothing is hashed:
//!
//! * Each `(source endpoint, communicator)` has a FIFO of the receives posted
//!   for that source (any tag) and a FIFO of its unexpected messages. A job
//!   has two communicators ([`CommId::INTERNAL`], [`CommId::WORLD`]), each
//!   with a table of list heads indexed by source endpoint and grown to the
//!   highest source seen: eight bytes per endpoint of a communicator in use.
//! * `MPI_ANY_SOURCE` receives sit in their own per-communicator list, and
//!   every unexpected message is also threaded, in arrival order, on a
//!   per-communicator list that any-source receives scan.
//! * Every posting carries a global posting sequence. An incoming message
//!   takes the first posting with a matching tag in its source's list and in
//!   the any-source list, whichever was posted first — MPI's posting-order
//!   rule. A receive takes the first unexpected message with a matching tag
//!   in its source's list (or, for any source, in the arrival list), which is
//!   the earliest arrival that matches.
//!
//! Emptied nodes go on their pool's free list, so a pool holds as many nodes
//! as were ever live at once, and the steady state allocates nothing.

use crate::types::{CommId, Tag, TagSel};
use bytes::Bytes;
use sim_net::{EndpointId, SimTime};

/// Identifier of a PML-level receive request. The PML hands out a slot index
/// in the low 32 bits and a 31-bit generation above it, so its ids never
/// have the top bit set: a protocol that mints receive handles of its own
/// takes them from that half. The matching engine accepts any value.
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

/// The index of `comm` in per-communicator tables: a job has two
/// communicators, [`CommId::INTERNAL`] (0) and [`CommId::WORLD`] (1).
pub(crate) fn comm_slot(comm: CommId) -> usize {
    assert!(
        comm.0 < 2,
        "unknown communicator {comm:?}: a job has two, INTERNAL (0) and WORLD (1)"
    );
    comm.0 as usize
}

/// "No node": the end of a list, or an empty list's head.
const NIL: u32 = u32::MAX;

/// One node's place in one list. A list is named by its head; the head's
/// `prev` is the tail, and the tail's `next` is [`NIL`].
#[derive(Debug, Clone, Copy)]
struct Links {
    next: u32,
    prev: u32,
}

#[derive(Debug)]
struct Node<T> {
    item: Option<T>,
    /// Posted nodes use chain 0 only; unexpected nodes are on their source's
    /// list (chain 0) and their communicator's arrival list (chain 1).
    links: [Links; 2],
}

/// A node pool; lists are threaded through its nodes, and so is the free
/// list (chain 0 of the free nodes, from `free`).
#[derive(Debug)]
struct Pool<T> {
    nodes: Vec<Node<T>>,
    free: u32,
}

impl<T> Default for Pool<T> {
    fn default() -> Self {
        Pool {
            nodes: Vec::new(),
            free: NIL,
        }
    }
}

impl<T> Pool<T> {
    fn alloc(&mut self, item: T) -> u32 {
        const UNLINKED: Links = Links {
            next: NIL,
            prev: NIL,
        };
        match self.free {
            NIL => {
                self.nodes.push(Node {
                    item: Some(item),
                    links: [UNLINKED; 2],
                });
                (self.nodes.len() - 1) as u32
            }
            i => {
                let node = &mut self.nodes[i as usize];
                self.free = node.links[0].next;
                node.item = Some(item);
                i
            }
        }
    }

    fn release(&mut self, i: u32) -> T {
        let node = &mut self.nodes[i as usize];
        node.links[0].next = self.free;
        self.free = i;
        node.item.take().expect("live node")
    }

    fn item(&self, i: u32) -> &T {
        self.nodes[i as usize].item.as_ref().expect("live node")
    }

    fn tail(&self, head: u32, chain: usize) -> u32 {
        self.nodes[head as usize].links[chain].prev
    }

    fn links(&mut self, i: u32, chain: usize) -> &mut Links {
        &mut self.nodes[i as usize].links[chain]
    }

    /// Insert node `i` into the list at `head` before node `at` ([`NIL`]:
    /// at the tail).
    fn insert_before(&mut self, head: &mut u32, chain: usize, at: u32, i: u32) {
        if *head == NIL {
            *self.links(i, chain) = Links { next: NIL, prev: i };
            *head = i;
        } else if at == NIL {
            let tail = self.links(*head, chain).prev;
            self.links(tail, chain).next = i;
            *self.links(i, chain) = Links {
                next: NIL,
                prev: tail,
            };
            self.links(*head, chain).prev = i;
        } else {
            let prev = self.links(at, chain).prev;
            *self.links(i, chain) = Links { next: at, prev };
            self.links(at, chain).prev = i;
            if at == *head {
                *head = i;
            } else {
                self.links(prev, chain).next = i;
            }
        }
    }

    fn unlink(&mut self, head: &mut u32, chain: usize, i: u32) {
        let Links { next, prev } = *self.links(i, chain);
        if i == *head {
            *head = next;
            if next != NIL {
                self.links(next, chain).prev = prev;
            }
        } else {
            self.links(prev, chain).next = next;
            if next == NIL {
                self.links(*head, chain).prev = prev;
            } else {
                self.links(next, chain).prev = prev;
            }
        }
    }

    /// The first node of the list at `head`, in list order, whose item
    /// satisfies `pred`.
    fn find(&self, head: u32, chain: usize, mut pred: impl FnMut(&T) -> bool) -> Option<u32> {
        let mut i = head;
        while i != NIL {
            let node = &self.nodes[i as usize];
            if pred(node.item.as_ref().expect("live node")) {
                return Some(i);
            }
            i = node.links[chain].next;
        }
        None
    }
}

/// The list heads of one `(source, communicator)` pair.
#[derive(Debug, Clone, Copy)]
struct PeerLists {
    posted: u32,
    unexpected: u32,
}

/// The list heads of one communicator: its any-source postings and its
/// unexpected messages in arrival order.
#[derive(Debug, Clone, Copy)]
struct CommLists {
    any_source: u32,
    arrivals: u32,
}

#[derive(Debug)]
struct Posting {
    /// Global posting sequence: lower matches first.
    seq: u64,
    recv: PostedRecv,
}

/// Matching engine state.
#[derive(Debug)]
pub struct MatchingEngine {
    /// Per communicator, per source endpoint (grown on first sight).
    peers: [Vec<PeerLists>; 2],
    comms: [CommLists; 2],
    posted: Pool<Posting>,
    unexpected: Pool<IncomingMsg>,
    posted_seq: u64,
    posted_live: usize,
    unexpected_live: usize,
}

impl Default for MatchingEngine {
    fn default() -> Self {
        const EMPTY: CommLists = CommLists {
            any_source: NIL,
            arrivals: NIL,
        };
        MatchingEngine {
            peers: [Vec::new(), Vec::new()],
            comms: [EMPTY; 2],
            posted: Pool::default(),
            unexpected: Pool::default(),
            posted_seq: 0,
            posted_live: 0,
            unexpected_live: 0,
        }
    }
}

impl MatchingEngine {
    /// New empty engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// The list heads of `src` on communicator slot `c`, grown on first use.
    fn peer(&mut self, src: EndpointId, c: usize) -> &mut PeerLists {
        const EMPTY: PeerLists = PeerLists {
            posted: NIL,
            unexpected: NIL,
        };
        let peers = &mut self.peers[c];
        if src.0 >= peers.len() {
            peers.resize(src.0 + 1, EMPTY);
        }
        &mut peers[src.0]
    }

    fn peer_head(&self, src: EndpointId, c: usize, posted: bool) -> u32 {
        self.peers[c].get(src.0).map_or(NIL, |lists| {
            if posted {
                lists.posted
            } else {
                lists.unexpected
            }
        })
    }

    /// Pop the earliest unexpected message matching the `(src, comm, tag)`
    /// filter, if any.
    fn take_unexpected(
        &mut self,
        src: Option<EndpointId>,
        comm: CommId,
        tag: TagSel,
    ) -> Option<IncomingMsg> {
        let c = comm_slot(comm);
        let matches = |m: &IncomingMsg| tag.matches(m.tag);
        let i = match src {
            Some(s) => self
                .unexpected
                .find(self.peer_head(s, c, false), 0, matches)?,
            None => self.unexpected.find(self.comms[c].arrivals, 1, matches)?,
        };
        let from = self.unexpected.item(i).src;
        self.unexpected
            .unlink(&mut self.peers[c][from.0].unexpected, 0, i);
        self.unexpected.unlink(&mut self.comms[c].arrivals, 1, i);
        self.unexpected_live -= 1;
        Some(self.unexpected.release(i))
    }

    /// Append `posting` (posting sequence `seq`) to its list, behind every
    /// posting of that list with a lower sequence.
    fn enqueue_posting(&mut self, seq: u64, recv: PostedRecv) {
        let c = comm_slot(recv.comm);
        let mut head = match recv.src {
            Some(s) => self.peer(s, c).posted,
            None => self.comms[c].any_source,
        };
        // A fresh posting has the highest sequence yet and goes to the tail;
        // only a redirected one can belong further up.
        let at = match head {
            NIL => NIL,
            head if self.posted.item(self.posted.tail(head, 0)).seq < seq => NIL,
            head => self.posted.find(head, 0, |p| p.seq > seq).unwrap_or(NIL),
        };
        let src = recv.src;
        let i = self.posted.alloc(Posting { seq, recv });
        self.posted.insert_before(&mut head, 0, at, i);
        match src {
            Some(s) => self.peer(s, c).posted = head,
            None => self.comms[c].any_source = head,
        }
        self.posted_live += 1;
    }

    /// Post a receive request. If a message in the unexpected queue already
    /// matches it, the earliest such message is removed and returned (the
    /// request completes immediately, at the cost of an extra copy the PML
    /// charges).
    pub fn post_recv(&mut self, posting: PostedRecv) -> Option<IncomingMsg> {
        if let Some(msg) = self.take_unexpected(posting.src, posting.comm, posting.tag) {
            return Some(msg);
        }
        let seq = self.posted_seq;
        self.posted_seq += 1;
        self.enqueue_posting(seq, posting);
        None
    }

    /// Handle an incoming message. If a posted receive matches (first match in
    /// posting order, per MPI semantics), that posting is removed and its
    /// request id returned together with the message. Otherwise the message is
    /// stored in the unexpected queue.
    pub fn incoming(&mut self, msg: IncomingMsg) -> Option<(PmlReqId, IncomingMsg)> {
        let c = comm_slot(msg.comm);
        let tag_matches = |p: &Posting| p.recv.tag.matches(msg.tag);
        let specific = self
            .posted
            .find(self.peer_head(msg.src, c, true), 0, tag_matches);
        let any = match self.comms[c].any_source {
            NIL => None,
            head => self.posted.find(head, 0, tag_matches),
        };
        let seq = |i: u32| self.posted.item(i).seq;
        let take_any = match (specific, any) {
            (Some(s), Some(a)) => seq(a) < seq(s),
            (None, Some(_)) => true,
            (_, None) => false,
        };
        let taken = if take_any {
            let i = any.expect("chosen above");
            self.posted.unlink(&mut self.comms[c].any_source, 0, i);
            i
        } else if let Some(i) = specific {
            let lists = &mut self.peers[c][msg.src.0];
            self.posted.unlink(&mut lists.posted, 0, i);
            i
        } else {
            let i = self.unexpected.alloc(msg);
            let src = self.unexpected.item(i).src;
            let mut head = self.peer(src, c).unexpected;
            self.unexpected.insert_before(&mut head, 0, NIL, i);
            self.peer(src, c).unexpected = head;
            self.unexpected
                .insert_before(&mut self.comms[c].arrivals, 1, NIL, i);
            self.unexpected_live += 1;
            return None;
        };
        self.posted_live -= 1;
        let posting = self.posted.release(taken);
        debug_assert!(posting.recv.src.is_none_or(|s| s == msg.src));
        Some((posting.recv.req, msg))
    }

    /// Change the source filter of a posted receive (Algorithm 1, line 35:
    /// receive requests from a failed replica are redirected to its
    /// substitute). If the new filter matches an unexpected message, that
    /// message is delivered immediately; otherwise the posting moves to its
    /// new list, keeping its original posting-order priority. A failure-path
    /// operation: it scans the lists for `req`.
    pub fn redirect(&mut self, req: PmlReqId, new_src: Option<EndpointId>) -> Option<IncomingMsg> {
        let is_req = |p: &Posting| p.recv.req == req;
        let mut found = None;
        'search: for c in 0..2 {
            if let Some(i) = self.posted.find(self.comms[c].any_source, 0, is_req) {
                self.posted.unlink(&mut self.comms[c].any_source, 0, i);
                found = Some(i);
                break;
            }
            for lists in &mut self.peers[c] {
                if let Some(i) = self.posted.find(lists.posted, 0, is_req) {
                    self.posted.unlink(&mut lists.posted, 0, i);
                    found = Some(i);
                    break 'search;
                }
            }
        }
        let Posting { seq, mut recv } = self.posted.release(found?);
        self.posted_live -= 1;
        recv.src = new_src;
        if let Some(msg) = self.take_unexpected(recv.src, recv.comm, recv.tag) {
            return Some(msg);
        }
        self.enqueue_posting(seq, recv);
        None
    }

    /// Number of currently posted receives.
    pub fn posted_len(&self) -> usize {
        self.posted_live
    }

    /// Number of currently queued unexpected messages.
    pub fn unexpected_len(&self) -> usize {
        self.unexpected_live
    }

    /// Nodes the `(posted, unexpected)` pools hold, live or free: the most
    /// that were ever live at once (diagnostics).
    pub fn pool_sizes(&self) -> (usize, usize) {
        (self.posted.nodes.len(), self.unexpected.nodes.len())
    }

    /// Drop every unexpected message for which `discard` returns true.
    /// Returns how many were dropped. Used by protocols that deliberately
    /// over-send (the mirror protocol's redundant copies) to keep the
    /// unexpected queue bounded.
    pub fn purge_unexpected<F: FnMut(&IncomingMsg) -> bool>(&mut self, mut discard: F) -> usize {
        let mut dropped = 0;
        for c in 0..2 {
            let mut i = self.comms[c].arrivals;
            while i != NIL {
                let next = self.unexpected.links(i, 1).next;
                if discard(self.unexpected.item(i)) {
                    let src = self.unexpected.item(i).src;
                    self.unexpected
                        .unlink(&mut self.peers[c][src.0].unexpected, 0, i);
                    self.unexpected.unlink(&mut self.comms[c].arrivals, 1, i);
                    self.unexpected.release(i);
                    dropped += 1;
                }
                i = next;
            }
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
        assert!(eng.incoming(msg(0, 0, 5, 2)).is_none());
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
        assert_eq!(d.seq, 0);
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
        assert_eq!(d1.seq, 0, "earliest unexpected message first");
        assert_eq!(d2.seq, 1);
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
        assert_eq!(d.src, EndpointId(9));
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
    fn wildcard_post_takes_earliest_arrival_across_sources() {
        // Messages land in distinct source lists; an any-source/any-tag
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
            assert_eq!(d.seq, expect, "arrival order across buckets");
        }
        assert_eq!(eng.unexpected_len(), 0);
    }

    #[test]
    fn redirect_preserves_posting_order_priority_in_new_list() {
        // Posting 1 (earlier) expects src 5; posting 2 (later) expects src 9.
        // Redirecting posting 1 to src 9 moves it into posting 2's list but
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
    fn postings_redirected_away_do_not_block_their_old_list() {
        let mut eng = MatchingEngine::new();
        eng.post_recv(posting(1, Some(0), 1, TagSel::Tag(5)));
        eng.post_recv(posting(2, Some(0), 1, TagSel::Tag(5)));
        eng.post_recv(posting(3, Some(0), 1, TagSel::Tag(5)));
        assert!(eng.redirect(PmlReqId(1), Some(EndpointId(9))).is_none());
        assert!(eng.redirect(PmlReqId(2), Some(EndpointId(9))).is_none());
        assert_eq!(eng.posted_len(), 3);
        let (req, _) = eng.incoming(msg(0, 1, 5, 0)).unwrap();
        assert_eq!(req, PmlReqId(3), "the old list holds only what stayed");
        assert_eq!(eng.posted_len(), 2, "and nothing is listed twice");
        assert!(
            eng.incoming(msg(0, 1, 5, 1)).is_none(),
            "emptied list matches nothing"
        );
    }

    #[test]
    fn wildcard_posting_beats_later_specific_across_lists() {
        let mut eng = MatchingEngine::new();
        // Wildcard posted FIRST must win over a specific posting made later.
        eng.post_recv(posting(1, None, 1, TagSel::Any));
        eng.post_recv(posting(2, Some(0), 1, TagSel::Tag(5)));
        let (req, _) = eng.incoming(msg(0, 1, 5, 0)).unwrap();
        assert_eq!(req, PmlReqId(1), "posting order wins across lists");
    }

    #[test]
    fn redirecting_in_posting_order_matches_earliest_posting_first() {
        // The failover scenario: two receives posted for a (now dead)
        // source — the earlier one a wildcard-tag receive, the later one
        // tag-specific — and the substitute's tag-7 message already queued
        // unexpected. Redirecting in posting order (as the protocol does)
        // hands the message to the *earlier* posting (MPI posting-order rule).
        let mut eng = MatchingEngine::new();
        eng.post_recv(posting(1, Some(0), 1, TagSel::Any));
        eng.post_recv(posting(2, Some(0), 1, TagSel::Tag(7)));
        eng.incoming(msg(9, 1, 7, 0));
        let mut delivered_to = None;
        for req in [PmlReqId(1), PmlReqId(2)] {
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

    #[test]
    fn a_tag_scan_skips_earlier_postings_and_messages_of_other_tags() {
        // One source, tags 1..=4 posted in order; messages arrive with tags
        // 4..=1: each matches the one posting of its tag, wherever it sits.
        let mut eng = MatchingEngine::new();
        for t in 1..=4 {
            eng.post_recv(posting(t as u64, Some(0), 1, TagSel::Tag(t)));
        }
        for t in (1..=4).rev() {
            let (req, _) = eng.incoming(msg(0, 1, t, t as u64)).unwrap();
            assert_eq!(req, PmlReqId(t as u64));
        }
        // The same the other way round, through the unexpected list.
        for t in 1..=4 {
            assert!(eng.incoming(msg(0, 1, t, t as u64)).is_none());
        }
        for t in (1..=4).rev() {
            let d = eng
                .post_recv(posting(9, Some(0), 1, TagSel::Tag(t)))
                .unwrap();
            assert_eq!(d.tag, t);
        }
        assert_eq!((eng.posted_len(), eng.unexpected_len()), (0, 0));
        assert_eq!(eng.pool_sizes(), (4, 4), "freed nodes are reused");
    }

    #[test]
    fn purge_unlinks_from_both_lists() {
        let mut eng = MatchingEngine::new();
        for seq in 0..6 {
            eng.incoming(msg((seq % 2) as usize, 1, 5, seq));
        }
        assert_eq!(eng.purge_unexpected(|m| m.seq % 3 == 0), 2);
        let mut left = Vec::new();
        while let Some(d) = eng.post_recv(posting(1, None, 1, TagSel::Any)) {
            left.push(d.seq);
        }
        assert_eq!(left, vec![1, 2, 4, 5]);
        assert!(eng.post_recv(posting(2, Some(1), 1, TagSel::Any)).is_none());
    }

    #[test]
    #[should_panic(expected = "a job has two")]
    fn a_third_communicator_is_rejected() {
        MatchingEngine::new().incoming(msg(0, 2, 5, 0));
    }
}
