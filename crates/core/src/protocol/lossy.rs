//! Loss masking (DESIGN.md §5.5): every decision the protocol takes because
//! the transport may drop, duplicate or delay frames — acks widened to the
//! direct targets and sent at receipt, wire-sequence records, the
//! retransmission timer, `ACK_PROBE`, the re-ack of duplicates, `FIN_ACK`
//! and the finalize drain. Each entry point reads [`Pml::lossy_transport`]
//! itself and leaves a reliable transport's traffic as Algorithm 1 has it,
//! so the fast path never tests the transport.

use super::{ctl, SdrProtocol, SendEntry};
use crate::config::AckOn;
use crate::layout::ReplicaMask;
use bytes::Bytes;
use sim_mpi::pml::Pml;
use sim_mpi::{Protocol, Rank};
use sim_net::stats::class;
use sim_net::{EndpointId, SimTime};

/// Virtual-time base of the retransmission timer: 50 µs, about 30× the
/// modelled one-message round trip of the bundled network models. A firing
/// timer nevertheless seldom means a lost frame: measured on the benchmark's
/// `fault_recovery_64` workload, `proto.retx_per_drop` is 9.5 — nine
/// timer-driven retransmissions for every frame the fault policy dropped —
/// because the timer is armed in the *sender's* virtual time and nothing
/// keeps it from firing before the peer that owes the ack has been
/// dispatched that far (the peer's wire-sequence window dedups the copies).
/// Only a virtual-time lookahead can remove those: ROADMAP item 2 tracks
/// `proto.retx_per_drop`, item 4 the lookahead rule.
const RETX_BASE_NS: u64 = 50_000;

/// A send-log entry still unacknowledged after this many doubled timeouts
/// aborts the process: at the default campaign fault rates the probability of
/// that many consecutive losses on one link is negligible, so hitting the cap
/// indicates a protocol bug rather than bad luck.
const RETX_MAX_ATTEMPTS: u32 = 32;

/// Attempt count from which each retransmission timeout additionally sleeps
/// a short *real-time* interval — when another run permit is in circulation
/// (`Endpoint::runs_alone` is false). Virtual timer pops are instantaneous in
/// real time, so repeated timeouts there usually mean a peer executing under
/// the other permit is starved of physical CPU, not that the network lost
/// every copy; sleeping lets already-emitted acknowledgements physically
/// arrive long before [`RETX_MAX_ATTEMPTS`] can be reached. A process holding
/// the only permit never sleeps: nobody could run meanwhile.
const RETX_REAL_BACKOFF_ATTEMPTS: u32 = 8;

impl SdrProtocol {
    /// The replicas of a sender's rank that acknowledge its message, as a
    /// mask: the *other* replicas than the direct sender `direct` (the
    /// crossed-ack topology of Algorithm 1) — and under loss the direct
    /// sender too, which must detect a dropped direct delivery itself.
    pub(super) fn ack_targets(pml: &Pml, direct: usize) -> ReplicaMask {
        if pml.lossy_transport() {
            ReplicaMask::MAX
        } else {
            !(1 << direct)
        }
    }

    /// When a receiver acknowledges. A lossy transport forces ack-at-receipt:
    /// the deferred (AppWait) and disabled (Never) ablations would let the
    /// sender's retransmission timer fire on messages that were in fact
    /// delivered.
    pub(super) fn ack_timing(&self, pml: &Pml) -> AckOn {
        if pml.lossy_transport() {
            AckOn::RecvComplete
        } else {
            self.cfg.ack_on
        }
    }

    /// Record the wire sequence of a direct send, so a retransmission can
    /// replay it under the same sequence.
    pub(super) fn note_wire_send(pml: &Pml, entry: &mut SendEntry, sent: (EndpointId, u64)) {
        if pml.lossy_transport() {
            entry.wire_sends.push(sent);
        }
    }

    /// Under loss, send-log entry `id` waits for *every* live replica of the
    /// destination rank, less those a peer's `FIN_ACK` already covers (the
    /// peer exited after its counterpart sent, and it received, this
    /// sequence), and arms its retransmission timer unless nothing is left
    /// to wait for.
    pub(super) fn cover_send(&mut self, pml: &mut Pml, id: u64, entry: &mut SendEntry) {
        if !pml.lossy_transport() {
            return;
        }
        for rep in 0..self.map.degree_of(entry.dst_rank) {
            let target = self.map.endpoint(entry.dst_rank, rep);
            if !self.is_alive(target) {
                continue;
            }
            entry.acks_expected |= 1 << rep;
            let fin_acked = self.fin_acked.get(target.0);
            if fin_acked.is_some_and(|&upto| entry.seq < upto) {
                entry.acks_received |= 1 << rep;
            }
        }
        if !entry.fully_acked() {
            let deadline = pml.now().saturating_add(SimTime::from_nanos(RETX_BASE_NS));
            Self::arm_retx_timer(pml, id, deadline);
        }
    }

    /// Arm (or re-arm) the retransmission timer for send-log entry `id`: a
    /// self-addressed CONTROL message whose virtual arrival is the timeout
    /// deadline. A send ingests before it returns, so the timer is queued in
    /// this process's own inbox immediately — a process with an unacked send can
    /// therefore never be judged quiescent, which is what keeps deadlock
    /// detection exact under message loss (DESIGN.md §5.5).
    fn arm_retx_timer(pml: &mut Pml, id: u64, deadline: SimTime) {
        let me = pml.endpoint_id();
        let header = ctl::header(ctl::RETX_TIMER, id, 0);
        pml.send_control_at(me, class::CONTROL, header, Bytes::new(), deadline);
    }

    /// A retransmission timer fired for send-log entry `id` at virtual time
    /// `now`. If the entry is still missing acknowledgements, chase each
    /// missing one — replay the payload on direct links (same wire sequence,
    /// so the receiver's window dedups it), probe cross replicas reliably —
    /// and re-arm the timer with doubled backoff.
    pub(super) fn handle_retx_timer(&mut self, pml: &mut Pml, id: u64, now: SimTime) {
        let Some(entry) = self.sends.get_mut(id) else {
            return; // already acked and collected: stale timer
        };
        if entry.fully_acked() {
            return;
        }
        entry.retx_attempts += 1;
        let attempts = entry.retx_attempts;
        // The deadline has been reached in *virtual* time only — popping a
        // self-addressed timer is instantaneous in real time. Before judging
        // the timeout, sync our clock to the deadline and cross the
        // scheduler's advance boundary, handing the run permit to any ready
        // process earlier in virtual time. Without this, a process whose
        // inbox the timer keeps warm never parks and never yields, starving
        // the very peers whose acknowledgements would cancel the timer while
        // the attempt counter races to its cap (DESIGN.md §5.5).
        pml.wait_until(now);
        // The boundary above yields only within the scheduler's permit pool.
        // A peer executing concurrently under *another* permit may still be
        // waiting for physical CPU while this process — whose timer pops
        // cost nanoseconds of real time each — races through backoff rounds:
        // give the OS a scheduling point every attempt, and once attempts
        // pile up, a short real sleep, so acknowledgements already emitted
        // get physical time to arrive before the attempt cap can be reached.
        // When ours is the only permit in circulation nobody can run while
        // we wait, so there is nothing to wait for (DESIGN.md §5.5).
        if !pml.endpoint().runs_alone() {
            pml.endpoint().fabric().stats().record_retx_real_wait();
            std::thread::yield_now();
            if attempts >= RETX_REAL_BACKOFF_ATTEMPTS {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
        }
        assert!(
            attempts <= RETX_MAX_ATTEMPTS,
            "send to rank {} seq {} still unacked after {} retransmission timeouts",
            entry.dst_rank,
            entry.seq,
            RETX_MAX_ATTEMPTS,
        );
        let missing = entry.acks_expected & !entry.acks_received;
        let entry = self.sends.get(id).expect("looked up above");
        let (dst_rank, comm, tag, seq) = (entry.dst_rank, entry.comm, entry.tag, entry.seq);
        for rep in (0..self.map.degree_of(dst_rank)).filter(|rep| missing & (1 << rep) != 0) {
            let target = self.map.endpoint(dst_rank, rep);
            if !self.is_alive(target) {
                continue;
            }
            if let Some(&(_, wire_seq)) = entry.wire_sends.iter().find(|(e, _)| *e == target) {
                let payload = entry.payload.clone();
                pml.resend_app(target, comm, tag, seq as i64, wire_seq, payload);
            } else {
                let header = ctl::header(ctl::ACK_PROBE, self.my_rank as u64, seq);
                pml.send_control_at(target, class::CONTROL, header, Bytes::new(), now);
            }
        }
        let backoff = SimTime::from_nanos(RETX_BASE_NS << (attempts - 1).min(16));
        Self::arm_retx_timer(pml, id, now.saturating_add(backoff));
    }

    /// A peer probes whether application sequence `seq` from `sender_rank`
    /// has been delivered here. If it has, re-emit the acknowledgement — on
    /// the reliable CONTROL class, so a probe/re-ack exchange always
    /// terminates regardless of the fault rates on the ACK class.
    pub(super) fn handle_ack_probe(
        &self,
        pml: &mut Pml,
        prober: EndpointId,
        sender_rank: Rank,
        seq: u64,
        arrival: SimTime,
    ) {
        if self.peers[sender_rank].recv_seen.seen(seq) {
            let header = ctl::header(ctl::ACK, seq, 0);
            pml.send_control_at(prober, class::CONTROL, header, Bytes::new(), arrival);
        }
        // Not seen yet: our own direct sender's retransmission timer is in
        // charge of getting the payload here; we will ack on delivery.
    }

    /// A peer's finalize-time cumulative acknowledgement: `acker` (a replica
    /// of rank `rank_of(acker)`) has received everything this rank ever sent
    /// it below `upto`. Acks every matching live entry and is remembered for
    /// sends this (possibly slower) replica has not posted yet.
    pub(super) fn handle_fin_ack(&mut self, acker: EndpointId, upto: u64, arrival: SimTime) {
        let (dst_rank, replica) = self.map.locate(acker);
        for entry in self.sends.iter_mut() {
            if entry.dst_rank == dst_rank && entry.seq < upto {
                entry.acks_received |= 1 << replica;
                entry.completion_floor = entry.completion_floor.max(arrival);
            }
        }
        if self.fin_acked.is_empty() {
            self.fin_acked = vec![0; self.alive.len()];
        }
        let slot = &mut self.fin_acked[acker.0];
        *slot = (*slot).max(upto);
        self.collect_send_log_garbage();
    }

    /// Sequence `seq` from `src` reached this process again — a duplicate
    /// the receive path dropped, or one the PML's wire window suppressed.
    /// Under loss its sender evidently missed our acknowledgement: re-emit
    /// it. (On a reliable transport a duplicate is a post-failure re-send,
    /// and the substitute expects no ack for it.)
    pub(super) fn reack_duplicate(&self, pml: &mut Pml, src: EndpointId, seq: u64, at: SimTime) {
        if pml.lossy_transport() {
            let (src_rank, src_replica) = self.map.locate(src);
            self.send_acks_for(pml, src_rank, src_replica, seq, at);
        }
    }

    /// `MPI_Finalize` under loss, two steps (DESIGN.md §5.5). A reliable
    /// transport has nothing to settle.
    pub(super) fn fin_ack_and_drain(&mut self, pml: &mut Pml) {
        if !pml.lossy_transport() {
            return;
        }
        // 1. Emit cumulative acknowledgements on the reliable CONTROL class.
        //    At finalize this process has received *everything* any peer will
        //    ever send it (the app completed all its receives, and the wire
        //    window admits no gaps), so one `upto` per sender rank covers
        //    every per-message ack a fault may have eaten — senders can
        //    complete even after we exit.
        let me = pml.endpoint_id();
        for src_rank in 0..self.map.ranks() {
            let upto = self.peers[src_rank].recv_seen.next_expected();
            if upto == 0 {
                continue;
            }
            for rep in 0..self.map.degree_of(src_rank) {
                let target = self.map.endpoint(src_rank, rep);
                if target != me && self.is_alive(target) {
                    let header = ctl::header(ctl::FIN_ACK, upto, 0);
                    pml.send_control_at(target, class::CONTROL, header, Bytes::new(), pml.now());
                }
            }
        }
        // 2. Drain the send log: keep progressing (retransmission timers,
        //    probe responses, peers' FIN_ACKs) until every entry is fully
        //    acknowledged — exiting earlier would strand a receiver whose
        //    copy of a payload was dropped.
        while self.sends.iter().any(|e| !e.fully_acked()) {
            match pml.progress_blocking("SDR-MPI finalize: draining unacked send log", false) {
                Ok(events) => {
                    for ev in events {
                        self.handle_event(pml, ev);
                    }
                }
                Err(err) => std::panic::panic_any(err),
            }
        }
    }
}
