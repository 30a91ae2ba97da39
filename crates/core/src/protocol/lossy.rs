//! Loss masking (DESIGN.md §5.5): every decision the protocol takes because
//! the transport may drop, duplicate or delay frames — acks widened to the
//! direct targets and sent at receipt, wire-sequence records, the
//! retransmission timer, `ACK_PROBE`, the re-ack of duplicates, `FIN_ACK`
//! and the finalize drain. Each entry point reads the transport fact the
//! protocol was built with ([`SdrProtocol::on_transport`]) and leaves a
//! reliable transport's traffic as Algorithm 1 has it, so the fast path
//! never tests the transport.

use super::{ctl, SdrProtocol, SendEntry};
use crate::config::AckOn;
use crate::layout::ReplicaMask;
use sim_mpi::{Action, Rank};
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
    /// The same protocol over a transport that may drop, duplicate or delay
    /// frames when `lossy` is set: a fact of the fabric, fixed for the run.
    pub fn on_transport(mut self, lossy: bool) -> Self {
        self.masks_loss = lossy;
        self
    }

    /// The replicas of a sender's rank that acknowledge its message, as a
    /// mask: the *other* replicas than the direct sender `direct` (the
    /// crossed-ack topology of Algorithm 1) — and under loss the direct
    /// sender too, which must detect a dropped direct delivery itself.
    pub(super) fn ack_targets(&self, direct: usize) -> ReplicaMask {
        if self.masks_loss {
            ReplicaMask::MAX
        } else {
            !(1 << direct)
        }
    }

    /// When a receiver acknowledges. A lossy transport forces ack-at-receipt:
    /// the deferred (AppWait) and disabled (Never) ablations would let the
    /// sender's retransmission timer fire on messages that were in fact
    /// delivered.
    pub(super) fn ack_timing(&self) -> AckOn {
        if self.masks_loss {
            AckOn::RecvComplete
        } else {
            self.cfg.ack_on
        }
    }

    /// Under loss, the send log wants the wire sequence of each direct send
    /// of entry `id` back, so a retransmission can replay it under the same
    /// sequence.
    pub(super) fn wire_log(&self, id: u64) -> Option<u64> {
        self.masks_loss.then_some(id)
    }

    /// Under loss, send-log entry `id` waits for *every* live replica of the
    /// destination rank, less those a peer's `FIN_ACK` already covers (the
    /// peer exited after its counterpart sent, and it received, this
    /// sequence), and arms its retransmission timer unless nothing is left
    /// to wait for. The timer counts from the clock after the direct sends.
    pub(super) fn cover_send(&self, id: u64, entry: &mut SendEntry, out: &mut Vec<Action>) {
        if !self.masks_loss {
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
            out.push(Self::retx_timer(
                id,
                SimTime::from_nanos(RETX_BASE_NS),
                true,
            ));
        }
    }

    /// The retransmission timer of send-log entry `id`, due at `at` (after
    /// the clock, `from_clock`). A timer is queued in this process's own
    /// inbox, so a process with an unacked send can never be judged
    /// quiescent, which is what keeps deadlock detection exact under message
    /// loss (DESIGN.md §5.5).
    fn retx_timer(id: u64, at: SimTime, from_clock: bool) -> Action {
        let header = ctl::header(ctl::RETX_TIMER, id, 0);
        Action::Timer {
            header,
            at,
            from_clock,
        }
    }

    /// A retransmission timer fired for send-log entry `id` at virtual time
    /// `now`. If the entry is still missing acknowledgements, chase each
    /// missing one — replay the payload on direct links (same wire sequence,
    /// so the receiver's window dedups it), probe cross replicas reliably —
    /// and re-arm the timer with doubled backoff.
    pub(super) fn handle_retx_timer(&mut self, id: u64, now: SimTime, out: &mut Vec<Action>) {
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
        // the attempt counter races to its cap (DESIGN.md §5.5). Once
        // attempts pile up, the wait also naps in real time while another
        // run permit is in circulation.
        let sleep = attempts >= RETX_REAL_BACKOFF_ATTEMPTS;
        out.push(Action::WaitUntil { at: now, sleep });
        if attempts > RETX_MAX_ATTEMPTS {
            out.push(Action::Abort(format!(
                "send to rank {} seq {} still unacked after {} retransmission timeouts",
                entry.dst_rank, entry.seq, RETX_MAX_ATTEMPTS,
            )));
            return;
        }
        let missing = entry.acks_expected & !entry.acks_received;
        let entry = self.sends.get(id).expect("looked up above");
        let (dst_rank, comm, tag, seq) = (entry.dst_rank, entry.comm, entry.tag, entry.seq);
        for rep in (0..self.map.degree_of(dst_rank)).filter(|rep| missing & (1 << rep) != 0) {
            let dst = self.map.endpoint(dst_rank, rep);
            if !self.is_alive(dst) {
                continue;
            }
            out.push(match entry.wire_sends.iter().find(|(e, _)| *e == dst) {
                Some(&(_, wire_seq)) => Action::Resend {
                    dst,
                    comm,
                    tag,
                    aux: seq as i64,
                    wire_seq,
                    payload: entry.payload.clone(),
                },
                None => Self::control(dst, ctl::ACK_PROBE, self.my_rank as u64, seq, now),
            });
        }
        let backoff = SimTime::from_nanos(RETX_BASE_NS << (attempts - 1).min(16));
        out.push(Self::retx_timer(id, now.saturating_add(backoff), false));
    }

    /// A CONTROL-class frame of `kind` with arguments `a` and `b`.
    fn control(dst: EndpointId, kind: i64, a: u64, b: u64, not_before: SimTime) -> Action {
        Action::Control {
            dst,
            class: class::CONTROL,
            header: ctl::header(kind, a, b),
            not_before,
        }
    }

    /// A peer probes whether application sequence `seq` from `sender_rank`
    /// has been delivered here. If it has, re-emit the acknowledgement — on
    /// the reliable CONTROL class, so a probe/re-ack exchange always
    /// terminates regardless of the fault rates on the ACK class.
    pub(super) fn handle_ack_probe(
        &self,
        prober: EndpointId,
        sender_rank: Rank,
        seq: u64,
        arrival: SimTime,
        out: &mut Vec<Action>,
    ) {
        if self.peers[sender_rank].recv_seen.seen(seq) {
            out.push(Self::control(prober, ctl::ACK, seq, 0, arrival));
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
    pub(super) fn reack_duplicate(
        &self,
        src: EndpointId,
        seq: u64,
        at: SimTime,
        out: &mut Vec<Action>,
    ) {
        if self.masks_loss {
            let (src_rank, src_replica) = self.map.locate(src);
            self.send_acks_for(src_rank, src_replica, seq, at, out);
        }
    }

    /// `MPI_Finalize` under loss, two steps (DESIGN.md §5.5); the driver
    /// gives `Finalize` again after each drain. A reliable transport has
    /// nothing to settle.
    pub(super) fn fin_ack_and_drain(&mut self, now: SimTime, out: &mut Vec<Action>) {
        if !self.masks_loss {
            return;
        }
        // 1. Emit cumulative acknowledgements on the reliable CONTROL class,
        //    once. At finalize this process has received *everything* any
        //    peer will ever send it (the app completed all its receives, and
        //    the wire window admits no gaps), so one `upto` per sender rank
        //    covers every per-message ack a fault may have eaten — senders
        //    can complete even after we exit.
        if !std::mem::replace(&mut self.fin_sent, true) {
            let me = self.map.endpoint(self.my_rank, self.my_replica);
            for src_rank in 0..self.map.ranks() {
                let upto = self.peers[src_rank].recv_seen.next_expected();
                if upto == 0 {
                    continue;
                }
                for rep in 0..self.map.degree_of(src_rank) {
                    let target = self.map.endpoint(src_rank, rep);
                    if target != me && self.is_alive(target) {
                        out.push(Self::control(target, ctl::FIN_ACK, upto, 0, now));
                    }
                }
            }
        }
        // 2. Drain the send log: keep progressing (retransmission timers,
        //    probe responses, peers' FIN_ACKs) until every entry is fully
        //    acknowledged — exiting earlier would strand a receiver whose
        //    copy of a payload was dropped.
        if self.sends.iter().any(|e| !e.fully_acked()) {
            out.push(Action::Drain("SDR-MPI finalize: draining unacked send log"));
        }
    }
}
