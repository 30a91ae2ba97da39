//! The fabric: reliable FIFO transport between physical processes, with
//! virtual-time delivery.
//!
//! Each physical process owns one [`Endpoint`]. Sending charges the sender's
//! clock with the model's send overhead and stamps the message with an arrival
//! time (`sender clock + wire time`). Receivers pop physically delivered
//! messages in virtual-arrival order; the receiver's clock is synchronised to
//! a message's arrival only when the layer above actually completes a request
//! that depends on it (see the `sim-mpi` PML), never by the mere act of
//! polling the queue.
//!
//! # The single-pass delivery pipeline
//!
//! A delivery crosses exactly one buffer and one lock on its way from sender
//! to receiver (DESIGN.md §5.3): [`Endpoint::send`] ingests the message into
//! its destination's mailbox before it returns.
//!
//! * **One mailbox per endpoint, one lock.** The fabric owns one inbox per
//!   endpoint: a mutex-guarded deque of messages in *ingest order*. A send
//!   appends under that lock; ingest order is the FIFO tie-break for equal
//!   virtual arrivals (they pop in physical ingest order). The receiver only
//!   ever takes the lock to swap the deque out.
//! * **One sorted batch.** The receiver swaps its mailbox in whole into a
//!   private deque and stable-sorts it by arrival: the earliest virtual
//!   arrival pops first, equal arrivals in ingest order, however the stamps
//!   were ordered on the way in (see [`crate::model`]). Messages left over from an earlier
//!   sweep were ingested before the new batch and sit ahead of it, so the
//!   stable re-sort keeps the same `(arrival, ingest order)` rule.
//!
//! Reliability and FIFO ordering per ordered process pair follow from the
//! append order under the mailbox lock. Messages to a crashed process are
//! silently kept in its fabric-owned inbox — messages a process handed to the
//! fabric *before* crashing are still delivered, the paper's "channels are
//! reliable" assumption.
//!
//! # Why direct inbox ingest loses no wake
//!
//! The store-load (Dekker) wake protocol of [`crate::sched`] is what makes
//! the mailbox safe without a channel's internal blocking: an ingest makes
//! the message visible **before** it issues the wake — `queued` is
//! incremented, then the deque is appended under the lock, and only then
//! does [`Scheduler::wake`] set the destination's wake token. A receiver
//! that is about to park re-checks that token *after* publishing its `Parked`
//! phase, so in every interleaving either the receiver's pre-park sweep sees
//! `queued != 0`, or its token re-check fires and it re-polls. The full
//! argument is spelled out in DESIGN.md §5.3.
//! A managed sender's repeat sends inside one *wake window* skip the wake
//! under the condition given at [`Endpoint::flush`].

use crate::clock::VirtualClock;
use crate::failure::{CrashSchedule, CrashSignal, FailureEvent};
use crate::model::LogGpModel;
use crate::netfault::{FaultVerdict, NetFaultConfig, NetFaultPolicy};
use crate::sched::{Park, Scheduler};
use crate::stats::{class, NetStats};
use crate::time::SimTime;
use bytes::Bytes;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Identifier of a physical process / its fabric endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EndpointId(pub usize);

/// Number of opaque header words carried by every message. The upper layers
/// (sim-mpi, replication protocols) encode tags, communicator ids, sequence
/// numbers, etc. into these words; the fabric never interprets them.
pub const HEADER_WORDS: usize = 8;

/// A message in flight on the fabric. It carries only what its receiver
/// reads: the destination is the mailbox it sits in, and the sender's
/// injection time is folded into `arrival`.
#[derive(Debug, Clone)]
pub struct RawMessage {
    /// Sending physical process.
    pub src: EndpointId,
    /// Traffic class (see [`crate::stats::class`]); used for statistics and by
    /// upper layers to demultiplex protocol traffic from application traffic.
    pub class: u8,
    /// Opaque header words interpreted by the upper layers.
    pub header: [i64; HEADER_WORDS],
    /// Payload bytes.
    pub payload: Bytes,
    /// Virtual time at which the message becomes visible to the receiver.
    pub arrival: SimTime,
}

// A frame's payload length is all the benchmark's fabric kernels read of
// it; nothing asks whether a frame is empty, so there is no `is_empty`.
#[allow(clippy::len_without_is_empty)]
impl RawMessage {
    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.payload.len()
    }
}

/// Why a blocking receive returned without a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// The scheduler's quiescence check fired: every unfinished process is
    /// parked and no message is in flight — the job is deadlocked.
    Quiescent,
}

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvError::Quiescent => write!(
                f,
                "scheduler quiescence: every unfinished process is blocked with no messages in flight"
            ),
        }
    }
}

/// The fabric-owned mailbox of one endpoint: the single buffer a delivery
/// crosses between sender and receiver.
///
/// Senders append under the one lock, in ingest order; the receiver swaps
/// the whole deque out. `queued` is an advisory over-approximation
/// maintained like the scheduler's ready-entry count — incremented *before*
/// a push inserts, decremented *after* a sweep removes — so a zero read
/// proves the mailbox is empty and the hot empty-poll path never touches the
/// lock.
struct Inbox {
    mailbox: Mutex<VecDeque<RawMessage>>,
    /// Advisory message count (over-approximation; zero proves empty).
    queued: AtomicU64,
}

impl Inbox {
    fn new() -> Self {
        Inbox {
            mailbox: Mutex::new(VecDeque::new()),
            queued: AtomicU64::new(0),
        }
    }

    /// Append `msg`. The count is raised before the insert (see the struct
    /// docs); the caller issues the scheduler wake *after* this returns,
    /// which is what the no-lost-wake argument in the module docs relies on.
    fn ingest(&self, msg: RawMessage) {
        self.queued.fetch_add(1, Ordering::SeqCst);
        self.mailbox
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push_back(msg);
    }
}

/// The shared fabric connecting `n` endpoints.
pub struct Fabric {
    n: usize,
    model: LogGpModel,
    /// One inbox per endpoint, owned by the fabric for the whole run so that
    /// messages sent to a crashed process are not lost: they stay queued
    /// under its identity, whether or not a handle is ever taken for it.
    inboxes: Vec<Inbox>,
    taken: Mutex<Vec<bool>>,
    stats: Arc<NetStats>,
    sched: Scheduler,
    /// The job's lossy-transport fault policy, if one was installed (see
    /// [`crate::netfault`]). Installed once before any process starts;
    /// fault-free runs pay one atomic load per delivery for the `None` check.
    net_faults: std::sync::OnceLock<NetFaultPolicy>,
}

impl std::fmt::Debug for Fabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fabric")
            .field("endpoints", &self.n)
            .finish()
    }
}

impl Fabric {
    /// Build a fabric for `n` physical processes, each its own node, using
    /// `model` for costs.
    pub fn with_defaults(n: usize, model: LogGpModel) -> Arc<Fabric> {
        assert!(n > 0, "fabric needs at least one endpoint");
        let inboxes = (0..n).map(|_| Inbox::new()).collect();
        // The scheduler shares the fabric's stats so its dispatch counters
        // (handoffs, cold dispatches) land in the same snapshot as
        // the wake counters.
        let stats = Arc::new(NetStats::new());
        let sched = Scheduler::with_stats(n, Arc::clone(&stats));
        Arc::new(Fabric {
            n,
            model,
            inboxes,
            taken: Mutex::new(vec![false; n]),
            stats,
            sched,
            net_faults: std::sync::OnceLock::new(),
        })
    }

    /// The shared statistics counters.
    pub fn stats(&self) -> &Arc<NetStats> {
        &self.stats
    }

    /// Notify every endpoint but `endpoint` that it failed at virtual time
    /// `at`: each gets a `SYSTEM` message whose `header[0]` names the failed
    /// endpoint, arriving at `at`, and is woken (the paper's "the underlying
    /// system notifies every process"). [`Endpoint::maybe_crash`] calls this
    /// when a crash schedule fires; tests call it to fail a hand-driven
    /// endpoint.
    pub fn fail(&self, endpoint: EndpointId, at: SimTime) -> FailureEvent {
        let mut header = [0; HEADER_WORDS];
        header[0] = endpoint.0 as i64;
        for dst in (0..self.n).filter(|&i| i != endpoint.0).map(EndpointId) {
            self.ingest(
                dst,
                RawMessage {
                    src: endpoint,
                    class: class::SYSTEM,
                    header,
                    payload: Bytes::new(),
                    arrival: at,
                },
            );
            self.wake(dst);
        }
        FailureEvent { endpoint, at }
    }

    /// The process scheduler. Only endpoints registered with it can block
    /// in a receive (they park on it); the job launcher in `sim-mpi`
    /// registers every process it spawns.
    pub fn scheduler(&self) -> &Scheduler {
        &self.sched
    }

    /// Install a lossy-transport fault policy for this job (see
    /// [`crate::netfault`]): every subsequent ingest routes
    /// application and ack traffic through it. Must be installed at most
    /// once, before any process starts, so that the per-link message indices
    /// are identical across replays.
    pub fn install_net_faults(&self, config: NetFaultConfig, seed: u64) {
        let policy = NetFaultPolicy::new(config, seed, self.n);
        assert!(
            self.net_faults.set(policy).is_ok(),
            "a net-fault policy was already installed on this fabric"
        );
    }

    /// The installed lossy-transport policy, if any.
    pub fn net_fault_policy(&self) -> Option<&NetFaultPolicy> {
        self.net_faults.get()
    }

    /// Ingest a message into `dst`'s inbox. The caller owes the destination
    /// a wake afterwards ([`Fabric::wake`]), dropped message or not: a
    /// spurious wake is a harmless re-poll, while skipping it would make the
    /// no-lost-wake argument depend on the fault plan.
    ///
    /// With a fault policy installed the message may first be dropped,
    /// delayed (arrival pushed, clamped to the link floor) or duplicated. A
    /// duplicate is counted where it is drawn, as injected and as suppressed
    /// at once: no copy is built, because none would ever reach the receiver
    /// (the policy's copies are filtered below the protocol layer), so
    /// `dups_suppressed == msgs_duplicated` holds in every snapshot.
    fn ingest(&self, dst: EndpointId, mut msg: RawMessage) {
        if let Some(policy) = self.net_faults.get() {
            let (verdict, arrival) = policy.route(msg.src.0, dst.0, msg.class, msg.arrival);
            msg.arrival = arrival;
            match verdict {
                FaultVerdict::Deliver => {}
                FaultVerdict::Delay => self.stats.record_msg_delayed(),
                FaultVerdict::Drop => {
                    self.stats.record_msg_dropped();
                    return;
                }
                FaultVerdict::Duplicate => {
                    self.stats.record_msg_duplicated();
                    self.stats.record_dup_suppressed();
                }
            }
        }
        self.inboxes[dst.0].ingest(msg);
    }

    /// Wake `dst`'s scheduler slot after an ingest, and count the outcome.
    fn wake(&self, dst: EndpointId) {
        self.stats.record_wake(self.sched.wake(dst));
    }

    /// Take the endpoint for physical process `id`. Panics if taken twice.
    pub fn endpoint(self: &Arc<Self>, id: EndpointId) -> Endpoint {
        assert!(id.0 < self.n, "endpoint id out of range");
        {
            let mut taken = self.taken.lock().unwrap_or_else(PoisonError::into_inner);
            assert!(!taken[id.0], "endpoint {} already taken", id.0);
            taken[id.0] = true;
        }
        Endpoint {
            id,
            managed: self.sched.is_managed(id),
            fabric: Arc::clone(self),
            clock: VirtualClock::new(),
            pending: VecDeque::new(),
            window: 1,
            woken: vec![0; self.n],
            app_sends: 0,
            crash: CrashSchedule::Never,
            idle_polls: 0,
        }
    }
}

/// A physical process's handle onto the fabric. Owns the process's virtual
/// clock and its private view of the incoming inbox (the sorted batch).
pub struct Endpoint {
    id: EndpointId,
    /// Was this endpoint registered with the fabric's scheduler when taken?
    /// Only managed endpoints can block: they park on the scheduler.
    managed: bool,
    fabric: Arc<Fabric>,
    clock: VirtualClock,
    /// Swept deliveries, sorted by `(arrival, ingest order)` and popped from
    /// the front. When empty it is swapped with the mailbox on the next
    /// sweep, so the steady state allocates nothing.
    pending: VecDeque<RawMessage>,
    /// Current wake window (see [`Endpoint::flush`]); starts at 1.
    window: u64,
    /// Per destination, the last window in which this endpoint woke it.
    woken: Vec<u64>,
    app_sends: u64,
    /// When this process crashes ([`Endpoint::schedule_crash`]).
    crash: CrashSchedule,
    /// Consecutive empty progress polls; drives the cooperative yield.
    idle_polls: u32,
}

impl std::fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Endpoint")
            .field("id", &self.id)
            .field("now", &self.clock.now())
            .field("app_sends", &self.app_sends)
            .finish()
    }
}

impl Endpoint {
    /// This endpoint's identifier.
    pub fn id(&self) -> EndpointId {
        self.id
    }

    /// The fabric this endpoint belongs to.
    pub fn fabric(&self) -> &Arc<Fabric> {
        &self.fabric
    }

    /// Current virtual time of this process.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// Immutable access to the clock (for accounting reports).
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// Mutable access to the clock (the MPI layer charges overheads itself for
    /// operations the fabric does not see, e.g. matching or copies from the
    /// unexpected queue).
    pub fn clock_mut(&mut self) -> &mut VirtualClock {
        &mut self.clock
    }

    /// Advance the clock by `d` of application computation.
    ///
    /// For scheduler-managed endpoints this is also a scheduling boundary
    /// ([`crate::sched::Scheduler::advance`]): if the computation moved this
    /// process's clock past a ready peer, the permit is handed to that peer
    /// so physical dispatch order keeps tracking virtual time.
    pub fn compute(&mut self, d: SimTime) {
        self.maybe_crash(false);
        self.clock.compute(d);
        self.maybe_crash(false);
        if self.managed && d > SimTime::ZERO {
            self.flush();
            // `advance` keeps this slot dispatchable (ready, not parked), so
            // it cannot contribute to a quiescence verdict; see its docs.
            let _ = self.fabric.sched.advance(self.id, self.clock.now());
        }
    }

    /// Synchronise the clock to a virtual deadline the process has
    /// conceptually waited out — e.g. a protocol retransmission timeout —
    /// and treat the jump as a scheduling boundary, exactly like
    /// [`Endpoint::compute`].
    ///
    /// This matters for self-addressed virtual timers: the timer message is
    /// queued immediately, so *popping* it is instantaneous in real time
    /// even though its arrival is far ahead in virtual time. A process that
    /// judged the timeout without crossing this boundary would keep its run
    /// permit while racing arbitrarily far ahead of ready peers — the very
    /// peers whose traffic would cancel the timer (see
    /// [`crate::sched::Scheduler::advance`] on wake-chain starvation).
    /// Syncing the clock and yielding to any earlier-in-virtual-time ready
    /// process keeps dispatch order tracking virtual time. Earlier clocks
    /// are left untouched (`sync_to` is monotone).
    pub fn wait_until(&mut self, deadline: SimTime) {
        self.maybe_crash(false);
        if self.clock.now() >= deadline {
            return;
        }
        self.clock.sync_to(deadline);
        if self.managed {
            self.flush();
            // `wait_boundary` consumes the stale wake token the timer's own
            // delivery left behind (a plain `advance` would treat it as
            // fresh work and never hand off); it keeps this slot
            // dispatchable, so it cannot contribute to a quiescence verdict.
            let _ = self.fabric.sched.wait_boundary(self.id, self.clock.now());
        }
    }

    /// Is this process the only one of its job that can execute right now?
    ///
    /// A simulated process executes only while it holds a run permit, and
    /// [`crate::sched::Scheduler::running`] counts the permits in circulation
    /// (a handoff in flight counts as one). Called by a running managed
    /// process, a count of one therefore means the only permit is the
    /// caller's: no peer makes progress while the caller waits in *real*
    /// time, in either carrier mode and at any worker count — with idle
    /// permits, a parked peer that became ready would already have been
    /// granted one (`Scheduler::wake` dispatches onto idle permits). False
    /// for unmanaged endpoints, whose peers run on threads the scheduler
    /// cannot see.
    pub fn runs_alone(&self) -> bool {
        self.managed && self.fabric.sched.running() <= 1
    }

    /// Set when this process crashes. Replaces any previous schedule.
    pub fn schedule_crash(&mut self, schedule: CrashSchedule) {
        self.crash = schedule;
    }

    /// Check this process's crash schedule and, if it fires, notify every
    /// other endpoint ([`Fabric::fail`]) and unwind with a [`CrashSignal`]
    /// panic. `pre_send` selects the before/after-send semantics of the
    /// schedule.
    ///
    /// Everything the process sent before this point is already in its
    /// destination's mailbox (the paper assumes channels are reliable, so it
    /// must still be delivered).
    pub fn maybe_crash(&mut self, pre_send: bool) {
        if self.crash.fires(self.clock.now(), self.app_sends, pre_send) {
            let ev = self.fabric.fail(self.id, self.clock.now());
            std::panic::panic_any(CrashSignal {
                endpoint: self.id,
                at: ev.at,
            });
        }
    }

    /// Inject a message. Charges the sender's clock with the model's send
    /// overhead, stamps the arrival time and ingests the message into the
    /// destination inbox before returning. Application-class sends also drive
    /// the crash schedule (`BeforeSend`/`AfterSend`).
    pub fn send(&mut self, dst: EndpointId, cls: u8, header: [i64; HEADER_WORDS], payload: Bytes) {
        self.send_with_floor(dst, cls, header, payload, SimTime::ZERO);
    }

    /// Like [`Endpoint::send`], but the message is stamped as if injected no
    /// earlier than `not_before`. Protocol layers use this to emit reactions
    /// to a message (e.g. an acknowledgement) that must not appear to precede
    /// that message's own arrival, even when the local clock has not yet been
    /// synchronised to it (progress only happens inside MPI calls, so a
    /// process may handle a physically-arrived message while its own virtual
    /// clock is still behind the message's arrival time).
    pub fn send_with_floor(
        &mut self,
        dst: EndpointId,
        cls: u8,
        header: [i64; HEADER_WORDS],
        payload: Bytes,
        not_before: SimTime,
    ) {
        let is_app = cls == class::APP;
        if is_app {
            self.maybe_crash(true);
        }
        // Every process is its own node: only a self-send is intra-node.
        let intra = self.id == dst;
        let send_overhead = self.fabric.model.send_overhead(payload.len(), intra);
        let wire_time = self.fabric.model.wire_time(payload.len(), intra);
        self.clock.charge_comm(send_overhead);
        let injected_at = self.clock.now().max(not_before);
        self.fabric.stats.record_send(cls, payload.len());
        self.fabric.ingest(
            dst,
            RawMessage {
                src: self.id,
                class: cls,
                header,
                payload,
                arrival: injected_at + wire_time,
            },
        );
        // One wake per destination per wake window (see `flush`); a repeat
        // is skipped only while the scheduler vouches for the destination.
        let repeat =
            self.managed && std::mem::replace(&mut self.woken[dst.0], self.window) == self.window;
        if !(repeat && self.fabric.sched.wake_is_redundant(dst)) {
            self.fabric.wake(dst);
        }
        if is_app {
            self.app_sends += 1;
            self.maybe_crash(false);
        }
    }

    /// Close this endpoint's *wake window*: the next send to each destination
    /// wakes it again.
    ///
    /// A scheduler-managed endpoint wakes a destination on its first send to
    /// it in a window and skips the wake on later ones while the destination
    /// is still queued to run ([`Scheduler::wake_is_redundant`]): it sweeps
    /// everything ingested so far when it is dispatched, so the extra wake
    /// could only leave a token that turns its next park into a re-poll.
    /// Messages are never held back; the window only decides how many wake
    /// tokens a burst leaves, which dispatch order — and through it virtual
    /// time — depends on (DESIGN.md §5.1). It closes before every scheduler
    /// call this endpoint makes, and once per PML progress call under lossy
    /// transport; left open too long it costs the destination a token, never
    /// a message or a wake-up.
    pub fn flush(&mut self) {
        self.window += 1;
    }

    /// Sweep the fabric-owned inbox into the pending batch: every message
    /// that has physically arrived is taken in one pass, so a wakeup
    /// processes all available traffic rather than one message. Returns
    /// whether anything was swept. The empty case — every poll of an idle
    /// endpoint — is answered from the inbox's advisory count without
    /// touching the lock.
    ///
    /// Into an empty batch the sweep is one swap under the lock: the
    /// cleared deque (head at 0, so the next batch lands contiguous) goes
    /// back to the mailbox. Leftovers from an earlier sweep (the PML drains
    /// every sweep; `try_recv`, `has_pending` and a bare `recv_blocking` can
    /// leave some) were ingested before the new messages, so they stay ahead
    /// of them. The stable sort by arrival then leaves equal arrivals in
    /// ingest order, and costs one pass over a batch that is already sorted.
    fn sweep_inbox(&mut self) -> bool {
        let inbox = &self.fabric.inboxes[self.id.0];
        if inbox.queued.load(Ordering::SeqCst) == 0 {
            return false;
        }
        let kept = self.pending.len();
        {
            let mut mailbox = inbox.mailbox.lock().unwrap_or_else(PoisonError::into_inner);
            if kept == 0 {
                self.pending.clear();
                std::mem::swap(&mut self.pending, &mut mailbox);
            } else {
                self.pending.append(&mut mailbox);
                mailbox.clear();
            }
        }
        let swept = self.pending.len() - kept;
        // Decrement *after* the removal so the advisory count never
        // under-reports (see the Inbox docs).
        inbox.queued.fetch_sub(swept as u64, Ordering::SeqCst);
        for msg in self.pending.range(kept..) {
            self.fabric.stats.record_delivery(msg.class);
        }
        self.pending
            .make_contiguous()
            .sort_by_key(|msg| msg.arrival);
        swept > 0
    }

    /// Non-blocking receive: returns the earliest-arriving (in virtual time)
    /// message that has been physically delivered, charging the receive
    /// overhead, or `None` if nothing is queued.
    ///
    /// Note: the receiver's clock is *not* advanced to the message's arrival
    /// time here. A message may be handled by the progress engine while the
    /// receiver's clock is still behind its arrival (the receiver was simply
    /// polled early in real time); the clock is only synchronised to the
    /// arrival when a caller actually *waits* on the corresponding request
    /// (see the `sim-mpi` PML), which keeps timing causal without letting
    /// unrelated future messages inflate the clock.
    pub fn try_recv(&mut self) -> Option<RawMessage> {
        self.poll_ready();
        self.next_ready()
    }

    /// The sweep half of [`Endpoint::try_recv`]: run the crash check once and
    /// ingest everything that has physically arrived. Batch consumers (the
    /// PML's progress drain) call this once and then pop with
    /// [`Endpoint::next_ready`] until empty, instead of paying a crash check
    /// and an inbox probe per message.
    pub fn poll_ready(&mut self) {
        self.maybe_crash(false);
        self.sweep_inbox();
    }

    /// The pop half of [`Endpoint::try_recv`]: return the earliest-arriving
    /// already-swept message (charging the receive overhead) without probing
    /// the inbox again. `None` when the pending batch is empty — call
    /// [`Endpoint::poll_ready`] to sweep first.
    pub fn next_ready(&mut self) -> Option<RawMessage> {
        let msg = self.pending.pop_front()?;
        self.charge_recv_overhead(&msg);
        Some(msg)
    }

    // Application payload receive overhead is charged by the MPI layer when
    // the receive request actually completes for the application (after the
    // clock has been synchronised to the arrival); protocol-level messages
    // (acks, control, hashes) are charged here, when they are processed.
    fn charge_recv_overhead(&mut self, msg: &RawMessage) {
        if msg.class != class::APP {
            self.charge_recv(msg.src, msg.len());
        }
    }

    /// Charge this endpoint's clock the model's receive overhead for a
    /// `len`-byte message from `src` (intra-node only when `src` is this
    /// endpoint). The MPI layer calls it when an application receive
    /// completes.
    pub fn charge_recv(&mut self, src: EndpointId, len: usize) {
        let cost = self.fabric.model.recv_overhead(len, src == self.id);
        self.clock.charge_comm(cost);
    }

    /// Is there any message queued (whether or not it has virtually arrived)?
    pub fn has_pending(&mut self) -> bool {
        self.sweep_inbox();
        !self.pending.is_empty()
    }

    /// Blocking receive: waits until at least one message is queued, then
    /// returns the one with the earliest virtual arrival.
    ///
    /// Scheduler-managed endpoints *park* instead of blocking the OS thread on
    /// the inbox: the carrier releases its run permit, and it is woken on the
    /// next delivery. A [`RecvError::Quiescent`] verdict means the scheduler
    /// proved the job deadlocked. An unmanaged endpoint (driven by hand,
    /// outside a job launcher) has nothing to wait on: it returns a message
    /// that is already queued and panics on an empty inbox — launch through
    /// `JobBuilder` to block, or poll with [`Endpoint::try_recv`].
    ///
    /// As with [`Endpoint::try_recv`], the clock is not advanced to the
    /// message's arrival; waiting layers synchronise the clock when the
    /// request they are blocked on completes.
    pub fn recv_blocking(&mut self) -> Result<RawMessage, RecvError> {
        self.recv_blocking_hinted(false)
    }

    /// [`Endpoint::recv_blocking`] with a *racy-wait hint* from the layer
    /// above. `racy = true` says the caller expects the traffic it waits for
    /// to already be in flight (e.g. the SDR ack-collection wait that follows
    /// a data exchange): the first pass then *yields* instead of parking —
    /// the process goes Ready (still runnable as far as quiescence is
    /// concerned), rejoins the run queue, and any message delivered meanwhile
    /// coalesces into its lock-free wake token instead of paying the unpark
    /// slow path. For true waits (`racy = false`, e.g. data receives in
    /// compute-dense kernels) the extra yield dispatch cycle is pure latency,
    /// so the process parks directly.
    pub fn recv_blocking_hinted(&mut self, racy: bool) -> Result<RawMessage, RecvError> {
        self.maybe_crash(false);
        let mut tried_yield = !racy;
        loop {
            self.sweep_inbox();
            if let Some(msg) = self.next_ready() {
                self.maybe_crash(false);
                return Ok(msg);
            }
            assert!(
                self.managed,
                "endpoint {} blocked on an empty inbox: blocking needs a scheduler-managed \
                 endpoint (launch through JobBuilder); polling code uses try_recv",
                self.id.0
            );
            self.flush();
            let verdict = if tried_yield {
                self.fabric.sched.park(self.id, self.clock.now())
            } else {
                tried_yield = true;
                self.fabric.sched.yield_now(self.id, self.clock.now())
            };
            match verdict {
                Park::Woken => self.maybe_crash(false),
                Park::Deadlock => return Err(RecvError::Quiescent),
            }
        }
    }

    /// Hint from the progress engine that a poll produced nothing. After
    /// enough consecutive empty polls a managed endpoint cooperatively yields
    /// its run permit, so busy-poll loops (`MPI_Test` spinning) can never
    /// monopolise the scheduler's worker pool.
    ///
    /// Returns `Err(RecvError::Quiescent)` when the scheduler's no-progress
    /// guard parked this process during the yield and the quiescence check
    /// then proved the whole job deadlocked (see
    /// [`crate::sched::YIELD_STREAK_PARK`]).
    pub fn idle_poll(&mut self) -> Result<(), RecvError> {
        if !self.managed {
            return Ok(());
        }
        self.idle_polls += 1;
        if self.idle_polls >= 64 {
            self.idle_polls = 0;
            self.flush();
            if self.fabric.sched.yield_now(self.id, self.clock.now()) == Park::Deadlock {
                return Err(RecvError::Quiescent);
            }
        }
        Ok(())
    }

    /// Hint from the progress engine that a poll made progress; resets the
    /// idle counter that drives [`Endpoint::idle_poll`]'s cooperative yield.
    pub fn busy_poll(&mut self) {
        self.idle_polls = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failure::CrashSchedule;
    use crate::model::LogGpModel;
    use std::time::{Duration, Instant};

    fn two_endpoint_fabric() -> (Endpoint, Endpoint, Arc<Fabric>) {
        let fabric = Fabric::with_defaults(2, LogGpModel::fast_test_model());
        let a = fabric.endpoint(EndpointId(0));
        let b = fabric.endpoint(EndpointId(1));
        (a, b, fabric)
    }

    fn hdr(x: i64) -> [i64; HEADER_WORDS] {
        let mut h = [0; HEADER_WORDS];
        h[0] = x;
        h
    }

    #[test]
    fn send_charges_sender_and_stamps_arrival() {
        let (mut a, mut b, fabric) = two_endpoint_fabric();
        let before = a.now();
        a.send(
            EndpointId(1),
            class::APP,
            hdr(7),
            Bytes::from_static(b"hello"),
        );
        let injected_at = a.now();
        assert!(injected_at > before, "send overhead must be charged");
        let msg = b.recv_blocking().expect("message delivered");
        assert_eq!(msg.header[0], 7);
        assert_eq!(&msg.payload[..], b"hello");
        assert!(msg.arrival > injected_at);
        // Application payloads are charged by the MPI layer at delivery time,
        // so the raw endpoint clock is untouched here.
        assert_eq!(b.now(), SimTime::ZERO);
        assert_eq!(fabric.stats().snapshot().app_msgs(), 1);
    }

    #[test]
    fn try_recv_returns_arrival_stamp_without_jumping_clock() {
        let (mut a, mut b, _f) = two_endpoint_fabric();
        a.send(EndpointId(1), class::APP, hdr(1), Bytes::from_static(b"x"));
        let msg = b
            .try_recv()
            .expect("physically delivered message is returned");
        assert_eq!(msg.header[0], 1);
        // The arrival stamp carries the virtual delivery time; the receiver's
        // clock is only charged the receive overhead, not jumped to the
        // arrival (waiting layers synchronise when a request completes).
        assert!(msg.arrival > SimTime::ZERO);
        assert!(b.now() < msg.arrival);
    }

    #[test]
    fn send_with_floor_delays_injection_stamp() {
        let (mut a, mut b, _f) = two_endpoint_fabric();
        let floor = SimTime::from_micros(3_000);
        a.send_with_floor(EndpointId(1), class::ACK, hdr(9), Bytes::new(), floor);
        let msg = b.recv_blocking().expect("delivered");
        let wire_time = LogGpModel::fast_test_model().wire_time(0, false);
        assert_eq!(
            msg.arrival,
            floor + wire_time,
            "injection stamped at the floor, not at the earlier sender clock"
        );
        // The sender's own clock is not forced forward by the floor.
        assert!(a.now() < floor);
    }

    #[test]
    fn fifo_order_per_sender_in_virtual_time() {
        let (mut a, mut b, _f) = two_endpoint_fabric();
        for i in 0..10 {
            a.send(EndpointId(1), class::APP, hdr(i), Bytes::new());
        }
        let mut got = Vec::new();
        for _ in 0..10 {
            got.push(b.recv_blocking().unwrap().header[0]);
        }
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn earliest_arrival_delivered_first_across_senders() {
        let fabric = Fabric::with_defaults(3, LogGpModel::fast_test_model());
        let mut a = fabric.endpoint(EndpointId(0));
        let mut c = fabric.endpoint(EndpointId(2));
        let mut b = fabric.endpoint(EndpointId(1));
        // c is "late": advance its clock before sending so its message has a
        // later virtual arrival even though it is ingested first.
        c.compute(SimTime::from_micros(10_000));
        c.send(EndpointId(1), class::APP, hdr(2), Bytes::new());
        a.send(EndpointId(1), class::APP, hdr(1), Bytes::new());
        let first = b.recv_blocking().unwrap();
        let second = b.recv_blocking().unwrap();
        assert_eq!(first.header[0], 1, "earlier virtual arrival first");
        assert_eq!(second.header[0], 2);
    }

    #[test]
    fn one_sweep_of_an_inversion_pops_in_arrival_order() {
        // A late-clock sender ingests first, so one sweep sees the
        // big-arrival message before the small-arrival one behind it: the
        // small one must still pop first.
        let fabric = Fabric::with_defaults(3, LogGpModel::fast_test_model());
        let mut a = fabric.endpoint(EndpointId(0));
        let mut c = fabric.endpoint(EndpointId(2));
        let mut b = fabric.endpoint(EndpointId(1));
        a.compute(SimTime::from_micros(10_000));
        a.send(EndpointId(1), class::APP, hdr(2), Bytes::new());
        c.send(EndpointId(1), class::APP, hdr(1), Bytes::new());
        // One sweep ingests both.
        assert!(b.has_pending());
        let first = b.recv_blocking().unwrap();
        let second = b.recv_blocking().unwrap();
        assert_eq!(first.header[0], 1, "pop order is virtual-arrival order");
        assert_eq!(second.header[0], 2);
    }

    #[test]
    fn monotonic_arrivals_pop_in_ingest_order() {
        let (mut a, mut b, _f) = two_endpoint_fabric();
        for i in 0..20 {
            a.send(EndpointId(1), class::APP, hdr(i), Bytes::new());
        }
        // One sweep ingests all twenty.
        assert!(b.has_pending());
        let got: Vec<_> = (0..20)
            .map(|_| b.recv_blocking().unwrap().header[0])
            .collect();
        assert_eq!(got, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn equal_arrivals_pop_in_ingest_order() {
        // Two senders with identical clocks and message sizes produce equal
        // arrival stamps; the stable sort must pop them in physical
        // ingest order, reproducing the channel-era FIFO semantics.
        let fabric = Fabric::with_defaults(3, LogGpModel::fast_test_model());
        let mut a = fabric.endpoint(EndpointId(0));
        let mut c = fabric.endpoint(EndpointId(2));
        let mut b = fabric.endpoint(EndpointId(1));
        c.send(EndpointId(1), class::APP, hdr(20), Bytes::new());
        a.send(EndpointId(1), class::APP, hdr(10), Bytes::new());
        let first = b.recv_blocking().unwrap();
        let second = b.recv_blocking().unwrap();
        assert_eq!(first.arrival, second.arrival, "test needs an arrival tie");
        assert_eq!(first.header[0], 20, "ingest order breaks the tie");
        assert_eq!(second.header[0], 10);
    }

    #[test]
    fn larger_messages_arrive_later() {
        let (mut a, _b, _f) = two_endpoint_fabric();
        let mut arrivals = Vec::new();
        for size in [1usize, 1024, 1 << 20] {
            let payload = Bytes::from(vec![0u8; size]);
            let before = a.now();
            a.send(EndpointId(1), class::APP, hdr(0), payload);
            arrivals.push(a.now() - before);
        }
        // send overhead is flat until the rendezvous threshold, but the wire
        // time (and hence arrival) grows; verify via a second fabric where we
        // inspect the arrival stamps directly.
        let fabric = Fabric::with_defaults(2, LogGpModel::fast_test_model());
        let mut s = fabric.endpoint(EndpointId(0));
        let mut r = fabric.endpoint(EndpointId(1));
        s.send(EndpointId(1), class::APP, hdr(0), Bytes::from(vec![0u8; 1]));
        let injected_1 = s.now();
        s.send(
            EndpointId(1),
            class::APP,
            hdr(1),
            Bytes::from(vec![0u8; 1 << 20]),
        );
        let injected_2 = s.now();
        let m1 = r.recv_blocking().unwrap();
        let m2 = r.recv_blocking().unwrap();
        assert!(m2.arrival - injected_2 > m1.arrival - injected_1);
    }

    #[test]
    fn endpoint_taken_once() {
        let fabric = Fabric::with_defaults(1, LogGpModel::fast_test_model());
        let _a = fabric.endpoint(EndpointId(0));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _again = fabric.endpoint(EndpointId(0));
        }));
        assert!(result.is_err());
    }

    #[test]
    fn crash_schedule_unwinds_with_signal() {
        let fabric = Fabric::with_defaults(2, LogGpModel::fast_test_model());
        let mut a = fabric.endpoint(EndpointId(0));
        a.schedule_crash(CrashSchedule::AfterSend { nth: 2 });
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for i in 0..5 {
                a.send(EndpointId(1), class::APP, hdr(i), Bytes::new());
            }
        }));
        let err = result.expect_err("process must crash");
        let sig = err
            .downcast_ref::<CrashSignal>()
            .expect("panic payload is a CrashSignal");
        assert_eq!(sig.endpoint, EndpointId(0));
        // Exactly 2 application messages were handed to the fabric before the
        // crash; they remain deliverable, next to the crash notification,
        // which names the failed endpoint and arrives at the crash time.
        assert_eq!(fabric.stats().snapshot().app_msgs(), 2);
        let mut b = fabric.endpoint(EndpointId(1));
        let mut classes: Vec<u8> = (0..3)
            .map(|_| b.try_recv().unwrap())
            .map(|m| {
                if m.class == class::SYSTEM {
                    assert_eq!((m.src, m.header[0], m.arrival), (EndpointId(0), 0, sig.at));
                }
                m.class
            })
            .collect();
        classes.sort();
        assert_eq!(classes, [class::APP, class::APP, class::SYSTEM]);
        assert!(b.try_recv().is_none());
    }

    #[test]
    fn non_app_classes_do_not_count_as_app_sends() {
        // A crash due before the `nth` application send fires neither on an
        // ack nor on control traffic sent first, only on that APP send.
        for nth in [1, 2] {
            let (mut a, _b, fabric) = two_endpoint_fabric();
            a.schedule_crash(CrashSchedule::BeforeSend { nth });
            a.send(EndpointId(1), class::ACK, hdr(0), Bytes::new());
            a.send(EndpointId(1), class::CONTROL, hdr(0), Bytes::new());
            for _ in 1..nth {
                a.send(EndpointId(1), class::APP, hdr(0), Bytes::new());
            }
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                a.send(EndpointId(1), class::APP, hdr(0), Bytes::new());
            }));
            let err = result.expect_err("the APP send crashes");
            assert!(err.downcast_ref::<CrashSignal>().is_some());
            assert_eq!(fabric.stats().snapshot().app_msgs(), nth - 1);
        }
    }

    #[test]
    fn only_a_self_send_pays_intra_node_costs() {
        // Every process is its own node: endpoint 0's send to itself is the
        // only intra-node message, its sends to 1 and 2 are inter-node.
        let model = LogGpModel::infiniband_20g();
        let fabric = Fabric::with_defaults(3, model);
        let mut p0 = fabric.endpoint(EndpointId(0));
        let mut p1 = fabric.endpoint(EndpointId(1));
        let mut p2 = fabric.endpoint(EndpointId(2));
        let payload = Bytes::from(vec![0u8; 1024]);
        let mut before = p0.now();
        let mut injected = Vec::new();
        for dst in 0..3 {
            p0.send(EndpointId(dst), class::APP, hdr(0), payload.clone());
            let intra = dst == 0;
            assert_eq!(
                p0.now() - before,
                model.send_overhead(1024, intra),
                "send overhead to {dst}"
            );
            before = p0.now();
            injected.push(before);
        }
        for ((msg, intra), injected_at) in [
            (p0.recv_blocking().unwrap(), true),
            (p1.recv_blocking().unwrap(), false),
            (p2.recv_blocking().unwrap(), false),
        ]
        .into_iter()
        .zip(injected)
        {
            assert_eq!(msg.arrival - injected_at, model.wire_time(1024, intra));
        }
    }

    #[test]
    fn managed_recv_parks_and_wakes_on_delivery() {
        let fabric = Fabric::with_defaults(2, LogGpModel::fast_test_model());
        fabric.scheduler().register(EndpointId(0));
        fabric.scheduler().register(EndpointId(1));
        let f2 = Arc::clone(&fabric);
        let receiver = std::thread::spawn(move || {
            f2.scheduler().start(EndpointId(0));
            let mut a = f2.endpoint(EndpointId(0));
            let got = a.recv_blocking();
            drop(a);
            f2.scheduler().finish(EndpointId(0));
            got
        });
        let f3 = Arc::clone(&fabric);
        let sender = std::thread::spawn(move || {
            f3.scheduler().start(EndpointId(1));
            let mut b = f3.endpoint(EndpointId(1));
            std::thread::sleep(Duration::from_millis(10));
            b.send(EndpointId(0), class::APP, hdr(42), Bytes::new());
            drop(b);
            f3.scheduler().finish(EndpointId(1));
        });
        let msg = receiver.join().unwrap().expect("delivered via park/unpark");
        assert_eq!(msg.header[0], 42);
        sender.join().unwrap();
    }

    #[test]
    fn managed_recv_reports_quiescence_without_real_time_timeout() {
        // One managed process waiting forever: the quiescence check must
        // declare the deadlock immediately; no real-time clock is involved.
        let fabric = Fabric::with_defaults(1, LogGpModel::fast_test_model());
        fabric.scheduler().register(EndpointId(0));
        let f2 = Arc::clone(&fabric);
        let started = Instant::now();
        let h = std::thread::spawn(move || {
            f2.scheduler().start(EndpointId(0));
            let mut a = f2.endpoint(EndpointId(0));
            let got = a.recv_blocking();
            drop(a);
            f2.scheduler().finish(EndpointId(0));
            got
        });
        assert_eq!(h.join().unwrap().unwrap_err(), RecvError::Quiescent);
        assert!(started.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn runs_alone_means_managed_and_holding_the_only_permit() {
        let bare = Fabric::with_defaults(1, LogGpModel::fast_test_model());
        assert!(
            !bare.endpoint(EndpointId(0)).runs_alone(),
            "an unmanaged endpoint's peers run where the scheduler cannot see"
        );

        let fabric = Fabric::with_defaults(2, LogGpModel::fast_test_model());
        let sched = fabric.scheduler();
        sched.set_workers(2);
        // Each registration is granted an idle permit on the spot, so the
        // `start` calls return at once and one thread can play both.
        sched.register(EndpointId(0));
        sched.start(EndpointId(0));
        let a = fabric.endpoint(EndpointId(0));
        assert!(a.runs_alone(), "sole permit, pool of two");
        sched.register(EndpointId(1));
        sched.start(EndpointId(1));
        assert_eq!(sched.running(), 2);
        assert!(!a.runs_alone(), "a second process holds a permit");
        sched.finish(EndpointId(1));
        assert!(a.runs_alone(), "the second permit was released");
        sched.finish(EndpointId(0));
    }

    #[test]
    fn send_to_dead_endpoint_is_silently_kept_in_its_inbox() {
        let fabric = Fabric::with_defaults(2, LogGpModel::fast_test_model());
        let mut a = fabric.endpoint(EndpointId(0));
        {
            let _b = fabric.endpoint(EndpointId(1));
            // b dropped here: nobody reads the inbox any more.
        }
        a.send(
            EndpointId(1),
            class::APP,
            hdr(0),
            Bytes::from_static(b"kept"),
        );
        // No panic, and the stats still count the attempt.
        assert_eq!(fabric.stats().snapshot().app_msgs(), 1);
    }

    #[test]
    fn batch_drain_pops_everything_after_one_sweep() {
        let (mut a, mut b, _f) = two_endpoint_fabric();
        for i in 0..5 {
            a.send(EndpointId(1), class::APP, hdr(i), Bytes::new());
        }
        b.poll_ready();
        let mut got = Vec::new();
        while let Some(msg) = b.next_ready() {
            got.push(msg.header[0]);
        }
        assert_eq!(got, (0..5).collect::<Vec<_>>());
        assert!(b.next_ready().is_none());
    }

    #[test]
    fn wake_counters_track_issued_and_suppressed() {
        // Unmanaged immediate deliveries to an unmanaged peer: every wake is
        // Ignored (counted as suppressed — no run-queue lock contention).
        let (mut a, mut b, fabric) = two_endpoint_fabric();
        for i in 0..4 {
            a.send(EndpointId(1), class::APP, hdr(i), Bytes::new());
        }
        let snap = fabric.stats().snapshot();
        assert_eq!(snap.wakes_issued() + snap.wakes_suppressed(), 4);
        assert_eq!(snap.wakes_issued(), 0, "unmanaged targets never unpark");
        for _ in 0..4 {
            b.recv_blocking().unwrap();
        }
    }

    fn uniform_fault(drop: u32, dup: u32, delay: u32, delay_ns: u64) -> NetFaultConfig {
        NetFaultConfig {
            drop_per_64k: drop,
            dup_per_64k: dup,
            delay_per_64k: delay,
            delay_ns,
            ack_only: false,
        }
    }

    #[test]
    fn duplicate_policy_copies_never_reach_the_receiver_twice() {
        let fabric = Fabric::with_defaults(2, LogGpModel::fast_test_model());
        fabric.install_net_faults(uniform_fault(0, 65_536, 0, 0), 11);
        let mut a = fabric.endpoint(EndpointId(0));
        let mut b = fabric.endpoint(EndpointId(1));
        for i in 0..10 {
            a.send(EndpointId(1), class::APP, hdr(i), Bytes::new());
        }
        let mut got = Vec::new();
        for _ in 0..10 {
            got.push(b.recv_blocking().unwrap().header[0]);
        }
        assert_eq!(got, (0..10).collect::<Vec<_>>(), "exactly-once, in order");
        assert!(!b.has_pending(), "no duplicate frame reaches the receiver");
        let snap = fabric.stats().snapshot();
        assert_eq!(snap.msgs_duplicated(), 10);
        assert_eq!(
            snap.dups_suppressed(),
            snap.msgs_duplicated(),
            "every duplicate verdict is suppressed"
        );
    }

    #[test]
    fn drop_policy_drops_faultable_classes_but_not_exempt_ones() {
        let fabric = Fabric::with_defaults(2, LogGpModel::fast_test_model());
        fabric.install_net_faults(uniform_fault(65_536, 0, 0, 0), 5);
        let mut a = fabric.endpoint(EndpointId(0));
        let mut b = fabric.endpoint(EndpointId(1));
        a.send(EndpointId(1), class::APP, hdr(1), Bytes::new());
        a.send(EndpointId(1), class::ACK, hdr(2), Bytes::new());
        a.send(EndpointId(1), class::CONTROL, hdr(3), Bytes::new());
        let msg = b.try_recv().expect("control traffic is exempt");
        assert_eq!(msg.header[0], 3);
        assert!(b.try_recv().is_none(), "app and ack frames were dropped");
        assert_eq!(fabric.stats().snapshot().msgs_dropped(), 2);
    }

    #[test]
    fn delay_policy_pushes_arrivals_and_keeps_link_fifo() {
        let fabric = Fabric::with_defaults(2, LogGpModel::fast_test_model());
        fabric.install_net_faults(uniform_fault(0, 0, 65_536, 1_000_000), 3);
        let mut a = fabric.endpoint(EndpointId(0));
        let mut b = fabric.endpoint(EndpointId(1));
        for i in 0..5 {
            a.send(EndpointId(1), class::APP, hdr(i), Bytes::new());
        }
        let mut last = SimTime::ZERO;
        for i in 0..5 {
            let msg = b.recv_blocking().unwrap();
            assert_eq!(msg.header[0], i, "delays must not reorder a link");
            assert!(
                msg.arrival >= SimTime::from_micros(1_000),
                "arrival was pushed"
            );
            assert!(msg.arrival >= last);
            last = msg.arrival;
        }
        assert_eq!(fabric.stats().snapshot().msgs_delayed(), 5);
    }

    #[test]
    fn a_duplicate_verdict_is_counted_where_it_is_drawn() {
        let fabric = Fabric::with_defaults(2, LogGpModel::fast_test_model());
        fabric.install_net_faults(uniform_fault(0, 65_536, 0, 0), 7);
        let mut a = fabric.endpoint(EndpointId(0));
        a.send(EndpointId(1), class::APP, hdr(0), Bytes::new());
        // The receiver has not swept yet (it may exit or crash before it
        // does): the verdict is already paired with its suppression.
        let snap = fabric.stats().snapshot();
        assert_eq!(snap.msgs_duplicated(), 1);
        assert_eq!(snap.dups_suppressed(), 1);
        let mut b = fabric.endpoint(EndpointId(1));
        assert!(b.recv_blocking().is_ok(), "the real frame is delivered");
        assert!(!b.has_pending(), "and no copy of it");
        let snap = fabric.stats().snapshot();
        assert_eq!((snap.msgs_duplicated(), snap.dups_suppressed()), (1, 1));
    }

    #[test]
    fn a_frame_is_128_bytes() {
        // On x86-64 a move of more than 128 bytes compiles to a `memcpy`
        // call. Every frame is moved into a mailbox, out of the sorted batch
        // and up to the PML; at 144 bytes those calls were 2.9 % of the
        // SIGPROF samples of a message-bound run. Keep the frame at 128.
        assert_eq!(std::mem::size_of::<RawMessage>(), 128);
    }

    #[test]
    fn policy_verdicts_are_identical_across_runs() {
        let run = || {
            let fabric = Fabric::with_defaults(2, LogGpModel::fast_test_model());
            fabric.install_net_faults(uniform_fault(20_000, 20_000, 20_000, 1_000), 99);
            let mut a = fabric.endpoint(EndpointId(0));
            let mut b = fabric.endpoint(EndpointId(1));
            for i in 0..64 {
                a.send(EndpointId(1), class::APP, hdr(i), Bytes::new());
            }
            let mut got = Vec::new();
            while let Some(msg) = b.try_recv() {
                got.push((msg.header[0], msg.arrival));
            }
            let snap = fabric.stats().snapshot();
            (
                got,
                snap.msgs_dropped(),
                snap.msgs_duplicated(),
                snap.msgs_delayed(),
            )
        };
        assert_eq!(
            run(),
            run(),
            "seeded fault routing must replay bit-identically"
        );
    }
}
