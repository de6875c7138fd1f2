//! The reliable delivery plane: a kernel-level sliding-window ARQ
//! between the [`ExecModel`] round loop and the [`Adversary`]-faulted
//! network.
//!
//! ARQ is one of the kernel's delivery planes, selected by
//! [`RunConfig::reliability`](crate::RunConfig::reliability) and layered
//! over the run's adversary. Every application message rides a per-link
//! (sender → receiver) **sequence number**; receivers accept frames in
//! order (buffering out-of-order arrivals), flag a **cumulative ack**
//! back to the sender, and senders **retransmit** frames unacknowledged
//! for
//! [`ReliabilitySpec::ack_timeout_rounds`] kernel ticks, up to
//! [`ReliabilitySpec::max_retries`] times — after which the link is
//! declared **dead** and its traffic abandoned.
//!
//! # Ticks vs. application rounds
//!
//! The plane decouples the **kernel tick** (the unit the adversary,
//! the round budget, the metrics, and the probe plane are clocked on)
//! from the **application round** (the `round` the actors observe). A
//! global barrier advances the application clock only when every frame
//! of the previous application round has been accepted or abandoned,
//! so under any adversary that kills no link the actors see exactly
//! the clean run's inboxes in exactly the clean run's order — outputs
//! are **bit-identical** to the clean executors, and the entire price
//! of the faults is paid in ticks (rounds stretch), retransmissions,
//! and ack traffic. Dead links degrade delivery like permanent drops;
//! phase-level timeouts in the algorithm layer (see
//! [`ReliabilitySpec::phase_timeout_slack`]) bound the damage.
//!
//! # Accounting
//!
//! The model charges each logical send once at `step` time, exactly
//! like the clean engines (first transmission, payload lane). The
//! plane additionally charges, per actual transmission: the
//! fixed-width control lane ([`ExecModel::arq_header_charge`]) on
//! every data copy, full payload + header for every retransmission and
//! duplicated copy, and [`ExecModel::arq_ack_charge`] per ack frame.
//! Congestion accounting therefore reflects what actually traversed
//! each link, retransmits included. The per-payload peak
//! (`RoundProfile::peak_link`) stays on the payload lane: control
//! words ride beside the payload, not inside the bandwidth budget.
//!
//! # Determinism
//!
//! All ARQ state lives on the driving thread in deterministic
//! containers (`BTreeMap`/`BTreeSet`), frames are ingested in shard
//! order (ascending sender order, the sequential delivery order), and
//! adversary verdicts are pure functions of `(tick, sender, transmit
//! index)` — so outputs, metrics, and errors are bit-identical at
//! every thread count, and replay from `(seed, FaultSpec,
//! ReliabilitySpec)` is exact.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::fault::{crash_table, halt_due, Adversary, Fate, FaultStats};
use crate::kernel::{Plane, Route, Store};
use crate::{ActorId, ExecModel, MsgSink, RoundProfile};

/// Knobs of the reliable delivery plane, consumed via
/// [`RunConfig::reliability`](crate::RunConfig::reliability).
///
/// ```
/// use pga_runtime::ReliabilitySpec;
///
/// let spec = ReliabilitySpec::arq().with_phase_timeouts(2);
/// assert_eq!(spec.window, 32);
/// assert_eq!(spec.ack_timeout_rounds, 2);
/// assert_eq!(spec.phase_timeout_slack, 2);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ReliabilitySpec {
    /// Per-link sliding-window size: how many frames may be
    /// unacknowledged on one (sender, receiver) link before further
    /// frames queue at the sender.
    pub window: u32,
    /// Retransmit a frame unacknowledged for this many kernel ticks.
    /// The clean round trip is exactly 2 ticks (data out, ack back),
    /// so the default of 2 retransmits as early as possible without
    /// spurious copies on a fault-free link.
    pub ack_timeout_rounds: u32,
    /// Give up on a frame after this many retransmissions and declare
    /// the link **dead**: all of its queued and future traffic is
    /// abandoned, [`FaultStats::dead_links`] is incremented, and the
    /// application-level phase timeouts are the remaining safety net.
    pub max_retries: u32,
    /// Multiplier on the algorithms' clean-run round bounds that arms
    /// **phase-level timeouts** in the pipeline layer; `0` (default)
    /// leaves phases waiting forever. The kernel never reads this —
    /// pipelines consult it via
    /// [`ReliabilitySpec::phase_deadline`] when constructing their
    /// actors.
    pub phase_timeout_slack: u32,
}

impl Default for ReliabilitySpec {
    fn default() -> Self {
        ReliabilitySpec {
            window: 32,
            ack_timeout_rounds: 2,
            max_retries: 16,
            phase_timeout_slack: 0,
        }
    }
}

impl ReliabilitySpec {
    /// The default ARQ plan: window 32, retransmit after 2 ticks, give
    /// up (dead link) after 16 retries, no phase timeouts.
    pub fn arq() -> Self {
        Self::default()
    }

    /// Sets the sliding-window size.
    pub fn with_window(mut self, window: u32) -> Self {
        self.window = window.max(1);
        self
    }

    /// Sets the ack timeout in kernel ticks.
    pub fn with_ack_timeout(mut self, ticks: u32) -> Self {
        self.ack_timeout_rounds = ticks.max(1);
        self
    }

    /// Sets the retry budget before a link is declared dead.
    pub fn with_max_retries(mut self, retries: u32) -> Self {
        self.max_retries = retries;
        self
    }

    /// Arms phase-level timeouts with the given slack multiplier on
    /// each phase's clean-run round bound.
    pub fn with_phase_timeouts(mut self, slack: u32) -> Self {
        self.phase_timeout_slack = slack;
        self
    }

    /// The application-round deadline for a phase whose clean run is
    /// bounded by `clean_bound` rounds, or `None` when phase timeouts
    /// are not armed.
    pub fn phase_deadline(&self, clean_bound: usize) -> Option<usize> {
        (self.phase_timeout_slack > 0)
            .then(|| clean_bound.saturating_mul(self.phase_timeout_slack as usize))
    }
}

/// One unacknowledged frame at a sender.
struct Frame<M: ExecModel> {
    seq: u64,
    msg: M::Msg,
    last_tx: usize,
    retries: u32,
}

/// Per-(sender, receiver) link state: the sender's window on the left,
/// the receiver's in-order acceptance cursor on the right. Everything
/// lives on the driving thread.
struct LinkState<M: ExecModel> {
    /// Sender: next fresh sequence number.
    next_seq: u64,
    /// Sender: frames accepted by the app but waiting for window room.
    queued: VecDeque<(u64, M::Msg)>,
    /// Sender: transmitted frames awaiting acknowledgment.
    unacked: VecDeque<Frame<M>>,
    /// Receiver: next in-order sequence number to accept.
    expected: u64,
    /// Receiver: out-of-order arrivals buffered until the gap fills.
    reorder: BTreeMap<u64, M::Msg>,
    /// Declared dead (retry budget exhausted, or an endpoint crashed):
    /// all traffic is abandoned and arrivals are discarded.
    dead: bool,
}

impl<M: ExecModel> LinkState<M> {
    fn new() -> Self {
        LinkState {
            next_seq: 0,
            queued: VecDeque::new(),
            unacked: VecDeque::new(),
            expected: 0,
            reorder: BTreeMap::new(),
            dead: false,
        }
    }

    /// Abandons every frame this link still owes the application and
    /// returns how many of them counted against the global barrier.
    fn kill(&mut self) -> u64 {
        self.dead = true;
        let mut abandoned = 0u64;
        for f in self.unacked.drain(..) {
            // An unacked frame holds the barrier unless the receiver
            // already accepted it (its ack was lost in flight).
            if f.seq >= self.expected && !self.reorder.contains_key(&f.seq) {
                abandoned += 1;
            }
        }
        abandoned += self.reorder.len() as u64;
        self.reorder.clear();
        abandoned += self.queued.len() as u64;
        self.queued.clear();
        abandoned
    }
}

/// A copy in flight: delivered when the tick clock reaches `arrive`.
struct InFlight<M: ExecModel> {
    arrive: usize,
    from: u32,
    to: u32,
    payload: Payload<M>,
}

enum Payload<M: ExecModel> {
    Data {
        from_id: M::Id,
        seq: u64,
        msg: M::Msg,
    },
    /// Cumulative: every data seq `< cum` on the `from → to`-reversed
    /// link is acknowledged.
    Ack { cum: u64 },
}

/// Rolls the adversary for one transmission and places the surviving
/// copies on the wire. Returns the number of copies. A free function
/// over the disjoint [`ArqPlane`] fields so the link pump can call it
/// while iterating the link table.
#[allow(clippy::too_many_arguments)]
fn transmit<M: ExecModel>(
    wire: &mut Vec<InFlight<M>>,
    stats: &mut FaultStats,
    adversary: &dyn Adversary,
    tick: usize,
    tx_seq: &mut [u32],
    from: u32,
    to: u32,
    payload: Payload<M>,
) -> u32 {
    let k = tx_seq[from as usize];
    tx_seq[from as usize] += 1;
    let (arrive, copies) = match adversary.fate(tick as u32, from, k) {
        Fate::Drop => {
            stats.dropped += 1;
            return 0;
        }
        Fate::Deliver => (tick + 1, 1),
        Fate::Duplicate => {
            stats.duplicated += 1;
            (tick + 1, 2)
        }
        Fate::Delay(d) => {
            stats.delayed += 1;
            (tick + 1 + d.max(1) as usize, 1)
        }
    };
    if copies == 2 {
        let copy = match &payload {
            Payload::Data { from_id, seq, msg } => Payload::Data {
                from_id: *from_id,
                seq: *seq,
                msg: msg.clone(),
            },
            Payload::Ack { cum } => Payload::Ack { cum: *cum },
        };
        wire.push(InFlight {
            arrive,
            from,
            to,
            payload: copy,
        });
    }
    wire.push(InFlight {
        arrive,
        from,
        to,
        payload,
    });
    copies
}

/// The ARQ plane's routing half: every send is captured, in outbox
/// order, for the driving thread's link pump.
pub(crate) struct Capture;

impl<M: ExecModel> Route<M> for Capture
where
    M::Msg: Send,
{
    type Shard = Vec<(u32, M::Id, M::Msg)>;

    #[inline]
    fn route<S: MsgSink<M>>(
        &self,
        out: &mut Self::Shard,
        _base: &mut S,
        _model: &M,
        _round: u32,
        to: M::Id,
        from: M::Id,
        msg: M::Msg,
    ) -> u32 {
        out.push((to.index() as u32, from, msg));
        1
    }
}

/// The ARQ delivery plane (driving thread only): links, the faulted
/// wire, and the barrier. `begin` delivers the tick's arrivals and
/// opens the barrier when no frame is outstanding, releasing the
/// accepted mail into the store; `settle` ingests the step phase's
/// captured sends and pumps every link.
pub(crate) struct ArqPlane<'a, M: ExecModel> {
    spec: ReliabilitySpec,
    header: u64,
    ack_charge: u64,
    adversary: &'a dyn Adversary,
    crash: Vec<Option<u32>>,
    crashed: Vec<bool>,
    /// Directional link table, keyed `(sender index, receiver index)`.
    links: BTreeMap<(u32, u32), LinkState<M>>,
    /// Copies in flight on the faulted network.
    wire: Vec<InFlight<M>>,
    /// Receivers owing a cumulative ack, keyed
    /// `(receiver index, sender index)`.
    ack_pending: BTreeSet<(u32, u32)>,
    /// Frames sent by the application and not yet accepted or
    /// abandoned — the global barrier is open iff this is zero.
    outstanding: u64,
    /// Transmitted frames awaiting acknowledgment, across all links.
    unacked_total: u64,
    stats: FaultStats,
    /// Per-sender transmit index within the tick (the adversary's
    /// `seq` coordinate).
    tx_seq: Vec<u32>,
    /// Accepted mail waiting for the barrier, in acceptance order.
    staging: Vec<(u32, M::Id, M::Msg)>,
    /// Frames accepted at the start of this tick.
    delivered_now: u64,
}

impl<'a, M: ExecModel> ArqPlane<'a, M> {
    pub(crate) fn new(
        model: &M,
        n: usize,
        spec: ReliabilitySpec,
        adversary: &'a dyn Adversary,
    ) -> Self {
        ArqPlane {
            spec,
            header: model.arq_header_charge(),
            ack_charge: model.arq_ack_charge(),
            adversary,
            crash: crash_table(adversary, n),
            crashed: vec![false; n],
            links: BTreeMap::new(),
            wire: Vec::new(),
            ack_pending: BTreeSet::new(),
            outstanding: 0,
            unacked_total: 0,
            stats: FaultStats::default(),
            tx_seq: vec![0; n],
            staging: Vec::new(),
            delivered_now: 0,
        }
    }
}

impl<'a, M: ExecModel> Plane<M> for ArqPlane<'a, M>
where
    M::Msg: Send,
{
    type Route = Capture;
    const HOLDS: bool = true;

    fn begin<S: Store<M>>(
        &mut self,
        model: &M,
        tick: usize,
        store: &mut S,
        recv: &mut [usize],
    ) -> bool {
        // Crash activation (tick clock): sever the victim's links.
        let mut fired = false;
        let (links, stats, outstanding) = (&mut self.links, &mut self.stats, &mut self.outstanding);
        halt_due(&self.crash, &mut self.crashed, tick, |i| {
            fired = true;
            stats.crashed += 1;
            store.halt(i);
            let v = i as u32;
            for (&(a, b), link) in links.iter_mut() {
                if (a == v || b == v) && !link.dead {
                    *outstanding -= link.kill();
                }
            }
        });
        // `kill` drains unacked wholesale, so recompute the global tally
        // from the surviving links when a crash fired. (The dead-link
        // path in the pump adjusts incrementally.)
        if fired {
            self.unacked_total = self.links.values().map(|l| l.unacked.len() as u64).sum();
        }

        // Wire delivery: copies transmitted earlier whose arrival tick
        // is now.
        self.delivered_now = 0;
        let mut i = 0;
        while i < self.wire.len() {
            if self.wire[i].arrive != tick {
                i += 1;
                continue;
            }
            let InFlight {
                from, to, payload, ..
            } = self.wire.swap_remove(i);
            match payload {
                Payload::Data { from_id, seq, msg } => {
                    let link = self
                        .links
                        .entry((from, to))
                        .or_insert_with(LinkState::<M>::new);
                    if link.dead || self.crashed[to as usize] {
                        self.stats.dropped += 1;
                        continue;
                    }
                    if seq < link.expected || link.reorder.contains_key(&seq) {
                        // Stale or duplicate copy: the cumulative ack
                        // was lost — re-flag it.
                        self.ack_pending.insert((to, from));
                        continue;
                    }
                    link.reorder.insert(seq, msg);
                    while let Some(m) = link.reorder.remove(&link.expected) {
                        if M::TRACK_RECV {
                            recv[to as usize] += model.recv_charge(&m);
                        }
                        self.staging.push((to, from_id, m));
                        link.expected += 1;
                        self.outstanding -= 1;
                        self.delivered_now += 1;
                    }
                    self.ack_pending.insert((to, from));
                }
                Payload::Ack { cum } => {
                    // Ack for the reversed link: `from` here is the
                    // receiver acknowledging `to`'s data.
                    if let Some(link) = self.links.get_mut(&(to, from)) {
                        while link.unacked.front().is_some_and(|f| f.seq < cum) {
                            link.unacked.pop_front();
                            self.unacked_total -= 1;
                        }
                    }
                }
            }
        }

        // Barrier: the application clock advances only when every frame
        // of the previous application round is resolved. Acceptance
        // order can interleave senders across ticks; the stable sort by
        // (receiver, sender) restores the clean inbox order (per-link
        // frames are already in send order).
        let open = self.outstanding == 0;
        if open && !self.staging.is_empty() {
            let mut mail = std::mem::take(&mut self.staging);
            mail.sort_by_key(|&(to, from, _)| (to, from.index()));
            store.load(model, mail);
        }
        open
    }

    fn idle(&self) -> bool {
        self.wire.is_empty() && self.unacked_total == 0 && self.ack_pending.is_empty()
    }

    fn settle<S: Store<M>>(
        &mut self,
        model: &M,
        tick: usize,
        shards: &mut [Vec<(u32, M::Id, M::Msg)>],
        _store: &mut S,
        _recv: &mut [usize],
        acc: &mut RoundProfile,
    ) -> u64 {
        let window = self.spec.window.max(1) as usize;
        let ack_timeout = self.spec.ack_timeout_rounds.max(1) as usize;
        let (header, ack_charge, adversary) = (self.header, self.ack_charge, self.adversary);
        // Ingest fresh sends in shard order — ascending sender order.
        self.tx_seq.fill(0);
        for (to, from_id, msg) in shards.iter_mut().flat_map(|out| out.drain(..)) {
            let from = from_id.index() as u32;
            let link = self
                .links
                .entry((from, to))
                .or_insert_with(LinkState::<M>::new);
            if link.dead || self.crashed[to as usize] {
                // Permanent loss: the frame is charged (it left the
                // sender) but never traverses.
                self.stats.dropped += 1;
                continue;
            }
            let seq = link.next_seq;
            link.next_seq += 1;
            link.queued.push_back((seq, msg));
            self.outstanding += 1;
        }
        // Pump: retransmit due frames, declare dead links, then open
        // the window for fresh frames — in deterministic link order.
        for (&(from, to), link) in self.links.iter_mut() {
            if link.dead {
                continue;
            }
            let mut give_up = false;
            for f in link.unacked.iter_mut() {
                if tick - f.last_tx < ack_timeout {
                    continue;
                }
                if f.retries >= self.spec.max_retries {
                    give_up = true;
                    break;
                }
                f.retries += 1;
                f.last_tx = tick;
                self.stats.retransmitted += 1;
                let wire_cost = model.wire_charge(&f.msg);
                let copies = transmit(
                    &mut self.wire,
                    &mut self.stats,
                    adversary,
                    tick,
                    &mut self.tx_seq,
                    from,
                    to,
                    Payload::Data {
                        from_id: M::Id::from_index(from as usize),
                        seq: f.seq,
                        msg: f.msg.clone(),
                    },
                );
                acc.messages += 1 + u64::from(copies.saturating_sub(1));
                acc.volume += u64::from(copies.max(1)) * (wire_cost + header);
                acc.observe_size(wire_cost, copies.max(1));
            }
            if give_up {
                let before_unacked = link.unacked.len() as u64;
                let abandoned = link.kill();
                self.outstanding -= abandoned;
                self.unacked_total -= before_unacked;
                self.stats.dead_links += 1;
                continue;
            }
            while link.unacked.len() < window {
                let Some((seq, msg)) = link.queued.pop_front() else {
                    break;
                };
                let wire_cost = model.wire_charge(&msg);
                let copies = transmit(
                    &mut self.wire,
                    &mut self.stats,
                    adversary,
                    tick,
                    &mut self.tx_seq,
                    from,
                    to,
                    Payload::Data {
                        from_id: M::Id::from_index(from as usize),
                        seq,
                        msg: msg.clone(),
                    },
                );
                // The model charged this frame's payload at step time;
                // the plane adds the control lane and any extra
                // adversary copy.
                acc.volume += u64::from(copies.max(1)) * header;
                if copies > 1 {
                    acc.messages += u64::from(copies - 1);
                    acc.volume += u64::from(copies - 1) * wire_cost;
                    acc.observe_size(wire_cost, copies - 1);
                }
                link.unacked.push_back(Frame {
                    seq,
                    msg,
                    last_tx: tick,
                    retries: 0,
                });
                self.unacked_total += 1;
            }
        }
        // Acks: one cumulative control frame per flagged (receiver,
        // sender) pair, in deterministic order.
        for (to, from) in std::mem::take(&mut self.ack_pending) {
            // `to` acknowledges data it received from `from` — the ack
            // travels to → from.
            let cum = self.links.get(&(from, to)).map_or(0, |l| l.expected);
            self.stats.acks += 1;
            let copies = transmit(
                &mut self.wire,
                &mut self.stats,
                adversary,
                tick,
                &mut self.tx_seq,
                to,
                from,
                Payload::Ack { cum },
            );
            acc.messages += 1;
            acc.volume += u64::from(copies.max(1)) * ack_charge;
        }
        self.delivered_now
    }

    fn stats(&self) -> FaultStats {
        self.stats
    }

    fn depth(&self) -> usize {
        self.wire.len()
    }
}
