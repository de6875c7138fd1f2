//! The adversarial execution plane: seeded fault injection with
//! deterministic replay.
//!
//! The adversary is one of the kernel's delivery planes (selected by
//! [`RunConfig::fault`](crate::RunConfig::fault), or given explicitly
//! to [`execute_under`](crate::execute_under)). It routes every
//! validated message through an [`Adversary`] that may **drop**,
//! **duplicate**, or **delay** it, and halts actors at adversary-chosen
//! **crash** rounds. It composes with both models (CONGEST and MPC)
//! and both inbox stores, because the interception happens at the
//! kernel's [`MsgSink`] layer — below the models, above the store.
//!
//! # Determinism and replay
//!
//! Every fault decision is a *pure function* of `(seed, round, sender,
//! seq)`, where `seq` is the sender's 0-based deliver index within the
//! round (outbox order — identical in every executor). No decision
//! depends on thread interleaving, so a run is exactly reproducible
//! from `(seed, FaultSpec)` at any thread count, and a recorded
//! [`FaultTrace`] replays bit-for-bit through [`TraceAdversary`].
//!
//! # Fault semantics
//!
//! * **Drop** — the message never traverses its link: it is not
//!   delivered *and not charged* (congestion/volume accounting happens
//!   at actual delivery; see [`MsgSink::deliver`]).
//! * **Duplicate** — two copies traverse the link in the same round and
//!   both are delivered (and both are charged).
//! * **Delay(d)** — the message is charged at its transmit round but
//!   parked in a deterministic delay queue and delivered `d` rounds
//!   late, after that round's fresh mail (queue order: park round, then
//!   shard, then sender, then outbox position).
//! * **Crash at round r** — the actor executes rounds `0..r` and then
//!   halts: it is never stepped again, counts as terminated, and every
//!   message that would reach it at round ≥ r is dropped in flight.
//!   Its output is collected from its last pre-crash state.
//!
//! Termination requires the usual quiescence **and** an empty delay
//! queue. A run the adversary starves into livelock ends with the
//! model's round-limit error, exactly like a diverging clean run.

use std::collections::HashMap;
use std::sync::Mutex;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::kernel::{Plane, Route, Store};
use crate::{ActorId, ExecModel, MsgSink, RoundProfile};

/// Probabilities are stored in parts-per-million so [`FaultSpec`] stays
/// `Copy + Eq + Hash`-able and every decision is exact integer
/// arithmetic.
pub const PPM: u32 = 1_000_000;

/// A seeded, declarative fault-injection plan.
///
/// All rates are parts-per-million of [`PPM`] (use the builder methods
/// to write them as probabilities). The drop/duplicate/delay rates
/// partition a single per-message roll, so their sum is clamped to
/// [`PPM`] with drop taking precedence, then duplicate, then delay.
///
/// ```
/// use pga_runtime::FaultSpec;
///
/// let spec = FaultSpec::seeded(42).drop(0.05).crash(0.01, 20);
/// assert_eq!(spec.drop_ppm, 50_000);
/// assert!(!spec.is_none());
/// assert!(FaultSpec::none().is_none());
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct FaultSpec {
    /// Seed of every fault decision (message fates and crash rounds).
    pub seed: u64,
    /// Per-message drop rate, in parts per million.
    pub drop_ppm: u32,
    /// Per-message duplication rate, in parts per million.
    pub dup_ppm: u32,
    /// Per-message delay rate, in parts per million.
    pub delay_ppm: u32,
    /// Largest delay in rounds (a delayed message is held 1..=max_delay
    /// rounds); 0 behaves like 1.
    pub max_delay: u32,
    /// Per-actor crash probability, in parts per million.
    pub crash_ppm: u32,
    /// Crash rounds are drawn uniformly from `1..=crash_within` (an
    /// actor always executes round 0); 0 behaves like 1.
    pub crash_within: u32,
}

impl FaultSpec {
    /// The empty plan: every message is delivered, nothing crashes.
    /// Running under it is bit-identical to the clean executors.
    pub fn none() -> Self {
        Self::default()
    }

    /// An empty plan carrying `seed` (fates stay clean until a rate is
    /// set).
    pub fn seeded(seed: u64) -> Self {
        FaultSpec {
            seed,
            ..Self::default()
        }
    }

    /// Whether this plan can never alter a run.
    pub fn is_none(&self) -> bool {
        self.drop_ppm == 0 && self.dup_ppm == 0 && self.delay_ppm == 0 && self.crash_ppm == 0
    }

    /// Sets the seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the per-message drop probability (`0.0..=1.0`).
    pub fn drop(mut self, p: f64) -> Self {
        self.drop_ppm = to_ppm(p);
        self
    }

    /// Sets the per-message duplication probability (`0.0..=1.0`).
    pub fn duplicate(mut self, p: f64) -> Self {
        self.dup_ppm = to_ppm(p);
        self
    }

    /// Sets the per-message delay probability and the largest delay in
    /// rounds.
    pub fn delay(mut self, p: f64, max_delay: u32) -> Self {
        self.delay_ppm = to_ppm(p);
        self.max_delay = max_delay;
        self
    }

    /// Sets the per-actor crash probability and the crash-round window
    /// (crashes are drawn from `1..=within`).
    pub fn crash(mut self, p: f64, within: u32) -> Self {
        self.crash_ppm = to_ppm(p);
        self.crash_within = within;
        self
    }
}

/// Converts a probability to clamped parts-per-million.
fn to_ppm(p: f64) -> u32 {
    (p.clamp(0.0, 1.0) * f64::from(PPM)).round() as u32
}

/// The adversary's verdict for one message.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Fate {
    /// Deliver normally next round.
    Deliver,
    /// Never deliver (and never charge).
    Drop,
    /// Deliver two copies next round (both charged).
    Duplicate,
    /// Deliver the given number of rounds late (≥ 1; charged at the
    /// transmit round).
    Delay(u32),
}

/// A deterministic fault oracle consulted by the adversary plane.
///
/// Implementations must be pure: the same arguments must always return
/// the same verdicts, independent of call order or thread interleaving
/// — that is what makes fault runs bit-identical across engines and
/// replayable from a recorded schedule. [`SeededAdversary`] derives its
/// verdicts from a [`FaultSpec`]; [`TraceAdversary`] replays a recorded
/// [`FaultTrace`].
pub trait Adversary: Sync {
    /// The fate of the `seq`-th message (0-based deliver index, outbox
    /// order) sent by actor `from` in `round`.
    fn fate(&self, round: u32, from: u32, seq: u32) -> Fate;

    /// The round at whose start `actor` halts (≥ 1), or `None` if it
    /// never crashes. Consulted once per actor at run start.
    fn crash_round(&self, actor: u32) -> Option<u32>;
}

/// SplitMix64 finalizer — the stateless mixing step behind every fault
/// decision key.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Collapses a decision coordinate into one well-mixed RNG seed.
fn decision_seed(seed: u64, tag: u64, a: u64, b: u64, c: u64) -> u64 {
    let mut h = mix(seed ^ mix(tag));
    h = mix(h ^ a);
    h = mix(h ^ b);
    mix(h ^ c)
}

const TAG_MESSAGE: u64 = 0x6D73_675F_6661_7465; // "msg_fate"
const TAG_CRASH: u64 = 0x6372_6173_685F_7264; // "crash_rd"

/// The spec-driven [`Adversary`]: every verdict is drawn from a fresh
/// [`StdRng`] seeded by the mixed decision coordinate, so verdicts are
/// pure and thread-order independent. Optionally records every
/// non-[`Fate::Deliver`] verdict for later replay (see
/// [`SeededAdversary::recording`] / [`SeededAdversary::into_trace`]).
pub struct SeededAdversary {
    spec: FaultSpec,
    recorder: Option<Mutex<Vec<FaultEvent>>>,
}

impl SeededAdversary {
    /// An adversary executing `spec` without recording.
    pub fn new(spec: FaultSpec) -> Self {
        SeededAdversary {
            spec,
            recorder: None,
        }
    }

    /// An adversary executing `spec` that records every fault it
    /// inflicts; finish with [`SeededAdversary::into_trace`].
    pub fn recording(spec: FaultSpec) -> Self {
        SeededAdversary {
            spec,
            recorder: Some(Mutex::new(Vec::new())),
        }
    }

    /// The recorded schedule of a completed run over `actors` actors:
    /// all inflicted fault events (sorted by decision coordinate — the
    /// recording order is thread-dependent, the sorted set is not) plus
    /// the full crash table.
    pub fn into_trace(self, actors: usize) -> FaultTrace {
        let crashes = (0..actors)
            .map(|i| self.spec_crash_round(i as u32))
            .collect();
        let mut events = self
            .recorder
            .map(|m| m.into_inner().unwrap_or_else(|p| p.into_inner()))
            .unwrap_or_default();
        events.sort_by_key(|e| (e.round, e.from, e.seq));
        events.dedup();
        FaultTrace {
            spec: self.spec,
            events,
            crashes,
        }
    }

    fn spec_crash_round(&self, actor: u32) -> Option<u32> {
        if self.spec.crash_ppm == 0 {
            return None;
        }
        let mut rng = StdRng::seed_from_u64(decision_seed(
            self.spec.seed,
            TAG_CRASH,
            u64::from(actor),
            0,
            0,
        ));
        if rng.random_range(0..PPM) < self.spec.crash_ppm {
            Some(1 + rng.random_range(0..self.spec.crash_within.max(1)))
        } else {
            None
        }
    }
}

impl Adversary for SeededAdversary {
    fn fate(&self, round: u32, from: u32, seq: u32) -> Fate {
        let s = &self.spec;
        if s.drop_ppm == 0 && s.dup_ppm == 0 && s.delay_ppm == 0 {
            return Fate::Deliver;
        }
        let mut rng = StdRng::seed_from_u64(decision_seed(
            s.seed,
            TAG_MESSAGE,
            u64::from(round),
            u64::from(from),
            u64::from(seq),
        ));
        // One roll partitioned into [drop | duplicate | delay | deliver].
        let roll = rng.random_range(0..PPM);
        let fate = if roll < s.drop_ppm {
            Fate::Drop
        } else if roll < s.drop_ppm.saturating_add(s.dup_ppm) {
            Fate::Duplicate
        } else if roll
            < s.drop_ppm
                .saturating_add(s.dup_ppm)
                .saturating_add(s.delay_ppm)
        {
            Fate::Delay(1 + rng.random_range(0..s.max_delay.max(1)))
        } else {
            Fate::Deliver
        };
        if fate != Fate::Deliver {
            if let Some(rec) = &self.recorder {
                rec.lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .push(FaultEvent {
                        round,
                        from,
                        seq,
                        fate,
                    });
            }
        }
        fate
    }

    fn crash_round(&self, actor: u32) -> Option<u32> {
        self.spec_crash_round(actor)
    }
}

/// One recorded non-[`Fate::Deliver`] verdict, keyed by its decision
/// coordinate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// Round the message was sent in.
    pub round: u32,
    /// Sending actor.
    pub from: u32,
    /// 0-based deliver index within the sender's round (outbox order).
    pub seq: u32,
    /// The inflicted fate.
    pub fate: Fate,
}

/// A complete recorded fault schedule: replaying it through
/// [`TraceAdversary`] re-executes the recorded run bit-for-bit.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultTrace {
    /// The spec the schedule was drawn from (informational — replay
    /// never re-rolls it).
    pub spec: FaultSpec,
    /// Every inflicted fault, sorted by `(round, from, seq)`.
    pub events: Vec<FaultEvent>,
    /// The full crash table, indexed by actor (entry `i` is actor `i`'s
    /// crash round, if any).
    pub crashes: Vec<Option<u32>>,
}

impl FaultTrace {
    /// Total number of recorded fault events.
    pub fn fault_count(&self) -> usize {
        self.events.len()
    }
}

/// Replays a recorded [`FaultTrace`]: recorded coordinates get their
/// recorded fate, everything else is delivered clean.
pub struct TraceAdversary<'t> {
    events: HashMap<(u32, u32, u32), Fate>,
    crashes: &'t [Option<u32>],
}

impl<'t> TraceAdversary<'t> {
    /// An adversary replaying `trace`.
    pub fn new(trace: &'t FaultTrace) -> Self {
        TraceAdversary {
            events: trace
                .events
                .iter()
                .map(|e| ((e.round, e.from, e.seq), e.fate))
                .collect(),
            crashes: &trace.crashes,
        }
    }
}

impl Adversary for TraceAdversary<'_> {
    fn fate(&self, round: u32, from: u32, seq: u32) -> Fate {
        self.events
            .get(&(round, from, seq))
            .copied()
            .unwrap_or(Fate::Deliver)
    }

    fn crash_round(&self, actor: u32) -> Option<u32> {
        self.crashes.get(actor as usize).copied().flatten()
    }
}

/// Whole-run fault accounting, folded into the model metrics by
/// [`ExecModel::finish`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Message copies actually delivered (equals the metrics' message
    /// count: duplicates count twice, drops not at all, delayed once).
    pub delivered: u64,
    /// Messages dropped in flight — adversary drops plus messages
    /// addressed to an actor that is crashed at their delivery round.
    pub dropped: u64,
    /// Messages duplicated (each added one extra delivered copy).
    pub duplicated: u64,
    /// Messages delivered late.
    pub delayed: u64,
    /// Actors whose crash round fell inside the run.
    pub crashed: u64,
    /// Data frames retransmitted by the reliable executor (always 0 on
    /// the raw adversarial path).
    pub retransmitted: u64,
    /// Cumulative ack frames transmitted by the reliable executor.
    pub acks: u64,
    /// Links declared dead after exhausting the ARQ retry budget or
    /// losing an endpoint to a crash-induced sever.
    pub dead_links: u64,
    /// Phases that hit their timeout and fell back to a partial
    /// aggregate (set by the pipeline layer, not the kernel).
    pub degraded: u64,
}

impl FaultStats {
    /// Adds every counter of `other` into `self` — for merging the
    /// tallies of back-to-back phases into one run's worth.
    pub fn absorb(&mut self, other: &FaultStats) {
        self.delivered += other.delivered;
        self.dropped += other.dropped;
        self.duplicated += other.duplicated;
        self.delayed += other.delayed;
        self.crashed += other.crashed;
        self.retransmitted += other.retransmitted;
        self.acks += other.acks;
        self.dead_links += other.dead_links;
        self.degraded += other.degraded;
    }

    /// The counter-wise difference `self - earlier` of two cumulative
    /// tallies (`delivered` is not cumulative in the kernel's tallies
    /// and comes out 0).
    pub(crate) fn since(&self, earlier: &FaultStats) -> FaultStats {
        FaultStats {
            delivered: 0,
            dropped: self.dropped - earlier.dropped,
            duplicated: self.duplicated - earlier.duplicated,
            delayed: self.delayed - earlier.delayed,
            crashed: self.crashed - earlier.crashed,
            retransmitted: self.retransmitted - earlier.retransmitted,
            acks: self.acks - earlier.acks,
            dead_links: self.dead_links - earlier.dead_links,
            degraded: self.degraded - earlier.degraded,
        }
    }
}

/// The crash table of a run over `n` actors: one pure oracle call per
/// actor, fixed up front so mail to a future victim can be dropped at
/// send time.
pub(crate) fn crash_table(adversary: &dyn Adversary, n: usize) -> Vec<Option<u32>> {
    (0..n).map(|i| adversary.crash_round(i as u32)).collect()
}

/// Halts every actor whose crash round has come by `round`, calling
/// `on_halt` with each newly halted index.
pub(crate) fn halt_due(
    table: &[Option<u32>],
    halted: &mut [bool],
    round: usize,
    mut on_halt: impl FnMut(usize),
) {
    for (i, (at, h)) in table.iter().zip(halted.iter_mut()).enumerate() {
        if !*h && matches!(at, Some(r) if *r as usize <= round) {
            *h = true;
            on_halt(i);
        }
    }
}

/// A message parked in the delay queue: joins `to`'s inbox for round
/// `consume_round`.
pub(crate) struct Parked<M: ExecModel> {
    consume_round: u32,
    to: u32,
    from: M::Id,
    msg: M::Msg,
}

/// Per-shard routing state of the adversary plane, reused across
/// rounds.
pub(crate) struct FaultShard<M: ExecModel> {
    /// Messages parked this round.
    parked: Vec<Parked<M>>,
    stats: FaultStats,
    /// Copies handed to the store this round.
    fresh: u64,
    /// The current sender's running deliver index.
    seq: u32,
}

impl<M: ExecModel> Default for FaultShard<M> {
    fn default() -> Self {
        FaultShard {
            parked: Vec::new(),
            stats: FaultStats::default(),
            fresh: 0,
            seq: 0,
        }
    }
}

/// The adversary plane's routing half (the fault sink): consults the
/// [`Adversary`] per message and hands survivors to the store's sink
/// (or the delay queue), reporting the charged copy count back to the
/// model.
pub(crate) struct FaultRoute<'a> {
    adversary: &'a dyn Adversary,
    crash: Vec<Option<u32>>,
}

impl<'a> FaultRoute<'a> {
    /// The fault sink of a run over `n` actors, with its crash table.
    pub(crate) fn new(adversary: &'a dyn Adversary, n: usize) -> Self {
        FaultRoute {
            adversary,
            crash: crash_table(adversary, n),
        }
    }

    /// Whether `to` is crashed at (the start of) `round` — mail
    /// consumed then is dropped in flight.
    #[inline]
    fn dead_at(&self, to: usize, round: u32) -> bool {
        matches!(self.crash[to], Some(r) if r <= round)
    }
}

impl<M: ExecModel> Route<M> for FaultRoute<'_>
where
    M::Msg: Send,
{
    type Shard = FaultShard<M>;

    fn route<S: MsgSink<M>>(
        &self,
        st: &mut FaultShard<M>,
        base: &mut S,
        model: &M,
        round: u32,
        to: M::Id,
        from: M::Id,
        msg: M::Msg,
    ) -> u32 {
        let seq = st.seq;
        st.seq += 1;
        let fate = self.adversary.fate(round, from.index() as u32, seq);
        let consume = match fate {
            Fate::Drop => {
                st.stats.dropped += 1;
                return 0;
            }
            Fate::Delay(d) => round + 1 + d.max(1),
            Fate::Deliver | Fate::Duplicate => round + 1,
        };
        if self.dead_at(to.index(), consume) {
            st.stats.dropped += 1;
            return 0;
        }
        match fate {
            Fate::Duplicate => {
                st.stats.duplicated += 1;
                st.fresh += 2;
                base.deliver(model, to, from, msg.clone()) + base.deliver(model, to, from, msg)
            }
            Fate::Delay(_) => {
                st.stats.delayed += 1;
                st.parked.push(Parked {
                    consume_round: consume,
                    to: to.index() as u32,
                    from,
                    msg,
                });
                1
            }
            _ => {
                st.fresh += 1;
                base.deliver(model, to, from, msg)
            }
        }
    }

    fn next_actor(st: &mut FaultShard<M>) {
        st.seq = 0;
    }
}

/// The adversary delivery plane: the fault sink on the step phase, the
/// crash table on the sweep, and the delay queue released into the
/// store after each round's fresh mail (queue order: park round, then
/// shard, then sender, then outbox position). Termination additionally
/// requires an empty delay queue.
pub(crate) struct AdversaryPlane<'a, M: ExecModel> {
    /// The route's crash table.
    crash: &'a [Option<u32>],
    halted: Vec<bool>,
    delay: Vec<Parked<M>>,
    stats: FaultStats,
}

impl<'a, M: ExecModel> AdversaryPlane<'a, M> {
    pub(crate) fn new(route: &'a FaultRoute<'_>) -> Self {
        AdversaryPlane {
            crash: &route.crash,
            halted: vec![false; route.crash.len()],
            delay: Vec::new(),
            stats: FaultStats::default(),
        }
    }
}

impl<'a, M: ExecModel> Plane<M> for AdversaryPlane<'a, M>
where
    M::Msg: Send,
{
    type Route = FaultRoute<'a>;

    fn begin<S: Store<M>>(&mut self, _: &M, tick: usize, store: &mut S, _: &mut [usize]) -> bool {
        // Crashes activate before the sweep, so fresh victims already
        // count as terminated.
        let crashed = &mut self.stats.crashed;
        halt_due(self.crash, &mut self.halted, tick, |i| {
            *crashed += 1;
            store.halt(i);
        });
        true
    }

    fn idle(&self) -> bool {
        self.delay.is_empty()
    }

    fn settle<S: Store<M>>(
        &mut self,
        model: &M,
        tick: usize,
        shards: &mut [FaultShard<M>],
        store: &mut S,
        recv: &mut [usize],
        _acc: &mut RoundProfile,
    ) -> u64 {
        let mut delivered = 0;
        for st in shards.iter_mut() {
            self.stats.absorb(&std::mem::take(&mut st.stats));
            delivered += std::mem::take(&mut st.fresh);
            self.delay.append(&mut st.parked);
        }
        let consume = (tick + 1) as u32;
        for p in self.delay.extract_if(.., |p| p.consume_round == consume) {
            store.inject(model, p.to as usize, p.from, p.msg, recv);
            delivered += 1;
        }
        delivered
    }

    fn stats(&self) -> FaultStats {
        self.stats
    }

    fn depth(&self) -> usize {
        self.delay.len()
    }
}
