//! The synchronous round-execution kernel shared by the CONGEST and MPC
//! simulators.
//!
//! Both execution models of this workspace — the CONGEST / CONGESTED
//! CLIQUE simulator of `pga-congest` and the low-space MPC simulator of
//! `pga-mpc` — drive per-actor state machines through synchronous
//! message-passing rounds: deliver each actor's inbox, collect its
//! outbox, validate every message against the model, account metrics,
//! exchange, repeat until global quiescence. This crate holds that loop
//! **once**, behind one dispatcher, [`execute`], parameterized by an
//! [`ExecModel`] that supplies only the pieces that actually differ
//! between models: per-message validation and charging, metrics
//! accumulation, the error type, addressing, and the per-actor cost
//! estimate that drives load-balanced sharding.
//!
//! # One loop, two choices
//!
//! [`execute`] reads a [`RunConfig`] and makes two choices, each from
//! something the run can observe:
//!
//! * **The inbox store, by shard count.** The engine and thread count
//!   give a cost-balanced contiguous partition of the actors. With one
//!   shard the actors keep per-actor `Vec` inboxes and step inline on
//!   the driving thread. With two or more, the workers live for the
//!   run: shard 0 runs on the caller's thread and every other shard on
//!   a worker spawned once, inside one thread scope, and parked between
//!   phases. Each round is a step phase, then a scatter phase that
//!   moves mail through the lane exchange below. Both stores hold the
//!   current round's mail the same way, in per-actor `Vec` inboxes, and
//!   step their actors through one loop; only where a send lands
//!   differs.
//! * **The delivery plane, by configuration.** The clean plane is a
//!   zero-sized pass-through that compiles away. The adversary plane
//!   ([`fault`]) drops, duplicates and delays messages and crashes
//!   actors. The ARQ plane ([`arq`]) captures every send, runs a
//!   sliding-window link protocol on the driving thread, and holds the
//!   application clock at a barrier until the network has delivered
//!   every frame.
//!
//! Every combination is **bit-identical** on the clean plane: the same
//! outputs, the same metrics (per-round profiles included) and the same
//! error at every thread count and scheduling policy. The
//! deliberately naive [`reference::run`] executor is the test oracle
//! for that claim.
//!
//! # The message plane: lanes scattered into per-actor inboxes
//!
//! Every actor's mail for the coming step waits in its own `Vec` inbox;
//! the step reads it and then clears it, so the buffer keeps its
//! capacity for the next round. The one-shard store pushes each send
//! straight into a second set of per-actor inboxes and swaps the two
//! sets at the exchange. With two or more shards a send crosses threads
//! in two phases:
//!
//! 1. **Stage (lanes)** — while a shard's thread steps its actors,
//!    every validated outgoing message is appended to the *lane* for
//!    its destination shard as a `(local destination, sender, payload)`
//!    triple. Appends are strictly sequential, so staging never touches
//!    another shard's state.
//! 2. **Scatter (per-actor inboxes)** — in the scatter phase each lane
//!    moves to its *destination* shard, whose thread drains its
//!    incoming lanes in column order — sender shards ascending, then the
//!    lane of mail a plane hands over from the driving thread (released
//!    delays) — pushing each message onto its destination actor's
//!    inbox. The step has already emptied those inboxes, so a shard
//!    needs no second set. The same thread then sweeps the shard's
//!    actors for the next round, so actor state stays with the thread
//!    that steps it.
//!
//! **Determinism.** Draining lanes in column order makes each inbox
//! read (sender shard ascending, then outbox order within the shard,
//! then injected mail). Shards cover ascending contiguous id ranges and
//! each shard steps its actors in id order, so that is exactly
//! ascending sender id, then outbox order, then injected mail — the
//! order in which the one-shard store's sequential step and the plane's
//! later injections push onto each inbox. Every shard count is
//! therefore bit-identical without any sort.
//!
//! # Load-balanced sharding
//!
//! Actors are partitioned into contiguous shards by
//! [`balanced_partition`], which draws boundaries on the prefix sums of
//! the model's per-actor cost estimate ([`ExecModel::actor_cost`]:
//! adjacency degree for CONGEST vertices, resident words for MPC
//! machines). Uniform `n / threads` ranges skew badly on heavy-tailed
//! (Barabási–Albert-style) instances where the hubs concentrate in one
//! shard; cost-balanced boundaries equalize expected per-shard message
//! work instead of actor counts. Any contiguous partition preserves
//! bit-identity (see above), so balancing is purely a performance
//! choice.
//!
//! # Performance
//!
//! Both stores reuse their buffers across rounds (consumed inboxes and
//! drained lanes clear in place and keep their capacity; the one-shard
//! store's two inbox sets swap), each shard folds one
//! [`RoundProfile`] per round instead of touching shared metrics per
//! message, and the default [`Scheduling::ActiveSet`] policy skips
//! actors that are done or waiting for mail (see below), collapsing the
//! long quiet tails of flooding-style runs and the waits of pipelined
//! ones.
//!
//! # The scheduling rule
//!
//! The kernel may skip an actor's `round` callback in a given round
//! **only if** the model reports the actor as *skippable*
//! ([`Poll::skippable`]) **and** the actor's inbox for that round is
//! empty. The contract that makes this invisible: *whenever an actor
//! reports itself skippable and its inbox is empty, its `round` callback
//! must be a pure no-op — no state mutation, no outgoing messages, no
//! error.* Skipping a call that would have done nothing cannot change
//! outputs, metrics, or errors, so both scheduling policies (at every
//! shard count) remain bit-identical.
//!
//! The user-facing traits (`pga_congest::Algorithm::can_skip`,
//! `pga_mpc::Machine::can_skip`) default `skippable` to the actor's own
//! `is_done`, which satisfies the contract for plain state machines that
//! go quiet when finished. Algorithms whose `round` has residual side
//! effects after `is_done` (round-counter resets, stale-flag clearing)
//! override `can_skip` to say so and are simply never skipped;
//! [`Scheduling::FullSweep`] disables skipping globally and is the
//! reference behavior.
//!
//! Termination is *not* affected by scheduling: the kernel stops when
//! all actors are done and no message is in flight — exactly the
//! classic loop. Under the active-set policy an actor polled skippable
//! with an empty inbox becomes *dormant*: its state is frozen (nothing
//! may mutate it until a message arrives), so the kernel stops
//! re-polling it and wakes it on delivery. A dormant actor that was
//! done counts as done; one that was not is *waiting for mail* and
//! keeps the run open exactly as a polled one would. An actor waiting
//! for a child's or a parent's next message (Phase II's pipelined
//! gather–scatter) costs no model call until the message comes: a round
//! costs a poll and a step per awake actor plus a tag read per sleeping
//! one. Because a sleeping actor is not polled, the contract also
//! requires that a skippable actor's `is_done`/`can_skip` verdicts stay
//! fixed while its state is frozen: they may not depend on the round
//! number. An actor that must act on the clock alone (a deadline) must
//! not report itself skippable before it is done.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod arq;
pub mod fault;
pub mod json;
mod kernel;
pub mod probe;
pub mod reference;
pub mod trace;

pub use arq::ReliabilitySpec;
pub use fault::{
    Adversary, Fate, FaultEvent, FaultSpec, FaultStats, FaultTrace, SeededAdversary, TraceAdversary,
};
pub use kernel::{execute, execute_under, DEFAULT_MAX_ROUNDS};
pub use probe::{JsonlProbe, NoopProbe, Probe, ProbeMode, RecordingProbe, RoundObs, SizeHist};

use pga_graph::NodeId;

/// Dense actor addressing: both vertex ids (`pga_graph::NodeId`) and MPC
/// machine ids are `0..n` indices behind a newtype.
pub trait ActorId: Copy + Eq + Send {
    /// The identifier as a dense `usize` index.
    fn index(self) -> usize;
    /// The identifier for a dense `usize` index.
    fn from_index(i: usize) -> Self;
}

impl ActorId for NodeId {
    #[inline]
    fn index(self) -> usize {
        NodeId::index(self)
    }
    #[inline]
    fn from_index(i: usize) -> Self {
        NodeId::from_index(i)
    }
}

/// Unified message-cost accounting shared by the execution models.
///
/// One declared size, two currencies: CONGEST charges **bits** against
/// the per-edge bandwidth `B` ([`MsgCost::size_bits`], with
/// `id_bits = ⌈log₂ n⌉` passed in so identifiers cost the
/// model-correct `O(log n)` bits), and low-space MPC charges **64-bit
/// words** against the per-machine budget `S`
/// ([`MsgCost::size_words`]). The default word size derives from the
/// bit size at full-width (64-bit) identifier fields; batch-style MPC
/// messages override it directly.
pub trait MsgCost {
    /// The size of this message in bits, where node identifiers cost
    /// `id_bits` each.
    fn size_bits(&self, id_bits: usize) -> usize;

    /// The size of this message in 64-bit words (MPC's charging unit).
    fn size_words(&self) -> usize {
        self.size_bits(64).div_ceil(64).max(1)
    }
}

/// Selects how many shards (threads) drive a run.
///
/// Every choice is **bit-identical**: for the same actor states it
/// produces the same outputs, the same metrics (per-round profiles
/// included), and the same error on model violations. Sharding exists
/// to make large instances run as fast as the hardware allows.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Engine {
    /// One shard, stepped on the driving thread.
    #[default]
    Sequential,
    /// Up to `threads` cost-balanced shards (one shard when there are
    /// fewer than two actors per shard). Shard 0 runs on the caller's
    /// thread and each other shard on a worker that lives for the run.
    Parallel {
        /// Number of worker shards; `0` means one per available CPU.
        threads: usize,
    },
}

impl Engine {
    /// The parallel engine with one shard per available CPU.
    pub fn parallel_auto() -> Self {
        Engine::Parallel { threads: 0 }
    }
}

/// Below this actor count, [`Engine::parallel_auto`] (threads = 0)
/// falls back to one shard, for every model: every round hands each
/// busy worker its shard twice (step, then scatter), and on small
/// instances that fixed cost exceeds the per-round compute. Explicit
/// thread counts are always honored.
pub const PARALLEL_MIN_NODES: usize = 1024;

/// Builder-style per-run configuration consumed by the simulators' and
/// entry points' unified `_cfg` forms: the executor, the scheduling
/// policy, the delivery plane, the trace sink and the `G²` preprocessing.
///
/// ```
/// use pga_runtime::{Engine, RunConfig, Scheduling};
///
/// let cfg = RunConfig::new().parallel(4);
/// assert_eq!(cfg.engine, Engine::Parallel { threads: 4 });
/// assert_eq!(cfg.scheduling, Scheduling::ActiveSet);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct RunConfig {
    /// The executor driving the run (default [`Engine::Sequential`]).
    pub engine: Engine,
    /// The round-scheduling policy (default [`Scheduling::ActiveSet`];
    /// both policies are bit-identical).
    pub scheduling: Scheduling,
    /// Seeded fault-injection plan for the run (default `None` = the
    /// clean delivery plane). `Some(spec)` routes the run through the
    /// adversary plane ([`fault`]) — even [`FaultSpec::none`], which
    /// that plane reproduces bit-for-bit against the clean one.
    pub fault: Option<FaultSpec>,
    /// Overrides the round budget for this run (default `None` keeps
    /// the simulator's own limit, [`DEFAULT_MAX_ROUNDS`] unless set). Fault sweeps set a
    /// small budget so runs that an adversary starves into livelock
    /// abort quickly with the model's round-limit error.
    pub max_rounds: Option<usize>,
    /// Reliable-delivery plan for the run (default `None` = raw
    /// delivery). `Some(spec)` routes the run through the ARQ plane
    /// ([`arq`]), layered over [`RunConfig::fault`]'s adversary: outputs
    /// match the clean run while the metrics record the price of
    /// reliability.
    pub reliability: Option<ReliabilitySpec>,
    /// Trace-sink activation policy (default [`ProbeMode::Env`]: the
    /// run streams a [`JsonlProbe`] trace to the path named by the
    /// `PGA_TRACE` environment variable, if any). Probes are read-only
    /// observers — attaching one never changes outputs, metrics, or
    /// errors.
    pub probe: ProbeMode,
    /// How the `G²` clique pipelines obtain two-hop structure before
    /// Phase 1 (default [`G2Prep::Relay`]). Both strategies induce the
    /// same cover bit for bit; the knob trades relay rounds against
    /// bitmap-materialization rounds, which favors clustered inputs.
    pub g2_prep: G2Prep,
}

/// Two-hop preprocessing strategy of the congested-clique `G²`
/// pipelines (selected via [`RunConfig::g2_prep`]).
///
/// The deterministic MVC pipeline needs each candidate's view of its
/// `G²`-neighborhood. [`G2Prep::Relay`] obtains it online, one
/// neighbor-relay round per Phase-1 iteration. [`G2Prep::Bmm`] instead
/// materializes the Boolean-matrix-product rows up front with the
/// `clique_bmm` primitive (nodes broadcast their adjacency bitmaps as
/// packed 64-bit blocks; `O(1)`–`O(log n)` rounds on clustered inputs)
/// and then runs the relay-free Phase-1 variant on the materialized
/// rows. Both strategies are proven to induce the same cover bit for
/// bit; if any row overflows the word budget, the BMM path falls back
/// to the relay protocol wholesale, preserving that guarantee.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum G2Prep {
    /// Per-iteration one-hop relay of candidacies (the default; the
    /// paper's original protocol shape).
    #[default]
    Relay,
    /// Up-front `G²`-row materialization via blocked Boolean matrix
    /// multiplication over packed bitmap words.
    Bmm,
}

impl RunConfig {
    /// The default configuration: sequential, active-set scheduling,
    /// clean delivery.
    pub fn new() -> Self {
        Self::default()
    }

    /// Selects the engine.
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Selects one shard on the driving thread.
    pub fn sequential(self) -> Self {
        self.engine(Engine::Sequential)
    }

    /// Selects sharded execution with an explicit thread count.
    pub fn parallel(self, threads: usize) -> Self {
        self.engine(Engine::Parallel { threads })
    }

    /// Selects sharded execution with one shard per available CPU.
    pub fn parallel_auto(self) -> Self {
        self.engine(Engine::parallel_auto())
    }

    /// Selects the round-scheduling policy.
    pub fn scheduling(mut self, scheduling: Scheduling) -> Self {
        self.scheduling = scheduling;
        self
    }

    /// A no-op kept for source compatibility: the packed message plane
    /// it once selected is gone, and every run moves `Msg` values.
    #[deprecated(note = "the packed message plane is gone; this call changes nothing")]
    pub fn codec(self, _codec: bool) -> Self {
        self
    }

    /// Arms the seeded adversary: the run executes under `spec`'s
    /// per-message drop/duplicate/delay decisions and per-round crash
    /// sets, deterministically — any run is exactly replayable from
    /// `(spec.seed, spec)` at every engine and thread count.
    pub fn adversary(mut self, spec: FaultSpec) -> Self {
        self.fault = Some(spec);
        self
    }

    /// Caps the run's round budget (see [`RunConfig::max_rounds`]).
    pub fn max_rounds(mut self, rounds: usize) -> Self {
        self.max_rounds = Some(rounds);
        self
    }

    /// Arms the reliable delivery plane (see [`RunConfig::reliability`]
    /// and [`ReliabilitySpec`]).
    pub fn reliability(mut self, spec: ReliabilitySpec) -> Self {
        self.reliability = Some(spec);
        self
    }

    /// The application-round deadline for a phase whose clean run is
    /// bounded by `clean_bound` rounds: `Some` only when a
    /// [`ReliabilitySpec`] with phase timeouts armed is attached.
    pub fn phase_deadline(&self, clean_bound: usize) -> Option<usize> {
        self.reliability.and_then(|r| r.phase_deadline(clean_bound))
    }

    /// Selects the trace-sink activation policy (see
    /// [`RunConfig::probe`]).
    pub fn probe(mut self, mode: ProbeMode) -> Self {
        self.probe = mode;
        self
    }

    /// Selects the two-hop preprocessing strategy of the `G²` clique
    /// pipelines (see [`G2Prep`]).
    pub fn g2_prep(mut self, prep: G2Prep) -> Self {
        self.g2_prep = prep;
        self
    }

    /// Shorthand for [`RunConfig::g2_prep`]`(`[`G2Prep::Bmm`]`)`.
    pub fn bmm_prep(self) -> Self {
        self.g2_prep(G2Prep::Bmm)
    }
}

/// Round-scheduling policy of the kernel (see the crate docs for the
/// exact rule and the no-op contract that keeps the policies
/// bit-identical).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Scheduling {
    /// Skip the `round` callback of skippable actors with empty inboxes
    /// (the default; fastest on runs with quiescent tails).
    #[default]
    ActiveSet,
    /// Invoke every actor's `round` callback every round — the classic
    /// reference behavior.
    FullSweep,
}

/// One round's merged accounting, shared by both models.
///
/// The kernel accumulates one `RoundProfile` per shard, folds the shard profiles in
/// shard order once per round, and hands the merge to
/// [`ExecModel::end_round`]; the model maps the fields onto its own
/// metrics type. Field semantics are model-defined: CONGEST charges bits
/// and tracks the largest single message per round, MPC charges words
/// and tracks per-machine send volume and declared memory.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RoundProfile {
    /// Messages sent this round.
    pub messages: u64,
    /// Total charged volume this round (bits or words).
    pub volume: u64,
    /// Largest single-message charge this round (CONGEST's per-edge
    /// congestion peak).
    pub peak_link: usize,
    /// Largest per-actor total outgoing charge this round (MPC's send
    /// volume peak).
    pub peak_actor_out: usize,
    /// Largest per-actor declared state size this round (MPC's memory
    /// peak).
    pub peak_state: usize,
    /// Log-bucketed histogram of the charged message sizes this round.
    /// `None` (the default) outside probed runs: the executors allocate
    /// it only when an enabled [`Probe`] is attached, so models can
    /// call [`RoundProfile::observe_size`] unconditionally and the
    /// unprobed path pays one branch per message. Telemetry only —
    /// never read by [`ExecModel::end_round`], so metrics cannot
    /// depend on it.
    pub sizes: Option<Box<SizeHist>>,
}

impl RoundProfile {
    /// A profile whose size histogram is allocated iff the probe `P` is
    /// enabled — the executors' per-round accumulator constructor.
    pub(crate) fn for_probe<P: Probe>() -> Self {
        RoundProfile {
            sizes: P::ENABLED.then(Box::default),
            ..Self::default()
        }
    }

    /// Records `copies` charged copies of a `size`-unit message into the
    /// round's size histogram, when one is attached (no-op otherwise —
    /// the unprobed executors never allocate one). Models call this
    /// next to their per-message charging.
    #[inline]
    pub fn observe_size(&mut self, size: u64, copies: u32) {
        if copies == 0 {
            return;
        }
        if let Some(h) = self.sizes.as_deref_mut() {
            h.record(size, u64::from(copies));
        }
    }

    /// Folds another shard's partial profile into this one (sums and
    /// maxima; shard order does not matter for the result).
    pub fn merge(&mut self, other: &RoundProfile) {
        self.messages += other.messages;
        self.volume += other.volume;
        self.peak_link = self.peak_link.max(other.peak_link);
        self.peak_actor_out = self.peak_actor_out.max(other.peak_actor_out);
        self.peak_state = self.peak_state.max(other.peak_state);
        if let Some(o) = other.sizes.as_deref() {
            match self.sizes.as_deref_mut() {
                Some(s) => s.merge(o),
                None => self.sizes = Some(Box::new(o.clone())),
            }
        }
    }
}

/// One actor's per-round verdict, reported by [`ExecModel::poll`].
#[derive(Clone, Copy, Debug)]
pub struct Poll {
    /// Whether the actor has terminated (the run ends when all actors
    /// are done and no message is in flight).
    pub done: bool,
    /// Whether the actor's `round` callback is a guaranteed no-op while
    /// its inbox is empty (the [`Scheduling::ActiveSet`] skip rule). A
    /// skippable actor with an empty inbox sleeps until mail arrives,
    /// done or not, so both verdicts must stay fixed while its state
    /// is frozen (see the crate docs).
    pub skippable: bool,
}

/// Where [`ExecModel::step`] stages validated outgoing messages.
///
/// The kernel provides the implementations: a direct-delivery sink for
/// the one-shard store and a lane-staging sink for the sharded one,
/// each behind the run's delivery plane. `step` must call [`MsgSink::deliver`] once per validated
/// message, in outbox order, *after* the message passed the model's
/// checks.
pub trait MsgSink<M: ExecModel + ?Sized> {
    /// Stages `msg` from `from` for delivery to `to` next round and
    /// returns the number of copies that will actually traverse the
    /// network — the factor the model must charge its round accounting
    /// by.
    ///
    /// The kernel's clean sinks always return 1; the adversary plane's
    /// sink returns 0 for a message the adversary drops (so dropped
    /// messages are charged at actual delivery — i.e. not at all), 2
    /// for a duplicated message, and 1 for a delayed one (a delayed
    /// message occupies its link when transmitted; the adversary merely
    /// holds it in the network before handing it over).
    #[must_use = "models must scale their round charges by the returned copy count"]
    fn deliver(&mut self, model: &M, to: M::Id, from: M::Id, msg: M::Msg) -> u32;
}

/// The pieces of a synchronous round-based execution model that differ
/// between CONGEST and MPC.
///
/// Implementations are thin: they own the model's context construction,
/// per-message validation/charging, and the mapping from the kernel's
/// [`RoundProfile`] onto the model's public metrics type. The kernel
/// owns the loop — termination, scheduling, staging, sharding, and the
/// exchange — so engine behavior cannot drift between models.
pub trait ExecModel: Sync {
    /// Actor addressing (vertex ids or machine ids).
    type Id: ActorId;
    /// Per-actor program state (`Algorithm` / `Machine` implementors).
    type Node;
    /// Message type exchanged by the actors.
    type Msg: Clone;
    /// Per-actor output collected at the end of the run.
    type Output;
    /// Error type aborting the run (`SimError` / `MpcError`).
    type Error;
    /// Whole-run metrics type (`Metrics` / `MpcMetrics`).
    type Metrics: Default;
    /// Per-actor validation scratch, reused across actors within a
    /// shard (CONGEST's generation-stamped destination table, MPC's
    /// running send volume). `step` must reset it before use.
    type SendScratch: Default + Send;
    /// Whether the kernel must tally each destination's delivered
    /// charge every round (MPC's receive-volume cap needs it; CONGEST
    /// does not, and the tally is compiled out).
    const TRACK_RECV: bool = false;

    /// Hook before round 0 (MPC checks the initial memory footprints).
    ///
    /// # Errors
    ///
    /// An error aborts the run before any round executes.
    fn pre_run(
        &self,
        _nodes: &[Self::Node],
        _metrics: &mut Self::Metrics,
    ) -> Result<(), Self::Error> {
        Ok(())
    }

    /// The actor's relative per-round cost estimate, consulted once per
    /// run by [`execute`] to draw cost-balanced contiguous shard
    /// boundaries (see [`balanced_partition`]).
    ///
    /// CONGEST charges a vertex its adjacency degree (message work is
    /// degree-proportional); MPC charges a machine its resident words.
    /// The estimate only steers load balancing — any value keeps the
    /// executors bit-identical. The default is uniform cost.
    fn actor_cost(&self, _node: &Self::Node, _idx: usize) -> u64 {
        1
    }

    /// Reports the actor's termination and skippability at `round`.
    fn poll(&self, node: &Self::Node, idx: usize, round: usize) -> Poll;

    /// The actor's final output (called once per actor after the run).
    fn output(&self, node: &Self::Node, idx: usize, round: usize) -> Self::Output;

    /// The model's round-budget-exhausted error.
    fn round_limit_error(&self, limit: usize) -> Self::Error;

    /// Executes one actor's round: invoke the program on `inbox`,
    /// validate and charge every outgoing message (accumulating into
    /// `acc`), and stage each accepted message via `sink.deliver` in
    /// outbox order. Model-side per-actor checks (MPC's memory budget)
    /// also happen here, after the sends, to preserve the sequential
    /// engines' error precedence.
    ///
    /// # Errors
    ///
    /// The first model violation (or program-raised error) aborts the
    /// run; the kernel surfaces the lowest-indexed actor's error.
    #[allow(clippy::too_many_arguments)]
    fn step<S: MsgSink<Self>>(
        &self,
        node: &mut Self::Node,
        idx: usize,
        round: usize,
        inbox: &[(Self::Id, Self::Msg)],
        scratch: &mut Self::SendScratch,
        acc: &mut RoundProfile,
        sink: &mut S,
    ) -> Result<(), Self::Error>;

    /// The per-message charge added to the destination's receive tally
    /// (only consulted when [`ExecModel::TRACK_RECV`] is set).
    fn recv_charge(&self, _msg: &Self::Msg) -> usize {
        0
    }

    /// The payload cost of one wire copy of `msg` in the model's volume
    /// unit (bits for CONGEST, words for MPC) — what the reliable
    /// ARQ plane charges for each *re*transmission, matching what the
    /// model charged the first transmission at `step` time. Only
    /// consulted by the ARQ plane ([`arq`]).
    fn wire_charge(&self, _msg: &Self::Msg) -> u64 {
        1
    }

    /// The fixed-width ARQ control-lane cost (sequence number) that
    /// rides beside every data copy, in the model's volume unit. Only
    /// consulted by the ARQ plane ([`arq`]).
    fn arq_header_charge(&self) -> u64 {
        0
    }

    /// The cost of one cumulative-ack control frame, in the model's
    /// volume unit. Only consulted by the ARQ plane ([`arq`]).
    fn arq_ack_charge(&self) -> u64 {
        1
    }

    /// Validates the per-destination receive tally after all actors
    /// stepped (MPC's receive-volume cap, checked in actor order).
    ///
    /// # Errors
    ///
    /// An error aborts the run exactly like a `step` error.
    fn check_recv(&self, _recv: &[usize], _round: usize) -> Result<(), Self::Error> {
        Ok(())
    }

    /// Folds the merged round accounting into the run metrics; `round`
    /// is the 0-based index of the round that just executed, and `recv`
    /// is the receive tally (empty unless [`ExecModel::TRACK_RECV`]).
    fn end_round(
        &self,
        acc: &RoundProfile,
        recv: &[usize],
        round: usize,
        metrics: &mut Self::Metrics,
    );

    /// Folds the whole-run fault statistics and the convergence round
    /// into the metrics after the final round (called once per
    /// successful run, on every delivery plane).
    ///
    /// `fault` carries the adversary's tally — all zeros except
    /// [`FaultStats::delivered`] on a clean run — and
    /// `convergence_round` is the kernel's message-quiescence detector:
    /// the first round index from which no message was in flight for
    /// the rest of the run (0 when the run never exchanged a message).
    /// The default ignores both, so models without fault-aware metrics
    /// need no changes.
    fn finish(&self, _metrics: &mut Self::Metrics, _fault: &FaultStats, _convergence_round: usize) {
    }
}

/// Result of a completed run (the simulators' `Report` and `MpcReport`).
#[derive(Debug)]
pub struct Run<O, M> {
    /// Per-actor outputs, indexed by actor id.
    pub outputs: Vec<O>,
    /// The model's whole-run metrics.
    pub metrics: M,
}

/// Cost-balanced contiguous shard boundaries; the load balancer of
/// [`execute`].
///
/// The implementation lives in the graph substrate
/// ([`pga_graph::partition`]) so its blocked-BMM kernel can shard along
/// the same boundaries; re-exported here unchanged for the engines and
/// every existing call site. The kernel preserves bit-identity for
/// *any* contiguous partition — boundaries only affect wall-clock
/// balance.
pub use pga_graph::partition::balanced_partition;

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy model used to exercise the kernel directly: actors pass a
    /// token around a ring for a fixed number of hops; message charge is
    /// the payload value, capped by the model.
    #[derive(Clone, Copy)]
    struct RingModel {
        n: usize,
        charge_cap: usize,
        recv_cap: usize,
        /// Skewed per-actor costs for the balanced-sharding tests
        /// (uniform when false, matching the default hook).
        skewed_costs: bool,
        /// An actor whose step panics.
        panic_at: Option<usize>,
        /// For this many rounds every actor also sends to actors 0 and
        /// n − 1, and the output becomes an order-sensitive fold of the
        /// senders of every message each actor received.
        fan_in: usize,
        /// Where steps record the thread they ran on.
        log: Option<&'static ThreadLog>,
    }

    /// The threads that stepped actors, and how many of them exited.
    #[derive(Default)]
    struct ThreadLog {
        ids: std::sync::Mutex<Vec<std::thread::ThreadId>>,
        exited: std::sync::atomic::AtomicUsize,
    }

    /// Counts its thread's exit in a [`ThreadLog`].
    struct ExitGuard(&'static ThreadLog);

    impl Drop for ExitGuard {
        fn drop(&mut self) {
            self.0
                .exited
                .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        }
    }

    thread_local! {
        static EXIT: std::cell::RefCell<Option<ExitGuard>> = const { std::cell::RefCell::new(None) };
    }

    impl ThreadLog {
        /// A log that lives for the test binary.
        fn leak() -> &'static ThreadLog {
            Box::leak(Box::default())
        }

        /// Records the current thread; a thread's first record arms its
        /// exit count.
        fn enter(&'static self) {
            let id = std::thread::current().id();
            let mut ids = self.ids.lock().unwrap();
            if !ids.contains(&id) {
                ids.push(id);
                EXIT.with(|g| *g.borrow_mut() = Some(ExitGuard(self)));
            }
        }

        fn threads(&self) -> Vec<std::thread::ThreadId> {
            self.ids.lock().unwrap().clone()
        }

        fn exited(&self) -> usize {
            self.exited.load(std::sync::atomic::Ordering::SeqCst)
        }
    }

    #[derive(Clone)]
    struct Token {
        hops_left: usize,
        charge: usize,
    }

    struct RingNode {
        started: bool,
        seen: usize,
        /// The fold of every received message's sender, in inbox order.
        senders: usize,
        outbound: Option<Token>,
    }

    #[derive(Debug, Clone, PartialEq, Eq)]
    enum RingError {
        TooBig { at: usize, round: usize },
        RecvOverflow { at: usize, round: usize },
        RoundLimit { limit: usize },
    }

    #[derive(Debug, Default, Clone, PartialEq, Eq)]
    struct RingMetrics {
        rounds: usize,
        messages: u64,
        volume: u64,
        profile: Vec<usize>,
        fault: FaultStats,
        convergence: usize,
    }

    impl ExecModel for RingModel {
        type Id = NodeId;
        type Node = RingNode;
        type Msg = Token;
        type Output = usize;
        type Error = RingError;
        type Metrics = RingMetrics;
        type SendScratch = ();

        const TRACK_RECV: bool = true;

        fn actor_cost(&self, _node: &RingNode, idx: usize) -> u64 {
            if self.skewed_costs {
                // Heavy head: actor 0 carries half the total cost.
                if idx == 0 {
                    self.n as u64
                } else {
                    1
                }
            } else {
                1
            }
        }

        fn poll(&self, node: &Self::Node, _idx: usize, round: usize) -> Poll {
            let done = node.started && node.outbound.is_none() && round >= self.fan_in;
            Poll {
                done,
                skippable: done,
            }
        }

        fn output(&self, node: &Self::Node, _idx: usize, _round: usize) -> usize {
            if self.fan_in > 0 {
                node.senders
            } else {
                node.seen
            }
        }

        fn round_limit_error(&self, limit: usize) -> RingError {
            RingError::RoundLimit { limit }
        }

        fn step<S: MsgSink<Self>>(
            &self,
            node: &mut Self::Node,
            idx: usize,
            round: usize,
            inbox: &[(NodeId, Token)],
            _scratch: &mut (),
            acc: &mut RoundProfile,
            sink: &mut S,
        ) -> Result<(), RingError> {
            if let Some(log) = self.log {
                log.enter();
            }
            if self.panic_at == Some(idx) {
                panic!("actor {idx} panics");
            }
            node.started = true;
            for (from, t) in inbox {
                node.seen += 1;
                node.senders = node.senders.wrapping_mul(31).wrapping_add(from.index() + 1);
                if t.hops_left > 0 {
                    node.outbound = Some(Token {
                        hops_left: t.hops_left - 1,
                        charge: t.charge,
                    });
                }
            }
            if let Some(t) = node.outbound.take() {
                if t.charge > self.charge_cap {
                    return Err(RingError::TooBig { at: idx, round });
                }
                let charge = t.charge;
                let to = NodeId::from_index((idx + 1) % self.n);
                let copies = sink.deliver(self, to, NodeId::from_index(idx), t);
                acc.messages += u64::from(copies);
                acc.volume += u64::from(copies) * charge as u64;
                acc.peak_link = acc.peak_link.max(charge * copies as usize);
            }
            if round < self.fan_in {
                for to in [0, self.n - 1] {
                    let t = Token {
                        hops_left: 0,
                        charge: 1,
                    };
                    let to = NodeId::from_index(to);
                    let copies = sink.deliver(self, to, NodeId::from_index(idx), t);
                    acc.messages += u64::from(copies);
                    acc.volume += u64::from(copies);
                    acc.peak_link = acc.peak_link.max(copies as usize);
                }
            }
            Ok(())
        }

        fn recv_charge(&self, msg: &Token) -> usize {
            msg.charge
        }

        fn check_recv(&self, recv: &[usize], round: usize) -> Result<(), RingError> {
            for (i, &w) in recv.iter().enumerate() {
                if w > self.recv_cap {
                    return Err(RingError::RecvOverflow { at: i, round });
                }
            }
            Ok(())
        }

        fn end_round(
            &self,
            acc: &RoundProfile,
            _recv: &[usize],
            round: usize,
            metrics: &mut RingMetrics,
        ) {
            metrics.rounds = round + 1;
            metrics.messages += acc.messages;
            metrics.volume += acc.volume;
            metrics.profile.push(acc.peak_link);
        }

        fn finish(&self, metrics: &mut RingMetrics, fault: &FaultStats, convergence_round: usize) {
            metrics.fault = *fault;
            metrics.convergence = convergence_round;
        }
    }

    fn ring_nodes(n: usize, hops: usize, charge: usize) -> Vec<RingNode> {
        ring_nodes_from(n, 0, hops, charge)
    }

    /// A ring whose token starts at actor `origin`.
    fn ring_nodes_from(n: usize, origin: usize, hops: usize, charge: usize) -> Vec<RingNode> {
        (0..n)
            .map(|i| RingNode {
                started: false,
                seen: 0,
                senders: 0,
                outbound: (i == origin).then_some(Token {
                    hops_left: hops,
                    charge,
                }),
            })
            .collect()
    }

    fn model(n: usize) -> RingModel {
        RingModel {
            n,
            charge_cap: 8,
            recv_cap: 8,
            skewed_costs: false,
            panic_at: None,
            fan_in: 0,
            log: None,
        }
    }

    fn cfg(s: Scheduling) -> RunConfig {
        RunConfig::new().scheduling(s).max_rounds(1_000)
    }

    type RingRun = Result<Run<usize, RingMetrics>, RingError>;

    fn run(m: &RingModel, nodes: Vec<RingNode>, threads: usize) -> RingRun {
        let cfg = cfg(Scheduling::ActiveSet).parallel(threads);
        execute(m, nodes, &cfg, &NoopProbe)
    }

    fn run_faulty(
        m: &RingModel,
        nodes: Vec<RingNode>,
        threads: usize,
        adversary: &dyn Adversary,
    ) -> RingRun {
        let cfg = cfg(Scheduling::ActiveSet).parallel(threads);
        execute_under(m, nodes, &cfg, Some(adversary), &NoopProbe)
    }

    #[test]
    fn sequential_completes_and_counts() {
        let run = run(&model(5), ring_nodes(5, 7, 2), 1).unwrap();
        // 8 sends total (the origin's plus 7 forwards), one per round,
        // plus a final send-free round consuming the last token.
        assert_eq!(run.metrics.messages, 8);
        assert_eq!(run.metrics.rounds, 9);
        assert_eq!(run.metrics.volume, 16);
        let mut expected = vec![2; 8];
        expected.push(0);
        assert_eq!(run.metrics.profile, expected);
        assert_eq!(run.outputs.iter().sum::<usize>(), 8);
    }

    /// Asserts that every shard count, scheduling policy and cost skew,
    /// on the clean plane and under the never-interfering
    /// adversary, reproduces the reference executor on `base` — and
    /// that the reference ends in `error`.
    fn assert_matches_reference(
        base: RingModel,
        nodes: impl Fn() -> Vec<RingNode>,
        budget: usize,
        error: Option<RingError>,
    ) {
        let oracle = reference::run(&base, nodes(), budget);
        assert_eq!(oracle.as_ref().err(), error.as_ref());
        let none = SeededAdversary::new(FaultSpec::none());
        for skewed_costs in [false, true] {
            let m = RingModel {
                skewed_costs,
                ..base
            };
            for i in 0..20 {
                let scheduling = [Scheduling::ActiveSet, Scheduling::FullSweep][i % 2];
                let adversary = (i % 4 >= 2).then_some(&none as &dyn Adversary);
                let threads = [1, 2, 3, 5, 8][i / 4];
                let at = format!("{scheduling:?} t={threads} skew={skewed_costs}");
                let cfg = cfg(scheduling).max_rounds(budget).parallel(threads);
                match (
                    &oracle,
                    execute_under(&m, nodes(), &cfg, adversary, &NoopProbe),
                ) {
                    (Ok(want), Ok(got)) => {
                        assert_eq!(got.outputs, want.outputs, "{at} {i}");
                        assert_eq!(got.metrics, want.metrics, "{at} {i}");
                    }
                    (Err(want), Err(got)) => assert_eq!(&got, want, "{at} {i}"),
                    (want, got) => panic!("{at} {i}: {:?} vs {:?}", want.is_ok(), got.is_ok()),
                }
            }
        }
    }

    #[test]
    fn schedulings_and_executors_are_bit_identical() {
        for m in [model(16), fan_in(16)] {
            assert_matches_reference(m, || ring_nodes(16, 40, 3), 1_000, None);
        }
    }

    /// Actors 0 and n − 1 each hear from every actor for a few rounds,
    /// so their inboxes join senders from every shard, and the outputs
    /// fold the order in which they heard them.
    fn fan_in(n: usize) -> RingModel {
        RingModel {
            fan_in: 4,
            recv_cap: usize::MAX,
            ..model(n)
        }
    }

    #[test]
    fn step_errors_match_across_executors() {
        // Charge 99 exceeds the cap at the origin in round 0.
        let error = RingError::TooBig { at: 0, round: 0 };
        assert_matches_reference(model(8), || ring_nodes(8, 3, 99), 1_000, Some(error));
    }

    #[test]
    fn recv_errors_match_across_executors() {
        // The send passes the charge cap but overflows the destination's
        // receive cap, so the error surfaces in the post-round check.
        let tight = RingModel {
            recv_cap: 4,
            ..model(8)
        };
        let error = RingError::RecvOverflow { at: 1, round: 0 };
        assert_matches_reference(tight, || ring_nodes(8, 2, 5), 1_000, Some(error));
    }

    #[test]
    fn round_limit_errors_match() {
        let error = RingError::RoundLimit { limit: 3 };
        assert_matches_reference(model(8), || ring_nodes(8, 100, 1), 3, Some(error));
    }

    /// Runs `m` over `nodes` at `threads` on a helper thread and returns
    /// what that caller saw, failing if it saw nothing within 30 s.
    fn run_watched(
        m: RingModel,
        nodes: Vec<RingNode>,
        threads: usize,
    ) -> std::thread::Result<RingRun> {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let seen = std::panic::catch_unwind(|| run(&m, nodes, threads));
            tx.send(seen).ok();
        });
        rx.recv_timeout(std::time::Duration::from_secs(30))
            .expect("the run neither returned nor panicked within 30 s")
    }

    #[test]
    fn panics_reach_the_caller_from_every_shard() {
        // Actor 0 steps on the caller's thread (shard 0), actor 15 on
        // the last shard's worker.
        for threads in [2, 4] {
            for actor in [0, 15] {
                let m = RingModel {
                    panic_at: Some(actor),
                    ..model(16)
                };
                let payload = run_watched(m, ring_nodes(16, 40, 3), threads).unwrap_err();
                let msg = payload.downcast_ref::<String>().map(String::as_str);
                let want = format!("actor {actor} panics");
                assert_eq!(msg, Some(want.as_str()), "t={threads}");
            }
        }
    }

    #[test]
    fn step_error_above_shard_zero_matches_reference_and_joins_workers() {
        // The token starts at the last actor, whose charge breaks the
        // cap in round 0: only the last shard errs.
        let error = RingError::TooBig { at: 15, round: 0 };
        let oracle = reference::run(&model(16), ring_nodes_from(16, 15, 3, 99), 1_000);
        assert_eq!(oracle.err(), Some(error.clone()));
        for threads in [2, 4] {
            let log = ThreadLog::leak();
            let m = RingModel {
                log: Some(log),
                ..model(16)
            };
            let err = run(&m, ring_nodes_from(16, 15, 3, 99), threads).unwrap_err();
            assert_eq!(err, error, "t={threads}");
            // Every thread but the caller's is a worker, and has exited.
            assert_eq!(log.threads().len(), threads, "t={threads}");
            assert_eq!(log.exited(), threads - 1, "t={threads}");
        }
    }

    #[test]
    fn workers_are_spawned_once_per_run() {
        // A full sweep steps every shard in every one of 200 rounds.
        let log = ThreadLog::leak();
        let m = RingModel {
            log: Some(log),
            ..model(16)
        };
        let cfg = cfg(Scheduling::FullSweep).parallel(4);
        let run = execute(&m, ring_nodes(16, 199, 1), &cfg, &NoopProbe).unwrap();
        assert_eq!(run.metrics.rounds, 201);
        let threads = log.threads();
        assert!(threads.len() <= 4, "{} stepping threads", threads.len());
        assert!(threads.contains(&std::thread::current().id()));
        assert_eq!(log.exited(), threads.len() - 1);
    }

    #[test]
    fn run_config_builder_defaults_and_overrides() {
        let cfg = RunConfig::new();
        assert_eq!(cfg.engine, Engine::Sequential);
        assert_eq!(cfg.scheduling, Scheduling::ActiveSet);
        let cfg = RunConfig::new()
            .parallel_auto()
            .scheduling(Scheduling::FullSweep);
        assert_eq!(cfg.engine, Engine::Parallel { threads: 0 });
        assert_eq!(cfg.scheduling, Scheduling::FullSweep);
        // The deprecated codec switch leaves the configuration untouched.
        #[allow(deprecated)]
        let shim = RunConfig::new().parallel(2).codec(true);
        assert_eq!(shim, RunConfig::new().parallel(2));
        assert_eq!(
            RunConfig::new().sequential().parallel(3).engine,
            Engine::Parallel { threads: 3 }
        );
    }

    #[test]
    fn arq_recovers_the_clean_outputs_under_drops() {
        let clean = run(&model(16), ring_nodes(16, 40, 3), 1).unwrap();
        let spec = FaultSpec::seeded(5).drop(0.3).delay(0.2, 2);
        for threads in [1, 4] {
            let run = execute(
                &model(16),
                ring_nodes(16, 40, 3),
                &cfg(Scheduling::ActiveSet)
                    .max_rounds(100_000)
                    .parallel(threads)
                    .adversary(spec)
                    .reliability(ReliabilitySpec::arq()),
                &NoopProbe,
            )
            .unwrap();
            assert_eq!(run.outputs, clean.outputs, "t={threads}");
            let f = &run.metrics.fault;
            assert!(f.dropped > 0 && f.retransmitted > 0, "{f:?}");
        }
    }

    #[test]
    fn zero_actors_trivial() {
        let run = run(&model(1), Vec::new(), 1).unwrap();
        assert_eq!(run.metrics.rounds, 0);
        assert!(run.outputs.is_empty());
    }

    #[test]
    fn sharded_falls_back_to_sequential_on_tiny_inputs() {
        // 4 actors on 8 threads: shards would hold under two actors.
        let run = run(&model(4), ring_nodes(4, 5, 1), 8).unwrap();
        assert_eq!(run.metrics.messages, 6);
    }

    // The balanced_partition unit suite lives with the implementation
    // in pga-graph now; this smoke test pins the re-export so the
    // engines' load balancer cannot silently detach from it.
    #[test]
    fn balanced_partition_reexport_smoke() {
        let mut costs = vec![1u64; 16];
        costs[0] = 16;
        let bounds = balanced_partition(&costs, 4);
        assert_eq!(*bounds.first().unwrap(), 0);
        assert_eq!(*bounds.last().unwrap(), 16);
        assert_eq!(bounds[1], 1, "hub isolated into its own shard");
        assert!(bounds.windows(2).all(|w| w[0] < w[1]));
    }

    /// A hand-scripted adversary: one fate override for the message at
    /// `(round 0, from 0, seq 0)`, plus an explicit crash table.
    struct ScriptAdversary {
        fate0: Fate,
        crash: Vec<Option<u32>>,
    }

    impl Adversary for ScriptAdversary {
        fn fate(&self, round: u32, from: u32, seq: u32) -> Fate {
            if round == 0 && from == 0 && seq == 0 {
                self.fate0
            } else {
                Fate::Deliver
            }
        }

        fn crash_round(&self, actor: u32) -> Option<u32> {
            self.crash.get(actor as usize).copied().flatten()
        }
    }

    fn deliver_all(n: usize) -> ScriptAdversary {
        ScriptAdversary {
            fate0: Fate::Deliver,
            crash: vec![None; n],
        }
    }

    #[test]
    fn fault_runs_bit_identical_across_threads_and_planes() {
        let spec = FaultSpec::seeded(7)
            .drop(0.15)
            .duplicate(0.1)
            .delay(0.1, 3)
            .crash(0.1, 6);
        let adversary = SeededAdversary::new(spec);
        // On the fan-in ring, released delays ride the injected lane into
        // inboxes that also hold fresh mail from every shard.
        for m in [model(16), fan_in(16)] {
            let baseline = run_faulty(&m, ring_nodes(16, 40, 3), 1, &adversary).unwrap();
            // The adversary must have actually interfered for this test
            // to mean anything, and delayed some of the fan-in mail.
            let f = &baseline.metrics.fault;
            assert!(
                f.dropped + f.duplicated + f.delayed + f.crashed > 0,
                "{f:?}"
            );
            assert!(m.fan_in == 0 || f.delayed > 0, "{f:?}");
            for threads in [1, 2, 4, 8] {
                let run = run_faulty(&m, ring_nodes(16, 40, 3), threads, &adversary).unwrap();
                assert_eq!(run.outputs, baseline.outputs, "t={threads}");
                assert_eq!(run.metrics, baseline.metrics, "t={threads}");
            }
        }
    }

    #[test]
    fn crashed_actors_are_never_stepped_at_any_shard_count() {
        // A full sweep steps every live actor every round, so the
        // per-round active counts show each crash taking effect in its
        // round.
        let adversary = SeededAdversary::new(FaultSpec::seeded(7).crash(0.3, 4));
        let active = |threads| {
            let probe = RecordingProbe::new("ring");
            let cfg = cfg(Scheduling::FullSweep).parallel(threads);
            let nodes = ring_nodes(16, 40, 3);
            execute_under(&model(16), nodes, &cfg, Some(&adversary), &probe).unwrap();
            let run = probe.into_runs().remove(0);
            run.rounds.iter().map(|r| r.active).collect::<Vec<_>>()
        };
        let want = active(1);
        assert!(want.windows(2).any(|w| w[1] < w[0]), "{want:?}");
        for threads in [2, 4] {
            assert_eq!(active(threads), want, "t={threads}");
        }
    }

    #[test]
    fn trace_replay_is_bit_identical() {
        let spec = FaultSpec::seeded(21).drop(0.2).duplicate(0.1).delay(0.1, 2);
        let recorder = SeededAdversary::recording(spec);
        let recorded = run_faulty(&model(16), ring_nodes(16, 40, 3), 4, &recorder).unwrap();
        let trace = recorder.into_trace(16);
        assert!(trace.fault_count() > 0);
        let replayer = TraceAdversary::new(&trace);
        for threads in [1, 4] {
            let replay = run_faulty(&model(16), ring_nodes(16, 40, 3), threads, &replayer).unwrap();
            assert_eq!(replay.outputs, recorded.outputs, "t={threads}");
            assert_eq!(replay.metrics, recorded.metrics, "t={threads}");
        }
    }

    #[test]
    fn crashing_terminated_or_unreached_actors_changes_nothing() {
        let clean = run_faulty(&model(8), ring_nodes(8, 3, 2), 1, &deliver_all(8)).unwrap();
        // The token visits actors 1..=3; the run lasts 5 rounds. A
        // crash scheduled long after termination never activates.
        let mut late = deliver_all(8);
        late.crash[5] = Some(90);
        let unreached = run_faulty(&model(8), ring_nodes(8, 3, 2), 1, &late).unwrap();
        assert_eq!(unreached.outputs, clean.outputs);
        assert_eq!(unreached.metrics, clean.metrics);
        // Crashing an actor that already finished its part mid-run
        // alters nothing but the crash counter.
        let mut done = deliver_all(8);
        done.crash[1] = Some(4);
        let crashed_done = run_faulty(&model(8), ring_nodes(8, 3, 2), 1, &done).unwrap();
        assert_eq!(crashed_done.outputs, clean.outputs);
        assert_eq!(crashed_done.metrics.fault.crashed, 1);
        assert_eq!(crashed_done.metrics.messages, clean.metrics.messages);
        assert_eq!(crashed_done.metrics.rounds, clean.metrics.rounds);
    }

    #[test]
    fn crash_drops_in_flight_mail_and_terminates() {
        // Actor 3 halts at round 2; the token in flight toward it is
        // dropped and the ring goes quiet instead of wrapping forever.
        let mut adv = deliver_all(8);
        adv.crash[3] = Some(2);
        for threads in [1, 2, 4] {
            let run = run_faulty(&model(8), ring_nodes(8, 40, 2), threads, &adv).unwrap();
            assert_eq!(run.metrics.fault.crashed, 1, "t={threads}");
            assert_eq!(run.metrics.fault.dropped, 1, "t={threads}");
            assert_eq!(
                run.outputs[3], 0,
                "t={threads}: the victim never saw the token"
            );
            assert!(run.metrics.rounds <= 4, "t={threads}: {:?}", run.metrics);
        }
    }

    #[test]
    fn dropped_mail_is_charged_at_delivery_meaning_not_at_all() {
        let adv = ScriptAdversary {
            fate0: Fate::Drop,
            crash: vec![None; 8],
        };
        let run = run_faulty(&model(8), ring_nodes(8, 5, 2), 1, &adv).unwrap();
        assert_eq!(run.metrics.messages, 0, "dropped mail is never charged");
        assert_eq!(run.metrics.volume, 0);
        assert_eq!(run.metrics.fault.dropped, 1);
        assert_eq!(run.metrics.fault.delivered, 0);
        assert_eq!(run.outputs.iter().sum::<usize>(), 0);
    }

    #[test]
    fn duplicated_mail_is_charged_twice_and_delivered_twice() {
        let clean = run_faulty(&model(8), ring_nodes(8, 1, 2), 1, &deliver_all(8)).unwrap();
        let adv = ScriptAdversary {
            fate0: Fate::Duplicate,
            crash: vec![None; 8],
        };
        let run = run_faulty(&model(8), ring_nodes(8, 1, 2), 1, &adv).unwrap();
        assert_eq!(run.metrics.fault.duplicated, 1);
        // Round 0 charges two copies of the origin's send.
        assert_eq!(run.metrics.profile[0], 2 * clean.metrics.profile[0]);
        assert_eq!(run.outputs[1], clean.outputs[1] + 1);
        assert_eq!(
            run.metrics.fault.delivered,
            clean.metrics.fault.delivered + 1
        );
    }

    #[test]
    fn delayed_mail_arrives_late_but_intact() {
        let clean = run_faulty(&model(8), ring_nodes(8, 3, 2), 1, &deliver_all(8)).unwrap();
        let adv = ScriptAdversary {
            fate0: Fate::Delay(3),
            crash: vec![None; 8],
        };
        let run = run_faulty(&model(8), ring_nodes(8, 3, 2), 1, &adv).unwrap();
        assert_eq!(run.outputs, clean.outputs, "a delayed token still lands");
        assert_eq!(run.metrics.rounds, clean.metrics.rounds + 3);
        assert_eq!(run.metrics.fault.delayed, 1);
        assert_eq!(run.metrics.fault.delivered, clean.metrics.fault.delivered);
        assert_eq!(run.metrics.messages, clean.metrics.messages);
    }

    #[test]
    fn seeded_adversary_decisions_are_pure() {
        let spec = FaultSpec::seeded(99).drop(0.3).duplicate(0.2).delay(0.2, 4);
        let a = SeededAdversary::new(spec);
        let b = SeededAdversary::new(spec);
        for round in 0..20 {
            for from in 0..10 {
                for seq in 0..4 {
                    assert_eq!(a.fate(round, from, seq), b.fate(round, from, seq));
                    assert_eq!(a.fate(round, from, seq), a.fate(round, from, seq));
                }
            }
        }
        for actor in 0..64 {
            assert_eq!(a.crash_round(actor), b.crash_round(actor));
        }
    }

    #[test]
    fn fault_round_limit_error_matches_model() {
        // A 100% delay loop can still exceed a tight round budget.
        let adv = SeededAdversary::new(FaultSpec::seeded(3).delay(1.0, 8));
        let tight = cfg(Scheduling::ActiveSet).max_rounds(2);
        let err = execute_under(
            &model(8),
            ring_nodes(8, 40, 2),
            &tight,
            Some(&adv),
            &NoopProbe,
        )
        .unwrap_err();
        assert_eq!(err, RingError::RoundLimit { limit: 2 });
    }
}
