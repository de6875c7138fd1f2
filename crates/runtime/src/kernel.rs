//! The round loop ([`Setup::run`]), its two inbox stores ([`Inline`]
//! and [`Sharded`]), its delivery planes ([`Plane`]), and the dispatcher
//! that picks them ([`execute`]); see the crate docs for the design.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::{Scope, ScopedJoinHandle};

use crate::arq::{ArqPlane, Capture};
use crate::fault::{Adversary, AdversaryPlane, FaultRoute, FaultSpec, FaultStats, SeededAdversary};
use crate::probe::{NoopProbe, Probe, RoundObs};
use crate::{
    balanced_partition, ActorId, Engine, ExecModel, MsgSink, Poll, RoundProfile, Run, RunConfig,
    Scheduling, PARALLEL_MIN_NODES,
};

/// The round budget of a run whose [`RunConfig::max_rounds`] is unset.
pub const DEFAULT_MAX_ROUNDS: usize = 1_000_000;

/// Runs `nodes` to completion under `cfg`, reporting to `probe`.
///
/// This is the kernel's single dispatcher. It resolves the engine to a
/// shard count (`Engine::Parallel { threads: 0 }` means one shard per
/// CPU, or one shard below [`PARALLEL_MIN_NODES`] actors; fewer than two
/// actors per shard also means one shard), the delivery plane
/// ([`RunConfig::reliability`] selects ARQ, else [`RunConfig::fault`]
/// selects the seeded adversary, else the clean plane), the round
/// budget ([`DEFAULT_MAX_ROUNDS`] unless overridden) and the scheduling
/// policy. [`RunConfig::probe`] is not read here: the caller picks
/// `probe`.
///
/// Every choice is bit-identical: outputs, metrics and errors depend on
/// neither the shard count, nor the scheduling policy, nor the probe. With [`FaultSpec::none`] the adversary plane
/// reproduces the clean plane.
///
/// # Errors
///
/// Returns the model's error: the lowest-indexed actor's violation in
/// the first round that has one, or the round-limit error when the
/// budget runs out.
pub fn execute<M, P>(
    model: &M,
    nodes: Vec<M::Node>,
    cfg: &RunConfig,
    probe: &P,
) -> Result<Run<M::Output, M::Metrics>, M::Error>
where
    M: ExecModel,
    M::Node: Send,
    M::Msg: Send,
    M::Error: Send,
    P: Probe,
{
    execute_under(model, nodes, cfg, None, probe)
}

/// [`execute`] with the run's adversary given explicitly: `Some`
/// replaces the seeded adversary [`RunConfig::fault`] would build
/// (custom oracles, recording, replay), and still composes with
/// [`RunConfig::reliability`]. `None` is exactly [`execute`].
///
/// # Errors
///
/// Returns the model's error like [`execute`].
pub fn execute_under<M, P>(
    model: &M,
    nodes: Vec<M::Node>,
    cfg: &RunConfig,
    adversary: Option<&dyn Adversary>,
    probe: &P,
) -> Result<Run<M::Output, M::Metrics>, M::Error>
where
    M: ExecModel,
    M::Node: Send,
    M::Msg: Send,
    M::Error: Send,
    P: Probe,
{
    let n = nodes.len();
    let threads = match cfg.engine {
        Engine::Sequential => 1,
        Engine::Parallel { threads: 0 } if n < PARALLEL_MIN_NODES => 1,
        Engine::Parallel { threads: 0 } => {
            std::thread::available_parallelism().map_or(1, |p| p.get())
        }
        Engine::Parallel { threads } => threads,
    };
    let mut split = Vec::new();
    if threads > 1 && n >= 2 * threads {
        let costs: Vec<u64> = (nodes.iter().enumerate())
            .map(|(i, node)| model.actor_cost(node, i))
            .collect();
        split = balanced_partition(&costs, threads);
    }
    // One shard needs no heap partition: the one-shard store's run
    // allocates exactly what its per-actor inboxes need.
    let one = [0, n];
    let bounds: &[usize] = if split.len() > 2 { &split } else { &one };
    // The ARQ plane subsumes the adversary: with no fault armed it runs
    // over a never-interfering one.
    let seeded = (cfg.fault.or(cfg.reliability.map(|_| FaultSpec::none())))
        .filter(|_| adversary.is_none())
        .map(SeededAdversary::new);
    let adversary = adversary.or(seeded.as_ref().map(|a| a as &dyn Adversary));
    Setup {
        cfg,
        adversary,
        bounds,
    }
    .plane(model, nodes, probe)
}

/// The resolved, model-independent part of a run's setup.
struct Setup<'a> {
    cfg: &'a RunConfig,
    adversary: Option<&'a dyn Adversary>,
    bounds: &'a [usize],
}

impl Setup<'_> {
    /// Picks the delivery plane and its routing half.
    fn plane<M, P>(
        &self,
        model: &M,
        nodes: Vec<M::Node>,
        probe: &P,
    ) -> Result<Run<M::Output, M::Metrics>, M::Error>
    where
        M: ExecModel,
        M::Node: Send,
        M::Msg: Send,
        M::Error: Send,
        P: Probe,
    {
        let n = nodes.len();
        match (self.cfg.reliability, self.adversary) {
            (Some(spec), Some(adv)) => {
                let plane = ArqPlane::new(model, n, spec, adv);
                self.store(model, nodes, &Capture, plane, probe)
            }
            (_, Some(adv)) => {
                let route = FaultRoute::new(adv, n);
                self.store(model, nodes, &route, AdversaryPlane::new(&route), probe)
            }
            (_, None) => self.store(model, nodes, &Clean, Clean, probe),
        }
    }

    /// Picks the inbox store by shard count. A sharded run spawns its
    /// workers here, once, in one thread scope that lasts the run.
    fn store<M, D, P>(
        &self,
        model: &M,
        nodes: Vec<M::Node>,
        route: &D::Route,
        plane: D,
        probe: &P,
    ) -> Result<Run<M::Output, M::Metrics>, M::Error>
    where
        M: ExecModel,
        M::Node: Send,
        M::Msg: Send,
        M::Error: Send,
        D: Plane<M>,
        P: Probe,
    {
        let mut metrics = M::Metrics::default();
        model.pre_run(&nodes, &mut metrics)?;
        if self.bounds.len() > 2 {
            let meta = ShardMeta::new(self.bounds);
            std::thread::scope(|sc| {
                let scheduling = self.cfg.scheduling;
                let store = Sharded::spawn::<P>(sc, model, route, &meta, scheduling, nodes);
                self.run(model, store, plane, metrics, probe)
            })
        } else {
            let store = Inline::new(route, self.cfg.scheduling, nodes);
            self.run(model, store, plane, metrics, probe)
        }
    }
}

/// The routing half of a delivery plane: what happens to each validated
/// message during the step phase. Read-only, and borrowed by every
/// shard's thread for the whole run.
pub(crate) trait Route<M: ExecModel>: Sync {
    /// Per-shard routing state, reused across rounds.
    type Shard: Default + Send;

    /// Routes one validated message from `from` to `to`, sent in
    /// `round`, into the store's sink `base` (or elsewhere), and returns
    /// the copies the model must charge.
    #[allow(clippy::too_many_arguments)]
    fn route<S: MsgSink<M>>(
        &self,
        st: &mut Self::Shard,
        base: &mut S,
        model: &M,
        round: u32,
        to: M::Id,
        from: M::Id,
        msg: M::Msg,
    ) -> u32;

    /// Called before each stepped actor's first message.
    fn next_actor(_st: &mut Self::Shard) {}
}

/// The per-shard routing state of plane `D`.
pub(crate) type RouteShard<M, D> = <<D as Plane<M>>::Route as Route<M>>::Shard;

/// A delivery plane: the driving-thread hooks the loop calls around the
/// step phase, over a read-only [`Route`] that the shards borrow for the
/// whole run. Every hook has the clean plane's behavior as its default.
pub(crate) trait Plane<M: ExecModel> {
    /// The routing half.
    type Route: Route<M>;
    /// Whether the plane reports fault tallies to the probe.
    const FAULTY: bool = true;
    /// Whether an open but quiescent round leaves the actors unstepped
    /// (the ARQ barrier waits for the network instead).
    const HOLDS: bool = false;

    /// Start of kernel round `tick`, before the sweep: activates
    /// crashes ([`Store::halt`]) and may place mail in the current
    /// inboxes. Returns whether the application clock may advance this
    /// round.
    fn begin<S: Store<M>>(
        &mut self,
        _model: &M,
        _tick: usize,
        _store: &mut S,
        _recv: &mut [usize],
    ) -> bool {
        true
    }

    /// Whether the network holds nothing, so a quiescent round may end
    /// the run.
    fn idle(&self) -> bool {
        true
    }

    /// After the step phase, before the exchange: folds the shards'
    /// routing state and may stage more mail. Returns the message
    /// copies that reach an inbox this round.
    fn settle<S: Store<M>>(
        &mut self,
        model: &M,
        tick: usize,
        shards: &mut [RouteShard<M, Self>],
        store: &mut S,
        recv: &mut [usize],
        acc: &mut RoundProfile,
    ) -> u64;

    /// The cumulative fault tally (without `delivered`).
    fn stats(&self) -> FaultStats {
        FaultStats::default()
    }

    /// The depth of the plane's in-network queue, for the probe.
    fn depth(&self) -> usize {
        0
    }
}

/// The clean delivery plane: every message goes straight to its inbox.
pub(crate) struct Clean;

impl<M: ExecModel> Route<M> for Clean {
    type Shard = ();

    #[inline]
    fn route<S: MsgSink<M>>(
        &self,
        _st: &mut (),
        base: &mut S,
        model: &M,
        _round: u32,
        to: M::Id,
        from: M::Id,
        msg: M::Msg,
    ) -> u32 {
        base.deliver(model, to, from, msg)
    }
}

impl<M: ExecModel> Plane<M> for Clean {
    type Route = Clean;
    const FAULTY: bool = false;

    fn settle<S: Store<M>>(
        &mut self,
        _model: &M,
        _tick: usize,
        _shards: &mut [()],
        _store: &mut S,
        _recv: &mut [usize],
        acc: &mut RoundProfile,
    ) -> u64 {
        acc.messages
    }
}

/// The [`MsgSink`] a stepped actor sends into: the plane's route over
/// the store's sink.
struct Routed<'a, R, St, S> {
    route: &'a R,
    st: &'a mut St,
    base: S,
    round: u32,
}

impl<M: ExecModel, R: Route<M>, S: MsgSink<M>> MsgSink<M> for Routed<'_, R, R::Shard, S> {
    #[inline]
    fn deliver(&mut self, model: &M, to: M::Id, from: M::Id, msg: M::Msg) -> u32 {
        self.route
            .route(self.st, &mut self.base, model, self.round, to, from, msg)
    }
}

/// An inbox store: the actors' states and where staged mail waits for
/// the next round.
pub(crate) trait Store<M: ExecModel> {
    /// The routing half of the run's delivery plane.
    type Route: Route<M>;

    /// The per-round sweep (see [`Actors::sweep`]) over every actor at
    /// application round `round`: refreshes the activity mask and
    /// reports quiescence.
    fn sweep(&mut self, model: &M, round: usize) -> bool;

    /// Halts actor `i` (a crash): it is never stepped again and counts
    /// as done.
    fn halt(&mut self, i: usize);

    /// How many actors the last sweep activated.
    fn active(&self) -> usize;

    /// Steps every active actor at application round `round` (kernel
    /// round `tick`), routing sends with the shards' routing state
    /// `shards`. Returns the merged round accounting, or the
    /// lowest-indexed actor's error.
    fn step<P: Probe>(
        &mut self,
        model: &M,
        shards: &mut [<Self::Route as Route<M>>::Shard],
        round: usize,
        tick: usize,
        recv: &mut [usize],
        probe: &P,
    ) -> Result<RoundProfile, M::Error>;

    /// Stages `msg` for `to` next round, after this round's fresh mail.
    fn inject(&mut self, model: &M, to: usize, from: M::Id, msg: M::Msg, recv: &mut [usize]);

    /// Places `mail`, sorted by destination, in the current inboxes.
    fn load(&mut self, model: &M, mail: Vec<(u32, M::Id, M::Msg)>);

    /// Makes the staged mail current, tallying receive charges. The
    /// next sweep polls at application round `round`.
    fn exchange(&mut self, model: &M, recv: &mut [usize], round: usize);

    /// Hands back every actor's state, in id order.
    fn into_nodes(self) -> Vec<M::Node>;
}

/// The one-shard store: per-actor `Vec` inboxes, stepped inline on the
/// driving thread. Staged mail goes straight into next round's buffers,
/// which swap with the consumed ones at the exchange.
pub(crate) struct Inline<'r, M: ExecModel, R> {
    route: &'r R,
    scheduling: Scheduling,
    actors: Actors<M>,
    cur: Vec<Vec<(M::Id, M::Msg)>>,
    next: Vec<Vec<(M::Id, M::Msg)>>,
    scratch: M::SendScratch,
}

impl<'r, M: ExecModel, R> Inline<'r, M, R> {
    fn new(route: &'r R, scheduling: Scheduling, nodes: Vec<M::Node>) -> Self {
        let n = nodes.len();
        Inline {
            route,
            scheduling,
            actors: Actors::new(0, nodes),
            cur: (0..n).map(|_| Vec::new()).collect(),
            next: (0..n).map(|_| Vec::new()).collect(),
            scratch: M::SendScratch::default(),
        }
    }
}

/// The inline store's sink: straight into the staging inboxes (and the
/// receive tally).
struct DirectSink<'a, M: ExecModel> {
    next: &'a mut [Vec<(M::Id, M::Msg)>],
    recv: &'a mut [usize],
}

impl<M: ExecModel> MsgSink<M> for DirectSink<'_, M> {
    #[inline]
    fn deliver(&mut self, model: &M, to: M::Id, from: M::Id, msg: M::Msg) -> u32 {
        if M::TRACK_RECV {
            self.recv[to.index()] += model.recv_charge(&msg);
        }
        self.next[to.index()].push((from, msg));
        1
    }
}

impl<M: ExecModel, R: Route<M>> Store<M> for Inline<'_, M, R> {
    type Route = R;

    fn sweep(&mut self, model: &M, round: usize) -> bool {
        let cur = &self.cur;
        (self.actors).sweep(model, round, self.scheduling, |i| !cur[i].is_empty());
        self.actors.swept.quiescent
    }

    fn halt(&mut self, i: usize) {
        self.actors.halted[i] = true;
    }

    fn active(&self) -> usize {
        self.actors.swept.stepping
    }

    fn step<P: Probe>(
        &mut self,
        model: &M,
        shards: &mut [R::Shard],
        round: usize,
        _tick: usize,
        recv: &mut [usize],
        _probe: &P,
    ) -> Result<RoundProfile, M::Error> {
        let mut acc = RoundProfile::for_probe::<P>();
        let mut sink = Routed {
            route: self.route,
            st: &mut shards[0],
            base: DirectSink::<M> {
                next: &mut self.next,
                recv,
            },
            round: round as u32,
        };
        for (i, node) in self.actors.nodes.iter_mut().enumerate() {
            if !self.actors.active[i] {
                continue;
            }
            R::next_actor(sink.st);
            model.step(
                node,
                i,
                round,
                &self.cur[i],
                &mut self.scratch,
                &mut acc,
                &mut sink,
            )?;
            // Consumed in place; the cleared buffer keeps its capacity
            // and becomes next round's staging after the swap.
            self.cur[i].clear();
        }
        Ok(acc)
    }

    fn inject(&mut self, model: &M, to: usize, from: M::Id, msg: M::Msg, recv: &mut [usize]) {
        if M::TRACK_RECV {
            recv[to] += model.recv_charge(&msg);
        }
        self.next[to].push((from, msg));
    }

    fn load(&mut self, _model: &M, mail: Vec<(u32, M::Id, M::Msg)>) {
        for (to, from, msg) in mail {
            self.cur[to as usize].push((from, msg));
        }
    }

    fn exchange(&mut self, _model: &M, _recv: &mut [usize], _round: usize) {
        std::mem::swap(&mut self.cur, &mut self.next);
    }

    fn into_nodes(self) -> Vec<M::Node> {
        self.actors.nodes
    }
}

/// The fixed shard layout of one sharded run: boundary offsets plus the
/// actor → shard map the staging sink uses for O(1) lane routing.
struct ShardMeta {
    /// Boundary offsets from [`balanced_partition`] (`starts.len() - 1`
    /// shards; shard `j` covers `starts[j]..starts[j + 1]`).
    starts: Vec<usize>,
    /// Destination shard of every actor index.
    shard_of: Vec<u32>,
}

impl ShardMeta {
    fn new(starts: &[usize]) -> Self {
        let n = *starts.last().unwrap();
        let mut shard_of = vec![0u32; n];
        for (j, w) in starts.windows(2).enumerate() {
            shard_of[w[0]..w[1]].fill(j as u32);
        }
        ShardMeta {
            starts: starts.to_vec(),
            shard_of,
        }
    }

    fn num_shards(&self) -> usize {
        self.starts.len() - 1
    }

    fn len_of(&self, j: usize) -> usize {
        self.starts[j + 1] - self.starts[j]
    }
}

/// One sender shard's columnar staging for one destination shard:
/// destination indices and `(sender, payload)` pairs in parallel
/// arrays, appended in outbox order and counting-sorted by destination
/// before the scatter. All three buffers are reused across rounds.
struct Lane<M: ExecModel> {
    /// Shard-local destination index of each staged message.
    to: Vec<u32>,
    /// `(sender, payload)` of each staged message, parallel to `to`.
    pay: Vec<(M::Id, M::Msg)>,
    /// After grouping: CSR offsets into `pay` per local destination
    /// (`dest_len + 1` entries). Only meaningful while `pay` is
    /// non-empty.
    offs: Vec<u32>,
}

impl<M: ExecModel> Lane<M> {
    fn new() -> Self {
        Lane {
            to: Vec::new(),
            pay: Vec::new(),
            offs: Vec::new(),
        }
    }

    fn push(&mut self, local: usize, from: M::Id, msg: M::Msg) {
        self.to.push(local as u32);
        self.pay.push((from, msg));
    }
}

/// One destination shard's flat inbox arena: every message delivered to
/// the shard, grouped by destination actor, plus CSR offsets — actor
/// `local` reads `data[offs[local]..offs[local + 1]]`. Reused across
/// rounds; `dirty` tracks whether a previous round left content that a
/// quiet round must clear.
struct Arena<M: ExecModel> {
    data: Vec<(M::Id, M::Msg)>,
    offs: Vec<usize>,
    dirty: bool,
}

impl<M: ExecModel> Arena<M> {
    #[inline]
    fn slice(&self, local: usize) -> &[(M::Id, M::Msg)] {
        &self.data[self.offs[local]..self.offs[local + 1]]
    }

    #[inline]
    fn has_mail(&self, local: usize) -> bool {
        self.offs[local + 1] > self.offs[local]
    }

    fn clear(&mut self) {
        self.data.clear();
        self.offs.fill(0);
        self.dirty = false;
    }
}

/// The lane-staging sink of the sharded store: messages are appended to
/// the columnar lane of their destination shard.
struct LaneSink<'a, M: ExecModel> {
    lanes: &'a mut [Lane<M>],
    meta: &'a ShardMeta,
}

impl<M: ExecModel> MsgSink<M> for LaneSink<'_, M> {
    #[inline]
    fn deliver(&mut self, _model: &M, to: M::Id, from: M::Id, msg: M::Msg) -> u32 {
        let j = self.meta.shard_of[to.index()] as usize;
        self.lanes[j].push(to.index() - self.meta.starts[j], from, msg);
        1
    }
}

/// Reusable per-shard scratch: the model's validation scratch plus the
/// counting-sort arrays of the lane-grouping pass.
struct WorkerScratch<M: ExecModel> {
    send: M::SendScratch,
    /// Per-destination counters, then running cursors (counting sort
    /// pass 1); sized to the largest destination shard.
    counts: Vec<u32>,
    /// Final position of each staged message (counting sort pass 2).
    pos: Vec<u32>,
}

/// One shard of the sharded store: its actors and everything a phase
/// touches. Between phases the driving thread owns every cell (the
/// sweep and the plane hooks reach them there); during a phase a busy
/// shard's cell is moved to the thread that runs it and back.
struct Cell<M: ExecModel> {
    actors: Actors<M>,
    arena: Arena<M>,
    /// Outgoing lanes, one per destination shard, filled by the step.
    out: Vec<Lane<M>>,
    /// Incoming lanes, one per sender shard and then the lane of mail a
    /// plane injects from the driving thread; drained by the scatter.
    inc: Vec<Lane<M>>,
    scratch: WorkerScratch<M>,
    /// The shard's receive tally (empty unless [`ExecModel::TRACK_RECV`]).
    recv: Vec<usize>,
}

impl<M: ExecModel> Cell<M> {
    fn new(meta: &ShardMeta, j: usize, nodes: Vec<M::Node>) -> Self {
        let (len, s) = (nodes.len(), meta.num_shards());
        Cell {
            actors: Actors::new(meta.starts[j], nodes),
            arena: Arena {
                data: Vec::new(),
                offs: vec![0; len + 1],
                dirty: false,
            },
            out: (0..s).map(|_| Lane::new()).collect(),
            inc: (0..=s).map(|_| Lane::new()).collect(),
            scratch: WorkerScratch {
                send: M::SendScratch::default(),
                counts: Vec::new(),
                pos: Vec::new(),
            },
            recv: vec![0; if M::TRACK_RECV { len } else { 0 }],
        }
    }

    /// The step phase for this shard: steps every active actor against
    /// its arena inbox slice, routes its sends into the out lanes, and
    /// counting-sorts each lane by destination so the scatter can drain
    /// it sequentially.
    fn step<R: Route<M>, P: Probe>(
        &mut self,
        model: &M,
        route: &R,
        st: &mut R::Shard,
        meta: &ShardMeta,
        round: usize,
    ) -> Result<RoundProfile, M::Error> {
        let mut acc = RoundProfile::for_probe::<P>();
        let mut sink = Routed {
            route,
            st,
            base: LaneSink::<M> {
                lanes: &mut self.out,
                meta,
            },
            round: round as u32,
        };
        let actors = &mut self.actors;
        for (k, node) in actors.nodes.iter_mut().enumerate() {
            if !actors.active[k] {
                continue;
            }
            R::next_actor(sink.st);
            model.step(
                node,
                actors.base + k,
                round,
                self.arena.slice(k),
                &mut self.scratch.send,
                &mut acc,
                &mut sink,
            )?;
        }
        let s = &mut self.scratch;
        for (j, lane) in self.out.iter_mut().enumerate() {
            if !lane.pay.is_empty() {
                group_lane_by_destination(lane, meta.len_of(j), &mut s.counts, &mut s.pos);
            }
        }
        Ok(acc)
    }

    /// Sweeps the shard's actors at application round `round`.
    fn sweep(&mut self, model: &M, round: usize, scheduling: Scheduling) {
        let arena = &self.arena;
        (self.actors).sweep(model, round, scheduling, |k| arena.has_mail(k));
    }

    /// Whether any incoming lane holds mail.
    fn has_incoming(&self) -> bool {
        self.inc.iter().any(|lane| !lane.pay.is_empty())
    }

    /// The scatter phase for this shard: groups the injected lane,
    /// rebuilds the inbox arena from the incoming lanes (see
    /// [`merge_shard`]), tallying receive charges when `tally` is set.
    /// A shard with no incoming mail only clears leftover content.
    fn scatter(&mut self, model: &M, tally: bool) {
        let s = &mut self.scratch;
        let late = self.inc.last_mut().expect("the injected lane");
        if !late.pay.is_empty() {
            group_lane_by_destination(late, self.actors.nodes.len(), &mut s.counts, &mut s.pos);
        }
        if self.has_incoming() {
            let recv = tally.then_some(&mut self.recv[..]);
            merge_shard(model, &mut self.arena, &mut self.inc, recv);
        } else if self.arena.dirty {
            self.arena.clear();
        }
    }
}

/// Stable counting sort of one lane by destination: fills `lane.offs`
/// with the per-destination CSR offsets and permutes `lane.pay` into
/// destination-grouped order in place (cycle-walking swaps; stability
/// follows from assigning positions in scan order).
fn group_lane_by_destination<M: ExecModel>(
    lane: &mut Lane<M>,
    dest_len: usize,
    counts: &mut Vec<u32>,
    pos: &mut Vec<u32>,
) {
    if counts.len() < dest_len {
        counts.resize(dest_len, 0);
    }
    let counts = &mut counts[..dest_len];
    counts.fill(0);
    for &t in &lane.to {
        counts[t as usize] += 1;
    }
    // Prefix-sum the counts into CSR offsets, leaving `counts` holding
    // each destination's running write cursor.
    lane.offs.clear();
    lane.offs.reserve(dest_len + 1);
    lane.offs.push(0);
    let mut run = 0u32;
    for c in counts.iter_mut() {
        let start = run;
        run += *c;
        *c = start;
        lane.offs.push(run);
    }
    // Final slot of each message, assigned in scan order (stable).
    pos.clear();
    pos.extend(lane.to.iter().map(|&t| {
        let p = counts[t as usize];
        counts[t as usize] += 1;
        p
    }));
    // Apply the permutation in place: ≤ len swaps, moves only.
    let pay = &mut lane.pay[..];
    for i in 0..pay.len() {
        while pos[i] as usize != i {
            let j = pos[i] as usize;
            pay.swap(i, j);
            pos.swap(i, j);
        }
    }
    lane.to.clear();
}

/// Wall nanoseconds since `start` (0 when unprobed).
fn elapsed(start: Option<std::time::Instant>) -> u64 {
    start.map_or(0, |t| t.elapsed().as_nanos() as u64)
}

/// Rebuilds one destination shard's flat inbox arena from its incoming
/// pre-grouped lanes. For every destination actor the lanes are drained
/// in column order (sender shards ascending, then the injected lane),
/// so each inbox lists its senders in ascending id order, then injected
/// mail. Also tallies the receive charges when `recv` is given.
fn merge_shard<M: ExecModel>(
    model: &M,
    arena: &mut Arena<M>,
    column: &mut [Lane<M>],
    mut recv: Option<&mut [usize]>,
) {
    let shard_len = arena.offs.len() - 1;
    arena.data.clear();
    // Each incoming lane splits into its CSR offsets and a draining
    // cursor over the pre-grouped payloads (disjoint fields of the same
    // lane, so the borrows coexist).
    #[allow(clippy::type_complexity)]
    let mut parts: Vec<(&[u32], std::vec::Drain<'_, (M::Id, M::Msg)>)> = column
        .iter_mut()
        .filter(|lane| !lane.pay.is_empty())
        .map(|lane| (&lane.offs[..], lane.pay.drain(..)))
        .collect();
    for local in 0..shard_len {
        arena.offs[local] = arena.data.len();
        for (offs, drain) in parts.iter_mut() {
            let cnt = (offs[local + 1] - offs[local]) as usize;
            for _ in 0..cnt {
                let (from, msg) = drain.next().expect("lane CSR covers its payloads");
                if let Some(recv) = recv.as_deref_mut() {
                    recv[local] += model.recv_charge(&msg);
                }
                arena.data.push((from, msg));
            }
        }
    }
    arena.offs[shard_len] = arena.data.len();
    arena.dirty = true;
}

/// What one shard's step phase returns: its accounting and its wall
/// nanoseconds (0 when unprobed).
type StepOut<M> = (Result<RoundProfile, <M as ExecModel>::Error>, u64);

/// The phase a [`Job`] runs.
#[derive(Clone, Copy)]
enum Phase {
    /// Step the shard at this application round.
    Step(usize),
    /// Scatter the shard's incoming lanes, then sweep its actors for
    /// this application round.
    Scatter(usize, Scheduling),
}

/// One shard's work for one phase, moved to the thread that runs it and
/// back.
struct Job<M: ExecModel, Rs> {
    cell: Cell<M>,
    /// The shard's routing state (a default one in the scatter phase).
    st: Rs,
    phase: Phase,
    /// The step phase's result.
    out: Option<StepOut<M>>,
}

impl<M: ExecModel, Rs> Job<M, Rs> {
    fn run<R: Route<M, Shard = Rs>, P: Probe>(&mut self, model: &M, route: &R, meta: &ShardMeta) {
        match self.phase {
            Phase::Step(round) => {
                let start = P::ENABLED.then(std::time::Instant::now);
                let r = (self.cell).step::<R, P>(model, route, &mut self.st, meta, round);
                self.out = Some((r, elapsed(start)));
            }
            Phase::Scatter(round, scheduling) => {
                self.cell.scatter(model, M::TRACK_RECV);
                self.cell.sweep(model, round, scheduling);
            }
        }
    }
}

/// A worker thread: runs each job it is handed and hands it back, until
/// the driving thread hangs up (the run ended or is unwinding).
fn work<M: ExecModel, R: Route<M>, P: Probe>(
    model: &M,
    route: &R,
    meta: &ShardMeta,
    jobs: Receiver<Job<M, R::Shard>>,
    done: Sender<Job<M, R::Shard>>,
) {
    for mut job in jobs {
        job.run::<R, P>(model, route, meta);
        if done.send(job).is_err() {
            break;
        }
    }
}

/// The driving thread's end of one worker: its job queue, its return
/// queue, and its handle.
struct Worker<'s, M: ExecModel, Rs> {
    jobs: Sender<Job<M, Rs>>,
    done: Receiver<Job<M, Rs>>,
    handle: Option<ScopedJoinHandle<'s, ()>>,
}

impl<M: ExecModel, Rs> Worker<'_, M, Rs> {
    /// Re-raises the panic that made this worker hang up.
    fn died(&mut self) -> ! {
        match self.handle.take().map(ScopedJoinHandle::join) {
            Some(Err(payload)) => std::panic::resume_unwind(payload),
            _ => panic!("a shard worker hung up without panicking"),
        }
    }
}

/// The multi-shard store. Its workers live for the run: shard 0 runs on
/// the caller's thread, and every other shard on a worker spawned once
/// and parked on its job queue between phases. Each round is a step
/// phase (every shard with an active actor steps into its columnar out
/// lanes and counting-sorts them by destination) then a scatter phase
/// (the lanes move to their destination shards, which rebuild their
/// flat inbox arenas and sweep their actors for the next round); see
/// the crate docs. A phase hands work only to the shards that have
/// some.
pub(crate) struct Sharded<'s, 'e, M: ExecModel, R: Route<M>> {
    route: &'e R,
    meta: &'e ShardMeta,
    scheduling: Scheduling,
    /// The application round the scatter phase swept every cell for,
    /// while nothing has touched a cell since.
    swept: Option<usize>,
    /// Every shard's cell; `None` only while a worker holds it.
    cells: Vec<Option<Cell<M>>>,
    /// Worker `j - 1` runs shard `j`.
    workers: Vec<Worker<'s, M, R::Shard>>,
    /// Which shards the current phase hands work to.
    busy: Vec<bool>,
    /// Each stepped shard's result this round.
    outs: Vec<Option<StepOut<M>>>,
}

/// A cell that is home, as every cell is between phases.
fn home<M: ExecModel>(cell: &mut Option<Cell<M>>) -> &mut Cell<M> {
    cell.as_mut().expect("cells are home between phases")
}

impl<'s, 'e, M, R> Sharded<'s, 'e, M, R>
where
    M: ExecModel,
    M::Node: Send,
    M::Msg: Send,
    M::Error: Send,
    R: Route<M>,
{
    /// Splits `nodes` along `meta` and spawns one worker per shard
    /// after the first, in `sc`.
    fn spawn<P: Probe>(
        sc: &'s Scope<'s, 'e>,
        model: &'e M,
        route: &'e R,
        meta: &'e ShardMeta,
        scheduling: Scheduling,
        nodes: Vec<M::Node>,
    ) -> Self {
        let s = meta.num_shards();
        let mut nodes = nodes.into_iter();
        let cells = (0..s)
            .map(|j| {
                let shard = nodes.by_ref().take(meta.len_of(j)).collect();
                Some(Cell::new(meta, j, shard))
            })
            .collect();
        let workers = (1..s)
            .map(|_| {
                let (jobs, queue) = channel();
                let (back, done) = channel();
                let handle = sc.spawn(move || work::<M, R, P>(model, route, meta, queue, back));
                Worker {
                    jobs,
                    done,
                    handle: Some(handle),
                }
            })
            .collect();
        Sharded {
            route,
            meta,
            scheduling,
            swept: None,
            cells,
            workers,
            busy: vec![false; s],
            outs: (0..s).map(|_| None).collect(),
        }
    }

    /// Shard `j`'s work for `phase`.
    fn lend(&mut self, j: usize, shards: &mut [R::Shard], phase: Phase) -> Job<M, R::Shard> {
        Job {
            cell: self.cells[j].take().expect("cells are home between phases"),
            st: match phase {
                Phase::Step(_) => std::mem::take(&mut shards[j]),
                Phase::Scatter(..) => R::Shard::default(),
            },
            phase,
            out: None,
        }
    }

    /// Takes shard `j`'s cell, routing state and result back.
    fn settle_job(&mut self, j: usize, job: Job<M, R::Shard>, shards: &mut [R::Shard]) {
        if let Phase::Step(_) = job.phase {
            shards[j] = job.st;
        }
        self.cells[j] = Some(job.cell);
        self.outs[j] = job.out;
    }

    /// Runs one phase over the `busy` shards: hands each busy worker
    /// its cell, runs shard 0 on the driving thread meanwhile, and takes
    /// every cell back, in shard order, before returning. The step
    /// phase lends each shard its routing state from `shards`. A worker
    /// that hung up re-raises its panic here.
    fn phase<P: Probe>(&mut self, model: &M, shards: &mut [R::Shard], phase: Phase) {
        for j in 1..self.cells.len() {
            if self.busy[j] {
                let job = self.lend(j, shards, phase);
                if self.workers[j - 1].jobs.send(job).is_err() {
                    self.workers[j - 1].died();
                }
            }
        }
        if self.busy[0] {
            let mut job = self.lend(0, shards, phase);
            job.run::<R, P>(model, self.route, self.meta);
            self.settle_job(0, job, shards);
        }
        for j in 1..self.cells.len() {
            if self.busy[j] {
                let job = match self.workers[j - 1].done.recv() {
                    Ok(job) => job,
                    Err(_) => self.workers[j - 1].died(),
                };
                self.settle_job(j, job, shards);
            }
        }
    }
}

impl<M: ExecModel, R: Route<M>> Drop for Sharded<'_, '_, M, R> {
    /// Hangs up every job queue, so each parked worker wakes and exits,
    /// then waits for all of them: no worker outlives its run.
    fn drop(&mut self) {
        let handles: Vec<_> = (std::mem::take(&mut self.workers).into_iter())
            .filter_map(|w| w.handle)
            .collect();
        for handle in handles {
            if let Err(payload) = handle.join() {
                if !std::thread::panicking() {
                    std::panic::resume_unwind(payload);
                }
            }
        }
    }
}

impl<M, R> Store<M> for Sharded<'_, '_, M, R>
where
    M: ExecModel,
    M::Node: Send,
    M::Msg: Send,
    M::Error: Send,
    R: Route<M>,
{
    type Route = R;

    fn sweep(&mut self, model: &M, round: usize) -> bool {
        // The scatter phase swept every cell already unless a plane hook
        // has since halted an actor or placed mail; then sweep again
        // here, which the sweep's contract makes equivalent.
        if self.swept.take() != Some(round) {
            for c in self.cells.iter_mut().map(home) {
                c.sweep(model, round, self.scheduling);
            }
        }
        self.cells
            .iter()
            .flatten()
            .all(|c| c.actors.swept.quiescent)
    }

    fn halt(&mut self, i: usize) {
        let j = self.meta.shard_of[i] as usize;
        let c = home(&mut self.cells[j]);
        c.actors.halted[i - c.actors.base] = true;
        self.swept = None;
    }

    fn active(&self) -> usize {
        self.cells
            .iter()
            .flatten()
            .map(|c| c.actors.swept.stepping)
            .sum()
    }

    fn step<P: Probe>(
        &mut self,
        model: &M,
        shards: &mut [R::Shard],
        round: usize,
        tick: usize,
        _recv: &mut [usize],
        probe: &P,
    ) -> Result<RoundProfile, M::Error> {
        for (busy, c) in self.busy.iter_mut().zip(&mut self.cells) {
            *busy = home(c).actors.swept.stepping > 0;
        }
        self.phase::<P>(model, shards, Phase::Step(round));
        // The lowest-indexed shard's error is the lowest-indexed actor's
        // error, exactly like the inline store.
        let mut acc = RoundProfile::for_probe::<P>();
        for (si, out) in self.outs.iter_mut().enumerate() {
            let Some((r, ns)) = out.take() else { continue };
            let p = r?;
            if P::ENABLED {
                probe.on_shard(tick, si, ns, p.messages, p.volume);
            }
            acc.merge(&p);
        }
        Ok(acc)
    }

    fn inject(&mut self, _model: &M, to: usize, from: M::Id, msg: M::Msg, _recv: &mut [usize]) {
        let j = self.meta.shard_of[to] as usize;
        let c = home(&mut self.cells[j]);
        let late = c.inc.last_mut().expect("the injected lane");
        late.push(to - c.actors.base, from, msg);
    }

    fn load(&mut self, model: &M, mail: Vec<(u32, M::Id, M::Msg)>) {
        self.swept = None;
        for (to, from, msg) in mail {
            self.inject(model, to as usize, from, msg, &mut []);
        }
        for c in self.cells.iter_mut().map(home) {
            if c.has_incoming() {
                c.scatter(model, false);
            }
        }
    }

    fn exchange(&mut self, model: &M, recv: &mut [usize], round: usize) {
        // Each sender's out lane for shard `j` becomes `j`'s incoming
        // lane from that sender; the drained incoming lane goes back to
        // be refilled.
        let s = self.cells.len();
        for i in 0..s {
            for j in 0..s {
                let lane = std::mem::replace(&mut home(&mut self.cells[i]).out[j], Lane::new());
                let drained = std::mem::replace(&mut home(&mut self.cells[j]).inc[i], lane);
                home(&mut self.cells[i]).out[j] = drained;
            }
        }
        // A shard with no incoming mail, no leftover content and every
        // actor asleep is idle: its last sweep stands. The gate is lane
        // emptiness, so it cannot drift from what the model charged.
        for (busy, c) in self.busy.iter_mut().zip(&mut self.cells) {
            let c = home(c);
            let idle = c.actors.swept.asleep == c.actors.nodes.len();
            *busy = c.has_incoming() || c.arena.dirty || !idle;
        }
        self.phase::<NoopProbe>(model, &mut [], Phase::Scatter(round, self.scheduling));
        self.swept = Some(round);
        if M::TRACK_RECV {
            for c in self.cells.iter_mut().map(home) {
                for (r, t) in recv[c.actors.base..].iter_mut().zip(&mut c.recv) {
                    *r += std::mem::take(t);
                }
            }
        }
    }

    fn into_nodes(mut self) -> Vec<M::Node> {
        let mut nodes = Vec::with_capacity(self.meta.shard_of.len());
        for c in self.cells.iter_mut().map(home) {
            nodes.append(&mut c.actors.nodes);
        }
        nodes
    }
}

/// What a sweep over a run of actors found.
#[derive(Default)]
struct Swept {
    /// Every actor done and no mail in any current inbox.
    quiescent: bool,
    /// Actors activated for the step.
    stepping: usize,
    /// Actors that the next sweep skips unless mail arrives: halted or
    /// dormant.
    asleep: usize,
}

/// A contiguous run of actors (a shard, or all of them) with their
/// scheduling state.
struct Actors<M: ExecModel> {
    /// Index of the first actor.
    base: usize,
    nodes: Vec<M::Node>,
    halted: Vec<bool>,
    active: Vec<bool>,
    dormant: Vec<bool>,
    /// What the last sweep found.
    swept: Swept,
}

impl<M: ExecModel> Actors<M> {
    fn new(base: usize, nodes: Vec<M::Node>) -> Self {
        let n = nodes.len();
        Actors {
            base,
            nodes,
            halted: vec![false; n],
            active: vec![true; n],
            dormant: vec![false; n],
            swept: Swept::default(),
        }
    }

    /// The per-round sweep at application round `round` (`has_mail`
    /// takes a local index): polls every actor and refreshes the
    /// activity mask.
    ///
    /// Halted (crashed) actors count as done and are never stepped.
    /// Under [`Scheduling::ActiveSet`] the sweep also keeps a *dormancy*
    /// cache: an actor observed done **and** skippable with an empty
    /// inbox is not re-polled until mail arrives. That is sound because
    /// a skipped actor's state is frozen (the no-op contract), so its
    /// verdicts cannot change until it is woken; the quiescent tail of a
    /// run then costs two flag reads per actor per round instead of a
    /// model poll. The same contract makes a repeated sweep at the same
    /// round, over unchanged inboxes, reproduce the first.
    fn sweep(
        &mut self,
        model: &M,
        round: usize,
        scheduling: Scheduling,
        has_mail: impl Fn(usize) -> bool,
    ) {
        let mut all_done = true;
        let mut in_flight = false;
        let (mut stepping, mut asleep) = (0, 0);
        let (active, dormant) = (&mut self.active, &mut self.dormant);
        for (k, node) in self.nodes.iter().enumerate() {
            if self.halted[k] {
                active[k] = false;
                asleep += 1;
                continue;
            }
            let has_mail = has_mail(k);
            if dormant[k] && !has_mail {
                // Frozen, done, and still unmailed: counts as done
                // without a fresh poll.
                active[k] = false;
                asleep += 1;
                continue;
            }
            let Poll { done, skippable } = model.poll(node, self.base + k, round);
            all_done &= done;
            in_flight |= has_mail;
            active[k] = match scheduling {
                Scheduling::ActiveSet => {
                    dormant[k] = done && skippable && !has_mail;
                    asleep += usize::from(dormant[k]);
                    has_mail || !skippable
                }
                Scheduling::FullSweep => true,
            };
            stepping += usize::from(active[k]);
        }
        self.swept = Swept {
            quiescent: all_done && !in_flight,
            stepping,
            asleep,
        };
    }
}

impl Setup<'_> {
    /// The round loop. Each kernel round (*tick*): the plane's `begin`
    /// hook; the sweep and the termination check (skipped while the
    /// plane holds the application clock); the round-budget check; the
    /// step phase; the plane's `settle` hook; the exchange (which, on the
    /// sharded store, also sweeps for the next round); the receive check
    /// and the model's accounting; the probe's round events. The
    /// application round the actors observe advances with every step
    /// phase, so it equals the tick on every plane but ARQ.
    fn run<M, S, D, P>(
        &self,
        model: &M,
        mut store: S,
        mut plane: D,
        mut metrics: M::Metrics,
        probe: &P,
    ) -> Result<Run<M::Output, M::Metrics>, M::Error>
    where
        M: ExecModel,
        S: Store<M, Route = D::Route>,
        D: Plane<M>,
        P: Probe,
    {
        let n = *self.bounds.last().expect("bounds end at the actor count");
        let budget = self.cfg.max_rounds.unwrap_or(DEFAULT_MAX_ROUNDS);
        let run_start = P::ENABLED.then(std::time::Instant::now);
        if P::ENABLED {
            probe.on_run_start(n, self.bounds);
        }

        let mut recv = vec![0usize; if M::TRACK_RECV { n } else { 0 }];
        let mut shards: Vec<RouteShard<M, D>> =
            (1..self.bounds.len()).map(|_| Default::default()).collect();
        let (mut tick, mut round) = (0, 0);
        let mut delivered: u64 = 0;
        let mut convergence = 0usize;
        // The fault tally last handed to the probe, so it receives
        // per-round deltas.
        let mut seen = FaultStats::default();

        loop {
            let open = plane.begin(model, tick, &mut store, &mut recv);
            let mut quiescent = false;
            if open {
                quiescent = store.sweep(model, round);
                if quiescent && plane.idle() {
                    break;
                }
            }
            if tick >= budget {
                return Err(model.round_limit_error(budget));
            }

            let round_start = P::ENABLED.then(std::time::Instant::now);
            if P::ENABLED {
                probe.on_round_start(tick);
            }
            // A closed barrier, or a held quiescent tick, steps no actor.
            let stepped = open && !(D::HOLDS && quiescent);
            // Read before the exchange, which may sweep for next round.
            let active = if P::ENABLED && stepped {
                store.active()
            } else {
                0
            };
            let mut acc = if stepped {
                let acc = store.step(model, &mut shards, round, tick, &mut recv, probe)?;
                round += 1;
                acc
            } else {
                RoundProfile::for_probe::<P>()
            };

            let exchange_start = P::ENABLED.then(std::time::Instant::now);
            let delivered_now =
                plane.settle(model, tick, &mut shards, &mut store, &mut recv, &mut acc);
            store.exchange(model, &mut recv, round);
            if P::ENABLED && self.bounds.len() > 2 {
                probe.on_exchange(tick, elapsed(exchange_start));
            }

            if M::TRACK_RECV {
                model.check_recv(&recv, tick)?;
            }
            if delivered_now > 0 {
                // Mail staged now is consumed next round, so the plane
                // can only be quiet from the round after that.
                convergence = tick + 2;
            }
            delivered += delivered_now;
            model.end_round(&acc, &recv, tick, &mut metrics);
            if M::TRACK_RECV {
                recv.fill(0);
            }
            if P::ENABLED {
                if D::FAULTY {
                    let now = plane.stats();
                    let delta = FaultStats {
                        delivered: delivered_now,
                        ..now.since(&seen)
                    };
                    probe.on_fault_event(tick, &delta, plane.depth());
                    seen = now;
                }
                probe.on_round_end(&RoundObs {
                    round: tick,
                    wall_ns: elapsed(round_start),
                    messages: acc.messages,
                    volume: acc.volume,
                    peak_link: acc.peak_link,
                    active,
                    sizes: acc.sizes.as_deref(),
                });
            }
            tick += 1;
        }

        let mut stats = plane.stats();
        // Every charged copy reached an inbox, and the run cannot end
        // with mail in the network, so this equals the models' message
        // count on the clean and adversary planes.
        stats.delivered = delivered;
        model.finish(&mut metrics, &stats, convergence);
        if P::ENABLED {
            // Crashes activate at the top of a round, so an actor whose
            // crash round is the final quiescence check is tallied with
            // no round event to carry it: hand the probe that residual.
            if D::FAULTY && stats.crashed > seen.crashed {
                let residual = FaultStats {
                    crashed: stats.crashed - seen.crashed,
                    ..FaultStats::default()
                };
                probe.on_fault_event(tick, &residual, plane.depth());
            }
            probe.on_run_end(tick, elapsed(run_start));
        }
        let outputs = (store.into_nodes().iter().enumerate())
            .map(|(i, node)| model.output(node, i, round))
            .collect();
        Ok(Run { outputs, metrics })
    }
}
