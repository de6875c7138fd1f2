//! The round loop ([`Setup::run`]), its two inbox stores ([`Inline`]
//! and [`Sharded`]), its delivery planes ([`Plane`]), and the dispatcher
//! that picks them ([`execute`]); see the crate docs for the design.

use crate::fault::{Adversary, AdversaryPlane, FaultSpec, FaultStats, SeededAdversary};
use crate::probe::{Probe, RoundObs};
use crate::{
    arq::ArqPlane, balanced_partition, ActorId, Engine, ExecModel, MsgSink, Poll, RoundProfile,
    Run, RunConfig, Scheduling, PARALLEL_MIN_NODES,
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
    /// Picks the delivery plane.
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
                self.store(model, nodes, ArqPlane::new(model, n, spec, adv), probe)
            }
            (_, Some(adv)) => self.store(model, nodes, AdversaryPlane::new(adv, n), probe),
            (_, None) => self.store(model, nodes, Clean, probe),
        }
    }

    /// Picks the inbox store by shard count.
    fn store<M, D, P>(
        &self,
        model: &M,
        nodes: Vec<M::Node>,
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
        if self.bounds.len() > 2 {
            let store = Sharded::new(self.bounds.to_vec());
            self.run(model, nodes, store, plane, probe)
        } else {
            let store = Inline::new(nodes.len());
            self.run(model, nodes, store, plane, probe)
        }
    }
}

/// The routing half of a delivery plane: what happens to each validated
/// message during the step phase. Shared by every worker thread.
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

/// A delivery plane: its [`Route`] plus the driving-thread hooks the
/// loop calls around the step phase. Every hook has the clean plane's
/// behavior as its default.
pub(crate) trait Plane<M: ExecModel> {
    /// The routing half.
    type Route: Route<M>;
    /// Whether the plane reports fault tallies to the probe.
    const FAULTY: bool = true;
    /// Whether an open but quiescent round leaves the actors unstepped
    /// (the ARQ barrier waits for the network instead).
    const HOLDS: bool = false;

    /// The routing half.
    fn route(&self) -> &Self::Route;

    /// Start of kernel round `tick`, before the sweep: activates
    /// crashes and may place mail in the current inboxes. Returns
    /// whether the application clock may advance this round.
    fn begin<S: Store<M>>(
        &mut self,
        _model: &M,
        _tick: usize,
        _store: &mut S,
        _recv: &mut [usize],
    ) -> bool {
        true
    }

    /// Whether actor `i` has crashed: never stepped, counted as done.
    fn halted(&self, _i: usize) -> bool {
        false
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

    fn route(&self) -> &Clean {
        self
    }

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

/// An inbox store: where staged mail waits for the next round.
pub(crate) trait Store<M: ExecModel> {
    /// Whether actor `i`'s current inbox is non-empty.
    fn has_mail(&self, i: usize) -> bool;

    /// Steps every active actor at application round `round` (kernel
    /// round `tick`), routing sends through `route`. Returns the merged
    /// round accounting, or the lowest-indexed actor's error.
    #[allow(clippy::too_many_arguments)]
    fn step<R: Route<M>, P: Probe>(
        &mut self,
        model: &M,
        nodes: &mut [M::Node],
        active: &[bool],
        route: &R,
        shards: &mut [R::Shard],
        round: usize,
        tick: usize,
        recv: &mut [usize],
        probe: &P,
    ) -> Result<RoundProfile, M::Error>;

    /// Stages `msg` for `to` next round, after this round's fresh mail.
    fn inject(&mut self, model: &M, to: usize, from: M::Id, msg: M::Msg, recv: &mut [usize]);

    /// Places `mail`, sorted by destination, in the current inboxes.
    fn load(&mut self, model: &M, mail: Vec<(u32, M::Id, M::Msg)>);

    /// Makes the staged mail current, tallying receive charges.
    fn exchange(&mut self, model: &M, recv: &mut [usize]);
}

/// The one-shard store: per-actor `Vec` inboxes, stepped inline on the
/// driving thread. Staged mail goes straight into next round's buffers,
/// which swap with the consumed ones at the exchange.
pub(crate) struct Inline<M: ExecModel> {
    cur: Vec<Vec<(M::Id, M::Msg)>>,
    next: Vec<Vec<(M::Id, M::Msg)>>,
    scratch: M::SendScratch,
}

impl<M: ExecModel> Inline<M> {
    fn new(n: usize) -> Self {
        Inline {
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

impl<M: ExecModel> Store<M> for Inline<M> {
    #[inline]
    fn has_mail(&self, i: usize) -> bool {
        !self.cur[i].is_empty()
    }

    fn step<R: Route<M>, P: Probe>(
        &mut self,
        model: &M,
        nodes: &mut [M::Node],
        active: &[bool],
        route: &R,
        shards: &mut [R::Shard],
        round: usize,
        _tick: usize,
        recv: &mut [usize],
        _probe: &P,
    ) -> Result<RoundProfile, M::Error> {
        let mut acc = RoundProfile::for_probe::<P>();
        let mut sink = Routed {
            route,
            st: &mut shards[0],
            base: DirectSink::<M> {
                next: &mut self.next,
                recv,
            },
            round: round as u32,
        };
        for (i, node) in nodes.iter_mut().enumerate() {
            if !active[i] {
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

    fn exchange(&mut self, _model: &M, _recv: &mut [usize]) {
        std::mem::swap(&mut self.cur, &mut self.next);
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

/// Reusable per-worker scratch: the model's validation scratch plus the
/// counting-sort arrays of the lane-grouping pass.
struct WorkerScratch<M: ExecModel> {
    send: M::SendScratch,
    /// Per-destination counters, then running cursors (counting sort
    /// pass 1); sized to the largest destination shard.
    counts: Vec<u32>,
    /// Final position of each staged message (counting sort pass 2).
    pos: Vec<u32>,
}

/// The multi-shard store: each round every shard with an active actor
/// steps on its own worker thread, staging sends into columnar lanes
/// per destination shard and counting-sorting them by destination; the
/// exchange then scatters each destination shard's lanes into its flat
/// inbox arena (see the crate docs).
pub(crate) struct Sharded<M: ExecModel> {
    meta: ShardMeta,
    arenas: Vec<Arena<M>>,
    /// One row of outgoing lanes per sending shard.
    lanes: Vec<Vec<Lane<M>>>,
    /// Mail injected by the driving thread, one lane per destination
    /// shard, drained after the sender shards' lanes.
    late: Vec<Lane<M>>,
    scratch: Vec<WorkerScratch<M>>,
}

impl<M: ExecModel> Sharded<M> {
    fn new(starts: Vec<usize>) -> Self {
        let n = *starts.last().unwrap();
        let mut shard_of = vec![0u32; n];
        for (j, w) in starts.windows(2).enumerate() {
            shard_of[w[0]..w[1]].fill(j as u32);
        }
        let meta = ShardMeta { starts, shard_of };
        let s = meta.num_shards();
        Sharded {
            arenas: (0..s)
                .map(|j| Arena {
                    data: Vec::new(),
                    offs: vec![0; meta.len_of(j) + 1],
                    dirty: false,
                })
                .collect(),
            lanes: (0..s)
                .map(|_| (0..s).map(|_| Lane::new()).collect())
                .collect(),
            late: (0..s).map(|_| Lane::new()).collect(),
            scratch: (0..s)
                .map(|_| WorkerScratch {
                    send: M::SendScratch::default(),
                    counts: Vec::new(),
                    pos: Vec::new(),
                })
                .collect(),
            meta,
        }
    }

    /// Counting-sorts the injected lanes and reports which destination
    /// shards have mail waiting in any lane.
    fn incoming(&mut self) -> Vec<bool> {
        let mut incoming = vec![false; self.meta.num_shards()];
        for row in &self.lanes {
            for (j, lane) in row.iter().enumerate() {
                incoming[j] |= !lane.pay.is_empty();
            }
        }
        let s = &mut self.scratch[0];
        for (j, lane) in self.late.iter_mut().enumerate() {
            if !lane.pay.is_empty() {
                incoming[j] = true;
                group_lane_by_destination(lane, self.meta.len_of(j), &mut s.counts, &mut s.pos);
            }
        }
        incoming
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

/// Splits `slice` into the contiguous chunks delimited by `bounds`.
fn split_by_bounds<'a, T>(mut slice: &'a mut [T], bounds: &[usize]) -> Vec<&'a mut [T]> {
    let mut out = Vec::with_capacity(bounds.len().saturating_sub(1));
    for w in bounds.windows(2) {
        let (head, tail) = slice.split_at_mut(w[1] - w[0]);
        out.push(head);
        slice = tail;
    }
    out
}

/// Wall nanoseconds since `start` (0 when unprobed).
fn elapsed(start: Option<std::time::Instant>) -> u64 {
    start.map_or(0, |t| t.elapsed().as_nanos() as u64)
}

/// Executes one round for the shard whose first actor is `base`: steps
/// every active actor against its arena inbox slice, routes its sends
/// into the shard's lanes, and counting-sorts each lane by destination
/// so the scatter can drain it sequentially.
#[allow(clippy::too_many_arguments)]
fn step_shard<M: ExecModel, R: Route<M>, P: Probe>(
    model: &M,
    route: &R,
    st: &mut R::Shard,
    base: usize,
    shard_nodes: &mut [M::Node],
    arena: &Arena<M>,
    active: &[bool],
    lanes: &mut [Lane<M>],
    meta: &ShardMeta,
    scratch: &mut WorkerScratch<M>,
    round: usize,
) -> Result<RoundProfile, M::Error> {
    let mut acc = RoundProfile::for_probe::<P>();
    let mut sink = Routed {
        route,
        st,
        base: LaneSink::<M> { lanes, meta },
        round: round as u32,
    };
    for (k, node) in shard_nodes.iter_mut().enumerate() {
        if !active[k] {
            continue;
        }
        R::next_actor(sink.st);
        model.step(
            node,
            base + k,
            round,
            arena.slice(k),
            &mut scratch.send,
            &mut acc,
            &mut sink,
        )?;
    }
    for (j, lane) in sink.base.lanes.iter_mut().enumerate() {
        if !lane.pay.is_empty() {
            group_lane_by_destination(lane, meta.len_of(j), &mut scratch.counts, &mut scratch.pos);
        }
    }
    Ok(acc)
}

/// Scatter for one destination shard: rebuilds its flat inbox arena
/// from the incoming pre-grouped lanes. For every destination actor the
/// lanes are drained in column order (sender shards ascending, then the
/// injected lane), so each inbox lists its senders in ascending id
/// order, then injected mail. Also tallies the receive charges when
/// `recv` is given.
fn merge_shard<M: ExecModel>(
    model: &M,
    arena: &mut Arena<M>,
    column: Vec<&mut Lane<M>>,
    shard_len: usize,
    mut recv: Option<&mut [usize]>,
) {
    arena.data.clear();
    // Each incoming lane splits into its CSR offsets and a draining
    // cursor over the pre-grouped payloads (disjoint fields of the same
    // lane, so the borrows coexist).
    #[allow(clippy::type_complexity)]
    let mut parts: Vec<(&[u32], std::vec::Drain<'_, (M::Id, M::Msg)>)> = column
        .into_iter()
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

impl<M> Store<M> for Sharded<M>
where
    M: ExecModel,
    M::Node: Send,
    M::Msg: Send,
    M::Error: Send,
{
    #[inline]
    fn has_mail(&self, i: usize) -> bool {
        let j = self.meta.shard_of[i] as usize;
        let local = i - self.meta.starts[j];
        let offs = &self.arenas[j].offs;
        offs[local + 1] > offs[local]
    }

    fn step<R: Route<M>, P: Probe>(
        &mut self,
        model: &M,
        nodes: &mut [M::Node],
        active: &[bool],
        route: &R,
        shards: &mut [R::Shard],
        round: usize,
        tick: usize,
        _recv: &mut [usize],
        probe: &P,
    ) -> Result<RoundProfile, M::Error> {
        // Every shard with an active actor steps on a worker thread;
        // workers time their own shard (probed runs only), callbacks
        // stay on the driving thread.
        type ShardOut<M> = (Result<RoundProfile, <M as ExecModel>::Error>, u64);
        let meta = &self.meta;
        let results: Vec<Option<ShardOut<M>>> = std::thread::scope(|s| {
            let handles: Vec<_> = split_by_bounds(nodes, &meta.starts)
                .into_iter()
                .zip(&mut self.arenas)
                .zip(&mut self.lanes)
                .zip(&mut self.scratch)
                .zip(shards.iter_mut())
                .enumerate()
                .map(|(si, ((((shard_nodes, arena), lanes), scratch), st))| {
                    let base = meta.starts[si];
                    let act = &active[base..meta.starts[si + 1]];
                    act.iter().any(|&a| a).then(|| {
                        s.spawn(move || {
                            let start = P::ENABLED.then(std::time::Instant::now);
                            let r = step_shard::<M, R, P>(
                                model,
                                route,
                                st,
                                base,
                                shard_nodes,
                                arena,
                                act,
                                lanes,
                                meta,
                                scratch,
                                round,
                            );
                            (r, elapsed(start))
                        })
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p))))
                .collect()
        });
        // The lowest-indexed shard's error is the lowest-indexed actor's
        // error, exactly like the inline store.
        let mut acc = RoundProfile::for_probe::<P>();
        for (si, r) in results.into_iter().enumerate() {
            let Some((r, ns)) = r else { continue };
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
        self.late[j].push(to - self.meta.starts[j], from, msg);
    }

    fn load(&mut self, model: &M, mail: Vec<(u32, M::Id, M::Msg)>) {
        for (to, from, msg) in mail {
            self.inject(model, to as usize, from, msg, &mut []);
        }
        let incoming = self.incoming();
        for (j, (arena, late)) in self.arenas.iter_mut().zip(&mut self.late).enumerate() {
            if incoming[j] {
                merge_shard(model, arena, vec![late], self.meta.len_of(j), None);
            }
        }
    }

    fn exchange(&mut self, model: &M, recv: &mut [usize]) {
        // One worker per destination shard with incoming mail; quiet
        // shards only clear leftover content. The gate is lane
        // emptiness, so it cannot drift from what the model charged.
        let incoming = self.incoming();
        if !incoming.iter().any(|&b| b) && !self.arenas.iter().any(|a| a.dirty) {
            return;
        }
        let s = self.meta.num_shards();
        let mut columns: Vec<Vec<&mut Lane<M>>> =
            (0..s).map(|_| Vec::with_capacity(s + 1)).collect();
        for row in self.lanes.iter_mut().chain(std::iter::once(&mut self.late)) {
            for (j, lane) in row.iter_mut().enumerate() {
                columns[j].push(lane);
            }
        }
        let mut recv = (if M::TRACK_RECV {
            split_by_bounds(recv, &self.meta.starts)
        } else {
            Vec::new()
        })
        .into_iter();
        let meta = &self.meta;
        std::thread::scope(|sc| {
            for (j, (arena, column)) in self.arenas.iter_mut().zip(columns).enumerate() {
                let recv_dst = recv.next();
                if !incoming[j] {
                    if arena.dirty {
                        arena.clear();
                    }
                    continue;
                }
                sc.spawn(move || merge_shard(model, arena, column, meta.len_of(j), recv_dst));
            }
        });
    }
}

/// The per-round sweep: polls every actor, refreshes the activity mask,
/// and reports quiescence (every actor done, no mail in any current
/// inbox). Runs on the driving thread.
///
/// Halted (crashed) actors count as done and are never stepped. Under
/// [`Scheduling::ActiveSet`] the sweep also keeps a *dormancy* cache: an
/// actor observed done **and** skippable with an empty inbox is not
/// re-polled until mail arrives. That is sound because a skipped actor's
/// state is frozen (the no-op contract), so its verdicts cannot change
/// until it is woken; the quiescent tail of a run then costs two flag
/// reads per actor per round instead of a model poll.
#[allow(clippy::too_many_arguments)]
fn sweep<M: ExecModel, S: Store<M>, D: Plane<M>>(
    model: &M,
    nodes: &[M::Node],
    store: &S,
    plane: &D,
    round: usize,
    scheduling: Scheduling,
    active: &mut [bool],
    dormant: &mut [bool],
) -> bool {
    let mut all_done = true;
    let mut in_flight = false;
    for (i, node) in nodes.iter().enumerate() {
        if plane.halted(i) {
            active[i] = false;
            continue;
        }
        let has_mail = store.has_mail(i);
        if dormant[i] && !has_mail {
            // Frozen, done, and still unmailed: counts as done without
            // a fresh poll.
            active[i] = false;
            continue;
        }
        let Poll { done, skippable } = model.poll(node, i, round);
        all_done &= done;
        in_flight |= has_mail;
        match scheduling {
            Scheduling::ActiveSet => {
                active[i] = has_mail || !skippable;
                dormant[i] = done && skippable && !has_mail;
            }
            Scheduling::FullSweep => active[i] = true,
        }
    }
    all_done && !in_flight
}

impl Setup<'_> {
    /// The round loop. Each kernel round (*tick*): the plane's `begin`
    /// hook; the sweep and the termination check (skipped while the
    /// plane holds the application clock); the round-budget check; the
    /// step phase; the plane's `settle` hook; the exchange; the receive
    /// check and the model's accounting; the probe's round events. The
    /// application round the actors observe advances with every step
    /// phase, so it equals the tick on every plane but ARQ.
    fn run<M: ExecModel, S: Store<M>, D: Plane<M>, P: Probe>(
        &self,
        model: &M,
        mut nodes: Vec<M::Node>,
        mut store: S,
        mut plane: D,
        probe: &P,
    ) -> Result<Run<M::Output, M::Metrics>, M::Error> {
        let n = nodes.len();
        let budget = self.cfg.max_rounds.unwrap_or(DEFAULT_MAX_ROUNDS);
        let mut metrics = M::Metrics::default();
        model.pre_run(&nodes, &mut metrics)?;
        let run_start = P::ENABLED.then(std::time::Instant::now);
        if P::ENABLED {
            probe.on_run_start(n, self.bounds);
        }

        let mut recv = vec![0usize; if M::TRACK_RECV { n } else { 0 }];
        let mut active = vec![true; n];
        let mut dormant = vec![false; n];
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
                quiescent = sweep(
                    model,
                    &nodes,
                    &store,
                    &plane,
                    round,
                    self.cfg.scheduling,
                    &mut active,
                    &mut dormant,
                );
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
            let mut acc = if stepped {
                let acc = store.step(
                    model,
                    &mut nodes,
                    &active,
                    plane.route(),
                    &mut shards,
                    round,
                    tick,
                    &mut recv,
                    probe,
                )?;
                round += 1;
                acc
            } else {
                RoundProfile::for_probe::<P>()
            };

            let exchange_start = P::ENABLED.then(std::time::Instant::now);
            let delivered_now =
                plane.settle(model, tick, &mut shards, &mut store, &mut recv, &mut acc);
            store.exchange(model, &mut recv);
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
                    active: if stepped {
                        active.iter().filter(|&&a| a).count()
                    } else {
                        0
                    },
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
        let outputs = (nodes.iter().enumerate())
            .map(|(i, node)| model.output(node, i, round))
            .collect();
        Ok(Run { outputs, metrics })
    }
}
