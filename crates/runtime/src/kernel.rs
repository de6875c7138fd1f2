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

    /// Halts actor `i` (a crash): it is never stepped again, counts as
    /// done, and its waiting mail is dropped.
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

/// The one-shard store, stepped inline on the driving thread. Staged
/// mail goes straight into next round's inboxes, which swap with the
/// consumed current ones at the exchange.
pub(crate) struct Inline<'r, M: ExecModel, R> {
    route: &'r R,
    scheduling: Scheduling,
    actors: Actors<M>,
    next: Vec<Inbox<M>>,
    scratch: M::SendScratch,
}

impl<'r, M: ExecModel, R> Inline<'r, M, R> {
    fn new(route: &'r R, scheduling: Scheduling, nodes: Vec<M::Node>) -> Self {
        let n = nodes.len();
        Inline {
            route,
            scheduling,
            actors: Actors::new(0, nodes),
            next: (0..n).map(|_| Vec::new()).collect(),
            scratch: M::SendScratch::default(),
        }
    }
}

/// The inline store's sink: straight into the staging inboxes (and the
/// receive tally).
struct DirectSink<'a, M: ExecModel> {
    next: &'a mut [Inbox<M>],
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
        self.actors.sweep(model, round, self.scheduling);
        self.actors.swept.quiescent
    }

    fn halt(&mut self, i: usize) {
        self.actors.halt(i);
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
        let mut sink = Routed {
            route: self.route,
            st: &mut shards[0],
            base: DirectSink::<M> {
                next: &mut self.next,
                recv,
            },
            round: round as u32,
        };
        (self.actors).step::<R, _, P>(model, &mut sink, &mut self.scratch, round)
    }

    fn inject(&mut self, model: &M, to: usize, from: M::Id, msg: M::Msg, recv: &mut [usize]) {
        if M::TRACK_RECV {
            recv[to] += model.recv_charge(&msg);
        }
        self.next[to].push((from, msg));
    }

    fn load(&mut self, _model: &M, mail: Vec<(u32, M::Id, M::Msg)>) {
        for (to, from, msg) in mail {
            self.actors.inbox[to as usize].push((from, msg));
        }
    }

    fn exchange(&mut self, _model: &M, _recv: &mut [usize], _round: usize) {
        std::mem::swap(&mut self.actors.inbox, &mut self.next);
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

/// One sender shard's staging for one destination shard:
/// `(shard-local destination, sender, payload)` triples in outbox order,
/// reused across rounds.
type Lane<M> = Vec<(u32, <M as ExecModel>::Id, <M as ExecModel>::Msg)>;

/// The lane-staging sink of the sharded store: messages are appended to
/// the lane of their destination shard.
struct LaneSink<'a, M: ExecModel> {
    lanes: &'a mut [Lane<M>],
    meta: &'a ShardMeta,
}

impl<M: ExecModel> MsgSink<M> for LaneSink<'_, M> {
    #[inline]
    fn deliver(&mut self, _model: &M, to: M::Id, from: M::Id, msg: M::Msg) -> u32 {
        let j = self.meta.shard_of[to.index()] as usize;
        let local = (to.index() - self.meta.starts[j]) as u32;
        self.lanes[j].push((local, from, msg));
        1
    }
}

/// One shard of the sharded store: its actors and everything a phase
/// touches. Between phases the driving thread owns every cell (the
/// sweep and the plane hooks reach them there); during a phase a busy
/// shard's cell is moved to the thread that runs it and back. The cell
/// needs no staging inboxes: its mail lands only in the scatter phase,
/// after the step has consumed the current inboxes.
struct Cell<M: ExecModel> {
    actors: Actors<M>,
    /// Outgoing lanes, one per destination shard, filled by the step.
    out: Vec<Lane<M>>,
    /// Incoming lanes, one per sender shard and then the lane of mail a
    /// plane injects from the driving thread; drained by the scatter.
    inc: Vec<Lane<M>>,
    send: M::SendScratch,
    /// The shard's receive tally (empty unless [`ExecModel::TRACK_RECV`]).
    recv: Vec<usize>,
}

impl<M: ExecModel> Cell<M> {
    fn new(meta: &ShardMeta, j: usize, nodes: Vec<M::Node>) -> Self {
        let (len, s) = (nodes.len(), meta.num_shards());
        Cell {
            actors: Actors::new(meta.starts[j], nodes),
            out: (0..s).map(|_| Vec::new()).collect(),
            inc: (0..=s).map(|_| Vec::new()).collect(),
            send: M::SendScratch::default(),
            recv: vec![0; if M::TRACK_RECV { len } else { 0 }],
        }
    }

    /// The step phase for this shard: steps every active actor against
    /// its inbox and routes its sends into the out lanes.
    fn step<R: Route<M>, P: Probe>(
        &mut self,
        model: &M,
        route: &R,
        st: &mut R::Shard,
        meta: &ShardMeta,
        round: usize,
    ) -> Result<RoundProfile, M::Error> {
        let mut sink = Routed {
            route,
            st,
            base: LaneSink::<M> {
                lanes: &mut self.out,
                meta,
            },
            round: round as u32,
        };
        (self.actors).step::<R, _, P>(model, &mut sink, &mut self.send, round)
    }

    /// Whether any incoming lane holds mail.
    fn has_incoming(&self) -> bool {
        self.inc.iter().any(|lane| !lane.is_empty())
    }

    /// The scatter phase for this shard: drains the incoming lanes in
    /// column order (sender shards ascending, then the injected lane)
    /// into the actors' inboxes, tallying receive charges.
    fn scatter(&mut self, model: &M) {
        for lane in &mut self.inc {
            for (local, from, msg) in lane.drain(..) {
                let k = local as usize;
                if M::TRACK_RECV {
                    self.recv[k] += model.recv_charge(&msg);
                }
                self.actors.inbox[k].push((from, msg));
            }
        }
    }
}

/// Wall nanoseconds since `start` (0 when unprobed).
fn elapsed(start: Option<std::time::Instant>) -> u64 {
    start.map_or(0, |t| t.elapsed().as_nanos() as u64)
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
                self.cell.scatter(model);
                self.cell.actors.sweep(model, round, scheduling);
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
/// phase (every shard with an active actor steps against its inboxes
/// into one out lane per destination shard) then a scatter phase (the
/// lanes move to their destination shards, which drain them into their
/// actors' inboxes and sweep their actors for the next round); see the
/// crate docs. A phase hands work only to the shards that have some.
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

    /// The cell holding actor `i`, and `i`'s index within it.
    fn locate(&mut self, i: usize) -> (&mut Cell<M>, usize) {
        let c = home(&mut self.cells[self.meta.shard_of[i] as usize]);
        let k = i - c.actors.base;
        (c, k)
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
                c.actors.sweep(model, round, self.scheduling);
            }
        }
        self.cells
            .iter()
            .flatten()
            .all(|c| c.actors.swept.quiescent)
    }

    fn halt(&mut self, i: usize) {
        let (c, k) = self.locate(i);
        c.actors.halt(k);
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
        let (c, k) = self.locate(to);
        let late = c.inc.last_mut().expect("the injected lane");
        late.push((k as u32, from, msg));
    }

    fn load(&mut self, _model: &M, mail: Vec<(u32, M::Id, M::Msg)>) {
        self.swept = None;
        for (to, from, msg) in mail {
            let (c, k) = self.locate(to as usize);
            c.actors.inbox[k].push((from, msg));
        }
    }

    fn exchange(&mut self, model: &M, recv: &mut [usize], round: usize) {
        // Each sender's out lane for shard `j` becomes `j`'s incoming
        // lane from that sender; the drained incoming lane goes back to
        // be refilled.
        let s = self.cells.len();
        for i in 0..s {
            for j in 0..s {
                let lane = std::mem::take(&mut home(&mut self.cells[i]).out[j]);
                let drained = std::mem::replace(&mut home(&mut self.cells[j]).inc[i], lane);
                home(&mut self.cells[i]).out[j] = drained;
            }
        }
        // A shard with no incoming mail and every actor asleep is idle:
        // nothing stepped it, so its inboxes are still empty and its last
        // sweep stands. The gate is lane emptiness, so it cannot drift
        // from what the model charged.
        for (busy, c) in self.busy.iter_mut().zip(&mut self.cells) {
            let c = home(c);
            let idle = c.actors.swept.asleep == c.actors.nodes.len();
            *busy = c.has_incoming() || !idle;
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

/// An actor's scheduling state: what the last sweep decided for it.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Sched {
    /// Stepped in the coming step, and polled again by the next sweep.
    Awake,
    /// Dormant and done: counts as done until mail arrives.
    Done,
    /// Dormant and waiting for mail: counts as not done until it
    /// arrives.
    Waiting,
    /// Crashed: never polled or stepped again, and counts as done.
    Halted,
}

/// One actor's inbox: `(sender, payload)` pairs in delivery order.
type Inbox<M> = Vec<(<M as ExecModel>::Id, <M as ExecModel>::Msg)>;

/// A contiguous run of actors (a shard, or all of them) with their
/// scheduling state and current inboxes.
struct Actors<M: ExecModel> {
    /// Index of the first actor.
    base: usize,
    nodes: Vec<M::Node>,
    sched: Vec<Sched>,
    /// Each actor's mail for the coming step; the step consumes it.
    inbox: Vec<Inbox<M>>,
    /// What the last sweep found.
    swept: Swept,
}

impl<M: ExecModel> Actors<M> {
    fn new(base: usize, nodes: Vec<M::Node>) -> Self {
        let n = nodes.len();
        Actors {
            base,
            nodes,
            sched: vec![Sched::Awake; n],
            inbox: (0..n).map(|_| Vec::new()).collect(),
            swept: Swept::default(),
        }
    }

    /// Halts actor `k` (a local index): it is never stepped again, so
    /// its waiting mail is dropped here.
    fn halt(&mut self, k: usize) {
        self.sched[k] = Sched::Halted;
        self.inbox[k].clear();
    }

    /// The per-round sweep at application round `round`: polls every
    /// actor and decides which ones the coming step runs.
    ///
    /// Halted (crashed) actors count as done and are never stepped.
    /// Under [`Scheduling::ActiveSet`] the sweep also keeps a *dormancy*
    /// cache: an actor polled skippable with an empty inbox is not
    /// re-polled until mail arrives. The cache remembers whether it was
    /// done ([`Sched::Done`]) or waiting for mail ([`Sched::Waiting`]),
    /// and the sweep folds that verdict into quiescence, so a waiting
    /// actor still holds the run open. That is sound because a skipped
    /// actor's state is frozen (the no-op contract), so its verdicts
    /// cannot change until it is woken; a round then costs a tag read
    /// per sleeping actor instead of a model poll. The same contract
    /// makes a repeated sweep at the same round, over unchanged inboxes,
    /// reproduce the first.
    fn sweep(&mut self, model: &M, round: usize, scheduling: Scheduling) {
        let mut all_done = true;
        let mut in_flight = false;
        let (mut stepping, mut asleep) = (0, 0);
        for (k, node) in self.nodes.iter().enumerate() {
            let has_mail = !self.inbox[k].is_empty();
            let sched = &mut self.sched[k];
            match *sched {
                Sched::Halted => {
                    asleep += 1;
                    continue;
                }
                // Frozen and still unmailed: its last verdict stands
                // without a fresh poll.
                Sched::Done | Sched::Waiting if !has_mail => {
                    all_done &= *sched == Sched::Done;
                    asleep += 1;
                    continue;
                }
                _ => {}
            }
            let Poll { done, skippable } = model.poll(node, self.base + k, round);
            all_done &= done;
            in_flight |= has_mail;
            *sched = match scheduling {
                Scheduling::ActiveSet if skippable && !has_mail => {
                    asleep += 1;
                    if done {
                        Sched::Done
                    } else {
                        Sched::Waiting
                    }
                }
                _ => {
                    stepping += 1;
                    Sched::Awake
                }
            };
        }
        self.swept = Swept {
            quiescent: all_done && !in_flight,
            stepping,
            asleep,
        };
    }

    /// Steps every awake actor at application round `round` against
    /// its inbox, sending into `sink`, and empties each consumed inbox
    /// (the buffer keeps its capacity). Returns the round accounting,
    /// or the lowest-indexed actor's error. Both stores step through
    /// here; only their sinks differ.
    fn step<R: Route<M>, S: MsgSink<M>, P: Probe>(
        &mut self,
        model: &M,
        sink: &mut Routed<'_, R, R::Shard, S>,
        scratch: &mut M::SendScratch,
        round: usize,
    ) -> Result<RoundProfile, M::Error> {
        let mut acc = RoundProfile::for_probe::<P>();
        for (k, node) in self.nodes.iter_mut().enumerate() {
            if self.sched[k] != Sched::Awake {
                continue;
            }
            R::next_actor(sink.st);
            let inbox = &self.inbox[k];
            model.step(node, self.base + k, round, inbox, scratch, &mut acc, sink)?;
            self.inbox[k].clear();
        }
        Ok(acc)
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
