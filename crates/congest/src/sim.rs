//! The synchronous round-based simulation engine.
//!
//! The round loop itself — termination, scheduling, message staging,
//! sharding, and the deterministic exchange — lives in the shared
//! [`pga_runtime`] kernel; this module supplies the CONGEST /
//! CONGESTED CLIQUE *model*: topology and addressing, per-message
//! validation and bit charging ([`check_message`]), and the mapping of
//! the kernel's per-round accounting onto [`Metrics`].

pub use crate::error::SimError;
use crate::Metrics;
use pga_graph::{Graph, NodeId};
use pga_runtime::{
    Adversary, ExecModel, FaultStats, JsonlProbe, MsgSink, NoopProbe, Poll, Probe, RoundProfile,
    RunConfig, DEFAULT_MAX_ROUNDS,
};

/// Communication topology of a simulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Topology {
    /// Messages travel only along edges of the input graph (the CONGEST
    /// model of Peleg).
    Congest,
    /// Any vertex may message any other vertex (the CONGESTED CLIQUE model
    /// of Lotker et al.); the input graph remains each node's local
    /// knowledge.
    CongestedClique,
}

/// Size accounting for messages — the historical CONGEST name for the
/// runtime-level [`pga_runtime::MsgCost`] trait.
///
/// `id_bits = ⌈log₂ n⌉` is passed to
/// [`size_bits`](pga_runtime::MsgCost::size_bits) so message types can
/// charge the model-correct `O(log n)` bits for every node identifier
/// they carry. Existing `impl MsgSize for …` blocks compile unchanged;
/// the same impl now also powers MPC word charging through the defaulted
/// [`size_words`](pga_runtime::MsgCost::size_words).
pub use pga_runtime::MsgCost as MsgSize;

/// Per-node view of the network, passed to every [`Algorithm`] callback.
#[derive(Debug)]
pub struct Ctx<'a> {
    /// This node's identifier.
    pub id: NodeId,
    /// Total number of nodes (globally known, as the paper assumes).
    pub n: usize,
    /// `⌈log₂ n⌉`, the number of bits of a node identifier.
    pub id_bits: usize,
    /// Neighbors of this node in the *input graph* `G` (sorted).
    pub graph_neighbors: &'a [NodeId],
    /// Current round number, starting at 0.
    pub round: usize,
    /// The communication topology.
    pub topology: Topology,
    /// The bandwidth `B` in bits available per directed edge per round.
    pub bandwidth_bits: usize,
}

impl Ctx<'_> {
    /// Whether this node may send a message to `to` in the current
    /// topology.
    pub fn can_send(&self, to: NodeId) -> bool {
        self.send_slot(to).is_some()
    }

    /// The [`SendCheck`] slot of a legal destination `to`: its position
    /// in [`Ctx::graph_neighbors`] under CONGEST, its id under the
    /// CONGESTED CLIQUE; `None` if this node may not send to `to`.
    fn send_slot(&self, to: NodeId) -> Option<usize> {
        match self.topology {
            Topology::Congest => self.graph_neighbors.binary_search(&to).ok(),
            Topology::CongestedClique => (to.index() < self.n && to != self.id).then(|| to.index()),
        }
    }
}

/// A distributed algorithm, written as a per-node state machine.
///
/// The simulator calls [`Algorithm::round`] once per node per round (in
/// node-id order, though well-formed algorithms must not depend on that),
/// delivering the messages sent to this node in the previous round. The
/// run ends when every node reports [`Algorithm::is_done`] and no messages
/// are in flight.
pub trait Algorithm {
    /// Message type exchanged by this algorithm.
    type Msg: Clone + MsgSize;
    /// Per-node output produced at the end of the run.
    type Output;

    /// Executes one round: consume the inbox, return the outbox.
    ///
    /// The inbox contains `(sender, message)` pairs sorted by sender id.
    /// Each outbox entry `(to, msg)` must satisfy the topology
    /// ([`Ctx::can_send`]), at most one message per destination, each at
    /// most [`Ctx::bandwidth_bits`] bits — violations abort the run with a
    /// [`SimError`].
    fn round(&mut self, ctx: &Ctx, inbox: &[(NodeId, Self::Msg)]) -> Vec<(NodeId, Self::Msg)>;

    /// Whether this node has terminated (quiescent and output-ready).
    fn is_done(&self, ctx: &Ctx) -> bool;

    /// Whether the engine may *skip* this node's [`Algorithm::round`]
    /// call in rounds where its inbox is empty (the
    /// [`Scheduling::ActiveSet`](crate::Scheduling::ActiveSet) policy).
    ///
    /// **Contract:** if `can_skip` returns `true` and the node's inbox
    /// is empty, `round` must be a pure no-op — no state mutation and an
    /// empty outbox — and `can_skip` must stay `true`, and `is_done`
    /// unchanged, for the unchanged state until a message arrives: the
    /// engine stops re-polling a skippable node with an empty inbox, so
    /// neither verdict may depend on `ctx.round`. Skipping a call that
    /// would have done nothing is unobservable, so both scheduling
    /// policies stay bit-identical.
    ///
    /// A node that is not done may report `true` while it only waits
    /// for mail: it sleeps until a message arrives and keeps the run
    /// open meanwhile ([`GatherScatter`](crate::primitives::GatherScatter)
    /// does this in its waiting states). A node that must act on the
    /// clock alone, such as a deadline, must report `false` until done.
    /// The default (`is_done`) satisfies the contract for plain state
    /// machines that go quiet once finished; algorithms whose `round`
    /// has residual side effects after `is_done` (stale-flag clearing,
    /// per-cycle resets) override this to exclude those states and are
    /// then simply never skipped.
    fn can_skip(&self, ctx: &Ctx) -> bool {
        self.is_done(ctx)
    }

    /// The node's final output.
    fn output(&self, ctx: &Ctx) -> Self::Output;
}

/// Result of a completed run: every node's output, indexed by node id,
/// and the run's communication [`Metrics`].
pub type Report<O> = pga_runtime::Run<O, Metrics>;

/// The simulation driver.
///
/// Construct with [`Simulator::congest`] or [`Simulator::congested_clique`],
/// tune with the builder-style setters, and run with
/// [`Simulator::run_cfg`].
#[derive(Clone, Copy)]
pub struct Simulator<'g> {
    g: &'g Graph,
    topology: Topology,
    bandwidth_bits: usize,
    max_rounds: usize,
}

/// The one-message-per-destination check for a node's outbox, in
/// constant time per message.
///
/// A table of generation stamps indexed by destination slot (see
/// [`check_message`]) plus the current generation: a destination is a
/// duplicate iff its slot already carries the current stamp.
/// [`SendCheck::begin`] starts a new outbox by bumping the generation,
/// so nothing is cleared between outboxes. The table grows to the
/// largest slot used: the maximum degree on CONGEST runs, at most `n`
/// on CONGESTED CLIQUE runs. Reuse one value across nodes and rounds.
#[derive(Debug, Default)]
pub struct SendCheck {
    stamps: Vec<u32>,
    generation: u32,
}

impl SendCheck {
    /// Starts a new outbox: every destination counts as unused again.
    /// Call once before a node's first [`check_message`] of a round.
    pub fn begin(&mut self) {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Wrapped: stamps from 2³² outboxes ago would alias.
            self.stamps.fill(0);
            self.generation = 1;
        }
    }

    /// Records `slot` for the current outbox; `false` if it already was.
    fn insert(&mut self, slot: usize) -> bool {
        debug_assert_ne!(self.generation, 0, "SendCheck::begin starts each outbox");
        if slot >= self.stamps.len() {
            self.stamps.resize(slot + 1, 0);
        }
        let stamp = &mut self.stamps[slot];
        let fresh = *stamp != self.generation;
        *stamp = self.generation;
        fresh
    }
}

/// Validates one outgoing message against the communication model and
/// returns its size in bits.
///
/// Shared by both engines so their model enforcement (and the errors they
/// raise) cannot drift apart. Public so external executors that simulate
/// the CONGEST model on another substrate (the `pga-mpc` adapter) apply
/// the exact same checks and raise the exact same errors.
///
/// `check` records the destinations this node has already sent to in
/// the current round (for the one-message-per-destination rule): call
/// [`SendCheck::begin`] once per outbox, then pass the same value for
/// each of its messages. A destination's slot is its position in
/// [`Ctx::graph_neighbors`] under CONGEST (found by the same binary
/// search as [`Ctx::can_send`]) and its id under the CONGESTED CLIQUE.
///
/// # Errors
///
/// Returns the same [`SimError`] the engines raise, checked in this
/// order: an illegal destination for the topology, a duplicate
/// destination, or a message larger than the bandwidth `B`.
pub fn check_message<M: MsgSize>(
    ctx: &Ctx,
    check: &mut SendCheck,
    to: NodeId,
    msg: &M,
) -> Result<usize, SimError> {
    let Some(slot) = ctx.send_slot(to) else {
        return Err(SimError::IllegalDestination {
            from: ctx.id,
            to,
            round: ctx.round,
        });
    };
    if !check.insert(slot) {
        return Err(SimError::DuplicateMessage {
            from: ctx.id,
            to,
            round: ctx.round,
        });
    }
    let size = msg.size_bits(ctx.id_bits);
    if size > ctx.bandwidth_bits {
        return Err(SimError::BandwidthExceeded {
            from: ctx.id,
            to,
            size_bits: size,
            limit_bits: ctx.bandwidth_bits,
            round: ctx.round,
        });
    }
    Ok(size)
}

/// Default bandwidth: `16·⌈log₂ n⌉ + 64` bits.
///
/// The CONGEST model allows `B = O(log n)`; the constant is chosen so a
/// message can carry a small constant number of identifiers plus a tag and
/// a 64-bit numeric payload (used by the randomized estimator of Lemma 29).
pub fn default_bandwidth_bits(n: usize) -> usize {
    16 * id_bits(n) + 64
}

/// `⌈log₂ n⌉`, with a minimum of 1.
pub fn id_bits(n: usize) -> usize {
    if n <= 2 {
        1
    } else {
        (n - 1).ilog2() as usize + 1
    }
}

/// The [`ExecModel`] instantiation that turns the shared round kernel
/// into the CONGEST / CONGESTED CLIQUE engine: per-message validation
/// via [`check_message`], bit charging, and [`Metrics`] accumulation
/// (including the per-round congestion profile).
struct CongestModel<'s, 'g, A> {
    sim: &'s Simulator<'g>,
    _algorithm: std::marker::PhantomData<fn(A)>,
}

impl<A: Algorithm> ExecModel for CongestModel<'_, '_, A> {
    type Id = NodeId;
    type Node = A;
    type Msg = A::Msg;
    type Output = A::Output;
    type Error = SimError;
    type Metrics = Metrics;
    type SendScratch = SendCheck;

    fn actor_cost(&self, _node: &A, idx: usize) -> u64 {
        self.sim.vertex_cost(idx)
    }

    fn poll(&self, node: &A, idx: usize, round: usize) -> Poll {
        let ctx = self.sim.ctx(NodeId::from_index(idx), round);
        Poll {
            done: node.is_done(&ctx),
            skippable: node.can_skip(&ctx),
        }
    }

    fn output(&self, node: &A, idx: usize, round: usize) -> A::Output {
        node.output(&self.sim.ctx(NodeId::from_index(idx), round))
    }

    fn round_limit_error(&self, limit: usize) -> SimError {
        SimError::RoundLimitExceeded { limit }
    }

    fn step<S: MsgSink<Self>>(
        &self,
        node: &mut A,
        idx: usize,
        round: usize,
        inbox: &[(NodeId, A::Msg)],
        check: &mut SendCheck,
        acc: &mut RoundProfile,
        sink: &mut S,
    ) -> Result<(), SimError> {
        let ctx = self.sim.ctx(NodeId::from_index(idx), round);
        let outbox = node.round(&ctx, inbox);
        if !outbox.is_empty() {
            check.begin();
        }
        // Accumulate in locals and fold into the shard profile once per
        // actor, so the hot loop keeps its counters in registers.
        let mut messages = 0u64;
        let mut volume = 0u64;
        let mut peak = 0usize;
        for (to, msg) in outbox {
            let size = check_message(&ctx, check, to, &msg)?;
            // Congestion is charged at actual delivery: the sink
            // reports how many copies traverse the edge (always 1 on
            // the clean engines; an adversary's drop charges 0, a
            // duplicate 2, a delay 1 at the transmit round).
            let copies = sink.deliver(self, to, ctx.id, msg);
            messages += u64::from(copies);
            volume += u64::from(copies) * size as u64;
            peak = peak.max(size * copies as usize);
            // Telemetry only: a no-op unless a probe allocated the
            // histogram, so the clean path stays branch-plus-nothing.
            acc.observe_size(size as u64, copies);
        }
        acc.messages += messages;
        acc.volume += volume;
        acc.peak_link = acc.peak_link.max(peak);
        Ok(())
    }

    fn wire_charge(&self, msg: &A::Msg) -> u64 {
        msg.size_bits(id_bits(self.sim.g.num_nodes())) as u64
    }

    fn arq_header_charge(&self) -> u64 {
        // One fixed 64-bit control word per data copy: the per-link
        // sequence number (and piggyback room), same width as the
        // B = Θ(log n) message budget's id fields.
        64
    }

    fn arq_ack_charge(&self) -> u64 {
        // A cumulative ack is one control word.
        64
    }

    fn end_round(&self, acc: &RoundProfile, _recv: &[usize], round: usize, metrics: &mut Metrics) {
        metrics.messages += acc.messages;
        metrics.bits += acc.volume;
        metrics.max_message_bits = metrics.max_message_bits.max(acc.peak_link);
        metrics.rounds = round + 1;
        metrics.congestion_profile.push(acc.peak_link);
    }

    fn finish(&self, metrics: &mut Metrics, fault: &FaultStats, convergence_round: usize) {
        metrics.fault = *fault;
        metrics.convergence_round = convergence_round;
    }
}

impl<'g> Simulator<'g> {
    /// A CONGEST simulator over the communication graph `g`.
    pub fn congest(g: &'g Graph) -> Self {
        Simulator {
            g,
            topology: Topology::Congest,
            bandwidth_bits: default_bandwidth_bits(g.num_nodes()),
            max_rounds: DEFAULT_MAX_ROUNDS,
        }
    }

    /// A CONGESTED CLIQUE simulator with input graph `g`.
    pub fn congested_clique(g: &'g Graph) -> Self {
        Simulator {
            topology: Topology::CongestedClique,
            ..Simulator::congest(g)
        }
    }

    /// Overrides the per-edge bandwidth `B` (bits per message).
    pub fn with_bandwidth_bits(mut self, bits: usize) -> Self {
        self.bandwidth_bits = bits;
        self
    }

    /// Overrides the safety round budget (default one million); a
    /// run's [`RunConfig::max_rounds`] overrides it in turn.
    pub fn with_max_rounds(mut self, max_rounds: usize) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// The per-vertex cost estimate the sharded store balances on:
    /// `degree + 1` (a vertex's per-round message work is proportional
    /// to its adjacency; the constant covers poll/step overhead).
    pub fn vertex_cost(&self, idx: usize) -> u64 {
        self.g.degree(NodeId::from_index(idx)) as u64 + 1
    }

    /// The contiguous shard boundaries an explicit `threads` count
    /// gives: the cost-balanced partition of
    /// [`pga_runtime::balanced_partition`] over
    /// [`Simulator::vertex_cost`]. Exposed so benches and tests can
    /// inspect per-shard load; boundaries never affect outputs, only
    /// wall-clock balance.
    pub fn shard_boundaries(&self, threads: usize) -> Vec<usize> {
        let costs: Vec<u64> = (0..self.g.num_nodes())
            .map(|i| self.vertex_cost(i))
            .collect();
        pga_runtime::balanced_partition(&costs, threads)
    }

    fn ctx(&self, id: NodeId, round: usize) -> Ctx<'_> {
        Ctx {
            id,
            n: self.g.num_nodes(),
            id_bits: id_bits(self.g.num_nodes()),
            graph_neighbors: self.g.neighbors(id),
            round,
            topology: self.topology,
            bandwidth_bits: self.bandwidth_bits,
        }
    }

    /// The [`ExecModel`] this simulator runs `A` under: what
    /// [`pga_runtime::execute`] and the deliberately naive
    /// [`pga_runtime::reference::run`] oracle drive.
    pub fn exec_model<A>(
        &self,
    ) -> impl ExecModel<
        Node = A,
        Msg = A::Msg,
        Output = A::Output,
        Error = SimError,
        Metrics = Metrics,
    > + use<'_, 'g, A>
    where
        A: Algorithm,
    {
        CongestModel {
            sim: self,
            _algorithm: std::marker::PhantomData,
        }
    }

    /// Runs `nodes` (one algorithm state per vertex, indexed by id) to
    /// completion under a [`RunConfig`] (see [`pga_runtime::execute`]).
    /// Every configuration is bit-identical on a clean run: outputs,
    /// [`Metrics`] (congestion profile included) and errors. With [`RunConfig::probe`] at its default, the run streams a
    /// trace to the path named by `PGA_TRACE`, if set.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] if a node violates the communication model
    /// or the round budget is exhausted (which adversarially starved
    /// runs routinely do — bound it with [`RunConfig::max_rounds`]).
    ///
    /// # Panics
    ///
    /// Panics if `nodes.len()` differs from the graph size.
    pub fn run_cfg<A>(&self, nodes: Vec<A>, cfg: &RunConfig) -> Result<Report<A::Output>, SimError>
    where
        A: Algorithm + Send,
        A::Msg: Send,
    {
        match JsonlProbe::from_run_config(cfg, "congest") {
            Some(probe) => self.run_cfg_probed(nodes, cfg, &probe),
            None => self.run_cfg_probed(nodes, cfg, &NoopProbe),
        }
    }

    /// [`Simulator::run_cfg`] with an explicit [`Probe`] attached (and
    /// [`RunConfig::probe`] ignored). The probe never changes outputs,
    /// [`Metrics`], or errors (*observer neutrality*; see
    /// [`pga_runtime::probe`]); [`NoopProbe`] compiles every callback
    /// and timer away.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] like [`Simulator::run_cfg`].
    ///
    /// # Panics
    ///
    /// Panics if `nodes.len()` differs from the graph size.
    pub fn run_cfg_probed<A, P>(
        &self,
        nodes: Vec<A>,
        cfg: &RunConfig,
        probe: &P,
    ) -> Result<Report<A::Output>, SimError>
    where
        A: Algorithm + Send,
        A::Msg: Send,
        P: Probe,
    {
        self.execute(nodes, cfg, None, probe)
    }

    /// [`Simulator::run_cfg`] under an explicit [`Adversary`] in place
    /// of [`RunConfig::fault`] (and without a trace sink): custom
    /// oracles, recording ([`crate::SeededAdversary::recording`]) and replay
    /// ([`crate::TraceAdversary`]). Fault decisions are pure functions of
    /// `(round, sender, seq)`, so the run is bit-identical for every
    /// engine, and a replayed trace reproduces its recording
    /// bit for bit. [`RunConfig::reliability`] still applies, with the
    /// ARQ plane running over `adversary`.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] like [`Simulator::run_cfg`].
    ///
    /// # Panics
    ///
    /// Panics if `nodes.len()` differs from the graph size.
    pub fn run_adversary<A>(
        &self,
        nodes: Vec<A>,
        cfg: &RunConfig,
        adversary: &dyn Adversary,
    ) -> Result<Report<A::Output>, SimError>
    where
        A: Algorithm + Send,
        A::Msg: Send,
    {
        self.execute(nodes, cfg, Some(adversary), &NoopProbe)
    }

    fn execute<A, P>(
        &self,
        nodes: Vec<A>,
        cfg: &RunConfig,
        adversary: Option<&dyn Adversary>,
        probe: &P,
    ) -> Result<Report<A::Output>, SimError>
    where
        A: Algorithm + Send,
        A::Msg: Send,
        P: Probe,
    {
        assert_eq!(
            nodes.len(),
            self.g.num_nodes(),
            "one algorithm state per vertex required"
        );
        let cfg = RunConfig {
            max_rounds: Some(cfg.max_rounds.unwrap_or(self.max_rounds)),
            ..*cfg
        };
        let model = self.exec_model::<A>();
        pga_runtime::execute_under(&model, nodes, &cfg, adversary, probe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Word;
    impl MsgSize for Word {
        fn size_bits(&self, id_bits: usize) -> usize {
            id_bits
        }
    }

    /// Sends one [`Word`] from `ctx` to each of `to` under `check`.
    fn send_all(ctx: &Ctx, check: &mut SendCheck, to: impl IntoIterator<Item = u32>) {
        for v in to {
            let sent = check_message(ctx, check, NodeId(v), &Word);
            assert_eq!(sent, Ok(ctx.id_bits), "{:?} → {v}", ctx.id);
        }
    }

    #[test]
    fn send_check_survives_generation_wrap() {
        let g = pga_graph::generators::path(10);
        let sim = Simulator::congested_clique(&g);
        let ctx = sim.ctx(NodeId(9), 4);
        // Stale stamps from generations 1 and 2, which the wrap re-enters;
        // slots 7 and 8 are fresh (zero) when the table grows.
        let mut check = SendCheck {
            stamps: vec![1, 2, 1, 2, 1, 2, 1],
            generation: u32::MAX - 1,
        };
        for last in [2, 8, 8] {
            check.begin();
            send_all(&ctx, &mut check, 0..=last);
            assert_eq!(
                check_message(&ctx, &mut check, NodeId(last), &Word),
                Err(SimError::DuplicateMessage {
                    from: NodeId(9),
                    to: NodeId(last),
                    round: 4
                })
            );
        }
        assert_eq!(check.generation, 2);
    }

    #[test]
    fn send_check_table_stays_within_the_maximum_degree() {
        // A path visiting 0, n-1, 1, n-2, …: every vertex has degree at
        // most 2, and most have a high-id neighbor.
        let n = 64u32;
        let order: Vec<u32> = (0..n / 2).flat_map(|i| [i, n - 1 - i]).collect();
        let edges: Vec<(u32, u32)> = order.windows(2).map(|w| (w[0], w[1])).collect();
        let g = Graph::from_edges(n as usize, &edges);
        let sim = Simulator::congest(&g);
        let mut check = SendCheck::default();
        for round in 0..3 {
            for v in g.nodes() {
                let ctx = sim.ctx(v, round);
                check.begin();
                send_all(&ctx, &mut check, ctx.graph_neighbors.iter().map(|u| u.0));
            }
        }
        assert_eq!(g.max_degree(), 2);
        assert!(check.stamps.len() <= g.max_degree());
    }

    proptest::proptest! {
        /// `id_bits(n)` is the exact width of the largest id `n - 1`, at
        /// every scale up to `2³³` nodes.
        #[test]
        fn id_bits_is_the_width_of_the_largest_id(
            k in 1u32..=33,
            r in proptest::prelude::any::<u64>(),
        ) {
            let n = ((r >> (64 - k)) as usize).max(2);
            let largest = (n - 1) as u64;
            let b = id_bits(n);
            proptest::prop_assert_eq!(largest >> b, 0, "n = {}", n);
            proptest::prop_assert_eq!(largest >> (b - 1), 1, "n = {}", n);
        }
    }
}
