//! The CONGEST-to-MPC adapter: runs any [`pga_congest::Algorithm`] on
//! the MPC engine by vertex-partitioning its nodes across machines.
//!
//! Each machine hosts a contiguous range of vertices together with their
//! adjacency lists (the standard vertex-partitioned input distribution of
//! the low-space MPC literature). One MPC round simulates exactly one
//! CONGEST round: a machine drives its hosted nodes'
//! [`Algorithm::round`] callbacks, validates each outgoing message with
//! the *same* [`pga_congest::check_message`] the CONGEST engines use
//! (so model violations raise the identical `SimError`, wrapped in
//! [`MpcError::Congest`]), and routes messages whose destination lives
//! on another machine through the MPC exchange, batched per destination
//! machine. Messages between co-hosted vertices stay machine-local and
//! cost no MPC communication.
//!
//! Routing costs one cheap hop per message. A `vertex → machine` owner
//! table, built once per run and shared by every machine, names a
//! destination's machine with one read. Cross-machine messages go to a
//! per-machine staging buffer, reused across rounds, which is
//! stable-sorted by destination after the hosted nodes step and cut into
//! ascending-destination [`RoutedBatch`]es. A batch keeps its first entry
//! inline, so the usual one-entry batch costs no heap allocation.
//!
//! Scheduling follows the run's [`Scheduling`] policy at both levels.
//! Under [`Scheduling::ActiveSet`] a stepped machine skips each hosted
//! node with an empty inbox that reports [`Algorithm::can_skip`], so it
//! steps exactly the nodes the CONGEST active set would. A machine with
//! no machine-local mail in flight whose hosted nodes all report
//! `can_skip` reports [`Machine::can_skip`] itself, and the MPC kernel
//! lets it sleep until a batch arrives. A shard records its congestion
//! profile as sparse `(round, peak)` pairs, one for each round in which
//! it sent, and the driver merges them into the dense per-round profile
//! once; the rounds a shard sleeps through cost it nothing.
//! [`Scheduling::FullSweep`] steps every machine and every hosted node
//! every round.
//!
//! The adapter is **bit-identical** to `Simulator::run_cfg`: same per-node
//! outputs, same CONGEST [`Metrics`] (messages, bits, per-round
//! congestion profile), same round count, same error on a model
//! violation — property-tested for FloodMax and the paper's `G²` entry
//! points. On top of that fidelity it *accounts* the run in MPC terms:
//! machine memory against the budget `S`, and per-round send/receive
//! volume against the same `S`.

use crate::engine::{Machine, MachineId, MpcCtx, MpcError, MpcSimulator, WordSize};
use crate::metrics::MpcMetrics;
use crate::util::{cut_batches, owner_table};
use pga_congest::{
    check_message, id_bits, Algorithm, Ctx, Metrics, NoopProbe, RunConfig, Scheduling, SendCheck,
    Topology,
};
use pga_graph::{Graph, NodeId};
use std::sync::Arc;

/// Words charged per hosted vertex for bookkeeping state beyond the
/// algorithm state itself (inbox cursors, done flags, ...).
const NODE_OVERHEAD_WORDS: usize = 4;

/// One routed CONGEST message: `(from, to, payload)`.
type Routed<M> = (NodeId, NodeId, M);

/// A cross-machine message awaiting batching: `(destination machine,
/// (words, message))`.
type Staged<M> = (MachineId, (usize, Routed<M>));

/// What a [`CongestShard`] reports: its hosted nodes' outputs, its
/// share of the metrics (with an empty congestion profile) and its
/// sparse `(round, peak)` congestion profile.
type ShardOutput<O> = (Vec<O>, Metrics, Vec<(usize, usize)>);

/// A batch of routed CONGEST messages traveling between two machines in
/// one MPC round: `(from, to, payload)` triples in ascending sender
/// order, with the total word size precomputed at send time (word
/// accounting needs `id_bits`, which only the sender knows).
///
/// The first entry is stored inline and the others in `rest`, which
/// stays unallocated for a one-entry batch: with a vertex or two per
/// machine most batches carry a single message, and such a batch costs
/// no heap allocation to build and no pointer chase to deliver.
#[derive(Clone)]
pub struct RoutedBatch<M> {
    first: Routed<M>,
    rest: Vec<Routed<M>>,
    words: usize,
}

impl<M> RoutedBatch<M> {
    /// The entries in sender order.
    fn entries(&self) -> impl Iterator<Item = &Routed<M>> {
        std::iter::once(&self.first).chain(&self.rest)
    }
}

impl<M> WordSize for RoutedBatch<M> {
    fn size_bits(&self, _id_bits: usize) -> usize {
        64 * self.words
    }

    fn size_words(&self) -> usize {
        self.words
    }
}

/// Words one routed CONGEST message occupies: a one-word envelope
/// (sender and destination ids pack into 64 bits) plus the payload
/// rounded up to whole words.
fn entry_words(bits: usize) -> usize {
    1 + bits.div_ceil(64)
}

/// One MPC machine hosting the CONGEST nodes `starts[id]..starts[id+1]`.
pub struct CongestShard<'g, A: Algorithm> {
    g: &'g Graph,
    /// First hosted vertex index.
    lo: usize,
    nodes: Vec<A>,
    /// The machine hosting each vertex, indexed by vertex; one table per
    /// run, shared by every machine.
    owner: Arc<[MachineId]>,
    topology: Topology,
    bandwidth_bits: usize,
    /// CONGEST messages between co-hosted vertices, carried to the next
    /// round without touching the MPC exchange.
    local_next: Vec<Routed<A::Msg>>,
    /// Word size of `local_next` (counted toward machine memory).
    local_words: usize,
    /// This round's cross-machine messages in send order; emptied into
    /// batches at the end of every round and reused.
    staged: Vec<Staged<A::Msg>>,
    /// This machine's share of the CONGEST-level metrics, without the
    /// congestion profile; its `fault.delivered` counts the messages
    /// handed to hosted nodes.
    metrics: Metrics,
    /// The congestion profile as `(round, peak bits)`, one pair for each
    /// round in which a hosted node sent.
    profile: Vec<(usize, usize)>,
    /// Cached `Σ deg(v)` over hosted vertices.
    adjacency_words: usize,
    /// The duplicate-destination check, reused by every hosted vertex.
    send: SendCheck,
    /// Each hosted node's mail for the coming CONGEST round; the
    /// buffers keep their capacity across rounds.
    inboxes: Vec<Vec<(NodeId, A::Msg)>>,
    /// The run's policy: whether idle hosted nodes are skipped.
    scheduling: Scheduling,
}

impl<'g, A: Algorithm> CongestShard<'g, A> {
    /// A machine hosting `nodes` as vertices `lo..lo + nodes.len()`.
    fn new(
        on: &CongestOnMpc<'g>,
        lo: usize,
        nodes: Vec<A>,
        owner: &Arc<[MachineId]>,
        scheduling: Scheduling,
    ) -> Self {
        let hi = lo + nodes.len();
        CongestShard {
            g: on.g,
            lo,
            inboxes: nodes.iter().map(|_| Vec::new()).collect(),
            nodes,
            owner: Arc::clone(owner),
            topology: on.topology,
            bandwidth_bits: on.bandwidth_bits,
            local_next: Vec::new(),
            local_words: 0,
            staged: Vec::new(),
            metrics: Metrics::default(),
            profile: Vec::new(),
            adjacency_words: (lo..hi).map(|v| on.g.degree(NodeId::from_index(v))).sum(),
            send: SendCheck::default(),
            scheduling,
        }
    }

    fn hosted(&self) -> usize {
        self.nodes.len()
    }

    fn congest_ctx(&self, k: usize, round: usize) -> Ctx<'g> {
        let id = NodeId::from_index(self.lo + k);
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
}

impl<A: Algorithm> Machine for CongestShard<'_, A> {
    type Msg = RoutedBatch<A::Msg>;
    type Output = ShardOutput<A::Output>;

    fn round(
        &mut self,
        ctx: &MpcCtx,
        inbox: &[(MachineId, Self::Msg)],
    ) -> Result<Vec<(MachineId, Self::Msg)>, MpcError> {
        // 1. Deliver: remote batches plus carried-over local messages
        //    into per-node inboxes, sorted by sender (the CONGEST
        //    contract).
        let mut handed = self.local_next.len();
        for (_, batch) in inbox {
            handed += 1 + batch.rest.len();
            for (from, to, msg) in batch.entries() {
                self.inboxes[to.index() - self.lo].push((*from, msg.clone()));
            }
        }
        for (from, to, msg) in self.local_next.drain(..) {
            self.inboxes[to.index() - self.lo].push((from, msg));
        }
        self.metrics.fault.delivered += handed as u64;
        self.local_words = 0;

        // 2. Execute one CONGEST round for every hosted node the policy
        //    steps, in id order, enforcing the CONGEST model with the
        //    engines' own check and staging cross-machine messages. Under
        //    the active set a node with no mail that may skip is left
        //    alone, exactly as the CONGEST kernel leaves it.
        let skip_idle = self.scheduling == Scheduling::ActiveSet;
        let mut round_peak = 0usize;
        let msgs_before = self.metrics.messages;
        for k in 0..self.hosted() {
            let cctx = self.congest_ctx(k, ctx.round);
            let node_inbox = &mut self.inboxes[k];
            if skip_idle && node_inbox.is_empty() && self.nodes[k].can_skip(&cctx) {
                continue;
            }
            node_inbox.sort_by_key(|&(from, _)| from);
            let outbox = self.nodes[k].round(&cctx, node_inbox);
            node_inbox.clear();
            if !outbox.is_empty() {
                self.send.begin();
            }
            for (to, msg) in outbox {
                let bits =
                    check_message(&cctx, &mut self.send, to, &msg).map_err(MpcError::Congest)?;
                self.metrics.messages += 1;
                self.metrics.bits += bits as u64;
                self.metrics.max_message_bits = self.metrics.max_message_bits.max(bits);
                round_peak = round_peak.max(bits);
                let words = entry_words(bits);
                let dest = self.owner[to.index()];
                if dest == ctx.id {
                    self.local_words += words;
                    self.local_next.push((cctx.id, to, msg));
                } else {
                    self.staged.push((dest, (words, (cctx.id, to, msg))));
                }
            }
        }
        if self.metrics.messages > msgs_before {
            // A round without sends peaks at 0, which the merged
            // profile's padding already reads.
            self.profile.push((ctx.round, round_peak));
            // Mirrors the kernel's quiescence detector: mail staged in
            // CONGEST round r is consumed in round r + 1, so the plane
            // can only be quiet from r + 2 on.
            self.metrics.convergence_round = ctx.round + 2;
        }

        // 3. Batch: the stable sort keeps each batch in sender order.
        Ok(cut_batches(
            &mut self.staged,
            |(words, first)| RoutedBatch {
                first,
                rest: Vec::new(),
                words,
            },
            |batch, (words, entry)| {
                batch.rest.push(entry);
                batch.words += words;
            },
        ))
    }

    fn memory_words(&self) -> usize {
        self.adjacency_words
            + self.hosted() * (NODE_OVERHEAD_WORDS + std::mem::size_of::<A>().div_ceil(8))
            + self.local_words
    }

    fn is_done(&self, ctx: &MpcCtx) -> bool {
        self.local_next.is_empty()
            && self
                .nodes
                .iter()
                .enumerate()
                .all(|(k, node)| node.is_done(&self.congest_ctx(k, ctx.round)))
    }

    fn can_skip(&self, ctx: &MpcCtx) -> bool {
        // With no machine-local mail in flight and every hosted node
        // waiting, a call with an empty inbox would step no node: the
        // shard's accounting is by round number, so skipping it changes
        // nothing. Each node's verdict ignores `ctx.round` by its own
        // contract, so this one does too.
        self.local_next.is_empty()
            && self
                .nodes
                .iter()
                .enumerate()
                .all(|(k, node)| node.can_skip(&self.congest_ctx(k, ctx.round)))
    }

    fn output(&self, ctx: &MpcCtx) -> Self::Output {
        // `ctx.round` is the number of rounds the run stepped, whether
        // or not this machine was stepped in the last of them.
        let metrics = Metrics {
            rounds: ctx.round,
            ..self.metrics.clone()
        };
        (
            self.nodes
                .iter()
                .enumerate()
                .map(|(k, node)| node.output(&self.congest_ctx(k, ctx.round)))
                .collect(),
            metrics,
            self.profile.clone(),
        )
    }
}

/// Result of a CONGEST algorithm executed through the MPC adapter.
#[derive(Debug)]
pub struct AdapterReport<O> {
    /// Output of every CONGEST node, indexed by node id — identical to
    /// `Simulator::run_cfg(..).outputs` on a clean run.
    pub outputs: Vec<O>,
    /// CONGEST-level metrics, merged across machines — identical to
    /// `Simulator::run_cfg(..).metrics` on a clean run.
    pub congest: Metrics,
    /// MPC-level resource metrics of the same execution.
    pub mpc: MpcMetrics,
    /// Number of machines the vertex set was partitioned onto.
    pub machines: usize,
}

/// Driver for running CONGEST algorithms through the MPC adapter.
///
/// Mirrors the `Simulator` builder: construct with
/// [`CongestOnMpc::congest`] (or [`CongestOnMpc::congested_clique`]),
/// tune budgets with the setters, then [`CongestOnMpc::run_cfg`].
pub struct CongestOnMpc<'g> {
    g: &'g Graph,
    topology: Topology,
    bandwidth_bits: usize,
    memory_words: usize,
    max_rounds: usize,
}

/// A memory budget `S` (in words) sufficient for the adapter to host
/// `g`'s fattest vertex and its worst-case per-round message traffic:
/// `max(256, n^0.7, 2 · worst vertex cost)`.
///
/// The worst vertex cost includes a 64-word (512-byte) allowance for
/// per-node algorithm state; run an algorithm with a larger `Self` via
/// an explicit [`CongestOnMpc::with_memory_words`] budget (the core
/// crate's `_mpc` entry points compute the exact bound).
///
/// The direct simulation sends CONGEST messages in the round they are
/// issued, so the machine hosting a degree-`Δ` vertex genuinely needs
/// `Ω(Δ)` words — graphs with `Δ ≫ n^δ` would need the round-stretching
/// (graph exponentiation) techniques of the MPC literature to run in
/// truly sublinear space.
pub fn recommended_memory_words(g: &Graph, bandwidth_bits: usize) -> usize {
    const STATE_ALLOWANCE_WORDS: usize = 64;
    let worst = (0..g.num_nodes())
        .map(|v| {
            adapter_vertex_cost(
                g.degree(NodeId::from_index(v)),
                bandwidth_bits,
                STATE_ALLOWANCE_WORDS,
            )
        })
        .max()
        .unwrap_or(0);
    crate::engine::low_space_words(g.num_nodes().max(1), 0.7)
        .max(2 * worst)
        .max(256)
}

/// Words the adapter reserves per hosted vertex when packing the
/// partition: bookkeeping overhead, the algorithm state, and room for
/// one full-bandwidth message per incident edge.
///
/// Public so callers that know their algorithm's exact state size (the
/// core crate's `_mpc` entry points use `size_of::<A>()` words) can
/// compute a tight budget: a partition always exists iff
/// `S ≥ 2 · max_v adapter_vertex_cost(deg(v), B, state)`.
pub fn adapter_vertex_cost(degree: usize, bandwidth_bits: usize, state_words: usize) -> usize {
    NODE_OVERHEAD_WORDS + state_words + degree * entry_words(bandwidth_bits)
}

impl<'g> CongestOnMpc<'g> {
    /// An adapter for the CONGEST topology over the communication graph
    /// `g`, with the CONGEST default bandwidth and a memory budget from
    /// [`recommended_memory_words`].
    pub fn congest(g: &'g Graph) -> Self {
        let bandwidth_bits = pga_congest::default_bandwidth_bits(g.num_nodes());
        CongestOnMpc {
            g,
            topology: Topology::Congest,
            bandwidth_bits,
            memory_words: recommended_memory_words(g, bandwidth_bits),
            max_rounds: 1_000_000,
        }
    }

    /// An adapter for the CONGESTED CLIQUE topology with input graph `g`.
    ///
    /// Every vertex may message all `n - 1` others per round, so hosting
    /// a vertex costs `Ω(n)` words of I/O headroom — the default budget
    /// here is correspondingly large (direct clique simulation is not a
    /// low-space workload).
    pub fn congested_clique(g: &'g Graph) -> Self {
        let bandwidth_bits = pga_congest::default_bandwidth_bits(g.num_nodes());
        let n = g.num_nodes();
        let worst = adapter_vertex_cost(n.saturating_sub(1), bandwidth_bits, 64);
        CongestOnMpc {
            g,
            topology: Topology::CongestedClique,
            bandwidth_bits,
            memory_words: (2 * worst).max(256),
            max_rounds: 1_000_000,
        }
    }

    /// Overrides the per-machine memory budget `S` (words).
    pub fn with_memory_words(mut self, words: usize) -> Self {
        self.memory_words = words;
        self
    }

    /// Overrides the CONGEST per-edge bandwidth `B` (bits per message).
    pub fn with_bandwidth_bits(mut self, bits: usize) -> Self {
        self.bandwidth_bits = bits;
        self
    }

    /// Overrides the safety round budget (default one million).
    pub fn with_max_rounds(mut self, max_rounds: usize) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// The per-machine memory budget `S` in words.
    pub fn memory_words(&self) -> usize {
        self.memory_words
    }

    /// Vertex partition for state size `state_words`: returns `starts`
    /// with machine `k` hosting `starts[k]..starts[k + 1]`. Contiguous
    /// greedy packing, each machine's reserved cost at most `S / 2`
    /// (the other half is runtime headroom for message buffers).
    fn partition(&self, state_words: usize) -> Result<Vec<usize>, MpcError> {
        let n = self.g.num_nodes();
        let costs = (0..n).map(|v| {
            let degree = match self.topology {
                Topology::Congest => self.g.degree(NodeId::from_index(v)),
                Topology::CongestedClique => n - 1,
            };
            adapter_vertex_cost(degree, self.bandwidth_bits, state_words)
        });
        crate::util::greedy_partition(
            costs,
            self.memory_words / 2,
            "memory budget S cannot host the busiest vertex; raise S with with_memory_words \
             (the adapter needs S ≥ 2·(Δ·(1 + ⌈B/64⌉) + state))",
        )
    }

    /// Runs `nodes` (one CONGEST state per vertex, indexed by id)
    /// through the adapter under a [`RunConfig`].
    ///
    /// The whole config reaches the MPC run: engine and thread count,
    /// scheduling, round budget, and the fault and reliability planes,
    /// which then act on the cross-machine exchange. The CONGEST
    /// [`Metrics`]' `fault.delivered` counts the messages that actually
    /// reached a hosted node, so a dropped cross-machine batch shows up
    /// there. The adapter never writes a trace: the MPC run always gets the
    /// [`NoopProbe`](pga_congest::NoopProbe).
    ///
    /// # Errors
    ///
    /// [`MpcError::Congest`] wraps the exact `SimError` the CONGEST
    /// engines would raise on a model violation; the other variants
    /// report MPC budget violations.
    ///
    /// # Panics
    ///
    /// Panics if `nodes.len()` differs from the graph size.
    pub fn run_cfg<A>(
        &self,
        nodes: Vec<A>,
        cfg: &RunConfig,
    ) -> Result<AdapterReport<A::Output>, MpcError>
    where
        A: Algorithm + Send,
        A::Msg: Send,
    {
        let n = self.g.num_nodes();
        assert_eq!(nodes.len(), n, "one algorithm state per vertex required");
        let machines = self.shards(nodes, cfg.scheduling)?;
        let num_machines = machines.len();
        let report = MpcSimulator::new(self.memory_words)
            .with_max_rounds(self.max_rounds)
            .run_cfg_probed(machines, cfg, &NoopProbe)?;
        let (outputs, congest) = merge_shards(report.outputs);
        Ok(AdapterReport {
            outputs,
            congest,
            mpc: report.metrics,
            machines: num_machines,
        })
    }

    /// One [`CongestShard`] per machine of the partition, hosting
    /// `nodes` in id order.
    fn shards<A: Algorithm>(
        &self,
        mut nodes: Vec<A>,
        scheduling: Scheduling,
    ) -> Result<Vec<CongestShard<'g, A>>, MpcError> {
        let starts = self.partition(std::mem::size_of::<A>().div_ceil(8))?;
        let owner = owner_table(&starts);
        let mut machines: Vec<CongestShard<'g, A>> = starts
            .windows(2)
            .rev()
            .map(|w| {
                let hosted = nodes.split_off(w[0]);
                CongestShard::new(self, w[0], hosted, &owner, scheduling)
            })
            .collect();
        machines.reverse();
        Ok(machines)
    }
}

/// Merges the shards' outputs, in machine order, into per-node outputs
/// and the run's CONGEST [`Metrics`]: counters add, maxima take the
/// maximum, and the sparse `(round, peak)` profiles fold into the dense
/// per-round congestion profile.
fn merge_shards<O>(shards: Vec<ShardOutput<O>>) -> (Vec<O>, Metrics) {
    let mut outputs = Vec::new();
    let mut congest = Metrics::default();
    for (shard_outputs, shard_metrics, profile) in shards {
        outputs.extend(shard_outputs);
        congest.messages += shard_metrics.messages;
        congest.bits += shard_metrics.bits;
        congest.max_message_bits = congest.max_message_bits.max(shard_metrics.max_message_bits);
        // Every shard reports the run's round count.
        congest.rounds = shard_metrics.rounds;
        congest.congestion_profile.resize(shard_metrics.rounds, 0);
        for (round, peak) in profile {
            let slot = &mut congest.congestion_profile[round];
            *slot = (*slot).max(peak);
        }
        congest.convergence_round = congest
            .convergence_round
            .max(shard_metrics.convergence_round);
        congest.fault.delivered += shard_metrics.fault.delivered;
    }
    (outputs, congest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pga_congest::primitives::FloodMax;
    use pga_congest::{Engine, FaultSpec, Simulator};
    use pga_graph::generators;

    fn floodmax_states(n: usize) -> Vec<FloodMax> {
        (0..n)
            .map(|i| FloodMax::new(NodeId::from_index(i)))
            .collect()
    }

    #[test]
    fn floodmax_bit_identical_to_congest_sim() {
        for g in [
            generators::path(30),
            generators::grid(6, 7),
            generators::star(25),
            generators::clique_chain(4, 6),
        ] {
            let n = g.num_nodes();
            let reference = Simulator::congest(&g)
                .run_cfg(floodmax_states(n), &RunConfig::new())
                .unwrap();
            let adapter = CongestOnMpc::congest(&g)
                .with_memory_words(512)
                .run_cfg(floodmax_states(n), &RunConfig::new())
                .unwrap();
            assert_eq!(adapter.outputs, reference.outputs, "{g:?}");
            assert_eq!(adapter.congest, reference.metrics, "{g:?}");
            assert!(adapter.machines >= 1);
            assert!(adapter.mpc.peak_memory_words <= 512);
        }
    }

    #[test]
    fn partition_covers_all_vertices_contiguously() {
        let g = generators::grid(8, 8);
        let adapter = CongestOnMpc::congest(&g).with_memory_words(300);
        let starts = adapter.partition(4).unwrap();
        assert_eq!(starts[0], 0);
        assert_eq!(*starts.last().unwrap(), 64);
        assert!(starts.windows(2).all(|w| w[0] < w[1]));
        assert!(
            starts.len() - 1 > 1,
            "small budget must yield several machines"
        );
    }

    #[test]
    fn budget_too_small_for_hub_is_rejected() {
        let g = generators::star(40);
        let err = CongestOnMpc::congest(&g)
            .with_memory_words(64)
            .run_cfg(floodmax_states(40), &RunConfig::new())
            .unwrap_err();
        assert!(matches!(err, MpcError::PreconditionViolated { .. }));
    }

    #[test]
    fn congest_violation_surfaces_identically() {
        use pga_congest::{MsgSize, SimError};
        #[derive(Clone)]
        struct Ping;
        impl MsgSize for Ping {
            fn size_bits(&self, _id_bits: usize) -> usize {
                1
            }
        }
        struct Bad;
        impl Algorithm for Bad {
            type Msg = Ping;
            type Output = ();
            fn round(&mut self, ctx: &Ctx, _inbox: &[(NodeId, Ping)]) -> Vec<(NodeId, Ping)> {
                if ctx.id == NodeId(5) && ctx.round == 0 {
                    vec![(NodeId(0), Ping)] // not a path-neighbor
                } else {
                    Vec::new()
                }
            }
            fn is_done(&self, _ctx: &Ctx) -> bool {
                false
            }
            fn output(&self, _ctx: &Ctx) {}
        }
        let g = generators::path(8);
        let reference = Simulator::congest(&g)
            .run_cfg((0..8).map(|_| Bad).collect::<Vec<_>>(), &RunConfig::new())
            .unwrap_err();
        let adapter = CongestOnMpc::congest(&g)
            .run_cfg((0..8).map(|_| Bad).collect::<Vec<_>>(), &RunConfig::new())
            .unwrap_err();
        assert_eq!(adapter, MpcError::Congest(reference.clone()));
        assert!(matches!(
            reference,
            SimError::IllegalDestination {
                from: NodeId(5),
                ..
            }
        ));
    }

    #[test]
    fn clique_topology_supported() {
        use pga_congest::MsgSize;
        #[derive(Clone)]
        struct Val(u32);
        impl MsgSize for Val {
            fn size_bits(&self, id_bits: usize) -> usize {
                id_bits
            }
        }
        struct Shout {
            best: u32,
            done: bool,
        }
        impl Algorithm for Shout {
            type Msg = Val;
            type Output = u32;
            fn round(&mut self, ctx: &Ctx, inbox: &[(NodeId, Val)]) -> Vec<(NodeId, Val)> {
                for (_, m) in inbox {
                    self.best = self.best.max(m.0);
                }
                if ctx.round == 0 {
                    (0..ctx.n)
                        .filter(|&j| j != ctx.id.index())
                        .map(|j| (NodeId::from_index(j), Val(self.best)))
                        .collect()
                } else {
                    self.done = true;
                    Vec::new()
                }
            }
            fn is_done(&self, _ctx: &Ctx) -> bool {
                self.done
            }
            fn output(&self, _ctx: &Ctx) -> u32 {
                self.best
            }
        }
        let g = generators::path(10);
        let mk = || {
            (0..10)
                .map(|i| Shout {
                    best: i as u32,
                    done: false,
                })
                .collect::<Vec<_>>()
        };
        let reference = Simulator::congested_clique(&g)
            .run_cfg(mk(), &RunConfig::new())
            .unwrap();
        let adapter = CongestOnMpc::congested_clique(&g)
            .run_cfg(mk(), &RunConfig::new())
            .unwrap();
        assert_eq!(adapter.outputs, reference.outputs);
        assert_eq!(adapter.congest, reference.metrics);
    }

    #[test]
    fn parallel_engine_matches_sequential_adapter() {
        let g = generators::grid(7, 9);
        let n = g.num_nodes();
        let on_mpc = CongestOnMpc::congest(&g).with_memory_words(400);
        let seq = on_mpc
            .run_cfg(floodmax_states(n), &RunConfig::new())
            .unwrap();
        for threads in [2, 4] {
            let par = on_mpc
                .run_cfg(
                    floodmax_states(n),
                    &RunConfig::new().engine(Engine::Parallel { threads }),
                )
                .unwrap();
            assert_eq!(par.outputs, seq.outputs, "t={threads}");
            assert_eq!(par.congest, seq.congest, "t={threads}");
            assert_eq!(par.mpc, seq.mpc, "t={threads}");
        }
    }

    #[test]
    fn delivered_counts_the_messages_that_reach_a_node() {
        let g = generators::grid(7, 9);
        let n = g.num_nodes();
        let on_mpc = CongestOnMpc::congest(&g).with_memory_words(400);
        let clean = on_mpc
            .run_cfg(floodmax_states(n), &RunConfig::new())
            .unwrap();
        assert!(clean.machines >= 2, "{} machines", clean.machines);
        assert_eq!(clean.congest.fault.delivered, clean.congest.messages);
        // Drop-only adversary, no reliability: lost cross-machine batches
        // never reach their nodes, so fewer messages arrive than were sent.
        let lossy = on_mpc
            .run_cfg(
                floodmax_states(n),
                &RunConfig::new().adversary(FaultSpec::seeded(3).drop(0.5)),
            )
            .unwrap();
        assert!(lossy.mpc.fault.dropped > 0, "{:?}", lossy.mpc.fault);
        assert!(
            lossy.congest.fault.delivered < lossy.congest.messages,
            "{} delivered of {}",
            lossy.congest.fault.delivered,
            lossy.congest.messages
        );
    }

    #[test]
    fn empty_graph_trivial() {
        let g = Graph::empty(0);
        let report = CongestOnMpc::congest(&g)
            .run_cfg(Vec::<FloodMax>::new(), &RunConfig::new())
            .unwrap();
        assert!(report.outputs.is_empty());
        assert_eq!(report.congest, Metrics::default());
        assert_eq!(report.machines, 0);
    }

    /// Builds a shard by hand (bypassing the partitioner, whose headroom
    /// reservation exists precisely to keep honest runs within budget):
    /// machine `k` hosts `starts[k]..starts[k + 1]`.
    fn raw_shard<'a, A: Algorithm>(
        g: &'a Graph,
        lo: usize,
        nodes: Vec<A>,
        starts: &[usize],
        bandwidth_bits: usize,
    ) -> CongestShard<'a, A> {
        let on_mpc = CongestOnMpc::congest(g).with_bandwidth_bits(bandwidth_bits);
        CongestShard::new(
            &on_mpc,
            lo,
            nodes,
            &owner_table(starts),
            Scheduling::ActiveSet,
        )
    }

    #[test]
    fn shard_sleeps_only_when_every_node_waits_and_no_local_mail_is_in_flight() {
        use pga_congest::MsgSize;
        #[derive(Clone)]
        struct Ping;
        impl MsgSize for Ping {
            fn size_bits(&self, _id_bits: usize) -> usize {
                1
            }
        }
        /// Never done; waits for mail unless `busy`.
        struct Waiter {
            busy: bool,
        }
        impl Algorithm for Waiter {
            type Msg = Ping;
            type Output = ();
            fn round(&mut self, _ctx: &Ctx, _inbox: &[(NodeId, Ping)]) -> Vec<(NodeId, Ping)> {
                Vec::new()
            }
            fn is_done(&self, _ctx: &Ctx) -> bool {
                false
            }
            fn can_skip(&self, _ctx: &Ctx) -> bool {
                !self.busy
            }
            fn output(&self, _ctx: &Ctx) {}
        }
        let g = generators::path(4);
        let starts = [0, 4];
        let waiters = |busy: [bool; 4]| busy.map(|busy| Waiter { busy }).into();
        let ctx = MpcCtx {
            id: MachineId(0),
            machines: 1,
            round: 3,
            memory_words: 512,
        };
        let mut shard = raw_shard(&g, 0, waiters([false; 4]), &starts, 64);
        assert!(shard.can_skip(&ctx));
        assert!(!shard.is_done(&ctx));
        shard.local_next.push((NodeId(1), NodeId(2), Ping));
        assert!(!shard.can_skip(&ctx), "machine-local mail is in flight");
        let busy = raw_shard(&g, 0, waiters([false, false, true, false]), &starts, 64);
        assert!(!busy.can_skip(&ctx), "one hosted node must be stepped");
    }

    /// A one-bit message.
    #[derive(Clone)]
    struct Bit;
    impl pga_congest::MsgSize for Bit {
        fn size_bits(&self, _id_bits: usize) -> usize {
            1
        }
    }

    /// Sends a [`Bit`] to each of `to`, in that order, in round `at`;
    /// never done, so never skipped.
    struct Scripted {
        at: usize,
        to: Vec<NodeId>,
    }
    impl Scripted {
        fn new(at: usize, to: &[u32]) -> Self {
            let to = to.iter().map(|&v| NodeId(v)).collect();
            Scripted { at, to }
        }
    }
    impl Algorithm for Scripted {
        type Msg = Bit;
        type Output = ();
        fn round(&mut self, ctx: &Ctx, _inbox: &[(NodeId, Bit)]) -> Vec<(NodeId, Bit)> {
            if ctx.round == self.at {
                self.to.iter().map(|&v| (v, Bit)).collect()
            } else {
                Vec::new()
            }
        }
        fn is_done(&self, _ctx: &Ctx) -> bool {
            false
        }
        fn output(&self, _ctx: &Ctx) {}
    }

    fn machine_ctx(id: u32, machines: usize, round: usize) -> MpcCtx {
        MpcCtx {
            id: MachineId(id),
            machines,
            round,
            memory_words: 512,
        }
    }

    #[test]
    fn batches_ascend_by_destination_in_sender_order() {
        // Machine 0 hosts {0, 1}, machine 1 hosts {2, 3}, machine 2 {4}.
        // Node 0 sends to machine 2, machine 1 (twice) and co-hosted 1,
        // out of destination order; node 1 then sends to machine 1.
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)]);
        let nodes = vec![Scripted::new(0, &[4, 3, 1, 2]), Scripted::new(0, &[2])];
        let mut shard = raw_shard(&g, 0, nodes, &[0, 2, 4, 5], 64);
        let batches = shard.round(&machine_ctx(0, 3, 0), &[]).unwrap();
        let dests: Vec<MachineId> = batches.iter().map(|&(m, _)| m).collect();
        assert_eq!(dests, [MachineId(1), MachineId(2)]);
        let pairs = |b: &RoutedBatch<Bit>| -> Vec<(u32, u32)> {
            b.entries().map(|&(from, to, _)| (from.0, to.0)).collect()
        };
        let (multi, single) = (&batches[0].1, &batches[1].1);
        assert_eq!(pairs(multi), [(0, 3), (0, 2), (1, 2)]);
        assert_eq!(pairs(single), [(0, 4)]);
        assert_eq!(multi.words, 3 * entry_words(1));
        assert_eq!(single.words, entry_words(1));
        // The two shapes: a multi-entry batch spills into `rest`, a
        // one-entry batch leaves it unallocated.
        assert_eq!(multi.rest.len(), 2);
        assert_eq!(single.rest.capacity(), 0);
        // The co-hosted message stays on the machine.
        let local: Vec<(u32, u32)> = shard
            .local_next
            .iter()
            .map(|&(from, to, _)| (from.0, to.0))
            .collect();
        assert_eq!(local, [(0, 1)]);
        assert_eq!(shard.local_words, entry_words(1));
        assert!(shard.staged.is_empty());
    }

    #[test]
    fn sparse_profile_grows_only_in_rounds_the_shard_sent_in() {
        let g = generators::path(2);
        let nodes = vec![Scripted::new(5, &[1]), Scripted::new(5, &[])];
        let mut shard = raw_shard(&g, 0, nodes, &[0, 2], 64);
        for round in [0, 5, 9] {
            let sent = shard.round(&machine_ctx(0, 1, round), &[]).unwrap();
            assert!(sent.is_empty(), "the only message is machine-local");
        }
        assert_eq!(shard.profile, [(5, 1)]);
        let (_, metrics, profile) = shard.output(&machine_ctx(0, 1, 10));
        assert_eq!(profile, [(5, 1)]);
        assert!(metrics.congestion_profile.is_empty());
        assert_eq!((metrics.messages, metrics.fault.delivered), (1, 1));
    }

    #[test]
    fn merged_profile_equals_the_congest_engine_while_machines_sleep() {
        use pga_congest::primitives::{GatherScatter, LeaderCompute, SizedU64};
        type Gs = GatherScatter<SizedU64, SizedU64>;
        // One item travels from the far end of a path to the root and
        // back: a few vertices are busy at a time, so most machines sleep
        // through most rounds.
        let n = 48;
        let g = generators::path(n);
        let compute: LeaderCompute<SizedU64, SizedU64> = Arc::new(|items| items);
        let states = || -> Vec<Gs> {
            (0..n)
                .map(|i| {
                    let items = if i == n - 1 {
                        vec![SizedU64 { value: 7, bits: 16 }]
                    } else {
                        Vec::new()
                    };
                    GatherScatter::new(items, Arc::clone(&compute))
                })
                .collect()
        };
        let cfg = RunConfig::new();
        let reference = Simulator::congest(&g).run_cfg(states(), &cfg).unwrap();
        let bandwidth = pga_congest::default_bandwidth_bits(n);
        let state_words = std::mem::size_of::<Gs>().div_ceil(8);
        let on_mpc = CongestOnMpc::congest(&g)
            .with_memory_words(2 * adapter_vertex_cost(2, bandwidth, state_words));

        let shards = on_mpc.shards(states(), cfg.scheduling).unwrap();
        let machines = shards.len();
        let report = MpcSimulator::new(on_mpc.memory_words())
            .run_cfg(shards, &cfg)
            .unwrap();
        let rounds = reference.metrics.rounds;
        let records: usize = report.outputs.iter().map(|(_, _, p)| p.len()).sum();
        assert!(machines >= 16, "{machines} machines");
        assert!(
            4 * records < machines * rounds,
            "{records} profile records over {machines} machines and {rounds} rounds"
        );
        let (outputs, congest) = merge_shards(report.outputs);
        assert_eq!(outputs, reference.outputs);
        assert_eq!(congest, reference.metrics);
        let adapter = on_mpc.run_cfg(states(), &cfg).unwrap();
        assert_eq!(adapter.congest, reference.metrics);
    }

    #[test]
    fn memory_budget_enforced_on_overpacked_shard() {
        // Everything on one machine: the initial memory check rejects the
        // partition with a typed violation before any round runs.
        let g = generators::path(40);
        let starts = [0, 40];
        let shard = raw_shard(&g, 0, floodmax_states(40), &starts, 64);
        let err = MpcSimulator::new(64)
            .run_cfg(vec![shard], &RunConfig::new())
            .unwrap_err();
        assert!(
            matches!(
                err,
                MpcError::MemoryExceeded {
                    machine: MachineId(0),
                    round: 0,
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn io_budget_enforced_on_fat_messages() {
        // A star hub shipping full-bandwidth messages to every leaf in
        // one round: each CONGEST message is legal, but the hub machine's
        // aggregate send volume blows the MPC cap.
        use pga_congest::MsgSize;
        #[derive(Clone)]
        struct Fat;
        impl MsgSize for Fat {
            fn size_bits(&self, _id_bits: usize) -> usize {
                4096
            }
        }
        struct Hub {
            sent: bool,
        }
        impl Algorithm for Hub {
            type Msg = Fat;
            type Output = ();
            fn round(&mut self, ctx: &Ctx, _inbox: &[(NodeId, Fat)]) -> Vec<(NodeId, Fat)> {
                if ctx.round == 0 && ctx.id == NodeId(0) {
                    self.sent = true;
                    ctx.graph_neighbors.iter().map(|&v| (v, Fat)).collect()
                } else {
                    Vec::new()
                }
            }
            fn is_done(&self, _ctx: &Ctx) -> bool {
                self.sent
            }
            fn output(&self, _ctx: &Ctx) {}
        }
        let g = generators::star(20);
        let starts = [0, 1, 20];
        let hub = raw_shard(&g, 0, vec![Hub { sent: false }], &starts, 4096);
        let leaves = raw_shard(
            &g,
            1,
            (1..20).map(|_| Hub { sent: false }).collect(),
            &starts,
            4096,
        );
        // Hub memory: 19 + 5 words; leaves: 19 + 19·5 words — both fit
        // S = 300, but the hub's round-0 batch is 19·(1 + 64) = 1235 words.
        let err = MpcSimulator::new(300)
            .run_cfg(vec![hub, leaves], &RunConfig::new())
            .unwrap_err();
        assert_eq!(
            err,
            MpcError::SendVolumeExceeded {
                machine: MachineId(0),
                words: 1235,
                limit_words: 300,
                round: 0
            }
        );
    }
}
