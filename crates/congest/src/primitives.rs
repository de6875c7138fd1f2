//! Reusable distributed primitives.
//!
//! The centerpiece is [`GatherScatter`], the pattern Algorithm 1's second
//! phase is built from (Lemma 2 of the paper): build a BFS tree rooted at a
//! leader, *pipeline* every node's items up the tree to the leader
//! (convergecast), let the leader compute a response locally, and pipeline
//! the response back down to every node (broadcast). With `k` total items
//! and diameter `D`, the whole pattern costs `O(k + D)` rounds — the
//! pipelining argument the paper invokes for "the leader can learn `c`
//! pieces of information per node in `O(c · n)` rounds".
//!
//! The leader is fixed to node 0. The paper elects a leader by id; with the
//! globally-known dense id space `0..n` this election is free, and it does
//! not affect any asymptotic round count (leader election costs `O(D)`,
//! dominated by every use of this primitive).

use crate::sim::{Algorithm, Ctx, MsgSize};
use pga_graph::NodeId;
use std::collections::VecDeque;
use std::sync::Arc;

/// Messages exchanged by [`GatherScatter`].
#[derive(Clone, Debug, PartialEq)]
pub enum GsMsg<I, D> {
    /// BFS-tree construction: "I have joined the tree; my parent is ...".
    /// `parent == Some(you)` tells the receiver the sender is its child;
    /// the root sends `parent == None`.
    Explore {
        /// The sender's chosen parent in the BFS tree.
        parent: Option<NodeId>,
    },
    /// One pipelined item traveling toward the root.
    Up(I),
    /// The sender's subtree has no more items to send.
    UpDone,
    /// One pipelined response item traveling from the root to everyone.
    Down(D),
    /// No more response items. `complete` tells the subtree whether the
    /// response was computed from the *full* gather (`true` on every
    /// clean run) or from a partial aggregate after the root's phase
    /// deadline expired (see [`GatherScatter::with_deadline`]).
    DownEnd {
        /// Whether the broadcast response reflects every item in the
        /// network.
        complete: bool,
    },
}

impl<I: MsgSize, D: MsgSize> MsgSize for GsMsg<I, D> {
    fn size_bits(&self, id_bits: usize) -> usize {
        // 3 tag bits plus the payload.
        3 + match self {
            GsMsg::Explore { parent } => 1 + parent.map_or(0, |_| id_bits),
            GsMsg::Up(i) => i.size_bits(id_bits),
            GsMsg::UpDone => 0,
            GsMsg::Down(d) => d.size_bits(id_bits),
            GsMsg::DownEnd { .. } => 1,
        }
    }
}

/// The local computation performed by the leader once it has gathered all
/// items: it receives every item in the network (including its own) and
/// returns the response to broadcast.
///
/// `Send + Sync` so [`GatherScatter`] states can be driven by the sharded
/// multi-shard engine ([`crate::Simulator::run_cfg`] with
/// [`RunConfig::parallel`](crate::RunConfig::parallel)) as well as
/// the sequential one.
pub type LeaderCompute<I, D> = Arc<dyn Fn(Vec<I>) -> Vec<D> + Send + Sync>;

enum Phase {
    /// Waiting to join the BFS tree (root starts immediately).
    Joining,
    /// Announcing tree membership next round.
    Announce,
    /// Forwarding items toward the root.
    Upcast,
    /// Forwarding response items toward the leaves.
    Downcast,
    /// Finished.
    Done,
}

/// Per-node result of a [`GatherScatter`] run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GsOutput<D> {
    /// The response items this node received (the full leader response
    /// on a clean run; a prefix of it after a timeout).
    pub response: Vec<D>,
    /// Whether this node knows the response reflects **every** item in
    /// the network: `true` exactly when a `DownEnd` flagged complete
    /// arrived. Always `true` on a clean run; after a phase timeout a
    /// node with `complete == false` must treat its own contribution as
    /// unprocessed and fall back conservatively.
    pub complete: bool,
}

/// Per-node state machine for the gather–compute–scatter pattern.
///
/// Every node contributes a list of items; node 0 acts as the leader,
/// applies `compute` to the multiset of all items, and the result is
/// broadcast so every node's output is the full response vector.
///
/// Requires a connected input graph.
///
/// Most nodes spend most of the `O(k + D)` rounds waiting for mail, and
/// a waiting node reports [`Algorithm::can_skip`], so the active-set
/// kernel lets it sleep until its next message. With no deadline armed
/// the waiting states are:
///
/// - a non-root node still joining the tree (the root acts at round 0);
/// - an upcasting node that has not heard from every neighbor yet;
/// - the root while some child's subtree has not reported `UpDone`;
/// - a non-root upcasting node with nothing to forward while some child
///   has not reported `UpDone`;
/// - a downcasting node with an empty response queue and no `DownEnd`
///   to pass on.
///
/// With a deadline armed ([`GatherScatter::with_deadline`]) the clock
/// may act on any unfinished node, so only a finished node sleeps.
pub struct GatherScatter<I, D> {
    items: VecDeque<I>,
    compute: LeaderCompute<I, D>,
    phase: Phase,
    parent: Option<NodeId>,
    /// Neighbors whose Explore we have heard (to learn child status).
    heard_from: Vec<NodeId>,
    children: Vec<NodeId>,
    children_done: usize,
    gathered: Vec<I>,
    response: Vec<D>,
    down_queue: VecDeque<D>,
    down_end_pending: bool,
    sent_up_done: bool,
    /// Phase deadline in rounds (see [`GatherScatter::with_deadline`]).
    deadline: Option<usize>,
    /// Whether the received (or, at the root, computed) response covers
    /// every item in the network.
    complete: bool,
}

impl<I, D> GatherScatter<I, D> {
    /// Creates the state for one node with its local `items`.
    ///
    /// `compute` is only invoked at node 0 but every node carries a handle
    /// (the states are homogeneous).
    pub fn new(items: Vec<I>, compute: LeaderCompute<I, D>) -> Self {
        GatherScatter {
            items: items.into(),
            compute,
            phase: Phase::Joining,
            parent: None,
            heard_from: Vec::new(),
            children: Vec::new(),
            children_done: 0,
            gathered: Vec::new(),
            response: Vec::new(),
            down_queue: VecDeque::new(),
            down_end_pending: false,
            sent_up_done: false,
            deadline: None,
            complete: false,
        }
    }

    /// Arms the phase timeout: if the root has not completed its gather
    /// by round `deadline`, it computes from the **partial aggregate**
    /// it holds and broadcasts the response flagged incomplete; any node
    /// still unfinished at the hard deadline (`2 * deadline + 8`,
    /// covering the downcast of the late response) finalizes with what
    /// it has, `complete == false`. On a run where every message
    /// eventually arrives (e.g. under the ARQ plane with no dead links)
    /// a large enough deadline never fires and the output is exactly
    /// the clean run's. `None` (the default) waits forever.
    pub fn with_deadline(mut self, deadline: Option<usize>) -> Self {
        self.deadline = deadline;
        self
    }

    fn is_root(&self, ctx: &Ctx) -> bool {
        ctx.id == NodeId(0)
    }

    fn tree_known(&self, ctx: &Ctx) -> bool {
        // All neighbors have announced, so the children set is final.
        self.heard_from.len() == ctx.graph_neighbors.len()
    }

    /// Whether the root has received everything: all children reported
    /// their subtrees drained. (The root's own items never travel and are
    /// merged in [`GatherScatter::start_downcast`].)
    fn upcast_complete(&self) -> bool {
        self.children_done == self.children.len()
    }
}

impl<I, D: Clone> GatherScatter<I, D> {
    fn start_downcast(&mut self, ctx: &Ctx, complete: bool) {
        let gathered = std::mem::take(&mut self.gathered);
        let mut items: Vec<I> = gathered;
        items.extend(std::mem::take(&mut self.items));
        self.response = (self.compute)(items);
        self.down_queue = self.response.iter().cloned().collect::<VecDeque<D>>();
        self.down_end_pending = true;
        self.complete = complete;
        self.phase = Phase::Downcast;
        let _ = ctx;
    }
}

impl<I: Clone + MsgSize, D: Clone + MsgSize> Algorithm for GatherScatter<I, D> {
    type Msg = GsMsg<I, D>;
    type Output = GsOutput<D>;

    fn round(&mut self, ctx: &Ctx, inbox: &[(NodeId, Self::Msg)]) -> Vec<(NodeId, Self::Msg)> {
        let mut out: Vec<(NodeId, Self::Msg)> = Vec::new();

        // Ingest messages.
        for (from, msg) in inbox {
            match msg {
                GsMsg::Explore { parent } => {
                    self.heard_from.push(*from);
                    if *parent == Some(ctx.id) {
                        self.children.push(*from);
                    }
                    if matches!(self.phase, Phase::Joining)
                        && !self.is_root(ctx)
                        && self.parent.is_none()
                    {
                        // First Explore this round: choose the smallest
                        // sender as parent (inbox is sorted by sender).
                        self.parent = Some(*from);
                        self.phase = Phase::Announce;
                    }
                }
                GsMsg::Up(item) => self.gathered.push(item.clone()),
                GsMsg::UpDone => self.children_done += 1,
                GsMsg::Down(d) => {
                    self.response.push(d.clone());
                    self.down_queue.push_back(d.clone());
                }
                GsMsg::DownEnd { complete } => {
                    self.down_end_pending = true;
                    self.complete = *complete;
                }
            }
        }

        // Phase-timeout fallback (see `with_deadline`): past the hard
        // deadline every node finalizes with what it holds; past the
        // soft deadline the root computes from its partial aggregate
        // and downcasts the response flagged incomplete.
        if let Some(d) = self.deadline {
            if ctx.round >= 2 * d + 8 && !matches!(self.phase, Phase::Done) {
                self.phase = Phase::Done;
                return out;
            }
            if self.is_root(ctx) && matches!(self.phase, Phase::Upcast) && ctx.round >= d {
                self.start_downcast(ctx, false);
            }
        }

        // Root bootstraps the BFS wave.
        if self.is_root(ctx) && ctx.round == 0 {
            self.phase = Phase::Upcast;
            for &v in ctx.graph_neighbors {
                out.push((v, GsMsg::Explore { parent: None }));
            }
            // Handle the single-node network.
            if ctx.graph_neighbors.is_empty() {
                self.start_downcast(ctx, true);
                self.phase = Phase::Done;
            }
            return out;
        }

        match self.phase {
            Phase::Joining => {}
            Phase::Announce => {
                // Tell every neighbor our parent; this is both the BFS wave
                // and the child/non-child notification.
                for &v in ctx.graph_neighbors {
                    out.push((
                        v,
                        GsMsg::Explore {
                            parent: self.parent,
                        },
                    ));
                }
                self.phase = Phase::Upcast;
            }
            Phase::Upcast => {
                if self.tree_known(ctx) {
                    if self.is_root(ctx) {
                        if self.upcast_complete() {
                            self.start_downcast(ctx, true);
                        }
                    } else if let Some(p) = self.parent {
                        // Pipeline: forward received items first, then our
                        // own, one per round; finish with UpDone.
                        if let Some(item) = self.gathered.pop() {
                            out.push((p, GsMsg::Up(item)));
                        } else if let Some(item) = self.items.pop_front() {
                            out.push((p, GsMsg::Up(item)));
                        } else if self.children_done == self.children.len() && !self.sent_up_done {
                            out.push((p, GsMsg::UpDone));
                            self.sent_up_done = true;
                            self.phase = Phase::Downcast;
                        }
                    }
                }
            }
            Phase::Downcast => {}
            Phase::Done => {}
        }

        // Downcast forwarding runs for every node that has a queue, even
        // the root right after computing.
        if matches!(self.phase, Phase::Downcast) {
            if let Some(d) = self.down_queue.pop_front() {
                for &c in &self.children {
                    out.push((c, GsMsg::Down(d.clone())));
                }
            } else if self.down_end_pending {
                for &c in &self.children {
                    out.push((
                        c,
                        GsMsg::DownEnd {
                            complete: self.complete,
                        },
                    ));
                }
                self.down_end_pending = false;
                self.phase = Phase::Done;
            }
        }

        out
    }

    fn is_done(&self, _ctx: &Ctx) -> bool {
        matches!(self.phase, Phase::Done)
    }

    fn can_skip(&self, ctx: &Ctx) -> bool {
        if self.deadline.is_some() {
            // Deadlines are clock-driven: an armed node must be stepped
            // each round to notice one fire, so only `Done` may sleep.
            return matches!(self.phase, Phase::Done);
        }
        // The waiting states (see the type's docs). None reads
        // `ctx.round`, so the verdict holds while the state is frozen.
        match self.phase {
            Phase::Done => true,
            Phase::Joining => !self.is_root(ctx),
            Phase::Announce => false,
            Phase::Upcast if !self.tree_known(ctx) => true,
            Phase::Upcast if self.is_root(ctx) => !self.upcast_complete(),
            Phase::Upcast => {
                self.gathered.is_empty() && self.items.is_empty() && !self.upcast_complete()
            }
            Phase::Downcast => self.down_queue.is_empty() && !self.down_end_pending,
        }
    }

    fn output(&self, _ctx: &Ctx) -> GsOutput<D> {
        GsOutput {
            response: self.response.clone(),
            complete: self.complete,
        }
    }
}

/// A `u64` payload counted as a given number of bits.
///
/// Convenience for tests and simple algorithms: wraps a value together
/// with its declared model size.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SizedU64 {
    /// The payload value.
    pub value: u64,
    /// Declared size in bits.
    pub bits: usize,
}

impl MsgSize for SizedU64 {
    fn size_bits(&self, _id_bits: usize) -> usize {
        self.bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulator;
    use pga_graph::generators;
    use pga_runtime::RunConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run_sum(g: &pga_graph::Graph) -> (Vec<GsOutput<SizedU64>>, crate::Metrics) {
        let n = g.num_nodes();
        let compute: LeaderCompute<SizedU64, SizedU64> = Arc::new(|items: Vec<SizedU64>| {
            let s: u64 = items.iter().map(|i| i.value).sum();
            vec![SizedU64 { value: s, bits: 64 }]
        });
        let nodes = (0..n)
            .map(|i| {
                GatherScatter::new(
                    vec![SizedU64 {
                        value: i as u64,
                        bits: 64,
                    }],
                    Arc::clone(&compute),
                )
            })
            .collect();
        let report = Simulator::congest(g)
            .run_cfg(nodes, &RunConfig::new())
            .unwrap();
        (report.outputs, report.metrics)
    }

    #[test]
    fn gather_scatter_sums_on_path() {
        let g = generators::path(7);
        let (outputs, metrics) = run_sum(&g);
        let expect: u64 = (0..7).sum();
        for o in &outputs {
            assert_eq!(o.response.len(), 1);
            assert_eq!(o.response[0].value, expect);
            assert!(o.complete);
        }
        assert!(metrics.rounds > 0);
    }

    #[test]
    fn gather_scatter_on_single_node() {
        let g = pga_graph::Graph::empty(1);
        let (outputs, _metrics) = run_sum(&g);
        assert_eq!(outputs[0].response[0].value, 0);
        assert!(outputs[0].complete);
    }

    #[test]
    fn gather_scatter_on_star_and_grid() {
        for g in [generators::star(9), generators::grid(4, 4)] {
            let n = g.num_nodes();
            let (outputs, _m) = run_sum(&g);
            let expect: u64 = (0..n as u64).sum();
            assert!(outputs
                .iter()
                .all(|o| o.response[0].value == expect && o.complete));
        }
    }

    #[test]
    fn gather_scatter_on_random_connected() {
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..5 {
            let g = generators::connected_gnp(40, 0.05, &mut rng);
            let (outputs, _m) = run_sum(&g);
            let expect: u64 = (0..40u64).sum();
            assert!(outputs
                .iter()
                .all(|o| o.response[0].value == expect && o.complete));
        }
    }

    #[test]
    fn multi_item_multi_response() {
        // Every node contributes 3 items; leader echoes all back sorted.
        let g = generators::cycle(6);
        let compute: LeaderCompute<SizedU64, SizedU64> = Arc::new(|mut items: Vec<SizedU64>| {
            items.sort_by_key(|i| i.value);
            items
        });
        let nodes = (0..6)
            .map(|i| {
                GatherScatter::new(
                    (0..3)
                        .map(|j| SizedU64 {
                            value: (i * 3 + j) as u64,
                            bits: 32,
                        })
                        .collect(),
                    Arc::clone(&compute),
                )
            })
            .collect();
        let report = Simulator::congest(&g)
            .run_cfg(nodes, &RunConfig::new())
            .unwrap();
        for o in &report.outputs {
            assert_eq!(o.response.len(), 18);
            let values: Vec<u64> = o.response.iter().map(|d| d.value).collect();
            assert_eq!(values, (0..18u64).collect::<Vec<_>>());
        }
    }

    #[test]
    fn pipelining_round_bound() {
        // k total items over diameter D must finish in O(k + D) rounds;
        // check a generous constant.
        let g = generators::path(20); // D = 19
        let (outputs, metrics) = run_sum(&g);
        assert_eq!(outputs.len(), 20);
        let k = 20; // one item per node
        let d = 19;
        assert!(
            metrics.rounds <= 4 * (k + d) + 10,
            "rounds {} too large",
            metrics.rounds
        );
    }

    #[test]
    fn empty_items_everywhere() {
        let g = generators::path(4);
        let compute: LeaderCompute<SizedU64, SizedU64> = Arc::new(|items: Vec<SizedU64>| {
            assert!(items.is_empty());
            vec![SizedU64 { value: 7, bits: 8 }]
        });
        let nodes = (0..4)
            .map(|_| GatherScatter::new(Vec::new(), Arc::clone(&compute)))
            .collect();
        let report = Simulator::congest(&g)
            .run_cfg(nodes, &RunConfig::new())
            .unwrap();
        assert!(report
            .outputs
            .iter()
            .all(|o| o.response == vec![SizedU64 { value: 7, bits: 8 }] && o.complete));
    }

    /// A deadline larger than the clean round count never fires: the
    /// output is exactly the clean run's, complete everywhere.
    #[test]
    fn generous_deadline_is_invisible() {
        let g = generators::path(7);
        let compute: LeaderCompute<SizedU64, SizedU64> = Arc::new(|items: Vec<SizedU64>| {
            let s: u64 = items.iter().map(|i| i.value).sum();
            vec![SizedU64 { value: s, bits: 64 }]
        });
        let nodes = (0..7)
            .map(|i| {
                GatherScatter::new(
                    vec![SizedU64 {
                        value: i as u64,
                        bits: 64,
                    }],
                    Arc::clone(&compute),
                )
                .with_deadline(Some(1_000))
            })
            .collect();
        let report = Simulator::congest(&g)
            .run_cfg(nodes, &RunConfig::new())
            .unwrap();
        let (clean, _) = run_sum(&g);
        assert_eq!(report.outputs, clean);
    }

    /// A deadline shorter than the gather forces the root to compute
    /// from a partial aggregate: the run still terminates, the root's
    /// output is flagged incomplete, and every node that received the
    /// late response carries the same (partial) sum.
    #[test]
    fn tight_deadline_degrades_to_partial_aggregate() {
        let g = generators::path(7);
        let compute: LeaderCompute<SizedU64, SizedU64> = Arc::new(|items: Vec<SizedU64>| {
            let s: u64 = items.iter().map(|i| i.value).sum();
            vec![SizedU64 { value: s, bits: 64 }]
        });
        let nodes = (0..7)
            .map(|i| {
                GatherScatter::new(
                    vec![SizedU64 {
                        value: i as u64,
                        bits: 64,
                    }],
                    Arc::clone(&compute),
                )
                .with_deadline(Some(2))
            })
            .collect();
        let report = Simulator::congest(&g)
            .run_cfg(nodes, &RunConfig::new())
            .unwrap();
        // The root times out before the far end of the path reports.
        assert!(!report.outputs[0].complete);
        let full: u64 = (0..7).sum();
        assert!(report.outputs[0].response[0].value < full);
        // Incomplete outputs are never mistaken for complete ones.
        for o in &report.outputs {
            assert!(!o.complete);
        }
    }
}

/// Classic flood-max leader election: every node repeatedly forwards the
/// largest id it has heard; after the flood quiesces every node knows the
/// global maximum. Terminates in `O(D)` rounds on a connected graph.
///
/// Provided as a reference algorithm and engine validation — the paper's
/// constructions fix node 0 as the leader instead (ids `0..n` are global
/// knowledge), which costs zero rounds.
pub struct FloodMax {
    best: u32,
    changed: bool,
    quiet: bool,
}

/// Message of [`FloodMax`]: a candidate maximum id.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MaxId(pub u32);

impl MsgSize for MaxId {
    fn size_bits(&self, id_bits: usize) -> usize {
        id_bits
    }
}

impl FloodMax {
    /// State for the node with the given id.
    pub fn new(id: NodeId) -> Self {
        FloodMax {
            best: id.0,
            changed: false,
            quiet: false,
        }
    }
}

impl Algorithm for FloodMax {
    type Msg = MaxId;
    type Output = NodeId;

    fn round(&mut self, ctx: &Ctx, inbox: &[(NodeId, MaxId)]) -> Vec<(NodeId, MaxId)> {
        for (_, m) in inbox {
            if m.0 > self.best {
                self.best = m.0;
                self.changed = true;
            }
        }
        let send = ctx.round == 0 || self.changed;
        self.changed = false;
        self.quiet = !send;
        if send {
            ctx.graph_neighbors
                .iter()
                .map(|&v| (v, MaxId(self.best)))
                .collect()
        } else {
            Vec::new()
        }
    }

    fn is_done(&self, _ctx: &Ctx) -> bool {
        self.quiet
    }

    fn output(&self, _ctx: &Ctx) -> NodeId {
        NodeId(self.best)
    }
}

#[cfg(test)]
mod flood_tests {
    use super::*;
    use crate::sim::Simulator;
    use pga_graph::generators;
    use pga_graph::traversal::diameter;
    use pga_runtime::RunConfig;

    #[test]
    fn flood_max_elects_global_maximum() {
        for g in [
            generators::path(12),
            generators::star(9),
            generators::grid(3, 4),
        ] {
            let n = g.num_nodes();
            let report = Simulator::congest(&g)
                .run_cfg(
                    (0..n)
                        .map(|i| FloodMax::new(NodeId::from_index(i)))
                        .collect(),
                    &RunConfig::new(),
                )
                .unwrap();
            assert!(report
                .outputs
                .iter()
                .all(|&l| l == NodeId::from_index(n - 1)));
            let d = diameter(&g).unwrap();
            assert!(report.metrics.rounds <= 2 * d + 3);
        }
    }

    #[test]
    fn flood_max_on_single_vertex() {
        let g = pga_graph::Graph::empty(1);
        let report = Simulator::congest(&g)
            .run_cfg(vec![FloodMax::new(NodeId(0))], &RunConfig::new())
            .unwrap();
        assert_eq!(report.outputs[0], NodeId(0));
    }
}

#[cfg(test)]
mod msg_size_tests {
    use super::*;
    use crate::sim::{default_bandwidth_bits, id_bits};
    use proptest::prelude::*;

    fn arb_sized() -> impl Strategy<Value = SizedU64> {
        (any::<u64>(), any::<usize>()).prop_map(|(value, bits)| SizedU64 { value, bits })
    }

    /// Every arm of [`GsMsg`], with full-range payloads.
    fn arb_gs_msg() -> impl Strategy<Value = GsMsg<SizedU64, SizedU64>> {
        prop_oneof![
            Just(GsMsg::Explore { parent: None }),
            any::<u32>().prop_map(|p| GsMsg::Explore {
                parent: Some(NodeId(p)),
            }),
            arb_sized().prop_map(GsMsg::Up),
            Just(GsMsg::UpDone),
            arb_sized().prop_map(GsMsg::Down),
            any::<bool>().prop_map(|complete| GsMsg::DownEnd { complete }),
        ]
    }

    proptest! {
        #[test]
        fn max_id_fits_default_bandwidth(id in any::<u32>()) {
            let m = MaxId(id);
            for b in 1..=32 {
                let n = 1usize << b;
                prop_assert!(m.size_bits(id_bits(n)) <= default_bandwidth_bits(n));
            }
            // The charge holds the id in the smallest network that has it.
            let n = (id as usize + 1).max(2);
            prop_assert_eq!(u64::from(id) >> m.size_bits(id_bits(n)), 0);
        }

        /// The 3-bit tag rides on top of the payload, so a payload that
        /// leaves room for it keeps the whole message within `B`.
        #[test]
        fn gs_msg_fits_when_its_payload_leaves_room_for_the_tag(
            m in arb_gs_msg(),
            b in 1usize..=32,
        ) {
            let n = 1usize << b;
            let room = default_bandwidth_bits(n) - 3;
            let fit = |s: SizedU64| SizedU64 {
                value: s.value,
                bits: s.bits % (room + 1),
            };
            let m = match m {
                GsMsg::Up(s) => GsMsg::Up(fit(s)),
                GsMsg::Down(s) => GsMsg::Down(fit(s)),
                other => other,
            };
            prop_assert!(m.size_bits(id_bits(n)) <= default_bandwidth_bits(n));
            if let GsMsg::Up(s) | GsMsg::Down(s) = &m {
                prop_assert_eq!(m.size_bits(b), 3 + s.bits);
            }
        }
    }
}
