//! Reusable distributed primitives.
//!
//! The centerpiece is [`GatherScatter`], the pattern Algorithm 1's second
//! phase is built from (Lemma 2 of the paper): build a BFS tree rooted at a
//! leader, *pipeline* every node's items up the tree to the leader
//! (convergecast), let the leader compute a response locally, and pipeline
//! the response back down to every node (broadcast). Each message carries
//! a [`Batch`] of items filled greedily up to the bandwidth `B`, so with
//! diameter `D` the whole pattern costs `O(⌈total item bits / B⌉ + D)`
//! rounds (at most `O(k + D)` for `k` items) — the pipelining argument
//! the paper invokes for "the leader can learn `c` pieces of information
//! per node in `O(c · n)` rounds".
//!
//! The leader is fixed to node 0. The paper elects a leader by id; with the
//! globally-known dense id space `0..n` this election is free, and it does
//! not affect any asymptotic round count (leader election costs `O(D)`,
//! dominated by every use of this primitive).

use crate::sim::{Algorithm, Ctx, MsgSize};
use pga_graph::NodeId;
use std::collections::VecDeque;
use std::sync::Arc;

/// Bits of the [`GsMsg`] tag: five arms plus the one-item forms of `Up`
/// and `Down` fit in eight values.
const TAG_BITS: usize = 3;

/// `⌈log₂(B + 1)⌉`: the width of a [`Batch`]'s count field, which
/// holds any count up to `B`.
fn count_bits(bandwidth_bits: usize) -> usize {
    (usize::BITS - bandwidth_bits.leading_zeros()) as usize
}

/// Pipelined items that travel together in one [`GsMsg::Up`] or
/// [`GsMsg::Down`].
///
/// A batch of two or more items carries a count field of
/// `⌈log₂(B + 1)⌉` bits for the bandwidth `B` it was packed against. A
/// one-item batch has a tag value of its own and no count field, so it
/// costs exactly what a bare item costs.
#[derive(Clone, Debug, PartialEq)]
pub struct Batch<T> {
    items: Vec<T>,
    count_bits: usize,
}

impl<T> Batch<T> {
    /// Wraps `items` as one message packed against bandwidth
    /// `bandwidth_bits` (which sizes the count field). See
    /// [`batch_len`] for how many items fit.
    pub fn new(items: Vec<T>, bandwidth_bits: usize) -> Self {
        Batch {
            items,
            count_bits: count_bits(bandwidth_bits),
        }
    }

    /// The items, in send order.
    pub fn items(&self) -> &[T] {
        &self.items
    }
}

impl<T: MsgSize> MsgSize for Batch<T> {
    fn size_bits(&self, id_bits: usize) -> usize {
        let items: usize = self.items.iter().map(|i| i.size_bits(id_bits)).sum();
        match self.items.len() {
            1 => items,
            _ => self.count_bits + items,
        }
    }
}

/// How many items, taken in order with the given `sizes`, go into one
/// [`Batch`] whose message (tag included) stays within `bandwidth_bits`.
///
/// The first item is always taken, so an item too large on its own
/// still travels and fails with the kernel's bandwidth error instead of
/// stalling its sender. Further items are taken while the next one fits
/// and the count field (which holds up to `B`) can still count it.
/// Returns 0 only for no items.
pub fn batch_len(sizes: impl IntoIterator<Item = usize>, bandwidth_bits: usize) -> usize {
    let mut sizes = sizes.into_iter();
    let Some(first) = sizes.next() else {
        return 0;
    };
    let mut used = TAG_BITS + count_bits(bandwidth_bits) + first;
    let mut len = 1;
    for size in sizes {
        used += size;
        if used > bandwidth_bits || len == bandwidth_bits {
            break;
        }
        len += 1;
    }
    len
}

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
    /// Pipelined items traveling toward the root.
    Up(Batch<I>),
    /// The sender's subtree has no more items to send.
    UpDone,
    /// Pipelined response items traveling from the root to everyone.
    Down(Batch<D>),
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
        TAG_BITS
            + match self {
                GsMsg::Explore { parent } => 1 + parent.map_or(0, |_| id_bits),
                GsMsg::Up(b) => b.size_bits(id_bits),
                GsMsg::UpDone => 0,
                GsMsg::Down(b) => b.size_bits(id_bits),
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
/// Items travel in [`Batch`]es: each round a node sends its parent one
/// batch, filled greedily by [`batch_len`] from the items it relays
/// (most recently received first) and then its own, and the downcast
/// sends each child one batch of the response in order. A batch holds
/// `O(1)` identifiers, and the run takes
/// `O(⌈total item bits / B⌉ + D)` rounds.
///
/// Most nodes spend most of these rounds waiting for mail, and
/// a waiting node reports [`Algorithm::can_skip`], so the active-set
/// kernel lets it sleep until its next message. With no deadline armed
/// the waiting states are:
///
/// - a non-root node still joining the tree (the root acts at round 0);
/// - an upcasting node that has not heard from every neighbor yet;
/// - the root while some child's subtree has not reported `UpDone`;
/// - a non-root upcasting node with nothing to forward while some child
///   has not reported `UpDone`;
/// - a downcasting node that has passed on every response item it holds
///   and has no `DownEnd` to pass on.
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
    /// How many of `response` this node has passed on to its children.
    forwarded: usize,
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
            forwarded: 0,
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

    fn start_downcast(&mut self, ctx: &Ctx, complete: bool) {
        let gathered = std::mem::take(&mut self.gathered);
        let mut items: Vec<I> = gathered;
        items.extend(std::mem::take(&mut self.items));
        self.response = (self.compute)(items);
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
                GsMsg::Up(b) => self.gathered.extend_from_slice(b.items()),
                GsMsg::UpDone => self.children_done += 1,
                GsMsg::Down(b) => self.response.extend_from_slice(b.items()),
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
                        // own, one full batch per round; finish with UpDone.
                        let sizes = self.gathered.iter().rev().chain(&self.items);
                        let len =
                            batch_len(sizes.map(|i| i.size_bits(ctx.id_bits)), ctx.bandwidth_bits);
                        if len > 0 {
                            let relayed = len.min(self.gathered.len());
                            let from = self.gathered.len() - relayed;
                            let mut batch: Vec<I> = self.gathered.drain(from..).rev().collect();
                            batch.extend(self.items.drain(..len - relayed));
                            out.push((p, GsMsg::Up(Batch::new(batch, ctx.bandwidth_bits))));
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

        // Downcast forwarding runs for every node with response items
        // not yet passed on, even the root right after computing.
        if matches!(self.phase, Phase::Downcast) {
            let pending = &self.response[self.forwarded..];
            let sizes = pending.iter().map(|d| d.size_bits(ctx.id_bits));
            let len = batch_len(sizes, ctx.bandwidth_bits);
            if len > 0 {
                let batch = Batch::new(pending[..len].to_vec(), ctx.bandwidth_bits);
                self.forwarded += len;
                if let Some((&last, rest)) = self.children.split_last() {
                    for &c in rest {
                        out.push((c, GsMsg::Down(batch.clone())));
                    }
                    out.push((last, GsMsg::Down(batch)));
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
                // `response` grew by whole batches, so it may hold spare
                // capacity; every node keeps it until the run ends.
                self.response.shrink_to_fit();
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
            Phase::Downcast => self.forwarded == self.response.len() && !self.down_end_pending,
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

    /// Runs an echo of every node's `items` (the leader returns the
    /// sorted multiset) and checks each node receives exactly the sorted
    /// union of all items.
    fn run_echo(g: &pga_graph::Graph, items: Vec<Vec<SizedU64>>) -> crate::Metrics {
        let compute: LeaderCompute<SizedU64, SizedU64> = Arc::new(|mut items: Vec<SizedU64>| {
            items.sort_by_key(|i| (i.value, i.bits));
            items
        });
        let mut want: Vec<SizedU64> = items.iter().flatten().cloned().collect();
        want.sort_by_key(|i| (i.value, i.bits));
        let nodes = items
            .into_iter()
            .map(|items| GatherScatter::new(items, Arc::clone(&compute)))
            .collect();
        let report = Simulator::congest(g)
            .run_cfg(nodes, &RunConfig::new())
            .unwrap();
        for o in &report.outputs {
            assert_eq!(o.response, want);
            assert!(o.complete);
        }
        report.metrics
    }

    #[test]
    fn pipelining_round_bound() {
        // Packed pipelining: with `room = B − tag − count` bits for items,
        // every batch that stops early still carries more than
        // `room − max item` bits, so the gather and the echo each take
        // about ⌈Σ item bits / (room − max item)⌉ rounds on top of O(D).
        let n = 20;
        let g = generators::path(n); // D = 19
        let d = n - 1;
        let items: Vec<Vec<SizedU64>> = (0..n)
            .map(|i| {
                (0..8)
                    .map(|j| SizedU64 {
                        value: (8 * i + j) as u64,
                        bits: 32,
                    })
                    .collect()
            })
            .collect();
        let total_bits: usize = 32 * 8 * n;
        let b = crate::sim::default_bandwidth_bits(n);
        let room = b - 3 - count_bits(b);
        let batches = total_bits.div_ceil(room - 32);
        let metrics = run_echo(&g, items);
        // One item per message would need 8(n − 1) rounds for the root's
        // child to forward its subtree's items, then 8n for the echo.
        assert!(2 * batches + 4 * d + 10 < 8 * (n - 1) + 8 * n);
        assert!(
            metrics.rounds <= 2 * batches + 4 * d + 10,
            "rounds {} too large",
            metrics.rounds
        );
    }

    /// Many items of mixed sizes per node, up to the largest item a
    /// one-item message carries: the leader sees every item exactly
    /// once, on a path, a star and a random connected graph.
    #[test]
    fn gather_scatter_delivers_the_multiset_of_mixed_items() {
        let mut rng = StdRng::seed_from_u64(7);
        for g in [
            generators::path(12),
            generators::star(10),
            generators::connected_gnm(40, 80, &mut rng),
        ] {
            let n = g.num_nodes();
            let largest = crate::sim::default_bandwidth_bits(n) - 3;
            let mut next = 0u64;
            let items: Vec<Vec<SizedU64>> = (0..n)
                .map(|i| {
                    (0..(i * 7) % 10)
                        .map(|j| {
                            next += 1;
                            SizedU64 {
                                value: next % 5, // repeated values
                                bits: [1, 13, 40, largest][(i + j) % 4],
                            }
                        })
                        .collect()
                })
                .collect();
            let metrics = run_echo(&g, items);
            assert!(metrics.max_message_bits <= crate::sim::default_bandwidth_bits(n));
        }
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

    /// The arms of [`GsMsg`] that carry no items.
    fn arb_control_msg() -> impl Strategy<Value = GsMsg<SizedU64, SizedU64>> {
        prop_oneof![
            Just(GsMsg::Explore { parent: None }),
            any::<u32>().prop_map(|p| GsMsg::Explore {
                parent: Some(NodeId(p)),
            }),
            Just(GsMsg::UpDone),
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

        /// At every id width, a queue of items that each fit a one-item
        /// message (tag included) is cut by [`batch_len`] into batches
        /// that fit `B` and are greedy: one more item would not fit, or
        /// the count field is full. A one-item batch costs exactly the
        /// tag plus its item, so every input that fits one item per
        /// message still fits. The control arms fit `B` too.
        #[test]
        fn gs_batches_fit_the_bandwidth(
            control in arb_control_msg(),
            raw in proptest::collection::vec(arb_sized(), 1..40),
        ) {
            for b in 1..=32 {
                let n = 1usize << b;
                let (bits, limit) = (id_bits(n), default_bandwidth_bits(n));
                prop_assert!(control.size_bits(bits) <= limit);
                let items: Vec<SizedU64> = raw
                    .iter()
                    .map(|s| SizedU64 { value: s.value, bits: s.bits % (limit - 3 + 1) })
                    .collect();
                for item in &items {
                    let one = Batch::new(vec![item.clone()], limit);
                    prop_assert_eq!(GsMsg::<SizedU64, SizedU64>::Up(one.clone()).size_bits(bits), 3 + item.bits);
                    prop_assert_eq!(GsMsg::<SizedU64, SizedU64>::Down(one).size_bits(bits), 3 + item.bits);
                }
                let mut rest = &items[..];
                while !rest.is_empty() {
                    let len = batch_len(rest.iter().map(|i| i.bits), limit);
                    prop_assert!(len >= 1);
                    let up = |k: usize| {
                        GsMsg::<SizedU64, SizedU64>::Up(Batch::new(rest[..k].to_vec(), limit))
                            .size_bits(bits)
                    };
                    prop_assert!(up(len) <= limit, "{} items: {} > {} bits", len, up(len), limit);
                    if len < rest.len() {
                        prop_assert!(up(len + 1) > limit || len == limit);
                    }
                    rest = &rest[len..];
                }
            }
        }
    }
}
