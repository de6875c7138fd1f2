//! `clique_bmm`: distributed `G²`-row materialization on the congested
//! clique via blocked Boolean matrix multiplication.
//!
//! Row `u` of the Boolean product `A ∨ A·A` is
//! `N(u) ∨ ⋁_{v ∈ N(u)} N(v)` — so every node can assemble its own `G²`
//! row if each neighbor ships it its adjacency-row bitmap. This
//! primitive does exactly that with packed words: node `v` walks the
//! **nonzero 64-bit blocks** of its `N(v)` bitmap and broadcasts one
//! `(block index, word)` pair per round to all its `G`-neighbors;
//! receivers `OR` the words into their accumulating row (seeded with
//! their own one-hop bits) and clear the diagonal at output time.
//!
//! The round count is therefore `max_v min(blocks(v), cap)` where
//! `blocks(v)` is the number of nonzero words in `N(v)`'s bitmap —
//! `O(1)` on clustered inputs such as
//! [`pga_graph::generators::planted_partition`] graphs, whose rows
//! concentrate in their cluster's blocks (the observation of Lingas,
//! arXiv 2405.16103, that congested-clique BMM is fast on clustered
//! data), and at most the `O(log n)` word cap elsewhere. A node with
//! more nonzero blocks than the cap sends only its first `cap` blocks,
//! flagging the last one `truncated`; its neighbors' rows become
//! degree-capped *sketches* and carry [`G2Row::exact`]` == false`, so
//! consumers can fall back to an exact protocol wholesale (the clique
//! MVC pipeline does — see `pga-core`) and keep their outputs
//! bit-identical.
//!
//! Every message fits the default CONGEST bandwidth
//! (`64 + id_bits + 2 ≤ 16·id_bits + 64` bits), and the whole run goes
//! through [`Simulator::run_cfg`], so engine and thread choices are
//! bit-identical by the kernel contract.

use crate::sim::{Algorithm, Ctx, MsgSize, Report, SimError, Simulator};
use pga_graph::{Graph, NodeId};
use pga_runtime::RunConfig;
use std::collections::BTreeMap;

/// One 64-column block of a node's adjacency-row bitmap, broadcast to
/// its `G`-neighbors during [`clique_bmm`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BmmBlock {
    /// Index of the 64-bit block inside the `⌈n/64⌉`-word row bitmap.
    pub block: u32,
    /// The block's bits: column `64·block + i` is set iff bit `i` is.
    pub word: u64,
    /// Whether this is the sender's final block.
    pub last: bool,
    /// Whether the sender ran out of word budget: it holds further
    /// nonzero blocks beyond this one, so the receiver's row is a
    /// sketch, not the exact `G²` row.
    pub truncated: bool,
}

impl MsgSize for BmmBlock {
    fn size_bits(&self, id_bits: usize) -> usize {
        // The 64 payload bits, a block index (bounded by n/64 < n, so
        // one identifier's worth), and the two flags.
        64 + id_bits + 2
    }
}

/// A node's materialized `G²` row, the per-node output of
/// [`clique_bmm`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct G2Row {
    /// The sorted `G²`-neighborhood of the node (vertices at distance 1
    /// or 2, the node itself excluded). When `exact` is `false` this is
    /// a subset: the union of the blocks that fit the word budget.
    pub neighbors: Vec<NodeId>,
    /// Whether the row is the exact `G²` row (`true`) or a degree-capped
    /// sketch (`false`: some contributing neighbor truncated its
    /// broadcast).
    pub exact: bool,
}

/// Per-node state machine of [`clique_bmm`].
///
/// Round `r` broadcasts the node's `r`-th nonzero block (if any) to all
/// `G`-neighbors; every round folds the received blocks into the
/// accumulating row. The node is done once its own blocks are out; the
/// simulator's quiescence detection ends the run when the last block has
/// landed.
pub struct CliqueBmm {
    /// This node's nonzero `(block, word)` pairs, ascending, already
    /// truncated to the word cap.
    blocks: Vec<(u32, u64)>,
    /// Whether `blocks` was truncated (the final block is flagged).
    self_truncated: bool,
    /// The accumulating row: block index → OR of all words seen.
    row: BTreeMap<u32, u64>,
    /// Whether every contribution so far was untruncated.
    exact: bool,
}

impl CliqueBmm {
    /// State for node `v` of `g` with the given word budget.
    ///
    /// The row starts seeded with `v`'s own one-hop bits (local
    /// knowledge, no communication), **all** of them — the cap only
    /// limits what travels over the wire.
    pub fn new(g: &Graph, v: NodeId, cap_words: usize) -> Self {
        let cap = cap_words.max(1);
        let mut row = BTreeMap::new();
        for &u in g.neighbors(v) {
            *row.entry((u.index() >> 6) as u32).or_insert(0) |= 1u64 << (u.index() & 63);
        }
        let all: Vec<(u32, u64)> = row.iter().map(|(&b, &w)| (b, w)).collect();
        let self_truncated = all.len() > cap;
        let blocks = if self_truncated {
            all[..cap].to_vec()
        } else {
            all
        };
        CliqueBmm {
            blocks,
            self_truncated,
            row,
            exact: true,
        }
    }
}

impl Algorithm for CliqueBmm {
    type Msg = BmmBlock;
    type Output = G2Row;

    fn round(&mut self, ctx: &Ctx, inbox: &[(NodeId, BmmBlock)]) -> Vec<(NodeId, BmmBlock)> {
        for (_, m) in inbox {
            *self.row.entry(m.block).or_insert(0) |= m.word;
            if m.truncated {
                self.exact = false;
            }
        }
        match self.blocks.get(ctx.round) {
            Some(&(block, word)) => {
                let last = ctx.round + 1 == self.blocks.len();
                let msg = BmmBlock {
                    block,
                    word,
                    last,
                    truncated: last && self.self_truncated,
                };
                ctx.graph_neighbors.iter().map(|&u| (u, msg)).collect()
            }
            None => Vec::new(),
        }
    }

    fn is_done(&self, ctx: &Ctx) -> bool {
        ctx.round >= self.blocks.len()
    }

    fn output(&self, ctx: &Ctx) -> G2Row {
        let mut neighbors = Vec::new();
        for (&block, &word) in &self.row {
            let base = (block as usize) << 6;
            let mut w = word;
            // Knock out the diagonal bit if it sits in this block.
            if base <= ctx.id.index() && ctx.id.index() < base + 64 {
                w &= !(1u64 << (ctx.id.index() & 63));
            }
            while w != 0 {
                neighbors.push(NodeId::from_index(base + w.trailing_zeros() as usize));
                w &= w - 1;
            }
        }
        G2Row {
            neighbors,
            exact: self.exact,
        }
    }
}

/// The default word budget: `4·⌈log₂ n⌉` blocks, i.e. `O(log n)` rounds
/// worst case while still covering `256·log n` columns of spread before
/// any truncation.
pub fn default_cap_words(n: usize) -> usize {
    4 * crate::sim::id_bits(n)
}

/// Materializes every node's `G²` row (or degree-capped sketch) on the
/// congested clique with input graph `g`.
///
/// Runs `max_v min(blocks(v), cap_words)` broadcast rounds plus one
/// drain round (see the module docs for why clustered inputs finish in
/// `O(1)`), under the engine and scheduling choices of `cfg` — all
/// bit-identical by the kernel contract. The returned report's
/// [`Metrics`](crate::Metrics) can be merged into a downstream
/// consumer's accounting.
///
/// # Errors
///
/// Returns a [`SimError`] if the run violates the communication model
/// (it cannot, by construction: every message fits the default
/// bandwidth) or exhausts the round budget.
pub fn clique_bmm(g: &Graph, cap_words: usize, cfg: &RunConfig) -> Result<Report<G2Row>, SimError> {
    let sim = Simulator::congested_clique(g);
    let nodes: Vec<CliqueBmm> = g.nodes().map(|v| CliqueBmm::new(g, v, cap_words)).collect();
    sim.run_cfg(nodes, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pga_graph::generators;
    use pga_graph::power::square_scalar;
    use pga_runtime::RunConfig;

    fn exact_rows_match_square(g: &Graph) {
        let g2 = square_scalar(g);
        let report = clique_bmm(g, usize::MAX, &RunConfig::new()).unwrap();
        for v in g.nodes() {
            let row = &report.outputs[v.index()];
            assert!(row.exact, "row {v:?} unexpectedly truncated");
            assert_eq!(row.neighbors.as_slice(), g2.neighbors(v), "row {v:?}");
        }
    }

    #[test]
    fn rows_match_square_on_families() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(23);
        exact_rows_match_square(&generators::path(30));
        exact_rows_match_square(&generators::star(40));
        exact_rows_match_square(&generators::gnp(60, 0.1, &mut rng));
        exact_rows_match_square(&generators::planted_partition(128, 4, 0.3, 0.02, 3));
        exact_rows_match_square(&pga_graph::Graph::empty(1));
    }

    #[test]
    fn truncation_caps_rows_and_clears_exact() {
        // star(200): the center's bitmap spans ceil(200/64) = 4 nonzero
        // blocks. cap = 1 truncates its broadcast, so every leaf row is
        // a sketch; each leaf's own bitmap is 1 block (bit 0 only), so
        // the center's row stays exact.
        let g = generators::star(200);
        let report = clique_bmm(&g, 1, &RunConfig::new()).unwrap();
        assert!(report.outputs[0].exact, "center saw no truncated source");
        assert_eq!(report.outputs[0].neighbors.len(), 199);
        let leaf = &report.outputs[5];
        assert!(!leaf.exact, "leaf must be flagged as a sketch");
        // The sketch holds the first block's columns (minus itself)
        // plus nothing beyond column 63.
        assert!(leaf.neighbors.iter().all(|v| v.index() < 64));
        // Rounds stay at the cap, not at the center's 4 blocks.
        assert!(
            report.metrics.rounds <= 3,
            "rounds {}",
            report.metrics.rounds
        );
    }

    #[test]
    fn clustered_input_finishes_in_constant_rounds() {
        // 8 word-aligned clusters of 64, no inter-cluster edges: every
        // bitmap occupies exactly one block, so one broadcast round
        // (plus the drain) suffices regardless of n.
        let g = generators::planted_partition(512, 8, 0.5, 0.0, 7);
        let report = clique_bmm(&g, default_cap_words(512), &RunConfig::new()).unwrap();
        assert!(
            report.metrics.rounds <= 2,
            "rounds {}",
            report.metrics.rounds
        );
        assert!(report.outputs.iter().all(|r| r.exact));
        let g2 = square_scalar(&g);
        for v in g.nodes() {
            assert_eq!(
                report.outputs[v.index()].neighbors.as_slice(),
                g2.neighbors(v)
            );
        }
    }

    #[test]
    fn engines_bit_identical() {
        let g = generators::planted_partition(192, 3, 0.25, 0.03, 9);
        let base = clique_bmm(&g, default_cap_words(192), &RunConfig::new()).unwrap();
        for cfg in [
            RunConfig::new().parallel(2),
            RunConfig::new().parallel(4),
            RunConfig::new().parallel(8),
        ] {
            let other = clique_bmm(&g, default_cap_words(192), &cfg).unwrap();
            assert_eq!(other.outputs, base.outputs);
            assert_eq!(other.metrics.rounds, base.metrics.rounds);
            assert_eq!(other.metrics.messages, base.metrics.messages);
            assert_eq!(other.metrics.bits, base.metrics.bits);
        }
    }

    #[test]
    fn message_fits_default_bandwidth() {
        for n in [2usize, 100, 60_000, 1 << 20] {
            let bits = crate::sim::id_bits(n);
            let msg = BmmBlock {
                block: 0,
                word: u64::MAX,
                last: true,
                truncated: true,
            };
            assert!(msg.size_bits(bits) <= crate::sim::default_bandwidth_bits(n));
        }
    }
}

#[cfg(test)]
mod msg_size_tests {
    use super::*;
    use crate::sim::{default_bandwidth_bits, id_bits};
    use proptest::prelude::*;

    proptest! {
        /// A row of `n` columns has `⌈n/64⌉ ≤ n` blocks, so the block
        /// index is charged one identifier's worth of bits, and a block
        /// carrying any index and bits fits the default bandwidth.
        #[test]
        fn block_index_fits_one_identifier(
            n in 1usize..=u32::MAX as usize,
            word in any::<u64>(),
            last in any::<bool>(),
            truncated in any::<bool>(),
        ) {
            let block = (n.div_ceil(64) - 1) as u32;
            prop_assert_eq!(u64::from(block) >> id_bits(n), 0);
            let m = BmmBlock { block, word, last, truncated };
            prop_assert!(m.size_bits(id_bits(n)) <= default_bandwidth_bits(n));
        }
    }
}
