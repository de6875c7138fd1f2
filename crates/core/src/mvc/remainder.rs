//! Phase II of Algorithm 1: the leader reconstructs `H = G²[U]` from the
//! edge set `F` (Lemma 3) and covers it locally.
//!
//! `F = {{u, v} ∈ E : u ∈ U}` is the set of `G`-edges with at least one
//! endpoint outside the Phase-I cover. Every node is responsible for
//! reporting its edges into `U`; the leader rebuilds the square-induced
//! remainder `H` as
//!
//! `F' = (F ∩ U×U) ∪ {{u₁,u₂} ⊆ U : ∃w, {u₁,w} ∈ F ∧ {u₂,w} ∈ F}`
//!
//! and solves (weighted) vertex cover on it with unbounded local
//! computation, exactly as the CONGEST model permits.

use pga_congest::MsgSize;
use pga_exact::vc::solve_mvc;
use pga_exact::wvc::solve_mwvc;
use pga_graph::matching::two_approx_vertex_cover;
use pga_graph::{Graph, GraphBuilder, NodeId, VertexWeights};
use std::collections::HashMap;

use crate::mvc::centralized::five_thirds_vertex_cover;

/// One reported edge of `F`, tagged with what the sender knows: the sender
/// (`from`), a neighbor in `U` (`to`), whether the sender itself is in `U`,
/// and the vertex weights (1 in the unweighted case).
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct FEdge {
    pub from: NodeId,
    pub to: NodeId,
    pub from_in_u: bool,
    pub from_weight: u64,
    pub to_weight: u64,
}

fn weight_bits(w: u64) -> usize {
    (64 - w.leading_zeros() as usize).max(1)
}

impl MsgSize for FEdge {
    fn size_bits(&self, id_bits: usize) -> usize {
        2 * id_bits + 1 + weight_bits(self.from_weight) + weight_bits(self.to_weight)
    }
}

/// A bare node id used as a downcast item ("this vertex is in `R*`").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct CoverId(pub NodeId);

impl MsgSize for CoverId {
    fn size_bits(&self, id_bits: usize) -> usize {
        id_bits
    }
}

/// How the leader covers the remainder graph `H = G²[U]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LocalSolver {
    /// Optimal cover by branch and bound — the paper's Algorithm 1
    /// (unbounded local computation, overall factor `1 + ε`).
    Exact,
    /// The centralized 5/3-approximation of Theorem 12 — the paper's
    /// Corollary 17 (polynomial local computation, overall factor
    /// `max(1 + ε, 5/3)`).
    FiveThirds,
    /// Maximal-matching 2-approximation (polynomial, overall factor
    /// `max(1 + ε, 2)`); provided as an ablation baseline.
    TwoApprox,
}

/// The remainder graph reconstructed from `F`, with id mappings.
pub(crate) struct RemainderGraph {
    pub h: Graph,
    pub to_host: Vec<NodeId>,
    pub weights: Vec<u64>,
}

/// Rebuilds `H = G²[U]` from the gathered edge reports (Lemma 3).
pub(crate) fn build_remainder(edges: &[FEdge]) -> RemainderGraph {
    // Identify U: every `to` endpoint is in U by construction; a `from`
    // endpoint is in U iff tagged.
    let mut u_weight: HashMap<NodeId, u64> = HashMap::new();
    for e in edges {
        u_weight.insert(e.to, e.to_weight);
        if e.from_in_u {
            u_weight.insert(e.from, e.from_weight);
        }
    }
    let mut u_vertices: Vec<NodeId> = u_weight.keys().copied().collect();
    u_vertices.sort_unstable();
    let index: HashMap<NodeId, usize> = u_vertices
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, i))
        .collect();

    // F as adjacency over all mentioned vertices (deduplicated).
    let mut f_adj: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
    for e in edges {
        f_adj.entry(e.from).or_default().push(e.to);
        f_adj.entry(e.to).or_default().push(e.from);
    }
    for list in f_adj.values_mut() {
        list.sort_unstable();
        list.dedup();
    }

    let mut b = GraphBuilder::new(u_vertices.len());
    // Direct F-edges inside U.
    for e in edges {
        if let (Some(&i), Some(&j)) = (index.get(&e.from), index.get(&e.to)) {
            b.add_edge(NodeId::from_index(i), NodeId::from_index(j));
        }
    }
    // Two-paths through any vertex w: every pair of F-neighbors of w that
    // lie in U is a G²[U] edge.
    for nbrs in f_adj.values() {
        let in_u: Vec<usize> = nbrs.iter().filter_map(|v| index.get(v).copied()).collect();
        for (a, &i) in in_u.iter().enumerate() {
            for &j in &in_u[a + 1..] {
                b.add_edge(NodeId::from_index(i), NodeId::from_index(j));
            }
        }
    }

    let weights = u_vertices.iter().map(|v| u_weight[v]).collect();
    RemainderGraph {
        h: b.build(),
        to_host: u_vertices,
        weights,
    }
}

/// Solves vertex cover on the reconstructed remainder and returns the
/// chosen host ids.
pub(crate) fn solve_remainder(edges: &[FEdge], solver: LocalSolver) -> Vec<CoverId> {
    let rem = build_remainder(edges);
    let cover = match solver {
        LocalSolver::Exact => solve_mvc(&rem.h),
        LocalSolver::FiveThirds => five_thirds_vertex_cover(&rem.h).cover,
        LocalSolver::TwoApprox => two_approx_vertex_cover(&rem.h),
    };
    cover
        .iter()
        .enumerate()
        .filter(|&(_, &m)| m)
        .map(|(i, _)| CoverId(rem.to_host[i]))
        .collect()
}

/// Weighted variant: the leader solves minimum *weighted* vertex cover on
/// the remainder optimally (Theorem 7 keeps the exact local solve).
pub(crate) fn solve_remainder_weighted(edges: &[FEdge]) -> Vec<CoverId> {
    let rem = build_remainder(edges);
    let w = VertexWeights::from_vec(rem.weights.clone());
    let cover = solve_mwvc(&rem.h, &w);
    cover
        .iter()
        .enumerate()
        .filter(|&(_, &m)| m)
        .map(|(i, _)| CoverId(rem.to_host[i]))
        .collect()
}

/// Builds the `F`-edge reports for a node, given its final `R`-neighbor
/// list and its own membership — the per-node input to Phase II.
pub(crate) fn f_edges_for_node(
    id: NodeId,
    in_u: bool,
    r_neighbors: &[NodeId],
    weight_of: impl Fn(NodeId) -> u64,
) -> Vec<FEdge> {
    r_neighbors
        .iter()
        .map(|&u| FEdge {
            from: id,
            to: u,
            from_in_u: in_u,
            from_weight: weight_of(id),
            to_weight: weight_of(u),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pga_graph::cover::{is_vertex_cover, membership};
    use pga_graph::generators;
    use pga_graph::power::square;
    use pga_graph::subgraph::induced_subgraph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Builds the F-edge reports exactly as the distributed nodes would,
    /// given a cover set S, and checks the reconstruction equals G²[U].
    fn check_reconstruction(g: &Graph, in_s: &[bool]) {
        let n = g.num_nodes();
        let mut edges = Vec::new();
        for v in g.nodes() {
            let r_nb: Vec<NodeId> = g
                .neighbors(v)
                .iter()
                .copied()
                .filter(|u| !in_s[u.index()])
                .collect();
            edges.extend(f_edges_for_node(v, !in_s[v.index()], &r_nb, |_| 1));
        }
        let rem = build_remainder(&edges);
        // Oracle: G²[U] restricted to non-isolated vertices.
        let g2 = square(g);
        let keep: Vec<bool> = (0..n).map(|i| !in_s[i]).collect();
        let sub = induced_subgraph(&g2, &keep);
        // Compare edge sets via host-id pairs.
        let mut got: Vec<(NodeId, NodeId)> = rem
            .h
            .edges()
            .map(|(a, b)| {
                let (x, y) = (rem.to_host[a.index()], rem.to_host[b.index()]);
                (x.min(y), x.max(y))
            })
            .collect();
        got.sort_unstable();
        let mut want: Vec<(NodeId, NodeId)> = sub
            .graph
            .edges()
            .map(|(a, b)| {
                let (x, y) = (sub.to_host[a.index()], sub.to_host[b.index()]);
                (x.min(y), x.max(y))
            })
            .collect();
        want.sort_unstable();
        assert_eq!(got, want, "H must equal G²[U]");
    }

    #[test]
    fn lemma3_reconstruction_random() {
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..20 {
            let g = generators::gnp(16, 0.2, &mut rng);
            // Random S.
            let in_s: Vec<bool> = (0..16).map(|i| i % 3 == 0).collect();
            check_reconstruction(&g, &in_s);
        }
    }

    #[test]
    fn lemma3_reconstruction_empty_s() {
        // S = ∅: H must be all of G² (minus isolated vertices).
        let g = generators::caterpillar(5, 2);
        check_reconstruction(&g, &vec![false; g.num_nodes()]);
    }

    #[test]
    fn lemma3_reconstruction_full_s() {
        let g = generators::cycle(6);
        let n = g.num_nodes();
        let mut edges = Vec::new();
        for v in g.nodes() {
            edges.extend(f_edges_for_node(v, false, &[], |_| 1));
        }
        let rem = build_remainder(&edges);
        assert_eq!(rem.h.num_nodes(), 0);
        let _ = n;
    }

    #[test]
    fn two_paths_through_s_vertices_caught() {
        // Star: center in S, leaves in U. Leaves are pairwise G²-adjacent
        // through the S-center; only the center reports edges.
        let g = generators::star(5);
        let in_s = membership(5, &[NodeId(0)]);
        check_reconstruction(&g, &in_s);
        // And the cover of the remainder must cover the leaf clique.
        let mut edges = Vec::new();
        for v in g.nodes() {
            let r_nb: Vec<NodeId> = g
                .neighbors(v)
                .iter()
                .copied()
                .filter(|u| !in_s[u.index()])
                .collect();
            edges.extend(f_edges_for_node(v, !in_s[v.index()], &r_nb, |_| 1));
        }
        let chosen = solve_remainder(&edges, LocalSolver::Exact);
        assert_eq!(chosen.len(), 3, "K4 on the leaves needs 3 vertices");
    }

    #[test]
    fn solvers_produce_valid_covers() {
        let mut rng = StdRng::seed_from_u64(32);
        let g = generators::gnp(14, 0.25, &mut rng);
        let in_s: Vec<bool> = (0..14).map(|i| i % 4 == 0).collect();
        let mut edges = Vec::new();
        for v in g.nodes() {
            let r_nb: Vec<NodeId> = g
                .neighbors(v)
                .iter()
                .copied()
                .filter(|u| !in_s[u.index()])
                .collect();
            edges.extend(f_edges_for_node(v, !in_s[v.index()], &r_nb, |_| 1));
        }
        let rem = build_remainder(&edges);
        for solver in [
            LocalSolver::Exact,
            LocalSolver::FiveThirds,
            LocalSolver::TwoApprox,
        ] {
            let chosen = solve_remainder(&edges, solver);
            // Lift to a membership vector over the remainder and verify.
            let mut mv = vec![false; rem.h.num_nodes()];
            for c in &chosen {
                let idx = rem.to_host.iter().position(|&v| v == c.0).unwrap();
                mv[idx] = true;
            }
            assert!(is_vertex_cover(&rem.h, &mv), "{solver:?} invalid");
        }
    }

    #[test]
    fn weighted_remainder_solved_optimally() {
        // Path 0-1-2 all in U with weights 1, 10, 1: G²[U] is a triangle;
        // optimal weighted cover = {0, 2} with weight 2.
        let g = generators::path(3);
        let weights = [1u64, 10, 1];
        let mut edges = Vec::new();
        for v in g.nodes() {
            let r_nb: Vec<NodeId> = g.neighbors(v).to_vec();
            edges.extend(f_edges_for_node(v, true, &r_nb, |u| weights[u.index()]));
        }
        let chosen = solve_remainder_weighted(&edges);
        let ids: Vec<u32> = chosen.iter().map(|c| c.0 .0).collect();
        assert_eq!(ids, vec![0, 2]);
    }
}

#[cfg(test)]
mod msg_size_tests {
    use super::*;
    use crate::msg_budget::fits_default_bandwidth;
    use proptest::prelude::*;

    use pga_congest::primitives::GsMsg;

    /// `F`-edge reports with weights below `2³²`.
    fn arb_fedge() -> impl Strategy<Value = FEdge> {
        (
            any::<u32>(),
            any::<u32>(),
            any::<bool>(),
            any::<u32>(),
            any::<u32>(),
        )
            .prop_map(|(from, to, from_in_u, from_weight, to_weight)| FEdge {
                from: NodeId(from),
                to: NodeId(to),
                from_in_u,
                from_weight: u64::from(from_weight),
                to_weight: u64::from(to_weight),
            })
    }

    /// Every arm of the gather–scatter message that carries `F` up and
    /// the cover down.
    fn arb_gs_msg() -> impl Strategy<Value = GsMsg<FEdge, CoverId>> {
        prop_oneof![
            Just(GsMsg::Explore { parent: None }),
            any::<u32>().prop_map(|p| GsMsg::Explore {
                parent: Some(NodeId(p)),
            }),
            arb_fedge().prop_map(GsMsg::Up),
            Just(GsMsg::UpDone),
            any::<u32>().prop_map(|id| GsMsg::Down(CoverId(NodeId(id)))),
            any::<bool>().prop_map(|complete| GsMsg::DownEnd { complete }),
        ]
    }

    proptest! {
        #[test]
        fn fedge_fits_default_bandwidth(e in arb_fedge()) {
            fits_default_bandwidth(&e)?;
            // Two ids, the `U` flag, and each weight at its own width.
            let b = 20;
            let weights = weight_bits(e.from_weight) + weight_bits(e.to_weight);
            prop_assert_eq!(e.size_bits(b), 2 * b + 1 + weights);
        }

        #[test]
        fn cover_id_fits_default_bandwidth(id in any::<u32>()) {
            let c = CoverId(NodeId(id));
            fits_default_bandwidth(&c)?;
            prop_assert_eq!(c.size_bits(17), 17);
        }

        #[test]
        fn remainder_gs_msg_fits_default_bandwidth(m in arb_gs_msg()) {
            fits_default_bandwidth(&m)?;
        }
    }
}
