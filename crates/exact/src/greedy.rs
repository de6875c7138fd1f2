//! Approximation baselines: greedy dominating set and local-ratio
//! weighted vertex cover.
//!
//! These are the centralized comparators referenced throughout the paper's
//! related-work discussion: the greedy `(ln Δ + 1)`-approximation for MDS
//! and the Bar-Yehuda–Even local-ratio 2-approximation for weighted vertex
//! cover \[BE83\].

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use pga_graph::{Graph, NodeId, VertexWeights};

/// Greedy minimum dominating set: repeatedly pick the vertex that
/// dominates the most still-uncovered vertices, ties to the smallest id.
///
/// Guarantees an `(H_{Δ+1} ≤ ln Δ + 2)`-approximation.
///
/// Lazy evaluation: a vertex's gain only falls as vertices get covered,
/// so a max-heap keyed by (stored gain, smallest id) whose top is
/// re-checked before it is picked yields the same picks, in the same
/// order, as rescanning every vertex per pick.
pub fn greedy_mds(g: &Graph) -> Vec<bool> {
    let n = g.num_nodes();
    let mut covered = vec![false; n];
    let mut chosen = vec![false; n];
    let closed = |v: NodeId| std::iter::once(v).chain(g.neighbors(v).iter().copied());
    let mut heap: BinaryHeap<(usize, Reverse<NodeId>)> =
        g.nodes().map(|v| (g.degree(v) + 1, Reverse(v))).collect();
    while let Some((stored, Reverse(v))) = heap.pop() {
        let gain = closed(v).filter(|u| !covered[u.index()]).count();
        if gain < stored {
            // Stale: re-queue at its true gain (a vertex that covers
            // nothing new never becomes useful again).
            if gain > 0 {
                heap.push((gain, Reverse(v)));
            }
            continue;
        }
        chosen[v.index()] = true;
        for u in closed(v) {
            covered[u.index()] = true;
        }
    }
    chosen
}

/// Greedy *weighted* dominating set: repeatedly pick the vertex minimizing
/// weight per newly dominated vertex.
pub fn greedy_mwds(g: &Graph, w: &VertexWeights) -> Vec<bool> {
    assert!(w.matches(g));
    let n = g.num_nodes();
    let mut covered = vec![false; n];
    let mut chosen = vec![false; n];
    let mut num_covered = 0;
    while num_covered < n {
        let mut best = usize::MAX;
        let mut best_ratio = f64::INFINITY;
        for v in g.nodes() {
            if chosen[v.index()] {
                continue;
            }
            let gain = std::iter::once(v)
                .chain(g.neighbors(v).iter().copied())
                .filter(|u| !covered[u.index()])
                .count();
            if gain == 0 {
                continue;
            }
            let ratio = w[v] as f64 / gain as f64;
            if ratio < best_ratio {
                best_ratio = ratio;
                best = v.index();
            }
        }
        debug_assert!(best != usize::MAX);
        chosen[best] = true;
        let v = pga_graph::NodeId::from_index(best);
        for u in std::iter::once(v).chain(g.neighbors(v).iter().copied()) {
            if !covered[u.index()] {
                covered[u.index()] = true;
                num_covered += 1;
            }
        }
    }
    chosen
}

/// Local-ratio 2-approximation for minimum weighted vertex cover \[BE83\].
///
/// Scans the edges; for each edge subtracts `min` of the residual weights
/// from both endpoints; vertices driven to residual 0 form the cover.
pub fn local_ratio_mwvc(g: &Graph, w: &VertexWeights) -> Vec<bool> {
    assert!(w.matches(g));
    let mut residual: Vec<u64> = w.as_slice().to_vec();
    for (u, v) in g.edges() {
        let e = residual[u.index()].min(residual[v.index()]);
        residual[u.index()] -= e;
        residual[v.index()] -= e;
    }
    // Zero-residual vertices cover every edge: for each edge, the min
    // endpoint hit zero when it was processed.
    residual.iter().map(|&r| r == 0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mds::mds_size;
    use crate::wvc::mwvc_weight;
    use pga_graph::cover::{is_dominating_set, is_vertex_cover, set_size, set_weight};
    use pga_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn greedy_mds_valid_and_bounded() {
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..10 {
            let g = generators::gnp(16, 0.2, &mut rng);
            let s = greedy_mds(&g);
            assert!(is_dominating_set(&g, &s));
            let opt = mds_size(&g);
            let delta = g.max_degree().max(1);
            let bound = ((delta as f64).ln() + 2.0) * opt as f64;
            assert!(
                set_size(&s) as f64 <= bound.max(opt as f64),
                "greedy {} vs bound {bound}",
                set_size(&s)
            );
        }
    }

    #[test]
    fn greedy_mds_star_optimal() {
        let g = generators::star(10);
        assert_eq!(set_size(&greedy_mds(&g)), 1);
    }

    #[test]
    fn greedy_mwds_valid() {
        let mut rng = StdRng::seed_from_u64(9);
        let g = generators::gnp(15, 0.25, &mut rng);
        let w = VertexWeights::random(15, 1..10, &mut rng);
        let s = greedy_mwds(&g, &w);
        assert!(is_dominating_set(&g, &s));
    }

    #[test]
    fn greedy_mwds_prefers_cheap() {
        let g = generators::star(5);
        let w = VertexWeights::from_vec(vec![1, 9, 9, 9, 9]);
        let s = greedy_mwds(&g, &w);
        assert_eq!(set_weight(&s, w.as_slice()), 1);
    }

    #[test]
    fn local_ratio_is_2_approx() {
        let mut rng = StdRng::seed_from_u64(10);
        for _ in 0..15 {
            let g = generators::gnp(12, 0.3, &mut rng);
            let w = VertexWeights::random(12, 1..20, &mut rng);
            let c = local_ratio_mwvc(&g, &w);
            assert!(is_vertex_cover(&g, &c));
            let opt = mwvc_weight(&g, &w);
            assert!(
                set_weight(&c, w.as_slice()) <= 2 * opt,
                "local ratio exceeded 2·OPT"
            );
        }
    }

    #[test]
    fn local_ratio_isolated_vertices_excluded() {
        let g = pga_graph::Graph::empty(4);
        let w = VertexWeights::uniform(4);
        let c = local_ratio_mwvc(&g, &w);
        assert_eq!(set_size(&c), 0);
    }
}
