//! Theorem 1: a deterministic `(1 + ε)`-approximation for `G²`-minimum
//! vertex cover in `O(n/ε)` CONGEST rounds.
//!
//! The algorithm composes two simulated executions on the communication
//! graph `G` (round counts add):
//!
//! * **Phase I** (`crate::mvc::phase1`): clique harvesting removes large
//!   `G²`-cliques into the cover `S` until every vertex has at most
//!   `⌊1/ε'⌋` neighbors outside `S`.
//! * **Phase II** (`crate::mvc::remainder` over
//!   [`pga_congest::primitives::GatherScatter`]): a leader gathers the
//!   `O(n/ε)` remaining edges `F` by pipelined convergecast (Lemma 2),
//!   reconstructs `H = G²[U]` (Lemma 3), covers it locally, and broadcasts
//!   the result. Each message carries as many `F`-edges (up) or cover
//!   ids (down) as fit the bandwidth `B`: a constant number, so the
//!   `O(n/ε)` bound holds with a constant about `B / log n` times
//!   smaller than one item per message.
//!
//! The returned cover is `S ∪ R*` — valid by Lemma 4 and a
//! `(1+ε)`-approximation by Lemma 5 when the local solver is exact.

use crate::mvc::phase1::Phase1;
use crate::mvc::remainder::{f_edges_for_node, solve_remainder, CoverId, FEdge};
use pga_congest::primitives::{GatherScatter, LeaderCompute};
use pga_congest::{Metrics, RunConfig, SimError, Simulator};
use pga_graph::{Graph, NodeId};
use std::sync::Arc;

pub use crate::mvc::remainder::LocalSolver;

/// Result of a distributed `G²`-MVC run.
#[derive(Clone, Debug)]
pub struct G2MvcResult {
    /// The computed vertex cover of `G²` (membership vector).
    pub cover: Vec<bool>,
    /// Vertices added by Phase I (the set `S`).
    pub s_size: usize,
    /// Vertices added by the leader's local solve (the set `R*`).
    pub r_star_size: usize,
    /// Metrics of Phase I.
    pub phase1_metrics: Metrics,
    /// Metrics of Phase II.
    pub phase2_metrics: Metrics,
}

impl G2MvcResult {
    /// Total rounds across both phases — the quantity Theorem 1 bounds by
    /// `O(n/ε)`.
    pub fn total_rounds(&self) -> usize {
        self.phase1_metrics.rounds + self.phase2_metrics.rounds
    }

    /// Size of the returned cover.
    pub fn size(&self) -> usize {
        self.cover.iter().filter(|&&b| b).count()
    }
}

/// Converts ε into the paper's integer threshold: `ε' = 1/l` with
/// `l = ⌈1/ε⌉`, and a center is eligible while it has **more than** `l`
/// remaining neighbors.
pub(crate) fn threshold_for_eps(eps: f64) -> usize {
    assert!(eps > 0.0, "ε must be positive");
    (1.0 / eps).ceil() as usize
}

/// Runs Theorem 1's algorithm on the connected communication graph `g`.
///
/// For `ε ≥ 1` the paper's trivial 2-approximation (take every vertex,
/// zero rounds) is returned, matching the proof of Theorem 1.
///
/// # Errors
///
/// Propagates [`SimError`] if the CONGEST constraints are violated or the
/// graph is disconnected (Phase II requires a BFS tree spanning `G`).
///
/// # Example
///
/// ```
/// use pga_graph::generators;
/// use pga_graph::cover::is_vertex_cover_on_square;
/// use pga_core::mvc::congest::{g2_mvc_congest, LocalSolver};
///
/// let g = generators::star(12);
/// let result = g2_mvc_congest(&g, 0.5, LocalSolver::Exact).unwrap();
/// assert!(is_vertex_cover_on_square(&g, &result.cover));
/// ```
pub fn g2_mvc_congest(g: &Graph, eps: f64, solver: LocalSolver) -> Result<G2MvcResult, SimError> {
    g2_mvc_congest_cfg(g, eps, solver, &RunConfig::new())
}

/// [`g2_mvc_congest`] under an explicit [`RunConfig`] (engine, thread
/// count, scheduling policy).
///
/// Every configuration is bit-identical: the result does not depend on
/// the choice; a parallel engine simply runs large instances faster. The experiment binaries
/// use `RunConfig::new().parallel_auto()`.
///
/// # Errors
///
/// Propagates [`SimError`] like [`g2_mvc_congest`].
pub fn g2_mvc_congest_cfg(
    g: &Graph,
    eps: f64,
    solver: LocalSolver,
    cfg: &RunConfig,
) -> Result<G2MvcResult, SimError> {
    let n = g.num_nodes();
    if eps >= 1.0 || n == 0 {
        // Trivial 2-approximation (Lemma 6 with r = 2), zero rounds —
        // also the empty graph's answer (Phase II's `outputs[0]` needs a
        // leader to exist).
        return Ok(G2MvcResult {
            cover: vec![true; n],
            s_size: n,
            r_star_size: 0,
            phase1_metrics: Metrics::default(),
            phase2_metrics: Metrics::default(),
        });
    }
    if !pga_graph::traversal::is_connected(g) {
        // Phase II's BFS tree must span G; fail fast instead of stalling.
        return Err(SimError::PreconditionViolated {
            what: "g2_mvc_congest requires a connected communication graph",
        });
    }
    let l = threshold_for_eps(eps);

    // Phase I. Under the reliability plane it carries a deadline from
    // the clean bound (≤ n winner iterations of 4 rounds each).
    let p1_deadline = cfg.phase_deadline(4 * n + 8);
    let sim = Simulator::congest(g);
    let p1 = sim.run_cfg(
        (0..n)
            .map(|_| Phase1::new(l).with_deadline(p1_deadline))
            .collect(),
        cfg,
    )?;
    let mut phase1_metrics = p1.metrics;
    phase1_metrics.fault.degraded += p1.outputs.iter().filter(|o| o.timed_out).count() as u64;
    let p1_out = p1.outputs;

    // Phase II: gather F at the leader, solve, scatter R*. Under the
    // reliability plane the gather carries a phase deadline derived
    // from the one-item-per-message convergecast bound O(k + D); past
    // it the leader solves over the partial edge set it holds. Every
    // batch carries at least one item, so a clean packed run (at most
    // O(⌈k·item bits / B⌉ + D) rounds) stays well inside it.
    let compute: LeaderCompute<FEdge, CoverId> =
        Arc::new(move |edges: Vec<FEdge>| solve_remainder(&edges, solver));
    let per_node: Vec<Vec<FEdge>> = (0..n)
        .map(|i| {
            let o = &p1_out[i];
            f_edges_for_node(NodeId::from_index(i), !o.in_s, &o.r_neighbors, |_| 1)
        })
        .collect();
    let k_total: usize = per_node.iter().map(Vec::len).sum();
    let deadline = cfg.phase_deadline(4 * (k_total + n) + 10);
    let nodes = per_node
        .into_iter()
        .map(|items| GatherScatter::new(items, Arc::clone(&compute)).with_deadline(deadline))
        .collect();
    let p2 = Simulator::congest(g).run_cfg(nodes, cfg)?;

    let mut cover: Vec<bool> = p1_out.iter().map(|o| o.in_s).collect();
    let s_size = cover.iter().filter(|&&b| b).count();
    // Every node receives the full R* broadcast; membership is local.
    let r_star = &p2.outputs[0].response;
    for c in r_star {
        cover[c.0.index()] = true;
    }
    // Conservative fallback after a phase timeout: a node whose
    // response is not flagged complete cannot trust R* to cover its
    // F-edges (the leader may never have seen them), so it self-adds.
    // Every H-edge then has a covered endpoint — validity is preserved,
    // only the approximation degrades.
    let mut phase2_metrics = p2.metrics;
    for (i, o) in p2.outputs.iter().enumerate() {
        if !o.complete {
            phase2_metrics.fault.degraded += 1;
            cover[i] = true;
        }
    }

    Ok(G2MvcResult {
        cover,
        s_size,
        r_star_size: r_star.len(),
        phase1_metrics,
        phase2_metrics,
    })
}

/// Corollary 17: the polynomial-computation 5/3-approximation in `O(n)`
/// CONGEST rounds — Phase I with `ε = 1/2`, then the Theorem 12 algorithm
/// at the leader. The overall factor is `max(1 + 1/2, 5/3) = 5/3`.
///
/// # Errors
///
/// Propagates [`SimError`] like [`g2_mvc_congest`].
pub fn g2_mvc_congest_five_thirds(g: &Graph) -> Result<G2MvcResult, SimError> {
    g2_mvc_congest(g, 0.5, LocalSolver::FiveThirds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pga_exact::vc::mvc_size;
    use pga_graph::cover::is_vertex_cover_on_square;
    use pga_graph::generators;
    use pga_graph::power::square;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn check(g: &Graph, eps: f64) -> G2MvcResult {
        let r = g2_mvc_congest(g, eps, LocalSolver::Exact).unwrap();
        assert!(
            is_vertex_cover_on_square(g, &r.cover),
            "invalid cover for eps={eps}"
        );
        r
    }

    #[test]
    fn valid_on_families() {
        for g in [
            generators::path(15),
            generators::cycle(12),
            generators::star(16),
            generators::caterpillar(5, 3),
            generators::clique_chain(3, 5),
            generators::grid(4, 4),
        ] {
            for eps in [0.25, 0.5, 1.0] {
                check(&g, eps);
            }
        }
    }

    #[test]
    fn approximation_factor_holds() {
        let mut rng = StdRng::seed_from_u64(51);
        for _ in 0..10 {
            let g = generators::connected_gnp(18, 0.12, &mut rng);
            let g2 = square(&g);
            let opt = mvc_size(&g2);
            for eps in [0.34, 0.5] {
                let r = check(&g, eps);
                // ε' = 1/⌈1/ε⌉ ≤ ε, so the guarantee is 1 + ε.
                assert!(
                    r.size() as f64 <= (1.0 + eps) * opt as f64 + 1e-9,
                    "eps={eps}: {} > (1+{eps})·{opt}",
                    r.size()
                );
            }
        }
    }

    #[test]
    fn engine_choice_does_not_change_result() {
        let mut rng = StdRng::seed_from_u64(54);
        let g = generators::connected_gnp(24, 0.12, &mut rng);
        let seq = g2_mvc_congest(&g, 0.5, LocalSolver::Exact).unwrap();
        let cfg = RunConfig::new().parallel(4);
        let par = g2_mvc_congest_cfg(&g, 0.5, LocalSolver::Exact, &cfg).unwrap();
        assert_eq!(par.cover, seq.cover);
        assert_eq!(par.phase1_metrics, seq.phase1_metrics);
        assert_eq!(par.phase2_metrics, seq.phase2_metrics);
    }

    #[test]
    fn sequential_cfg_matches_default_cfg() {
        let g = generators::clique_chain(3, 4);
        let cfg = RunConfig::new().sequential();
        let old = g2_mvc_congest_cfg(&g, 0.5, LocalSolver::Exact, &cfg).unwrap();
        let new = g2_mvc_congest_cfg(&g, 0.5, LocalSolver::Exact, &RunConfig::new()).unwrap();
        assert_eq!(old.cover, new.cover);
        assert_eq!(old.phase1_metrics, new.phase1_metrics);
        assert_eq!(old.phase2_metrics, new.phase2_metrics);
    }

    #[test]
    fn eps_above_one_is_trivial() {
        let g = generators::path(8);
        let r = g2_mvc_congest(&g, 2.0, LocalSolver::Exact).unwrap();
        assert_eq!(r.size(), 8);
        assert_eq!(r.total_rounds(), 0);
        // Lemma 6: all-vertices is a 2-approximation on G².
        let opt = mvc_size(&square(&g));
        assert!(r.size() <= 2 * opt);
    }

    #[test]
    fn rounds_scale_linearly_in_n() {
        // O(n/ε): fix ε, double n, rounds should grow at most ~linearly
        // (generous constant for BFS/pipelining overheads).
        let r1 = check(&generators::cycle(30), 0.5);
        let r2 = check(&generators::cycle(60), 0.5);
        assert!(
            r2.total_rounds() <= 4 * r1.total_rounds() + 50,
            "{} vs {}",
            r2.total_rounds(),
            r1.total_rounds()
        );
    }

    #[test]
    fn phase1_covers_high_degree_parts() {
        // Star: Phase I alone covers the leaves; the remainder is tiny.
        let g = generators::star(20);
        let r = check(&g, 0.25);
        assert!(r.s_size >= 19, "phase I must harvest the star");
    }

    #[test]
    fn five_thirds_local_solver_valid() {
        let mut rng = StdRng::seed_from_u64(52);
        let g = generators::connected_gnp(20, 0.1, &mut rng);
        let r = g2_mvc_congest(&g, 0.5, LocalSolver::FiveThirds).unwrap();
        assert!(is_vertex_cover_on_square(&g, &r.cover));
        // Corollary 17: ratio ≤ max(1+ε, 5/3) = 5/3 for ε = 1/2.
        let opt = mvc_size(&square(&g));
        if opt > 0 {
            assert!(r.size() as f64 / opt as f64 <= 5.0 / 3.0 + 1e-9);
        }
    }

    #[test]
    fn two_approx_local_solver_valid() {
        let g = generators::grid(3, 5);
        let r = g2_mvc_congest(&g, 0.5, LocalSolver::TwoApprox).unwrap();
        assert!(is_vertex_cover_on_square(&g, &r.cover));
    }

    #[test]
    fn corollary17_wrapper() {
        let mut rng = StdRng::seed_from_u64(53);
        let g = generators::connected_gnp(18, 0.15, &mut rng);
        let r = g2_mvc_congest_five_thirds(&g).unwrap();
        assert!(is_vertex_cover_on_square(&g, &r.cover));
        let opt = mvc_size(&square(&g)).max(1);
        assert!(r.size() as f64 / opt as f64 <= 5.0 / 3.0 + 1e-9);
    }

    #[test]
    fn disconnected_graph_rejected() {
        let g = pga_graph::generators::disjoint_union(&generators::path(4), &generators::path(4));
        let err = g2_mvc_congest(&g, 0.5, LocalSolver::Exact).unwrap_err();
        assert!(matches!(err, SimError::PreconditionViolated { .. }));
    }

    #[test]
    fn single_node_and_tiny_graphs() {
        let r = g2_mvc_congest(&Graph::empty(1), 0.5, LocalSolver::Exact).unwrap();
        assert_eq!(r.size(), 0);
        let r2 = g2_mvc_congest(&generators::path(2), 0.5, LocalSolver::Exact).unwrap();
        assert!(is_vertex_cover_on_square(&generators::path(2), &r2.cover));
        assert_eq!(r2.size(), 1);
    }
}
