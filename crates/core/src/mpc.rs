//! MPC variants of the paper's CONGEST entry points.
//!
//! Each `*_mpc` function runs the *exact same* per-node algorithm as its
//! CONGEST sibling, but executes it through `pga-mpc`'s
//! [`CongestOnMpc`] adapter: the vertex set is partitioned across
//! machines with an enforced `S`-word memory budget and per-round I/O
//! caps, and messages route through the MPC exchange. The simulated
//! algorithm cannot tell the difference — results (covers, dominating
//! sets, CONGEST metrics) are **bit-identical** to the CONGEST engines —
//! while the run is additionally accounted in MPC terms
//! ([`MpcExecution::mpc_metrics`]).

use crate::mds::congest_g2::{theorem28_nodes, G2MdsResult};
use crate::mvc::congest::{threshold_for_eps, G2MvcResult};
use crate::mvc::phase1::Phase1;
use crate::mvc::remainder::{f_edges_for_node, solve_remainder, CoverId, FEdge};
use pga_congest::primitives::{GatherScatter, LeaderCompute};
use pga_congest::{default_bandwidth_bits, Metrics, SimError};
use pga_graph::{Graph, NodeId};
use pga_mpc::{
    adapter_vertex_cost, recommended_memory_words, CongestOnMpc, MpcError, MpcMetrics, RunConfig,
};
use std::sync::Arc;

pub use crate::mvc::remainder::LocalSolver;

/// A result computed on the MPC engine, together with the MPC-side
/// resource accounting.
#[derive(Clone, Debug)]
pub struct MpcExecution<T> {
    /// The algorithm result — bit-identical to the CONGEST entry point's.
    pub result: T,
    /// The largest number of machines used by any phase.
    pub machines: usize,
    /// MPC resource metrics, accumulated across phases.
    pub mpc_metrics: MpcMetrics,
}

/// A memory budget sufficient for the adapter to host `g`'s busiest
/// vertex with algorithm state `A`: the adapter's recommended budget,
/// raised if `A`'s per-node state makes the worst vertex fatter (via
/// the adapter's own [`adapter_vertex_cost`] formula, so the bound
/// cannot drift from the partitioner).
fn budget_for<A>(g: &Graph) -> usize {
    let bandwidth = default_bandwidth_bits(g.num_nodes());
    let state_words = std::mem::size_of::<A>().div_ceil(8);
    let worst = (0..g.num_nodes())
        .map(|v| adapter_vertex_cost(g.degree(NodeId::from_index(v)), bandwidth, state_words))
        .max()
        .unwrap_or(0);
    recommended_memory_words(g, bandwidth).max(2 * worst)
}

/// Theorem 1 on the MPC engine: the `(1 + ε)`-approximate `G²`-MVC,
/// with the adapter's recommended memory budget and the sequential
/// engine.
///
/// # Errors
///
/// [`MpcError::Congest`] wraps the `SimError` the CONGEST engines would
/// raise (including the connectivity precondition); the other variants
/// report MPC budget violations.
///
/// # Example
///
/// ```
/// use pga_core::mpc::{g2_mvc_congest_mpc, LocalSolver};
/// use pga_graph::cover::is_vertex_cover_on_square;
/// use pga_graph::generators;
///
/// let g = generators::clique_chain(3, 5);
/// let run = g2_mvc_congest_mpc(&g, 0.5, LocalSolver::Exact).unwrap();
/// assert!(is_vertex_cover_on_square(&g, &run.result.cover));
/// assert!(run.machines >= 1);
/// ```
pub fn g2_mvc_congest_mpc(
    g: &Graph,
    eps: f64,
    solver: LocalSolver,
) -> Result<MpcExecution<G2MvcResult>, MpcError> {
    let budget = budget_for::<Phase1>(g).max(budget_for::<GatherScatter<FEdge, CoverId>>(g));
    g2_mvc_congest_mpc_cfg(g, eps, solver, budget, &RunConfig::new())
}

/// [`g2_mvc_congest_mpc`] with an explicit memory budget `S` (words)
/// under an explicit [`RunConfig`] (engine, thread count, scheduling
/// policy).
///
/// Every configuration is bit-identical, including the MPC resource
/// accounting.
///
/// # Errors
///
/// Returns an [`MpcError`] like [`g2_mvc_congest_mpc`].
pub fn g2_mvc_congest_mpc_cfg(
    g: &Graph,
    eps: f64,
    solver: LocalSolver,
    memory_words: usize,
    cfg: &RunConfig,
) -> Result<MpcExecution<G2MvcResult>, MpcError> {
    let n = g.num_nodes();
    if eps >= 1.0 || n == 0 {
        // Lemma 6's zero-round trivial approximation, exactly as in the
        // CONGEST entry point (and the only sound answer for the empty
        // graph, whose Phase II has no leader to gather at).
        return Ok(MpcExecution {
            result: G2MvcResult {
                cover: vec![true; n],
                s_size: n,
                r_star_size: 0,
                phase1_metrics: Metrics::default(),
                phase2_metrics: Metrics::default(),
            },
            machines: 0,
            mpc_metrics: MpcMetrics::default(),
        });
    }
    if !pga_graph::traversal::is_connected(g) {
        return Err(MpcError::Congest(SimError::PreconditionViolated {
            what: "g2_mvc_congest requires a connected communication graph",
        }));
    }
    let l = threshold_for_eps(eps);
    let driver = CongestOnMpc::congest(g).with_memory_words(memory_words);

    // Phase I: clique harvesting, with the CONGEST entry point's phase
    // deadline when the reliability plane is armed.
    let p1_deadline = cfg.phase_deadline(4 * n + 8);
    let p1 = driver.run_cfg(
        (0..n)
            .map(|_| Phase1::new(l).with_deadline(p1_deadline))
            .collect(),
        cfg,
    )?;
    let mut phase1_metrics = p1.congest;
    phase1_metrics.fault.degraded += p1.outputs.iter().filter(|o| o.timed_out).count() as u64;
    let p1_out = p1.outputs;

    // Phase II: gather F at the leader, solve, scatter R* — with the
    // same phase deadline as the CONGEST entry point when the
    // reliability plane is armed.
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
    let p2 = driver.run_cfg(nodes, cfg)?;

    let mut cover: Vec<bool> = p1_out.iter().map(|o| o.in_s).collect();
    let s_size = cover.iter().filter(|&&b| b).count();
    let r_star = &p2.outputs[0].response;
    for c in r_star {
        cover[c.0.index()] = true;
    }
    // Phase-timeout fallback: incomplete nodes self-add (validity over
    // approximation), mirroring the CONGEST entry point.
    let mut phase2_metrics = p2.congest;
    for (i, o) in p2.outputs.iter().enumerate() {
        if !o.complete {
            phase2_metrics.fault.degraded += 1;
            cover[i] = true;
        }
    }

    let mut mpc_metrics = p1.mpc;
    mpc_metrics.absorb(&p2.mpc);
    Ok(MpcExecution {
        result: G2MvcResult {
            cover,
            s_size,
            r_star_size: r_star.len(),
            phase1_metrics,
            phase2_metrics,
        },
        machines: p1.machines.max(p2.machines),
        mpc_metrics,
    })
}

/// Theorem 28 on the MPC engine: the randomized `O(log Δ)`-approximate
/// `G²`-MDS, with the adapter's recommended memory budget and the
/// sequential engine. The same `seed` yields the same dominating set as
/// [`crate::mds::congest_g2::g2_mds_congest`], bit for bit.
///
/// # Errors
///
/// Returns an [`MpcError`] like [`g2_mvc_congest_mpc`].
pub fn g2_mds_congest_mpc(
    g: &Graph,
    sample_factor: usize,
    seed: u64,
) -> Result<MpcExecution<G2MdsResult>, MpcError> {
    let budget = budget_for::<crate::mds::congest_g2::Theorem28Node>(g);
    g2_mds_congest_mpc_cfg(g, sample_factor, seed, budget, &RunConfig::new())
}

/// [`g2_mds_congest_mpc`] with an explicit memory budget `S` (words)
/// under an explicit [`RunConfig`] (engine, thread count, scheduling
/// policy).
///
/// Every configuration is bit-identical, including the MPC resource
/// accounting.
///
/// # Errors
///
/// Returns an [`MpcError`] like [`g2_mvc_congest_mpc`].
pub fn g2_mds_congest_mpc_cfg(
    g: &Graph,
    sample_factor: usize,
    seed: u64,
    memory_words: usize,
    cfg: &RunConfig,
) -> Result<MpcExecution<G2MdsResult>, MpcError> {
    let n = g.num_nodes();
    if n == 0 {
        return Ok(MpcExecution {
            result: G2MdsResult {
                dominating_set: Vec::new(),
                metrics: Metrics::default(),
                samples_per_phase: 0,
            },
            machines: 0,
            mpc_metrics: MpcMetrics::default(),
        });
    }
    let (nodes, r) = theorem28_nodes(g, sample_factor, seed);
    let report = CongestOnMpc::congest(g)
        .with_memory_words(memory_words)
        .run_cfg(nodes, cfg)?;
    Ok(MpcExecution {
        result: G2MdsResult {
            dominating_set: report.outputs,
            metrics: report.congest,
            samples_per_phase: r,
        },
        machines: report.machines,
        mpc_metrics: report.mpc,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mds::congest_g2::g2_mds_congest;
    use crate::mvc::congest::g2_mvc_congest;
    use pga_graph::cover::{is_dominating_set_on_square, is_vertex_cover_on_square};
    use pga_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mvc_bit_identical_to_congest_entry_point() {
        let mut rng = StdRng::seed_from_u64(4242);
        for _ in 0..4 {
            let g = generators::connected_gnp(22, 0.12, &mut rng);
            for eps in [0.34, 0.5] {
                let reference = g2_mvc_congest(&g, eps, LocalSolver::Exact).unwrap();
                let mpc = g2_mvc_congest_mpc(&g, eps, LocalSolver::Exact).unwrap();
                assert_eq!(mpc.result.cover, reference.cover, "eps={eps}");
                assert_eq!(mpc.result.s_size, reference.s_size);
                assert_eq!(mpc.result.r_star_size, reference.r_star_size);
                assert_eq!(mpc.result.phase1_metrics, reference.phase1_metrics);
                assert_eq!(mpc.result.phase2_metrics, reference.phase2_metrics);
                assert!(is_vertex_cover_on_square(&g, &mpc.result.cover));
                assert!(mpc.machines >= 1);
                assert!(mpc.mpc_metrics.rounds == reference.total_rounds());
            }
        }
    }

    #[test]
    fn mds_bit_identical_to_congest_entry_point() {
        let mut rng = StdRng::seed_from_u64(4243);
        for seed in 0..3 {
            let g = generators::connected_gnp(20, 0.12, &mut rng);
            let reference = g2_mds_congest(&g, 6, seed).unwrap();
            let mpc = g2_mds_congest_mpc(&g, 6, seed).unwrap();
            assert_eq!(mpc.result.dominating_set, reference.dominating_set);
            assert_eq!(mpc.result.metrics, reference.metrics);
            assert!(is_dominating_set_on_square(&g, &mpc.result.dominating_set));
        }
    }

    #[test]
    fn mvc_trivial_eps_matches() {
        let g = generators::path(8);
        let run = g2_mvc_congest_mpc(&g, 2.0, LocalSolver::Exact).unwrap();
        assert_eq!(run.result.size(), 8);
        assert_eq!(run.mpc_metrics.rounds, 0);
    }

    #[test]
    fn empty_graph_returns_empty_cover() {
        let g = Graph::empty(0);
        let run = g2_mvc_congest_mpc(&g, 0.5, LocalSolver::Exact).unwrap();
        assert!(run.result.cover.is_empty());
        assert_eq!(run.mpc_metrics.rounds, 0);
        let reference = g2_mvc_congest(&g, 0.5, LocalSolver::Exact).unwrap();
        assert!(reference.cover.is_empty());
        let mds = g2_mds_congest_mpc(&g, 6, 1).unwrap();
        assert!(mds.result.dominating_set.is_empty());
    }

    #[test]
    fn mvc_disconnected_rejected_like_congest() {
        let g = generators::disjoint_union(&generators::path(4), &generators::path(4));
        let err = g2_mvc_congest_mpc(&g, 0.5, LocalSolver::Exact).unwrap_err();
        assert!(matches!(
            err,
            MpcError::Congest(SimError::PreconditionViolated { .. })
        ));
    }

    #[test]
    fn mvc_engine_choice_does_not_change_result() {
        let mut rng = StdRng::seed_from_u64(4244);
        let g = generators::connected_gnp(24, 0.12, &mut rng);
        let budget = budget_for::<Phase1>(&g).max(budget_for::<GatherScatter<FEdge, CoverId>>(&g));
        let seq =
            g2_mvc_congest_mpc_cfg(&g, 0.5, LocalSolver::Exact, budget, &RunConfig::new()).unwrap();
        let cfg = RunConfig::new().parallel(3);
        let par = g2_mvc_congest_mpc_cfg(&g, 0.5, LocalSolver::Exact, budget, &cfg).unwrap();
        assert_eq!(par.result.cover, seq.result.cover);
        assert_eq!(par.mpc_metrics, seq.mpc_metrics);
    }

    #[test]
    fn larger_budget_means_fewer_machines_same_bits() {
        let g = generators::grid(6, 6);
        let base = budget_for::<Phase1>(&g).max(budget_for::<GatherScatter<FEdge, CoverId>>(&g));
        let fine =
            g2_mvc_congest_mpc_cfg(&g, 0.5, LocalSolver::Exact, base, &RunConfig::new()).unwrap();
        let coarse =
            g2_mvc_congest_mpc_cfg(&g, 0.5, LocalSolver::Exact, 8 * base, &RunConfig::new())
                .unwrap();
        assert!(fine.machines >= coarse.machines);
        assert_eq!(fine.result.cover, coarse.result.cover);
        assert_eq!(fine.result.phase1_metrics, coarse.result.phase1_metrics);
    }
}
