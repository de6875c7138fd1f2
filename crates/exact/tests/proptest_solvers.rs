//! Property-based tests pitting the branch-and-bound solvers against
//! brute force and against each other's bounds.

use pga_exact::bounds::{square_mds_packing_bound, square_vc_bound};
use pga_exact::greedy::{greedy_mds, greedy_mwds, local_ratio_mwvc};
use pga_exact::mds::{
    mds_size, solve_mds, solve_mds_bruteforce, solve_mwds, solve_mwds_with_budget,
};
use pga_exact::vc::{mvc_size, solve_mvc, solve_mvc_bruteforce, solve_mvc_with_budget};
use pga_exact::wvc::{mwvc_weight, solve_mwvc, solve_mwvc_bruteforce};
use pga_graph::cover::{is_dominating_set, is_vertex_cover, set_size, set_weight};
use pga_graph::power::square;
use pga_graph::{generators, Graph, NodeId, VertexWeights};
use proptest::prelude::*;
use rand::SeedableRng;

fn arb_graph() -> impl Strategy<Value = Graph> {
    (
        3usize..12,
        proptest::collection::vec((0u32..12, 0u32..12), 0..30),
    )
        .prop_map(|(n, edges)| {
            let edges: Vec<(u32, u32)> = edges
                .into_iter()
                .map(|(a, b)| (a % n as u32, b % n as u32))
                .collect();
            Graph::from_edges(n, &edges)
        })
}

/// Sparse and heavy-tailed graphs larger than brute force can handle:
/// `gnm` at up to three edges per vertex, or Barabási–Albert.
fn arb_sparse_graph() -> impl Strategy<Value = Graph> {
    (2usize..120, any::<u64>(), any::<bool>()).prop_map(|(n, seed, ba)| {
        if ba {
            generators::barabasi_albert(n, 1 + seed as usize % 4, seed)
        } else {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let m = (seed as usize % (3 * n + 1)).min(n * (n - 1) / 2);
            generators::gnm(n, m, &mut rng)
        }
    })
}

/// The eager greedy MDS: rescan every vertex for the largest gain per
/// pick, ties to the smallest id. The oracle for the lazy `greedy_mds`.
fn greedy_mds_eager(g: &Graph) -> Vec<bool> {
    let n = g.num_nodes();
    let mut covered = vec![false; n];
    let mut chosen = vec![false; n];
    let closed = |v: NodeId| std::iter::once(v).chain(g.neighbors(v).iter().copied());
    while covered.iter().any(|&c| !c) {
        let mut best = None;
        let mut best_gain = 0;
        for v in g.nodes() {
            let gain = closed(v).filter(|u| !covered[u.index()]).count();
            if gain > best_gain {
                best_gain = gain;
                best = Some(v);
            }
        }
        let v = best.expect("an uncovered vertex covers itself");
        chosen[v.index()] = true;
        for u in closed(v) {
            covered[u.index()] = true;
        }
    }
    chosen
}

fn arb_weights(n: usize) -> impl Strategy<Value = VertexWeights> {
    proptest::collection::vec(0u64..12, n).prop_map(VertexWeights::from_vec)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// B&B equals brute force for MVC.
    #[test]
    fn mvc_matches_bruteforce(g in arb_graph()) {
        let bb = set_size(&solve_mvc(&g));
        let bf = set_size(&solve_mvc_bruteforce(&g));
        prop_assert_eq!(bb, bf);
    }

    /// B&B equals brute force for MDS.
    #[test]
    fn mds_matches_bruteforce(g in arb_graph()) {
        let bb = set_size(&solve_mds(&g));
        let bf = set_size(&solve_mds_bruteforce(&g));
        prop_assert_eq!(bb, bf);
    }

    /// Weighted B&B equals weighted brute force.
    #[test]
    fn mwvc_matches_bruteforce((g, w) in arb_graph().prop_flat_map(|g| {
        let n = g.num_nodes();
        (Just(g), arb_weights(n))
    })) {
        let bb = set_weight(&solve_mwvc(&g, &w), w.as_slice());
        let bf = set_weight(&solve_mwvc_bruteforce(&g, &w), w.as_slice());
        prop_assert_eq!(bb, bf);
    }

    /// Budget mode is consistent with the optimum: feasible iff budget ≥
    /// OPT, and any returned solution respects the budget.
    #[test]
    fn vc_budget_consistency(g in arb_graph(), slack in 0usize..3) {
        let opt = mvc_size(&g);
        if opt > 0 {
            prop_assert!(solve_mvc_with_budget(&g, opt - 1).is_none());
        }
        let c = solve_mvc_with_budget(&g, opt + slack).expect("feasible at OPT+slack");
        prop_assert!(is_vertex_cover(&g, &c));
        prop_assert!(set_size(&c) <= opt + slack);
    }

    /// MDS budget mode consistency (weighted, uniform weights).
    #[test]
    fn mds_budget_consistency(g in arb_graph()) {
        let w = VertexWeights::uniform(g.num_nodes());
        let opt = mds_size(&g) as u64;
        if opt > 0 {
            prop_assert!(solve_mwds_with_budget(&g, &w, opt - 1).is_none());
        }
        let s = solve_mwds_with_budget(&g, &w, opt).expect("feasible at OPT");
        prop_assert!(is_dominating_set(&g, &s));
    }

    /// Greedy baselines are valid and at least the optimum.
    #[test]
    fn greedy_valid_and_above_opt(g in arb_graph()) {
        let gm = greedy_mds(&g);
        prop_assert!(is_dominating_set(&g, &gm));
        prop_assert!(set_size(&gm) >= mds_size(&g));

        let w = VertexWeights::uniform(g.num_nodes());
        let gw = greedy_mwds(&g, &w);
        prop_assert!(is_dominating_set(&g, &gw));

        let lr = local_ratio_mwvc(&g, &w);
        prop_assert!(is_vertex_cover(&g, &lr));
        prop_assert!(set_weight(&lr, w.as_slice()) <= 2 * mwvc_weight(&g, &w));
    }

    /// The lazy greedy MDS picks exactly the eager scan's set, on
    /// random graphs and on their squares.
    #[test]
    fn lazy_greedy_mds_matches_eager(g in arb_sparse_graph()) {
        prop_assert_eq!(greedy_mds(&g), greedy_mds_eager(&g));
        let g2 = square(&g);
        prop_assert_eq!(greedy_mds(&g2), greedy_mds_eager(&g2));
    }

    /// The cheap square bounds never exceed the exact square optima.
    #[test]
    fn square_bounds_sound(g in arb_graph()) {
        let g2 = square(&g);
        prop_assert!(square_vc_bound(&g) <= mvc_size(&g2));
        prop_assert!(square_mds_packing_bound(&g) <= mds_size(&g2));
    }

    /// Zero-weight vertices never hurt: the weighted optimum with some
    /// weights zeroed is at most the original optimum.
    #[test]
    fn zeroing_weights_monotone(g in arb_graph(), mask in any::<u16>()) {
        let n = g.num_nodes();
        let w1 = VertexWeights::from_vec(vec![3; n]);
        let zeroed: Vec<u64> = (0..n)
            .map(|i| if mask >> (i % 16) & 1 == 1 { 0 } else { 3 })
            .collect();
        let w2 = VertexWeights::from_vec(zeroed);
        prop_assert!(mwvc_weight(&g, &w2) <= mwvc_weight(&g, &w1));
        let s2 = solve_mwds(&g, &w2);
        prop_assert!(is_dominating_set(&g, &s2));
    }
}
