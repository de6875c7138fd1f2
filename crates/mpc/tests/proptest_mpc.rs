//! Property-based tests: the CONGEST-to-MPC adapter must reproduce the
//! CONGEST reference engine bit for bit on random graphs, the MPC
//! engines must agree with each other, and the native ruling set must
//! match its sequential oracle.

use pga_congest::primitives::FloodMax;
use pga_congest::{RunConfig, Simulator};
use pga_graph::{generators, Graph, NodeId};
use pga_mpc::{g2_ruling_set_mpc, lex_first_g2_mis, CongestOnMpc, Engine};
use proptest::prelude::*;

fn arb_connected() -> impl Strategy<Value = Graph> {
    (2usize..40, any::<u64>()).prop_map(|(n, seed)| {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        generators::connected_gnp(n, 0.12, &mut rng)
    })
}

fn arb_any_graph() -> impl Strategy<Value = Graph> {
    (1usize..40, any::<u64>()).prop_map(|(n, seed)| {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let m_max = n * (n - 1) / 2;
        generators::gnm(n, m_max.min(2 * n) / 2, &mut rng)
    })
}

fn floodmax_states(n: usize) -> Vec<FloodMax> {
    (0..n)
        .map(|i| FloodMax::new(NodeId::from_index(i)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The adapter reproduces `Simulator::run_cfg` bit for bit — outputs and
    /// full CONGEST metrics (congestion profile included) — for FloodMax
    /// on random connected graphs, across memory budgets (machine
    /// counts) and both MPC engines.
    #[test]
    fn adapter_floodmax_bit_identical(g in arb_connected(), budget_scale in 0usize..3) {
        let n = g.num_nodes();
        let reference = Simulator::congest(&g).run_cfg(floodmax_states(n), &RunConfig::new()).unwrap();
        let base = pga_mpc::recommended_memory_words(
            &g,
            pga_congest::default_bandwidth_bits(n),
        );
        let on_mpc = CongestOnMpc::congest(&g).with_memory_words(base << budget_scale);
        for engine in [Engine::Sequential, Engine::Parallel { threads: 3 }] {
            let adapter = on_mpc.run_cfg(floodmax_states(n), &RunConfig::new().engine(engine)).unwrap();
            prop_assert_eq!(&adapter.outputs, &reference.outputs);
            prop_assert_eq!(&adapter.congest, &reference.metrics);
            prop_assert!(adapter.mpc.rounds == reference.metrics.rounds);
            prop_assert!(adapter.mpc.peak_memory_words <= base << budget_scale);
        }
    }

    /// The MPC ruling set equals the lexicographically-first MIS of G²
    /// on arbitrary (possibly disconnected) random graphs, on both
    /// engines.
    #[test]
    fn ruling_set_matches_sequential_oracle(g in arb_any_graph()) {
        let oracle = lex_first_g2_mis(&g);
        let s = pga_mpc::recommended_ruling_set_memory_words(&g);
        for engine in [Engine::Sequential, Engine::Parallel { threads: 2 }] {
            let result = g2_ruling_set_mpc(&g, s, engine).unwrap();
            prop_assert_eq!(&result.in_r, &oracle);
        }
        // R dominates the square — a valid alternative cover seed.
        prop_assert!(pga_graph::cover::is_dominating_set_on_square(&g, &oracle));
    }

    /// Shrinking the memory budget only changes the machine count, never
    /// the simulated run: more machines, same bits.
    #[test]
    fn adapter_invariant_under_partitioning(g in arb_connected()) {
        let n = g.num_nodes();
        let base = pga_mpc::recommended_memory_words(
            &g,
            pga_congest::default_bandwidth_bits(n),
        );
        let coarse = CongestOnMpc::congest(&g)
            .with_memory_words(4 * base)
            .run_cfg(floodmax_states(n), &RunConfig::new())
            .unwrap();
        let fine = CongestOnMpc::congest(&g)
            .with_memory_words(base)
            .run_cfg(floodmax_states(n), &RunConfig::new())
            .unwrap();
        prop_assert!(fine.machines >= coarse.machines);
        prop_assert_eq!(&fine.outputs, &coarse.outputs);
        prop_assert_eq!(&fine.congest, &coarse.congest);
    }
}
