//! The round kernel against its oracle: every engine, thread count
//! and scheduling policy of `Simulator::run_cfg` must reproduce
//! the deliberately naive `pga_runtime::reference::run` executor
//! exactly — outputs, metrics, and errors.

use pga_congest::primitives::FloodMax;
use pga_congest::{id_bits, Engine, ProbeMode, RunConfig, Scheduling, Simulator};
use pga_graph::{generators, Graph, NodeId};
use proptest::prelude::*;

/// Uniform gnm, heavy-tailed Barabási–Albert, and the quiescent-tail
/// lollipop.
fn arb_instance() -> impl Strategy<Value = Graph> {
    (4usize..28, any::<u64>(), 0u8..3).prop_map(|(n, seed, family)| match family {
        0 => {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let m = (n + seed as usize % (2 * n)).min(n * (n - 1) / 2);
            generators::connected_gnm(n, m, &mut rng)
        }
        1 => generators::barabasi_albert(n, 3.min(n - 1).max(1), seed),
        _ => {
            let blob_m = (n + n / 2).min(n * (n - 1) / 2);
            generators::gnm_lollipop(n, blob_m, 1 + (seed as usize % 12), seed)
        }
    })
}

fn flood(n: usize) -> Vec<FloodMax> {
    (0..n)
        .map(|i| FloodMax::new(NodeId::from_index(i)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A bandwidth below one id and a round budget of 3 make some cases
    /// fail, so errors are compared as well as successful runs.
    #[test]
    fn run_cfg_matches_reference_oracle(
        g in arb_instance(),
        starved in any::<bool>(),
        tight_budget in any::<bool>(),
    ) {
        let n = g.num_nodes();
        let mut sim = Simulator::congest(&g);
        if starved {
            sim = sim.with_bandwidth_bits(id_bits(n) - 1);
        }
        let budget = if tight_budget { 3 } else { 1_000 };
        let oracle = pga_runtime::reference::run(&sim.exec_model::<FloodMax>(), flood(n), budget);
        for engine in [
            Engine::Sequential,
            Engine::Parallel { threads: 1 },
            Engine::Parallel { threads: 2 },
            Engine::Parallel { threads: 4 },
        ] {
            for scheduling in [Scheduling::ActiveSet, Scheduling::FullSweep] {
                let cfg = RunConfig::new()
                    .engine(engine)
                    .scheduling(scheduling)
                    .max_rounds(budget)
                    .probe(ProbeMode::Off);
                let run = sim.run_cfg(flood(n), &cfg);
                match (&oracle, &run) {
                    (Ok(want), Ok(got)) => {
                        prop_assert_eq!(&got.outputs, &want.outputs, "{:?}", cfg);
                        prop_assert_eq!(&got.metrics, &want.metrics, "{:?}", cfg);
                    }
                    (Err(want), Err(got)) => prop_assert_eq!(got, want, "{:?}", cfg),
                    _ => prop_assert!(false, "{:?}: oracle {:?} vs run {:?}", cfg,
                        oracle.as_ref().err(), run.as_ref().err()),
                }
            }
        }
    }
}
