//! Property-based tests for the reliability plane at the pipeline
//! level: with ARQ plus phase timeouts armed, every `G²`-MVC pipeline
//! must return a *valid* cover no matter how hostile the (seeded)
//! adversary is — timeouts may only degrade the approximation, never
//! feasibility — and the degraded result must stay bit-identical
//! across engines, thread counts, and message planes. On clean runs
//! the armed timeouts must be invisible.

use pga_congest::{FaultSpec, ReliabilitySpec, RunConfig};
use pga_core::mpc::g2_mvc_congest_mpc_cfg;
use pga_core::mvc::clique_det::g2_mvc_clique_det_cfg;
use pga_core::mvc::clique_rand::g2_mvc_clique_rand_cfg;
use pga_core::mvc::congest::{g2_mvc_congest, g2_mvc_congest_cfg, LocalSolver};
use pga_core::mvc::weighted::g2_mwvc_congest_cfg;
use pga_graph::cover::is_vertex_cover_on_square;
use pga_graph::weights::VertexWeights;
use pga_graph::{generators, Graph};
use proptest::prelude::*;

fn arb_instance() -> impl Strategy<Value = Graph> {
    (4usize..12, any::<u64>()).prop_map(|(n, seed)| {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let m = (n + seed as usize % (2 * n)).min(n * (n - 1) / 2);
        generators::connected_gnm(n, m, &mut rng)
    })
}

/// Every fault class at once, including crashes — the schedule the
/// phase timeouts exist for: a crashed sender's links go dead under
/// ARQ, so without the deadline fallback a gather phase would wait
/// forever for edges that can no longer arrive.
fn hostile(seed: u64) -> FaultSpec {
    FaultSpec::seeded(seed)
        .drop(0.05)
        .duplicate(0.02)
        .delay(0.03, 3)
        .crash(0.03, 4)
}

/// ARQ with a small retry budget (so crashed links die quickly) and
/// phase timeouts at 2× the clean round bound.
fn recovery() -> ReliabilitySpec {
    ReliabilitySpec::arq()
        .with_max_retries(3)
        .with_phase_timeouts(2)
}

/// The adapter's recommended budget for `g`: small enough that the
/// instances here span several machines.
fn mpc_budget(g: &Graph) -> usize {
    pga_mpc::recommended_memory_words(g, pga_congest::default_bandwidth_bits(g.num_nodes()))
}

fn hostile_cfg(seed: u64, threads: usize) -> RunConfig {
    let base = if threads == 0 {
        RunConfig::new().sequential()
    } else {
        RunConfig::new().parallel(threads)
    };
    base.max_rounds(200_000)
        .adversary(hostile(seed))
        .reliability(recovery())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Armed-but-unneeded timeouts are invisible: with no adversary,
    /// ARQ + phase timeouts reproduce the clean pipeline bit for bit.
    #[test]
    fn armed_timeouts_are_invisible_on_clean_runs(g in arb_instance()) {
        let clean = g2_mvc_congest(&g, 0.4, LocalSolver::Exact).unwrap();
        let cfg = RunConfig::new().reliability(recovery());
        let r = g2_mvc_congest_cfg(&g, 0.4, LocalSolver::Exact, &cfg).unwrap();
        prop_assert_eq!(&r.cover, &clean.cover);
        prop_assert_eq!(r.phase1_metrics.fault.degraded, 0);
        prop_assert_eq!(r.phase2_metrics.fault.degraded, 0);
    }

    /// Theorem 1's CONGEST pipeline under the full hostile schedule:
    /// the recovered cover is always feasible on `G²`, and the whole
    /// degraded result is replay-identical across engines and thread
    /// counts.
    #[test]
    fn congest_mvc_timeout_fallback_is_always_valid(g in arb_instance(), seed in any::<u64>()) {
        let base = g2_mvc_congest_cfg(&g, 0.4, LocalSolver::Exact, &hostile_cfg(seed, 0))
            .unwrap();
        prop_assert!(is_vertex_cover_on_square(&g, &base.cover));
        for threads in [1usize, 4] {
            let r = g2_mvc_congest_cfg(&g, 0.4, LocalSolver::Exact, &hostile_cfg(seed, threads))
                .unwrap();
            prop_assert_eq!(&r.cover, &base.cover, "threads {}", threads);
            prop_assert_eq!(
                r.phase2_metrics.fault.degraded,
                base.phase2_metrics.fault.degraded,
                "threads {}", threads
            );
        }
    }

    /// The weighted pipeline (Theorem 24) under the hostile schedule:
    /// valid cover, deterministic degradation.
    #[test]
    fn weighted_mvc_timeout_fallback_is_always_valid(g in arb_instance(), seed in any::<u64>()) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5eed);
        let w = VertexWeights::random(g.num_nodes(), 1..100, &mut rng);
        let base = g2_mwvc_congest_cfg(&g, &w, 0.5, &hostile_cfg(seed, 0)).unwrap();
        prop_assert!(is_vertex_cover_on_square(&g, &base.cover));
        for threads in [1usize, 4] {
            let r = g2_mwvc_congest_cfg(&g, &w, 0.5, &hostile_cfg(seed, threads)).unwrap();
            prop_assert_eq!(&r.cover, &base.cover, "threads {}", threads);
        }
    }

    /// Both clique pipelines (deterministic Phase I + leader verdicts,
    /// randomized voting Phase I) under the hostile schedule: valid
    /// covers, deterministic across engines.
    #[test]
    fn clique_mvc_timeout_fallback_is_always_valid(g in arb_instance(), seed in any::<u64>()) {
        let det = g2_mvc_clique_det_cfg(&g, 0.4, LocalSolver::Exact, &hostile_cfg(seed, 0))
            .unwrap();
        prop_assert!(is_vertex_cover_on_square(&g, &det.cover));
        let rand = g2_mvc_clique_rand_cfg(&g, 0.4, LocalSolver::Exact, seed, &hostile_cfg(seed, 0))
            .unwrap();
        prop_assert!(is_vertex_cover_on_square(&g, &rand.cover));
        for threads in [1usize, 4] {
            let d = g2_mvc_clique_det_cfg(&g, 0.4, LocalSolver::Exact, &hostile_cfg(seed, threads))
                .unwrap();
            prop_assert_eq!(&d.cover, &det.cover, "det threads {}", threads);
            let r = g2_mvc_clique_rand_cfg(&g, 0.4, LocalSolver::Exact, seed, &hostile_cfg(seed, threads))
                .unwrap();
            prop_assert_eq!(&r.cover, &rand.cover, "rand threads {}", threads);
        }
    }

    /// The MPC-executed pipeline under the hostile schedule applied to
    /// the cross-machine exchange: valid cover, deterministic across
    /// engines. The recommended budget spreads these
    /// graphs over several machines, so there is an exchange to fault.
    #[test]
    fn mpc_mvc_timeout_fallback_is_always_valid(g in arb_instance(), seed in any::<u64>()) {
        let budget = mpc_budget(&g);
        let base = g2_mvc_congest_mpc_cfg(&g, 0.4, LocalSolver::Exact, budget, &hostile_cfg(seed, 0))
            .unwrap();
        prop_assert!(base.machines >= 2, "machines {}", base.machines);
        prop_assert!(is_vertex_cover_on_square(&g, &base.result.cover));
        for threads in [1usize, 4] {
            let r = g2_mvc_congest_mpc_cfg(&g, 0.4, LocalSolver::Exact, budget, &hostile_cfg(seed, threads))
                .unwrap();
            prop_assert_eq!(&r.result.cover, &base.result.cover, "threads {}", threads);
        }
    }
}

/// The hostile schedule really reaches the MPC exchange: over a fixed
/// set of seeds the machines see drops, duplicates, delays and
/// retransmits, and every cover stays valid.
#[test]
fn mpc_faults_are_inflicted_on_the_exchange() {
    use rand::SeedableRng;
    let mut total = pga_congest::FaultStats::default();
    for seed in 0..6u64 {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let g = generators::connected_gnm(11, 18, &mut rng);
        let run = g2_mvc_congest_mpc_cfg(
            &g,
            0.4,
            LocalSolver::Exact,
            mpc_budget(&g),
            &hostile_cfg(seed, 0),
        )
        .unwrap();
        assert!(run.machines >= 2, "seed {seed}: {} machines", run.machines);
        assert!(
            is_vertex_cover_on_square(&g, &run.result.cover),
            "seed {seed}"
        );
        total.absorb(&run.mpc_metrics.fault);
    }
    assert!(
        total.dropped > 0 && total.duplicated > 0 && total.delayed > 0,
        "{total:?}"
    );
    assert!(total.retransmitted > 0, "{total:?}");
}
