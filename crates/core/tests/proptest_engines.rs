//! Cross-engine bit-identity proptests for every engine-parameterized
//! `pga-core` entry point.
//!
//! The shared `pga-runtime` kernel promises that the sequential and
//! sharded executors are bit-identical — outputs, metrics (including
//! the per-round congestion and I/O profiles), and errors — at every
//! thread count. These tests pin that promise at the public API level:
//! each `*_cfg` entry point is run sequentially (the reference) and at
//! thread counts {1, 2, 4, 8}, on uniform `connected_gnm` and heavy-tailed
//! Barabási–Albert instances plus a quiescent-tail lollipop and a
//! disconnected instance (the error path: Phase II's BFS tree requires
//! connectivity). The entry points that run `GatherScatter` are also
//! checked across both scheduling policies on the clean, adversary and
//! ARQ planes, since its nodes sleep while they wait for mail; so are
//! the MPC-executed pipelines, whose machines sleep while every node
//! they host waits.

use pga_congest::{FaultSpec, ReliabilitySpec, RunConfig, Scheduling};
use pga_core::mds::congest_g2::g2_mds_congest_cfg;
use pga_core::mds::estimator::estimate_two_hop_sizes_cfg;
use pga_core::mpc::{g2_mds_congest_mpc_cfg, g2_mvc_congest_mpc_cfg};
use pga_core::mvc::clique_det::g2_mvc_clique_det_cfg;
use pga_core::mvc::clique_rand::g2_mvc_clique_rand_cfg;
use pga_core::mvc::congest::{g2_mvc_congest_cfg, G2MvcResult, LocalSolver};
use pga_core::mvc::weighted::g2_mwvc_congest_cfg;
use pga_graph::{generators, Graph, GraphBuilder, NodeId, VertexWeights};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The thread counts every entry point is checked at.
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Every non-sequential configuration under test: one per thread count.
fn parallel_cfgs() -> impl Iterator<Item = RunConfig> {
    THREADS.into_iter().map(|t| RunConfig::new().parallel(t))
}

/// Instance families: uniform gnm, heavy-tailed BA, a quiescent-tail
/// lollipop (gnm blob + path tail, the shard-skew shape the
/// cost-balanced exchange must handle), and a disconnected union of two
/// paths (drives the `PreconditionViolated` error path of the
/// BFS-tree-based phases).
fn arb_instance() -> impl Strategy<Value = Graph> {
    (6usize..24, any::<u64>(), 0u8..4).prop_map(|(n, seed, family)| match family {
        0 => {
            let mut rng = StdRng::seed_from_u64(seed);
            let m = (n + seed as usize % (2 * n)).min(n * (n - 1) / 2);
            generators::connected_gnm(n, m, &mut rng)
        }
        1 => generators::barabasi_albert(n, 3.min(n - 1).max(1), seed),
        2 => {
            // Lollipop: connected gnm blob with a path tail attached at
            // the largest id.
            let blob_m = (n + n / 2).min(n * (n - 1) / 2);
            generators::gnm_lollipop(n, blob_m, 1 + (seed as usize % 8), seed)
        }
        _ => {
            // Disconnected: two path components.
            let half = n / 2;
            let mut b = GraphBuilder::new(n);
            for i in 0..half.saturating_sub(1) {
                b.add_edge(NodeId::from_index(i), NodeId::from_index(i + 1));
            }
            for i in half..n - 1 {
                b.add_edge(NodeId::from_index(i), NodeId::from_index(i + 1));
            }
            b.build()
        }
    })
}

/// Comparable projection of a `G2MvcResult` (all fields, metrics with
/// their full congestion profiles).
#[allow(clippy::type_complexity)]
fn mvc_key(
    r: Result<G2MvcResult, pga_congest::SimError>,
) -> Result<
    (
        Vec<bool>,
        usize,
        usize,
        pga_congest::Metrics,
        pga_congest::Metrics,
    ),
    pga_congest::SimError,
> {
    r.map(|r| {
        (
            r.cover,
            r.s_size,
            r.r_star_size,
            r.phase1_metrics,
            r.phase2_metrics,
        )
    })
}

/// The adapter's recommended budget `S` for `g`: small enough on these
/// instances that the MPC pipelines spread over several machines.
fn tight_mpc_budget(g: &Graph) -> usize {
    pga_mpc::recommended_memory_words(g, pga_congest::default_bandwidth_bits(g.num_nodes()))
}

/// The delivery planes of the scheduling-parity tests: clean, a
/// drop-and-delay adversary (no recovery, so a run may end at its round
/// budget), and ARQ with phase deadlines over a lossy adversary whose
/// one-retry budget kills links, so deadlines fire.
fn parity_planes(seed: u64) -> [RunConfig; 3] {
    let lossy = |p| FaultSpec::seeded(seed).drop(p).delay(0.1, 3);
    let arq = ReliabilitySpec::arq()
        .with_max_retries(1)
        .with_phase_timeouts(2);
    [
        RunConfig::new(),
        RunConfig::new().max_rounds(3_000).adversary(lossy(0.05)),
        RunConfig::new().adversary(lossy(0.4)).reliability(arq),
    ]
}

/// Runs `run` on `plane` in every cell of {full sweep, active set} ×
/// {sequential, `parallel(2)`, `parallel(4)`} and asserts each cell
/// reproduces the sequential full sweep.
fn scheduling_parity<K: PartialEq + std::fmt::Debug>(
    plane: &RunConfig,
    run: impl Fn(&RunConfig) -> K,
) -> Result<(), TestCaseError> {
    let full = plane.scheduling(Scheduling::FullSweep);
    let reference = run(&full.sequential());
    for scheduling in [Scheduling::FullSweep, Scheduling::ActiveSet] {
        let base = plane.scheduling(scheduling);
        let cells = [base.sequential(), base.parallel(2), base.parallel(4)];
        for cfg in cells.iter().filter(|&&c| c != full.sequential()) {
            prop_assert_eq!(&run(cfg), &reference, "{:?}", cfg);
        }
    }
    Ok(())
}

/// The ARQ plane of the parity tests reaches the deadline fallback, so
/// the parity below covers deadline-armed `GatherScatter` runs.
#[test]
fn parity_arq_plane_degrades() {
    let mut total = 0;
    for seed in 0..4u64 {
        let g = generators::connected_gnm(12, 20, &mut StdRng::seed_from_u64(seed));
        let arq = &parity_planes(seed)[2];
        if let Ok(r) = g2_mvc_congest_cfg(&g, 0.4, LocalSolver::Exact, arq) {
            total += r.phase1_metrics.fault.degraded + r.phase2_metrics.fault.degraded;
        }
    }
    assert!(total > 0, "no ARQ run hit a phase deadline");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Every entry point that runs `GatherScatter` returns the same
    /// cover and both phases' metrics (or the same error) under both
    /// scheduling policies, at every shard count, on every plane.
    #[test]
    fn g2_mvc_scheduling_parity(g in arb_instance(), seed in any::<u64>()) {
        for plane in parity_planes(seed) {
            scheduling_parity(&plane, |cfg| {
                mvc_key(g2_mvc_congest_cfg(&g, 0.4, LocalSolver::Exact, cfg))
            })?;
        }
    }

    /// Theorem 7's weighted pipeline: scheduling parity on every plane.
    #[test]
    fn g2_mwvc_scheduling_parity(g in arb_instance(), seed in any::<u64>()) {
        let n = g.num_nodes();
        let weights: Vec<u64> = (0..n).map(|i| 1 + (seed.wrapping_mul(i as u64 + 7) % 9)).collect();
        let w = VertexWeights::from_vec(weights);
        for plane in parity_planes(seed) {
            scheduling_parity(&plane, |cfg| {
                g2_mwvc_congest_cfg(&g, &w, 0.4, cfg)
                    .map(|r| (r.cover, r.s_weight, r.r_star_weight, r.phase1_metrics, r.phase2_metrics))
            })?;
        }
    }

    /// The MPC-executed Theorem 1: scheduling parity of the result, the
    /// machine count and the full MPC metrics on every plane, and on the
    /// clean plane the cover and both phases' metrics of the CONGEST
    /// entry point.
    #[test]
    fn g2_mvc_mpc_scheduling_parity(g in arb_instance(), seed in any::<u64>()) {
        let budget = tight_mpc_budget(&g);
        let run = |cfg: &RunConfig| {
            g2_mvc_congest_mpc_cfg(&g, 0.4, LocalSolver::Exact, budget, cfg)
                .map(|e| (mvc_key(Ok(e.result)).unwrap(), e.machines, e.mpc_metrics))
        };
        for plane in parity_planes(seed) {
            scheduling_parity(&plane, run)?;
        }
        let congest = mvc_key(g2_mvc_congest_cfg(&g, 0.4, LocalSolver::Exact, &RunConfig::new()));
        let on_mpc = run(&RunConfig::new()).map(|(key, _, _)| key);
        prop_assert_eq!(on_mpc, congest.map_err(pga_mpc::MpcError::Congest));
    }

    /// The MPC-executed Theorem 28: scheduling parity on every plane,
    /// and the CONGEST entry point's set and metrics on the clean plane.
    #[test]
    fn g2_mds_mpc_scheduling_parity(g in arb_instance(), seed in any::<u64>()) {
        let budget = tight_mpc_budget(&g);
        let run = |cfg: &RunConfig| {
            g2_mds_congest_mpc_cfg(&g, 2, seed, budget, cfg)
                .map(|e| ((e.result.dominating_set, e.result.metrics), e.machines, e.mpc_metrics))
        };
        for plane in parity_planes(seed) {
            scheduling_parity(&plane, run)?;
        }
        let congest = g2_mds_congest_cfg(&g, 2, seed, &RunConfig::new())
            .map(|r| (r.dominating_set, r.metrics));
        let on_mpc = run(&RunConfig::new()).map(|(key, _, _)| key);
        prop_assert_eq!(on_mpc, congest.map_err(pga_mpc::MpcError::Congest));
    }

    /// Corollary 10, relay and BMM prep: scheduling parity on every
    /// plane.
    #[test]
    fn g2_mvc_clique_det_scheduling_parity(g in arb_instance(), seed in any::<u64>()) {
        for plane in parity_planes(seed) {
            for plane in [plane, plane.bmm_prep()] {
                scheduling_parity(&plane, |cfg| {
                    mvc_key(g2_mvc_clique_det_cfg(&g, 0.4, LocalSolver::FiveThirds, cfg))
                })?;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Theorem 1 (G²-MVC in CONGEST), success and error cases alike.
    #[test]
    fn g2_mvc_engines_bit_identical(g in arb_instance()) {
        let reference = mvc_key(g2_mvc_congest_cfg(&g, 0.4, LocalSolver::Exact, &RunConfig::new()));
        for cfg in parallel_cfgs() {
            let par = mvc_key(g2_mvc_congest_cfg(&g, 0.4, LocalSolver::Exact, &cfg));
            prop_assert_eq!(&par, &reference, "{:?}", cfg);
        }
    }

    /// Theorem 7 (weighted G²-MVC).
    #[test]
    fn g2_mwvc_engines_bit_identical(g in arb_instance(), wseed in any::<u64>()) {
        let n = g.num_nodes();
        let weights: Vec<u64> = (0..n).map(|i| 1 + (wseed.wrapping_mul(i as u64 + 7) % 9)).collect();
        let w = VertexWeights::from_vec(weights);
        let reference = g2_mwvc_congest_cfg(&g, &w, 0.4, &RunConfig::new())
            .map(|r| (r.cover, r.s_weight, r.r_star_weight, r.phase1_metrics, r.phase2_metrics));
        for cfg in parallel_cfgs() {
            let par = g2_mwvc_congest_cfg(&g, &w, 0.4, &cfg)
                .map(|r| (r.cover, r.s_weight, r.r_star_weight, r.phase1_metrics, r.phase2_metrics));
            prop_assert_eq!(&par, &reference, "{:?}", cfg);
        }
    }

    /// Corollary 10 (deterministic CONGESTED CLIQUE).
    #[test]
    fn g2_mvc_clique_det_engines_bit_identical(g in arb_instance()) {
        let reference = mvc_key(g2_mvc_clique_det_cfg(
            &g, 0.4, LocalSolver::FiveThirds, &RunConfig::new(),
        ));
        for cfg in parallel_cfgs() {
            let par = mvc_key(g2_mvc_clique_det_cfg(&g, 0.4, LocalSolver::FiveThirds, &cfg));
            prop_assert_eq!(&par, &reference, "{:?}", cfg);
        }
    }

    /// Corollary 10 with BMM preprocessing: the direct Phase I on
    /// materialized G² rows is engine- and thread-bit-identical, and
    /// its *cover* equals the relay pipeline's on every instance
    /// (metrics differ by design — the prep run is charged).
    #[test]
    fn g2_mvc_clique_det_bmm_prep_bit_identical(g in arb_instance()) {
        let base = RunConfig::new().bmm_prep();
        let reference = mvc_key(g2_mvc_clique_det_cfg(&g, 0.4, LocalSolver::FiveThirds, &base));
        let relay = mvc_key(g2_mvc_clique_det_cfg(
            &g, 0.4, LocalSolver::FiveThirds, &RunConfig::new(),
        ));
        match (&reference, &relay) {
            (Ok(bmm), Ok(relay)) => prop_assert_eq!(&bmm.0, &relay.0, "cover diverged from relay"),
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            _ => prop_assert!(false, "one pipeline errored, the other did not"),
        }
        for cfg in parallel_cfgs() {
            let cfg = cfg.bmm_prep();
            let par = mvc_key(g2_mvc_clique_det_cfg(&g, 0.4, LocalSolver::FiveThirds, &cfg));
            prop_assert_eq!(&par, &reference, "{:?}", cfg);
        }
    }

    /// SBM is the workload BMM preprocessing targets: clustered rows
    /// pack into few words, so the prep stays exact and fast. Pin the
    /// bit-identity acceptance criterion on it explicitly.
    #[test]
    fn g2_mvc_clique_det_bmm_prep_sbm(n in 24usize..96, seed in any::<u64>()) {
        let g = generators::planted_partition(n, n / 12 + 1, 0.5, 0.05, seed);
        let base = RunConfig::new().bmm_prep();
        let reference = mvc_key(g2_mvc_clique_det_cfg(&g, 0.4, LocalSolver::FiveThirds, &base));
        let relay = mvc_key(g2_mvc_clique_det_cfg(
            &g, 0.4, LocalSolver::FiveThirds, &RunConfig::new(),
        ));
        let cover = reference.as_ref().unwrap().0.clone();
        prop_assert_eq!(&cover, &relay.unwrap().0, "cover diverged from relay");
        prop_assert!(pga_graph::cover::is_vertex_cover_on_square(&g, &cover));
        for cfg in parallel_cfgs() {
            let cfg = cfg.bmm_prep();
            let par = mvc_key(g2_mvc_clique_det_cfg(&g, 0.4, LocalSolver::FiveThirds, &cfg));
            prop_assert_eq!(&par, &reference, "{:?}", cfg);
        }
    }

    /// Theorem 11 (randomized CONGESTED CLIQUE; same seed, same result).
    #[test]
    fn g2_mvc_clique_rand_engines_bit_identical(g in arb_instance(), seed in any::<u64>()) {
        let reference = mvc_key(g2_mvc_clique_rand_cfg(
            &g, 0.4, LocalSolver::FiveThirds, seed, &RunConfig::new(),
        ));
        for cfg in parallel_cfgs() {
            let par = mvc_key(g2_mvc_clique_rand_cfg(
                &g, 0.4, LocalSolver::FiveThirds, seed, &cfg,
            ));
            prop_assert_eq!(&par, &reference, "{:?}", cfg);
        }
    }

    /// Theorem 28 (G²-MDS; randomized, seed-pinned).
    #[test]
    fn g2_mds_engines_bit_identical(g in arb_instance(), seed in any::<u64>()) {
        let reference = g2_mds_congest_cfg(&g, 2, seed, &RunConfig::new())
            .map(|r| (r.dominating_set, r.metrics, r.samples_per_phase));
        for cfg in parallel_cfgs() {
            let par = g2_mds_congest_cfg(&g, 2, seed, &cfg)
                .map(|r| (r.dominating_set, r.metrics, r.samples_per_phase));
            prop_assert_eq!(&par, &reference, "{:?}", cfg);
        }
    }

    /// Lemma 29 (2-hop estimator; exact f64 equality is the point —
    /// the engines must deliver identical samples in identical order).
    #[test]
    fn estimator_engines_bit_identical(g in arb_instance(), seed in any::<u64>()) {
        let n = g.num_nodes();
        let in_u: Vec<bool> = (0..n).map(|i| (seed >> (i % 64)) & 1 == 1).collect();
        let reference = estimate_two_hop_sizes_cfg(&g, &in_u, 3, seed, &RunConfig::new());
        for cfg in parallel_cfgs() {
            let par = estimate_two_hop_sizes_cfg(&g, &in_u, 3, seed, &cfg);
            prop_assert_eq!(&par, &reference, "{:?}", cfg);
        }
    }

    /// The MPC-executed Theorem 1: engine-parameterized at the MPC
    /// layer, compared on result, machine count, and full MPC metrics
    /// (I/O profile included).
    #[test]
    fn g2_mvc_mpc_engines_bit_identical(g in arb_instance()) {
        let budget = pga_mpc::recommended_memory_words(
            &g,
            pga_congest::default_bandwidth_bits(g.num_nodes()),
        ) * 2
            + 4096;
        let reference = g2_mvc_congest_mpc_cfg(&g, 0.4, LocalSolver::Exact, budget, &RunConfig::new())
            .map(|e| (mvc_key(Ok(e.result)).unwrap(), e.machines, e.mpc_metrics));
        for cfg in parallel_cfgs() {
            let par = g2_mvc_congest_mpc_cfg(&g, 0.4, LocalSolver::Exact, budget, &cfg)
                .map(|e| (mvc_key(Ok(e.result)).unwrap(), e.machines, e.mpc_metrics));
            prop_assert_eq!(&par, &reference, "{:?}", cfg);
        }
    }

    /// The MPC-executed Theorem 28.
    #[test]
    fn g2_mds_mpc_engines_bit_identical(g in arb_instance(), seed in any::<u64>()) {
        let budget = pga_mpc::recommended_memory_words(
            &g,
            pga_congest::default_bandwidth_bits(g.num_nodes()),
        ) * 2
            + 4096;
        let reference = g2_mds_congest_mpc_cfg(&g, 2, seed, budget, &RunConfig::new())
            .map(|e| ((e.result.dominating_set, e.result.metrics), e.machines, e.mpc_metrics));
        for cfg in parallel_cfgs() {
            let par = g2_mds_congest_mpc_cfg(&g, 2, seed, budget, &cfg)
                .map(|e| ((e.result.dominating_set, e.result.metrics), e.machines, e.mpc_metrics));
            prop_assert_eq!(&par, &reference, "{:?}", cfg);
        }
    }
}
