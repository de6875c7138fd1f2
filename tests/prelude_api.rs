//! Smoke test pinning the `power_graphs::prelude` surface.
//!
//! The prelude's re-export list is documented in the facade crate's
//! rustdoc; this test exercises every item through the prelude alone so
//! a drifted or dropped re-export fails the build (or this test) rather
//! than silently breaking downstream examples and experiments.

use power_graphs::prelude::*;

/// Every documented prelude item resolves and behaves on a small graph.
#[test]
fn prelude_exposes_documented_api() {
    // Graph substrate: generators, Graph, GraphBuilder, NodeId,
    // VertexWeights, power/square.
    let g: Graph = generators::clique_chain(4, 5);
    let mut builder = GraphBuilder::new(3);
    builder.add_clique(&[NodeId(0), NodeId(1), NodeId(2)]);
    let triangle: Graph = builder.build();
    assert_eq!(triangle.num_edges(), 3);

    let g2: Graph = square(&g);
    assert_eq!(g2, power(&g, 2));

    // Cover predicates and set helpers.
    let all = vec![true; g.num_nodes()];
    assert!(is_vertex_cover(&g, &all));
    assert!(is_vertex_cover_on_square(&g, &all));
    assert!(is_dominating_set(&g, &all));
    assert!(is_dominating_set_on_square(&g, &all));
    assert_eq!(set_size(&all), g.num_nodes());
    let w = VertexWeights::uniform(g.num_nodes());
    assert_eq!(set_weight(&all, w.as_slice()), g.num_nodes() as u64);

    // Exact solvers.
    let opt_vc = solve_mvc(&g2);
    assert!(is_vertex_cover(&g2, &opt_vc));
    assert_eq!(set_size(&opt_vc), mvc_size(&g2));
    let opt_ds = solve_mds(&g2);
    assert!(is_dominating_set(&g2, &opt_ds));
    assert_eq!(set_size(&opt_ds), mds_size(&g2));
    let opt_wvc = solve_mwvc(&g2, &w);
    assert!(is_vertex_cover(&g2, &opt_wvc));
    assert_eq!(set_weight(&opt_wvc, w.as_slice()), mwvc_weight(&g2, &w));

    // Theorem 1: (1+eps)-approximate G²-MVC in CONGEST.
    let result: G2MvcResult = g2_mvc_congest(&g, 0.5, LocalSolver::Exact).unwrap();
    assert!(is_vertex_cover_on_square(&g, &result.cover));
    let _rounds: usize = result.total_rounds();

    // Theorem 7: the weighted variant.
    let weighted = g2_mwvc_congest(&g, &w, 0.5).unwrap();
    assert!(is_vertex_cover_on_square(&g, &weighted.cover));

    // Corollary 10 and Theorem 11: CONGESTED CLIQUE variants.
    let det = g2_mvc_clique_det(&g, 0.5, LocalSolver::FiveThirds).unwrap();
    assert!(is_vertex_cover_on_square(&g, &det.cover));
    let rand = g2_mvc_clique_rand(&g, 0.5, LocalSolver::FiveThirds, 7).unwrap();
    assert!(is_vertex_cover_on_square(&g, &rand.cover));

    // Theorem 12: the centralized 5/3-approximation.
    let ft = five_thirds_vertex_cover(&g2);
    assert!(is_vertex_cover(&g2, &ft.cover));

    // Theorem 28 and CD18: G²-MDS algorithms.
    let mds = g2_mds_congest(&g, 16, 3).unwrap();
    assert!(is_dominating_set_on_square(&g, &mds.dominating_set));
    let cd18 = cd18_mds(&g2, 5);
    assert!(is_dominating_set(&g2, &cd18.dominating_set));

    // MPC execution model: the same entry points through the adapter
    // are bit-identical, and the native ruling set dominates G².
    let mvc_mpc: MpcExecution<G2MvcResult> =
        g2_mvc_congest_mpc(&g, 0.5, LocalSolver::Exact).unwrap();
    assert_eq!(mvc_mpc.result.cover, result.cover);
    let mds_mpc = g2_mds_congest_mpc(&g, 16, 3).unwrap();
    assert_eq!(mds_mpc.result.dominating_set, mds.dominating_set);
    let rs: RulingSetResult = g2_ruling_set_mpc_auto(&g).unwrap();
    assert!(is_dominating_set_on_square(&g, &rs.in_r));
}

/// The unified `RunConfig` builder and the `*_cfg` entry points are
/// part of the prelude surface, and a sharded run is bit-identical to
/// the defaults.
#[test]
fn prelude_exposes_run_config_api() {
    let g = generators::clique_chain(4, 5);
    let w = VertexWeights::uniform(g.num_nodes());
    let cfg = RunConfig::new().parallel(2);

    let seq = g2_mvc_congest(&g, 0.5, LocalSolver::Exact).unwrap();
    let par = g2_mvc_congest_cfg(&g, 0.5, LocalSolver::Exact, &cfg).unwrap();
    assert_eq!(par.cover, seq.cover);

    let wseq = g2_mwvc_congest(&g, &w, 0.5).unwrap();
    let wpar = g2_mwvc_congest_cfg(&g, &w, 0.5, &cfg).unwrap();
    assert_eq!(wpar.cover, wseq.cover);

    let det = g2_mvc_clique_det_cfg(&g, 0.5, LocalSolver::FiveThirds, &cfg).unwrap();
    assert!(is_vertex_cover_on_square(&g, &det.cover));
    let rand = g2_mvc_clique_rand_cfg(&g, 0.5, LocalSolver::FiveThirds, 7, &cfg).unwrap();
    assert!(is_vertex_cover_on_square(&g, &rand.cover));
    let mds = g2_mds_congest_cfg(&g, 16, 3, &cfg).unwrap();
    assert!(is_dominating_set_on_square(&g, &mds.dominating_set));

    let mpc_cfg = RunConfig::new().parallel(2);
    let budget = 1 << 20; // generous per-machine word budget for a tiny instance
    let mvc_mpc = g2_mvc_congest_mpc_cfg(&g, 0.5, LocalSolver::Exact, budget, &mpc_cfg).unwrap();
    assert_eq!(mvc_mpc.result.cover, seq.cover);
    let mds_mpc = g2_mds_congest_mpc_cfg(&g, 16, 3, budget, &mpc_cfg).unwrap();
    assert_eq!(mds_mpc.result.dominating_set, mds.dominating_set);

    // The builder's knobs compose.
    let _tuned = RunConfig::new()
        .engine(Engine::Sequential)
        .scheduling(Scheduling::FullSweep);
}

/// The simulator types re-exported by the prelude are usable directly.
#[test]
fn prelude_exposes_simulator_types() {
    let g = generators::path(6);
    let _congest: Simulator<'_> = Simulator::congest(&g);
    let _clique: Simulator<'_> = Simulator::congested_clique(&g);
    assert_ne!(Topology::Congest, Topology::CongestedClique);
    let metrics = Metrics::default();
    assert_eq!(metrics.rounds, 0);
    let _mpc: MpcSimulator = MpcSimulator::new(1024);
    let _adapter: CongestOnMpc<'_> = CongestOnMpc::congest(&g);
    let mpc_metrics = MpcMetrics::default();
    assert_eq!(mpc_metrics.peak_memory_words, 0);

    // Engine selection and the kernel's scheduling policy are part of
    // the prelude surface (both simulators accept both).
    assert_eq!(Engine::default(), Engine::Sequential);
    assert_ne!(Engine::parallel_auto(), Engine::Sequential);
    assert_eq!(Scheduling::default(), Scheduling::ActiveSet);
    let _tuned: Simulator<'_> = Simulator::congest(&g).with_max_rounds(64);
    let _tuned_mpc: MpcSimulator = MpcSimulator::new(1024).with_max_rounds(64);
}

/// The shared round kernel is re-exported as `power_graphs::runtime`
/// and both simulators are instantiations of it (same `Scheduling`
/// type, bit-identical policies).
#[test]
fn runtime_kernel_is_exposed() {
    use power_graphs::runtime;
    let profile = runtime::RoundProfile::default();
    assert_eq!(profile.messages, 0);
    assert_eq!(
        runtime::Scheduling::ActiveSet,
        power_graphs::prelude::Scheduling::ActiveSet
    );

    let g = generators::path(16);
    let mk = || {
        (0..16)
            .map(|i| power_graphs::congest::primitives::FloodMax::new(NodeId::from_index(i)))
            .collect::<Vec<_>>()
    };
    let sim = Simulator::congest(&g);
    let full = sim
        .run_cfg(mk(), &RunConfig::new().scheduling(Scheduling::FullSweep))
        .unwrap();
    let active = sim.run_cfg(mk(), &RunConfig::new().parallel(3)).unwrap();
    assert_eq!(full.outputs, active.outputs);
    assert_eq!(full.metrics, active.metrics);
}
