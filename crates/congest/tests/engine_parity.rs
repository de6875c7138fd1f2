//! Engine-behavior tests for the CONGEST simulator: model enforcement,
//! termination, and bit-identity of the sequential and sharded
//! executors (and of both scheduling policies) across thread counts.
//!
//! These exercise the shared `pga_runtime` kernel through the public
//! `Simulator` API; the kernel's own unit tests cover it through a toy
//! model.

use pga_congest::{
    balanced_partition, id_bits, Algorithm, Ctx, Engine, MsgSize, RunConfig, Scheduling, SimError,
    Simulator,
};
use pga_graph::{generators, NodeId};

#[derive(Clone)]
struct U32Msg(u32);
impl MsgSize for U32Msg {
    fn size_bits(&self, id_bits: usize) -> usize {
        id_bits
    }
}

/// Every node floods the max id it has seen; outputs it.
struct FloodMax {
    best: u32,
    changed: bool,
    quiet: bool,
}

impl FloodMax {
    fn new(i: usize) -> Self {
        FloodMax {
            best: i as u32,
            changed: false,
            quiet: false,
        }
    }
}

impl Algorithm for FloodMax {
    type Msg = U32Msg;
    type Output = u32;
    fn round(&mut self, ctx: &Ctx, inbox: &[(NodeId, U32Msg)]) -> Vec<(NodeId, U32Msg)> {
        for (_, m) in inbox {
            if m.0 > self.best {
                self.best = m.0;
                self.changed = true;
            }
        }
        let send = ctx.round == 0 || self.changed;
        self.changed = false;
        self.quiet = !send;
        if send {
            ctx.graph_neighbors
                .iter()
                .map(|&v| (v, U32Msg(self.best)))
                .collect()
        } else {
            Vec::new()
        }
    }
    fn is_done(&self, _ctx: &Ctx) -> bool {
        self.quiet
    }
    fn output(&self, _ctx: &Ctx) -> u32 {
        self.best
    }
}

#[test]
fn flood_max_on_path() {
    let g = generators::path(10);
    let report = Simulator::congest(&g)
        .run_cfg((0..10).map(FloodMax::new).collect(), &RunConfig::new())
        .unwrap();
    assert!(report.outputs.iter().all(|&b| b == 9));
    // Max id must travel 9 hops: at least 9 rounds.
    assert!(report.metrics.rounds >= 9, "{}", report.metrics.rounds);
    assert!(report.metrics.messages > 0);
}

#[test]
fn flood_max_on_clique_topology_one_hop() {
    let g = generators::path(10); // input graph is a path...
    struct Shout {
        best: u32,
        done: bool,
    }
    impl Algorithm for Shout {
        type Msg = U32Msg;
        type Output = u32;
        fn round(&mut self, ctx: &Ctx, inbox: &[(NodeId, U32Msg)]) -> Vec<(NodeId, U32Msg)> {
            for (_, m) in inbox {
                self.best = self.best.max(m.0);
            }
            if ctx.round == 0 {
                // ...but the clique topology lets everyone shout once.
                (0..ctx.n)
                    .filter(|&j| j != ctx.id.index())
                    .map(|j| (NodeId::from_index(j), U32Msg(self.best)))
                    .collect()
            } else {
                self.done = true;
                Vec::new()
            }
        }
        fn is_done(&self, _ctx: &Ctx) -> bool {
            self.done
        }
        fn output(&self, _ctx: &Ctx) -> u32 {
            self.best
        }
    }
    let report = Simulator::congested_clique(&g)
        .run_cfg(
            (0..10)
                .map(|i| Shout {
                    best: i as u32,
                    done: false,
                })
                .collect(),
            &RunConfig::new(),
        )
        .unwrap();
    assert!(report.outputs.iter().all(|&b| b == 9));
    assert!(report.metrics.rounds <= 3);
}

#[test]
fn illegal_destination_congest() {
    let g = generators::path(4);
    struct Bad;
    impl Algorithm for Bad {
        type Msg = U32Msg;
        type Output = ();
        fn round(&mut self, ctx: &Ctx, _inbox: &[(NodeId, U32Msg)]) -> Vec<(NodeId, U32Msg)> {
            if ctx.id == NodeId(0) && ctx.round == 0 {
                vec![(NodeId(3), U32Msg(0))] // not a path-neighbor
            } else {
                Vec::new()
            }
        }
        fn is_done(&self, _ctx: &Ctx) -> bool {
            false
        }
        fn output(&self, _ctx: &Ctx) {}
    }
    let err = Simulator::congest(&g)
        .run_cfg(vec![Bad, Bad, Bad, Bad], &RunConfig::new())
        .unwrap_err();
    assert!(matches!(err, SimError::IllegalDestination { .. }));
}

#[test]
fn bandwidth_violation() {
    let g = generators::path(2);
    #[derive(Clone)]
    struct Huge;
    impl MsgSize for Huge {
        fn size_bits(&self, _id_bits: usize) -> usize {
            1 << 20
        }
    }
    struct Sender;
    impl Algorithm for Sender {
        type Msg = Huge;
        type Output = ();
        fn round(&mut self, ctx: &Ctx, _inbox: &[(NodeId, Huge)]) -> Vec<(NodeId, Huge)> {
            if ctx.round == 0 && ctx.id == NodeId(0) {
                vec![(NodeId(1), Huge)]
            } else {
                Vec::new()
            }
        }
        fn is_done(&self, _ctx: &Ctx) -> bool {
            false
        }
        fn output(&self, _ctx: &Ctx) {}
    }
    let err = Simulator::congest(&g)
        .run_cfg(vec![Sender, Sender], &RunConfig::new())
        .unwrap_err();
    assert!(matches!(err, SimError::BandwidthExceeded { .. }));
}

#[test]
fn duplicate_message_rejected() {
    let g = generators::path(2);
    struct Dup;
    impl Algorithm for Dup {
        type Msg = U32Msg;
        type Output = ();
        fn round(&mut self, ctx: &Ctx, _inbox: &[(NodeId, U32Msg)]) -> Vec<(NodeId, U32Msg)> {
            if ctx.round == 0 && ctx.id == NodeId(0) {
                vec![(NodeId(1), U32Msg(1)), (NodeId(1), U32Msg(2))]
            } else {
                Vec::new()
            }
        }
        fn is_done(&self, _ctx: &Ctx) -> bool {
            false
        }
        fn output(&self, _ctx: &Ctx) {}
    }
    let err = Simulator::congest(&g)
        .run_cfg(vec![Dup, Dup], &RunConfig::new())
        .unwrap_err();
    assert_eq!(
        err,
        SimError::DuplicateMessage {
            from: NodeId(0),
            to: NodeId(1),
            round: 0
        }
    );
}

/// A payload whose declared size is its value, so a script can make any
/// single message oversized.
#[derive(Clone)]
struct Bits(u32);
impl MsgSize for Bits {
    fn size_bits(&self, _id_bits: usize) -> usize {
        self.0 as usize
    }
}

/// Node `from` sends `outbox` in round `round`; every other send is
/// empty and no node ever finishes, so the run ends in the violation.
#[derive(Clone)]
struct Script {
    from: NodeId,
    round: usize,
    outbox: Vec<(NodeId, Bits)>,
}

impl Algorithm for Script {
    type Msg = Bits;
    type Output = ();
    fn round(&mut self, ctx: &Ctx, _inbox: &[(NodeId, Bits)]) -> Vec<(NodeId, Bits)> {
        if ctx.id == self.from && ctx.round == self.round {
            self.outbox.clone()
        } else {
            Vec::new()
        }
    }
    fn is_done(&self, _ctx: &Ctx) -> bool {
        false
    }
    fn output(&self, _ctx: &Ctx) {}
}

/// The pinned model-violation cases on `path(40)`: the script, whether
/// it runs on the clique, and the exact error it must raise.
fn violation_cases() -> Vec<(Script, bool, SimError)> {
    let n = 40;
    let small = Bits(id_bits(n) as u32);
    let huge = Bits(pga_congest::default_bandwidth_bits(n) as u32 + 1);
    let script = |from: u32, round: usize, outbox: &[(u32, &Bits)]| Script {
        from: NodeId(from),
        round,
        outbox: (outbox.iter())
            .map(|&(to, msg)| (NodeId(to), msg.clone()))
            .collect(),
    };
    let mut fan_out: Vec<(u32, &Bits)> = (0..n as u32)
        .filter(|&v| v != 25)
        .map(|v| (v, &small))
        .collect();
    fan_out.push((0, &small));
    vec![
        // A duplicate that is not adjacent in the outbox.
        (
            script(17, 1, &[(16, &small), (18, &small), (16, &small)]),
            false,
            SimError::DuplicateMessage {
                from: NodeId(17),
                to: NodeId(16),
                round: 1,
            },
        ),
        // An illegal destination ahead of a duplicate wins.
        (
            script(3, 0, &[(2, &small), (30, &small), (2, &small)]),
            false,
            SimError::IllegalDestination {
                from: NodeId(3),
                to: NodeId(30),
                round: 0,
            },
        ),
        // A duplicate whose payload is also oversized: the duplicate wins.
        (
            script(38, 2, &[(39, &small), (39, &huge)]),
            false,
            SimError::DuplicateMessage {
                from: NodeId(38),
                to: NodeId(39),
                round: 2,
            },
        ),
        // An oversized first send is a bandwidth error, not a duplicate.
        (
            script(38, 2, &[(39, &huge), (39, &small)]),
            false,
            SimError::BandwidthExceeded {
                from: NodeId(38),
                to: NodeId(39),
                size_bits: huge.0 as usize,
                limit_bits: pga_congest::default_bandwidth_bits(n),
                round: 2,
            },
        ),
        // A clique fan-out to all n - 1 others, then the first again.
        (
            script(25, 1, &fan_out),
            true,
            SimError::DuplicateMessage {
                from: NodeId(25),
                to: NodeId(0),
                round: 1,
            },
        ),
    ]
}

#[test]
fn model_violation_errors_are_pinned_on_every_engine() {
    let g = generators::path(40);
    for (script, clique, want) in violation_cases() {
        let sim = if clique {
            Simulator::congested_clique(&g)
        } else {
            Simulator::congest(&g)
        };
        let nodes = || vec![script.clone(); g.num_nodes()];
        let oracle =
            pga_runtime::reference::run(&sim.exec_model::<Script>(), nodes(), 10).unwrap_err();
        assert_eq!(oracle, want, "reference");
        for engine in [
            Engine::Sequential,
            Engine::Parallel { threads: 2 },
            Engine::Parallel { threads: 4 },
        ] {
            let cfg = RunConfig::new().engine(engine).max_rounds(10);
            let err = sim.run_cfg(nodes(), &cfg).unwrap_err();
            assert_eq!(err, want, "{cfg:?}");
        }
    }
}

#[test]
fn round_limit() {
    let g = generators::path(2);
    struct Chatter;
    impl Algorithm for Chatter {
        type Msg = U32Msg;
        type Output = ();
        fn round(&mut self, ctx: &Ctx, _inbox: &[(NodeId, U32Msg)]) -> Vec<(NodeId, U32Msg)> {
            ctx.graph_neighbors
                .iter()
                .map(|&v| (v, U32Msg(0)))
                .collect()
        }
        fn is_done(&self, _ctx: &Ctx) -> bool {
            false
        }
        fn output(&self, _ctx: &Ctx) {}
    }
    let err = Simulator::congest(&g)
        .with_max_rounds(10)
        .run_cfg(vec![Chatter, Chatter], &RunConfig::new())
        .unwrap_err();
    assert_eq!(err, SimError::RoundLimitExceeded { limit: 10 });
}

#[test]
fn parallel_matches_sequential_bit_identically() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(12);
    let graphs = [
        generators::path(10),
        generators::grid(5, 5),
        generators::star(17),
        generators::connected_gnm(64, 200, &mut rng),
    ];
    for g in &graphs {
        let n = g.num_nodes();
        let seq = Simulator::congest(g)
            .run_cfg((0..n).map(FloodMax::new).collect(), &RunConfig::new())
            .unwrap();
        for threads in [1, 2, 3, 4, 8] {
            let par = Simulator::congest(g)
                .run_cfg(
                    (0..n).map(FloodMax::new).collect(),
                    &RunConfig::new().parallel(threads),
                )
                .unwrap();
            assert_eq!(par.outputs, seq.outputs, "outputs, t={threads}");
            assert_eq!(par.metrics, seq.metrics, "metrics, t={threads}");
        }
    }
}

#[test]
fn parallel_matches_sequential_on_heavy_tail_and_lollipop() {
    // The cost-balanced exchange must stay bit-identical on exactly the
    // instance families whose skew it exists to balance: heavy-tailed
    // Barabási–Albert (hubs at the low-id prefix) and the lollipop
    // (dense blob + degree-2 tail).
    let graphs = [
        generators::barabasi_albert(60, 4, 9),
        generators::gnm_lollipop(24, 60, 16, 5),
    ];
    for g in &graphs {
        let n = g.num_nodes();
        let seq = Simulator::congest(g)
            .run_cfg((0..n).map(FloodMax::new).collect(), &RunConfig::new())
            .unwrap();
        for threads in [1, 2, 3, 5, 8] {
            let par = Simulator::congest(g)
                .run_cfg(
                    (0..n).map(FloodMax::new).collect(),
                    &RunConfig::new().parallel(threads),
                )
                .unwrap();
            assert_eq!(par.outputs, seq.outputs, "outputs, t={threads}");
            assert_eq!(par.metrics, seq.metrics, "metrics, t={threads}");
        }
    }
}

#[test]
fn shard_boundaries_are_a_valid_balanced_partition() {
    // A star: the hub carries n-1 cost units, every leaf 2. The hub
    // must sit alone-ish in the first shard and the boundaries must be
    // a valid contiguous partition.
    let g = generators::star(33);
    let sim = Simulator::congest(&g);
    for threads in [1, 2, 4, 7] {
        let bounds = sim.shard_boundaries(threads);
        assert_eq!(*bounds.first().unwrap(), 0, "t={threads}");
        assert_eq!(*bounds.last().unwrap(), 33, "t={threads}");
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "t={threads}");
        assert!(bounds.len() - 1 <= threads.max(1), "t={threads}");
    }
    // At 4 threads the hub's shard must not also hold a proportional
    // share of the leaves (degree-balanced, not count-balanced).
    let bounds = sim.shard_boundaries(4);
    assert!(
        bounds[1] < 33 / 4,
        "hub shard too wide: {bounds:?} (expected a short first range)"
    );
    // And the re-exported partition function agrees with the simulator.
    let costs: Vec<u64> = (0..33).map(|i| sim.vertex_cost(i)).collect();
    assert_eq!(bounds, balanced_partition(&costs, 4));
}

#[test]
fn scheduling_policies_match_bit_identically() {
    // The active-set policy may only skip no-op calls, so a full-sweep
    // run is the reference for both executors at every thread count.
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(77);
    let graphs = [
        generators::grid(6, 7),
        generators::connected_gnm(60, 150, &mut rng),
    ];
    for g in &graphs {
        let n = g.num_nodes();
        let reference = Simulator::congest(g)
            .run_cfg(
                (0..n).map(FloodMax::new).collect(),
                &RunConfig::new().scheduling(Scheduling::FullSweep),
            )
            .unwrap();
        for scheduling in [Scheduling::FullSweep, Scheduling::ActiveSet] {
            let seq = Simulator::congest(g)
                .run_cfg(
                    (0..n).map(FloodMax::new).collect(),
                    &RunConfig::new().scheduling(scheduling),
                )
                .unwrap();
            assert_eq!(seq.outputs, reference.outputs, "{scheduling:?}");
            assert_eq!(seq.metrics, reference.metrics, "{scheduling:?}");
            for threads in [2, 3, 5] {
                let par = Simulator::congest(g)
                    .run_cfg(
                        (0..n).map(FloodMax::new).collect(),
                        &RunConfig::new().scheduling(scheduling).parallel(threads),
                    )
                    .unwrap();
                assert_eq!(par.outputs, reference.outputs, "{scheduling:?} t={threads}");
                assert_eq!(par.metrics, reference.metrics, "{scheduling:?} t={threads}");
            }
        }
    }
}

#[test]
fn parallel_congested_clique_matches() {
    // Clique topology: every destination shard receives from every
    // sender shard, exercising the full exchange matrix.
    let g = generators::path(12);
    struct Shout(u32, bool);
    impl Algorithm for Shout {
        type Msg = U32Msg;
        type Output = u32;
        fn round(&mut self, ctx: &Ctx, inbox: &[(NodeId, U32Msg)]) -> Vec<(NodeId, U32Msg)> {
            for (_, m) in inbox {
                self.0 = self.0.max(m.0);
            }
            if ctx.round == 0 {
                (0..ctx.n)
                    .filter(|&j| j != ctx.id.index())
                    .map(|j| (NodeId::from_index(j), U32Msg(self.0)))
                    .collect()
            } else {
                self.1 = true;
                Vec::new()
            }
        }
        fn is_done(&self, _ctx: &Ctx) -> bool {
            self.1
        }
        fn output(&self, _ctx: &Ctx) -> u32 {
            self.0
        }
    }
    let mk = || (0..12).map(|i| Shout(i as u32, false)).collect();
    let seq = Simulator::congested_clique(&g)
        .run_cfg(mk(), &RunConfig::new())
        .unwrap();
    for threads in [2, 4, 6] {
        let par = Simulator::congested_clique(&g)
            .run_cfg(mk(), &RunConfig::new().parallel(threads))
            .unwrap();
        assert_eq!(par.outputs, seq.outputs);
        assert_eq!(par.metrics, seq.metrics);
    }
}

#[test]
fn parallel_errors_match_sequential() {
    // An illegal send from a high id: both engines must report the
    // same error even though the sender sits in the last shard.
    let g = generators::path(8);
    struct Bad;
    impl Algorithm for Bad {
        type Msg = U32Msg;
        type Output = ();
        fn round(&mut self, ctx: &Ctx, _inbox: &[(NodeId, U32Msg)]) -> Vec<(NodeId, U32Msg)> {
            if ctx.id == NodeId(6) && ctx.round == 0 {
                vec![(NodeId(0), U32Msg(0))] // not a path-neighbor
            } else {
                Vec::new()
            }
        }
        fn is_done(&self, _ctx: &Ctx) -> bool {
            false
        }
        fn output(&self, _ctx: &Ctx) {}
    }
    let seq = Simulator::congest(&g)
        .run_cfg((0..8).map(|_| Bad).collect::<Vec<_>>(), &RunConfig::new())
        .unwrap_err();
    for threads in [2, 4] {
        let par = Simulator::congest(&g)
            .run_cfg(
                (0..8).map(|_| Bad).collect::<Vec<_>>(),
                &RunConfig::new().parallel(threads),
            )
            .unwrap_err();
        assert_eq!(par, seq, "t={threads}");
    }
    assert_eq!(
        seq,
        SimError::IllegalDestination {
            from: NodeId(6),
            to: NodeId(0),
            round: 0
        }
    );
}

#[test]
fn parallel_round_limit_matches() {
    let g = generators::path(8);
    struct Chatter;
    impl Algorithm for Chatter {
        type Msg = U32Msg;
        type Output = ();
        fn round(&mut self, ctx: &Ctx, _inbox: &[(NodeId, U32Msg)]) -> Vec<(NodeId, U32Msg)> {
            ctx.graph_neighbors
                .iter()
                .map(|&v| (v, U32Msg(0)))
                .collect()
        }
        fn is_done(&self, _ctx: &Ctx) -> bool {
            false
        }
        fn output(&self, _ctx: &Ctx) {}
    }
    let err = Simulator::congest(&g)
        .with_max_rounds(7)
        .run_cfg(
            (0..8).map(|_| Chatter).collect::<Vec<_>>(),
            &RunConfig::new().parallel(4),
        )
        .unwrap_err();
    assert_eq!(err, SimError::RoundLimitExceeded { limit: 7 });
}

#[test]
fn run_with_dispatches_both_engines() {
    let g = generators::path(10);
    for engine in [
        Engine::Sequential,
        Engine::Parallel { threads: 3 },
        Engine::parallel_auto(),
    ] {
        let report = Simulator::congest(&g)
            .run_cfg(
                (0..10).map(FloodMax::new).collect(),
                &RunConfig::new().engine(engine),
            )
            .unwrap();
        assert!(report.outputs.iter().all(|&b| b == 9), "{engine:?}");
    }
}

#[test]
fn congestion_profile_invariants() {
    let g = generators::grid(4, 5);
    let report = Simulator::congest(&g)
        .run_cfg((0..20).map(FloodMax::new).collect(), &RunConfig::new())
        .unwrap();
    let m = &report.metrics;
    assert_eq!(m.congestion_profile.len(), m.rounds);
    // One message per directed edge per round, so the run-wide peak
    // equals the largest message ever sent.
    assert_eq!(m.peak_edge_bits(), m.max_message_bits);
    assert!(m
        .congestion_profile
        .iter()
        .all(|&b| b <= m.max_message_bits));
}

#[test]
fn id_bits_values() {
    assert_eq!(id_bits(2), 1);
    assert_eq!(id_bits(3), 2);
    assert_eq!(id_bits(4), 2);
    assert_eq!(id_bits(5), 3);
    assert_eq!(id_bits(1024), 10);
    assert_eq!(id_bits(1025), 11);
}

#[test]
fn zero_round_algorithm() {
    // A node set that is immediately done runs 0 rounds and sends
    // nothing (Lemma 6's trivial approximation is such an algorithm).
    let g = generators::path(3);
    struct Lazy;
    impl Algorithm for Lazy {
        type Msg = U32Msg;
        type Output = bool;
        fn round(&mut self, _ctx: &Ctx, _inbox: &[(NodeId, U32Msg)]) -> Vec<(NodeId, U32Msg)> {
            Vec::new()
        }
        fn is_done(&self, _ctx: &Ctx) -> bool {
            true
        }
        fn output(&self, _ctx: &Ctx) -> bool {
            true
        }
    }
    let report = Simulator::congest(&g)
        .run_cfg(vec![Lazy, Lazy, Lazy], &RunConfig::new())
        .unwrap();
    assert_eq!(report.metrics.messages, 0);
    assert!(report.outputs.iter().all(|&b| b));
}
