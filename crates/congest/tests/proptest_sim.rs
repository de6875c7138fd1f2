//! Property-based tests for the simulator and the gather–scatter
//! primitive.

use pga_congest::primitives::{FloodMax, GatherScatter, LeaderCompute, SizedU64};
use pga_congest::{Algorithm, Ctx, MsgSize, RunConfig, Simulator};
use pga_graph::traversal::{bfs_distances, diameter};
use pga_graph::{generators, Graph, NodeId};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn arb_connected() -> impl Strategy<Value = Graph> {
    (2usize..25, any::<u64>()).prop_map(|(n, seed)| {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        generators::connected_gnp(n, 0.1, &mut rng)
    })
}

/// The instance families whose load shapes the cost-balanced exchange
/// must handle: uniform gnm, heavy-tailed Barabási–Albert, and the
/// quiescent-tail lollipop.
fn arb_exchange_instance() -> impl Strategy<Value = Graph> {
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

/// A BFS-layer algorithm: node 0 floods; every node outputs its first
/// round of contact, which must equal its BFS distance.
struct Layer {
    dist: Option<usize>,
    announce: bool,
}

#[derive(Clone)]
struct Ping;
impl MsgSize for Ping {
    fn size_bits(&self, _id_bits: usize) -> usize {
        1
    }
}

impl Algorithm for Layer {
    type Msg = Ping;
    type Output = Option<usize>;
    fn round(&mut self, ctx: &Ctx, inbox: &[(NodeId, Ping)]) -> Vec<(NodeId, Ping)> {
        if ctx.round == 0 && ctx.id == NodeId(0) {
            self.dist = Some(0);
            self.announce = false;
            return ctx.graph_neighbors.iter().map(|&v| (v, Ping)).collect();
        }
        if !inbox.is_empty() && self.dist.is_none() {
            self.dist = Some(ctx.round);
            self.announce = true;
        }
        if self.announce {
            self.announce = false;
            return ctx.graph_neighbors.iter().map(|&v| (v, Ping)).collect();
        }
        Vec::new()
    }
    fn is_done(&self, _ctx: &Ctx) -> bool {
        self.dist.is_some() && !self.announce
    }
    fn output(&self, _ctx: &Ctx) -> Option<usize> {
        self.dist
    }
}

/// Checks the skip contract on every `round` call of the wrapped node:
/// whenever it reported `can_skip` with an empty inbox, the call must
/// send nothing and leave `is_done`, `can_skip` and `output` as they
/// were, at this round and the next (a sleeping node's verdicts may not
/// depend on the clock). `checked` counts the calls it checked.
struct SkipContract<A> {
    inner: A,
    checked: Arc<AtomicUsize>,
}

impl<A: Algorithm> Algorithm for SkipContract<A>
where
    A::Output: PartialEq + std::fmt::Debug,
{
    type Msg = A::Msg;
    type Output = A::Output;

    fn round(&mut self, ctx: &Ctx, inbox: &[(NodeId, A::Msg)]) -> Vec<(NodeId, A::Msg)> {
        let next = Ctx {
            round: ctx.round + 1,
            ..*ctx
        };
        let verdicts = |a: &A| {
            (
                a.is_done(ctx),
                a.can_skip(ctx),
                a.is_done(&next),
                a.can_skip(&next),
                a.output(ctx),
            )
        };
        let quiet = inbox.is_empty() && self.inner.can_skip(ctx);
        let before = quiet.then(|| verdicts(&self.inner));
        let out = self.inner.round(ctx, inbox);
        if let Some(before) = before {
            let id = ctx.id;
            assert!(out.is_empty(), "skippable node {id:?} sent mail");
            assert_eq!(
                verdicts(&self.inner),
                before,
                "skippable node {id:?} changed"
            );
            self.checked.fetch_add(1, Ordering::Relaxed);
        }
        out
    }

    fn is_done(&self, ctx: &Ctx) -> bool {
        self.inner.is_done(ctx)
    }

    fn can_skip(&self, ctx: &Ctx) -> bool {
        self.inner.can_skip(ctx)
    }

    fn output(&self, ctx: &Ctx) -> A::Output {
        self.inner.output(ctx)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One hop per round: flooding reaches each vertex exactly at its BFS
    /// distance, and the run finishes within diameter + O(1) rounds.
    #[test]
    fn flooding_matches_bfs(g in arb_connected()) {
        let n = g.num_nodes();
        let report = Simulator::congest(&g)
            .run_cfg((0..n).map(|_| Layer { dist: None, announce: false }).collect(), &RunConfig::new())
            .unwrap();
        let bfs = bfs_distances(&g, NodeId(0));
        for (v, &dist) in bfs.iter().enumerate() {
            prop_assert_eq!(report.outputs[v], dist, "node {}", v);
        }
        let d = diameter(&g).unwrap();
        prop_assert!(report.metrics.rounds <= d + 3);
    }

    /// Gather–scatter computes a global sum on arbitrary connected
    /// topologies, with every node receiving the same response.
    #[test]
    fn gather_scatter_global_sum(g in arb_connected()) {
        let n = g.num_nodes();
        let compute: LeaderCompute<SizedU64, SizedU64> = Arc::new(|items| {
            let s: u64 = items.iter().map(|i: &SizedU64| i.value).sum();
            vec![SizedU64 { value: s, bits: 64 }]
        });
        let nodes = (0..n)
            .map(|i| {
                GatherScatter::new(
                    vec![SizedU64 { value: (i * i) as u64, bits: 64 }],
                    Arc::clone(&compute),
                )
            })
            .collect();
        let report = Simulator::congest(&g).run_cfg(nodes, &RunConfig::new()).unwrap();
        let expect: u64 = (0..n as u64).map(|i| i * i).sum();
        for o in &report.outputs {
            prop_assert_eq!(o.response.len(), 1);
            prop_assert_eq!(o.response[0].value, expect);
            prop_assert!(o.complete);
        }
    }

    /// Pipelining bound: k items over diameter D finish in O(k + D).
    #[test]
    fn gather_scatter_round_bound(g in arb_connected(), per_node in 0usize..4) {
        let n = g.num_nodes();
        let compute: LeaderCompute<SizedU64, SizedU64> =
            Arc::new(|items| items); // echo everything back
        let nodes = (0..n)
            .map(|i| {
                GatherScatter::new(
                    (0..per_node)
                        .map(|j| SizedU64 { value: (i * 10 + j) as u64, bits: 32 })
                        .collect(),
                    Arc::clone(&compute),
                )
            })
            .collect();
        let report = Simulator::congest(&g).run_cfg(nodes, &RunConfig::new()).unwrap();
        let k = n * per_node;
        let d = diameter(&g).unwrap();
        prop_assert!(
            report.metrics.rounds <= 6 * (k + d) + 12,
            "rounds {} for k={} d={}",
            report.metrics.rounds, k, d
        );
        // Every node received all k items.
        for o in &report.outputs {
            prop_assert_eq!(o.response.len(), k);
            prop_assert!(o.complete);
        }
    }

    /// Determinism of the sharded engine: for random graphs and every
    /// thread count, `parallel(t)` produces outputs AND metrics
    /// bit-identical to the sequential reference engine.
    #[test]
    fn parallel_engine_is_bit_identical(g in arb_connected(), t_idx in 0usize..4) {
        let threads = [1usize, 2, 4, 8][t_idx];
        let n = g.num_nodes();

        // Workload 1: BFS layers (sparse, data-dependent quiescence).
        let seq = Simulator::congest(&g)
            .run_cfg((0..n).map(|_| Layer { dist: None, announce: false }).collect(), &RunConfig::new())
            .unwrap();
        let par = Simulator::congest(&g)
            .run_cfg((0..n).map(|_| Layer { dist: None, announce: false }).collect(), &RunConfig::new().parallel(threads))
            .unwrap();
        prop_assert_eq!(&par.outputs, &seq.outputs, "Layer outputs, t={}", threads);
        prop_assert_eq!(&par.metrics, &seq.metrics, "Layer metrics, t={}", threads);

        // Workload 2: flood-max leader election (dense message flow).
        let mk = || (0..n).map(|i| FloodMax::new(NodeId::from_index(i))).collect();
        let seq = Simulator::congest(&g).run_cfg(mk(), &RunConfig::new()).unwrap();
        let par = Simulator::congest(&g).run_cfg(mk(), &RunConfig::new().parallel(threads)).unwrap();
        prop_assert_eq!(&par.outputs, &seq.outputs, "FloodMax outputs, t={}", threads);
        prop_assert_eq!(&par.metrics, &seq.metrics, "FloodMax metrics, t={}", threads);
    }

    /// The gather–scatter primitive (BFS tree + pipelining, the paper's
    /// Lemma 2 workhorse) is engine-independent too.
    #[test]
    fn gather_scatter_parallel_bit_identical(g in arb_connected(), t_idx in 0usize..3) {
        let threads = [2usize, 4, 8][t_idx];
        let n = g.num_nodes();
        let compute: LeaderCompute<SizedU64, SizedU64> = Arc::new(|mut items| {
            items.sort_by_key(|i: &SizedU64| i.value);
            items
        });
        let mk = || (0..n)
            .map(|i| {
                GatherScatter::new(
                    vec![SizedU64 { value: (i * 7 + 1) as u64, bits: 32 }],
                    Arc::clone(&compute),
                )
            })
            .collect();
        let seq = Simulator::congest(&g).run_cfg(mk(), &RunConfig::new()).unwrap();
        let par = Simulator::congest(&g).run_cfg(mk(), &RunConfig::new().parallel(threads)).unwrap();
        prop_assert_eq!(&par.outputs, &seq.outputs, "outputs, t={}", threads);
        prop_assert_eq!(&par.metrics, &seq.metrics, "metrics, t={}", threads);
    }

    /// Both scheduling policies are bit-identical on the primitives with
    /// data-dependent quiescence (Layer goes quiet per-node as the BFS
    /// wave passes; GatherScatter's phases re-activate on messages).
    #[test]
    fn scheduling_policies_bit_identical(g in arb_connected(), t_idx in 0usize..3) {
        use pga_congest::Scheduling;
        let threads = [1usize, 3, 8][t_idx];
        let n = g.num_nodes();
        let mk_layer = || (0..n).map(|_| Layer { dist: None, announce: false }).collect::<Vec<_>>();
        let compute: LeaderCompute<SizedU64, SizedU64> = Arc::new(|items| items);
        let mk_gs = || (0..n)
            .map(|i| {
                GatherScatter::new(
                    vec![SizedU64 { value: i as u64, bits: 32 }],
                    Arc::clone(&compute),
                )
            })
            .collect::<Vec<_>>();

        let full = Simulator::congest(&g)
            .run_cfg(mk_layer(), &RunConfig::new().scheduling(Scheduling::FullSweep))
            .unwrap();
        let active = Simulator::congest(&g)
            .run_cfg(mk_layer(), &RunConfig::new().scheduling(Scheduling::ActiveSet).parallel(threads))
            .unwrap();
        prop_assert_eq!(&active.outputs, &full.outputs, "Layer outputs, t={}", threads);
        prop_assert_eq!(&active.metrics, &full.metrics, "Layer metrics, t={}", threads);

        let full = Simulator::congest(&g)
            .run_cfg(mk_gs(), &RunConfig::new().scheduling(Scheduling::FullSweep))
            .unwrap();
        let active = Simulator::congest(&g)
            .run_cfg(mk_gs(), &RunConfig::new().scheduling(Scheduling::ActiveSet).parallel(threads))
            .unwrap();
        prop_assert_eq!(&active.outputs, &full.outputs, "GS outputs, t={}", threads);
        prop_assert_eq!(&active.metrics, &full.metrics, "GS metrics, t={}", threads);
    }

    /// `GatherScatter`'s `can_skip` keeps the skip contract in every
    /// state it reaches, checked call by call under the full sweep (which
    /// steps every node, skippable or not), with and without a phase
    /// deadline; a tight deadline fires mid-gather.
    #[test]
    fn gather_scatter_keeps_the_skip_contract(
        g in arb_connected(),
        per_node in 0usize..3,
        deadline in prop_oneof![Just(None), (1usize..40).prop_map(Some)],
    ) {
        use pga_congest::Scheduling;
        let n = g.num_nodes();
        let checked = Arc::new(AtomicUsize::new(0));
        let compute: LeaderCompute<SizedU64, SizedU64> = Arc::new(|items| items);
        let nodes = (0..n)
            .map(|i| SkipContract {
                inner: GatherScatter::new(
                    (0..per_node)
                        .map(|j| SizedU64 { value: (i * 3 + j) as u64, bits: 32 })
                        .collect(),
                    Arc::clone(&compute),
                )
                .with_deadline(deadline),
                checked: Arc::clone(&checked),
            })
            .collect();
        let cfg = RunConfig::new().scheduling(Scheduling::FullSweep);
        Simulator::congest(&g).run_cfg(nodes, &cfg).unwrap();
        // Without a deadline every run steps waiting nodes with empty
        // inboxes, so the contract was exercised.
        if deadline.is_none() {
            prop_assert!(checked.load(Ordering::Relaxed) > 0);
        }
    }

    /// The cost-balanced shard boundaries are always a valid partition:
    /// they start at 0, end at n, are strictly increasing (every shard
    /// non-empty), and never exceed the requested shard count — on every
    /// instance family and thread count.
    #[test]
    fn shard_boundaries_form_valid_partition(
        g in arb_exchange_instance(),
        threads in 1usize..12,
    ) {
        let n = g.num_nodes();
        let sim = Simulator::congest(&g);
        let bounds = sim.shard_boundaries(threads);
        prop_assert_eq!(*bounds.first().unwrap(), 0);
        prop_assert_eq!(*bounds.last().unwrap(), n);
        prop_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "{:?}", bounds);
        prop_assert!(bounds.len() - 1 <= threads.max(1), "{:?}", bounds);
        // Covering: the per-shard lengths sum to n.
        let covered: usize = bounds.windows(2).map(|w| w[1] - w[0]).sum();
        prop_assert_eq!(covered, n);
    }

    /// Under the lane exchange into per-actor inboxes, `parallel(t)`
    /// stays bit-identical to the sequential run across thread counts
    /// {1, 2, 3, 5, 8} on uniform gnm, heavy-tailed Barabási–Albert, and
    /// quiescent-tail lollipop instances.
    #[test]
    fn lane_exchange_bit_identical(g in arb_exchange_instance()) {
        let n = g.num_nodes();
        let mk = || (0..n).map(|i| FloodMax::new(NodeId::from_index(i))).collect::<Vec<_>>();
        let seq = Simulator::congest(&g).run_cfg(mk(), &RunConfig::new()).unwrap();
        for threads in [1usize, 2, 3, 5, 8] {
            let par = Simulator::congest(&g).run_cfg(mk(), &RunConfig::new().parallel(threads)).unwrap();
            prop_assert_eq!(&par.outputs, &seq.outputs, "outputs, t={}", threads);
            prop_assert_eq!(&par.metrics, &seq.metrics, "metrics, t={}", threads);
        }
    }

    /// Messages never exceed the bandwidth, and metrics are consistent.
    #[test]
    fn metrics_consistency(g in arb_connected()) {
        let n = g.num_nodes();
        let report = Simulator::congest(&g)
            .run_cfg((0..n).map(|_| Layer { dist: None, announce: false }).collect(), &RunConfig::new())
            .unwrap();
        let m = &report.metrics;
        prop_assert!(m.bits >= m.messages, "each Ping is ≥1 bit");
        prop_assert!(m.max_message_bits <= pga_congest::default_bandwidth_bits(n));
        if m.messages > 0 {
            prop_assert!(m.avg_message_bits() >= 1.0);
        }
    }
}
