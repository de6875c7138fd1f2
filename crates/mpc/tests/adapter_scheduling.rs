//! The adapter steps exactly the hosted nodes the CONGEST engine steps.
//!
//! Each node is wrapped in [`Counted`], which tallies its own `round`
//! calls and reports the tally in its output, so comparing outputs
//! compares the step sets node by node. The comparison runs under both
//! scheduling policies, with one machine hosting everything and with
//! many small machines (where a machine whose nodes all wait sleeps in
//! the MPC kernel), and also requires the merged CONGEST `Metrics` to
//! equal the CONGEST engine's.

use pga_congest::primitives::{FloodMax, GatherScatter, LeaderCompute, SizedU64};
use pga_congest::{default_bandwidth_bits, Algorithm, Ctx, RunConfig, Scheduling, Simulator};
use pga_graph::{generators, Graph, NodeId};
use pga_mpc::{adapter_vertex_cost, CongestOnMpc};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Counts its own `round` calls and returns the count with the inner
/// output. Counting mutates state, so a call the engine was allowed to
/// skip but made anyway shows up in the output.
struct Counted<A> {
    inner: A,
    steps: usize,
}

impl<A: Algorithm> Algorithm for Counted<A> {
    type Msg = A::Msg;
    type Output = (A::Output, usize);

    fn round(&mut self, ctx: &Ctx, inbox: &[(NodeId, A::Msg)]) -> Vec<(NodeId, A::Msg)> {
        self.steps += 1;
        self.inner.round(ctx, inbox)
    }

    fn is_done(&self, ctx: &Ctx) -> bool {
        self.inner.is_done(ctx)
    }

    fn can_skip(&self, ctx: &Ctx) -> bool {
        self.inner.can_skip(ctx)
    }

    fn output(&self, ctx: &Ctx) -> (A::Output, usize) {
        (self.inner.output(ctx), self.steps)
    }
}

fn counted<A>(nodes: impl Iterator<Item = A>) -> Vec<Counted<A>> {
    nodes.map(|inner| Counted { inner, steps: 0 }).collect()
}

fn instances() -> Vec<Graph> {
    let mut rng = StdRng::seed_from_u64(21);
    vec![
        generators::connected_gnm(60, 110, &mut rng),
        generators::barabasi_albert(50, 3, 7),
        generators::grid(6, 8),
        generators::path(40),
    ]
}

/// The smallest budget that still hosts `g`'s busiest vertex with
/// state `A`: one or two vertices per machine.
fn tight_budget<A>(g: &Graph) -> usize {
    let bandwidth = default_bandwidth_bits(g.num_nodes());
    let state_words = std::mem::size_of::<A>().div_ceil(8);
    let worst = (0..g.num_nodes())
        .map(|v| adapter_vertex_cost(g.degree(NodeId::from_index(v)), bandwidth, state_words))
        .max()
        .unwrap();
    2 * worst
}

/// Runs `mk()` on the CONGEST engine and through the adapter at a
/// one-machine and a many-machine budget, under both policies, and
/// requires equal outputs (step counts included) and equal `Metrics`.
/// Returns the total step count of each policy.
fn assert_same_steps<A, F>(g: &Graph, mk: F) -> [usize; 2]
where
    A: Algorithm + Send,
    A::Msg: Send,
    A::Output: PartialEq + std::fmt::Debug,
    F: Fn() -> Vec<Counted<A>>,
{
    let policies = [Scheduling::FullSweep, Scheduling::ActiveSet];
    policies.map(|scheduling| {
        let cfg = RunConfig::new().scheduling(scheduling);
        let reference = Simulator::congest(g).run_cfg(mk(), &cfg).unwrap();
        for (budget, expect_many) in [(1 << 24, false), (tight_budget::<Counted<A>>(g), true)] {
            let on_mpc = CongestOnMpc::congest(g).with_memory_words(budget);
            let report = on_mpc.run_cfg(mk(), &cfg).unwrap();
            let at = format!("{scheduling:?} S={budget} machines={}", report.machines);
            if expect_many {
                assert!(report.machines >= 8, "{at}");
            } else {
                assert_eq!(report.machines, 1, "{at}");
            }
            assert_eq!(report.outputs, reference.outputs, "{at}");
            assert_eq!(report.congest, reference.metrics, "{at}");
            let par = on_mpc.run_cfg(mk(), &cfg.parallel(3)).unwrap();
            assert_eq!(par.outputs, reference.outputs, "{at} parallel(3)");
            assert_eq!(par.congest, reference.metrics, "{at} parallel(3)");
            assert_eq!(par.mpc, report.mpc, "{at} parallel(3)");
        }
        reference.outputs.iter().map(|(_, steps)| steps).sum()
    })
}

#[test]
fn floodmax_steps_match_the_congest_engine() {
    for g in instances() {
        let n = g.num_nodes();
        let [full, active] = assert_same_steps(&g, || {
            counted((0..n).map(|i| FloodMax::new(NodeId::from_index(i))))
        });
        assert!(active < full, "{g:?}: the active set skipped nothing");
    }
}

#[test]
fn gather_scatter_steps_match_the_congest_engine() {
    let compute: LeaderCompute<SizedU64, SizedU64> = Arc::new(|items| items);
    for g in instances() {
        let n = g.num_nodes();
        let [full, active] = assert_same_steps(&g, || {
            counted((0..n).map(|i| {
                let items = (0..i % 3)
                    .map(|j| SizedU64 {
                        value: (i * 3 + j) as u64,
                        bits: 32,
                    })
                    .collect();
                GatherScatter::new(items, Arc::clone(&compute))
            }))
        });
        assert!(active < full, "{g:?}: the active set skipped nothing");
    }
}
