//! Shard imbalance on the heavy-tailed Barabási–Albert workload.
//!
//! The cost-balanced partition (`balanced_partition` over the
//! `actor_cost` hook) holds the BA hub skew to ~0.03% static imbalance.
//! A run's trace records the partition it actually used (the `bounds`
//! of its `run_start`), so this test checks that figure on the bounds a
//! `RecordingProbe` saw, loaded with the per-vertex costs the kernel
//! balanced on (`Simulator::vertex_cost`).

use pga_bench::harness::ShardLoad;
use pga_congest::primitives::FloodMax;
use pga_congest::{RecordingProbe, RunConfig, Simulator};
use pga_graph::{generators, NodeId};

#[test]
fn ba_hub_partition_imbalance_stays_near_the_balanced_figure() {
    let g = generators::barabasi_albert(20_000, 8, 42);
    let n = g.num_nodes();
    let sim = Simulator::congest(&g);
    let probe = RecordingProbe::new("congest");
    let cfg = RunConfig::new().parallel(4);
    let nodes = (0..n)
        .map(|i| FloodMax::new(NodeId::from_index(i)))
        .collect();
    let report = sim.run_cfg_probed(nodes, &cfg, &probe).unwrap();
    assert!(report.metrics.rounds > 0);

    let runs = probe.into_runs();
    let run = &runs[0];
    assert!(run.end.is_some());
    assert_eq!(run.actors, n as u64);
    assert_eq!(run.bounds.len(), 5, "4 shards -> 5 boundary offsets");
    let bounds: Vec<usize> = run.bounds.iter().map(|&b| b as usize).collect();
    assert_eq!(bounds, sim.shard_boundaries(4));

    // The cost-balanced partition holds the BA hubs to ~0.03% (3e-4)
    // total-cost imbalance across shards. Assert an order of magnitude
    // of slack so instance drift cannot flake the gate while a
    // regression to degree-oblivious splitting (which lands in the tens
    // of percent on BA) still fails loudly.
    let costs: Vec<u64> = (0..n).map(|i| sim.vertex_cost(i)).collect();
    let loads = ShardLoad::from_partition(&costs, &bounds);
    assert_eq!(loads.len(), 4);
    let totals: Vec<u64> = loads.iter().map(|l| l.total_cost).collect();
    let max = *totals.iter().max().unwrap() as f64;
    let mean = totals.iter().sum::<u64>() as f64 / totals.len() as f64;
    let imbalance = max / mean - 1.0;
    assert!(
        imbalance < 3e-3,
        "partition imbalance {imbalance} exceeds 10x the documented ~0.03% figure"
    );

    // The dynamic per-round view exists too: every round carries one
    // record per spawned shard, and the round-level imbalance is finite.
    assert!(run
        .rounds
        .iter()
        .all(|r| !r.shards.is_empty() && r.shards.len() <= 4));
    assert!(run.rounds.iter().all(|r| r.shard_imbalance().is_finite()));
}
