//! Bench-smoke for the low-space MPC subsystem.
//!
//! Runs the CONGEST-to-MPC adapter and the native ruling set on two
//! pinned seeded instances (a uniform `connected_gnm` and a heavy-tailed
//! `barabasi_albert`), and Theorem 1's full pipeline through the adapter
//! on a half-size `connected_gnm`, sweeping the MPC engine over thread
//! counts {1, 2, 4, 8}, then:
//!
//! * verifies every engine run of the adapter reproduced the sequential
//!   CONGEST engine **bit-identically** (outputs and metrics; for
//!   Theorem 1 the cover and both phases' metrics) and every engine run
//!   of the native ruling set matched its sequential oracle — exit code
//!   1 on any divergence (this is CI's correctness gate),
//! * verifies the enforced budgets were respected (`peak_memory_words`
//!   and `peak_round_io_words` at most `S` — the engine would have
//!   errored otherwise),
//! * writes the machine-readable `BENCH_mpc.json` artifact
//!   (schema: `pga_bench::harness::MpcBench`), whose `engines` arrays
//!   record the scaling trajectory across thread counts.
//!
//! Environment overrides: `BENCH_MPC_N` (vertices), `BENCH_MPC_AVG_DEG`
//! (average degree), `BENCH_MPC_SEED`, `BENCH_MPC_BA_N` / `BENCH_MPC_BA_K`
//! (the Barabási–Albert instance), `BENCH_MPC_OUT` (artifact path).

use pga_bench::harness::{
    env_u64, env_usize, median_ms, time_ms, write_json, EngineTiming, MpcBench, MpcWorkloadRecord,
};
use pga_congest::primitives::FloodMax;
use pga_congest::{ProbeMode, RunConfig, Simulator};
use pga_core::mpc::g2_mvc_congest_mpc_cfg;
use pga_core::mvc::congest::{g2_mvc_congest_cfg, LocalSolver};
use pga_graph::{generators, Graph, NodeId};
use pga_mpc::{
    g2_ruling_set_mpc, lex_first_g2_mis, recommended_memory_words,
    recommended_ruling_set_memory_words, CongestOnMpc, Engine,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;

/// The parallel thread counts every MPC workload sweeps (next to the
/// sequential engine, which is the `threads = 1` point).
const THREAD_SWEEP: [usize; 3] = [2, 4, 8];

/// Runs behind every timed figure: each is the median of `REPS` runs.
const REPS: usize = 3;

fn floodmax_states(n: usize) -> Vec<FloodMax> {
    (0..n)
        .map(|i| FloodMax::new(NodeId::from_index(i)))
        .collect()
}

/// Runs `run` on the sequential engine and at every swept thread count,
/// timing each as the median of [`REPS`] runs. Returns the sequential
/// result, the per-engine timings (`mpc_sequential` first), and whether
/// every parallel result is `same` as the sequential one.
///
/// The median keeps a first-run cost, or one run slowed by the host, out
/// of the sequential entry that `bench_regress` gates.
fn engine_sweep<R>(
    run: impl Fn(Engine) -> R,
    same: impl Fn(&R, &R) -> bool,
) -> (R, Vec<EngineTiming>, bool) {
    let (seq, seq_ms) = median_ms(REPS, || run(Engine::Sequential));
    let mut engines = vec![EngineTiming {
        engine: "mpc_sequential".into(),
        threads: 1,
        wall_ms: seq_ms,
    }];
    let mut identical = true;
    for threads in THREAD_SWEEP {
        let (par, par_ms) = median_ms(REPS, || run(Engine::Parallel { threads }));
        identical &= same(&par, &seq);
        engines.push(EngineTiming {
            engine: "mpc_parallel".into(),
            threads,
            wall_ms: par_ms,
        });
    }
    (seq, engines, identical)
}

/// FloodMax through the adapter (at every swept thread count) vs the
/// sequential CONGEST engine.
fn adapter_workload(name: &str, graph: &str, g: &Graph, seed: u64) -> MpcWorkloadRecord {
    let n = g.num_nodes();
    let memory_words = recommended_memory_words(g, pga_congest::default_bandwidth_bits(n));
    let (reference, ref_ms) = median_ms(REPS, || {
        Simulator::congest(g)
            .run_cfg(floodmax_states(n), &RunConfig::new().probe(ProbeMode::Off))
            .expect("congest reference run")
    });
    let (adapter, engines, sweep_same) = engine_sweep(
        |engine| {
            CongestOnMpc::congest(g)
                .with_memory_words(memory_words)
                .run_cfg(floodmax_states(n), &RunConfig::new().engine(engine))
                .expect("adapter run")
        },
        |par, seq| {
            par.outputs == seq.outputs
                && par.congest == seq.congest
                && par.mpc == seq.mpc
                && par.machines == seq.machines
        },
    );
    let identical =
        sweep_same && adapter.outputs == reference.outputs && adapter.congest == reference.metrics;
    if !identical {
        eprintln!("DIVERGENCE in workload '{name}':");
        eprintln!("  congest metrics: {}", reference.metrics);
        eprintln!("  adapter metrics: {}", adapter.congest);
    }
    MpcWorkloadRecord {
        name: name.to_string(),
        graph: graph.to_string(),
        n,
        m: g.num_edges(),
        seed,
        memory_words,
        machines: adapter.machines,
        congest_rounds: reference.metrics.rounds,
        mpc_rounds: adapter.mpc.rounds,
        mpc_messages: adapter.mpc.messages,
        mpc_words: adapter.mpc.words,
        peak_memory_words: adapter.mpc.peak_memory_words,
        peak_round_io_words: adapter.mpc.peak_round_io_words,
        wall_ms_reference: ref_ms,
        wall_ms_mpc: engines[0].wall_ms,
        engines,
        identical,
    }
}

/// Theorem 1 (`ε = 0.5`, the 5/3 local solver) through the adapter (at
/// every swept thread count) vs the same pipeline on the sequential
/// CONGEST engine: the cover and both phases' metrics must match.
fn thm1_workload(name: &str, graph: &str, g: &Graph, seed: u64) -> MpcWorkloadRecord {
    const EPS: f64 = 0.5;
    let solver = LocalSolver::FiveThirds;
    let memory_words =
        recommended_memory_words(g, pga_congest::default_bandwidth_bits(g.num_nodes()));
    let (reference, ref_ms) = median_ms(REPS, || {
        g2_mvc_congest_cfg(g, EPS, solver, &RunConfig::new().probe(ProbeMode::Off))
            .expect("congest reference run")
    });
    let (adapter, engines, sweep_same) = engine_sweep(
        |engine| {
            let cfg = RunConfig::new().engine(engine);
            g2_mvc_congest_mpc_cfg(g, EPS, solver, memory_words, &cfg).expect("adapter run")
        },
        |par, seq| {
            par.result.cover == seq.result.cover
                && par.result.phase1_metrics == seq.result.phase1_metrics
                && par.result.phase2_metrics == seq.result.phase2_metrics
                && par.mpc_metrics == seq.mpc_metrics
                && par.machines == seq.machines
        },
    );
    let identical = sweep_same
        && adapter.result.cover == reference.cover
        && adapter.result.phase1_metrics == reference.phase1_metrics
        && adapter.result.phase2_metrics == reference.phase2_metrics;
    if !identical {
        eprintln!("DIVERGENCE in workload '{name}': Theorem 1 through the adapter != CONGEST");
    }
    let mpc = &adapter.mpc_metrics;
    MpcWorkloadRecord {
        name: name.to_string(),
        graph: graph.to_string(),
        n: g.num_nodes(),
        m: g.num_edges(),
        seed,
        memory_words,
        machines: adapter.machines,
        congest_rounds: reference.total_rounds(),
        mpc_rounds: mpc.rounds,
        mpc_messages: mpc.messages,
        mpc_words: mpc.words,
        peak_memory_words: mpc.peak_memory_words,
        peak_round_io_words: mpc.peak_round_io_words,
        wall_ms_reference: ref_ms,
        wall_ms_mpc: engines[0].wall_ms,
        engines,
        identical,
    }
}

/// The native greedy 2-ruling set (at every swept thread count) vs its
/// sequential oracle.
fn ruling_set_workload(name: &str, graph: &str, g: &Graph, seed: u64) -> MpcWorkloadRecord {
    let memory_words = recommended_ruling_set_memory_words(g);
    let (oracle, ref_ms) = median_ms(REPS, || lex_first_g2_mis(g));
    let (result, engines, sweep_same) = engine_sweep(
        |engine| g2_ruling_set_mpc(g, memory_words, engine).expect("ruling set run"),
        |par, seq| par.in_r == seq.in_r && par.mpc == seq.mpc && par.machines == seq.machines,
    );
    let identical = sweep_same && result.in_r == oracle;
    if !identical {
        eprintln!("DIVERGENCE in workload '{name}': ruling set != sequential oracle");
    }
    MpcWorkloadRecord {
        name: name.to_string(),
        graph: graph.to_string(),
        n: g.num_nodes(),
        m: g.num_edges(),
        seed,
        memory_words,
        machines: result.machines,
        congest_rounds: 0,
        mpc_rounds: result.mpc.rounds,
        mpc_messages: result.mpc.messages,
        mpc_words: result.mpc.words,
        peak_memory_words: result.mpc.peak_memory_words,
        peak_round_io_words: result.mpc.peak_round_io_words,
        wall_ms_reference: ref_ms,
        wall_ms_mpc: engines[0].wall_ms,
        engines,
        identical,
    }
}

fn main() {
    let n = env_usize("BENCH_MPC_N", 10_000);
    let avg_deg = env_usize("BENCH_MPC_AVG_DEG", 6);
    let seed = env_u64("BENCH_MPC_SEED", 45_803);
    let ba_n = env_usize("BENCH_MPC_BA_N", n / 2);
    let ba_k = env_usize("BENCH_MPC_BA_K", 4);
    let out = PathBuf::from(
        std::env::var("BENCH_MPC_OUT").unwrap_or_else(|_| "BENCH_mpc.json".to_string()),
    );
    let m = (n * avg_deg / 2).max(n.saturating_sub(1));

    println!(
        "bench_mpc: pinned instances gnm(n={n}, m={m}), ba(n={ba_n}, k={ba_k}) and \
         gnm(n={}, m={}), seed={seed}, engine sweep {THREAD_SWEEP:?}",
        n / 2,
        m / 2
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let (gnm, gnm_ms) = time_ms(|| generators::connected_gnm(n, m, &mut rng));
    let (ba, ba_ms) = time_ms(|| generators::barabasi_albert(ba_n, ba_k, seed));
    let (half, half_ms) = time_ms(|| generators::connected_gnm(n / 2, m / 2, &mut rng));
    println!("  graphs generated in {gnm_ms:.0} + {ba_ms:.0} + {half_ms:.0} ms");

    let workloads = vec![
        adapter_workload("floodmax_adapter", "connected_gnm", &gnm, seed),
        adapter_workload("floodmax_adapter_ba", "barabasi_albert", &ba, seed),
        ruling_set_workload("ruling_set", "connected_gnm", &gnm, seed),
        ruling_set_workload("ruling_set_ba", "barabasi_albert", &ba, seed),
        thm1_workload("thm1_adapter", "connected_gnm", &half, seed),
    ];

    for w in &workloads {
        let timings: Vec<String> = w
            .engines
            .iter()
            .map(|e| format!("{}({}) {:.0} ms", e.engine, e.threads, e.wall_ms))
            .collect();
        println!(
            "  {:>19}: {} machines (S = {} words), {} mpc rounds, {} words | ref {:.0} ms, {} | identical: {}",
            w.name, w.machines, w.memory_words, w.mpc_rounds, w.mpc_words,
            w.wall_ms_reference, timings.join(", "), w.identical
        );
        assert!(
            w.peak_memory_words <= w.memory_words && w.peak_round_io_words <= w.memory_words,
            "budget violation escaped the engine in '{}'",
            w.name
        );
    }

    let doc = MpcBench {
        bench: "mpc_model".into(),
        workloads,
    };
    write_json(&out, &doc.to_json()).expect("write BENCH_mpc.json");
    println!("  wrote {}", out.display());

    if doc.workloads.iter().any(|w| !w.identical) {
        eprintln!("FAIL: MPC execution diverged from its reference");
        std::process::exit(1);
    }
    println!("  every MPC execution bit-identical to its reference on every engine");
}
