//! Fault-injection trajectory: degradation curves, the price of
//! reliability, and the replay-determinism gate.
//!
//! Sweeps seeded [`FaultSpec`]s — drop rates {0, 1%, 5%, 10%}, delay
//! rates {1%, 5%, 10%}, and crash fractions {1%, 5%} — over pinned
//! instances (a uniform gnm and a
//! heavy-tailed Barabási–Albert) for the paper's CONGEST entry points
//! (`g2_mvc_congest_cfg`, `g2_mds_congest_cfg`) and the native MPC
//! ruling set (`g2_ruling_set_mpc_cfg`), each cell under all three
//! delivery pipelines:
//!
//! * **raw** — faulted channels, no recovery (the historical sweep);
//! * **arq** — the kernel's sliding-window ack/retransmit executor
//!   ([`ReliabilitySpec::arq`]: window 32, retransmit after 2 ticks,
//!   16 retries before a link is declared dead);
//! * **arq_timeout** — ARQ with a tight retry budget (3) plus
//!   phase-level deadlines (slack 2) that fall back to a partial
//!   aggregate, trading approximation for guaranteed convergence.
//!
//! A FloodMax record-and-replay workload rides along on the raw
//! pipeline only (the `FaultTrace` machinery bypasses the ARQ layer).
//! Per cell the sweep records: convergence within the round budget and
//! — for starved cells — the **stall cause** (`"round_limit"` vs
//! `"dead_link"`, recovered by re-running the cell with `PGA_TRACE`
//! and reading the dead-link counters out of the telemetry), output
//! validity (vertex cover / dominating set of `G²`), the
//! approximation-degradation ratio against the fault-free run, the
//! fault- and reliability-plane accounting (retransmissions, acks,
//! dead links, degraded phases), and whether re-executing the same
//! `(seed, FaultSpec)` on the multi-threaded engine (or replaying the
//! recorded
//! [`FaultTrace`](pga_congest::FaultTrace), for the FloodMax workload)
//! reproduced the run bit for bit. It then:
//!
//! * writes the machine-readable `BENCH_fault.json` artifact
//!   (schema: `pga_bench::harness::FaultBench`),
//! * with `--assert-replay`, exits with code 4 if any cell failed
//!   replay identity — this is CI's fault-determinism gate,
//! * with `--assert-recovery`, exits with code 5 unless every
//!   MVC/ruling-set drop cell that stalls on the raw pipeline
//!   converges to a valid output under both ARQ pipelines — the
//!   reliability layer's headline guarantee,
//! * with `--matrix-only --seed S --threads T`, skips the sweep and
//!   prints a single digest line for a fixed hostile spec executed at
//!   the given seed and thread count on both the raw and the
//!   ARQ+timeout pipeline; CI runs this over a seed × thread matrix
//!   and asserts the digests agree across thread counts.
//!
//! Environment overrides: `BENCH_FAULT_N` (vertices),
//! `BENCH_FAULT_SEED`, `BENCH_FAULT_THREADS` (gate thread count),
//! `BENCH_FAULT_MAX_ROUNDS` (round budget under faults; ARQ cells get
//! 50x that in kernel ticks — a clean app round costs at least two
//! ticks and retransmit waits stretch it further),
//! `BENCH_FAULT_OUT` (artifact path).

use pga_bench::harness::{
    env_u64, env_usize, flag_or, time_ms, write_json, FaultBench, FaultRecord,
};
use pga_bench::trace::parse_trace;
use pga_congest::primitives::FloodMax;
use pga_congest::{
    FaultSpec, Metrics, ReliabilitySpec, RunConfig, SeededAdversary, Simulator, TraceAdversary,
};
use pga_core::mds::congest_g2::g2_mds_congest_cfg;
use pga_core::mvc::congest::{g2_mvc_congest_cfg, LocalSolver};
use pga_graph::cover::{is_dominating_set_on_square, is_vertex_cover_on_square};
use pga_graph::{generators, Graph, NodeId};
use pga_mpc::{g2_ruling_set_mpc_cfg, recommended_ruling_set_memory_words};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;

/// The drop-rate sweep (crash-free cells). The deterministic
/// gather–scatter phases assume reliable channels, so nonzero drop
/// rates legitimately stall some raw-pipeline workloads — those cells
/// record `converged: false`, which is the measurement; the ARQ
/// pipelines are expected to recover them (`--assert-recovery`).
const DROP_SWEEP: [f64; 4] = [0.0, 0.01, 0.05, 0.1];
/// The delay-rate sweep (messages re-ordered in time but never lost):
/// every workload converges here, so these cells carry the
/// size-and-rounds degradation curves.
const DELAY_SWEEP: [f64; 3] = [0.01, 0.05, 0.1];
/// Maximum extra rounds a delayed message is parked.
const MAX_DELAY: u32 = 3;
/// The crash-fraction sweep (drop-free cells); crashes land within the
/// first `CRASH_WITHIN` rounds.
const CRASH_SWEEP: [f64; 2] = [0.01, 0.05];
/// Crash-activation window in rounds.
const CRASH_WITHIN: u32 = 10;
/// Tick-budget multiplier for the ARQ pipelines (the reliable executor
/// runs on the kernel tick clock: 2+ ticks per clean app round, more
/// under retransmission).
const ARQ_TICK_FACTOR: usize = 50;

/// The delivery pipeline a cell runs under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Pipeline {
    /// Faulted channels, no recovery.
    Raw,
    /// Sliding-window ack/retransmit, patient retry budget.
    Arq,
    /// ARQ with a tight retry budget plus phase-level deadlines.
    ArqTimeout,
}

impl Pipeline {
    const ALL: [Pipeline; 3] = [Pipeline::Raw, Pipeline::Arq, Pipeline::ArqTimeout];

    fn name(self) -> &'static str {
        match self {
            Pipeline::Raw => "raw",
            Pipeline::Arq => "arq",
            Pipeline::ArqTimeout => "arq_timeout",
        }
    }

    fn reliability(self) -> Option<ReliabilitySpec> {
        match self {
            Pipeline::Raw => None,
            Pipeline::Arq => Some(ReliabilitySpec::arq()),
            Pipeline::ArqTimeout => Some(
                ReliabilitySpec::arq()
                    .with_max_retries(3)
                    .with_phase_timeouts(2),
            ),
        }
    }

    /// The cell's round budget: app rounds on the raw pipeline, kernel
    /// ticks on the reliable one.
    fn budget(self, max_rounds: usize) -> usize {
        match self {
            Pipeline::Raw => max_rounds,
            _ => max_rounds * ARQ_TICK_FACTOR,
        }
    }
}

/// FNV-1a over a byte stream — the workload digest the seed × thread
/// matrix compares.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn eat_str(&mut self, s: &str) {
        self.eat(s.as_bytes());
    }
}

/// Everything a single `(workload, spec, pipeline)` cell produces,
/// before it is joined with the clean-run baseline into a
/// [`FaultRecord`].
struct CellOutcome {
    converged: bool,
    stall: Option<&'static str>,
    valid: bool,
    rounds: usize,
    convergence_round: usize,
    output_size: usize,
    metrics: Metrics,
    replay_identical: bool,
    wall_ms: f64,
    digest: u64,
}

impl CellOutcome {
    fn diverged(wall_ms: f64, digest: u64) -> Self {
        CellOutcome {
            converged: false,
            stall: Some("round_limit"),
            valid: false,
            rounds: 0,
            convergence_round: 0,
            output_size: 0,
            metrics: Metrics::default(),
            replay_identical: true,
            wall_ms,
            digest,
        }
    }
}

/// Folds two phase metrics into one whole-run view (rounds and counters
/// add, peaks max, the later phase's convergence round is offset by the
/// earlier phase's length — mirroring `MpcMetrics::absorb`).
fn fold_metrics(a: &Metrics, b: &Metrics) -> Metrics {
    let mut m = a.clone();
    if b.convergence_round > 0 {
        m.convergence_round = a.rounds + b.convergence_round;
    }
    m.rounds += b.rounds;
    m.messages += b.messages;
    m.bits += b.bits;
    m.max_message_bits = m.max_message_bits.max(b.max_message_bits);
    m.congestion_profile
        .extend_from_slice(&b.congestion_profile);
    m.fault.absorb(&b.fault);
    m
}

/// One cell's execution parameters: the fault spec, the delivery
/// pipeline, the gate thread count, and the (pipeline-scaled) budget.
#[derive(Clone, Copy)]
struct Cell {
    spec: FaultSpec,
    pipeline: Pipeline,
    threads: usize,
    budget: usize,
}

impl Cell {
    fn new(spec: FaultSpec, pipeline: Pipeline, threads: usize, max_rounds: usize) -> Self {
        Cell {
            spec,
            pipeline,
            threads,
            budget: pipeline.budget(max_rounds),
        }
    }

    /// The cell's [`RunConfig`] for a given engine.
    fn cfg(&self, threads: usize) -> RunConfig {
        let base = if threads <= 1 {
            RunConfig::new().sequential()
        } else {
            RunConfig::new().parallel(threads)
        };
        let base = base.adversary(self.spec).max_rounds(self.budget);
        match self.pipeline.reliability() {
            Some(rel) => base.reliability(rel),
            None => base,
        }
    }
}

/// Re-executes a starved cell with `PGA_TRACE` pointed at a scratch
/// file and counts the dead links recorded in the emitted telemetry —
/// the only window into an errored run, whose metrics never surface.
/// The trace parser tolerates the aborted final run (no `run_end`).
fn traced_dead_links(rerun: impl FnOnce()) -> u64 {
    let path = std::env::temp_dir().join(format!("bench_fault_stall_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    std::env::set_var("PGA_TRACE", &path);
    rerun();
    std::env::remove_var("PGA_TRACE");
    let text = std::fs::read_to_string(&path).unwrap_or_default();
    let _ = std::fs::remove_file(&path);
    parse_trace(&text)
        .map(|runs| runs.iter().map(|r| r.fault_total().dead_links).sum())
        .unwrap_or(0)
}

/// Classifies a starved cell: `"dead_link"` when the traced rerun shows
/// the ARQ layer abandoned a link, `"round_limit"` otherwise (raw-path
/// stalls always land here — the raw executor has no link table).
fn stall_cause(rerun: impl FnOnce()) -> &'static str {
    if traced_dead_links(rerun) > 0 {
        "dead_link"
    } else {
        "round_limit"
    }
}

/// Runs the MVC entry point for `cell` on the primary engine and the
/// gate-thread engine, checking that both are bit-identical.
fn mvc_cell(g: &Graph, cell: Cell) -> CellOutcome {
    let run = |t| g2_mvc_congest_cfg(g, 0.5, LocalSolver::FiveThirds, &cell.cfg(t));
    let (primary, wall_ms) = time_ms(|| run(1));
    let mut d = Digest::new();
    let replay_identical = match (&primary, &run(cell.threads)) {
        (Ok(a), Ok(b)) => {
            a.cover == b.cover
                && a.phase1_metrics == b.phase1_metrics
                && a.phase2_metrics == b.phase2_metrics
        }
        (Err(a), Err(b)) => a == b,
        _ => false,
    };
    match primary {
        Ok(r) => {
            d.eat_str(&format!(
                "{:?}{:?}{:?}",
                r.cover, r.phase1_metrics, r.phase2_metrics
            ));
            let m = fold_metrics(&r.phase1_metrics, &r.phase2_metrics);
            CellOutcome {
                converged: true,
                stall: None,
                valid: is_vertex_cover_on_square(g, &r.cover),
                rounds: m.rounds,
                convergence_round: m.convergence_round,
                output_size: r.cover.iter().filter(|&&b| b).count(),
                metrics: m,
                replay_identical,
                wall_ms,
                digest: d.0,
            }
        }
        Err(e) => {
            d.eat_str(&format!("{e:?}"));
            CellOutcome {
                replay_identical,
                stall: Some(stall_cause(|| {
                    let _ = run(1);
                })),
                ..CellOutcome::diverged(wall_ms, d.0)
            }
        }
    }
}

/// The MDS entry point, same engine-identity protocol.
fn mds_cell(g: &Graph, cell: Cell) -> CellOutcome {
    let seed = cell.spec.seed;
    let run = |t| g2_mds_congest_cfg(g, 2, seed, &cell.cfg(t));
    let (primary, wall_ms) = time_ms(|| run(1));
    let mut d = Digest::new();
    let replay_identical = match (&primary, &run(cell.threads)) {
        (Ok(a), Ok(b)) => a.dominating_set == b.dominating_set && a.metrics == b.metrics,
        (Err(a), Err(b)) => a == b,
        _ => false,
    };
    match primary {
        Ok(r) => {
            d.eat_str(&format!("{:?}{:?}", r.dominating_set, r.metrics));
            CellOutcome {
                converged: true,
                stall: None,
                valid: is_dominating_set_on_square(g, &r.dominating_set),
                rounds: r.metrics.rounds,
                convergence_round: r.metrics.convergence_round,
                output_size: r.size(),
                metrics: r.metrics,
                replay_identical,
                wall_ms,
                digest: d.0,
            }
        }
        Err(e) => {
            d.eat_str(&format!("{e:?}"));
            CellOutcome {
                replay_identical,
                stall: Some(stall_cause(|| {
                    let _ = run(1);
                })),
                ..CellOutcome::diverged(wall_ms, d.0)
            }
        }
    }
}

/// The native MPC ruling set. MPC metrics are word-based, so only the
/// fault counters and round structure flow into the record.
fn ruling_set_cell(g: &Graph, cell: Cell) -> CellOutcome {
    let words = recommended_ruling_set_memory_words(g);
    let run = |t| g2_ruling_set_mpc_cfg(g, words, &cell.cfg(t));
    let (primary, wall_ms) = time_ms(|| run(1));
    let mut d = Digest::new();
    let replay_identical = match (&primary, &run(cell.threads)) {
        (Ok(a), Ok(b)) => a.in_r == b.in_r && a.mpc == b.mpc,
        (Err(a), Err(b)) => a == b,
        _ => false,
    };
    match primary {
        Ok(r) => {
            d.eat_str(&format!("{:?}{:?}", r.in_r, r.mpc));
            let metrics = Metrics {
                rounds: r.mpc.rounds,
                messages: r.mpc.messages,
                bits: r.mpc.words * 64,
                fault: r.mpc.fault,
                convergence_round: r.mpc.convergence_round,
                ..Metrics::default()
            };
            CellOutcome {
                converged: true,
                stall: None,
                valid: is_dominating_set_on_square(g, &r.in_r),
                rounds: r.mpc.rounds,
                convergence_round: r.mpc.convergence_round,
                output_size: r.in_r.iter().filter(|&&b| b).count(),
                metrics,
                replay_identical,
                wall_ms,
                digest: d.0,
            }
        }
        Err(e) => {
            d.eat_str(&format!("{e:?}"));
            CellOutcome {
                replay_identical,
                stall: Some(stall_cause(|| {
                    let _ = run(1);
                })),
                ..CellOutcome::diverged(wall_ms, d.0)
            }
        }
    }
}

/// FloodMax through the record-and-replay pipeline: the primary run
/// records a [`pga_congest::FaultTrace`], the replica replays it on the
/// gate-thread engine, and `output_size` counts the nodes that still
/// learned the true global maximum. Raw pipeline only — the trace
/// recorder sits below the ARQ layer.
fn floodmax_trace_cell(g: &Graph, cell: Cell) -> CellOutcome {
    let n = g.num_nodes();
    let sim = Simulator::congest(g);
    let nodes = || -> Vec<FloodMax> {
        (0..n)
            .map(|i| FloodMax::new(NodeId::from_index(i)))
            .collect()
    };
    let record_cfg = RunConfig::new().sequential().max_rounds(cell.budget);
    let record = || {
        let recorder = SeededAdversary::recording(cell.spec);
        let report = sim.run_adversary(nodes(), &record_cfg, &recorder)?;
        Ok::<_, pga_congest::SimError>((report, recorder.into_trace(n)))
    };
    let ((traced, wall_ms), mut d) = (time_ms(record), Digest::new());
    match traced {
        Ok((report, trace)) => {
            d.eat_str(&format!("{:?}{:?}", report.outputs, report.metrics));
            let replay_cfg = RunConfig::new()
                .parallel(cell.threads)
                .max_rounds(cell.budget);
            let replay = TraceAdversary::new(&trace);
            let replay_identical = match sim.run_adversary(nodes(), &replay_cfg, &replay) {
                Ok(r) => r.outputs == report.outputs && r.metrics == report.metrics,
                Err(_) => false,
            };
            let global_max = NodeId::from_index(n - 1);
            CellOutcome {
                converged: true,
                stall: None,
                valid: report.outputs.iter().all(|&b| b == global_max),
                rounds: report.metrics.rounds,
                convergence_round: report.metrics.convergence_round,
                output_size: report.outputs.iter().filter(|&&b| b == global_max).count(),
                metrics: report.metrics,
                replay_identical,
                wall_ms,
                digest: d.0,
            }
        }
        Err(e) => {
            d.eat_str(&format!("{e:?}"));
            // A starved recording must at least fail identically again.
            let replay_identical = matches!(record(), Err(ref e2) if *e2 == e);
            CellOutcome {
                replay_identical,
                ..CellOutcome::diverged(wall_ms, d.0)
            }
        }
    }
}

type CellFn = fn(&Graph, Cell) -> CellOutcome;

/// The fault grid: the drop sweep (crash-free), the delay sweep, then
/// the crash sweep (drop-free), all deriving from the bench seed.
fn fault_grid(seed: u64) -> Vec<FaultSpec> {
    let mut grid: Vec<FaultSpec> = DROP_SWEEP
        .iter()
        .map(|&p| FaultSpec::seeded(seed).drop(p))
        .collect();
    grid.extend(
        DELAY_SWEEP
            .iter()
            .map(|&p| FaultSpec::seeded(seed).delay(p, MAX_DELAY)),
    );
    grid.extend(
        CRASH_SWEEP
            .iter()
            .map(|&p| FaultSpec::seeded(seed).crash(p, CRASH_WITHIN)),
    );
    grid
}

/// A drop-only cell: the recovery gate's domain (dead links and phase
/// timeouts have clean semantics there; crash cells legitimately lose
/// actors and delay cells never stall).
fn drop_only(r: &FaultRecord) -> bool {
    r.drop_ppm > 0 && r.dup_ppm == 0 && r.delay_ppm == 0 && r.crash_ppm == 0
}

/// The `--assert-recovery` gate: every MVC/ruling-set drop cell that
/// stalled on the raw pipeline must have converged to a valid,
/// replay-identical output on both ARQ pipelines. Returns the failure
/// descriptions.
fn recovery_failures(records: &[FaultRecord]) -> Vec<String> {
    let mut failures = Vec::new();
    let gated =
        |r: &&FaultRecord| r.workload.starts_with("mvc") || r.workload.starts_with("ruling_set");
    for raw in records
        .iter()
        .filter(|r| r.pipeline == "raw" && !r.converged)
        .filter(|r| drop_only(r))
        .filter(gated)
    {
        for pipeline in ["arq", "arq_timeout"] {
            let Some(rec) = records.iter().find(|r| {
                r.pipeline == pipeline && r.workload == raw.workload && r.drop_ppm == raw.drop_ppm
            }) else {
                failures.push(format!(
                    "{}/{}ppm: no {pipeline} cell recorded",
                    raw.workload, raw.drop_ppm
                ));
                continue;
            };
            if !(rec.converged && rec.valid && rec.replay_identical) {
                failures.push(format!(
                    "{}/{}ppm/{pipeline}: converged={} valid={} replay_identical={} \
                     (stall={:?}, dead_links={}, degraded={})",
                    rec.workload,
                    rec.drop_ppm,
                    rec.converged,
                    rec.valid,
                    rec.replay_identical,
                    rec.stall,
                    rec.dead_links,
                    rec.degraded
                ));
            }
        }
    }
    failures
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let n = env_usize("BENCH_FAULT_N", 96);
    let seed = env_u64("BENCH_FAULT_SEED", 45803);
    let threads = env_usize("BENCH_FAULT_THREADS", 4);
    let max_rounds = env_usize("BENCH_FAULT_MAX_ROUNDS", 600);

    let mut rng = StdRng::seed_from_u64(seed);
    let gnm = generators::connected_gnm(n, 3 * n, &mut rng);
    let ba = generators::barabasi_albert(n, 3.min(n - 1).max(1), seed);

    if args.iter().any(|a| a == "--matrix-only") {
        let mseed: u64 = flag_or(&args, "--seed", 1);
        let mthreads: usize = flag_or(&args, "--threads", 1);
        let spec = FaultSpec::seeded(mseed)
            .drop(0.05)
            .crash(0.02, CRASH_WITHIN);
        let mut d = Digest::new();
        // Both the raw adversarial executor and the reliable (ARQ +
        // phase timeout) one must be schedule-independent: the matrix
        // digests cover the two.
        for pipeline in [Pipeline::Raw, Pipeline::ArqTimeout] {
            for (name, cell_fn) in [
                ("mvc_gnm", mvc_cell as CellFn),
                ("mds_gnm", mds_cell as CellFn),
                ("ruling_set_gnm", ruling_set_cell as CellFn),
            ] {
                let out = cell_fn(&gnm, Cell::new(spec, pipeline, mthreads, max_rounds));
                d.eat_str(name);
                d.eat_str(pipeline.name());
                d.eat(&out.digest.to_le_bytes());
                eprintln!(
                    "matrix {name}/{}: seed={mseed} threads={mthreads} digest={:016x}",
                    pipeline.name(),
                    out.digest
                );
            }
        }
        // The single stdout token CI's seed × thread matrix compares.
        println!("{:016x}", d.0);
        return;
    }

    let workloads: [(&str, &Graph, &str, CellFn, &[Pipeline]); 5] = [
        ("mvc_gnm", &gnm, "connected_gnm", mvc_cell, &Pipeline::ALL),
        ("mvc_ba", &ba, "barabasi_albert", mvc_cell, &Pipeline::ALL),
        ("mds_gnm", &gnm, "connected_gnm", mds_cell, &Pipeline::ALL),
        (
            "ruling_set_gnm",
            &gnm,
            "connected_gnm",
            ruling_set_cell,
            &Pipeline::ALL,
        ),
        (
            "floodmax_trace_gnm",
            &gnm,
            "connected_gnm",
            floodmax_trace_cell,
            &[Pipeline::Raw],
        ),
    ];

    let mut records = Vec::new();
    let mut replay_failures = 0usize;
    for (name, g, graph, cell_fn, pipelines) in workloads {
        for &pipeline in pipelines {
            let mut clean_size = 0usize;
            for spec in fault_grid(seed) {
                let out = cell_fn(g, Cell::new(spec, pipeline, threads, max_rounds));
                if spec.is_none() {
                    clean_size = out.output_size;
                    assert!(
                        out.valid && out.converged,
                        "{name}/{}: fault-free run must converge to a valid output",
                        pipeline.name()
                    );
                }
                if !out.replay_identical {
                    replay_failures += 1;
                }
                println!(
                    "{name}/{}: drop {}ppm delay {}ppm crash {}ppm -> size {} (clean {}), \
                     rounds {}, dropped {}, crashed {}, retransmitted {}, dead_links {}, \
                     degraded {}, valid {}, stall {:?}, replay_identical {}",
                    pipeline.name(),
                    spec.drop_ppm,
                    spec.delay_ppm,
                    spec.crash_ppm,
                    out.output_size,
                    clean_size,
                    out.rounds,
                    out.metrics.fault.dropped,
                    out.metrics.fault.crashed,
                    out.metrics.fault.retransmitted,
                    out.metrics.fault.dead_links,
                    out.metrics.fault.degraded,
                    out.valid,
                    out.stall,
                    out.replay_identical
                );
                records.push(FaultRecord {
                    workload: name.to_string(),
                    pipeline: pipeline.name().to_string(),
                    graph: graph.to_string(),
                    n: g.num_nodes(),
                    m: g.num_edges(),
                    seed: spec.seed,
                    drop_ppm: spec.drop_ppm,
                    dup_ppm: spec.dup_ppm,
                    delay_ppm: spec.delay_ppm,
                    crash_ppm: spec.crash_ppm,
                    converged: out.converged,
                    stall: out.stall.map(str::to_string),
                    valid: out.valid,
                    rounds: out.rounds,
                    convergence_round: out.convergence_round,
                    output_size: out.output_size,
                    clean_size,
                    degradation: if clean_size > 0 && out.converged {
                        out.output_size as f64 / clean_size as f64
                    } else {
                        0.0
                    },
                    delivered: out.metrics.fault.delivered,
                    dropped: out.metrics.fault.dropped,
                    duplicated: out.metrics.fault.duplicated,
                    delayed: out.metrics.fault.delayed,
                    crashed: out.metrics.fault.crashed,
                    retransmitted: out.metrics.fault.retransmitted,
                    acks: out.metrics.fault.acks,
                    dead_links: out.metrics.fault.dead_links,
                    degraded: out.metrics.fault.degraded,
                    replay_identical: out.replay_identical,
                    wall_ms: out.wall_ms,
                });
            }
        }
    }

    let bench = FaultBench {
        bench: "fault_plane".into(),
        seed,
        workloads: records,
    };
    let out_path = std::env::var("BENCH_FAULT_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("BENCH_fault.json"));
    write_json(&out_path, &bench.to_json()).expect("write artifact");
    println!("wrote {}", out_path.display());

    let recovery = recovery_failures(&bench.workloads);
    if recovery.is_empty() {
        println!("recovery held: every stalled raw drop cell converged under both ARQ pipelines");
    } else {
        eprintln!("recovery FAILED in {} cell(s):", recovery.len());
        for f in &recovery {
            eprintln!("  {f}");
        }
        if args.iter().any(|a| a == "--assert-recovery") {
            std::process::exit(5);
        }
    }

    if replay_failures > 0 {
        eprintln!("replay identity FAILED in {replay_failures} cell(s)");
        if args.iter().any(|a| a == "--assert-replay") {
            std::process::exit(4);
        }
    } else {
        println!(
            "replay identity held in all {} cells",
            bench.workloads.len()
        );
    }
}
