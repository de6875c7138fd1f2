//! Wall-clock timing and machine-readable benchmark artifacts.
//!
//! The `bench_sim`, `bench_mpc` and `bench_fault` binaries (and CI's
//! `bench-smoke` and `fault-smoke` jobs) use this module to time the
//! simulation engines and emit `BENCH_sim.json`, `BENCH_mpc.json` and
//! `BENCH_fault.json`. Each document type builds a
//! [`Json`] tree, and [`write_json`] writes it in the snapshot layout
//! of `pga_runtime::json`; `bench_regress` reads the snapshots back
//! with the same module. The schemas are documented on [`SimBench`],
//! [`MpcBench`] and [`FaultBench`] and in the README.

use std::env::VarError;
use std::io;
use std::path::Path;
use std::str::FromStr;
use std::time::Instant;

use pga_runtime::json::{self, Json};

/// Runs `f` once and returns its result together with the elapsed wall
/// time in milliseconds.
pub fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// Runs `f` `reps` times (at least once) and returns the last result
/// together with the median wall time in milliseconds, so one slow run
/// (a cold start, a noisy neighbour) does not set the figure.
pub fn median_ms<T>(reps: usize, f: impl Fn() -> T) -> (T, f64) {
    let mut walls = Vec::with_capacity(reps.max(1));
    let mut out = None;
    for _ in 0..reps.max(1) {
        let (r, ms) = time_ms(&f);
        walls.push(ms);
        out = Some(r);
    }
    walls.sort_by(f64::total_cmp);
    (out.expect("at least one rep"), walls[walls.len() / 2])
}

/// The exit code of a bad command line or override (`EX_USAGE`).
const EXIT_USAGE: i32 = 64;

/// Prints `msg` and exits with code 64 (`EX_USAGE`).
pub fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(EXIT_USAGE)
}

/// Parses `raw`, the value given for `name`; the error names both.
fn parse_named<T: FromStr>(name: &str, raw: &str) -> Result<T, String> {
    raw.parse()
        .map_err(|_| format!("invalid value {raw:?} for {name}"))
}

/// The value after `flag` in `args`: `Ok(None)` when the flag is absent,
/// and an error naming the flag when its value is missing or does not
/// parse.
fn try_flag<T: FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    let raw = args
        .get(i + 1)
        .ok_or_else(|| format!("{flag} needs a value"))?;
    parse_named(flag, raw).map(Some)
}

/// The value after `flag` in `args`, or `default` when the flag is
/// absent; a missing or unparsable value exits with code 64, naming the
/// flag.
pub fn flag_or<T: FromStr>(args: &[String], flag: &str, default: T) -> T {
    match try_flag(args, flag) {
        Ok(v) => v.unwrap_or(default),
        Err(e) => usage_error(&e),
    }
}

/// The first argument that looks like a flag (`--…`) but is not in
/// `known`, if any.
pub fn unknown_flag<'a>(args: &'a [String], known: &[&str]) -> Option<&'a str> {
    (args.iter())
        .map(String::as_str)
        .find(|a| a.starts_with("--") && !known.contains(a))
}

/// Parses the environment value `value` of `key`: `Ok(None)` when the
/// variable is unset, and an error naming it when it is set but does
/// not parse.
fn try_env<T: FromStr>(key: &str, value: Result<String, VarError>) -> Result<Option<T>, String> {
    match value {
        Err(VarError::NotPresent) => Ok(None),
        Err(VarError::NotUnicode(raw)) => Err(format!("invalid value {raw:?} for {key}")),
        Ok(raw) => parse_named(key, &raw).map(Some),
    }
}

/// The parsed value of the environment variable `key`, or `default`
/// when it is unset; a set but unparsable value exits with code 64,
/// naming the variable.
fn env_or<T: FromStr>(key: &str, default: T) -> T {
    match try_env(key, std::env::var(key)) {
        Ok(v) => v.unwrap_or(default),
        Err(e) => usage_error(&e),
    }
}

/// Reads a `usize` from the environment, falling back to `default` when
/// the variable is unset; a set but unparsable value exits with code
/// 64. The bench binaries' override knobs (`BENCH_SIM_*`,
/// `BENCH_MPC_*`, `BENCH_FAULT_*`) all go through this.
pub fn env_usize(key: &str, default: usize) -> usize {
    env_or(key, default)
}

/// [`env_usize`] for `u64` values (seeds).
pub fn env_u64(key: &str, default: u64) -> u64 {
    env_or(key, default)
}

/// One engine's wall time on one workload.
#[derive(Clone, Debug)]
pub struct EngineTiming {
    /// Engine name: `"sequential"` or `"parallel"` (prefixed `mpc_` in
    /// the MPC document), optionally suffixed with the scheduling
    /// policy for scheduling-comparison workloads
    /// (e.g. `"sequential_active_set"`).
    pub engine: String,
    /// Worker threads used (1 for the sequential engine).
    pub threads: usize,
    /// Best-of-reps wall time in milliseconds.
    pub wall_ms: f64,
}

/// Load statistics of one contiguous shard under the engine's
/// cost-balanced partition (actor cost: CSR degree + 1 for CONGEST
/// vertices, resident words for MPC machines).
#[derive(Clone, Debug)]
pub struct ShardLoad {
    /// First actor id of the shard.
    pub start: usize,
    /// One past the last actor id of the shard.
    pub end: usize,
    /// Total actor cost of the shard.
    pub total_cost: u64,
    /// Smallest single actor cost in the shard.
    pub min_cost: u64,
    /// Largest single actor cost in the shard.
    pub max_cost: u64,
    /// Mean actor cost of the shard.
    pub mean_cost: f64,
}

impl ShardLoad {
    /// Computes the per-shard load statistics of `costs` under the
    /// boundary offsets `bounds` (as returned by
    /// `pga_runtime::balanced_partition`).
    pub fn from_partition(costs: &[u64], bounds: &[usize]) -> Vec<ShardLoad> {
        bounds
            .windows(2)
            .map(|w| {
                let shard = &costs[w[0]..w[1]];
                let total: u64 = shard.iter().sum();
                ShardLoad {
                    start: w[0],
                    end: w[1],
                    total_cost: total,
                    min_cost: shard.iter().copied().min().unwrap_or(0),
                    max_cost: shard.iter().copied().max().unwrap_or(0),
                    mean_cost: if shard.is_empty() {
                        0.0
                    } else {
                        total as f64 / shard.len() as f64
                    },
                }
            })
            .collect()
    }
}

/// One workload's results across engines.
#[derive(Clone, Debug)]
pub struct WorkloadRecord {
    /// Workload name (e.g. `"floodmax"`).
    pub name: String,
    /// Generator family of the instance this workload ran on
    /// (e.g. `"connected_gnm"`, `"barabasi_albert"`).
    pub graph: String,
    /// Vertices of the instance.
    pub n: usize,
    /// Undirected edges of the instance.
    pub m: usize,
    /// Simulated rounds (identical across engines by construction).
    pub rounds: usize,
    /// Total messages delivered.
    pub messages: u64,
    /// Total message bits delivered.
    pub bits: u64,
    /// Peak per-edge bits in any single round (congestion profile max).
    pub peak_edge_bits: usize,
    /// 95th percentile of the per-round congestion profile
    /// (`Metrics::congestion_percentile(0.95)`) — the typical busy-round
    /// load, robust to a single bursty round.
    pub congestion_p95: usize,
    /// Per-engine wall times: the sequential reference plus one entry
    /// per swept parallel thread count (scheduling-policy pairs for the
    /// quiescent-tail workload).
    pub engines: Vec<EngineTiming>,
    /// Per-shard load statistics under the gate thread count's
    /// cost-balanced partition (empty for workloads that bypass the
    /// parallel engine).
    pub shard_load: Vec<ShardLoad>,
    /// Sequential wall time divided by the gate thread count's parallel
    /// wall time (for the scheduling-comparison tail workload:
    /// full-sweep wall time divided by active-set wall time).
    pub speedup: f64,
    /// Whether every engine produced bit-identical outputs and metrics.
    pub identical: bool,
}

/// The `BENCH_sim.json` document: one pinned instance, several workloads,
/// sequential-vs-parallel wall times and the bit-identity verdict.
///
/// Serialized shape:
///
/// ```json
/// {
///   "bench": "sim_round_engine",
///   "seed": 45803,
///   "n": 60000,
///   "m": 240000,
///   "workloads": [
///     {
///       "name": "floodmax",
///       "graph": "connected_gnm",
///       "n": 60000,
///       "m": 240000,
///       "rounds": 11,
///       "messages": 2905060,
///       "bits": 46481000,
///       "peak_edge_bits": 16,
///       "congestion_p95": 16,
///       "engines": [
///         {"engine": "sequential", "threads": 1, "wall_ms": 812.4},
///         {"engine": "parallel", "threads": 2, "wall_ms": 437.0},
///         {"engine": "parallel", "threads": 4, "wall_ms": 287.1},
///         {"engine": "parallel", "threads": 8, "wall_ms": 229.8}
///       ],
///       "shard_load": [
///         {"start": 0, "end": 14923, "total_cost": 135071,
///          "min_cost": 2, "max_cost": 31, "mean_cost": 9.051}
///       ],
///       "speedup": 2.83,
///       "identical": true
///     }
///   ]
/// }
/// ```
///
/// The top-level `n`/`m`/`seed` describe the primary pinned instance;
/// each workload additionally records the instance it actually ran on
/// (`bench_sim` pins a second Barabási–Albert instance and a
/// quiescent-tail "lollipop" instance). The `engines` array sweeps the
/// parallel engine over thread counts {2, 4, 8} next to the sequential
/// reference, so the document captures a scaling trajectory rather
/// than a single parallel point; `speedup` compares the sequential
/// entry against the gate thread count (4 by default). `shard_load`
/// records the cost-balanced partition the gate thread count uses
/// (per shard: actor range, total/min/max/mean actor cost). For the
/// tail workload the `engines` entries compare scheduling policies as
/// well as executors (`sequential_full_sweep`, `sequential_active_set`,
/// `parallel_full_sweep`, `parallel_active_set`) and `speedup` is the
/// sequential full-sweep wall time divided by the sequential active-set
/// wall time.
#[derive(Clone, Debug)]
pub struct SimBench {
    /// Benchmark family identifier (`"sim_round_engine"`).
    pub bench: String,
    /// RNG seed that pins the instance.
    pub seed: u64,
    /// Number of vertices.
    pub n: usize,
    /// Number of undirected edges.
    pub m: usize,
    /// Per-workload results.
    pub workloads: Vec<WorkloadRecord>,
}

/// Writes a snapshot document to `path` in the pretty layout.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_json(path: &Path, doc: &Json) -> io::Result<()> {
    std::fs::write(path, doc.to_pretty())
}

fn engines_json(engines: &[EngineTiming]) -> Json {
    let engines = engines.iter().map(|e| {
        Json::obj([
            ("engine", e.engine.as_str().into()),
            ("threads", e.threads.into()),
            ("wall_ms", e.wall_ms.into()),
        ])
    });
    engines.collect()
}

impl WorkloadRecord {
    fn to_json(&self) -> Json {
        let shard_load = self.shard_load.iter().map(|l| {
            Json::obj([
                ("start", l.start.into()),
                ("end", l.end.into()),
                ("total_cost", l.total_cost.into()),
                ("min_cost", l.min_cost.into()),
                ("max_cost", l.max_cost.into()),
                ("mean_cost", l.mean_cost.into()),
            ])
        });
        Json::obj([
            ("name", self.name.as_str().into()),
            ("graph", self.graph.as_str().into()),
            ("n", self.n.into()),
            ("m", self.m.into()),
            ("rounds", self.rounds.into()),
            ("messages", self.messages.into()),
            ("bits", self.bits.into()),
            ("peak_edge_bits", self.peak_edge_bits.into()),
            ("congestion_p95", self.congestion_p95.into()),
            ("engines", engines_json(&self.engines)),
            ("shard_load", shard_load.collect()),
            ("speedup", self.speedup.into()),
            ("identical", self.identical.into()),
        ])
    }
}

impl SimBench {
    /// The document as a JSON tree (write it with [`write_json`]).
    pub fn to_json(&self) -> Json {
        let workloads = self.workloads.iter().map(WorkloadRecord::to_json);
        Json::obj([
            ("bench", self.bench.as_str().into()),
            ("seed", self.seed.into()),
            ("n", self.n.into()),
            ("m", self.m.into()),
            ("workloads", workloads.collect()),
        ])
    }
}

/// One MPC workload's record in `BENCH_mpc.json`.
///
/// For adapter workloads the reference is the sequential CONGEST engine
/// and `congest_rounds` is the simulated round count; for native MPC
/// workloads (the ruling set) the reference is the sequential oracle
/// and `congest_rounds` is 0.
#[derive(Clone, Debug)]
pub struct MpcWorkloadRecord {
    /// Workload name (e.g. `"floodmax_adapter"`, `"ruling_set"`).
    pub name: String,
    /// Generator family of the instance.
    pub graph: String,
    /// Vertices of the instance.
    pub n: usize,
    /// Undirected edges of the instance.
    pub m: usize,
    /// Seed pinning the instance.
    pub seed: u64,
    /// Per-machine memory budget `S` in words.
    pub memory_words: usize,
    /// Machines the vertex set was partitioned onto.
    pub machines: usize,
    /// CONGEST rounds of the simulated algorithm (0 for native MPC
    /// workloads).
    pub congest_rounds: usize,
    /// MPC rounds executed.
    pub mpc_rounds: usize,
    /// MPC messages exchanged between machines.
    pub mpc_messages: u64,
    /// MPC communication volume in words.
    pub mpc_words: u64,
    /// Peak per-machine memory observed, in words (≤ `memory_words`).
    pub peak_memory_words: usize,
    /// Peak per-machine, per-round I/O in words (≤ `memory_words`).
    pub peak_round_io_words: usize,
    /// Wall time of the reference execution in milliseconds.
    pub wall_ms_reference: f64,
    /// Wall time of the MPC execution on the sequential engine in
    /// milliseconds (same value as the `mpc_sequential` entry of
    /// [`MpcWorkloadRecord::engines`], kept for schema continuity).
    pub wall_ms_mpc: f64,
    /// Per-engine wall times of the MPC execution: `mpc_sequential`
    /// plus one `mpc_parallel` entry per swept thread count.
    pub engines: Vec<EngineTiming>,
    /// Whether the MPC execution reproduced the reference bit for bit
    /// on every engine.
    pub identical: bool,
}

/// The `BENCH_mpc.json` document: pinned instances run through the MPC
/// engine (CONGEST adapter + native workloads) with resource accounting
/// and the bit-identity verdict.
///
/// Serialized shape:
///
/// ```json
/// {
///   "bench": "mpc_model",
///   "workloads": [
///     {
///       "name": "floodmax_adapter",
///       "graph": "connected_gnm",
///       "n": 20000, "m": 60000, "seed": 45803,
///       "memory_words": 4096, "machines": 163,
///       "congest_rounds": 12, "mpc_rounds": 12,
///       "mpc_messages": 24310, "mpc_words": 882120,
///       "peak_memory_words": 2048, "peak_round_io_words": 1930,
///       "wall_ms_reference": 101.2, "wall_ms_mpc": 220.9,
///       "identical": true
///     }
///   ]
/// }
/// ```
#[derive(Clone, Debug)]
pub struct MpcBench {
    /// Benchmark family identifier (`"mpc_model"`).
    pub bench: String,
    /// Per-workload results.
    pub workloads: Vec<MpcWorkloadRecord>,
}

impl MpcBench {
    /// The document as a JSON tree (write it with [`write_json`]).
    pub fn to_json(&self) -> Json {
        let workloads = self.workloads.iter().map(|w| {
            Json::obj([
                ("name", w.name.as_str().into()),
                ("graph", w.graph.as_str().into()),
                ("n", w.n.into()),
                ("m", w.m.into()),
                ("seed", w.seed.into()),
                ("memory_words", w.memory_words.into()),
                ("machines", w.machines.into()),
                ("congest_rounds", w.congest_rounds.into()),
                ("mpc_rounds", w.mpc_rounds.into()),
                ("mpc_messages", w.mpc_messages.into()),
                ("mpc_words", w.mpc_words.into()),
                ("peak_memory_words", w.peak_memory_words.into()),
                ("peak_round_io_words", w.peak_round_io_words.into()),
                ("wall_ms_reference", w.wall_ms_reference.into()),
                ("wall_ms_mpc", w.wall_ms_mpc.into()),
                ("engines", engines_json(&w.engines)),
                ("identical", w.identical.into()),
            ])
        });
        Json::obj([
            ("bench", self.bench.as_str().into()),
            ("workloads", workloads.collect()),
        ])
    }
}

/// The `workloads` array of a parsed bench document, or why the
/// document has none.
fn workloads(doc: &Json) -> Result<&[Json], String> {
    doc.get("workloads")
        .and_then(Json::as_arr)
        .filter(|w| !w.is_empty())
        .ok_or_else(|| "no workloads[] entries".to_string())
}

/// Reads every `workloads[].engines[]` timing of a `BENCH_sim.json` /
/// `BENCH_mpc.json` document as `(workload, engine, threads, wall_ms)`.
/// The `bench_regress` binary diffs fresh runs against the committed
/// snapshots with it.
///
/// # Errors
///
/// Fails when the text does not parse, when a workload or engine entry
/// lacks one of those fields, or when there is no engine entry at all —
/// a gate that compared nothing must not pass.
pub fn parse_engine_walls(text: &str) -> Result<Vec<(String, String, usize, f64)>, String> {
    let doc = json::parse(text)?;
    let mut out = Vec::new();
    for w in workloads(&doc)? {
        let name = w
            .get("name")
            .and_then(Json::as_str)
            .ok_or("workload without a name")?;
        let engines = w.get("engines").and_then(Json::as_arr);
        for e in engines.ok_or_else(|| format!("workload {name:?} has no engines[]"))? {
            let entry = (
                e.get("engine").and_then(Json::as_str),
                e.get("threads").and_then(Json::as_u64),
                e.get("wall_ms").and_then(Json::as_f64),
            );
            let (Some(engine), Some(threads), Some(wall_ms)) = entry else {
                return Err(format!("malformed engines[] entry in workload {name:?}"));
            };
            out.push((
                name.to_string(),
                engine.to_string(),
                threads as usize,
                wall_ms,
            ));
        }
    }
    if out.is_empty() {
        return Err("no workloads[].engines[] entries".into());
    }
    Ok(out)
}

/// One cell of the fault-injection degradation sweep in
/// `BENCH_fault.json`: a single `(workload, FaultSpec)` pair.
///
/// All fault rates are recorded in parts-per-million, exactly as the
/// `FaultSpec` carries them, so the record is `Eq`-comparable without
/// float noise. `wall_ms` is the only non-deterministic field — the
/// regression gate strips it (see [`fault_fingerprint`]).
#[derive(Clone, Debug)]
pub struct FaultRecord {
    /// Workload name (e.g. `"mvc_gnm"`, `"ruling_set_gnm"`).
    pub workload: String,
    /// Delivery pipeline the cell ran under: `"raw"` (faulted channels,
    /// no recovery), `"arq"` (sliding-window ack/retransmit), or
    /// `"arq_timeout"` (ARQ plus phase-level deadlines with
    /// partial-aggregate fallback).
    pub pipeline: String,
    /// Generator family of the instance.
    pub graph: String,
    /// Vertices of the instance.
    pub n: usize,
    /// Undirected edges of the instance.
    pub m: usize,
    /// Fault seed of this cell's `FaultSpec`.
    pub seed: u64,
    /// Per-message drop probability in ppm.
    pub drop_ppm: u32,
    /// Per-message duplication probability in ppm.
    pub dup_ppm: u32,
    /// Per-message delay probability in ppm.
    pub delay_ppm: u32,
    /// Per-actor crash probability in ppm.
    pub crash_ppm: u32,
    /// Whether the run terminated within the round budget (a `false`
    /// here is the adversary starving the algorithm, not a harness
    /// failure).
    pub converged: bool,
    /// Why a non-converged cell stalled: `Some("round_limit")` when the
    /// round/tick budget ran out with every link still alive,
    /// `Some("dead_link")` when the ARQ retry budget (or a crash sever)
    /// killed a link and the algorithm waited forever for its traffic.
    /// `None` on converged cells.
    pub stall: Option<String>,
    /// Whether the converged output still satisfies the workload's
    /// correctness predicate (vertex cover of `G²`, dominating set of
    /// `G²`, …). Always `true` at zero fault rates; under faults this
    /// is the headline degradation signal.
    pub valid: bool,
    /// Rounds executed (0 when the run did not converge).
    pub rounds: usize,
    /// The kernel's convergence detector: first round from which the
    /// message plane stayed quiet.
    pub convergence_round: usize,
    /// Output size (cover / dominating-set / ruling-set cardinality).
    pub output_size: usize,
    /// Output size of the fault-free run on the same instance.
    pub clean_size: usize,
    /// `output_size / clean_size` (0 when the run did not converge) —
    /// the approximation-degradation ratio the sweep plots.
    pub degradation: f64,
    /// Messages delivered (fault plane accounting).
    pub delivered: u64,
    /// Messages dropped by the adversary.
    pub dropped: u64,
    /// Extra copies injected by the adversary.
    pub duplicated: u64,
    /// Messages delayed by the adversary.
    pub delayed: u64,
    /// Actors crashed during the run.
    pub crashed: u64,
    /// Data frames retransmitted by the reliable executor (0 on the raw
    /// pipeline) — the congestion price of reliability.
    pub retransmitted: u64,
    /// Cumulative ack frames the reliable executor transmitted.
    pub acks: u64,
    /// Links declared dead (ARQ retry exhaustion or crash sever).
    pub dead_links: u64,
    /// Phases that hit their deadline and fell back to a partial
    /// aggregate (`arq_timeout` pipeline only).
    pub degraded: u64,
    /// Whether re-executing the same `(seed, FaultSpec)` on a different
    /// engine (or replaying the recorded trace) reproduced the run bit
    /// for bit — the replay-determinism gate.
    pub replay_identical: bool,
    /// Wall time of the primary run in milliseconds (informational;
    /// excluded from the determinism fingerprint).
    pub wall_ms: f64,
}

/// The `BENCH_fault.json` document: pinned instances swept over a grid
/// of drop rates and crash fractions, each cell executed under all
/// three delivery pipelines (`raw`, `arq`, `arq_timeout`), recording
/// convergence, validity, approximation degradation, fault- and
/// reliability-plane accounting, and the replay-identity verdict per
/// cell.
///
/// Serialized shape:
///
/// ```json
/// {
///   "bench": "fault_plane",
///   "seed": 45803,
///   "workloads": [
///     {
///       "workload": "mvc_gnm",
///       "pipeline": "arq",
///       "graph": "connected_gnm",
///       "n": 96, "m": 288, "seed": 45803,
///       "drop_ppm": 50000, "dup_ppm": 0, "delay_ppm": 0, "crash_ppm": 0,
///       "converged": true, "stall": null, "valid": true,
///       "rounds": 41, "convergence_round": 39,
///       "output_size": 64, "clean_size": 61, "degradation": 1.049,
///       "delivered": 5120, "dropped": 270, "duplicated": 0,
///       "delayed": 0, "crashed": 0,
///       "retransmitted": 264, "acks": 4890, "dead_links": 0,
///       "degraded": 0,
///       "replay_identical": true,
///       "wall_ms": 3.1
///     }
///   ]
/// }
/// ```
///
/// `stall` is `null` on converged cells, `"round_limit"` when the
/// round/tick budget starved the run with all links alive, and
/// `"dead_link"` when ARQ retry exhaustion (or a crash sever) killed a
/// link the algorithm was waiting on.
///
/// Everything except `wall_ms` is a pure function of
/// `(instance seed, FaultSpec)`, so CI diffs the committed snapshot
/// against a fresh run byte-for-byte after stripping the timing members
/// ([`fault_fingerprint`]); a mismatch means fault decisions stopped
/// being schedule-independent.
#[derive(Clone, Debug)]
pub struct FaultBench {
    /// Benchmark family identifier (`"fault_plane"`).
    pub bench: String,
    /// RNG seed pinning the instances (fault seeds derive from it).
    pub seed: u64,
    /// Per-cell results.
    pub workloads: Vec<FaultRecord>,
}

impl FaultBench {
    /// The document as a JSON tree (write it with [`write_json`]).
    pub fn to_json(&self) -> Json {
        let workloads = self.workloads.iter().map(|w| {
            Json::obj([
                ("workload", w.workload.as_str().into()),
                ("pipeline", w.pipeline.as_str().into()),
                ("graph", w.graph.as_str().into()),
                ("n", w.n.into()),
                ("m", w.m.into()),
                ("seed", w.seed.into()),
                ("drop_ppm", w.drop_ppm.into()),
                ("dup_ppm", w.dup_ppm.into()),
                ("delay_ppm", w.delay_ppm.into()),
                ("crash_ppm", w.crash_ppm.into()),
                ("converged", w.converged.into()),
                ("stall", w.stall.as_deref().map_or(Json::Null, Json::from)),
                ("valid", w.valid.into()),
                ("rounds", w.rounds.into()),
                ("convergence_round", w.convergence_round.into()),
                ("output_size", w.output_size.into()),
                ("clean_size", w.clean_size.into()),
                ("degradation", w.degradation.into()),
                ("delivered", w.delivered.into()),
                ("dropped", w.dropped.into()),
                ("duplicated", w.duplicated.into()),
                ("delayed", w.delayed.into()),
                ("crashed", w.crashed.into()),
                ("retransmitted", w.retransmitted.into()),
                ("acks", w.acks.into()),
                ("dead_links", w.dead_links.into()),
                ("degraded", w.degraded.into()),
                ("replay_identical", w.replay_identical.into()),
                ("wall_ms", w.wall_ms.into()),
            ])
        });
        Json::obj([
            ("bench", self.bench.as_str().into()),
            ("seed", self.seed.into()),
            ("workloads", workloads.collect()),
        ])
    }
}

/// The determinism fingerprint of a `BENCH_fault.json` document: the
/// document with every timing member removed — any member whose name
/// starts with `wall_` (`wall_ms` today; `wall_ns` and friends as the
/// telemetry plane grows the schema), at any depth — written back in
/// the snapshot layout. Everything that remains is a pure function of
/// `(instance seed, FaultSpec)`, so the `bench_regress --fault` gate
/// compares fingerprints byte for byte across machines and runs.
///
/// # Errors
///
/// Fails when the text does not parse or has no `workloads[]` entries.
pub fn fault_fingerprint(text: &str) -> Result<String, String> {
    fn strip_timing(v: &mut Json) {
        match v {
            Json::Obj(members) => {
                members.retain(|(k, _)| !k.starts_with("wall_"));
                members.iter_mut().for_each(|(_, v)| strip_timing(v));
            }
            Json::Arr(items) => items.iter_mut().for_each(strip_timing),
            _ => {}
        }
    }
    let mut doc = json::parse(text)?;
    workloads(&doc)?;
    strip_timing(&mut doc);
    Ok(doc.to_pretty())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SimBench {
        SimBench {
            bench: "sim_round_engine".into(),
            seed: 7,
            n: 100,
            m: 250,
            workloads: vec![WorkloadRecord {
                name: "floodmax".into(),
                graph: "connected_gnm".into(),
                n: 100,
                m: 250,
                rounds: 9,
                messages: 1234,
                bits: 9999,
                peak_edge_bits: 16,
                congestion_p95: 12,
                engines: vec![
                    EngineTiming {
                        engine: "sequential".into(),
                        threads: 1,
                        wall_ms: 10.5,
                    },
                    EngineTiming {
                        engine: "parallel".into(),
                        threads: 4,
                        wall_ms: 4.2,
                    },
                ],
                shard_load: vec![
                    ShardLoad {
                        start: 0,
                        end: 40,
                        total_cost: 260,
                        min_cost: 2,
                        max_cost: 31,
                        mean_cost: 6.5,
                    },
                    ShardLoad {
                        start: 40,
                        end: 100,
                        total_cost: 255,
                        min_cost: 1,
                        max_cost: 9,
                        mean_cost: 4.25,
                    },
                ],
                speedup: 2.5,
                identical: true,
            }],
        }
    }

    fn sample_mpc() -> MpcBench {
        MpcBench {
            bench: "mpc_model".into(),
            workloads: vec![MpcWorkloadRecord {
                name: "floodmax_adapter".into(),
                graph: "barabasi_albert".into(),
                n: 500,
                m: 1491,
                seed: 11,
                memory_words: 2048,
                machines: 9,
                congest_rounds: 7,
                mpc_rounds: 7,
                mpc_messages: 120,
                mpc_words: 4400,
                peak_memory_words: 1100,
                peak_round_io_words: 800,
                wall_ms_reference: 3.5,
                wall_ms_mpc: 6.25,
                engines: vec![
                    EngineTiming {
                        engine: "mpc_sequential".into(),
                        threads: 1,
                        wall_ms: 6.25,
                    },
                    EngineTiming {
                        engine: "mpc_parallel".into(),
                        threads: 4,
                        wall_ms: 3.75,
                    },
                ],
                identical: true,
            }],
        }
    }

    #[test]
    fn json_contains_schema_fields() {
        let j = sample().to_json().to_pretty();
        for needle in [
            "\"bench\": \"sim_round_engine\"",
            "\"n\": 100",
            "\"m\": 250",
            "\"graph\": \"connected_gnm\"",
            "\"rounds\": 9",
            "\"peak_edge_bits\": 16",
            "\"congestion_p95\": 12",
            "\"engine\": \"parallel\", \"threads\": 4",
            "\"start\": 40, \"end\": 100, \"total_cost\": 255",
            "\"min_cost\": 2, \"max_cost\": 31, \"mean_cost\": 6.500",
            "\"speedup\": 2.500",
            "\"identical\": true",
        ] {
            assert!(j.contains(needle), "missing {needle} in:\n{j}");
        }
    }

    #[test]
    fn parse_engine_walls_roundtrips() {
        let walls = parse_engine_walls(&sample().to_json().to_pretty()).unwrap();
        assert_eq!(
            walls,
            vec![
                ("floodmax".into(), "sequential".into(), 1, 10.5),
                ("floodmax".into(), "parallel".into(), 4, 4.2),
            ]
        );
        let walls = parse_engine_walls(&sample_mpc().to_json().to_pretty()).unwrap();
        assert_eq!(
            walls,
            vec![
                ("floodmax_adapter".into(), "mpc_sequential".into(), 1, 6.25),
                ("floodmax_adapter".into(), "mpc_parallel".into(), 4, 3.75),
            ]
        );
    }

    #[test]
    fn mpc_json_contains_schema_fields() {
        let j = sample_mpc().to_json().to_pretty();
        for needle in [
            "\"bench\": \"mpc_model\"",
            "\"name\": \"floodmax_adapter\"",
            "\"graph\": \"barabasi_albert\"",
            "\"memory_words\": 2048",
            "\"machines\": 9",
            "\"congest_rounds\": 7",
            "\"mpc_rounds\": 7",
            "\"mpc_words\": 4400",
            "\"peak_memory_words\": 1100",
            "\"peak_round_io_words\": 800",
            "\"wall_ms_reference\": 3.500",
            "\"wall_ms_mpc\": 6.250",
            "\"engine\": \"mpc_parallel\", \"threads\": 4",
            "\"identical\": true",
        ] {
            assert!(j.contains(needle), "missing {needle} in:\n{j}");
        }
    }

    #[test]
    fn documents_parse_back_to_their_trees() {
        for doc in [sample().to_json(), sample_mpc().to_json()] {
            assert_eq!(json::parse(&doc.to_pretty()).unwrap(), doc);
        }
    }

    #[test]
    fn unreadable_documents_fail_the_gate() {
        let no_engines = "{\"workloads\": [{\"name\": \"w\", \"engines\": []}]}";
        let bad_entry = "{\"workloads\": [{\"name\": \"w\", \"engines\": [{\"engine\": \"x\"}]}]}";
        for doc in [
            "garbage",
            "",
            "{}",
            "{\"workloads\": []}",
            no_engines,
            bad_entry,
        ] {
            assert!(parse_engine_walls(doc).is_err(), "accepted {doc:?}");
        }
        for doc in ["garbage", "{}", "{\"workloads\": []}", "[1, 2]"] {
            assert!(fault_fingerprint(doc).is_err(), "accepted {doc:?}");
        }
    }

    #[test]
    fn shard_load_from_partition() {
        let costs = [10u64, 1, 1, 4, 4];
        let loads = ShardLoad::from_partition(&costs, &[0, 1, 5]);
        assert_eq!(loads.len(), 2);
        assert_eq!(
            (loads[0].start, loads[0].end, loads[0].total_cost),
            (0, 1, 10)
        );
        assert_eq!(
            (loads[1].min_cost, loads[1].max_cost, loads[1].total_cost),
            (1, 4, 10)
        );
        assert!((loads[1].mean_cost - 2.5).abs() < 1e-9);
    }

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn flags_parse_or_name_the_bad_one() {
        let args = strings(&["a.json", "--min-ms", "50", "--max-regress", "x"]);
        assert_eq!(try_flag::<f64>(&args, "--min-ms"), Ok(Some(50.0)));
        assert_eq!(try_flag::<f64>(&args, "--absent"), Ok(None));
        let err = try_flag::<f64>(&args, "--max-regress").unwrap_err();
        assert!(
            err.contains("--max-regress") && err.contains("\"x\""),
            "{err}"
        );
        let err = try_flag::<usize>(&strings(&["--seed"]), "--seed").unwrap_err();
        assert_eq!(err, "--seed needs a value");
        assert_eq!(flag_or(&args, "--min-ms", 1.0), 50.0);
        assert_eq!(flag_or(&args, "--absent", 7usize), 7);
        let args = strings(&["a", "b", "--fault", "--retired"]);
        assert_eq!(unknown_flag(&args, &["--fault"]), Some("--retired"));
        assert_eq!(unknown_flag(&args, &["--fault", "--retired"]), None);
    }

    #[test]
    fn env_overrides_parse_or_name_the_variable() {
        let key = "BENCH_FAULT_N";
        assert_eq!(try_env::<usize>(key, Err(VarError::NotPresent)), Ok(None));
        assert_eq!(try_env::<usize>(key, Ok("48".into())), Ok(Some(48)));
        let err = try_env::<usize>(key, Ok("48k".into())).unwrap_err();
        assert!(err.contains(key) && err.contains("48k"), "{err}");
        assert!(try_env::<u64>(key, Ok(String::new())).is_err());
    }

    #[test]
    fn time_ms_measures() {
        let (v, ms) = time_ms(|| (0..10_000u64).sum::<u64>());
        assert_eq!(v, 49_995_000);
        assert!(ms >= 0.0);
    }

    fn fault_sample(wall_ms: f64) -> FaultBench {
        FaultBench {
            bench: "fault_plane".into(),
            seed: 45803,
            workloads: vec![FaultRecord {
                workload: "mvc_gnm".into(),
                pipeline: "arq".into(),
                graph: "connected_gnm".into(),
                n: 96,
                m: 288,
                seed: 45803,
                drop_ppm: 50_000,
                dup_ppm: 0,
                delay_ppm: 0,
                crash_ppm: 0,
                converged: true,
                stall: None,
                valid: true,
                rounds: 41,
                convergence_round: 39,
                output_size: 64,
                clean_size: 61,
                degradation: 64.0 / 61.0,
                delivered: 5120,
                dropped: 270,
                duplicated: 0,
                delayed: 0,
                crashed: 0,
                retransmitted: 264,
                acks: 4890,
                dead_links: 0,
                degraded: 0,
                replay_identical: true,
                wall_ms,
            }],
        }
    }

    #[test]
    fn fault_bench_serializes_and_fingerprints() {
        let doc = fault_sample(3.25).to_json().to_pretty();
        assert!(doc.contains("\"bench\": \"fault_plane\""));
        assert!(doc.contains("\"drop_ppm\": 50000"));
        assert!(doc.contains("\"pipeline\": \"arq\""));
        assert!(doc.contains("\"stall\": null"));
        assert!(doc.contains("\"retransmitted\": 264"));
        assert!(doc.contains("\"acks\": 4890"));
        assert!(doc.contains("\"replay_identical\": true"));
        assert!(doc.contains("\"wall_ms\": 3.250"));
        // A stalled cell names its cause as a JSON string.
        let mut stalled = fault_sample(1.0);
        stalled.workloads[0].converged = false;
        stalled.workloads[0].stall = Some("dead_link".into());
        assert!(stalled
            .to_json()
            .to_pretty()
            .contains("\"stall\": \"dead_link\""));
        // The fingerprint is timing-invariant and nothing else.
        let other = fault_sample(99.0).to_json().to_pretty();
        assert_ne!(doc, other);
        let fp = fault_fingerprint(&doc).unwrap();
        assert_eq!(fp, fault_fingerprint(&other).unwrap());
        assert!(!fp.contains("wall_ms"));
    }

    #[test]
    fn fault_fingerprint_strips_any_wall_field() {
        // The stripper keys on the `wall_` prefix, at any depth, so
        // future telemetry fields (per-round `wall_ns`,
        // `wall_ms_reference`, …) stay out of the determinism
        // fingerprint without further edits.
        let doc = "{\"wall_ns\": 5, \"workloads\": [{\"wall_ms\": 1.0, \"rounds\": 7, \
                   \"firewall\": 1, \"io\": {\"wall_ms_reference\": 2.0}}]}";
        let fp = fault_fingerprint(doc).unwrap();
        assert!(!fp.contains("wall_"), "{fp}");
        // Non-timing fields that merely contain "wall" elsewhere survive.
        assert!(
            fp.contains("\"rounds\": 7") && fp.contains("\"firewall\": 1"),
            "{fp}"
        );
    }
}
