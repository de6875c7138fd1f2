//! Paper-pipeline benchmark: Theorem 1, Corollary 10 (BMM-prep clique)
//! and Theorem 28, each timed from a `&Graph` in memory to a verified
//! result, and split by layer in a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload thm1_gnm --seed 45803 --seconds 24 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed`, and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Per-layer metrics
//! of a layer the workload does not have read `-1` (absent). See
//! `README.md` for what each metric means and which result it should
//! move.

mod fold;
mod stats;

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use fold::{fold_run, PhaseFold};
use pga_bench::trace::parse_trace;
use pga_congest::{Metrics, RunConfig};
use pga_core::mds::congest_g2::g2_mds_congest_cfg;
use pga_core::mpc::g2_mvc_congest_mpc;
use pga_core::mvc::clique_det::g2_mvc_clique_det_cfg;
use pga_core::mvc::congest::{g2_mvc_congest_cfg, LocalSolver};
use pga_exact::bounds::square_vc_bound;
use pga_exact::greedy::greedy_mds;
use pga_graph::cover::{is_dominating_set_on_square, is_vertex_cover_on_square};
use pga_graph::power::{square, square_scalar};
use pga_graph::{generators, Graph};
use pga_mpc::MpcMetrics;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

const DEFAULT_SEED: u64 = 45803;
const EPS: f64 = 0.5;
/// Instance generation plus reference is repeated this many times per
/// run; `setup_s` is the median.
const SETUP_REPEATS: usize = 9;
/// The value a per-layer metric reads when the workload lacks the layer.
const ABSENT: f64 = -1.0;

/// The paper pipelines under test, each behind its public entry point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Pipeline {
    /// Theorem 1: `g2_mvc_congest_cfg(ε=0.5, FiveThirds)`, sequential.
    Thm1,
    /// Corollary 10: `g2_mvc_clique_det_cfg(ε=0.5, FiveThirds)` with
    /// BMM prep, sequential.
    CliqueBmm,
    /// Theorem 28: `g2_mds_congest_cfg(sample_factor=8)` on
    /// `parallel(2).codec(true)`.
    Thm28,
    /// Theorem 1 through the CONGEST-on-MPC adapter:
    /// `g2_mvc_congest_mpc(ε=0.5, FiveThirds)`.
    Thm1Mpc,
}

const WORKLOADS: [(&str, Pipeline); 4] = [
    ("thm1_gnm", Pipeline::Thm1),
    ("clique_bmm_sbm", Pipeline::CliqueBmm),
    ("thm28_ba_par2", Pipeline::Thm28),
    ("thm1_mpc_gnm", Pipeline::Thm1Mpc),
];

/// What one entry-point call returned, reduced to what the benchmark
/// checks and reports.
#[derive(Clone, Debug)]
struct Outcome {
    /// The cover or dominating set.
    set: Vec<bool>,
    /// CONGEST metrics per returned phase, in run order.
    phases: Vec<Metrics>,
    /// Machines and MPC-side metrics (MPC workload only).
    mpc: Option<(usize, MpcMetrics)>,
}

impl Outcome {
    fn size(&self) -> usize {
        self.set.iter().filter(|&&b| b).count()
    }

    /// Cover bits plus per-phase rounds and messages: every call of a
    /// run must reproduce the first call's fingerprint.
    fn fingerprint(&self) -> (&[bool], Vec<(usize, u64)>) {
        let counts = self.phases.iter().map(|m| (m.rounds, m.messages));
        (&self.set, counts.collect())
    }

    /// `(rounds, messages, bits)` summed over all phases.
    fn totals(&self) -> (usize, u64, u64) {
        self.phases.iter().fold((0, 0, 0), |(r, m, b), p| {
            (r + p.rounds, m + p.messages, b + p.bits)
        })
    }
}

impl Pipeline {
    /// The instance `seed` makes. The seed draws the SBM, and relabels
    /// the gnm instance, whose structure is pinned and which both
    /// Theorem 1 workloads share, so `mpc.adapter_overhead` compares the
    /// two pipelines on one input. The Theorem 28 instance is pinned
    /// whole: its phase count is random (6 to 9 phases, 2556 to 3834
    /// rounds, over six to eight seeds), so a seeded instance would move
    /// its wall time and counts by a quarter on the input alone.
    fn graph(self, seed: u64) -> Graph {
        let mut pinned = StdRng::seed_from_u64(DEFAULT_SEED);
        match self {
            Pipeline::Thm1 | Pipeline::Thm1Mpc => {
                relabel(&generators::connected_gnm(5000, 15_000, &mut pinned), seed)
            }
            Pipeline::CliqueBmm => generators::planted_partition(1024, 16, 0.25, 0.003, seed),
            Pipeline::Thm28 => generators::barabasi_albert(5000, 4, DEFAULT_SEED),
        }
    }

    /// The quality reference `ratio_ref` divides by: the `MVC(G²)` lower
    /// bound, or for MDS the greedy set on `G²` (the packing bound is 1
    /// on BA graphs). `g2` yields `G²`, which only the MDS reference uses.
    fn reference<'a>(self, g: &Graph, g2: impl FnOnce() -> Cow<'a, Graph>) -> usize {
        match self {
            Pipeline::Thm28 => greedy_mds(&g2()).iter().filter(|&&b| b).count(),
            _ => square_vc_bound(g),
        }
    }

    fn call(self, g: &Graph) -> Result<Outcome, String> {
        let seq = RunConfig::new();
        let solver = LocalSolver::FiveThirds;
        let mvc = |r: pga_core::mvc::congest::G2MvcResult| Outcome {
            set: r.cover,
            phases: vec![r.phase1_metrics, r.phase2_metrics],
            mpc: None,
        };
        match self {
            Pipeline::Thm1 => g2_mvc_congest_cfg(g, EPS, solver, &seq)
                .map(mvc)
                .map_err(|e| e.to_string()),
            Pipeline::CliqueBmm => g2_mvc_clique_det_cfg(g, EPS, solver, &seq.bmm_prep())
                .map(mvc)
                .map_err(|e| e.to_string()),
            Pipeline::Thm28 => g2_mds_congest_cfg(g, 8, DEFAULT_SEED, &seq.parallel(2).codec(true))
                .map(|r| Outcome {
                    set: r.dominating_set,
                    phases: vec![r.metrics],
                    mpc: None,
                })
                .map_err(|e| e.to_string()),
            Pipeline::Thm1Mpc => g2_mvc_congest_mpc(g, EPS, solver)
                .map(|r| Outcome {
                    mpc: Some((r.machines, r.mpc_metrics)),
                    ..mvc(r.result)
                })
                .map_err(|e| e.to_string()),
        }
    }

    fn valid(self, g: &Graph, set: &[bool]) -> bool {
        match self {
            Pipeline::Thm28 => is_dominating_set_on_square(g, set),
            _ => is_vertex_cover_on_square(g, set),
        }
    }

    /// The trace runs one call writes, by phase name, and the index of
    /// the returned phase [`Metrics`] each is charged to (BMM prep is
    /// charged to Phase I). The MPC adapter writes no trace.
    fn trace_phases(self) -> &'static [(&'static str, usize)] {
        match self {
            Pipeline::Thm1 => &[("phase1", 0), ("phase2", 1)],
            Pipeline::CliqueBmm => &[("prep", 0), ("phase1", 0), ("phase2", 1)],
            Pipeline::Thm28 => &[("thm28", 0)],
            Pipeline::Thm1Mpc => &[],
        }
    }
}

/// `g` with the ids of vertices `1..n` shuffled by `seed`. Vertex 0 keeps
/// its id: it is the Phase II leader, and where it sits sets how long the
/// convergecast pipelines. Over six seeds, Theorem 1 ran 593 to 890
/// rounds on freshly drawn `connected_gnm(5000, 15_000)` instances, and
/// 747 to 864 on the pinned one relabelled with the leader kept.
fn relabel(g: &Graph, seed: u64) -> Graph {
    let mut ids: Vec<u32> = (1..g.num_nodes() as u32).collect();
    ids.shuffle(&mut StdRng::seed_from_u64(seed));
    ids.insert(0, 0);
    let edges: Vec<(u32, u32)> = g
        .edges()
        .map(|(u, v)| (ids[u.index()], ids[v.index()]))
        .collect();
    Graph::from_edges(g.num_nodes(), &edges)
}

/// Every call of a run: its wall time, and whether it failed.
#[derive(Default)]
struct Calls {
    samples_ms: Vec<f64>,
    attempted: usize,
    failed: usize,
    first: Option<Outcome>,
}

impl Calls {
    /// Times one entry-point call (verification runs outside the timer)
    /// and records it. A call fails if it returns `Err`, its output is
    /// invalid on `G²`, or its fingerprint differs from the first call's.
    fn call(&mut self, p: Pipeline, g: &Graph) -> Option<(Outcome, f64)> {
        let t = Instant::now();
        let result = std::hint::black_box(p.call(std::hint::black_box(g)));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.attempted += 1;
        let differs = |out: &Outcome| {
            let first = self.first.as_ref();
            first.is_some_and(|f| f.fingerprint() != out.fingerprint())
        };
        let verdict = match result {
            Err(e) => Err(format!("call failed: {e}")),
            Ok(out) if !p.valid(g, &out.set) => Err("output is not valid on G²".into()),
            Ok(out) if differs(&out) => Err("output differs from the run's first call".into()),
            Ok(out) => Ok(out),
        };
        match verdict {
            Ok(out) => {
                if self.first.is_none() {
                    self.first = Some(out.clone());
                }
                Some((out, ms))
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                self.failed += 1;
                None
            }
        }
    }

    /// Untraced calls for `budget` (see [`within`]).
    fn measure(&mut self, p: Pipeline, g: &Graph, budget: Duration) {
        let _ = within(budget, || {
            if let Some((_, ms)) = self.call(p, g) {
                self.samples_ms.push(ms);
            }
            Ok(())
        });
    }
}

/// Runs `step` at least once, and again while the next step, if it
/// takes as long as the last one, still ends within `budget`.
fn within(budget: Duration, mut step: impl FnMut() -> Result<(), String>) -> Result<(), String> {
    let start = Instant::now();
    loop {
        let t = Instant::now();
        step()?;
        if start.elapsed() + t.elapsed() > budget {
            return Ok(());
        }
    }
}

/// Fastest wall time of `f` over `reps` calls, ms.
fn fastest_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let walls: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    stats::min(&walls).expect("reps > 0")
}

/// Host drift probe: the scalar square of a pinned gnm, ms. The input
/// never depends on `--seed`, so drift between sets of runs shows here.
fn host_calib_ms() -> f64 {
    let g = generators::connected_gnm(20_000, 60_000, &mut StdRng::seed_from_u64(DEFAULT_SEED));
    fastest_ms(5, || square_scalar(&g))
}

/// The process's peak resident set (`VmHWM`), MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Per-layer metric names and units, in output order.
fn per_layer_table() -> Vec<(String, &'static str)> {
    let mut t: Vec<(String, &str)> = [
        ("host.calib_ms", "ms"),
        ("pipeline.samples", "count"),
        ("pipeline.median_ms", "ms"),
        ("trace.overhead", "ratio"),
        ("graph.gen_ms", "ms"),
        ("graph.square_ms", "ms"),
        ("exact.ref_ms", "ms"),
        ("core.offsim_ms", "ms"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for p in ["prep", "phase1", "phase2", "thm28"] {
        for (m, u) in [
            ("wall_ms", "ms"),
            ("round_ms", "ms"),
            ("loop_ms", "ms"),
            ("peak_round_ms", "ms"),
            ("active_frac", "frac"),
            ("rounds", "count"),
            ("messages", "count"),
            ("bits", "bit"),
        ] {
            t.push((format!("{p}.{m}"), u));
        }
    }
    for (n, u) in [
        ("thm28.step_ms", "ms"),
        ("thm28.exchange_ms", "ms"),
        ("thm28.sync_ms", "ms"),
        ("thm28.shard_imbalance", "ratio"),
        ("mpc.rounds", "count"),
        ("mpc.messages", "count"),
        ("mpc.words", "word"),
        ("mpc.machines", "count"),
        ("mpc.peak_memory_words", "word"),
        ("mpc.peak_round_io_words", "word"),
        ("mpc.congest_ref_ms", "ms"),
        ("mpc.adapter_overhead", "ratio"),
    ] {
        t.push((n.to_string(), u));
    }
    t
}

/// End-to-end metric names and units, in output order.
const END_TO_END: [(&str, &str); 9] = [
    ("pipeline_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_frac", "frac"),
    ("rounds", "count"),
    ("messages", "count"),
    ("bits", "bit"),
    ("solution_size", "count"),
    ("ratio_ref", "ratio"),
];

struct Args {
    pipeline: Pipeline,
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        pipeline: Pipeline::Thm1,
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 24,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.pipeline = WORKLOADS
        .iter()
        .find(|(name, _)| *name == args.workload)
        .map(|&(_, p)| p)
        .ok_or_else(|| {
            let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
            format!("--workload must be one of {}", names.join(", "))
        })?;
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// The end-to-end run: set-up, then untraced calls for `--seconds`.
fn run_end_to_end(a: &Args, calls: &mut Calls) -> BTreeMap<String, f64> {
    let p = a.pipeline;
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut instance = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let g = p.graph(a.seed);
        let reference = p.reference(&g, || Cow::Owned(square(&g)));
        setups.push(t.elapsed().as_secs_f64());
        instance = Some((g, reference));
    }
    let (g, reference) = instance.expect("SETUP_REPEATS > 0");
    calls.measure(p, &g, Duration::from_secs(a.seconds));

    let mut m = BTreeMap::new();
    m.insert("setup_s".into(), stats::median(&setups).expect("setups"));
    m.insert(
        "pass_frac".into(),
        1.0 - calls.failed as f64 / calls.attempted as f64,
    );
    m.insert("peak_rss_mb".into(), peak_rss_mb().unwrap_or(ABSENT));
    if let (Some(ms), Some(first)) = (stats::min(&calls.samples_ms), &calls.first) {
        let (rounds, messages, bits) = first.totals();
        m.insert("pipeline_ms".into(), ms);
        m.insert("rounds".into(), rounds as f64);
        m.insert("messages".into(), messages as f64);
        m.insert("bits".into(), bits as f64);
        m.insert("solution_size".into(), first.size() as f64);
        m.insert(
            "ratio_ref".into(),
            first.size() as f64 / reference.max(1) as f64,
        );
    }
    m
}

/// Checks one traced call's folded runs against the [`Metrics`] it
/// returned: the run count, and per phase the exact rounds, messages
/// and bits.
fn cross_check(p: Pipeline, folds: &[PhaseFold], out: &Outcome) -> Result<(), String> {
    let phases = p.trace_phases();
    if folds.len() != phases.len() {
        return Err(format!(
            "trace has {} runs, expected {}",
            folds.len(),
            phases.len()
        ));
    }
    if phases.is_empty() {
        return Ok(());
    }
    for (i, m) in out.phases.iter().enumerate() {
        let charged = phases.iter().zip(folds).filter(|((_, to), _)| *to == i);
        let (rounds, messages, bits) = charged.fold((0, 0, 0), |(r, ms, b), (_, f)| {
            (r + f.rounds, ms + f.messages, b + f.bits)
        });
        let want = (m.rounds as u64, m.messages, m.bits);
        if (rounds, messages, bits) != want {
            return Err(format!(
                "phase {i}: trace (rounds, messages, bits) = {:?}, Metrics = {want:?}",
                (rounds, messages, bits)
            ));
        }
    }
    Ok(())
}

/// One traced call: runs it with `PGA_TRACE` pointing at a fresh file,
/// folds and cross-checks the trace, and returns its layer figures.
fn traced_call(p: Pipeline, g: &Graph, calls: &mut Calls) -> Result<BTreeMap<String, f64>, String> {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("trace-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    std::env::set_var("PGA_TRACE", &path);
    let result = calls.call(p, g);
    std::env::remove_var("PGA_TRACE");
    let text = std::fs::read_to_string(&path).unwrap_or_default();
    let _ = std::fs::remove_file(&path);
    let (out, wall_ms) = result.ok_or("traced call failed")?;

    let runs = parse_trace(&text).map_err(|(line, e)| format!("trace line {line}: {e}"))?;
    let folds = runs.iter().map(fold_run).collect::<Result<Vec<_>, _>>()?;
    cross_check(p, &folds, &out)?;

    let mut m = BTreeMap::new();
    m.insert("pipeline.traced_ms".to_string(), wall_ms);
    if !folds.is_empty() {
        let sim_ns: u64 = folds.iter().map(|f| f.wall_ns).sum();
        m.insert("core.offsim_ms".into(), wall_ms - sim_ns as f64 / 1e6);
    }
    for (&(name, _), f) in p.trace_phases().iter().zip(&folds) {
        let ms = |ns: u64| ns as f64 / 1e6;
        m.insert(format!("{name}.wall_ms"), ms(f.wall_ns));
        m.insert(format!("{name}.round_ms"), ms(f.round_ns));
        m.insert(format!("{name}.loop_ms"), ms(f.loop_ns()));
        m.insert(format!("{name}.peak_round_ms"), ms(f.peak_round_ns));
        m.insert(format!("{name}.active_frac"), f.active_frac);
        m.insert(format!("{name}.rounds"), f.rounds as f64);
        m.insert(format!("{name}.messages"), f.messages as f64);
        m.insert(format!("{name}.bits"), f.bits as f64);
        if let Some(s) = &f.shards {
            m.insert(format!("{name}.step_ms"), ms(s.step_ns));
            m.insert(format!("{name}.exchange_ms"), ms(s.exchange_ns));
            m.insert(format!("{name}.sync_ms"), ms(s.sync_ns));
            m.insert(format!("{name}.shard_imbalance"), s.imbalance);
        }
    }
    if let Some((machines, mm)) = &out.mpc {
        m.insert("mpc.rounds".into(), mm.rounds as f64);
        m.insert("mpc.messages".into(), mm.messages as f64);
        m.insert("mpc.words".into(), mm.words as f64);
        m.insert("mpc.machines".into(), *machines as f64);
        m.insert("mpc.peak_memory_words".into(), mm.peak_memory_words as f64);
        m.insert(
            "mpc.peak_round_io_words".into(),
            mm.peak_round_io_words as f64,
        );
    }
    Ok(m)
}

/// The traced run: layer functions timed from outside, then untraced
/// calls for half of `--seconds` and traced calls for the other half.
/// Each layer figure is the median over the traced calls.
fn run_traced(a: &Args, calls: &mut Calls) -> Result<BTreeMap<String, f64>, String> {
    let p = a.pipeline;
    let mut m = BTreeMap::new();
    let g = p.graph(a.seed);
    m.insert("graph.gen_ms".into(), fastest_ms(3, || p.graph(a.seed)));
    m.insert("graph.square_ms".into(), fastest_ms(3, || square(&g)));
    let sq = square(&g);
    m.insert(
        "exact.ref_ms".into(),
        fastest_ms(3, || p.reference(&g, || Cow::Borrowed(&sq))),
    );

    let half = Duration::from_secs_f64(a.seconds as f64 / 2.0);
    calls.measure(p, &g, half);
    let untraced = stats::min(&calls.samples_ms).ok_or("no untraced call passed")?;
    m.insert("pipeline.samples".into(), calls.samples_ms.len() as f64);
    m.insert(
        "pipeline.median_ms".into(),
        stats::median(&calls.samples_ms).expect("samples"),
    );

    let mut traced: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    within(half, || {
        for (k, v) in traced_call(p, &g, calls)? {
            traced.entry(k).or_default().push(v);
        }
        Ok(())
    })?;
    let traced_ms = traced.remove("pipeline.traced_ms").expect("traced wall");
    for (k, vs) in &traced {
        m.insert(k.clone(), stats::median(vs).expect("non-empty"));
    }
    m.insert(
        "trace.overhead".into(),
        stats::min(&traced_ms).expect("traced") / untraced,
    );

    if p == Pipeline::Thm1Mpc {
        let reference = fastest_ms(3, || Pipeline::Thm1.call(&g));
        m.insert("mpc.congest_ref_ms".into(), reference);
        m.insert("mpc.adapter_overhead".into(), untraced / reference);
    }
    Ok(m)
}

fn json_metrics(table: &[(String, &str)], m: &BTreeMap<String, f64>) -> String {
    let items: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let v = m.get(name).copied().unwrap_or(ABSENT);
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let calib = host_calib_ms();
    let mut calls = Calls::default();
    let (table, mut m, trace_ok): (Vec<(String, &str)>, _, _) = if a.trace {
        let table = per_layer_table();
        match run_traced(&a, &mut calls) {
            Ok(m) => (table, m, true),
            Err(e) => {
                eprintln!("perfbench: traced run failed: {e}");
                (table, BTreeMap::new(), false)
            }
        }
    } else {
        let table = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect();
        (table, run_end_to_end(&a, &mut calls), true)
    };
    m.insert("host.calib_ms".into(), calib);

    let absent: Vec<&str> = table
        .iter()
        .filter(|(n, _)| !m.contains_key(n))
        .map(|(n, _)| n.as_str())
        .collect();
    let (q1, q3) = stats::quartiles(&calls.samples_ms).unwrap_or((f64::NAN, f64::NAN));
    println!(
        "perfbench {} seed={} trace={} samples={} pipeline_ms fastest={:.3} q1={q1:.3} \
         median={:.3} q3={q3:.3} host.calib_ms={calib:.3} absent=[{}]",
        a.workload,
        a.seed,
        u8::from(a.trace),
        calls.samples_ms.len(),
        stats::min(&calls.samples_ms).unwrap_or(f64::NAN),
        stats::median(&calls.samples_ms).unwrap_or(f64::NAN),
        absent.join(",")
    );
    let correct = trace_ok && calls.failed == 0 && !calls.samples_ms.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        calls.attempted.max(1),
        calls.failed.max(usize::from(!correct)),
        json_metrics(&table, &m)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` names exactly the workloads this binary runs and
    /// the metrics it prints, with the same units.
    #[test]
    fn benchmark_json_lists_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let metrics = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .chain(per_layer_table());
        let mut entries = 0;
        for (name, unit) in metrics {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "{entry} missing from BENCHMARK.json");
            entries += 1;
        }
        for (name, _) in WORKLOADS {
            let entry = format!("\"name\": \"{name}\", \"why\"");
            assert!(spec.contains(&entry), "{entry} missing from BENCHMARK.json");
            entries += 1;
        }
        assert_eq!(spec.matches("\"name\":").count(), entries);
    }

    #[test]
    fn cross_check_sums_prep_into_phase1() {
        let fold = |rounds, messages, bits| PhaseFold {
            rounds,
            messages,
            bits,
            ..PhaseFold::default()
        };
        let metrics = |rounds, messages, bits| Metrics {
            rounds,
            messages,
            bits,
            ..Metrics::default()
        };
        let out = Outcome {
            set: vec![],
            phases: vec![metrics(5, 50, 500), metrics(2, 3, 30)],
            mpc: None,
        };
        let folds = [fold(1, 10, 100), fold(4, 40, 400), fold(2, 3, 30)];
        assert!(cross_check(Pipeline::CliqueBmm, &folds, &out).is_ok());
        assert!(cross_check(Pipeline::Thm1, &folds, &out).is_err());
        let off = [fold(1, 10, 100), fold(4, 41, 400), fold(2, 3, 30)];
        assert!(cross_check(Pipeline::CliqueBmm, &off, &out).is_err());
        assert!(cross_check(Pipeline::Thm1Mpc, &[], &out).is_ok());
    }
}
