//! `trace_view` — analysis CLI for the kernel's JSONL telemetry traces.
//!
//! Reads a trace produced by `PGA_TRACE=<path>` (see the Observability
//! section of the workspace README) and renders, per run: the top-k
//! hottest rounds by wall time, the per-round shard-imbalance timeline,
//! the log-bucket message-size histogram (p50/p90/max), and — for runs
//! under the reliable executor — the retransmission/ack/dead-link
//! totals plus a per-round retransmit timeline. Modes:
//!
//! ```text
//! trace_view <trace.jsonl> [--topk K]    summaries (default K = 10)
//! trace_view --validate <trace.jsonl>    schema check; exit 1 on the
//!                                        first invalid line
//! trace_view --chrome <out.json> <trace.jsonl>
//!                                        chrome://tracing export
//! trace_view --assert-overhead [RATIO]   probe-overhead gate: run a
//!                                        pinned workload under NoopProbe,
//!                                        RecordingProbe and JsonlProbe
//!                                        (writing to io::sink, the probe
//!                                        PGA_TRACE attaches), exit 1 if
//!                                        either probe costs more than
//!                                        RATIO x (default 2.0) or the
//!                                        outputs diverge
//! ```

use pga_bench::trace::{chrome_trace, parse_trace, TraceRun};
use pga_bench::{banner, f3, Table};
use pga_congest::primitives::FloodMax;
use pga_congest::{JsonlProbe, NoopProbe, Probe, RecordingProbe, RunConfig, Simulator};
use pga_graph::{generators, NodeId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;
use std::time::Instant;

fn usage() -> ExitCode {
    eprintln!(
        "usage: trace_view <trace.jsonl> [--topk K]\n\
         \x20      trace_view --validate <trace.jsonl>\n\
         \x20      trace_view --chrome <out.json> <trace.jsonl>\n\
         \x20      trace_view --assert-overhead [MAX_RATIO]"
    );
    ExitCode::FAILURE
}

fn load(path: &str) -> Result<Vec<TraceRun>, ExitCode> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        eprintln!("trace_view: cannot read {path}: {e}");
        ExitCode::FAILURE
    })?;
    parse_trace(&text).map_err(|(line, msg)| {
        eprintln!("trace_view: {path}:{line}: {msg}");
        ExitCode::FAILURE
    })
}

fn ms(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e6)
}

fn bar(frac: f64, width: usize) -> String {
    let n = (frac.clamp(0.0, 1.0) * width as f64).round() as usize;
    "#".repeat(n)
}

fn summarize(runs: &[TraceRun], topk: usize) {
    for (ri, run) in runs.iter().enumerate() {
        banner(&format!(
            "run {} [{}]: {} actors, {} shards, {} rounds, {} ms{}",
            ri + 1,
            run.label,
            run.actors,
            run.shards,
            run.rounds.len(),
            ms(run.total_wall_ns()),
            if run.end.is_some() {
                String::new()
            } else {
                " (aborted: no run_end)".to_string()
            }
        ));

        if run.rounds.is_empty() {
            println!("(no round events)");
            continue;
        }

        println!("\ntop-{} hottest rounds:", topk.min(run.rounds.len()));
        let t = Table::new(&[
            "round", "wall_ms", "exch_ms", "messages", "volume", "active",
        ]);
        for r in run.hottest(topk) {
            t.row(&[
                r.round.to_string(),
                ms(r.wall_ns),
                ms(r.exchange_ns),
                r.messages.to_string(),
                r.volume.to_string(),
                r.active.to_string(),
            ]);
        }

        let with_shards = run.rounds.iter().filter(|r| r.shards.len() >= 2).count();
        if with_shards > 0 {
            println!("\nshard-imbalance timeline (max/mean - 1 over shard walls):");
            let t = Table::new(&["round", "imbalance", "profile"]);
            for r in &run.rounds {
                if r.shards.len() < 2 {
                    continue;
                }
                let imb = r.shard_imbalance();
                t.row(&[r.round.to_string(), f3(imb), bar(imb, 40)]);
            }
        }

        let hist = run.size_hist();
        if !hist.is_empty() {
            println!(
                "\nmessage sizes ({} observations, log buckets): p50 <= {}, p90 <= {}, max <= {}",
                hist.count(),
                hist.percentile(50.0),
                hist.percentile(90.0),
                hist.max_value()
            );
        }

        let f = run.fault_total();
        let faults = f.dropped + f.duplicated + f.delayed + f.crashed;
        if faults > 0 {
            println!("\nfault events: {faults} across the run");
        }

        let (retransmitted, acks, dead_links) = (f.retransmitted, f.acks, f.dead_links);
        if retransmitted + acks + dead_links > 0 {
            println!(
                "reliable executor: {retransmitted} retransmissions, {acks} ack frames, \
                 {dead_links} dead link(s)"
            );
            let peak = (run.rounds.iter())
                .map(|r| r.fault.retransmitted)
                .max()
                .unwrap_or(0);
            if peak > 0 {
                println!("\nretransmit timeline (per round):");
                let t = Table::new(&["round", "retransmits", "acks", "dead", "profile"]);
                for r in &run.rounds {
                    let f = r.fault;
                    if f.retransmitted + f.dead_links == 0 {
                        continue;
                    }
                    t.row(&[
                        r.round.to_string(),
                        f.retransmitted.to_string(),
                        f.acks.to_string(),
                        f.dead_links.to_string(),
                        bar(f.retransmitted as f64 / peak as f64, 40),
                    ]);
                }
            }
        }
    }
}

/// The pinned workload of the overhead gate: FloodMax leader election on
/// a seeded connected G(n, m). Big enough that a round does real work,
/// small enough for CI.
fn overhead_workload() -> (pga_graph::Graph, usize) {
    let mut rng = StdRng::seed_from_u64(0x9a27);
    (generators::connected_gnm(1500, 6000, &mut rng), 1500)
}

/// One run of the overhead workload under `probe`: its wall time in ns
/// and its outputs.
fn timed_run<P: Probe>(sim: &Simulator, n: usize, probe: &P) -> (u64, Vec<NodeId>) {
    let nodes = (0..n)
        .map(|i| FloodMax::new(NodeId::from_index(i)))
        .collect();
    let t = Instant::now();
    let report = sim
        .run_cfg_probed(nodes, &RunConfig::new(), probe)
        .expect("overhead run");
    (t.elapsed().as_nanos() as u64, report.outputs)
}

fn assert_overhead(max_ratio: f64) -> ExitCode {
    let (g, n) = overhead_workload();
    let sim = Simulator::congest(&g);

    const REPS: usize = 5;
    // Best-of-REPS wall times under NoopProbe, RecordingProbe and
    // JsonlProbe (the probe PGA_TRACE attaches, here writing to a sink).
    let mut best = [u64::MAX; 3];
    for _ in 0..REPS {
        let (ns, plain) = timed_run(&sim, n, &NoopProbe);
        best[0] = best[0].min(ns);

        let probe = RecordingProbe::new("congest");
        let (ns, recorded) = timed_run(&sim, n, &probe);
        best[1] = best[1].min(ns);
        let runs = probe.into_runs();
        let completed =
            runs.len() == 1 && runs[0].end.map(|(r, _)| r) == Some(runs[0].rounds.len() as u64);
        assert!(
            completed,
            "probed run must complete with one record per round"
        );

        let (ns, streamed) = timed_run(&sim, n, &JsonlProbe::new(std::io::sink(), "congest"));
        best[2] = best[2].min(ns);

        if recorded != plain || streamed != plain {
            eprintln!("trace_view: OVERHEAD GATE FAILED: a probe changed the outputs");
            return ExitCode::FAILURE;
        }
    }

    // Noise floor: below this the measurement is dominated by timer and
    // scheduler jitter, and the ratio gate would flake.
    const FLOOR_NS: u64 = 200_000;
    let denom = best[0].max(FLOOR_NS) as f64;
    println!("probe overhead, best of {REPS}: noop {} ms", ms(best[0]));
    let mut passed = true;
    for (name, ns) in [("RecordingProbe", best[1]), ("JsonlProbe", best[2])] {
        let ratio = ns as f64 / denom;
        println!("  {name}: {} ms, ratio {}", ms(ns), f3(ratio));
        if ratio > max_ratio {
            eprintln!(
                "trace_view: OVERHEAD GATE FAILED: {name} costs {}x > {}x allowed",
                f3(ratio),
                f3(max_ratio)
            );
            passed = false;
        }
    }
    if !passed {
        return ExitCode::FAILURE;
    }
    println!("overhead gate passed (limit {}x)", f3(max_ratio));
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--validate") => {
            let Some(path) = args.get(1) else {
                return usage();
            };
            match load(path) {
                Ok(runs) => {
                    let rounds: usize = runs.iter().map(|r| r.rounds.len()).sum();
                    println!("{path}: valid ({} runs, {rounds} round events)", runs.len());
                    ExitCode::SUCCESS
                }
                Err(code) => code,
            }
        }
        Some("--chrome") => {
            let (Some(out), Some(path)) = (args.get(1), args.get(2)) else {
                return usage();
            };
            let runs = match load(path) {
                Ok(runs) => runs,
                Err(code) => return code,
            };
            let doc = chrome_trace(&runs);
            if let Err(e) = std::fs::write(out, doc) {
                eprintln!("trace_view: cannot write {out}: {e}");
                return ExitCode::FAILURE;
            }
            println!(
                "wrote chrome://tracing export for {} runs to {out}",
                runs.len()
            );
            ExitCode::SUCCESS
        }
        Some("--assert-overhead") => {
            let max_ratio = match args.get(1) {
                None => 2.0,
                Some(s) => match s.parse() {
                    Ok(v) => v,
                    Err(_) => return usage(),
                },
            };
            assert_overhead(max_ratio)
        }
        Some(path) if !path.starts_with("--") => {
            let topk = match args.get(1).map(String::as_str) {
                None => 10,
                Some("--topk") => match args.get(2).and_then(|s| s.parse().ok()) {
                    Some(k) => k,
                    None => return usage(),
                },
                Some(_) => return usage(),
            };
            match load(path) {
                Ok(runs) => {
                    summarize(&runs, topk);
                    ExitCode::SUCCESS
                }
                Err(code) => code,
            }
        }
        _ => usage(),
    }
}
