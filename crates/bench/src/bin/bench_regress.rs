//! Sequential-wall-time regression gate over the committed bench
//! snapshots.
//!
//! Usage:
//!
//! ```text
//! bench_regress <baseline.json> <fresh.json> [--max-regress 0.25] [--min-ms 50]
//! bench_regress <BENCH_fault.json baseline> <fresh> --fault
//! ```
//!
//! Compares every *sequential* engine timing of `fresh.json` against
//! the same `(workload, engine)` entry of `baseline.json` (both in the
//! `BENCH_sim.json` / `BENCH_mpc.json` schema) and exits with code 3 if
//! any of them regressed by more than `--max-regress` (a fraction;
//! default 0.25, i.e. +25%). Parallel timings are deliberately not
//! gated — they depend on the host's core count — and baselines below
//! `--min-ms` (default 50 ms) are skipped because percentage noise on
//! millisecond-scale runs is not signal.
//!
//! With `--fault`, both documents are treated as `BENCH_fault.json`
//! snapshots and the gate switches from wall-time budgets to an
//! **exact** comparison: the fault plane is deterministic by contract,
//! so after stripping the `wall_*` timing members the fresh document
//! must equal the committed baseline byte for byte (exit code 3
//! otherwise, with the first differing lines printed).
//!
//! Either mode exits with code 65, naming the file, when a document
//! does not parse as JSON or holds nothing to compare (no
//! `workloads[].engines[]` entries; with `--fault`, no `workloads[]`
//! entries), so an unreadable snapshot cannot pass the gate. An
//! unknown `--flag`, or a flag value that is missing or does not parse,
//! exits with code 64.
//!
//! CI copies the committed snapshots aside before re-running the bench
//! binaries and then diffs the fresh artifacts against them, so a
//! refactor that slows the sequential reference path (which every
//! speedup figure is measured against) fails loudly instead of
//! landing as a quietly inflated "speedup". Caveat: the committed
//! baselines are measured on whatever machine last regenerated the
//! snapshots, which need not match CI's runner class — this gate is a
//! coarse tripwire against order-of-magnitude regressions, not a
//! precision benchmark. If a runner-class change (not a code change)
//! trips it, regenerate the snapshots on the new class in the same PR,
//! or widen `--max-regress` in `ci.yml` deliberately.

use pga_bench::harness::{
    fault_fingerprint, flag_or, parse_engine_walls, unknown_flag, usage_error,
};

const USAGE: &str =
    "usage: bench_regress <baseline.json> <fresh.json> [--max-regress 0.25] [--min-ms 50] [--fault]";

/// Reads the document at `path` through `parse`: exit 66 when the file
/// cannot be read, 65 when it is not a bench document `parse` accepts.
fn load<T>(path: &str, parse: fn(&str) -> Result<T, String>) -> T {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("bench_regress: cannot read {path}: {e}");
        std::process::exit(66);
    });
    parse(&text).unwrap_or_else(|e| {
        eprintln!("bench_regress: {path} is not a readable bench document: {e}");
        std::process::exit(65);
    })
}

/// `--fault` mode: both documents are `BENCH_fault.json` snapshots.
/// Everything in them except the timing members is a pure function of
/// `(instance seed, FaultSpec)`, so the gate is an exact byte diff of
/// the timing-stripped fingerprints — any drift means fault decisions
/// stopped being schedule-independent (exit code 3).
fn diff_fault_docs(baseline_path: &str, fresh_path: &str) {
    println!("bench_regress --fault: {baseline_path} vs {fresh_path} (exact, timing-stripped)");
    let base = load(baseline_path, fault_fingerprint);
    let new = load(fresh_path, fault_fingerprint);
    if base == new {
        println!("  fault fingerprints identical");
        return;
    }
    let mut shown = 0usize;
    for (i, (b, f)) in base.lines().zip(new.lines()).enumerate() {
        if b != f {
            eprintln!(
                "  line {}: baseline `{}` != fresh `{}`",
                i + 1,
                b.trim(),
                f.trim()
            );
            shown += 1;
            if shown >= 10 {
                eprintln!("  (further diffs suppressed)");
                break;
            }
        }
    }
    if base.lines().count() != new.lines().count() {
        eprintln!(
            "  line counts differ: baseline {} vs fresh {}",
            base.lines().count(),
            new.lines().count()
        );
    }
    eprintln!("FAIL: fault-plane snapshot diverged from the committed baseline");
    std::process::exit(3);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (baseline_path, fresh_path) = match (args.first(), args.get(1)) {
        (Some(b), Some(f)) if !b.starts_with("--") && !f.starts_with("--") => (b, f),
        _ => usage_error(USAGE),
    };
    if let Some(flag) = unknown_flag(&args, &["--max-regress", "--min-ms", "--fault"]) {
        usage_error(&format!("bench_regress: unknown flag {flag}\n{USAGE}"));
    }
    let max_regress: f64 = flag_or(&args, "--max-regress", 0.25);
    let min_ms: f64 = flag_or(&args, "--min-ms", 50.0);

    if args.iter().any(|a| a == "--fault") {
        diff_fault_docs(baseline_path, fresh_path);
        return;
    }
    let baseline = load(baseline_path, parse_engine_walls);
    let fresh = load(fresh_path, parse_engine_walls);

    println!(
        "bench_regress: {} vs {} (sequential entries only, max +{:.0}%, floor {min_ms} ms)",
        baseline_path,
        fresh_path,
        max_regress * 100.0
    );
    let mut failures = 0usize;
    let mut compared = 0usize;
    for (workload, engine, threads, base_ms) in &baseline {
        if !engine.contains("sequential") {
            continue;
        }
        if *base_ms < min_ms {
            println!("  {workload}/{engine}: baseline {base_ms:.1} ms below floor, skipped");
            continue;
        }
        let Some((_, _, _, fresh_ms)) = fresh
            .iter()
            .find(|(w, e, t, _)| w == workload && e == engine && t == threads)
        else {
            eprintln!("  {workload}/{engine}: MISSING from fresh document");
            failures += 1;
            continue;
        };
        compared += 1;
        let ratio = fresh_ms / base_ms;
        let verdict = if ratio > 1.0 + max_regress {
            failures += 1;
            "REGRESSED"
        } else {
            "ok"
        };
        println!(
            "  {workload}/{engine}: {base_ms:.1} ms -> {fresh_ms:.1} ms ({:+.1}%) {verdict}",
            (ratio - 1.0) * 100.0
        );
    }

    if failures > 0 {
        eprintln!(
            "FAIL: {failures} gated timing(s) regressed more than {:.0}%",
            max_regress * 100.0
        );
        std::process::exit(3);
    }
    println!("  all {compared} gated sequential timings within budget");
}
