//! JSONL round-trip: every line the kernel's `JsonlProbe` emits — on
//! CONGEST and MPC workloads, clean and under faults — must be accepted
//! by the `trace_view` validator (`pga_bench::trace`), the parsed
//! trace must agree with the run's metrics, and it must equal the runs
//! a `RecordingProbe` keeps in memory.

use pga_bench::trace::{chrome_trace, parse_trace, TraceRun};
use pga_congest::primitives::FloodMax;
use pga_congest::{FaultSpec, JsonlProbe, RecordingProbe, ReliabilitySpec, RunConfig, Simulator};
use pga_graph::{generators, NodeId};
use pga_mpc::{Machine, MachineId, MpcCtx, MpcError, MpcSimulator, WordSize};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[derive(Clone, Debug, PartialEq, Eq)]
struct Word(u64);
impl WordSize for Word {
    fn size_bits(&self, _id_bits: usize) -> usize {
        64
    }
    fn size_words(&self) -> usize {
        1
    }
}

/// All-to-all max gossip, the MPC fault/probe suites' workhorse.
struct Gossip {
    best: u64,
    changed: bool,
    quiet: bool,
}

impl Machine for Gossip {
    type Msg = Word;
    type Output = u64;
    fn round(
        &mut self,
        ctx: &MpcCtx,
        inbox: &[(MachineId, Word)],
    ) -> Result<Vec<(MachineId, Word)>, MpcError> {
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
            Ok((0..ctx.machines)
                .filter(|&j| j != ctx.id.index())
                .map(|j| (MachineId::from_index(j), Word(self.best)))
                .collect())
        } else {
            Ok(Vec::new())
        }
    }
    fn memory_words(&self) -> usize {
        4
    }
    fn is_done(&self, _ctx: &MpcCtx) -> bool {
        self.quiet
    }
    fn output(&self, _ctx: &MpcCtx) -> u64 {
        self.best
    }
}

fn gossip(m: usize) -> Vec<Gossip> {
    (0..m)
        .map(|i| Gossip {
            best: (i as u64) * 7 + 1,
            changed: false,
            quiet: false,
        })
        .collect()
}

/// Parses a trace, failing the test with the first invalid line.
fn parse(text: &str) -> Vec<TraceRun> {
    parse_trace(text).unwrap_or_else(|(line, e)| panic!("line {line}: {e}"))
}

#[test]
fn congest_jsonl_round_trips_through_the_validator() {
    let mut rng = StdRng::seed_from_u64(11);
    let g = generators::connected_gnm(64, 160, &mut rng);
    let n = g.num_nodes();
    let sim = Simulator::congest(&g);
    let flood = || -> Vec<FloodMax> {
        (0..n)
            .map(|i| FloodMax::new(NodeId::from_index(i)))
            .collect()
    };

    // Clean sharded run.
    let probe = JsonlProbe::new(Vec::new(), "congest");
    let cfg = RunConfig::new().parallel(4);
    let report = sim.run_cfg_probed(flood(), &cfg, &probe).unwrap();
    let clean = String::from_utf8(probe.into_writer()).unwrap();
    parse(&clean);

    // Seeded-fault run, appended to the same stream (what PGA_TRACE's
    // append-mode file sees across runs of one process).
    let probe = JsonlProbe::new(Vec::new(), "congest");
    let spec = FaultSpec::seeded(7)
        .drop(0.05)
        .duplicate(0.02)
        .delay(0.03, 3);
    let cfg = RunConfig::new().parallel(2).max_rounds(400).adversary(spec);
    sim.run_cfg_probed(flood(), &cfg, &probe).unwrap();
    let faulty = String::from_utf8(probe.into_writer()).unwrap();
    parse(&faulty);

    let runs = parse(&format!("{clean}{faulty}"));
    assert_eq!(runs.len(), 2);
    assert!(runs.iter().all(|r| r.label == "congest" && r.end.is_some()));

    // The clean run's trace agrees with its metrics.
    assert_eq!(runs[0].rounds.len(), report.metrics.rounds);
    let msgs: u64 = runs[0].rounds.iter().map(|r| r.messages).sum();
    assert_eq!(msgs, report.metrics.messages);
    let bits: u64 = runs[0].rounds.iter().map(|r| r.volume).sum();
    assert_eq!(bits, report.metrics.bits);
    assert_eq!(runs[0].actors, n as u64);
    assert_eq!(runs[0].shards, 4);
    assert!(!runs[0].size_hist().is_empty(), "sharded run records sizes");

    // The faulty run recorded fault deltas.
    assert!(runs[1].fault_total().dropped > 0, "hostile spec must fire");

    // And the whole thing exports to chrome://tracing.
    let doc = chrome_trace(&runs);
    assert!(doc.contains("\"cat\":\"round\""));
    assert!(doc.contains("\"cat\":\"shard\""));
}

#[test]
fn mpc_jsonl_round_trips_through_the_validator() {
    let m = 12;
    let sim = MpcSimulator::new(256);
    let probe = JsonlProbe::new(Vec::new(), "mpc");
    let cfg = RunConfig::new().parallel(3);
    let report = sim.run_cfg_probed(gossip(m), &cfg, &probe).unwrap();
    let runs = parse(&String::from_utf8(probe.into_writer()).unwrap());
    assert_eq!(runs.len(), 1);
    assert_eq!(runs[0].label, "mpc");
    assert_eq!(runs[0].actors, m as u64);
    assert_eq!(runs[0].rounds.len(), report.metrics.rounds);
    let words: u64 = runs[0].rounds.iter().map(|r| r.volume).sum();
    assert_eq!(words, report.metrics.words);
    assert_eq!(
        runs[0].end.map(|(r, _)| r),
        Some(report.metrics.rounds as u64)
    );
}

/// Zeroes the wall-clock fields, the only ones two executions of one run
/// may disagree on.
fn untimed(mut runs: Vec<TraceRun>) -> Vec<TraceRun> {
    for run in &mut runs {
        run.end = run.end.map(|(rounds, _)| (rounds, 0));
        for r in &mut run.rounds {
            (r.wall_ns, r.exchange_ns) = (0, 0);
            r.shards.iter_mut().for_each(|s| s.wall_ns = 0);
        }
    }
    runs
}

/// Checks that `rec` and `jsonl`, attached to two executions of one run,
/// recorded the same run, and returns it.
fn same_run(rec: RecordingProbe, jsonl: JsonlProbe<Vec<u8>>, case: &str) -> TraceRun {
    let recorded = untimed(rec.into_runs());
    let parsed = untimed(parse(&String::from_utf8(jsonl.into_writer()).unwrap()));
    assert_eq!(recorded, parsed, "{case}");
    assert_eq!(recorded.len(), 1, "{case}");
    recorded.into_iter().next().unwrap()
}

/// The two probes build one record: `RecordingProbe`'s runs equal
/// `parse_trace` of `JsonlProbe`'s lines, up to wall times, for FloodMax
/// on CONGEST and Gossip on MPC, on the clean, seeded-adversary and ARQ
/// planes, at 1 and 4 threads.
#[test]
fn recording_and_jsonl_probes_agree() {
    let mut rng = StdRng::seed_from_u64(23);
    let g = generators::connected_gnm(48, 120, &mut rng);
    let n = g.num_nodes();
    let sim = Simulator::congest(&g);
    let mpc = MpcSimulator::new(256);
    let flood = || -> Vec<FloodMax> {
        (0..n)
            .map(|i| FloodMax::new(NodeId::from_index(i)))
            .collect()
    };
    let faults = FaultSpec::seeded(5)
        .drop(0.05)
        .duplicate(0.02)
        .delay(0.03, 3);
    let arq = RunConfig::new()
        .adversary(FaultSpec::seeded(5).drop(0.05))
        .reliability(ReliabilitySpec::arq());
    let planes = [
        ("clean", RunConfig::new()),
        (
            "adversary",
            RunConfig::new().max_rounds(400).adversary(faults),
        ),
        ("arq", arq),
    ];
    for (plane, base) in planes {
        for threads in [1, 4] {
            let cfg = base.parallel(threads);
            let case = format!("{plane}, {threads} threads");

            let rec = RecordingProbe::new("congest");
            let jsonl = JsonlProbe::new(Vec::new(), "congest");
            let a = sim.run_cfg_probed(flood(), &cfg, &rec).map(|r| r.outputs);
            let b = sim.run_cfg_probed(flood(), &cfg, &jsonl).map(|r| r.outputs);
            assert_eq!(a, b, "congest, {case}");
            let run = same_run(rec, jsonl, &format!("congest, {case}"));
            assert_eq!(plane == "clean", run.fault_total().dropped == 0, "{case}");

            let rec = RecordingProbe::new("mpc");
            let jsonl = JsonlProbe::new(Vec::new(), "mpc");
            let a = mpc
                .run_cfg_probed(gossip(12), &cfg, &rec)
                .map(|r| r.outputs);
            let b = mpc
                .run_cfg_probed(gossip(12), &cfg, &jsonl)
                .map(|r| r.outputs);
            assert_eq!(a, b, "mpc, {case}");
            same_run(rec, jsonl, &format!("mpc, {case}"));
        }
    }
}
