//! Property-based tests for the telemetry plane at the MPC simulator
//! level: observer neutrality — attaching a probe leaves outputs,
//! metrics, and errors bit-identical at every thread count, clean or
//! under a seeded adversary — plus telemetry/metrics consistency.

use pga_mpc::{
    FaultSpec, Machine, MachineId, MpcCtx, MpcError, MpcSimulator, NoopProbe, RecordingProbe,
    RunConfig, WordSize,
};
use proptest::prelude::*;

/// A plain one-word payload.
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

/// All-to-all max gossip (the fault-plane suite's workhorse): idempotent
/// under duplication, quiesces under drops and crashes.
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

/// A moderately hostile schedule: every fault class active, bounded
/// delays, a small crash budget.
fn hostile(seed: u64) -> FaultSpec {
    FaultSpec::seeded(seed)
        .drop(0.03)
        .duplicate(0.02)
        .delay(0.03, 3)
        .crash(0.02, 6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Observer neutrality on clean MPC runs, at every thread count —
    /// and the recorded telemetry agrees with the metrics.
    #[test]
    fn recording_probe_is_neutral_on_clean_runs(m in 2usize..16) {
        let sim = MpcSimulator::new(256);
        for threads in [1usize, 2, 4, 8] {
            let cfg = RunConfig::new().parallel(threads);
            let plain = sim.run_cfg_probed(gossip(m), &cfg, &NoopProbe).unwrap();
            let probe = RecordingProbe::new("mpc");
            let observed = sim.run_cfg_probed(gossip(m), &cfg, &probe).unwrap();
            prop_assert_eq!(&observed.outputs, &plain.outputs, "outputs, threads {}", threads);
            prop_assert_eq!(&observed.metrics, &plain.metrics, "metrics, threads {}", threads);

            let runs = probe.into_runs();
            prop_assert_eq!(runs.len(), 1);
            let t = &runs[0];
            prop_assert_eq!(t.end.map(|(r, _)| r as usize), Some(observed.metrics.rounds));
            prop_assert_eq!(t.actors, m as u64);
            prop_assert_eq!(t.rounds.len(), observed.metrics.rounds);
            let msgs: u64 = t.rounds.iter().map(|r| r.messages).sum();
            prop_assert_eq!(msgs, observed.metrics.messages);
            let words: u64 = t.rounds.iter().map(|r| r.volume).sum();
            prop_assert_eq!(words, observed.metrics.words);
        }
    }

    /// Observer neutrality under the hostile seeded adversary, at every
    /// thread count — whether the run converges or errors.
    #[test]
    fn recording_probe_is_neutral_under_faults(m in 3usize..16, seed in any::<u64>()) {
        let sim = MpcSimulator::new(256);
        for threads in [1usize, 2, 4, 8] {
            let cfg = RunConfig::new()
                .parallel(threads)
                .max_rounds(300)
                .adversary(hostile(seed));
            let plain = sim.run_cfg_probed(gossip(m), &cfg, &NoopProbe);
            let probe = RecordingProbe::new("mpc");
            let observed = sim.run_cfg_probed(gossip(m), &cfg, &probe);
            match (&plain, &observed) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(&a.outputs, &b.outputs, "outputs, threads {}", threads);
                    prop_assert_eq!(&a.metrics, &b.metrics, "metrics, threads {}", threads);
                    let runs = probe.into_runs();
                    prop_assert!(runs.len() == 1 && runs[0].end.is_some());
                    prop_assert_eq!(runs[0].fault_total(), b.metrics.fault,
                        "fault tally, threads {}", threads);
                }
                (Err(a), Err(b)) => {
                    prop_assert_eq!(a, b, "threads {}", threads);
                    prop_assert!(probe.into_runs().iter().all(|r| r.end.is_none()));
                }
                _ => prop_assert!(false, "Ok/Err divergence at threads {}", threads),
            }
        }
    }

    /// Error neutrality: an exhausted round budget surfaces as the same
    /// `MpcError` with a probe attached.
    #[test]
    fn recording_probe_is_neutral_on_errors(m in 3usize..16) {
        let sim = MpcSimulator::new(256);
        let cfg = RunConfig::new().max_rounds(1);
        let plain = sim.run_cfg_probed(gossip(m), &cfg, &NoopProbe).unwrap_err();
        for threads in [1usize, 4] {
            let cfg = RunConfig::new().parallel(threads).max_rounds(1);
            let probe = RecordingProbe::new("mpc");
            let observed = sim.run_cfg_probed(gossip(m), &cfg, &probe).unwrap_err();
            prop_assert_eq!(&observed, &plain, "threads {}", threads);
            prop_assert!(probe.into_runs().iter().all(|r| r.end.is_none()));
        }
    }
}
