//! The round kernel against its oracle on the MPC model: every engine,
//! thread count and scheduling policy of `MpcSimulator::run_cfg`
//! must reproduce the deliberately naive `pga_runtime::reference::run`
//! executor exactly — outputs, metrics, and errors.

use pga_mpc::{
    Engine, Machine, MachineId, MpcCtx, MpcError, MpcSimulator, ProbeMode, RunConfig, Scheduling,
    WordSize,
};
use proptest::prelude::*;

/// A payload of a declared number of words.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Words(u64, usize);
impl WordSize for Words {
    fn size_bits(&self, _id_bits: usize) -> usize {
        64 * self.1
    }
    fn size_words(&self) -> usize {
        self.1
    }
}

/// All-to-all max gossip with `width`-word messages: re-floods on
/// improvement, so small budgets overflow the send and receive caps.
struct Gossip {
    best: u64,
    width: usize,
    changed: bool,
    quiet: bool,
}

impl Machine for Gossip {
    type Msg = Words;
    type Output = u64;
    fn round(
        &mut self,
        ctx: &MpcCtx,
        inbox: &[(MachineId, Words)],
    ) -> Result<Vec<(MachineId, Words)>, MpcError> {
        for (_, m) in inbox {
            if m.0 > self.best {
                self.best = m.0;
                self.changed = true;
            }
        }
        let send = ctx.round == 0 || self.changed;
        self.changed = false;
        self.quiet = !send;
        Ok(if send {
            (0..ctx.machines)
                .filter(|&j| j != ctx.id.index())
                .map(|j| (MachineId::from_index(j), Words(self.best, self.width)))
                .collect()
        } else {
            Vec::new()
        })
    }
    fn memory_words(&self) -> usize {
        2 + self.width
    }
    fn is_done(&self, _ctx: &MpcCtx) -> bool {
        self.quiet
    }
    fn output(&self, _ctx: &MpcCtx) -> u64 {
        self.best
    }
}

fn gossip(values: &[u64], width: usize) -> Vec<Gossip> {
    (values.iter())
        .map(|&best| Gossip {
            best,
            width,
            changed: false,
            quiet: false,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn run_cfg_matches_reference_oracle(
        m in 2usize..24,
        seed in any::<u64>(),
        width in 1usize..4,
        memory_words in 8usize..96,
        tight_budget in any::<bool>(),
    ) {
        let sim = MpcSimulator::new(memory_words);
        let values: Vec<u64> = (0..m as u64)
            .map(|i| (seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) % 1_000)
            .collect();
        let budget = if tight_budget { 1 } else { 1_000 };
        let oracle = pga_runtime::reference::run(
            &sim.exec_model::<Gossip>(m),
            gossip(&values, width),
            budget,
        );
        for engine in [
            Engine::Sequential,
            Engine::Parallel { threads: 1 },
            Engine::Parallel { threads: 2 },
            Engine::Parallel { threads: 4 },
        ] {
            for scheduling in [Scheduling::ActiveSet, Scheduling::FullSweep] {
                let cfg = RunConfig::new()
                    .engine(engine)
                    .scheduling(scheduling)
                    .max_rounds(budget)
                    .probe(ProbeMode::Off);
                let run = sim.run_cfg(gossip(&values, width), &cfg);
                match (&oracle, &run) {
                    (Ok(want), Ok(got)) => {
                        prop_assert_eq!(&got.outputs, &want.outputs, "{:?}", cfg);
                        prop_assert_eq!(&got.metrics, &want.metrics, "{:?}", cfg);
                    }
                    (Err(want), Err(got)) => prop_assert_eq!(got, want, "{:?}", cfg),
                    _ => prop_assert!(false, "{:?}: oracle {:?} vs run {:?}", cfg,
                        oracle.as_ref().err(), run.as_ref().err()),
                }
            }
        }
    }
}
