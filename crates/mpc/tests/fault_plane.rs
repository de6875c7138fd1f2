//! Property-based tests for the adversarial execution plane on the MPC
//! simulator: a no-fault adversary must reproduce the clean engines bit
//! for bit (outputs, metrics, errors), a seeded adversary must be
//! deterministic across engines and thread counts, and a recorded trace
//! must replay bit for bit — both for a plain machine program and for
//! the native G² ruling set.

use pga_graph::{generators, Graph};
use pga_mpc::{
    g2_ruling_set_mpc, g2_ruling_set_mpc_cfg, recommended_ruling_set_memory_words, FaultSpec,
    Machine, MachineId, MpcCtx, MpcError, MpcSimulator, ReliabilitySpec, RunConfig,
    SeededAdversary, TraceAdversary, WordSize,
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

/// All-to-all max gossip: every machine floods the largest value it has
/// seen and re-floods on improvement. Fault-tolerant by construction
/// (idempotent under duplication, quiesces under drops and crashes), so
/// adversarial schedules perturb its outputs without aborting it.
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

fn arb_graph() -> impl Strategy<Value = Graph> {
    (3usize..22, any::<u64>()).prop_map(|(n, seed)| {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        generators::connected_gnp(n, 0.2, &mut rng)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `FaultSpec::none()` routes through the adversarial executor but
    /// must be indistinguishable from the clean MPC engines at every
    /// thread count.
    #[test]
    fn none_spec_is_bit_identical_to_clean_engines(m in 2usize..16) {
        let sim = MpcSimulator::new(256);
        let clean = sim.run_cfg(gossip(m), &RunConfig::new()).unwrap();
        for threads in [1usize, 2, 4, 8] {
            let cfg = RunConfig::new().parallel(threads).adversary(FaultSpec::none());
            let r = sim.run_cfg(gossip(m), &cfg).unwrap();
            prop_assert_eq!(&r.outputs, &clean.outputs, "threads {}", threads);
            prop_assert_eq!(&r.metrics, &clean.metrics, "threads {}", threads);
        }
    }

    /// `FaultSpec::none()` also reproduces the clean engines' *errors*:
    /// an exhausted round budget surfaces as the same `MpcError`.
    #[test]
    fn none_spec_reproduces_clean_round_limit_error(m in 3usize..16) {
        let sim = MpcSimulator::new(256);
        let clean = sim
            .run_cfg(gossip(m), &RunConfig::new().max_rounds(1))
            .unwrap_err();
        for threads in [1usize, 4] {
            let cfg = RunConfig::new()
                .parallel(threads)
                .max_rounds(1)
                .adversary(FaultSpec::none());
            let faulty = sim.run_cfg(gossip(m), &cfg).unwrap_err();
            prop_assert_eq!(&faulty, &clean, "threads {}", threads);
        }
    }

    /// The same `(seed, FaultSpec)` produces a bit-identical run at
    /// every engine and thread choice.
    #[test]
    fn seeded_faults_are_bit_identical_across_engines(m in 2usize..16, seed in any::<u64>()) {
        let sim = MpcSimulator::new(256);
        let spec = hostile(seed);
        let base = sim.run_cfg(
            gossip(m),
            &RunConfig::new().sequential().max_rounds(200).adversary(spec),
        );
        for threads in [1usize, 2, 4, 8] {
            let cfg = RunConfig::new().parallel(threads).max_rounds(200).adversary(spec);
            let r = sim.run_cfg(gossip(m), &cfg);
            match (&base, &r) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(&a.outputs, &b.outputs, "threads {}", threads);
                    prop_assert_eq!(&a.metrics, &b.metrics, "threads {}", threads);
                }
                (Err(a), Err(b)) => prop_assert_eq!(a, b, "threads {}", threads),
                _ => prop_assert!(false, "Ok/Err divergence at threads {}", threads),
            }
        }
    }

    /// Record-and-replay on the MPC plane: replaying a recorded trace
    /// reproduces the recorded run bit for bit, including on a
    /// different thread count.
    #[test]
    fn trace_replay_is_bit_identical(m in 2usize..16, seed in any::<u64>()) {
        let sim = MpcSimulator::new(256);
        let spec = hostile(seed);
        let cfg = RunConfig::new().sequential().max_rounds(200);
        let record = || {
            let recorder = SeededAdversary::recording(spec);
            let report = sim.run_adversary(gossip(m), &cfg, &recorder)?;
            Ok::<_, MpcError>((report, recorder.into_trace(m)))
        };
        let Ok((recorded, trace)) = record() else {
            let a = record().map(|_| ()).unwrap_err();
            let b = record().map(|_| ()).unwrap_err();
            prop_assert_eq!(a, b);
            return Ok(());
        };
        prop_assert_eq!(trace.spec, spec);
        for threads in [1usize, 4] {
            let replay_cfg = RunConfig::new().parallel(threads).max_rounds(200);
            let replayed = sim.run_adversary(gossip(m), &replay_cfg, &TraceAdversary::new(&trace)).unwrap();
            prop_assert_eq!(&replayed.outputs, &recorded.outputs, "threads {}", threads);
            prop_assert_eq!(&replayed.metrics, &recorded.metrics, "threads {}", threads);
        }
    }

    /// With no adversary armed, the reliable (ARQ) executor reproduces
    /// the clean MPC engines' outputs, bit-identically across thread
    /// counts (metrics included).
    #[test]
    fn arq_without_faults_reproduces_clean_outputs(m in 2usize..16) {
        let sim = MpcSimulator::new(256);
        let clean = sim.run_cfg(gossip(m), &RunConfig::new()).unwrap();
        let base = sim
            .run_cfg(gossip(m), &RunConfig::new().sequential().reliability(ReliabilitySpec::arq()))
            .unwrap();
        prop_assert_eq!(&base.outputs, &clean.outputs);
        for threads in [1usize, 2, 4, 8] {
            let cfg = RunConfig::new().parallel(threads).reliability(ReliabilitySpec::arq());
            let r = sim.run_cfg(gossip(m), &cfg).unwrap();
            prop_assert_eq!(&r.outputs, &clean.outputs, "threads {}", threads);
            prop_assert_eq!(&r.metrics, &base.metrics, "threads {}", threads);
        }
    }

    /// ARQ under drop-only faults (below the dead-link threshold)
    /// delivers the clean run's outputs bit-identically at threads
    /// {1, 2, 4, 8}, with replay-identical metrics.
    #[test]
    fn arq_drop_only_recovers_clean_outputs(m in 2usize..16, seed in any::<u64>()) {
        let sim = MpcSimulator::new(256);
        let clean = sim.run_cfg(gossip(m), &RunConfig::new()).unwrap();
        let spec = FaultSpec::seeded(seed).drop(0.10);
        let base_cfg = RunConfig::new()
            .sequential()
            .max_rounds(5_000)
            .adversary(spec)
            .reliability(ReliabilitySpec::arq());
        let base = sim.run_cfg(gossip(m), &base_cfg).unwrap();
        prop_assert_eq!(&base.outputs, &clean.outputs);
        for threads in [1usize, 2, 4, 8] {
            let cfg = RunConfig::new()
                .parallel(threads)
                .max_rounds(5_000)
                .adversary(spec)
                .reliability(ReliabilitySpec::arq());
            let r = sim.run_cfg(gossip(m), &cfg).unwrap();
            prop_assert_eq!(&r.outputs, &clean.outputs, "threads {}", threads);
            prop_assert_eq!(&r.metrics, &base.metrics, "threads {}", threads);
        }
    }

    /// The native G² ruling set under ARQ with drop-only faults
    /// reproduces the clean ruling set exactly: the ghost-table
    /// exchange survives loss via retransmission.
    #[test]
    fn ruling_set_arq_drop_only_matches_clean(g in arb_graph(), seed in any::<u64>()) {
        let words = recommended_ruling_set_memory_words(&g);
        let clean = g2_ruling_set_mpc(&g, words, pga_mpc::Engine::Sequential).unwrap();
        let spec = FaultSpec::seeded(seed).drop(0.08);
        for threads in [1usize, 4] {
            let cfg = RunConfig::new()
                .parallel(threads)
                .max_rounds(20_000)
                .adversary(spec)
                .reliability(ReliabilitySpec::arq());
            let r = g2_ruling_set_mpc_cfg(&g, words, &cfg).unwrap();
            prop_assert_eq!(&r.in_r, &clean.in_r, "threads {}", threads);
        }
    }

    /// The `_cfg` ruling-set entry point under `FaultSpec::none()`
    /// reproduces the clean entry point bit for bit.
    #[test]
    fn ruling_set_none_spec_matches_clean(g in arb_graph()) {
        let words = recommended_ruling_set_memory_words(&g);
        let clean = g2_ruling_set_mpc(&g, words, pga_mpc::Engine::Sequential).unwrap();
        for threads in [1usize, 4] {
            let cfg = RunConfig::new().parallel(threads).adversary(FaultSpec::none());
            let r = g2_ruling_set_mpc_cfg(&g, words, &cfg).unwrap();
            prop_assert_eq!(&r.in_r, &clean.in_r, "threads {}", threads);
            prop_assert_eq!(&r.mpc, &clean.mpc, "threads {}", threads);
            prop_assert_eq!(r.machines, clean.machines, "threads {}", threads);
        }
    }

    /// The ruling set under a seeded adversary is deterministic across
    /// thread counts — degraded, possibly, but reproducibly so.
    #[test]
    fn ruling_set_faults_are_deterministic(g in arb_graph(), seed in any::<u64>()) {
        let words = recommended_ruling_set_memory_words(&g);
        let spec = FaultSpec::seeded(seed).drop(0.05).crash(0.02, 8);
        let base = g2_ruling_set_mpc_cfg(
            &g,
            words,
            &RunConfig::new().sequential().max_rounds(300).adversary(spec),
        );
        for threads in [2usize, 4] {
            let cfg = RunConfig::new().parallel(threads).max_rounds(300).adversary(spec);
            let r = g2_ruling_set_mpc_cfg(&g, words, &cfg);
            match (&base, &r) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(&a.in_r, &b.in_r, "threads {}", threads);
                    prop_assert_eq!(&a.mpc, &b.mpc, "threads {}", threads);
                }
                (Err(a), Err(b)) => prop_assert_eq!(a, b, "threads {}", threads),
                _ => prop_assert!(false, "Ok/Err divergence at threads {}", threads),
            }
        }
    }

    /// The ruling set under the full hostile schedule with ARQ plus
    /// phase timeouts armed: the fallback force-joins undecided
    /// vertices into R (RULED verdicts are truthful, so domination is
    /// preserved), the run always terminates, the result always
    /// dominates `G²`, and the degradation is deterministic across
    /// thread counts.
    #[test]
    fn ruling_set_timeout_fallback_stays_dominating(g in arb_graph(), seed in any::<u64>()) {
        let words = recommended_ruling_set_memory_words(&g);
        let spec = hostile(seed);
        let rel = ReliabilitySpec::arq().with_max_retries(3).with_phase_timeouts(2);
        let base_cfg = RunConfig::new()
            .sequential()
            .max_rounds(100_000)
            .adversary(spec)
            .reliability(rel);
        let base = g2_ruling_set_mpc_cfg(&g, words, &base_cfg).unwrap();
        prop_assert!(pga_graph::cover::is_dominating_set_on_square(&g, &base.in_r));
        for threads in [1usize, 4] {
            let cfg = RunConfig::new()
                .parallel(threads)
                .max_rounds(100_000)
                .adversary(spec)
                .reliability(rel);
            let r = g2_ruling_set_mpc_cfg(&g, words, &cfg).unwrap();
            prop_assert_eq!(&r.in_r, &base.in_r, "threads {}", threads);
            prop_assert_eq!(
                r.mpc.fault.degraded, base.mpc.fault.degraded,
                "threads {}", threads
            );
        }
    }
}
