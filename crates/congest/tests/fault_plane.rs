//! Property-based tests for the adversarial execution plane at the
//! simulator level: a no-fault adversary must reproduce the clean
//! engines bit for bit (outputs, metrics, errors), a seeded adversary
//! must be deterministic across engines and thread counts, and a recorded trace must replay bit for bit.

use pga_congest::primitives::FloodMax;
use pga_congest::{
    FaultSpec, ReliabilitySpec, RunConfig, SeededAdversary, Simulator, TraceAdversary,
};
use pga_graph::{generators, Graph, NodeId};
use proptest::prelude::*;

/// The instance families the fault plane is exercised on: uniform gnm,
/// heavy-tailed Barabási–Albert, and the quiescent-tail lollipop.
fn arb_instance() -> impl Strategy<Value = Graph> {
    (4usize..24, any::<u64>(), 0u8..3).prop_map(|(n, seed, family)| match family {
        0 => {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let m = (n + seed as usize % (2 * n)).min(n * (n - 1) / 2);
            generators::connected_gnm(n, m, &mut rng)
        }
        1 => generators::barabasi_albert(n, 3.min(n - 1).max(1), seed),
        _ => {
            let blob_m = (n + n / 2).min(n * (n - 1) / 2);
            generators::gnm_lollipop(n, blob_m, 1 + (seed as usize % 10), seed)
        }
    })
}

fn flood(n: usize) -> Vec<FloodMax> {
    (0..n)
        .map(|i| FloodMax::new(NodeId::from_index(i)))
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
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `FaultSpec::none()` routes through the adversarial executor but
    /// must be indistinguishable from the clean engines: same outputs
    /// and same metrics at every thread count and on both planes.
    #[test]
    fn none_spec_is_bit_identical_to_clean_engines(g in arb_instance()) {
        let n = g.num_nodes();
        let sim = Simulator::congest(&g);
        let clean = sim.run_cfg(flood(n), &RunConfig::new()).unwrap();
        for threads in [1usize, 2, 4, 8] {
            let cfg = RunConfig::new()
                .parallel(threads)
                .adversary(FaultSpec::none());
            let r = sim.run_cfg(flood(n), &cfg).unwrap();
            prop_assert_eq!(&r.outputs, &clean.outputs, "threads {}", threads);
            prop_assert_eq!(&r.metrics, &clean.metrics, "threads {}", threads);
        }
    }

    /// `FaultSpec::none()` also reproduces the clean engines' *errors*:
    /// an exhausted round budget surfaces as the same `SimError` either
    /// way.
    #[test]
    fn none_spec_reproduces_clean_round_limit_error(g in arb_instance()) {
        let n = g.num_nodes();
        let sim = Simulator::congest(&g);
        let clean = sim
            .run_cfg(flood(n), &RunConfig::new().max_rounds(1))
            .unwrap_err();
        for threads in [1usize, 4] {
            let cfg = RunConfig::new()
                .parallel(threads)
                .max_rounds(1)
                .adversary(FaultSpec::none());
            let faulty = sim.run_cfg(flood(n), &cfg).unwrap_err();
            prop_assert_eq!(&faulty, &clean, "threads {}", threads);
        }
    }

    /// The same `(seed, FaultSpec)` produces bit-identical runs on every
    /// engine, thread count, and message plane: fault decisions are pure
    /// functions of `(round, sender, seq)`, never of the execution
    /// schedule.
    #[test]
    fn seeded_faults_are_bit_identical_across_engines(g in arb_instance(), seed in any::<u64>()) {
        let n = g.num_nodes();
        let sim = Simulator::congest(&g);
        let spec = hostile(seed);
        let base_cfg = RunConfig::new().sequential().max_rounds(300).adversary(spec);
        let base = sim.run_cfg(flood(n), &base_cfg);
        for threads in [1usize, 2, 4, 8] {
            let cfg = RunConfig::new()
                .parallel(threads)
                .max_rounds(300)
                .adversary(spec);
            let r = sim.run_cfg(flood(n), &cfg);
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

    /// With no adversary armed, the reliable (ARQ) executor reproduces
    /// the clean engines' outputs at every thread count and on both
    /// message planes, and the whole run (metrics included) is
    /// bit-identical across those choices.
    #[test]
    fn arq_without_faults_reproduces_clean_outputs(g in arb_instance()) {
        let n = g.num_nodes();
        let sim = Simulator::congest(&g);
        let clean = sim.run_cfg(flood(n), &RunConfig::new()).unwrap();
        let base_cfg = RunConfig::new().sequential().reliability(ReliabilitySpec::arq());
        let base = sim.run_cfg(flood(n), &base_cfg).unwrap();
        prop_assert_eq!(&base.outputs, &clean.outputs);
        for threads in [1usize, 2, 4, 8] {
            let cfg = RunConfig::new()
                .parallel(threads)
                .reliability(ReliabilitySpec::arq());
            let r = sim.run_cfg(flood(n), &cfg).unwrap();
            prop_assert_eq!(&r.outputs, &clean.outputs, "threads {}", threads);
            prop_assert_eq!(&r.metrics, &base.metrics, "threads {}", threads);
        }
    }

    /// ARQ under drop-only faults (below the dead-link threshold)
    /// delivers the clean run's outputs **bit-identically** — the
    /// barrier absorbs retransmission jitter, so actors never observe
    /// the loss — at threads {1, 2, 4, 8}, with replay-identical
    /// metrics across all of them.
    #[test]
    fn arq_drop_only_recovers_clean_outputs(g in arb_instance(), seed in any::<u64>()) {
        let n = g.num_nodes();
        let sim = Simulator::congest(&g);
        let clean = sim.run_cfg(flood(n), &RunConfig::new()).unwrap();
        let spec = FaultSpec::seeded(seed).drop(0.10);
        let base_cfg = RunConfig::new()
            .sequential()
            .max_rounds(5_000)
            .adversary(spec)
            .reliability(ReliabilitySpec::arq());
        let base = sim.run_cfg(flood(n), &base_cfg).unwrap();
        prop_assert_eq!(&base.outputs, &clean.outputs);
        for threads in [1usize, 2, 4, 8] {
            let cfg = RunConfig::new()
                .parallel(threads)
                .max_rounds(5_000)
                .adversary(spec)
                .reliability(ReliabilitySpec::arq());
            let r = sim.run_cfg(flood(n), &cfg).unwrap();
            prop_assert_eq!(&r.outputs, &clean.outputs, "threads {}", threads);
            prop_assert_eq!(&r.metrics, &base.metrics, "threads {}", threads);
        }
    }

    /// The full hostile schedule (drops, duplicates, delays, crashes)
    /// under ARQ stays deterministic across engines, thread counts, and
    /// planes — degraded, possibly, but reproducibly so.
    #[test]
    fn arq_hostile_is_bit_identical_across_engines(g in arb_instance(), seed in any::<u64>()) {
        let n = g.num_nodes();
        let sim = Simulator::congest(&g);
        let spec = hostile(seed);
        let rel = ReliabilitySpec::arq().with_max_retries(4);
        let base_cfg = RunConfig::new()
            .sequential()
            .max_rounds(2_000)
            .adversary(spec)
            .reliability(rel);
        let base = sim.run_cfg(flood(n), &base_cfg);
        for threads in [1usize, 2, 4, 8] {
            let cfg = RunConfig::new()
                .parallel(threads)
                .max_rounds(2_000)
                .adversary(spec)
                .reliability(rel);
            let r = sim.run_cfg(flood(n), &cfg);
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

    /// Record-and-replay: a recording adversary captures every inflicted
    /// fault, and replaying that trace reproduces the recorded run bit
    /// for bit — including on a different engine and thread count.
    #[test]
    fn trace_replay_is_bit_identical(g in arb_instance(), seed in any::<u64>()) {
        let n = g.num_nodes();
        let sim = Simulator::congest(&g);
        let spec = hostile(seed);
        let cfg = RunConfig::new().sequential().max_rounds(300);
        let record = || {
            let recorder = SeededAdversary::recording(spec);
            let report = sim.run_adversary(flood(n), &cfg, &recorder)?;
            Ok::<_, pga_congest::SimError>((report, recorder.into_trace(n)))
        };
        let Ok((recorded, trace)) = record() else {
            // Adversarially starved run: recording it again must at
            // least reproduce the same error deterministically.
            let a = record().map(|_| ()).unwrap_err();
            let b = record().map(|_| ()).unwrap_err();
            prop_assert_eq!(a, b);
            return Ok(());
        };
        prop_assert_eq!(trace.spec, spec);
        for threads in [1usize, 4] {
            let replay_cfg = RunConfig::new().parallel(threads).max_rounds(300);
            let replayed = sim.run_adversary(flood(n), &replay_cfg, &TraceAdversary::new(&trace)).unwrap();
            prop_assert_eq!(&replayed.outputs, &recorded.outputs, "threads {}", threads);
            prop_assert_eq!(&replayed.metrics, &recorded.metrics, "threads {}", threads);
        }
    }
}
