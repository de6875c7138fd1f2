//! Property-based tests for the telemetry plane at the CONGEST
//! simulator level: **observer neutrality** — attaching any probe must
//! leave outputs, metrics, and errors bit-identical to the unobserved
//! run across engines, thread counts, message planes, and fault
//! specs — plus consistency checks between what the `RecordingProbe`
//! captures and what the `Metrics` report.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use pga_congest::primitives::{FloodMax, MaxId};
use pga_congest::{
    Algorithm, Ctx, FaultSpec, NoopProbe, RecordingProbe, ReliabilitySpec, RunConfig, Simulator,
};
use pga_graph::{generators, Graph, NodeId};
use proptest::prelude::*;

/// The instance families of the engine-parity suites: uniform gnm,
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
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Observer neutrality, clean runs: a `RecordingProbe` leaves
    /// outputs and metrics bit-identical to the `NoopProbe` run at
    /// every thread count and on both message planes.
    #[test]
    fn recording_probe_is_neutral_on_clean_runs(g in arb_instance()) {
        let n = g.num_nodes();
        let sim = Simulator::congest(&g);
        for threads in [1usize, 2, 4, 8] {
            let cfg = RunConfig::new().parallel(threads);
            let plain = sim.run_cfg_probed(flood(n), &cfg, &NoopProbe).unwrap();
            let probe = RecordingProbe::new("congest");
            let observed = sim.run_cfg_probed(flood(n), &cfg, &probe).unwrap();
            prop_assert_eq!(&observed.outputs, &plain.outputs,
                "outputs, threads {}", threads);
            prop_assert_eq!(&observed.metrics, &plain.metrics,
                "metrics, threads {}", threads);

            // And the recorded telemetry agrees with the metrics it
            // observed (clean runs deliver everything they charge).
            let runs = probe.into_runs();
            prop_assert_eq!(runs.len(), 1);
            let t = &runs[0];
            prop_assert_eq!(t.end.map(|(r, _)| r as usize), Some(observed.metrics.rounds));
            prop_assert_eq!(t.rounds.len(), observed.metrics.rounds);
            let msgs: u64 = t.rounds.iter().map(|r| r.messages).sum();
            prop_assert_eq!(msgs, observed.metrics.messages);
            let bits: u64 = t.rounds.iter().map(|r| r.volume).sum();
            prop_assert_eq!(bits, observed.metrics.bits);
        }
    }

    /// Observer neutrality under seeded faults: the hostile adversary's
    /// run is bit-identical with and without a `RecordingProbe`, at
    /// every thread count and on both planes — whether it converges or
    /// errors.
    #[test]
    fn recording_probe_is_neutral_under_faults(g in arb_instance(), seed in any::<u64>()) {
        let n = g.num_nodes();
        let sim = Simulator::congest(&g);
        for threads in [1usize, 2, 4, 8] {
            let cfg = RunConfig::new()
                .parallel(threads)
                .max_rounds(300)
                .adversary(hostile(seed));
            let plain = sim.run_cfg_probed(flood(n), &cfg, &NoopProbe);
            let probe = RecordingProbe::new("congest");
            let observed = sim.run_cfg_probed(flood(n), &cfg, &probe);
            match (&plain, &observed) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(&a.outputs, &b.outputs,
                        "outputs, threads {}", threads);
                    prop_assert_eq!(&a.metrics, &b.metrics,
                        "metrics, threads {}", threads);
                    // The probe's fault tally is the metrics' tally.
                    let runs = probe.into_runs();
                    prop_assert!(runs.len() == 1 && runs[0].end.is_some());
                    prop_assert_eq!(runs[0].fault_total(), b.metrics.fault,
                        "fault tally, threads {}", threads);
                }
                (Err(a), Err(b)) => {
                    prop_assert_eq!(a, b, "threads {}", threads);
                    // Aborted runs never see `on_run_end`.
                    prop_assert!(probe.into_runs().iter().all(|r| r.end.is_none()));
                }
                _ => prop_assert!(false,
                    "Ok/Err divergence at threads {}", threads),
            }
        }
    }

    /// Error neutrality: an exhausted round budget surfaces as the same
    /// `SimError` with any probe attached.
    #[test]
    fn recording_probe_is_neutral_on_errors(g in arb_instance()) {
        let n = g.num_nodes();
        let sim = Simulator::congest(&g);
        let cfg = RunConfig::new().max_rounds(1);
        let plain = sim.run_cfg_probed(flood(n), &cfg, &NoopProbe).unwrap_err();
        for threads in [1usize, 4] {
            let cfg = RunConfig::new().parallel(threads).max_rounds(1);
            let probe = RecordingProbe::new("congest");
            let observed = sim.run_cfg_probed(flood(n), &cfg, &probe).unwrap_err();
            prop_assert_eq!(&observed, &plain, "threads {}", threads);
            prop_assert!(probe.into_runs().iter().all(|r| r.end.is_none()));
        }
    }
}

/// FloodMax that counts its `round` callbacks.
struct Counted {
    inner: FloodMax,
    calls: Arc<AtomicUsize>,
}

impl Algorithm for Counted {
    type Msg = MaxId;
    type Output = NodeId;

    fn round(&mut self, ctx: &Ctx, inbox: &[(NodeId, MaxId)]) -> Vec<(NodeId, MaxId)> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.round(ctx, inbox)
    }

    fn is_done(&self, ctx: &Ctx) -> bool {
        self.inner.is_done(ctx)
    }

    fn can_skip(&self, ctx: &Ctx) -> bool {
        self.inner.can_skip(ctx)
    }

    fn output(&self, ctx: &Ctx) -> NodeId {
        self.inner.output(ctx)
    }
}

/// `active` counts the actors whose `round` callback ran. On the ARQ
/// plane a tick whose barrier is closed steps no actor, so over a lossy
/// run the recorded counts must add up to the callbacks made.
#[test]
fn arq_active_counts_round_callbacks() {
    let g = generators::barabasi_albert(60, 3, 17);
    let sim = Simulator::congest(&g);
    for threads in [1, 4] {
        let calls = Arc::new(AtomicUsize::new(0));
        let nodes = (0..g.num_nodes())
            .map(|i| Counted {
                inner: FloodMax::new(NodeId::from_index(i)),
                calls: Arc::clone(&calls),
            })
            .collect();
        let cfg = RunConfig::new()
            .parallel(threads)
            .adversary(FaultSpec::seeded(9).drop(0.1))
            .reliability(ReliabilitySpec::arq());
        let probe = RecordingProbe::new("congest");
        sim.run_cfg_probed(nodes, &cfg, &probe).unwrap();
        let run = &probe.into_runs()[0];
        assert!(run.fault_total().retransmitted > 0, "threads {threads}");
        let active: u64 = run.rounds.iter().map(|r| r.active).sum();
        assert_eq!(
            active,
            calls.load(Ordering::Relaxed) as u64,
            "threads {threads}"
        );
    }
}
