//! Engine-behavior tests for the MPC simulator: budget enforcement,
//! termination, and bit-identity of the sequential and sharded
//! executors (and of both scheduling policies) across thread counts.

use pga_mpc::{
    low_space_words, Engine, Machine, MachineId, MpcCtx, MpcError, MpcSimulator, RunConfig,
    Scheduling, WordSize,
};

/// A plain word-counted payload.
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

/// Token ring: machine 0 emits a counter that each machine increments
/// and forwards; after a full lap machine 0 stops.
struct Ring {
    laps: usize,
    seen: u64,
    done: bool,
    mem: usize,
}

impl Machine for Ring {
    type Msg = Words;
    type Output = u64;
    fn round(
        &mut self,
        ctx: &MpcCtx,
        inbox: &[(MachineId, Words)],
    ) -> Result<Vec<(MachineId, Words)>, MpcError> {
        let next = MachineId::from_index((ctx.id.index() + 1) % ctx.machines);
        if ctx.id == MachineId(0) && ctx.round == 0 {
            return Ok(vec![(next, Words(1, 1))]);
        }
        let mut out = Vec::new();
        for (_, msg) in inbox {
            self.seen = msg.0;
            if ctx.id == MachineId(0) {
                self.laps -= 1;
                if self.laps == 0 {
                    self.done = true;
                    continue;
                }
            }
            out.push((next, Words(msg.0 + 1, 1)));
        }
        if ctx.id != MachineId(0) {
            self.done = true; // done-until-messaged; inbox re-activates
        }
        Ok(out)
    }
    fn memory_words(&self) -> usize {
        self.mem
    }
    fn is_done(&self, _ctx: &MpcCtx) -> bool {
        self.done
    }
    fn output(&self, _ctx: &MpcCtx) -> u64 {
        self.seen
    }
}

fn ring(m: usize, laps: usize) -> Vec<Ring> {
    (0..m)
        .map(|_| Ring {
            laps,
            seen: 0,
            done: false,
            mem: 4,
        })
        .collect()
}

#[test]
fn ring_completes_and_counts() {
    let report = MpcSimulator::new(64)
        .run_cfg(ring(5, 1), &RunConfig::new())
        .unwrap();
    assert_eq!(report.metrics.rounds, 6);
    assert_eq!(report.metrics.messages, 5);
    assert_eq!(report.outputs[0], 5);
    assert_eq!(report.metrics.peak_memory_words, 4);
    assert_eq!(report.metrics.io_profile.len(), report.metrics.rounds);
}

#[test]
fn parallel_matches_sequential_bit_identically() {
    let seq = MpcSimulator::new(64)
        .run_cfg(ring(16, 3), &RunConfig::new())
        .unwrap();
    for threads in [1, 2, 3, 5, 8] {
        let par = MpcSimulator::new(64)
            .run_cfg(ring(16, 3), &RunConfig::new().parallel(threads))
            .unwrap();
        assert_eq!(par.outputs, seq.outputs, "t={threads}");
        assert_eq!(par.metrics, seq.metrics, "t={threads}");
    }
}

/// A ring whose machines declare wildly skewed memory footprints: the
/// balanced partition then draws uneven shard boundaries (heavy
/// machines get short ranges), which must not be observable in outputs,
/// metrics, or errors.
fn skewed_ring(m: usize, laps: usize) -> Vec<Ring> {
    (0..m)
        .map(|i| Ring {
            laps,
            seen: 0,
            done: false,
            // One dominant machine plus a geometric-ish tail, all within
            // the budget of 64 words.
            mem: if i == 0 { 60 } else { 1 + (i % 7) },
        })
        .collect()
}

#[test]
fn cost_balanced_sharding_stays_bit_identical() {
    let seq = MpcSimulator::new(64)
        .run_cfg(skewed_ring(16, 3), &RunConfig::new())
        .unwrap();
    for threads in [1, 2, 3, 5, 8] {
        let par = MpcSimulator::new(64)
            .run_cfg(skewed_ring(16, 3), &RunConfig::new().parallel(threads))
            .unwrap();
        assert_eq!(par.outputs, seq.outputs, "t={threads}");
        assert_eq!(par.metrics, seq.metrics, "t={threads}");
    }
}

#[test]
fn shard_boundaries_balance_resident_words() {
    let sim = MpcSimulator::new(64);
    let machines = skewed_ring(16, 1);
    for threads in [1, 2, 4, 7] {
        let bounds = sim.shard_boundaries(&machines, threads);
        assert_eq!(*bounds.first().unwrap(), 0, "t={threads}");
        assert_eq!(*bounds.last().unwrap(), 16, "t={threads}");
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "t={threads}");
        assert!(bounds.len() - 1 <= threads.max(1), "t={threads}");
    }
    // Machine 0 declares 60 of the ~120 total words, so at 4 threads it
    // must not share its shard with a proportional slice of the ring.
    let bounds = sim.shard_boundaries(&machines, 4);
    assert!(bounds[1] <= 2, "heavy machine's shard too wide: {bounds:?}");
}

#[test]
fn scheduling_policies_match_bit_identically() {
    // Most ring machines sit "done" between token visits, so the
    // active-set policy skips them; the run must not notice.
    let reference = MpcSimulator::new(64)
        .run_cfg(
            ring(16, 3),
            &RunConfig::new().scheduling(Scheduling::FullSweep),
        )
        .unwrap();
    for scheduling in [Scheduling::FullSweep, Scheduling::ActiveSet] {
        let seq = MpcSimulator::new(64)
            .run_cfg(ring(16, 3), &RunConfig::new().scheduling(scheduling))
            .unwrap();
        assert_eq!(seq.outputs, reference.outputs, "{scheduling:?}");
        assert_eq!(seq.metrics, reference.metrics, "{scheduling:?}");
        for threads in [2, 5] {
            let par = MpcSimulator::new(64)
                .run_cfg(
                    ring(16, 3),
                    &RunConfig::new().scheduling(scheduling).parallel(threads),
                )
                .unwrap();
            assert_eq!(par.outputs, reference.outputs, "{scheduling:?} t={threads}");
            assert_eq!(par.metrics, reference.metrics, "{scheduling:?} t={threads}");
        }
    }
}

#[test]
fn memory_violation_detected() {
    struct Hog;
    impl Machine for Hog {
        type Msg = Words;
        type Output = ();
        fn round(
            &mut self,
            _ctx: &MpcCtx,
            _inbox: &[(MachineId, Words)],
        ) -> Result<Vec<(MachineId, Words)>, MpcError> {
            Ok(Vec::new())
        }
        fn memory_words(&self) -> usize {
            1000
        }
        fn is_done(&self, _ctx: &MpcCtx) -> bool {
            true
        }
        fn output(&self, _ctx: &MpcCtx) {}
    }
    let err = MpcSimulator::new(64)
        .run_cfg(vec![Hog, Hog], &RunConfig::new())
        .unwrap_err();
    assert_eq!(
        err,
        MpcError::MemoryExceeded {
            machine: MachineId(0),
            used_words: 1000,
            limit_words: 64,
            round: 0
        }
    );
}

#[test]
fn send_volume_violation_detected() {
    struct Blaster {
        fired: bool,
    }
    impl Machine for Blaster {
        type Msg = Words;
        type Output = ();
        fn round(
            &mut self,
            ctx: &MpcCtx,
            _inbox: &[(MachineId, Words)],
        ) -> Result<Vec<(MachineId, Words)>, MpcError> {
            if ctx.id == MachineId(0) && !self.fired {
                self.fired = true;
                return Ok(vec![(MachineId(1), Words(0, 100))]);
            }
            Ok(Vec::new())
        }
        fn memory_words(&self) -> usize {
            1
        }
        fn is_done(&self, _ctx: &MpcCtx) -> bool {
            self.fired
        }
        fn output(&self, _ctx: &MpcCtx) {}
    }
    let err = MpcSimulator::new(64)
        .run_cfg(
            vec![Blaster { fired: false }, Blaster { fired: true }],
            &RunConfig::new(),
        )
        .unwrap_err();
    assert!(matches!(
        err,
        MpcError::SendVolumeExceeded { words: 100, .. }
    ));
}

#[test]
fn recv_volume_violation_detected() {
    // Many machines each send S/2 words to machine 0: each send is
    // legal, the aggregate at the receiver is not.
    struct Shouter;
    impl Machine for Shouter {
        type Msg = Words;
        type Output = ();
        fn round(
            &mut self,
            ctx: &MpcCtx,
            _inbox: &[(MachineId, Words)],
        ) -> Result<Vec<(MachineId, Words)>, MpcError> {
            if ctx.round == 0 && ctx.id != MachineId(0) {
                return Ok(vec![(MachineId(0), Words(0, 32))]);
            }
            Ok(Vec::new())
        }
        fn memory_words(&self) -> usize {
            1
        }
        fn is_done(&self, ctx: &MpcCtx) -> bool {
            ctx.round > 0
        }
        fn output(&self, _ctx: &MpcCtx) {}
    }
    let err = MpcSimulator::new(64)
        .run_cfg(
            (0..4).map(|_| Shouter).collect::<Vec<_>>(),
            &RunConfig::new(),
        )
        .unwrap_err();
    assert_eq!(
        err,
        MpcError::RecvVolumeExceeded {
            machine: MachineId(0),
            words: 96,
            limit_words: 64,
            round: 0
        }
    );
}

#[test]
fn illegal_machine_detected() {
    struct Stray;
    impl Machine for Stray {
        type Msg = Words;
        type Output = ();
        fn round(
            &mut self,
            ctx: &MpcCtx,
            _inbox: &[(MachineId, Words)],
        ) -> Result<Vec<(MachineId, Words)>, MpcError> {
            if ctx.id == MachineId(0) {
                return Ok(vec![(MachineId(9), Words(0, 1))]);
            }
            Ok(Vec::new())
        }
        fn memory_words(&self) -> usize {
            1
        }
        fn is_done(&self, _ctx: &MpcCtx) -> bool {
            false
        }
        fn output(&self, _ctx: &MpcCtx) {}
    }
    let err = MpcSimulator::new(64)
        .run_cfg(vec![Stray, Stray], &RunConfig::new())
        .unwrap_err();
    assert!(matches!(
        err,
        MpcError::IllegalMachine {
            to: MachineId(9),
            ..
        }
    ));
}

#[test]
fn round_limit_detected() {
    let err = MpcSimulator::new(64)
        .with_max_rounds(3)
        .run_cfg(ring(4, 1000), &RunConfig::new())
        .unwrap_err();
    assert_eq!(err, MpcError::RoundLimitExceeded { limit: 3 });
}

#[test]
fn parallel_errors_match_sequential() {
    struct Stray {
        id_to_err: usize,
    }
    impl Machine for Stray {
        type Msg = Words;
        type Output = ();
        fn round(
            &mut self,
            ctx: &MpcCtx,
            _inbox: &[(MachineId, Words)],
        ) -> Result<Vec<(MachineId, Words)>, MpcError> {
            if ctx.id.index() == self.id_to_err {
                return Ok(vec![(MachineId(99), Words(0, 1))]);
            }
            Ok(Vec::new())
        }
        fn memory_words(&self) -> usize {
            1
        }
        fn is_done(&self, _ctx: &MpcCtx) -> bool {
            false
        }
        fn output(&self, _ctx: &MpcCtx) {}
    }
    let mk = || (0..8).map(|_| Stray { id_to_err: 6 }).collect::<Vec<_>>();
    let seq = MpcSimulator::new(64)
        .run_cfg(mk(), &RunConfig::new())
        .unwrap_err();
    for threads in [2, 4] {
        let par = MpcSimulator::new(64)
            .run_cfg(mk(), &RunConfig::new().parallel(threads))
            .unwrap_err();
        assert_eq!(par, seq, "t={threads}");
    }
}

#[test]
fn zero_machines_trivial() {
    let report = MpcSimulator::new(64)
        .run_cfg(Vec::<Ring>::new(), &RunConfig::new())
        .unwrap();
    assert_eq!(report.metrics.rounds, 0);
    assert!(report.outputs.is_empty());
}

#[test]
fn low_space_words_scaling() {
    assert_eq!(low_space_words(0, 0.5), 64);
    assert_eq!(low_space_words(10_000, 0.5), 100);
    assert!(low_space_words(1_000_000, 0.6) > low_space_words(10_000, 0.6));
}

#[test]
fn run_with_dispatches_both_engines() {
    for engine in [
        Engine::Sequential,
        Engine::Parallel { threads: 3 },
        Engine::parallel_auto(),
    ] {
        let report = MpcSimulator::new(64)
            .run_cfg(ring(8, 2), &RunConfig::new().engine(engine))
            .unwrap();
        assert_eq!(report.outputs[0], 16, "{engine:?}");
    }
}
