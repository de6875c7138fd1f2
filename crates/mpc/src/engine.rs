//! The synchronous low-space MPC execution engine.
//!
//! The model: `M` machines, each holding at most `S` words of local
//! memory, communicate in synchronous rounds. In every round a machine
//! may send arbitrary point-to-point messages, but its total outgoing
//! volume and its total incoming volume are each capped at `S` words —
//! a machine cannot emit or absorb more than it can store. Violations
//! are typed [`MpcError`]s, mirroring `pga_congest::SimError`.
//!
//! The round loop itself lives in the shared [`pga_runtime`] kernel
//! (the same one that drives the CONGEST simulator); this module
//! supplies the MPC *model*: machine addressing, word charging with the
//! per-round send/receive caps, the memory-budget check, and the
//! mapping of the kernel's per-round accounting onto [`MpcMetrics`].

use crate::MpcMetrics;
use pga_congest::SimError;
use pga_runtime::{
    ActorId, Adversary, ExecModel, FaultStats, JsonlProbe, MsgSink, NoopProbe, Poll, Probe,
    RoundProfile, RunConfig, DEFAULT_MAX_ROUNDS,
};
use std::fmt;

/// Identifier of a machine in an MPC execution.
///
/// Machine identifiers are dense indices `0..M`, newtyped so vertex ids
/// ([`pga_graph::NodeId`]) and machine ids cannot be confused.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MachineId(pub u32);

impl MachineId {
    /// Returns the identifier as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Creates a `MachineId` from a `usize` index.
    ///
    /// # Panics
    ///
    /// Panics if `i` does not fit into `u32`.
    #[inline]
    pub fn from_index(i: usize) -> Self {
        MachineId(u32::try_from(i).expect("machine index exceeds u32::MAX"))
    }
}

impl ActorId for MachineId {
    #[inline]
    fn index(self) -> usize {
        MachineId::index(self)
    }
    #[inline]
    fn from_index(i: usize) -> Self {
        MachineId::from_index(i)
    }
}

impl fmt::Debug for MachineId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

impl fmt::Display for MachineId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Size accounting for MPC messages, in 64-bit words — the historical
/// MPC name for the runtime-level [`pga_runtime::MsgCost`] trait.
///
/// The engine charges [`size_words`](pga_runtime::MsgCost::size_words),
/// flooring at 1 even for declared-zero payloads (a message occupies an
/// envelope). Implementors also state
/// [`size_bits`](pga_runtime::MsgCost::size_bits), which keeps the bit
/// and word accountings of one message type in a single impl.
pub use pga_runtime::MsgCost as WordSize;

/// Per-machine view of the execution, passed to every [`Machine`]
/// callback.
#[derive(Debug)]
pub struct MpcCtx {
    /// This machine's identifier.
    pub id: MachineId,
    /// Total number of machines `M` (globally known).
    pub machines: usize,
    /// Current round number, starting at 0.
    pub round: usize,
    /// The per-machine memory budget `S`, in words.
    pub memory_words: usize,
}

impl MpcCtx {
    /// Whether this machine may address `to`: any other in-range machine
    /// (MPC communication is all-to-all).
    pub fn can_send(&self, to: MachineId) -> bool {
        to.index() < self.machines && to != self.id
    }
}

/// A machine-local program, written as a per-machine state machine —
/// the MPC analogue of `pga_congest::Algorithm`.
///
/// The simulator calls [`Machine::round`] once per machine per round (in
/// machine-id order, though well-formed programs must not depend on
/// that), delivering the messages sent to this machine in the previous
/// round sorted by sender. The run ends when every machine reports
/// [`Machine::is_done`] and no messages are in flight.
pub trait Machine {
    /// Message type exchanged by this program.
    type Msg: Clone + WordSize;
    /// Per-machine output produced at the end of the run.
    type Output;

    /// Executes one round: consume the inbox, return the outbox.
    ///
    /// Unlike CONGEST there is no per-link bandwidth or one-message-per-
    /// destination rule — any number of messages to any machines — but
    /// the engine enforces the per-round I/O caps (total sent and total
    /// received each at most `S` words per machine) and the memory
    /// budget ([`Machine::memory_words`] at most `S` after every round).
    ///
    /// Programs may abort the run with their own [`MpcError`] (the
    /// CONGEST adapter propagates `SimError`s this way).
    ///
    /// # Errors
    ///
    /// Returns an [`MpcError`] to abort the whole execution.
    fn round(
        &mut self,
        ctx: &MpcCtx,
        inbox: &[(MachineId, Self::Msg)],
    ) -> Result<Vec<(MachineId, Self::Msg)>, MpcError>;

    /// The machine's current local memory footprint in words.
    ///
    /// Checked against the budget `S` before round 0 and after every
    /// round. Self-declared (the simulator cannot introspect arbitrary
    /// state), so implementations must account for their resident data —
    /// the provided machines charge adjacency, per-vertex state, and
    /// ghost tables.
    fn memory_words(&self) -> usize;

    /// Whether this machine has terminated (quiescent and output-ready).
    fn is_done(&self, ctx: &MpcCtx) -> bool;

    /// Whether the engine may *skip* this machine's [`Machine::round`]
    /// call in rounds where its inbox is empty (the
    /// [`Scheduling::ActiveSet`](pga_runtime::Scheduling::ActiveSet) policy).
    ///
    /// **Contract:** if `can_skip` returns `true` and the machine's
    /// inbox is empty, `round` must be a pure no-op — no state mutation
    /// (including the declared [`Machine::memory_words`] footprint), an
    /// empty outbox, and `Ok` — and `can_skip` must stay `true`, and
    /// `is_done` unchanged, for the unchanged state until a message
    /// arrives: the engine stops re-polling a skippable machine with an
    /// empty inbox, so neither verdict may depend on `ctx.round`.
    /// Skipping a call that would have done nothing is unobservable, so
    /// both scheduling policies stay bit-identical.
    ///
    /// A machine that is not done may report `true` while it only waits
    /// for mail: it sleeps until a message arrives and keeps the run
    /// open meanwhile. One that must act on the clock alone must report
    /// `false` until done. A machine that hosts other state machines
    /// (the CONGEST adapter's shard) may report `true` when none of them
    /// would act; it must then keep any per-round accounting by
    /// `ctx.round` rather than by counting its own calls. The default
    /// (`is_done`) satisfies the contract for plain state machines that
    /// go quiet once finished; programs whose `round` has residual
    /// per-cycle side effects (the ruling set's ghost-table resets)
    /// override this to return `false` and are then simply never
    /// skipped.
    fn can_skip(&self, ctx: &MpcCtx) -> bool {
        self.is_done(ctx)
    }

    /// The machine's final output.
    fn output(&self, ctx: &MpcCtx) -> Self::Output;
}

/// Result of a completed MPC run: every machine's output, indexed by
/// machine id, and the run's resource [`MpcMetrics`].
pub type MpcReport<O> = pga_runtime::Run<O, MpcMetrics>;

/// Errors that abort an MPC execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MpcError {
    /// A machine addressed a message to itself or out of range.
    IllegalMachine {
        /// Sending machine.
        from: MachineId,
        /// Intended destination.
        to: MachineId,
        /// Round in which the violation occurred.
        round: usize,
    },
    /// A machine's declared memory exceeded the budget `S`.
    MemoryExceeded {
        /// The offending machine.
        machine: MachineId,
        /// Declared footprint in words.
        used_words: usize,
        /// The budget `S` in words.
        limit_words: usize,
        /// Round after which the violation was detected (0 for the
        /// pre-round-0 check of the initial state).
        round: usize,
    },
    /// A machine sent more than `S` words in one round.
    SendVolumeExceeded {
        /// The offending machine.
        machine: MachineId,
        /// Words it attempted to send.
        words: usize,
        /// The budget `S` in words.
        limit_words: usize,
        /// Round in which the violation occurred.
        round: usize,
    },
    /// A machine was addressed more than `S` words in one round.
    RecvVolumeExceeded {
        /// The overwhelmed machine.
        machine: MachineId,
        /// Words addressed to it.
        words: usize,
        /// The budget `S` in words.
        limit_words: usize,
        /// Round in which the violation occurred.
        round: usize,
    },
    /// The round budget was exhausted before all machines terminated.
    RoundLimitExceeded {
        /// The limit that was hit.
        limit: usize,
    },
    /// A program precondition on the input was violated (e.g. the
    /// memory budget cannot host the highest-degree vertex).
    PreconditionViolated {
        /// Human-readable description of the violated precondition.
        what: &'static str,
    },
    /// The simulated CONGEST algorithm violated the CONGEST model
    /// (raised by the adapter, wrapping the exact `SimError` the CONGEST
    /// engines would raise).
    Congest(SimError),
}

impl fmt::Display for MpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MpcError::IllegalMachine { from, to, round } => {
                write!(
                    f,
                    "round {round}: {from:?} addressed invalid machine {to:?}"
                )
            }
            MpcError::MemoryExceeded {
                machine,
                used_words,
                limit_words,
                round,
            } => write!(
                f,
                "round {round}: {machine:?} holds {used_words} words > S = {limit_words}"
            ),
            MpcError::SendVolumeExceeded {
                machine,
                words,
                limit_words,
                round,
            } => write!(
                f,
                "round {round}: {machine:?} sent {words} words > S = {limit_words}"
            ),
            MpcError::RecvVolumeExceeded {
                machine,
                words,
                limit_words,
                round,
            } => write!(
                f,
                "round {round}: {machine:?} was sent {words} words > S = {limit_words}"
            ),
            MpcError::RoundLimitExceeded { limit } => {
                write!(f, "round limit {limit} exceeded without termination")
            }
            MpcError::PreconditionViolated { what } => {
                write!(f, "program precondition violated: {what}")
            }
            MpcError::Congest(e) => write!(f, "simulated CONGEST violation: {e}"),
        }
    }
}

impl std::error::Error for MpcError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MpcError::Congest(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for MpcError {
    fn from(e: SimError) -> Self {
        MpcError::Congest(e)
    }
}

/// The per-machine cost estimate the sharded engine balances on: the
/// machine's declared resident words (its adjacency, per-vertex state,
/// and ghost tables dominate its per-round message work), floored at 1
/// so empty machines still count as actors.
fn machine_cost<A: Machine>(machine: &A) -> u64 {
    machine.memory_words().max(1) as u64
}

/// The per-machine memory budget `S = max(floor, c · n^δ)` in words.
///
/// `δ ∈ (0, 1)` is the low-space exponent (the literature's sublinear
/// regime); the floor keeps tiny instances runnable (a budget below a
/// few cache lines is not a meaningful machine).
pub fn low_space_words(n: usize, delta: f64) -> usize {
    assert!(delta > 0.0 && delta < 1.0, "δ must be in (0, 1)");
    ((n as f64).powf(delta).ceil() as usize).max(64)
}

/// The MPC execution driver.
///
/// Construct with [`MpcSimulator::new`], tune with the builder-style
/// setters, and run machine programs with [`MpcSimulator::run_cfg`].
#[derive(Clone, Copy, Debug)]
pub struct MpcSimulator {
    memory_words: usize,
    max_rounds: usize,
}

/// The [`ExecModel`] instantiation that turns the shared round kernel
/// into the MPC engine: word charging with the send cap, the
/// receive-volume tally, the per-machine memory-budget check, and
/// [`MpcMetrics`] accumulation (including the per-round I/O profile).
struct MpcModel<'s, A> {
    sim: &'s MpcSimulator,
    /// Total machine count `M` (the `nodes` vector length, fixed per run).
    machines: usize,
    _machine: std::marker::PhantomData<fn(A)>,
}

impl<A: Machine> MpcModel<'_, A> {
    fn ctx(&self, id: MachineId, round: usize) -> MpcCtx {
        MpcCtx {
            id,
            machines: self.machines,
            round,
            memory_words: self.sim.memory_words,
        }
    }

    /// Checks one machine's declared memory against the budget.
    fn check_memory(&self, machine: &A, id: MachineId, round: usize) -> Result<usize, MpcError> {
        let used = machine.memory_words();
        if used > self.sim.memory_words {
            return Err(MpcError::MemoryExceeded {
                machine: id,
                used_words: used,
                limit_words: self.sim.memory_words,
                round,
            });
        }
        Ok(used)
    }

    /// Validates one outgoing message against the model — destination in
    /// range, running send volume within `S` — and returns its charged
    /// word size (at least 1: the envelope). Mirrors
    /// `pga_congest::check_message`.
    fn charge_message(
        &self,
        ctx: &MpcCtx,
        to: MachineId,
        msg: &A::Msg,
        sent: &mut usize,
    ) -> Result<usize, MpcError> {
        if !ctx.can_send(to) {
            return Err(MpcError::IllegalMachine {
                from: ctx.id,
                to,
                round: ctx.round,
            });
        }
        let w = msg.size_words().max(1);
        *sent += w;
        if *sent > self.sim.memory_words {
            return Err(MpcError::SendVolumeExceeded {
                machine: ctx.id,
                words: *sent,
                limit_words: self.sim.memory_words,
                round: ctx.round,
            });
        }
        Ok(w)
    }
}

impl<A: Machine> ExecModel for MpcModel<'_, A> {
    type Id = MachineId;
    type Node = A;
    type Msg = A::Msg;
    type Output = A::Output;
    type Error = MpcError;
    type Metrics = MpcMetrics;
    type SendScratch = usize;

    const TRACK_RECV: bool = true;

    fn pre_run(&self, nodes: &[A], metrics: &mut MpcMetrics) -> Result<(), MpcError> {
        // The initial partition must already fit the budget.
        for (i, machine) in nodes.iter().enumerate() {
            let used = self.check_memory(machine, MachineId::from_index(i), 0)?;
            metrics.peak_memory_words = metrics.peak_memory_words.max(used);
        }
        Ok(())
    }

    fn actor_cost(&self, node: &A, _idx: usize) -> u64 {
        machine_cost(node)
    }

    fn poll(&self, node: &A, idx: usize, round: usize) -> Poll {
        let ctx = self.ctx(MachineId::from_index(idx), round);
        Poll {
            done: node.is_done(&ctx),
            skippable: node.can_skip(&ctx),
        }
    }

    fn output(&self, node: &A, idx: usize, round: usize) -> A::Output {
        node.output(&self.ctx(MachineId::from_index(idx), round))
    }

    fn round_limit_error(&self, limit: usize) -> MpcError {
        MpcError::RoundLimitExceeded { limit }
    }

    fn step<S: MsgSink<Self>>(
        &self,
        node: &mut A,
        idx: usize,
        round: usize,
        inbox: &[(MachineId, A::Msg)],
        sent: &mut usize,
        acc: &mut RoundProfile,
        sink: &mut S,
    ) -> Result<(), MpcError> {
        let ctx = self.ctx(MachineId::from_index(idx), round);
        let outbox = node.round(&ctx, inbox)?;
        *sent = 0;
        // Accumulate in locals and fold into the shard profile once per
        // machine, so the hot loop keeps its counters in registers.
        let mut messages = 0u64;
        let mut volume = 0u64;
        for (to, msg) in outbox {
            let w = self.charge_message(&ctx, to, &msg, sent)?;
            // The send-side cap (`sent`) charges the attempt; delivered
            // volume is charged by the copies that actually traverse
            // the network (always 1 on the clean engines; an
            // adversary's drop charges 0, a duplicate 2).
            let copies = sink.deliver(self, to, ctx.id, msg);
            messages += u64::from(copies);
            volume += u64::from(copies) * w as u64;
            // Telemetry only: a no-op unless a probe allocated the
            // histogram (word sizes, not bits, on this plane).
            acc.observe_size(w as u64, copies);
        }
        acc.messages += messages;
        acc.volume += volume;
        acc.peak_actor_out = acc.peak_actor_out.max(*sent);
        let used = self.check_memory(node, ctx.id, round)?;
        acc.peak_state = acc.peak_state.max(used);
        Ok(())
    }

    fn recv_charge(&self, msg: &A::Msg) -> usize {
        msg.size_words().max(1)
    }

    fn wire_charge(&self, msg: &A::Msg) -> u64 {
        msg.size_words().max(1) as u64
    }

    fn arq_header_charge(&self) -> u64 {
        // The per-link sequence number rides in one machine word.
        1
    }

    fn arq_ack_charge(&self) -> u64 {
        // A cumulative ack is one machine word.
        1
    }

    fn check_recv(&self, recv: &[usize], round: usize) -> Result<(), MpcError> {
        // Checked in machine order so both engines report the same
        // first violation.
        for (j, &w) in recv.iter().enumerate() {
            if w > self.sim.memory_words {
                return Err(MpcError::RecvVolumeExceeded {
                    machine: MachineId::from_index(j),
                    words: w,
                    limit_words: self.sim.memory_words,
                    round,
                });
            }
        }
        Ok(())
    }

    fn end_round(
        &self,
        acc: &RoundProfile,
        recv: &[usize],
        round: usize,
        metrics: &mut MpcMetrics,
    ) {
        metrics.messages += acc.messages;
        metrics.words += acc.volume;
        metrics.peak_memory_words = metrics.peak_memory_words.max(acc.peak_state);
        let round_io = acc
            .peak_actor_out
            .max(recv.iter().copied().max().unwrap_or(0));
        metrics.rounds = round + 1;
        metrics.peak_round_io_words = metrics.peak_round_io_words.max(round_io);
        metrics.io_profile.push(round_io);
    }

    fn finish(&self, metrics: &mut MpcMetrics, fault: &FaultStats, convergence_round: usize) {
        metrics.fault = *fault;
        metrics.convergence_round = convergence_round;
    }
}

impl MpcSimulator {
    /// An MPC simulator with per-machine budget `S = memory_words`.
    pub fn new(memory_words: usize) -> Self {
        MpcSimulator {
            memory_words,
            max_rounds: DEFAULT_MAX_ROUNDS,
        }
    }

    /// Overrides the safety round budget (default one million); a
    /// run's [`RunConfig::max_rounds`] overrides it in turn.
    pub fn with_max_rounds(mut self, max_rounds: usize) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// The per-machine memory budget `S` in words.
    pub fn memory_words(&self) -> usize {
        self.memory_words
    }

    /// The contiguous shard boundaries an explicit `threads` count
    /// gives: the cost-balanced partition of
    /// [`pga_runtime::balanced_partition`] over each machine's declared
    /// resident words. Exposed so benches and tests can inspect
    /// per-shard load; boundaries never affect outputs, only wall-clock
    /// balance.
    pub fn shard_boundaries<A: Machine>(&self, machines: &[A], threads: usize) -> Vec<usize> {
        let costs: Vec<u64> = machines.iter().map(machine_cost).collect();
        pga_runtime::balanced_partition(&costs, threads)
    }

    /// The [`ExecModel`] this simulator runs `machines` programs of type
    /// `A` under: what [`pga_runtime::execute`] and the deliberately
    /// naive [`pga_runtime::reference::run`] oracle drive.
    pub fn exec_model<A: Machine>(
        &self,
        machines: usize,
    ) -> impl ExecModel<
        Node = A,
        Msg = A::Msg,
        Output = A::Output,
        Error = MpcError,
        Metrics = MpcMetrics,
    > + use<'_, A> {
        MpcModel {
            sim: self,
            machines,
            _machine: std::marker::PhantomData,
        }
    }

    /// Runs `machines` (one program state per machine, indexed by id)
    /// to completion under a [`RunConfig`] (see
    /// [`pga_runtime::execute`]). Every configuration is bit-identical
    /// on a clean run: outputs, [`MpcMetrics`] and errors. With
    /// [`RunConfig::probe`] at its default, the run
    /// streams a trace to the path named by `PGA_TRACE`, if set.
    ///
    /// # Errors
    ///
    /// Returns an [`MpcError`] if a machine violates the memory or I/O
    /// budget, a program aborts, or the round budget is exhausted
    /// (which adversarially starved runs routinely do — bound it with
    /// [`RunConfig::max_rounds`]).
    pub fn run_cfg<A>(
        &self,
        machines: Vec<A>,
        cfg: &RunConfig,
    ) -> Result<MpcReport<A::Output>, MpcError>
    where
        A: Machine + Send,
        A::Msg: Send,
    {
        match JsonlProbe::from_run_config(cfg, "mpc") {
            Some(probe) => self.run_cfg_probed(machines, cfg, &probe),
            None => self.run_cfg_probed(machines, cfg, &NoopProbe),
        }
    }

    /// [`MpcSimulator::run_cfg`] with an explicit [`Probe`] attached
    /// (and [`RunConfig::probe`] ignored). The probe never changes
    /// outputs, [`MpcMetrics`], or errors (*observer neutrality*; see
    /// [`pga_runtime::probe`]); [`NoopProbe`] compiles every callback
    /// and timer away.
    ///
    /// # Errors
    ///
    /// Returns an [`MpcError`] like [`MpcSimulator::run_cfg`].
    pub fn run_cfg_probed<A, P>(
        &self,
        machines: Vec<A>,
        cfg: &RunConfig,
        probe: &P,
    ) -> Result<MpcReport<A::Output>, MpcError>
    where
        A: Machine + Send,
        A::Msg: Send,
        P: Probe,
    {
        self.execute(machines, cfg, None, probe)
    }

    /// [`MpcSimulator::run_cfg`] under an explicit [`Adversary`] in
    /// place of [`RunConfig::fault`] (and without a trace sink): custom
    /// oracles, recording ([`pga_runtime::SeededAdversary::recording`])
    /// and replay ([`pga_runtime::TraceAdversary`]), bit-identical for
    /// every engine. [`RunConfig::reliability`] still applies, with the
    /// ARQ plane running over `adversary`.
    ///
    /// # Errors
    ///
    /// Returns an [`MpcError`] like [`MpcSimulator::run_cfg`].
    pub fn run_adversary<A>(
        &self,
        machines: Vec<A>,
        cfg: &RunConfig,
        adversary: &dyn Adversary,
    ) -> Result<MpcReport<A::Output>, MpcError>
    where
        A: Machine + Send,
        A::Msg: Send,
    {
        self.execute(machines, cfg, Some(adversary), &NoopProbe)
    }

    fn execute<A, P>(
        &self,
        machines: Vec<A>,
        cfg: &RunConfig,
        adversary: Option<&dyn Adversary>,
        probe: &P,
    ) -> Result<MpcReport<A::Output>, MpcError>
    where
        A: Machine + Send,
        A::Msg: Send,
        P: Probe,
    {
        let cfg = RunConfig {
            max_rounds: Some(cfg.max_rounds.unwrap_or(self.max_rounds)),
            ..*cfg
        };
        let model = self.exec_model::<A>(machines.len());
        pga_runtime::execute_under(&model, machines, &cfg, adversary, probe)
    }
}
