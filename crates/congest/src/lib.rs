//! A synchronous message-passing simulator for the **CONGEST** and
//! **CONGESTED CLIQUE** models.
//!
//! The PODC 2020 paper measures algorithms by the number of synchronous
//! rounds in which every vertex may send one `O(log n)`-bit message across
//! each incident communication link. This crate simulates exactly that
//! model and *enforces* its constraints:
//!
//! * one message per directed edge per round,
//! * every message at most `B` bits (configurable, default `Θ(log n)`),
//! * in [`Topology::Congest`] messages travel only along edges of the
//!   input graph; in [`Topology::CongestedClique`] any vertex may message
//!   any other, while the *input* graph is still available to each node as
//!   its local knowledge.
//!
//! Algorithms implement the [`Algorithm`] trait as explicit per-node state
//! machines; the [`Simulator`] drives them round by round, deterministic in
//! node ids, and reports [`Metrics`] (rounds, messages, bits, and the
//! per-round congestion profile).
//!
//! Every run goes through [`Simulator::run_cfg`], which hands the
//! [`RunConfig`] to the shared `pga_runtime` kernel: the [`Engine`]
//! picks one shard on the driving thread or several on worker threads
//! (rounds are barriers, while nodes within a round are embarrassingly
//! parallel), and every choice is **bit-identical**.
//!
//! # Example: flooding the maximum id (leader election)
//!
//! ```
//! use pga_congest::{Algorithm, Ctx, MsgSize, RunConfig, Simulator};
//! use pga_graph::{generators, NodeId};
//!
//! #[derive(Clone)]
//! struct Max(u32);
//! impl MsgSize for Max {
//!     fn size_bits(&self, id_bits: usize) -> usize { id_bits }
//! }
//!
//! struct Flood { best: u32, changed: bool, quiet: bool }
//! impl Algorithm for Flood {
//!     type Msg = Max;
//!     type Output = u32;
//!     fn round(&mut self, ctx: &Ctx, inbox: &[(NodeId, Max)]) -> Vec<(NodeId, Max)> {
//!         for (_, m) in inbox { if m.0 > self.best { self.best = m.0; self.changed = true; } }
//!         let send = ctx.round == 0 || self.changed;
//!         self.changed = false;
//!         self.quiet = !send;
//!         if send {
//!             ctx.graph_neighbors.iter().map(|&v| (v, Max(self.best))).collect()
//!         } else { Vec::new() }
//!     }
//!     fn is_done(&self, _ctx: &Ctx) -> bool { self.quiet }
//!     fn output(&self, _ctx: &Ctx) -> u32 { self.best }
//! }
//!
//! let g = generators::path(8);
//! let sim = Simulator::congest(&g);
//! let nodes = (0..8).map(|i| Flood { best: i, changed: false, quiet: false }).collect();
//! let report = sim.run_cfg(nodes, &RunConfig::new()).unwrap();
//! assert!(report.outputs.iter().all(|&b| b == 7));
//! // Information travels one hop per round: diameter rounds needed.
//! assert!(report.metrics.rounds >= 7);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod error;
mod metrics;
mod sim;

pub mod bmm;
pub mod primitives;

pub use bmm::{clique_bmm, default_cap_words, BmmBlock, CliqueBmm, G2Row};
pub use metrics::Metrics;
/// Re-exported so engine consumers (benches, tests) can inspect the
/// cost-balanced shard boundaries the parallel engine draws.
pub use pga_runtime::balanced_partition;
/// Fault-injection vocabulary of the adversarial execution plane,
/// re-exported so algorithm crates and benches can build [`FaultSpec`]s
/// and replay [`FaultTrace`]s without depending on `pga-runtime`
/// directly.
pub use pga_runtime::{
    Adversary, Fate, FaultEvent, FaultSpec, FaultStats, FaultTrace, ReliabilitySpec,
    SeededAdversary, TraceAdversary,
};
/// Runtime-level run vocabulary, re-exported so algorithm crates can
/// charge messages and build [`RunConfig`]s without depending on
/// `pga-runtime` directly.
pub use pga_runtime::{Engine, G2Prep, MsgCost, RunConfig, Scheduling, PARALLEL_MIN_NODES};
/// Telemetry-plane vocabulary ([`Probe`] and its stock
/// implementations), re-exported so benches and tests can attach probes
/// to [`Simulator::run_cfg_probed`] without depending on `pga-runtime`
/// directly.
pub use pga_runtime::{
    JsonlProbe, NoopProbe, Probe, ProbeMode, RecordingProbe, RoundObs, SizeHist,
};
pub use sim::{
    check_message, default_bandwidth_bits, id_bits, Algorithm, Ctx, MsgSize, Report, SendCheck,
    SimError, Simulator, Topology,
};
