//! A resource-accounted simulator for the **low-space MPC** model
//! (Massively Parallel Computation), with a CONGEST-to-MPC adapter and
//! native MPC algorithms.
//!
//! The paper's `G²` algorithms are stated in CONGEST, but the closest
//! related work targets low-space MPC — deterministic MPC ruling sets
//! (Pai–Pemmaraju, arXiv:2205.12686) and component-stability in
//! low-space MPC (Czumaj–Davies–Parter, arXiv:2106.01880). This crate
//! adds that second execution model to the workspace:
//!
//! * [`MpcSimulator`] — `M` machines with an enforced per-machine memory
//!   budget `S = O(n^δ)` words, synchronous rounds, arbitrary
//!   point-to-point messaging with per-round send *and* receive volume
//!   each capped at `S` words per machine. Violations are typed
//!   [`MpcError`]s, mirroring `pga_congest::SimError`; delivery order is
//!   deterministic; [`MpcMetrics`] accounts rounds, peak machine memory,
//!   and total communication. Runs go through [`MpcSimulator::run_cfg`]
//!   and the round kernel `pga-congest` uses, bit-identical at every
//!   engine and thread count.
//! * [`CongestOnMpc`] — the adapter: vertex-partitions any existing
//!   [`pga_congest::Algorithm`] across machines and routes its messages
//!   through the MPC exchange, bit-identical to `Simulator::run_cfg`
//!   (outputs, CONGEST metrics, and errors) while additionally
//!   accounting the run against the MPC budgets.
//! * [`ruling_set`] — a native MPC algorithm: the greedy 2-ruling set of
//!   `G²` (à la Pai–Pemmaraju), an independent dominating set of the
//!   square usable as an alternative cover seed.
//!
//! # Example: FloodMax through the adapter
//!
//! ```
//! use pga_congest::primitives::FloodMax;
//! use pga_congest::{RunConfig, Simulator};
//! use pga_graph::{generators, NodeId};
//! use pga_mpc::CongestOnMpc;
//!
//! let g = generators::grid(4, 5);
//! let states = || (0..20).map(|i| FloodMax::new(NodeId::from_index(i))).collect();
//!
//! let cfg = RunConfig::new();
//! let congest = Simulator::congest(&g).run_cfg(states(), &cfg).unwrap();
//! let mpc = CongestOnMpc::congest(&g).run_cfg(states(), &cfg).unwrap();
//!
//! // Same outputs, same CONGEST metrics — plus MPC accounting.
//! assert_eq!(mpc.outputs, congest.outputs);
//! assert_eq!(mpc.congest, congest.metrics);
//! assert!(mpc.mpc.peak_memory_words > 0);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod adapter;
mod engine;
mod metrics;
mod util;

pub mod ruling_set;

pub use adapter::{
    adapter_vertex_cost, recommended_memory_words, AdapterReport, CongestOnMpc, CongestShard,
    RoutedBatch,
};
pub use engine::{
    low_space_words, Machine, MachineId, MpcCtx, MpcError, MpcReport, MpcSimulator, WordSize,
};
pub use metrics::MpcMetrics;
/// Fault-injection vocabulary of the adversarial execution plane
/// (shared with `pga-congest`), re-exported for the same reason.
pub use pga_congest::{
    Adversary, Fate, FaultEvent, FaultSpec, FaultStats, FaultTrace, ReliabilitySpec,
    SeededAdversary, TraceAdversary,
};
/// Runtime-level run vocabulary (shared with `pga-congest`), re-exported
/// so adapter callers can charge messages and build [`RunConfig`]s
/// without another dependency edge.
pub use pga_congest::{Engine, MsgCost, RunConfig, Scheduling};
/// Telemetry-plane vocabulary (shared with `pga-congest`), re-exported
/// so benches and tests can attach probes to
/// [`MpcSimulator::run_cfg_probed`] without another dependency edge.
pub use pga_congest::{
    JsonlProbe, NoopProbe, Probe, ProbeMode, RecordingProbe, RoundObs, SizeHist,
};
pub use ruling_set::{
    g2_ruling_set_mpc, g2_ruling_set_mpc_auto, g2_ruling_set_mpc_cfg, lex_first_g2_mis,
    recommended_ruling_set_memory_words, RulingSetResult,
};
