//! **power-graphs** — a Rust reproduction of *Distributed Approximation on
//! Power Graphs* (Bar-Yehuda, Censor-Hillel, Maus, Pai, Pemmaraju —
//! PODC 2020, arXiv:2006.03746).
//!
//! The paper studies optimization problems whose feasibility lives on the
//! square `G²` of a communication network `G` — vertex cover and
//! dominating set — under the CONGEST model's `O(log n)`-bit-per-edge
//! bandwidth. This workspace implements everything the paper builds on or
//! contributes:
//!
//! * [`graph`] — the graph substrate (generators, powers `G^r`, checks);
//! * [`runtime`] — the shared synchronous round-execution kernel
//!   (per-actor inboxes, quiescence-aware scheduling, sequential +
//!   sharded executors) that both simulators instantiate;
//! * [`congest`] — a model-enforcing CONGEST / CONGESTED CLIQUE simulator;
//! * [`mpc`] — a resource-accounted low-space MPC simulator with a
//!   CONGEST-to-MPC adapter and a native `G²` 2-ruling-set algorithm;
//! * [`exact`] — exact branch-and-bound solvers and greedy baselines;
//! * [`algorithms`] — the paper's upper bounds: the `(1+ε)`-approximation
//!   for `G²`-MVC in `O(n/ε)` rounds (Thm 1), its weighted (Thm 7) and
//!   CONGESTED CLIQUE (Cor 10, Thm 11) variants, the centralized
//!   5/3-approximation (Thm 12), the zero-round power-graph
//!   approximation (Lem 6), and the `O(log Δ)` `G²`-MDS algorithm with
//!   2-hop estimation (Thm 28, Lem 29);
//! * [`lowerbounds`] — the lower-bound families of Figures 1–7 with
//!   exact-solver verification of the gadget lemmas.
//!
//! # Quickstart
//!
//! ```
//! use power_graphs::prelude::*;
//!
//! // A communication network: chained cliques.
//! let g = generators::clique_chain(4, 5);
//!
//! // (1+ε)-approximate minimum vertex cover of G², computed in the
//! // CONGEST model on G.
//! let result = g2_mvc_congest(&g, 0.5, LocalSolver::Exact).unwrap();
//! assert!(is_vertex_cover_on_square(&g, &result.cover));
//! println!("rounds: {}", result.total_rounds());
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub use pga_congest as congest;
pub use pga_core as algorithms;
pub use pga_exact as exact;
pub use pga_graph as graph;
pub use pga_lowerbounds as lowerbounds;
pub use pga_mpc as mpc;
pub use pga_runtime as runtime;

/// Commonly used items, re-exported for examples and quick experiments.
pub mod prelude {
    pub use pga_congest::{
        Engine, FaultSpec, FaultStats, FaultTrace, Metrics, ReliabilitySpec, RunConfig, Scheduling,
        Simulator, Topology,
    };
    pub use pga_core::mds::cd18::cd18_mds;
    pub use pga_core::mds::congest_g2::{g2_mds_congest, g2_mds_congest_cfg};
    pub use pga_core::mpc::{
        g2_mds_congest_mpc, g2_mds_congest_mpc_cfg, g2_mvc_congest_mpc, g2_mvc_congest_mpc_cfg,
        MpcExecution,
    };
    pub use pga_core::mvc::centralized::five_thirds_vertex_cover;
    pub use pga_core::mvc::clique_det::{g2_mvc_clique_det, g2_mvc_clique_det_cfg};
    pub use pga_core::mvc::clique_rand::{g2_mvc_clique_rand, g2_mvc_clique_rand_cfg};
    pub use pga_core::mvc::congest::{
        g2_mvc_congest, g2_mvc_congest_cfg, G2MvcResult, LocalSolver,
    };
    pub use pga_core::mvc::weighted::{g2_mwvc_congest, g2_mwvc_congest_cfg};
    pub use pga_exact::mds::{mds_size, solve_mds};
    pub use pga_exact::vc::{mvc_size, solve_mvc};
    pub use pga_exact::wvc::{mwvc_weight, solve_mwvc};
    pub use pga_graph::cover::{
        is_dominating_set, is_dominating_set_on_square, is_vertex_cover, is_vertex_cover_on_square,
        set_size, set_weight,
    };
    pub use pga_graph::power::{power, square};
    pub use pga_graph::{generators, Graph, GraphBuilder, NodeId, VertexWeights};
    pub use pga_mpc::{
        g2_ruling_set_mpc_auto, CongestOnMpc, MpcMetrics, MpcSimulator, RulingSetResult,
    };
}
