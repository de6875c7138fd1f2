//! Graph substrate for the power-graphs project.
//!
//! This crate provides the undirected-graph foundation that every other
//! crate in the workspace builds on:
//!
//! * [`Graph`] — a compact, immutable adjacency-list representation with a
//!   mutable [`GraphBuilder`] companion,
//! * [`power`] — computation of graph powers `G^r` (in particular the square
//!   `G²` that the PODC 2020 paper *Distributed Approximation on Power
//!   Graphs* studies),
//! * [`bmm`] — bitset-blocked Boolean matrix multiplication: the fast `G²`
//!   materialization kernel (packed `u64` row bitmaps, degree-capped sparse
//!   path, sharded variant) that [`power::square`] routes to above a size
//!   threshold,
//! * [`partition`] — cost-balanced contiguous partitioning
//!   ([`balanced_partition`]), shared by the BMM kernel and the round engines
//!   in `pga-runtime`,
//! * [`generators`] — deterministic and seeded-random graph families used by
//!   the test suite and the benchmark harness,
//! * [`traversal`] — BFS, connected components and distance computations,
//! * [`matching`] — maximal matchings (the classic 2-approximation substrate
//!   for vertex cover),
//! * [`cover`] — validity checks for vertex covers, dominating sets and
//!   independent sets on `G` and on `G^r`,
//! * [`subgraph`] — induced subgraphs with node-index mappings,
//! * [`weights`] — vertex weight vectors for the weighted problem variants.
//!
//! # Example
//!
//! ```
//! use pga_graph::{Graph, NodeId};
//! use pga_graph::power::square;
//!
//! // A path on 5 vertices: 0 - 1 - 2 - 3 - 4
//! let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
//! let g2 = square(&g);
//!
//! // In G², vertices at distance two become adjacent.
//! assert!(g2.has_edge(NodeId(0), NodeId(2)));
//! assert!(!g2.has_edge(NodeId(0), NodeId(3)));
//! assert_eq!(g2.num_edges(), 4 + 3);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod bmm;
pub mod cover;
pub mod generators;
mod graph;
pub mod io;
pub mod matching;
pub mod partition;
pub mod power;
pub mod properties;
pub mod subgraph;
pub mod traversal;
pub mod weights;

pub use graph::{Graph, GraphBuilder, NodeId};
pub use partition::balanced_partition;
pub use weights::VertexWeights;
