//! The algorithms of *Distributed Approximation on Power Graphs*
//! (Bar-Yehuda, Censor-Hillel, Maus, Pai, Pemmaraju — PODC 2020).
//!
//! Everything here solves a problem whose feasibility is defined on the
//! square `G²` of the input graph `G`, while communication (when
//! distributed) happens on `G` in the CONGEST or CONGESTED CLIQUE model:
//!
//! | Paper result | API |
//! |---|---|
//! | Thm 1 — `(1+ε)`-approx `G²`-MVC, `O(n/ε)` CONGEST rounds | [`mvc::congest::g2_mvc_congest`] |
//! | Thm 7 — `(1+ε)`-approx `G²`-MWVC, `O(n log n/ε)` rounds | [`mvc::weighted::g2_mwvc_congest`] |
//! | Cor 10 — deterministic CONGESTED CLIQUE `O(εn + 1/ε)` | [`mvc::clique_det::g2_mvc_clique_det`] |
//! | Thm 11 — randomized CONGESTED CLIQUE `O(log n + 1/ε)` | [`mvc::clique_rand::g2_mvc_clique_rand`] |
//! | Thm 12 — centralized 5/3-approximation | [`mvc::centralized::five_thirds_vertex_cover`] |
//! | Lem 6 — zero-round `(1 + 1/⌊r/2⌋)`-approx on `G^r` | [`mvc::trivial`] |
//! | Thm 28 — `O(log Δ)`-approx `G²`-MDS, polylog rounds | [`mds::congest_g2::g2_mds_congest`] |
//! | Lem 29 — 2-hop cardinality estimator | [`mds::estimator`] |
//!
//! # Example
//!
//! ```
//! use pga_graph::generators;
//! use pga_graph::cover::is_vertex_cover_on_square;
//! use pga_core::mvc::congest::{g2_mvc_congest, LocalSolver};
//!
//! let g = generators::clique_chain(4, 5);
//! let result = g2_mvc_congest(&g, 0.5, LocalSolver::Exact).unwrap();
//! assert!(is_vertex_cover_on_square(&g, &result.cover));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod mds;
pub mod mpc;
pub mod mvc;
pub mod sequential;

/// Test support: the CONGEST message bound every message type meets.
#[cfg(test)]
pub(crate) mod msg_budget {
    use pga_congest::{default_bandwidth_bits, id_bits, MsgSize};
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    /// Checks `m` at every id width a 32-bit node id allows: for
    /// `n = 2^b`, `b ∈ 1..=32`, its declared size fits the default
    /// bandwidth `B(n)` (so `check_message` accepts it), and the size
    /// never shrinks as `n` grows.
    pub fn fits_default_bandwidth<M: MsgSize + std::fmt::Debug>(
        m: &M,
    ) -> Result<(), TestCaseError> {
        let mut smaller = 0;
        for b in 1..=32 {
            let n = 1usize << b;
            let size = m.size_bits(id_bits(n));
            let limit = default_bandwidth_bits(n);
            prop_assert!(size <= limit, "{m:?}: {size} > {limit} bits at n = {n}");
            prop_assert!(size >= smaller, "{m:?}: shrinks to {size} bits at n = {n}");
            smaller = size;
        }
        Ok(())
    }
}
