//! Lemma 29: randomized estimation of 2-hop set sizes in CONGEST.
//!
//! To simulate the \[CD18\] dominating-set algorithm on `G²`, every vertex
//! needs `|N²[v] ∩ U|` for a dynamic vertex set `U` — exactly the kind of
//! quantity congestion makes expensive to compute exactly. The paper's
//! estimator (following Mosk-Aoyama–Shah) has every vertex of `U` draw
//! `r = Θ(log n)` independent `Exp(1)` variables; minima aggregate over
//! paths (two rounds of min-forwarding reach the 2-hop neighborhood), and
//! `r / Σ_j W̃_j` concentrates to the set size within `(1 ± ε)`.
//!
//! This module provides both the bare math ([`estimate_from_minima`]) and
//! the distributed algorithm ([`TwoHopEstimator`]).

use pga_congest::{Algorithm, Ctx, MsgSize, RunConfig, Simulator};
use pga_graph::{Graph, NodeId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Draws one `Exp(1)` sample.
pub fn exp_sample(rng: &mut StdRng) -> f64 {
    // Inverse CDF; u ∈ (0, 1].
    let u: f64 = 1.0 - rng.random::<f64>();
    -u.ln()
}

/// The Mosk-Aoyama–Shah estimate from `r` independent minima:
/// `r / Σ_j W̃_j`, or 0 when no element contributed (all minima infinite).
pub fn estimate_from_minima(minima: &[f64]) -> f64 {
    if minima.iter().any(|w| !w.is_finite()) {
        return 0.0;
    }
    let sum: f64 = minima.iter().sum();
    if sum <= 0.0 {
        return 0.0;
    }
    minima.len() as f64 / sum
}

/// A float sample message; counted as one `O(log n)`-word payload
/// (the paper quantizes samples to `O(log n)` bits; we transmit an `f64`
/// and charge 64 bits).
#[derive(Clone, Copy, Debug)]
pub struct Sample(pub f64);

impl MsgSize for Sample {
    fn size_bits(&self, _id_bits: usize) -> usize {
        64
    }
}

/// Distributed 2-hop estimator: after `2r + 1` rounds every vertex `v`
/// outputs an estimate of `|N²[v] ∩ U|` (closed 2-hop neighborhood).
pub struct TwoHopEstimator {
    in_u: bool,
    r: usize,
    rng: StdRng,
    /// Current iteration's own sample (if in U).
    own: Option<f64>,
    /// Min over N¹[v] ∩ U for the current iteration.
    min1: f64,
    /// Completed minima over N²[v] ∩ U.
    minima: Vec<f64>,
    pending_min2: f64,
}

impl TwoHopEstimator {
    /// Creates the estimator state for one node.
    pub fn new(in_u: bool, r: usize, seed: u64, id: usize) -> Self {
        TwoHopEstimator {
            in_u,
            r,
            rng: StdRng::seed_from_u64(seed ^ (id as u64).wrapping_mul(0x517cc1b727220a95)),
            own: None,
            min1: f64::INFINITY,
            minima: Vec::new(),
            pending_min2: f64::INFINITY,
        }
    }
}

impl Algorithm for TwoHopEstimator {
    type Msg = Sample;
    type Output = f64;

    fn round(&mut self, ctx: &Ctx, inbox: &[(NodeId, Sample)]) -> Vec<(NodeId, Sample)> {
        let mut out = Vec::new();
        let phase = ctx.round % 2;
        if phase == 0 {
            // Close the previous iteration: inbox holds 1-hop minima.
            if ctx.round > 0 {
                let mut m2 = self.pending_min2;
                for (_f, s) in inbox {
                    m2 = m2.min(s.0);
                }
                self.minima.push(m2);
            }
            if self.minima.len() >= self.r {
                return out;
            }
            // Start iteration: U-members draw and broadcast a sample.
            self.min1 = f64::INFINITY;
            self.own = None;
            if self.in_u {
                let w = exp_sample(&mut self.rng);
                self.own = Some(w);
                self.min1 = w;
                for &v in ctx.graph_neighbors {
                    out.push((v, Sample(w)));
                }
            }
        } else {
            // Aggregate 1-hop minima and re-broadcast.
            for (_f, s) in inbox {
                self.min1 = self.min1.min(s.0);
            }
            // min over N¹[v]∩U is now in min1; remember it as the start of
            // our own 2-hop min, and forward it.
            self.pending_min2 = self.min1;
            if self.min1.is_finite() {
                for &v in ctx.graph_neighbors {
                    out.push((v, Sample(self.min1)));
                }
            }
        }
        out
    }

    fn is_done(&self, _ctx: &Ctx) -> bool {
        self.minima.len() >= self.r
    }

    fn can_skip(&self, _ctx: &Ctx) -> bool {
        // The phase-0 arm pushes the pending 2-hop minimum before the
        // done check, so even a finished node's `round` mutates state.
        // (All nodes finish in lockstep, so this never costs anything.)
        false
    }

    fn output(&self, _ctx: &Ctx) -> f64 {
        estimate_from_minima(&self.minima)
    }
}

/// Runs the estimator over `g` for the membership vector `in_u`, with `r`
/// samples, returning each vertex's estimate of `|N²[v] ∩ U|`.
///
/// # Panics
///
/// Panics if the simulation violates the model (it cannot, by
/// construction) — surfaced as an `expect` for API simplicity.
pub fn estimate_two_hop_sizes(g: &Graph, in_u: &[bool], r: usize, seed: u64) -> Vec<f64> {
    estimate_two_hop_sizes_cfg(g, in_u, r, seed, &RunConfig::new())
}

/// [`estimate_two_hop_sizes`] under an explicit [`RunConfig`] (engine,
/// thread count, scheduling policy).
///
/// Every configuration is bit-identical — the same `seed` yields the
/// same estimates under any configuration; a parallel engine simply
/// runs large instances faster.
///
/// # Panics
///
/// Panics if the simulation violates the model (it cannot, by
/// construction) — surfaced as an `expect` for API simplicity.
pub fn estimate_two_hop_sizes_cfg(
    g: &Graph,
    in_u: &[bool],
    r: usize,
    seed: u64,
    cfg: &RunConfig,
) -> Vec<f64> {
    let nodes = (0..g.num_nodes())
        .map(|i| TwoHopEstimator::new(in_u[i], r, seed, i))
        .collect();
    Simulator::congest(g)
        .run_cfg(nodes, cfg)
        .expect("estimator respects the CONGEST model")
        .outputs
}

/// The exact quantity being estimated: `|N²[v] ∩ U|` for every `v`.
///
/// One [`TwoHopScratch`](pga_graph::bmm::TwoHopScratch) is shared
/// across all vertices, so the bitset register and the heavy-row cache
/// are built once instead of per query.
pub fn exact_two_hop_sizes(g: &Graph, in_u: &[bool]) -> Vec<usize> {
    let mut scratch = pga_graph::bmm::TwoHopScratch::new(g);
    let mut row: Vec<NodeId> = Vec::new();
    g.nodes()
        .map(|v| {
            row.clear();
            scratch.row_into(g, v, &mut row);
            usize::from(in_u[v.index()]) + row.iter().filter(|u| in_u[u.index()]).count()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pga_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn exp_sample_positive_and_mean_one() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| exp_sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn estimate_from_minima_edge_cases() {
        assert_eq!(estimate_from_minima(&[f64::INFINITY, 1.0]), 0.0);
        assert_eq!(estimate_from_minima(&[]), 0.0);
        // r = 2 samples with Σ = 1.0 estimate a set of size 2.
        let est = estimate_from_minima(&[0.5, 0.5]);
        assert!((est - 2.0).abs() < 1e-12);
    }

    #[test]
    fn estimator_concentrates_on_star() {
        // Star: the center's closed 2-hop set is everything; a leaf's too.
        let g = generators::star(40);
        let in_u = vec![true; 40];
        let est = estimate_two_hop_sizes(&g, &in_u, 600, 7);
        for (v, e) in est.iter().enumerate() {
            assert!((e - 40.0).abs() < 8.0, "node {v}: estimate {e} far from 40");
        }
    }

    #[test]
    fn estimator_concentrates_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = generators::connected_gnp(35, 0.08, &mut rng);
        let in_u: Vec<bool> = (0..35).map(|i| i % 2 == 0).collect();
        let exact = exact_two_hop_sizes(&g, &in_u);
        let est = estimate_two_hop_sizes(&g, &in_u, 800, 13);
        for v in 0..35 {
            let (e, x) = (est[v], exact[v] as f64);
            if x == 0.0 {
                assert_eq!(e, 0.0, "node {v}");
            } else {
                assert!((e - x).abs() / x < 0.30, "node {v}: {e} vs exact {x}");
            }
        }
    }

    #[test]
    fn empty_u_gives_zero() {
        let g = generators::cycle(8);
        let est = estimate_two_hop_sizes(&g, &[false; 8], 50, 3);
        assert!(est.iter().all(|&e| e == 0.0));
    }

    #[test]
    fn rounds_are_2r_plus_constant() {
        let g = generators::cycle(10);
        let nodes = (0..10)
            .map(|i| TwoHopEstimator::new(true, 25, 3, i))
            .collect::<Vec<_>>();
        let report = Simulator::congest(&g)
            .run_cfg(nodes, &RunConfig::new())
            .unwrap();
        assert!(
            report.metrics.rounds <= 2 * 25 + 2,
            "{} rounds",
            report.metrics.rounds
        );
    }

    #[test]
    fn singleton_u_detected_within_two_hops() {
        // Path 0-1-2-3-4 with U = {0}: estimates must be ≈1 within 2 hops
        // of 0 and exactly 0 beyond.
        let g = generators::path(5);
        let mut in_u = vec![false; 5];
        in_u[0] = true;
        let est = estimate_two_hop_sizes(&g, &in_u, 400, 21);
        for (v, &e) in est.iter().enumerate().take(3) {
            assert!((e - 1.0).abs() < 0.4, "node {v}: {e}");
        }
        for (v, &e) in est.iter().enumerate().skip(3) {
            assert_eq!(e, 0.0, "node {v} is 3+ hops away");
        }
    }
}

#[cfg(test)]
mod msg_size_tests {
    use super::*;
    use crate::msg_budget::fits_default_bandwidth;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn sample_fits_default_bandwidth(bits in any::<u64>()) {
            let s = Sample(f64::from_bits(bits));
            fits_default_bandwidth(&s)?;
            // The full `f64` is charged, whatever its value.
            prop_assert_eq!(s.size_bits(1), 64);
        }
    }
}
