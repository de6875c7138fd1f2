//! Theorem 28: a randomized `O(log Δ)`-approximation for `G²`-MDS in
//! `poly log n` CONGEST rounds.
//!
//! The algorithm simulates \[CD18\] on `G²` while communicating on `G`. The
//! congestion obstacle is that a vertex cannot exactly count uncovered
//! vertices in its 2-hop neighborhood, nor exactly count votes arriving
//! from 2 hops away; both counts are replaced by the Lemma-29 exponential
//! estimator ([`crate::mds::estimator`]). Each phase of the simulated
//! algorithm costs `O(log n)` rounds:
//!
//! * **A. density estimation** (`2r+1` rounds) — every uncovered vertex
//!   participates in the estimator; every vertex `v` obtains
//!   `d̃_v ≈ |N²[v] ∩ U|` and its rounded density `ρ̃_v`;
//! * **B. candidate selection** (4 rounds) — max-forwarding of `ρ̃` over
//!   four hops; vertices locally maximal within `N⁴` stand;
//! * **C. rank spread** (2 rounds) — candidates draw ranks in `[n⁴]`;
//!   min-forwarding tells every uncovered vertex its best covering
//!   candidate;
//! * **D. vote estimation** (`2r` rounds) — voters run the estimator *per
//!   candidate in parallel*: intermediate vertices forward, to each
//!   neighboring candidate, only that candidate's minimum (the paper's
//!   congestion-avoiding trick — min-aggregation is idempotent, so
//!   duplicate relays are harmless);
//! * **E. join + cover** (3 rounds) — candidates whose estimated votes
//!   reach a constant fraction of their estimated coverage join the
//!   dominating set; a 1-bit wave marks everything within 2 hops covered.
//!
//! The vote threshold is `d̃/10` rather than the exact-count `|C_v|/8`,
//! absorbing the `(1 ± ε)` estimation slack; the candidate with the
//! globally smallest rank still always passes it w.h.p., so every phase
//! makes progress exactly as in \[CD18\].

use crate::mds::estimator::{estimate_from_minima, exp_sample};
use pga_congest::{Algorithm, Ctx, Metrics, MsgSize, RunConfig, SimError, Simulator};
use pga_graph::{Graph, NodeId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;

/// Messages of the Theorem 28 simulation.
#[derive(Clone, Debug)]
pub(crate) enum MdsMsg {
    /// Phase A: an `Exp(1)` sample from an uncovered vertex.
    EstSample(f64),
    /// Phase A: the 1-hop minimum, relayed.
    EstMin(f64),
    /// Phase B: the largest rounded density heard so far.
    RhoMax(u64),
    /// Phase C: a candidate's `(rank, id)`, direct or relayed minimum.
    CandRank(u64, u32),
    /// Phase D: a voter's sample, tagged with its chosen candidate.
    VoteSample(u32, f64),
    /// Phase D: the per-candidate minimum, relayed to that candidate.
    VoteRelay(f64),
    /// Phase E: "I joined the dominating set."
    Joined,
    /// Phase E: "some neighbor of mine joined" (2-hop coverage wave).
    CoverRelay,
}

impl MsgSize for MdsMsg {
    fn size_bits(&self, id_bits: usize) -> usize {
        3 + match self {
            MdsMsg::EstSample(_) | MdsMsg::EstMin(_) | MdsMsg::VoteRelay(_) => 64,
            MdsMsg::RhoMax(_) => 2 * id_bits + 1,
            MdsMsg::CandRank(_, _) => 5 * id_bits,
            MdsMsg::VoteSample(_, _) => id_bits + 64,
            MdsMsg::Joined | MdsMsg::CoverRelay => 0,
        }
    }
}

pub(crate) struct Theorem28Node {
    r: usize,
    rng: StdRng,
    covered: bool,
    in_ds: bool,

    // Phase A state.
    est_min1: f64,
    est_pending2: f64,
    est_minima: Vec<f64>,
    d_tilde: f64,
    rho: u64,

    // Phase B state.
    known_max: u64,
    is_candidate: bool,

    // Phase C state.
    my_rank: u64,
    /// Best (rank, id) covering candidate seen.
    best_candidate: Option<(u64, u32)>,
    /// Neighbors that announced candidacy (targets for vote relays).
    candidate_neighbors: Vec<NodeId>,

    // Phase D state.
    vote_bucket: f64,
    vote_minima: Vec<f64>,

    // Phase E staging.
    heard_joined: bool,
}

impl Theorem28Node {
    fn new(r: usize, seed: u64, id: usize) -> Self {
        Theorem28Node {
            r,
            rng: StdRng::seed_from_u64(seed ^ (id as u64).wrapping_mul(0xd1b54a32d192ed03)),
            covered: false,
            in_ds: false,
            est_min1: f64::INFINITY,
            est_pending2: f64::INFINITY,
            est_minima: Vec::new(),
            d_tilde: 0.0,
            rho: 0,
            known_max: 0,
            is_candidate: false,
            my_rank: 0,
            best_candidate: None,
            candidate_neighbors: Vec::new(),
            vote_bucket: f64::INFINITY,
            vote_minima: Vec::new(),
            heard_joined: false,
        }
    }

    /// Iteration length in rounds: phases A (2r+1), B (4), C (2), D (2r),
    /// E (3).
    fn iteration_len(&self) -> usize {
        4 * self.r + 10
    }
}

impl Algorithm for Theorem28Node {
    type Msg = MdsMsg;
    type Output = bool;

    fn round(&mut self, ctx: &Ctx, inbox: &[(NodeId, MdsMsg)]) -> Vec<(NodeId, MdsMsg)> {
        let r = self.r;
        let len = self.iteration_len();
        let t = ctx.round % len;
        let mut out = Vec::new();

        // ---- Ingest according to the sub-phase the *senders* were in.
        let mut vote_groups: HashMap<u32, f64> = HashMap::new();
        for (from, msg) in inbox {
            match msg {
                MdsMsg::EstSample(w) => self.est_min1 = self.est_min1.min(*w),
                MdsMsg::EstMin(w) => self.est_pending2 = self.est_pending2.min(*w),
                MdsMsg::RhoMax(m) => self.known_max = self.known_max.max(*m),
                MdsMsg::CandRank(rank, id) => {
                    let key = (*rank, *id);
                    if self.best_candidate.is_none_or(|b| key < b) {
                        self.best_candidate = Some(key);
                    }
                    // Direct announcements (phase C round 1) identify
                    // candidate neighbors; relays share the tag but carry
                    // id ≠ sender, so check.
                    if id == &from.0 && !self.candidate_neighbors.contains(from) {
                        self.candidate_neighbors.push(*from);
                    }
                }
                MdsMsg::VoteSample(cand, w) => {
                    let e = vote_groups.entry(*cand).or_insert(f64::INFINITY);
                    *e = e.min(*w);
                }
                MdsMsg::VoteRelay(w) => {
                    self.vote_bucket = self.vote_bucket.min(*w);
                }
                MdsMsg::Joined => {
                    self.covered = true;
                    self.heard_joined = true;
                }
                MdsMsg::CoverRelay => {
                    self.covered = true;
                }
            }
        }
        // Per-candidate mins: merge own, relay the rest.
        if !vote_groups.is_empty() {
            for (cand, w) in vote_groups {
                if cand == ctx.id.0 {
                    self.vote_bucket = self.vote_bucket.min(w);
                } else {
                    let c = NodeId(cand);
                    if self.candidate_neighbors.contains(&c) {
                        out.push((c, MdsMsg::VoteRelay(w)));
                    }
                }
            }
        }

        // ---- Act according to our own sub-phase.
        if t == 0 {
            // Iteration reset.
            self.est_minima.clear();
            self.est_min1 = f64::INFINITY;
            self.est_pending2 = f64::INFINITY;
            self.known_max = 0;
            self.is_candidate = false;
            self.best_candidate = None;
            self.candidate_neighbors.clear();
            self.vote_minima.clear();
            self.vote_bucket = f64::INFINITY;
            self.heard_joined = false;
        }

        if t <= 2 * r {
            // Phase A: estimation of |N²[v] ∩ U|.
            if t.is_multiple_of(2) {
                if t > 0 {
                    // Close sample j = t/2 - 1 (EstMin relays ingested).
                    self.est_minima.push(self.est_pending2);
                    self.est_pending2 = f64::INFINITY;
                }
                if t < 2 * r && !self.covered {
                    let w = exp_sample(&mut self.rng);
                    self.est_min1 = w;
                    for &v in ctx.graph_neighbors {
                        out.push((v, MdsMsg::EstSample(w)));
                    }
                }
                if t == 2 * r {
                    // Phase A done: compute the rounded density.
                    self.d_tilde = estimate_from_minima(&self.est_minima);
                    let dr = self.d_tilde.round() as u64;
                    self.rho = if dr == 0 { 0 } else { dr.next_power_of_two() };
                    self.known_max = self.rho;
                }
            } else {
                // Relay the 1-hop minimum.
                let m1 = self.est_min1;
                self.est_pending2 = self.est_pending2.min(m1);
                self.est_min1 = f64::INFINITY;
                if m1.is_finite() {
                    for &v in ctx.graph_neighbors {
                        out.push((v, MdsMsg::EstMin(m1)));
                    }
                }
            }
        } else if t <= 2 * r + 4 {
            // Phase B: max-forward ρ̃ for 4 rounds (t = 2r+1 .. 2r+4).
            if self.known_max > 0 {
                for &v in ctx.graph_neighbors {
                    out.push((v, MdsMsg::RhoMax(self.known_max)));
                }
            }
        } else if t == 2 * r + 5 {
            // Phase C round 1: candidacy and rank announcement. The final
            // RhoMax wave was ingested at the top of this round.
            self.is_candidate = self.rho > 0 && self.rho >= self.known_max;
            if self.is_candidate {
                self.my_rank = self.rng.random();
                let key = (self.my_rank, ctx.id.0);
                if self.best_candidate.is_none_or(|b| key < b) {
                    self.best_candidate = Some(key);
                }
                for &v in ctx.graph_neighbors {
                    out.push((v, MdsMsg::CandRank(self.my_rank, ctx.id.0)));
                }
            }
        } else if t == 2 * r + 6 {
            // Phase C round 2: relay the best (rank, id) seen.
            if let Some((rank, id)) = self.best_candidate {
                for &v in ctx.graph_neighbors {
                    out.push((v, MdsMsg::CandRank(rank, id)));
                }
            }
        } else if t >= 2 * r + 7 && t < 4 * r + 7 {
            // Phase D: per-candidate vote estimation, r samples, 2 rounds
            // each. Votes from uncovered vertices only.
            let dt = t - (2 * r + 7);
            if dt.is_multiple_of(2) {
                if dt > 0 {
                    // Close vote sample (relays ingested this round).
                    self.vote_minima.push(self.vote_bucket);
                    self.vote_bucket = f64::INFINITY;
                }
                if !self.covered {
                    if let Some((_rank, cand)) = self.best_candidate {
                        let w = exp_sample(&mut self.rng);
                        if cand == ctx.id.0 {
                            self.vote_bucket = self.vote_bucket.min(w);
                        }
                        for &v in ctx.graph_neighbors {
                            out.push((v, MdsMsg::VoteSample(cand, w)));
                        }
                    }
                }
            }
            // Odd dt rounds: relays were already emitted by the generic
            // ingest block at the top.
        } else if t == 4 * r + 7 {
            // Phase E round 1: close the last vote sample, decide, join.
            self.vote_minima.push(self.vote_bucket);
            self.vote_bucket = f64::INFINITY;
            if self.is_candidate && !self.in_ds {
                let votes = estimate_from_minima(&self.vote_minima);
                if votes > 0.0 && votes >= self.d_tilde / 10.0 {
                    self.in_ds = true;
                    self.covered = true;
                    for &v in ctx.graph_neighbors {
                        out.push((v, MdsMsg::Joined));
                    }
                }
            }
        } else if t == 4 * r + 8 {
            // Phase E round 2: 1-bit coverage wave.
            if self.heard_joined {
                for &v in ctx.graph_neighbors {
                    out.push((v, MdsMsg::CoverRelay));
                }
            }
        }
        // t == 4r + 9: ingest-only round; next round starts a new
        // iteration.

        out
    }

    fn is_done(&self, _ctx: &Ctx) -> bool {
        self.covered
    }

    fn can_skip(&self, _ctx: &Ctx) -> bool {
        // Covered vertices still participate: they relay votes, push
        // estimator samples, and reset per-iteration state at t = 0 —
        // none of which is a no-op. Never skippable.
        false
    }

    fn output(&self, _ctx: &Ctx) -> bool {
        self.in_ds
    }
}

/// Result of a Theorem 28 run.
#[derive(Clone, Debug)]
pub struct G2MdsResult {
    /// The dominating set of `G²` (membership vector).
    pub dominating_set: Vec<bool>,
    /// Simulation metrics.
    pub metrics: Metrics,
    /// Estimator samples per phase (`r = sample_factor · ⌈log₂ n⌉`).
    pub samples_per_phase: usize,
}

impl G2MdsResult {
    /// Size of the dominating set.
    pub fn size(&self) -> usize {
        self.dominating_set.iter().filter(|&&b| b).count()
    }
}

/// Runs Theorem 28's algorithm on `g` with the given seed.
///
/// `sample_factor` scales the estimator precision: `r = sample_factor ·
/// ⌈log₂ n⌉` samples per estimate (the paper's `Θ(log n)`); 8 is a solid
/// default, smaller values trade approximation quality for rounds.
///
/// # Errors
///
/// Propagates [`SimError`] on model violations.
///
/// # Example
///
/// ```
/// use pga_graph::generators;
/// use pga_graph::cover::is_dominating_set_on_square;
/// use pga_core::mds::congest_g2::g2_mds_congest;
///
/// let g = generators::grid(4, 4);
/// let r = g2_mds_congest(&g, 8, 42).unwrap();
/// assert!(is_dominating_set_on_square(&g, &r.dominating_set));
/// ```
pub fn g2_mds_congest(g: &Graph, sample_factor: usize, seed: u64) -> Result<G2MdsResult, SimError> {
    g2_mds_congest_cfg(g, sample_factor, seed, &RunConfig::new())
}

/// [`g2_mds_congest`] under an explicit [`RunConfig`] (engine, thread
/// count, scheduling policy).
///
/// Every configuration is bit-identical — the same `seed` yields the
/// same dominating set under any configuration; a parallel engine simply
/// runs large instances faster.
///
/// # Errors
///
/// Propagates [`SimError`] like [`g2_mds_congest`].
pub fn g2_mds_congest_cfg(
    g: &Graph,
    sample_factor: usize,
    seed: u64,
    cfg: &RunConfig,
) -> Result<G2MdsResult, SimError> {
    let n = g.num_nodes();
    if n == 0 {
        return Ok(G2MdsResult {
            dominating_set: Vec::new(),
            metrics: Metrics::default(),
            samples_per_phase: 0,
        });
    }
    let (nodes, r) = theorem28_nodes(g, sample_factor, seed);
    let report = Simulator::congest(g).run_cfg(nodes, cfg)?;
    Ok(G2MdsResult {
        dominating_set: report.outputs,
        metrics: report.metrics,
        samples_per_phase: r,
    })
}

/// Builds the per-node Theorem 28 states and the per-phase sample count
/// `r`, shared between the CONGEST entry points and the MPC variants
/// (`crate::mpc`) so both execute the exact same seeded algorithm.
pub(crate) fn theorem28_nodes(
    g: &Graph,
    sample_factor: usize,
    seed: u64,
) -> (Vec<Theorem28Node>, usize) {
    let n = g.num_nodes();
    let r = (sample_factor * pga_congest::id_bits(n)).max(4);
    ((0..n).map(|i| Theorem28Node::new(r, seed, i)).collect(), r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pga_exact::mds::mds_size;
    use pga_graph::cover::{is_dominating_set_on_square, set_size};
    use pga_graph::generators;
    use pga_graph::power::square;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn valid_on_families() {
        for g in [
            generators::star(12),
            generators::path(20),
            generators::cycle(15),
            generators::grid(4, 5),
        ] {
            let r = g2_mds_congest(&g, 6, 3).unwrap();
            assert!(
                is_dominating_set_on_square(&g, &r.dominating_set),
                "invalid on {g:?}"
            );
        }
    }

    #[test]
    fn star_needs_one_vertex() {
        let g = generators::star(20);
        let r = g2_mds_congest(&g, 8, 5).unwrap();
        assert!(is_dominating_set_on_square(&g, &r.dominating_set));
        // G² of a star is a clique: a single vertex dominates. The
        // randomized algorithm may take a couple, but not many.
        assert!(r.size() <= 3, "{} vertices for a clique", r.size());
    }

    #[test]
    fn approximation_within_log_bound() {
        let mut rng = StdRng::seed_from_u64(11);
        for seed in 0..4 {
            let g = generators::connected_gnp(24, 0.1, &mut rng);
            let r = g2_mds_congest(&g, 8, seed).unwrap();
            assert!(is_dominating_set_on_square(&g, &r.dominating_set));
            let g2 = square(&g);
            let opt = mds_size(&g2).max(1);
            let delta2 = g2.max_degree().max(2) as f64;
            let bound = 10.0 * (delta2.ln() + 2.0);
            assert!(
                set_size(&r.dominating_set) as f64 <= bound * opt as f64,
                "seed {seed}: {} vs opt {opt}",
                set_size(&r.dominating_set)
            );
        }
    }

    #[test]
    fn rounds_polylog_per_phase() {
        // Each phase costs O(log n) rounds; few phases needed on a star.
        let g = generators::star(16);
        let r = g2_mds_congest(&g, 6, 1).unwrap();
        let iter_len = 4 * r.samples_per_phase + 10;
        let phases = r.metrics.rounds.div_ceil(iter_len);
        assert!(phases <= 6, "{phases} phases on a star");
    }

    #[test]
    fn deterministic_given_seed() {
        let g = generators::grid(3, 4);
        let a = g2_mds_congest(&g, 6, 9).unwrap();
        let b = g2_mds_congest(&g, 6, 9).unwrap();
        assert_eq!(a.dominating_set, b.dominating_set);
    }

    #[test]
    fn isolated_vertices_join() {
        let g = pga_graph::Graph::empty(3);
        let r = g2_mds_congest(&g, 4, 2).unwrap();
        assert_eq!(r.size(), 3);
    }

    #[test]
    fn empty_graph() {
        let r = g2_mds_congest(&pga_graph::Graph::empty(0), 4, 0).unwrap();
        assert_eq!(r.size(), 0);
    }
}

#[cfg(test)]
mod msg_size_tests {
    use super::*;
    use crate::msg_budget::fits_default_bandwidth;
    use proptest::prelude::*;

    fn arb_f64_bits() -> impl Strategy<Value = f64> {
        any::<u64>().prop_map(f64::from_bits)
    }

    /// Every arm of [`MdsMsg`], with full-range payloads.
    fn arb_msg() -> impl Strategy<Value = MdsMsg> {
        prop_oneof![
            arb_f64_bits().prop_map(MdsMsg::EstSample),
            arb_f64_bits().prop_map(MdsMsg::EstMin),
            any::<u64>().prop_map(MdsMsg::RhoMax),
            (any::<u64>(), any::<u32>()).prop_map(|(r, id)| MdsMsg::CandRank(r, id)),
            (any::<u32>(), arb_f64_bits()).prop_map(|(c, x)| MdsMsg::VoteSample(c, x)),
            arb_f64_bits().prop_map(MdsMsg::VoteRelay),
            Just(MdsMsg::Joined),
            Just(MdsMsg::CoverRelay),
        ]
    }

    proptest! {
        #[test]
        fn mds_msg_fits_default_bandwidth(m in arb_msg()) {
            fits_default_bandwidth(&m)?;
        }
    }
}
