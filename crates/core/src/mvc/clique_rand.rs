//! Theorem 11: a randomized `(1 + ε)`-approximation for `G²`-MVC in the
//! CONGESTED CLIQUE, in `O(log n + 1/ε)` rounds.
//!
//! Phase I replaces the sequential 2-hop symmetry breaking with the
//! randomized *voting scheme* (following \[JRS02\]/\[CD18\]): every candidate
//! draws a random rank in `[n⁴]`; every remaining vertex votes for its
//! highest-ranked candidate neighbor; a candidate that collects at least
//! `d_R(c)/8` votes is **successful** and its remaining neighborhood joins
//! the cover. The potential `Φ = Σ_c d_R(c)` drops by a constant factor
//! per iteration in expectation (Claim 1 of the paper), so `O(log n)`
//! iterations suffice w.h.p. Phase II is the clique upload of Corollary
//! 10.
//!
//! A candidate here is a vertex with `d_R(c) > 8/ε + 2`; consequently
//! Phase II still only uploads `O(n/ε)` edges, and every harvested voter
//! block is a `G²`-clique of size `> 1/ε`, preserving the `(1 + ε)`
//! accounting of Lemma 5.

use crate::mvc::clique_det::run_clique_phase2;
use crate::mvc::congest::G2MvcResult;
use crate::mvc::phase1::P1Output;
use crate::mvc::phase1_direct::merge_metrics;
use crate::mvc::remainder::LocalSolver;
use pga_congest::{
    clique_bmm, default_cap_words, Algorithm, Ctx, G2Prep, Metrics, MsgSize, RunConfig, SimError,
    Simulator,
};
use pga_graph::{Graph, NodeId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Messages of the randomized voting Phase I.
#[derive(Clone, Debug, PartialEq, Eq)]
enum VoteMsg {
    /// "I am a candidate with this random rank."
    Cand(u64),
    /// "You are my highest-ranked candidate neighbor: my vote."
    Vote,
    /// "I was successful; join S."
    JoinS,
    /// "I left R."
    LeftR,
}

impl MsgSize for VoteMsg {
    fn size_bits(&self, id_bits: usize) -> usize {
        2 + match self {
            VoteMsg::Cand(_) => 4 * id_bits, // a rank in [n⁴]
            _ => 0,
        }
    }
}

struct VotePhase1 {
    /// Candidacy threshold: eligible while `d_R > 8/ε + 2`.
    threshold: f64,
    rng: StdRng,
    in_c: bool,
    in_s: bool,
    r_neighbors: Vec<NodeId>,
    candidate_now: bool,
    votes: usize,
    initialized: bool,
    /// Phase deadline in rounds (see `Phase1::with_deadline`). The
    /// voting phase is randomized — only w.h.p. `O(log n)` iterations —
    /// so under message loss a deadline is what guarantees termination.
    deadline: Option<usize>,
    timed_out: bool,
}

impl VotePhase1 {
    fn new(eps: f64, seed: u64, id: usize) -> Self {
        VotePhase1 {
            threshold: 8.0 / eps + 2.0,
            rng: StdRng::seed_from_u64(seed ^ (id as u64).wrapping_mul(0x9e3779b97f4a7c15)),
            in_c: true,
            in_s: false,
            r_neighbors: Vec::new(),
            candidate_now: false,
            votes: 0,
            initialized: false,
            deadline: None,
            timed_out: false,
        }
    }

    /// Arms the phase timeout (same conservative fallback as
    /// `Phase1::with_deadline`: withdraw from `C`, keep the stale —
    /// superset — R-neighborhood).
    fn with_deadline(mut self, deadline: Option<usize>) -> Self {
        self.deadline = deadline;
        self
    }

    fn eligible(&self) -> bool {
        self.in_c && self.r_neighbors.len() as f64 > self.threshold
    }

    fn remove_r_neighbor(&mut self, v: NodeId) {
        if let Ok(pos) = self.r_neighbors.binary_search(&v) {
            self.r_neighbors.remove(pos);
        }
    }
}

impl Algorithm for VotePhase1 {
    type Msg = VoteMsg;
    type Output = P1Output;

    fn round(&mut self, ctx: &Ctx, inbox: &[(NodeId, VoteMsg)]) -> Vec<(NodeId, VoteMsg)> {
        if !self.initialized {
            self.r_neighbors = ctx.graph_neighbors.to_vec();
            self.initialized = true;
        }
        let mut out = Vec::new();
        let mut joined_now = false;
        let mut best_candidate: Option<(u64, NodeId)> = None;
        for (from, msg) in inbox {
            match msg {
                VoteMsg::Cand(rank) => {
                    let key = (*rank, *from);
                    if best_candidate.is_none_or(|b| key > b) {
                        best_candidate = Some(key);
                    }
                }
                VoteMsg::Vote => self.votes += 1,
                VoteMsg::JoinS => {
                    if !self.in_s {
                        self.in_s = true;
                        joined_now = true;
                    }
                }
                VoteMsg::LeftR => self.remove_r_neighbor(*from),
            }
        }

        // Phase-timeout fallback: an undecided node past the deadline
        // withdraws from C (conservative — see `with_deadline`).
        if let Some(d) = self.deadline {
            if ctx.round >= d && self.eligible() {
                self.in_c = false;
                self.candidate_now = false;
                self.timed_out = true;
                return out;
            }
        }

        match ctx.round % 4 {
            0 => {
                self.candidate_now = self.eligible();
                self.votes = 0;
                if self.candidate_now {
                    let rank: u64 = self.rng.random();
                    for &v in ctx.graph_neighbors {
                        out.push((v, VoteMsg::Cand(rank)));
                    }
                }
            }
            1 => {
                // A vertex still in R votes for its best candidate
                // neighbor. (Vertices already in S do not vote; their
                // edges are covered.)
                if !self.in_s {
                    if let Some((_, c)) = best_candidate {
                        out.push((c, VoteMsg::Vote));
                    }
                }
            }
            2 => {
                if self.candidate_now {
                    let d_r = self.r_neighbors.len();
                    if self.votes * 8 >= d_r && d_r > 0 {
                        // Successful: neighbors in R join S; leave C.
                        self.in_c = false;
                        for &v in self.r_neighbors.clone().iter() {
                            out.push((v, VoteMsg::JoinS));
                        }
                        self.r_neighbors.clear();
                    }
                }
            }
            3 => {
                if joined_now {
                    for &v in ctx.graph_neighbors {
                        out.push((v, VoteMsg::LeftR));
                    }
                }
            }
            _ => unreachable!(),
        }
        out
    }

    fn is_done(&self, _ctx: &Ctx) -> bool {
        self.initialized && !self.eligible()
    }

    fn can_skip(&self, ctx: &Ctx) -> bool {
        // A stale `candidate_now` would mark this vertex a candidate in
        // the vote-counting step on re-activation; it is cleared by the
        // next invoked Step 1, so the node stays active until then.
        self.is_done(ctx) && !self.candidate_now
    }

    fn output(&self, _ctx: &Ctx) -> P1Output {
        P1Output {
            in_s: self.in_s,
            r_neighbors: self.r_neighbors.clone(),
            timed_out: self.timed_out,
        }
    }
}

/// Runs Theorem 11's randomized CONGESTED CLIQUE algorithm.
///
/// `seed` makes the voting reproducible.
///
/// # Errors
///
/// Propagates [`SimError`] on model violations.
///
/// # Example
///
/// ```
/// use pga_graph::generators;
/// use pga_graph::cover::is_vertex_cover_on_square;
/// use pga_core::mvc::clique_rand::g2_mvc_clique_rand;
/// use pga_core::mvc::congest::LocalSolver;
///
/// let g = generators::complete_bipartite(8, 8);
/// let r = g2_mvc_clique_rand(&g, 0.5, LocalSolver::Exact, 7).unwrap();
/// assert!(is_vertex_cover_on_square(&g, &r.cover));
/// ```
pub fn g2_mvc_clique_rand(
    g: &Graph,
    eps: f64,
    solver: LocalSolver,
    seed: u64,
) -> Result<G2MvcResult, SimError> {
    g2_mvc_clique_rand_cfg(g, eps, solver, seed, &RunConfig::new())
}

/// [`g2_mvc_clique_rand`] under an explicit [`RunConfig`] (engine,
/// thread count, scheduling policy, `G²` preprocessing).
///
/// Every configuration is bit-identical — the same `seed` yields the
/// same cover under any configuration; a parallel engine simply runs
/// large instances faster.
///
/// With [`G2Prep::Bmm`] selected, the pipeline first materializes
/// exact `G²` rows via [`clique_bmm`] and charges the materialization
/// to `phase1_metrics`. The voting Phase I itself is strictly one-hop,
/// so the rows cannot change its trajectory — the cover is the relay
/// cover by construction. The knob exists so the randomized pipeline
/// can be compared apples-to-apples with the deterministic one, which
/// *does* consume the rows: selecting it here measures what row
/// materialization costs this pipeline in rounds and bits.
///
/// # Errors
///
/// Propagates [`SimError`] like [`g2_mvc_clique_rand`].
pub fn g2_mvc_clique_rand_cfg(
    g: &Graph,
    eps: f64,
    solver: LocalSolver,
    seed: u64,
    cfg: &RunConfig,
) -> Result<G2MvcResult, SimError> {
    let n = g.num_nodes();
    if eps >= 1.0 {
        return Ok(G2MvcResult {
            cover: vec![true; n],
            s_size: n,
            r_star_size: 0,
            phase1_metrics: Metrics::default(),
            phase2_metrics: Metrics::default(),
        });
    }
    let prep_metrics = match cfg.g2_prep {
        G2Prep::Relay => None,
        G2Prep::Bmm => Some(clique_bmm(g, default_cap_words(n), cfg)?.metrics),
    };
    // Clean w.h.p. bound: O(log n) voting iterations of 4 rounds. The
    // deadline also guarantees termination when the potential-drop
    // argument is broken by message loss.
    let bits = usize::BITS - n.leading_zeros();
    let p1_deadline = cfg.phase_deadline(4 * (4 * bits as usize + 8) + 8);
    let p1 = Simulator::congested_clique(g).run_cfg(
        (0..n)
            .map(|i| VotePhase1::new(eps, seed, i).with_deadline(p1_deadline))
            .collect(),
        cfg,
    )?;
    let mut p1_metrics = match prep_metrics {
        Some(prep) => merge_metrics(prep, p1.metrics),
        None => p1.metrics,
    };
    p1_metrics.fault.degraded += p1.outputs.iter().filter(|o| o.timed_out).count() as u64;
    run_clique_phase2(g, &p1.outputs, p1_metrics, solver, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pga_exact::vc::mvc_size;
    use pga_graph::cover::is_vertex_cover_on_square;
    use pga_graph::generators;
    use pga_graph::power::square;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn valid_and_approximate() {
        let mut rng = StdRng::seed_from_u64(91);
        for seed in 0..6 {
            let g = generators::connected_gnp(30, 0.4, &mut rng);
            let r = g2_mvc_clique_rand(&g, 0.5, LocalSolver::Exact, seed).unwrap();
            assert!(is_vertex_cover_on_square(&g, &r.cover));
            let opt = mvc_size(&square(&g));
            assert!(
                r.size() as f64 <= 1.5 * opt as f64 + 1e-9,
                "seed {seed}: {} vs opt {opt}",
                r.size()
            );
        }
    }

    #[test]
    fn voting_fires_on_dense_graphs() {
        // K_{20,20}: degrees 20 > 8/ε + 2 = 18 for ε = 1/2, so candidates
        // exist and harvesting happens.
        let g = generators::complete_bipartite(20, 20);
        let r = g2_mvc_clique_rand(&g, 0.5, LocalSolver::Exact, 3).unwrap();
        assert!(r.s_size >= 20, "voting should harvest at least one side");
        assert!(is_vertex_cover_on_square(&g, &r.cover));
    }

    #[test]
    fn logarithmic_phase1_iterations() {
        // Phase I must terminate in few iterations on a dense graph; with
        // 4 rounds per iteration, check a generous O(log n) cap.
        let g = generators::complete(64);
        let r = g2_mvc_clique_rand(&g, 0.25, LocalSolver::Exact, 11).unwrap();
        let iters = r.phase1_metrics.rounds.div_ceil(4);
        assert!(iters <= 40, "{iters} iterations is not logarithmic-ish");
        assert!(is_vertex_cover_on_square(&g, &r.cover));
    }

    #[test]
    fn deterministic_given_seed() {
        let g = generators::complete_bipartite(12, 12);
        let a = g2_mvc_clique_rand(&g, 0.5, LocalSolver::Exact, 5).unwrap();
        let b = g2_mvc_clique_rand(&g, 0.5, LocalSolver::Exact, 5).unwrap();
        assert_eq!(a.cover, b.cover);
        assert_eq!(a.total_rounds(), b.total_rounds());
    }

    #[test]
    fn bmm_prep_same_cover_extra_prep_metrics() {
        // The voting Phase I is one-hop: BMM prep cannot change the
        // cover, only the accounting.
        let g = generators::complete_bipartite(12, 12);
        let relay = g2_mvc_clique_rand(&g, 0.5, LocalSolver::Exact, 5).unwrap();
        let bmm =
            g2_mvc_clique_rand_cfg(&g, 0.5, LocalSolver::Exact, 5, &RunConfig::new().bmm_prep())
                .unwrap();
        assert_eq!(relay.cover, bmm.cover);
        assert!(
            bmm.phase1_metrics.rounds > relay.phase1_metrics.rounds,
            "prep rounds must be charged: {} vs {}",
            bmm.phase1_metrics.rounds,
            relay.phase1_metrics.rounds
        );
        assert!(bmm.phase1_metrics.bits > relay.phase1_metrics.bits);
    }

    #[test]
    fn sparse_graph_skips_phase1() {
        // A path has max degree 2 ≤ 8/ε + 2: no candidates, everything is
        // solved by the leader.
        let g = generators::path(20);
        let r = g2_mvc_clique_rand(&g, 0.5, LocalSolver::Exact, 1).unwrap();
        assert_eq!(r.s_size, 0);
        assert!(is_vertex_cover_on_square(&g, &r.cover));
        let opt = mvc_size(&square(&g));
        assert_eq!(r.size(), opt, "exact leader solve on the whole graph");
    }
}

#[cfg(test)]
mod msg_size_tests {
    use super::*;
    use crate::msg_budget::fits_default_bandwidth;
    use proptest::prelude::*;

    fn arb_msg() -> impl Strategy<Value = VoteMsg> {
        prop_oneof![
            any::<u64>().prop_map(VoteMsg::Cand),
            Just(VoteMsg::Vote),
            Just(VoteMsg::JoinS),
            Just(VoteMsg::LeftR),
        ]
    }

    proptest! {
        #[test]
        fn vote_msg_fits_default_bandwidth(m in arb_msg()) {
            fits_default_bandwidth(&m)?;
        }
    }
}
