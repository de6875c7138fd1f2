//! Corollary 10: a deterministic `(1 + ε)`-approximation for `G²`-MVC in
//! the CONGESTED CLIQUE, in `O(εn + 1/ε)` rounds.
//!
//! Phase I is the CONGEST clique harvesting unchanged (clique edges are a
//! superset of `G`'s). Phase II exploits the clique: every node sends its
//! at most `⌊1/ε'⌋` edges of `F` *directly* to the leader, one per round
//! (Lemma 9), and the leader answers each node with a personalized 1-bit
//! verdict in a single round.

use crate::mvc::congest::G2MvcResult;
use crate::mvc::phase1::P1Output;
use crate::mvc::phase1_direct::run_phase1_with_prep;
use crate::mvc::remainder::{f_edges_for_node, solve_remainder, FEdge, LocalSolver};
use pga_congest::{
    default_cap_words, Algorithm, Ctx, Metrics, MsgSize, RunConfig, SimError, Simulator,
};
use pga_graph::{Graph, NodeId};
use std::collections::VecDeque;

/// Messages of the clique Phase II.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum CliqueMsg {
    /// One `F`-edge report, sent directly to the leader.
    Edge(FEdge),
    /// "I have no more edges to report."
    Done,
    /// Personalized verdict from the leader: "you are in the cover".
    Verdict(bool),
}

impl MsgSize for CliqueMsg {
    fn size_bits(&self, id_bits: usize) -> usize {
        2 + match self {
            CliqueMsg::Edge(e) => e.size_bits(id_bits),
            CliqueMsg::Done => 0,
            CliqueMsg::Verdict(_) => 1,
        }
    }
}

/// Phase II on the clique: direct upload to the leader, personalized
/// 1-round verdict broadcast.
pub(crate) struct CliquePhase2 {
    pub items: VecDeque<FEdge>,
    pub in_s: bool,
    pub sent_done: bool,
    pub verdict: Option<bool>,
    // Leader-only state.
    pub gathered: Vec<FEdge>,
    pub done_count: usize,
    pub solver: LocalSolver,
    pub answered: bool,
    /// Phase deadline in rounds. At the deadline with reports still
    /// missing the leader answers `Verdict(true)` to *everyone*: a
    /// silent node in `S` is the sole reporter of its `R`-incident
    /// edges, so the two-hop `H`-edges through it are invisible and no
    /// per-node repair can cover them (same global degradation as an
    /// incomplete [`GatherScatter`](pga_congest::primitives::GatherScatter)
    /// gather). A non-leader whose verdict never arrives self-adds at
    /// `deadline + 8`. Either fallback keeps the cover valid — only
    /// the approximation degrades.
    pub deadline: Option<usize>,
    pub timed_out: bool,
}

impl CliquePhase2 {
    pub(crate) fn new(items: Vec<FEdge>, in_s: bool, solver: LocalSolver) -> Self {
        CliquePhase2 {
            items: items.into(),
            in_s,
            sent_done: false,
            verdict: None,
            gathered: Vec::new(),
            done_count: 0,
            solver,
            answered: false,
            deadline: None,
            timed_out: false,
        }
    }

    /// Arms the phase timeout (see the `deadline` field).
    pub(crate) fn with_deadline(mut self, deadline: Option<usize>) -> Self {
        self.deadline = deadline;
        self
    }
}

const LEADER: NodeId = NodeId(0);

impl Algorithm for CliquePhase2 {
    type Msg = CliqueMsg;
    /// `(in_cover, timed_out)` — membership plus whether this node fell
    /// back to the phase-timeout path.
    type Output = (bool, bool);

    fn round(&mut self, ctx: &Ctx, inbox: &[(NodeId, CliqueMsg)]) -> Vec<(NodeId, CliqueMsg)> {
        let mut out = Vec::new();
        for (_from, msg) in inbox {
            match msg {
                CliqueMsg::Edge(e) => self.gathered.push(e.clone()),
                CliqueMsg::Done => self.done_count += 1,
                CliqueMsg::Verdict(v) => self.verdict = Some(*v),
            }
        }

        if ctx.id == LEADER {
            let deadline_hit = self.deadline.is_some_and(|d| ctx.round >= d);
            if !self.answered && (self.done_count == ctx.n - 1 || deadline_hit) {
                // Everyone reported (or the deadline fired): solve and
                // answer all nodes at once (n−1 messages in one round —
                // legal in the clique).
                let forced = self.done_count != ctx.n - 1;
                let in_cover = if forced {
                    // Reports are missing and the leader cannot tell
                    // which H-edges it never saw (see the `deadline`
                    // doc): degrade globally, everyone joins.
                    self.timed_out = true;
                    vec![true; ctx.n]
                } else {
                    let mut edges = std::mem::take(&mut self.gathered);
                    edges.extend(self.items.drain(..));
                    let chosen = solve_remainder(&edges, self.solver);
                    let mut in_cover = vec![false; ctx.n];
                    for c in &chosen {
                        in_cover[c.0.index()] = true;
                    }
                    in_cover
                };
                self.verdict = Some(in_cover[LEADER.index()]);
                for (j, &in_c) in in_cover.iter().enumerate().skip(1) {
                    out.push((NodeId::from_index(j), CliqueMsg::Verdict(in_c)));
                }
                self.answered = true;
            }
        } else {
            // Hard deadline: the verdict never arrived (dead link) —
            // self-add, which covers every F-edge incident to us.
            if let Some(d) = self.deadline {
                if ctx.round >= d + 8 && self.verdict.is_none() {
                    self.verdict = Some(true);
                    self.timed_out = true;
                    return out;
                }
            }
            if let Some(e) = self.items.pop_front() {
                out.push((LEADER, CliqueMsg::Edge(e)));
            } else if !self.sent_done {
                out.push((LEADER, CliqueMsg::Done));
                self.sent_done = true;
            }
        }
        out
    }

    fn is_done(&self, ctx: &Ctx) -> bool {
        if ctx.id == LEADER {
            self.answered || ctx.n == 1
        } else {
            self.verdict.is_some()
        }
    }

    fn output(&self, ctx: &Ctx) -> (bool, bool) {
        // No verdict at collection time means the node never finished
        // the exchange — crashed mid-phase, or the leader's answer was
        // lost past the deadline fallback. Self-add: conservative, and
        // unreachable on a clean run (`is_done` requires a verdict).
        // The single-node leader legitimately never answers itself;
        // `run_clique_phase2` overrides that case from Phase-I state.
        let missing = self.verdict.is_none() && ctx.n > 1;
        (
            self.in_s || self.verdict.unwrap_or(missing),
            self.timed_out || missing,
        )
    }
}

/// Assembles a [`G2MvcResult`] from Phase-I outputs plus clique Phase II.
pub(crate) fn run_clique_phase2(
    g: &Graph,
    p1_out: &[P1Output],
    p1_metrics: Metrics,
    solver: LocalSolver,
    cfg: &RunConfig,
) -> Result<G2MvcResult, SimError> {
    let n = g.num_nodes();
    let per_node: Vec<Vec<FEdge>> = (0..n)
        .map(|i| {
            let o = &p1_out[i];
            f_edges_for_node(NodeId::from_index(i), !o.in_s, &o.r_neighbors, |_| 1)
        })
        .collect();
    // Clean bound: one edge per round per node plus the Done/Verdict
    // exchange — the upload finishes in k_max + O(1) rounds.
    let k_max = per_node.iter().map(Vec::len).max().unwrap_or(0);
    let deadline = cfg.phase_deadline(k_max + 8);
    let nodes = per_node
        .into_iter()
        .zip(p1_out)
        .map(|(items, o)| CliquePhase2::new(items, o.in_s, solver).with_deadline(deadline))
        .collect();
    let p2 = Simulator::congested_clique(g).run_cfg(nodes, cfg)?;

    // Special case n == 1: the leader never answers itself over the wire.
    let mut cover: Vec<bool> = p2.outputs.iter().map(|&(in_c, _)| in_c).collect();
    if n == 1 {
        cover[0] = p1_out[0].in_s;
    }
    let s_size = p1_out.iter().filter(|o| o.in_s).count();
    let total = cover.iter().filter(|&&b| b).count();
    let mut phase2_metrics = p2.metrics;
    phase2_metrics.fault.degraded += p2.outputs.iter().filter(|&&(_, t)| t).count() as u64;

    Ok(G2MvcResult {
        cover,
        s_size,
        r_star_size: total - s_size,
        phase1_metrics: p1_metrics,
        phase2_metrics,
    })
}

/// Runs Corollary 10's deterministic CONGESTED CLIQUE algorithm.
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
/// use pga_core::mvc::clique_det::g2_mvc_clique_det;
/// use pga_core::mvc::congest::LocalSolver;
///
/// let g = generators::clique_chain(3, 5);
/// let r = g2_mvc_clique_det(&g, 0.5, LocalSolver::Exact).unwrap();
/// assert!(is_vertex_cover_on_square(&g, &r.cover));
/// ```
pub fn g2_mvc_clique_det(
    g: &Graph,
    eps: f64,
    solver: LocalSolver,
) -> Result<G2MvcResult, SimError> {
    g2_mvc_clique_det_cfg(g, eps, solver, &RunConfig::new())
}

/// [`g2_mvc_clique_det`] under an explicit [`RunConfig`] (engine, thread
/// count, scheduling policy, `G²` preprocessing).
///
/// Every configuration is bit-identical; a parallel engine simply runs
/// large instances faster. With
/// [`G2Prep::Bmm`](pga_congest::G2Prep::Bmm) selected, Phase I first
/// materializes exact `G²` rows via [`pga_congest::clique_bmm`] and
/// then runs a three-round-per-iteration direct machine on them (the
/// relay round disappears); the cover is provably the relay cover bit
/// for bit, and the preprocessing rounds are charged to
/// `phase1_metrics`. If any row overflows the word budget, Phase I
/// falls back wholesale to the relay machine, preserving the guarantee.
///
/// # Errors
///
/// Propagates [`SimError`] like [`g2_mvc_clique_det`].
pub fn g2_mvc_clique_det_cfg(
    g: &Graph,
    eps: f64,
    solver: LocalSolver,
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
    let l = crate::mvc::congest::threshold_for_eps(eps);
    let (p1_out, p1_metrics) = run_phase1_with_prep(g, l, default_cap_words(n), cfg)?;
    run_clique_phase2(g, &p1_out, p1_metrics, solver, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mvc::congest::g2_mvc_congest;
    use pga_exact::vc::mvc_size;
    use pga_graph::cover::is_vertex_cover_on_square;
    use pga_graph::generators;
    use pga_graph::power::square;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn valid_and_approximate() {
        let mut rng = StdRng::seed_from_u64(81);
        for _ in 0..8 {
            let g = generators::connected_gnp(15, 0.15, &mut rng);
            let r = g2_mvc_clique_det(&g, 0.5, LocalSolver::Exact).unwrap();
            assert!(is_vertex_cover_on_square(&g, &r.cover));
            let opt = mvc_size(&square(&g));
            assert!(r.size() as f64 <= 1.5 * opt as f64 + 1e-9);
        }
    }

    #[test]
    fn phase2_much_faster_than_congest() {
        // On a long path the CONGEST Phase II pays Θ(n) for pipelining;
        // the clique Phase II pays O(1/ε).
        let g = generators::path(60);
        let congest = g2_mvc_congest(&g, 0.5, LocalSolver::Exact).unwrap();
        let clique = g2_mvc_clique_det(&g, 0.5, LocalSolver::Exact).unwrap();
        assert!(
            clique.phase2_metrics.rounds * 4 < congest.phase2_metrics.rounds,
            "clique {} vs congest {}",
            clique.phase2_metrics.rounds,
            congest.phase2_metrics.rounds
        );
        assert!(is_vertex_cover_on_square(&g, &clique.cover));
    }

    #[test]
    fn same_cover_size_as_congest_variant() {
        // Both run the same Phase I and an exact Phase II, so sizes match.
        let g = generators::clique_chain(4, 5);
        let a = g2_mvc_congest(&g, 0.5, LocalSolver::Exact).unwrap();
        let b = g2_mvc_clique_det(&g, 0.5, LocalSolver::Exact).unwrap();
        assert_eq!(a.size(), b.size());
    }

    #[test]
    fn works_on_disconnected_graphs() {
        // The clique topology does not need G to be connected.
        let g = generators::disjoint_union(&generators::star(6), &generators::cycle(5));
        let r = g2_mvc_clique_det(&g, 0.5, LocalSolver::Exact).unwrap();
        assert!(is_vertex_cover_on_square(&g, &r.cover));
    }

    #[test]
    fn trivial_eps() {
        let g = generators::path(5);
        let r = g2_mvc_clique_det(&g, 1.5, LocalSolver::Exact).unwrap();
        assert_eq!(r.size(), 5);
    }

    #[test]
    fn single_node() {
        let r = g2_mvc_clique_det(&Graph::empty(1), 0.5, LocalSolver::Exact).unwrap();
        assert_eq!(r.size(), 0);
    }

    #[test]
    fn bmm_prep_cover_bit_identical_to_relay() {
        let mut rng = StdRng::seed_from_u64(29);
        let graphs = vec![
            generators::clique_chain(4, 6),
            generators::complete_bipartite(7, 7),
            generators::connected_gnp(25, 0.25, &mut rng),
            generators::planted_partition(96, 6, 0.5, 0.02, 9),
        ];
        for g in graphs {
            let relay = g2_mvc_clique_det(&g, 0.5, LocalSolver::Exact).unwrap();
            let bmm =
                g2_mvc_clique_det_cfg(&g, 0.5, LocalSolver::Exact, &RunConfig::new().bmm_prep())
                    .unwrap();
            assert_eq!(relay.cover, bmm.cover, "covers diverged");
            assert!(is_vertex_cover_on_square(&g, &bmm.cover));
            // The BMM pipeline pays its materialization up front (every
            // graph here has edges, so blocks were exchanged), but the
            // direct machine may still win on totals: it never pays the
            // relay's MaxCand storm.
            assert!(bmm.phase1_metrics.messages > 0);
        }
    }

    #[test]
    fn bmm_prep_bit_identical_across_engines_and_threads() {
        let g = generators::planted_partition(128, 4, 0.4, 0.03, 17);
        let base = RunConfig::new().bmm_prep();
        let reference = g2_mvc_clique_det_cfg(&g, 0.5, LocalSolver::Exact, &base).unwrap();
        assert!(is_vertex_cover_on_square(&g, &reference.cover));
        for threads in [1usize, 2, 4, 8] {
            let cfg = base.parallel(threads);
            let r = g2_mvc_clique_det_cfg(&g, 0.5, LocalSolver::Exact, &cfg).unwrap();
            assert_eq!(reference.cover, r.cover, "threads={threads} diverged");
            assert_eq!(reference.phase1_metrics, r.phase1_metrics);
        }
    }
}

#[cfg(test)]
mod msg_size_tests {
    use super::*;
    use crate::msg_budget::fits_default_bandwidth;
    use proptest::prelude::*;

    /// `F`-edge reports with weights below `2³²`.
    fn arb_fedge() -> impl Strategy<Value = FEdge> {
        (
            any::<u32>(),
            any::<u32>(),
            any::<bool>(),
            any::<u32>(),
            any::<u32>(),
        )
            .prop_map(|(from, to, from_in_u, from_weight, to_weight)| FEdge {
                from: NodeId(from),
                to: NodeId(to),
                from_in_u,
                from_weight: u64::from(from_weight),
                to_weight: u64::from(to_weight),
            })
    }

    fn arb_msg() -> impl Strategy<Value = CliqueMsg> {
        prop_oneof![
            arb_fedge().prop_map(CliqueMsg::Edge),
            Just(CliqueMsg::Done),
            any::<bool>().prop_map(CliqueMsg::Verdict),
        ]
    }

    proptest! {
        #[test]
        fn clique_msg_fits_default_bandwidth(m in arb_msg()) {
            fits_default_bandwidth(&m)?;
        }
    }
}
