//! Phase I of Algorithm 1: distributed clique harvesting.
//!
//! As long as some *center* `c ∈ C` has more than `1/ε` neighbors in the
//! remaining set `R`, the center with the locally maximal id within two
//! hops wins, adds its whole `R`-neighborhood to the cover `S`, and leaves
//! `C` (paper, Section 3.1). Each neighborhood added is a clique of `G²`
//! of size `> 1/ε`, for which any optimal cover must pay all but one
//! vertex — that is the entire `(1+ε)` accounting of Lemma 5.
//!
//! The implementation runs the paper's "arbitrary symmetry breaking with
//! the help of their ID": iterations of four rounds each:
//!
//! 1. eligible centers announce candidacy,
//! 2. every node reports the maximum candidate id it heard (max over one
//!    hop, so after this round candidates know the max over two hops),
//! 3. locally-maximal candidates win and tell their neighbors to join `S`,
//! 4. nodes that joined `S` announce they left `R`.

use pga_congest::{Algorithm, Ctx, MsgSize};
use pga_graph::NodeId;

/// Messages of Phase I.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum P1Msg {
    /// "I am an eligible center this iteration."
    Cand,
    /// "The largest candidate id I heard (including myself) is ...".
    MaxCand(u32),
    /// "I won; you are my neighbor: join the cover `S`."
    JoinS,
    /// "I just left `R`."
    LeftR,
}

impl MsgSize for P1Msg {
    fn size_bits(&self, id_bits: usize) -> usize {
        2 + match self {
            P1Msg::MaxCand(_) => id_bits,
            _ => 0,
        }
    }
}

/// Per-node output of Phase I.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct P1Output {
    /// Whether this node joined the cover `S`.
    pub in_s: bool,
    /// Neighbors still in `R = V \ S` at the end of the phase
    /// (each is at most `threshold` many, Lemma 2). After a phase
    /// timeout this is a *superset* of the true R-neighborhood (missed
    /// `LeftR` announcements leave stale entries), which only enlarges
    /// the edge set Phase II covers — validity is unaffected.
    pub r_neighbors: Vec<NodeId>,
    /// Whether this node hit the phase deadline and forced itself out
    /// of the candidate process (see `with_deadline` on the phase
    /// states). Always `false` on a clean run.
    pub timed_out: bool,
}

/// Phase I node state.
///
/// `threshold = ⌊1/ε'⌋`: a center is eligible while it has **more than**
/// `threshold` neighbors in `R`.
pub(crate) struct Phase1 {
    threshold: usize,
    in_c: bool,
    in_s: bool,
    /// Sorted ids of neighbors currently in `R`.
    r_neighbors: Vec<NodeId>,
    candidate_now: bool,
    /// Max candidate id within one hop, computed in step 2.
    one_hop_max: Option<u32>,
    initialized: bool,
    /// Phase deadline in rounds; at the deadline an undecided node
    /// withdraws from `C` so the phase quiesces (see `with_deadline`).
    deadline: Option<usize>,
    timed_out: bool,
}

impl Phase1 {
    pub(crate) fn new(threshold: usize) -> Self {
        Phase1 {
            threshold,
            in_c: true,
            in_s: false,
            r_neighbors: Vec::new(),
            candidate_now: false,
            one_hop_max: None,
            initialized: false,
            deadline: None,
            timed_out: false,
        }
    }

    /// Arms the phase timeout: a node still eligible at round
    /// `deadline` withdraws from the candidate set instead of waiting
    /// forever (dead links can starve the symmetry breaking). Its
    /// `r_neighbors` then stays a superset of the true R-neighborhood,
    /// so the Phase II cover only grows — the result stays a valid
    /// cover, only the approximation factor degrades. `None` (the
    /// default) never fires.
    pub(crate) fn with_deadline(mut self, deadline: Option<usize>) -> Self {
        self.deadline = deadline;
        self
    }

    fn eligible(&self) -> bool {
        self.in_c && self.r_neighbors.len() > self.threshold
    }

    fn remove_r_neighbor(&mut self, v: NodeId) {
        if let Ok(pos) = self.r_neighbors.binary_search(&v) {
            self.r_neighbors.remove(pos);
        }
    }
}

impl Algorithm for Phase1 {
    type Msg = P1Msg;
    type Output = P1Output;

    fn round(&mut self, ctx: &Ctx, inbox: &[(NodeId, P1Msg)]) -> Vec<(NodeId, P1Msg)> {
        if !self.initialized {
            // R starts as all of V: every neighbor is an R-neighbor.
            self.r_neighbors = ctx.graph_neighbors.to_vec();
            self.initialized = true;
        }
        let mut out = Vec::new();
        let mut joined_s_now = false;

        // Ingest.
        let mut cand_max: Option<u32> = None;
        let mut two_hop_max: Option<u32> = None;
        for (from, msg) in inbox {
            match msg {
                P1Msg::Cand => {
                    cand_max = Some(cand_max.map_or(from.0, |m: u32| m.max(from.0)));
                }
                P1Msg::MaxCand(id) => {
                    two_hop_max = Some(two_hop_max.map_or(*id, |m: u32| m.max(*id)));
                }
                P1Msg::JoinS => {
                    if !self.in_s {
                        self.in_s = true;
                        joined_s_now = true;
                    }
                }
                P1Msg::LeftR => {
                    self.remove_r_neighbor(*from);
                }
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
                // Step 1: candidacy. (LeftR from the previous iteration was
                // ingested above, so eligibility is up to date.)
                self.candidate_now = self.eligible();
                if self.candidate_now {
                    for &v in ctx.graph_neighbors {
                        out.push((v, P1Msg::Cand));
                    }
                }
            }
            1 => {
                // Step 2: report max candidate id over one hop.
                let mut m = cand_max;
                if self.candidate_now {
                    m = Some(m.map_or(ctx.id.0, |x| x.max(ctx.id.0)));
                }
                // Store only a real maximum: a `None` here is never read
                // (Step 3 reads under `candidate_now`, whose Step 2 always
                // wrote `Some`), and skipping the write keeps the
                // skippable quiet state genuinely mutation-free for the
                // engine's `can_skip` contract.
                if m.is_some() {
                    self.one_hop_max = m;
                }
                if let Some(m) = m {
                    for &v in ctx.graph_neighbors {
                        out.push((v, P1Msg::MaxCand(m)));
                    }
                }
            }
            2 => {
                // Step 3: winner determination. The max over received
                // one-hop maxima plus our own covers all candidates within
                // two hops.
                if self.candidate_now {
                    let mut m = self.one_hop_max.unwrap_or(0).max(ctx.id.0);
                    if let Some(t) = two_hop_max {
                        m = m.max(t);
                    }
                    if m == ctx.id.0 {
                        // Winner: neighbors in R join S; we leave C.
                        self.in_c = false;
                        for v in std::mem::take(&mut self.r_neighbors) {
                            out.push((v, P1Msg::JoinS));
                        }
                    }
                }
            }
            3 => {
                // Step 4: announce leaving R.
                if joined_s_now {
                    for &v in ctx.graph_neighbors {
                        out.push((v, P1Msg::LeftR));
                    }
                }
            }
            _ => unreachable!(),
        }
        out
    }

    fn is_done(&self, _ctx: &Ctx) -> bool {
        // If no center anywhere is eligible and no messages are in flight,
        // nothing will ever be sent again; the simulator combines this
        // per-node condition with global quiescence.
        self.initialized && !self.eligible()
    }

    fn can_skip(&self, ctx: &Ctx) -> bool {
        // A stale `candidate_now` from a pre-ineligibility Step 1 would
        // leak into the Step 2 maximum on re-activation; it is cleared by
        // the next invoked Step 1, so the node stays active until then.
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

#[cfg(test)]
mod tests {
    use super::*;
    use pga_congest::{RunConfig, Simulator};
    use pga_graph::{generators, Graph};

    fn run_phase1(g: &Graph, threshold: usize) -> (Vec<P1Output>, pga_congest::Metrics) {
        let nodes = (0..g.num_nodes()).map(|_| Phase1::new(threshold)).collect();
        let report = Simulator::congest(g)
            .run_cfg(nodes, &RunConfig::new())
            .unwrap();
        (report.outputs, report.metrics)
    }

    #[test]
    fn star_center_wins() {
        // Star K_{1,8}: center has 8 R-neighbors > threshold 2, wins; all
        // leaves join S. Wait: the *max id* within two hops wins, and every
        // leaf has ≤ 1 < 3 R-neighbors, so only the center is ever
        // eligible.
        let g = generators::star(9);
        let (out, _m) = run_phase1(&g, 2);
        assert!(!out[0].in_s, "center itself stays out");
        for (leaf, state) in out.iter().enumerate().skip(1) {
            assert!(state.in_s, "leaf {leaf} must join S");
        }
        assert!(out[0].r_neighbors.is_empty());
    }

    #[test]
    fn low_degree_graph_never_fires() {
        // On a path with threshold 2, no vertex has 3 R-neighbors: S = ∅.
        let g = generators::path(10);
        let (out, m) = run_phase1(&g, 2);
        assert!(out.iter().all(|o| !o.in_s));
        // Nothing to do: the run is quiescent immediately.
        assert_eq!(m.messages, 0);
    }

    #[test]
    fn after_phase1_r_degrees_bounded() {
        // Lemma 2's precondition: every node ends with ≤ threshold
        // R-neighbors.
        for (g, t) in [
            (generators::clique_chain(4, 6), 2usize),
            (generators::complete_bipartite(5, 9), 3),
            (generators::caterpillar(6, 5), 2),
        ] {
            let (out, _m) = run_phase1(&g, t);
            for (i, o) in out.iter().enumerate() {
                assert!(
                    o.r_neighbors.len() <= t,
                    "node {i} has {} R-neighbors > {t}",
                    o.r_neighbors.len()
                );
            }
        }
    }

    #[test]
    fn s_blocks_are_cliques_in_g2() {
        // Every JoinS block is N(c) ∩ R for a single winner c, which is a
        // clique of G². We verify cover validity downstream; here check the
        // R bookkeeping is consistent: reported r_neighbors are exactly
        // neighbors not in S.
        let g = generators::clique_chain(3, 5);
        let (out, _m) = run_phase1(&g, 2);
        for v in g.nodes() {
            let expect: Vec<NodeId> = g
                .neighbors(v)
                .iter()
                .copied()
                .filter(|u| !out[u.index()].in_s)
                .collect();
            assert_eq!(out[v.index()].r_neighbors, expect, "node {v:?}");
        }
    }

    #[test]
    fn two_hop_symmetry_breaking_sequential_winners() {
        // In K_{5,5} all vertices start eligible with threshold 2, and the
        // whole graph is one 2-hop neighborhood, so winners fire one per
        // iteration. Node 9 wins first (side A joins S); joining S does
        // not remove a node from C, so side-A vertices stay eligible (all
        // of side B is still in R) and node 4 wins next, covering side B.
        let g = generators::complete_bipartite(5, 5);
        let (out, _m) = run_phase1(&g, 2);
        for (v, state) in out.iter().enumerate() {
            assert!(state.in_s, "vertex {v} ends up in S");
        }
        // Two blocks of 5: |S| = 10 versus OPT(G²) = OPT(K10) = 9, inside
        // the (1 + ε') bound for ε' = 1/2.
    }

    #[test]
    fn threshold_zero_covers_everything_with_edges() {
        // threshold 0: every vertex with ≥1 R-neighbor is eligible; the
        // process only stops when R-degrees are all 0, i.e. S is a cover
        // of G (hence of many G² edges too).
        let g = generators::cycle(7);
        let (out, _m) = run_phase1(&g, 0);
        let in_s: Vec<bool> = out.iter().map(|o| o.in_s).collect();
        assert!(pga_graph::cover::is_vertex_cover(&g, &in_s));
    }
}

#[cfg(test)]
mod msg_size_tests {
    use super::*;
    use crate::msg_budget::fits_default_bandwidth;
    use proptest::prelude::*;

    fn arb_msg() -> impl Strategy<Value = P1Msg> {
        prop_oneof![
            Just(P1Msg::Cand),
            any::<u32>().prop_map(P1Msg::MaxCand),
            Just(P1Msg::JoinS),
            Just(P1Msg::LeftR),
        ]
    }

    proptest! {
        #[test]
        fn p1_msg_fits_default_bandwidth(m in arb_msg()) {
            fits_default_bandwidth(&m)?;
        }
    }
}
