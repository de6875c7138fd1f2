//! Theorem 7: a deterministic `(1 + ε)`-approximation for `G²`-minimum
//! *weighted* vertex cover in `O(n log n / ε)` CONGEST rounds.
//!
//! Phase I is the weighted clique harvesting of Section 3.2: a center `c`
//! partitions its neighborhood into weight classes `N_i(c) = {v : w*(c)·2^i
//! ≤ w(v) < w*(c)·2^{i+1}}` (where `w*(c)` is the minimum weight in
//! `N(c)`), and may process class `i` while
//!
//! `w*_i(c) ≤ W_i(c) · ε/(1+ε)`,
//!
//! i.e. while the heaviest remaining vertex of the class is only an
//! ε-fraction of the class weight — precisely the condition under which
//! adding the whole class costs at most `(1+ε)` times what an optimal
//! cover pays on the clique it induces in `G²`. Phase II is identical to
//! the unweighted algorithm with an exact *weighted* local solve.
//!
//! Zero-weight vertices are free: they enter the cover in the initial
//! weight-exchange round, as the paper assumes w.l.o.g.

use crate::mvc::remainder::{f_edges_for_node, solve_remainder_weighted, CoverId, FEdge};
use pga_congest::primitives::{GatherScatter, LeaderCompute};
use pga_congest::{Algorithm, Ctx, Metrics, MsgSize, RunConfig, SimError, Simulator};
use pga_graph::{Graph, NodeId, VertexWeights};
use std::collections::HashMap;
use std::sync::Arc;

/// Result of the weighted distributed run.
#[derive(Clone, Debug)]
pub struct G2MwvcResult {
    /// The computed vertex cover of `G²`.
    pub cover: Vec<bool>,
    /// Weight of the Phase-I part `S`.
    pub s_weight: u64,
    /// Weight of the leader part `R*`.
    pub r_star_weight: u64,
    /// Metrics of Phase I.
    pub phase1_metrics: Metrics,
    /// Metrics of Phase II.
    pub phase2_metrics: Metrics,
}

impl G2MwvcResult {
    /// Total rounds across both phases.
    pub fn total_rounds(&self) -> usize {
        self.phase1_metrics.rounds + self.phase2_metrics.rounds
    }

    /// Total weight of the returned cover.
    pub fn weight(&self, w: &VertexWeights) -> u64 {
        w.subset_weight(&self.cover)
    }
}

/// Messages of weighted Phase I.
#[derive(Clone, Debug, PartialEq, Eq)]
enum WMsg {
    /// Initial exchange: "my weight is ...". Weight 0 doubles as "I am in
    /// the cover already; not in R".
    Weight(u64),
    /// Eligible-center announcement.
    Cand,
    /// Max candidate id over one hop.
    MaxCand(u32),
    /// "Join S" (sent only to the chosen weight class).
    JoinS,
    /// "I left R."
    LeftR,
}

impl MsgSize for WMsg {
    fn size_bits(&self, id_bits: usize) -> usize {
        3 + match self {
            WMsg::Weight(w) => (64 - w.leading_zeros() as usize).max(1),
            WMsg::MaxCand(_) => id_bits,
            _ => 0,
        }
    }
}

struct WPhase1 {
    eps: f64,
    weight: u64,
    in_c: bool,
    in_s: bool,
    /// Weight of each graph neighbor (filled in round 0→1).
    nbr_weight: HashMap<NodeId, u64>,
    /// Neighbors currently in R.
    r_neighbors: Vec<NodeId>,
    /// Static minimum positive weight in N(v) (the paper's `w*(c)`).
    w_star: Option<u64>,
    candidate_now: bool,
    one_hop_max: Option<u32>,
    /// Phase deadline in rounds (see `Phase1::with_deadline`).
    deadline: Option<usize>,
    timed_out: bool,
}

impl WPhase1 {
    fn new(eps: f64, weight: u64) -> Self {
        WPhase1 {
            eps,
            weight,
            in_c: true,
            in_s: weight == 0, // zero-weight vertices are free cover
            nbr_weight: HashMap::new(),
            r_neighbors: Vec::new(),
            w_star: None,
            candidate_now: false,
            one_hop_max: None,
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

    fn bucket_of(&self, w: u64) -> u32 {
        let ws = self.w_star.expect("buckets need w*");
        (w / ws).ilog2()
    }

    /// Finds the smallest eligible weight class, if any (the paper's
    /// while-condition of Section 3.2).
    fn eligible_bucket(&self) -> Option<u32> {
        if !self.in_c {
            return None;
        }
        self.w_star?;
        let mut w_max: HashMap<u32, u64> = HashMap::new();
        let mut w_sum: HashMap<u32, u64> = HashMap::new();
        for v in &self.r_neighbors {
            let w = self.nbr_weight[v];
            let b = self.bucket_of(w);
            let e = w_max.entry(b).or_insert(0);
            *e = (*e).max(w);
            *w_sum.entry(b).or_insert(0) += w;
        }
        let mut buckets: Vec<u32> = w_max.keys().copied().collect();
        buckets.sort_unstable();
        buckets.into_iter().find(|b| {
            let wm = w_max[b] as f64;
            let ws = w_sum[b] as f64;
            wm <= ws * self.eps / (1.0 + self.eps)
        })
    }

    fn remove_r_neighbor(&mut self, v: NodeId) {
        if let Ok(pos) = self.r_neighbors.binary_search(&v) {
            self.r_neighbors.remove(pos);
        }
    }
}

impl Algorithm for WPhase1 {
    type Msg = WMsg;
    type Output = crate::mvc::phase1::P1Output;

    fn round(&mut self, ctx: &Ctx, inbox: &[(NodeId, WMsg)]) -> Vec<(NodeId, WMsg)> {
        let mut out = Vec::new();
        let mut joined_s_now = false;
        let mut cand_max: Option<u32> = None;
        let mut two_hop_max: Option<u32> = None;

        for (from, msg) in inbox {
            match msg {
                WMsg::Weight(w) => {
                    self.nbr_weight.insert(*from, *w);
                    if *w > 0 {
                        self.r_neighbors.push(*from);
                        self.w_star = Some(self.w_star.map_or(*w, |m| m.min(*w)));
                    }
                }
                WMsg::Cand => {
                    cand_max = Some(cand_max.map_or(from.0, |m: u32| m.max(from.0)));
                }
                WMsg::MaxCand(id) => {
                    two_hop_max = Some(two_hop_max.map_or(*id, |m: u32| m.max(*id)));
                }
                WMsg::JoinS => {
                    if !self.in_s {
                        self.in_s = true;
                        joined_s_now = true;
                    }
                }
                WMsg::LeftR => self.remove_r_neighbor(*from),
            }
        }
        if ctx.round == 1 {
            self.r_neighbors.sort_unstable();
        }

        if ctx.round == 0 {
            for &v in ctx.graph_neighbors {
                out.push((v, WMsg::Weight(self.weight)));
            }
            return out;
        }

        // Phase-timeout fallback: an undecided node past the deadline
        // withdraws from C (conservative — see `with_deadline`).
        if let Some(d) = self.deadline {
            if ctx.round >= d && self.eligible_bucket().is_some() {
                self.in_c = false;
                self.candidate_now = false;
                self.timed_out = true;
                return out;
            }
        }

        // Iterations of four rounds, starting at round 1.
        match (ctx.round - 1) % 4 {
            0 => {
                self.candidate_now = self.eligible_bucket().is_some();
                if self.candidate_now {
                    for &v in ctx.graph_neighbors {
                        out.push((v, WMsg::Cand));
                    }
                }
            }
            1 => {
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
                        out.push((v, WMsg::MaxCand(m)));
                    }
                }
            }
            2 => {
                if self.candidate_now {
                    let mut m = self.one_hop_max.unwrap_or(0).max(ctx.id.0);
                    if let Some(t) = two_hop_max {
                        m = m.max(t);
                    }
                    if m == ctx.id.0 {
                        if let Some(b) = self.eligible_bucket() {
                            // Process exactly one weight class: its members
                            // join S. Unlike the unweighted algorithm the
                            // center stays in C (other classes may become
                            // eligible later); it simply re-evaluates.
                            let members: Vec<NodeId> = self
                                .r_neighbors
                                .iter()
                                .copied()
                                .filter(|v| self.bucket_of(self.nbr_weight[v]) == b)
                                .collect();
                            for v in members {
                                self.remove_r_neighbor(v);
                                out.push((v, WMsg::JoinS));
                            }
                        }
                    }
                }
            }
            3 => {
                if joined_s_now {
                    for &v in ctx.graph_neighbors {
                        out.push((v, WMsg::LeftR));
                    }
                }
            }
            _ => unreachable!(),
        }
        out
    }

    fn is_done(&self, ctx: &Ctx) -> bool {
        ctx.round > 0 && self.eligible_bucket().is_none()
    }

    fn can_skip(&self, ctx: &Ctx) -> bool {
        // As in the unweighted Phase 1: a stale `candidate_now` would
        // leak into the next Step 2 maximum on re-activation, so the
        // node stays active until an invoked Step 1 clears it.
        self.is_done(ctx) && !self.candidate_now
    }

    fn output(&self, ctx: &Ctx) -> crate::mvc::phase1::P1Output {
        // Conservative report set: a neighbor whose Weight announcement
        // never arrived (crash, dead link) has unknown R-status, so its
        // edge is reported as if the neighbor were still in R — the
        // leader's instance only grows. On a clean run every weight
        // arrives (zero-weight included) and the union is a no-op.
        let mut r = self.r_neighbors.clone();
        r.extend(
            ctx.graph_neighbors
                .iter()
                .copied()
                .filter(|v| !self.nbr_weight.contains_key(v)),
        );
        r.sort_unstable();
        r.dedup();
        crate::mvc::phase1::P1Output {
            in_s: self.in_s,
            r_neighbors: r,
            timed_out: self.timed_out,
        }
    }
}

/// Runs Theorem 7's algorithm on the connected graph `g` with vertex
/// weights `w`.
///
/// # Errors
///
/// Propagates [`SimError`] on model violations or a disconnected graph.
///
/// # Example
///
/// ```
/// use pga_graph::{generators, VertexWeights};
/// use pga_graph::cover::is_vertex_cover_on_square;
/// use pga_core::mvc::weighted::g2_mwvc_congest;
///
/// let g = generators::star(10);
/// let w = VertexWeights::uniform(10);
/// let result = g2_mwvc_congest(&g, &w, 0.5).unwrap();
/// assert!(is_vertex_cover_on_square(&g, &result.cover));
/// ```
pub fn g2_mwvc_congest(g: &Graph, w: &VertexWeights, eps: f64) -> Result<G2MwvcResult, SimError> {
    g2_mwvc_congest_cfg(g, w, eps, &RunConfig::new())
}

/// [`g2_mwvc_congest`] under an explicit [`RunConfig`] (engine, thread
/// count, scheduling policy).
///
/// Every configuration is bit-identical; a parallel engine simply runs
/// large instances faster.
///
/// # Errors
///
/// Propagates [`SimError`] like [`g2_mwvc_congest`].
pub fn g2_mwvc_congest_cfg(
    g: &Graph,
    w: &VertexWeights,
    eps: f64,
    cfg: &RunConfig,
) -> Result<G2MwvcResult, SimError> {
    assert!(w.matches(g), "weights must match the graph");
    assert!(eps > 0.0, "ε must be positive");
    if !pga_graph::traversal::is_connected(g) {
        return Err(SimError::PreconditionViolated {
            what: "g2_mwvc_congest requires a connected communication graph",
        });
    }
    let n = g.num_nodes();

    // Clean bound: each center wins at most once per weight class
    // (≤ 65 u64 buckets), 4 rounds per iteration, plus the weight
    // exchange round.
    let p1_deadline = cfg.phase_deadline(4 * 65 * n + 12);
    let p1 = Simulator::congest(g).run_cfg(
        (0..n)
            .map(|i| WPhase1::new(eps, w.get(NodeId::from_index(i))).with_deadline(p1_deadline))
            .collect(),
        cfg,
    )?;
    let mut phase1_metrics = p1.metrics;
    phase1_metrics.fault.degraded += p1.outputs.iter().filter(|o| o.timed_out).count() as u64;
    let p1_out = p1.outputs;

    let w_vec: Vec<u64> = w.as_slice().to_vec();
    let compute: LeaderCompute<FEdge, CoverId> =
        Arc::new(move |edges: Vec<FEdge>| solve_remainder_weighted(&edges));
    let per_node: Vec<Vec<FEdge>> = (0..n)
        .map(|i| {
            let o = &p1_out[i];
            f_edges_for_node(NodeId::from_index(i), !o.in_s, &o.r_neighbors, |u| {
                w_vec[u.index()]
            })
        })
        .collect();
    let k_total: usize = per_node.iter().map(Vec::len).sum();
    let deadline = cfg.phase_deadline(4 * (k_total + n) + 10);
    let nodes = per_node
        .into_iter()
        .map(|items| GatherScatter::new(items, Arc::clone(&compute)).with_deadline(deadline))
        .collect();
    let p2 = Simulator::congest(g).run_cfg(nodes, cfg)?;

    let mut cover: Vec<bool> = p1_out.iter().map(|o| o.in_s).collect();
    let s_weight = w.subset_weight(&cover);
    let r_star = &p2.outputs[0].response;
    let mut r_star_weight = 0;
    for c in r_star {
        if !cover[c.0.index()] {
            r_star_weight += w.get(c.0);
        }
        cover[c.0.index()] = true;
    }
    // Phase-timeout fallback: an incomplete node self-adds so its
    // F-edges stay covered (validity over approximation).
    let mut phase2_metrics = p2.metrics;
    for (i, o) in p2.outputs.iter().enumerate() {
        if !o.complete {
            phase2_metrics.fault.degraded += 1;
            cover[i] = true;
        }
    }

    Ok(G2MwvcResult {
        cover,
        s_weight,
        r_star_weight,
        phase1_metrics,
        phase2_metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pga_exact::wvc::mwvc_weight;
    use pga_graph::cover::is_vertex_cover_on_square;
    use pga_graph::generators;
    use pga_graph::power::square;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn check(g: &Graph, w: &VertexWeights, eps: f64) -> G2MwvcResult {
        let r = g2_mwvc_congest(g, w, eps).unwrap();
        assert!(is_vertex_cover_on_square(g, &r.cover), "invalid cover");
        r
    }

    #[test]
    fn uniform_weights_behave() {
        for g in [
            generators::star(12),
            generators::cycle(10),
            generators::clique_chain(3, 4),
        ] {
            let w = VertexWeights::uniform(g.num_nodes());
            check(&g, &w, 0.5);
        }
    }

    #[test]
    fn approximation_factor_random_weights() {
        let mut rng = StdRng::seed_from_u64(71);
        for _ in 0..8 {
            let g = generators::connected_gnp(14, 0.15, &mut rng);
            let w = VertexWeights::random(14, 1..32, &mut rng);
            let g2 = square(&g);
            let opt = mwvc_weight(&g2, &w);
            for eps in [0.5, 1.0] {
                let r = check(&g, &w, eps);
                assert!(
                    r.weight(&w) as f64 <= (1.0 + eps) * opt as f64 + 1e-6,
                    "eps={eps}: {} > (1+{eps})·{opt}",
                    r.weight(&w)
                );
            }
        }
    }

    #[test]
    fn zero_weight_vertices_join_free() {
        let g = generators::star(8);
        let mut weights = vec![5u64; 8];
        weights[0] = 0; // free center covers the whole star's square
        let w = VertexWeights::from_vec(weights);
        let r = check(&g, &w, 0.5);
        assert!(r.cover[0], "zero-weight center must be taken");
        // the star's G² is a clique on 8 vertices: still need 6 more paid
        // vertices... the leaves form K8 in G²; min weighted cover of K8
        // minus the free vertex needs 6 of the 7 leaves.
        let opt = mwvc_weight(&square(&g), &w);
        assert!(r.weight(&w) as f64 <= 1.5 * opt as f64 + 1e-6);
    }

    #[test]
    fn heavy_center_harvesting() {
        // A star with many equal-weight leaves: the center's single bucket
        // is eligible for small ε once enough leaves accumulate weight.
        let g = generators::star(30);
        let mut weights = vec![1u64; 30];
        weights[0] = 1;
        let w = VertexWeights::from_vec(weights);
        let r = check(&g, &w, 0.25);
        // Phase I should harvest the leaves (Σ = 29, max = 1, 1 ≤ 29·0.2).
        assert!(r.s_weight >= 29, "phase I must fire on the star");
    }

    #[test]
    fn exponentially_spread_weights_use_buckets() {
        // Weights 1, 2, 4, ... on a star: each bucket is a singleton, so
        // no bucket is ever eligible; everything falls to the leader.
        let g = generators::star(6);
        let weights: Vec<u64> = (0..6).map(|i| 1u64 << i).collect();
        let w = VertexWeights::from_vec(weights);
        let r = check(&g, &w, 0.5);
        assert_eq!(r.s_weight, 0, "no class should fire");
        // Still optimal overall (leader solves exactly): OPT of K6 in G².
        let opt = mwvc_weight(&square(&g), &w);
        assert_eq!(r.weight(&w), opt);
    }

    #[test]
    fn lemma8_bucket_sizes_after_phase1() {
        // Lemma 8: after Phase I every (center, class) pair has fewer than
        // 2(1+ε)/ε remaining members, so |F| = O(n log n / ε). We check
        // via the output: each vertex's remaining R-neighbors, grouped by
        // its own weight classes, are small.
        let mut rng = StdRng::seed_from_u64(88);
        let eps = 0.5;
        let bound = 2.0 * (1.0 + eps) / eps; // = 6
        for _ in 0..5 {
            let g = generators::connected_gnp(20, 0.25, &mut rng);
            let w = VertexWeights::random(20, 1..64, &mut rng);
            let r = g2_mwvc_congest(&g, &w, eps).unwrap();
            // Recompute each center's classes over its final R-neighbors.
            for c in g.nodes() {
                let remaining: Vec<u64> = g
                    .neighbors(c)
                    .iter()
                    .filter(|u| !r.cover[u.index()])
                    .map(|&u| w.get(u))
                    .filter(|&x| x > 0)
                    .collect();
                let Some(&ws) = remaining.iter().min() else {
                    continue;
                };
                let w_star = g
                    .neighbors(c)
                    .iter()
                    .map(|&u| w.get(u))
                    .filter(|&x| x > 0)
                    .min()
                    .unwrap_or(ws);
                let mut per_bucket: std::collections::HashMap<u32, usize> =
                    std::collections::HashMap::new();
                for &x in &remaining {
                    *per_bucket.entry((x / w_star).ilog2()).or_insert(0) += 1;
                }
                for (b, count) in per_bucket {
                    assert!(
                        (count as f64) < bound,
                        "center {c:?} class {b} kept {count} ≥ {bound} members"
                    );
                }
            }
        }
    }

    /// Weights scaled by `2³⁴` make every `F`-edge report at least
    /// `2·4 + 1 + 2·35 = 79` bits at n = 14, so two never share a
    /// message (`B = 128`) and Phase II sends one item per message.
    /// Scaling every weight by a power of two changes no comparison, so
    /// the cover equals the one from the small weights, whose batches
    /// hold several reports.
    #[test]
    fn one_item_batches_return_the_same_cover() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..4 {
            let g = generators::connected_gnp(14, 0.15, &mut rng);
            let small = VertexWeights::random(14, 1..32, &mut rng);
            let large = VertexWeights::from_vec(small.as_slice().iter().map(|w| w << 34).collect());
            let packed = check(&g, &small, 0.5);
            let single = check(&g, &large, 0.5);
            assert_eq!(single.cover, packed.cover);
            // The widest one-report message: tag, two ids, flag, and two
            // weights of at most 39 bits.
            assert!(single.phase2_metrics.max_message_bits <= 3 + 9 + 2 * 39);
            assert!(single.phase2_metrics.messages > packed.phase2_metrics.messages);
        }
    }

    #[test]
    fn disconnected_graph_rejected() {
        let g = generators::disjoint_union(&generators::path(3), &generators::path(3));
        let w = VertexWeights::uniform(6);
        assert!(matches!(
            g2_mwvc_congest(&g, &w, 0.5).unwrap_err(),
            SimError::PreconditionViolated { .. }
        ));
    }

    #[test]
    fn rounds_reasonable() {
        let g = generators::cycle(24);
        let w = VertexWeights::uniform(24);
        let r = check(&g, &w, 0.5);
        // O(n log n / ε) with small constants; sanity-check a generous cap.
        assert!(r.total_rounds() < 24 * 64, "{} rounds", r.total_rounds());
    }
}

#[cfg(test)]
mod msg_size_tests {
    use super::*;
    use crate::msg_budget::fits_default_bandwidth;
    use proptest::prelude::*;

    fn arb_msg() -> impl Strategy<Value = WMsg> {
        prop_oneof![
            any::<u64>().prop_map(WMsg::Weight),
            Just(WMsg::Cand),
            any::<u32>().prop_map(WMsg::MaxCand),
            Just(WMsg::JoinS),
            Just(WMsg::LeftR),
        ]
    }

    proptest! {
        #[test]
        fn w_msg_fits_default_bandwidth(m in arb_msg()) {
            fits_default_bandwidth(&m)?;
            if let WMsg::Weight(w) = m {
                // A weight is charged exactly the bits that hold it.
                let bits = m.size_bits(8) - 3;
                prop_assert!(bits == 64 || w >> bits == 0, "{w} in {bits} bits");
                prop_assert!(bits == 1 || w >> (bits - 1) == 1, "{w} in {bits} bits");
            }
        }
    }
}
