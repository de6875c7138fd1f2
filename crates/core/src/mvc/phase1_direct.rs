//! BMM-prepared Phase I: candidacy sent directly over materialized `G²`
//! rows.
//!
//! The classic relay machine ([`Phase1`]) spends four rounds per
//! iteration because nodes only know `G`: the two-hop candidate maximum
//! is assembled by a one-hop relay (`Cand`, then `MaxCand`). Once
//! [`clique_bmm`] has materialized every node's exact `G²` row, the
//! congested clique lets a candidate message that row *directly* — the
//! relay round disappears and an iteration costs three rounds with
//! 2-bit messages throughout.
//!
//! The trajectory is provably the relay one. A node `u` hears `Cand`
//! from candidate `c` iff `u ∈ N²(c)`, which by symmetry of `G²` is
//! `c ∈ N²(u)` — exactly the candidate set whose maximum the relay
//! hands each candidate via `MaxCand`. Ids are distinct, so "my id
//! exceeds every candidate id I heard" selects the same winners; the
//! `JoinS` targets (the winner's current `R`-neighborhood) and the
//! `LeftR` broadcasts then coincide iteration by iteration, and the
//! final `(in_s, r_neighbors)` output is bit-identical.
//!
//! When any [`G2Row`] comes back as a truncated sketch
//! (`exact == false`) the symmetry argument is void, so
//! [`run_phase1_with_prep`] falls back **wholesale** to the relay
//! machine — never a mixed execution — preserving the bit-identical
//! cover guarantee at the cost of the (already spent) prep rounds.

use crate::mvc::phase1::{P1Output, Phase1};
use pga_congest::{
    clique_bmm, Algorithm, Ctx, G2Prep, Metrics, MsgSize, RunConfig, SimError, Simulator,
};
use pga_graph::{Graph, NodeId};

/// Messages of the direct (BMM-prepared) Phase I. No `MaxCand` arm:
/// candidacy reaches the whole two-hop neighborhood in one round.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum DirectP1Msg {
    /// "I am an eligible center this iteration" — sent directly to the
    /// sender's entire `G²` row.
    Cand,
    /// "I won; you are my `R`-neighbor: join the cover `S`."
    JoinS,
    /// "I just left `R`."
    LeftR,
}

impl MsgSize for DirectP1Msg {
    fn size_bits(&self, _id_bits: usize) -> usize {
        2
    }
}

/// Direct Phase I node state: [`Phase1`] with the relay folded away.
///
/// Iterations of three rounds each:
///
/// 1. eligible centers send `Cand` to their whole `G²` row,
/// 2. a candidate that heard no larger candidate id wins and tells its
///    `R`-neighbors to join `S`,
/// 3. nodes that joined `S` announce they left `R`.
pub(crate) struct DirectPhase1 {
    threshold: usize,
    /// This node's exact `G²` row, materialized by [`clique_bmm`].
    row: Vec<NodeId>,
    in_c: bool,
    in_s: bool,
    /// Sorted ids of neighbors currently in `R`.
    r_neighbors: Vec<NodeId>,
    candidate_now: bool,
    initialized: bool,
    /// Phase deadline in rounds (see `Phase1::with_deadline`).
    deadline: Option<usize>,
    timed_out: bool,
}

impl DirectPhase1 {
    pub(crate) fn new(threshold: usize, row: Vec<NodeId>) -> Self {
        DirectPhase1 {
            threshold,
            row,
            in_c: true,
            in_s: false,
            r_neighbors: Vec::new(),
            candidate_now: false,
            initialized: false,
            deadline: None,
            timed_out: false,
        }
    }

    /// Arms the phase timeout (same conservative fallback as
    /// `Phase1::with_deadline`: withdraw from `C`, keep the stale —
    /// superset — R-neighborhood).
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

impl Algorithm for DirectPhase1 {
    type Msg = DirectP1Msg;
    type Output = P1Output;

    fn round(&mut self, ctx: &Ctx, inbox: &[(NodeId, DirectP1Msg)]) -> Vec<(NodeId, DirectP1Msg)> {
        if !self.initialized {
            // R starts as all of V: every neighbor is an R-neighbor.
            self.r_neighbors = ctx.graph_neighbors.to_vec();
            self.initialized = true;
        }
        let mut out = Vec::new();
        let mut joined_s_now = false;

        // Ingest. `cand_max` is the largest candidate id in N²(v) this
        // iteration — delivered directly, no relay.
        let mut cand_max: Option<u32> = None;
        for (from, msg) in inbox {
            match msg {
                DirectP1Msg::Cand => {
                    cand_max = Some(cand_max.map_or(from.0, |m: u32| m.max(from.0)));
                }
                DirectP1Msg::JoinS => {
                    if !self.in_s {
                        self.in_s = true;
                        joined_s_now = true;
                    }
                }
                DirectP1Msg::LeftR => {
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

        match ctx.round % 3 {
            0 => {
                // Step 1: candidacy, straight to the G² row. (LeftR from
                // the previous iteration was ingested above, so
                // eligibility is up to date.)
                self.candidate_now = self.eligible();
                if self.candidate_now {
                    out = Vec::with_capacity(self.row.len());
                    out.extend(self.row.iter().map(|&v| (v, DirectP1Msg::Cand)));
                }
            }
            1 => {
                // Step 2: winner determination. Every candidate within
                // two hops announced itself directly, so the inbox
                // maximum IS the two-hop maximum.
                if self.candidate_now && cand_max.is_none_or(|m| m < ctx.id.0) {
                    // Winner: neighbors in R join S; we leave C.
                    self.in_c = false;
                    for v in std::mem::take(&mut self.r_neighbors) {
                        out.push((v, DirectP1Msg::JoinS));
                    }
                }
            }
            2 => {
                // Step 3: announce leaving R.
                if joined_s_now {
                    for &v in ctx.graph_neighbors {
                        out.push((v, DirectP1Msg::LeftR));
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
        // A stale `candidate_now` from a pre-ineligibility Step 1 would
        // leak into the winner check on re-activation; it is cleared by
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

/// Runs Phase I under `cfg`'s [`G2Prep`] policy; returns the per-node
/// outputs plus the Phase-I metrics (prep run folded in).
///
/// * [`G2Prep::Relay`]: the classic four-round relay machine, unchanged.
/// * [`G2Prep::Bmm`]: first materialize `G²` rows with [`clique_bmm`]
///   under `cap_words`. If every row is exact, run the three-round
///   direct machine on them; otherwise fall back wholesale to the relay
///   machine and discard the sketch rows (a mixed execution could
///   diverge). Either way the prep rounds, messages, and bits are
///   merged into the returned metrics, so the BMM pipeline is charged
///   honestly for its preprocessing.
pub(crate) fn run_phase1_with_prep(
    g: &Graph,
    threshold: usize,
    cap_words: usize,
    cfg: &RunConfig,
) -> Result<(Vec<P1Output>, Metrics), SimError> {
    let n = g.num_nodes();
    // Clean bound: at most n winner iterations of ≤ 4 rounds each.
    let deadline = cfg.phase_deadline(4 * n + 8);
    let relay = |cfg: &RunConfig| {
        Simulator::congested_clique(g).run_cfg(
            (0..n)
                .map(|_| Phase1::new(threshold).with_deadline(deadline))
                .collect(),
            cfg,
        )
    };
    if cfg.g2_prep == G2Prep::Relay {
        let p1 = relay(cfg)?;
        return Ok((p1.outputs, p1.metrics));
    }
    let prep = clique_bmm(g, cap_words, cfg)?;
    let p1 = if prep.outputs.iter().all(|r| r.exact) {
        let nodes = prep
            .outputs
            .into_iter()
            .map(|r| DirectPhase1::new(threshold, r.neighbors).with_deadline(deadline))
            .collect();
        Simulator::congested_clique(g).run_cfg(nodes, cfg)?
    } else {
        relay(cfg)?
    };
    Ok((p1.outputs, merge_metrics(prep.metrics, p1.metrics)))
}

/// Folds a prep run's metrics into the main phase's, as if the two were
/// a single run executed back to back.
pub(crate) fn merge_metrics(prep: Metrics, main: Metrics) -> Metrics {
    // If the main phase never sent anything, the merged run went quiet
    // when the prep did; otherwise the main phase's convergence shifts
    // by the prep's round count.
    let convergence_round = if main.messages == 0 {
        prep.convergence_round
    } else {
        prep.rounds + main.convergence_round
    };
    let mut congestion_profile = prep.congestion_profile;
    congestion_profile.extend(main.congestion_profile);
    Metrics {
        rounds: prep.rounds + main.rounds,
        messages: prep.messages + main.messages,
        bits: prep.bits + main.bits,
        max_message_bits: prep.max_message_bits.max(main.max_message_bits),
        congestion_profile,
        fault: {
            let mut f = prep.fault;
            f.absorb(&main.fault);
            f
        },
        convergence_round,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pga_congest::FaultStats;
    use pga_graph::generators;
    use pga_graph::power::square;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run_relay(g: &Graph, threshold: usize) -> (Vec<P1Output>, Metrics) {
        let nodes = (0..g.num_nodes()).map(|_| Phase1::new(threshold)).collect();
        let r = Simulator::congested_clique(g)
            .run_cfg(nodes, &RunConfig::new())
            .unwrap();
        (r.outputs, r.metrics)
    }

    /// Runs the direct machine standalone on centrally computed rows.
    fn run_direct(g: &Graph, threshold: usize) -> (Vec<P1Output>, Metrics) {
        let g2 = square(g);
        let nodes = g
            .nodes()
            .map(|v| DirectPhase1::new(threshold, g2.neighbors(v).to_vec()))
            .collect();
        let r = Simulator::congested_clique(g)
            .run_cfg(nodes, &RunConfig::new())
            .unwrap();
        (r.outputs, r.metrics)
    }

    fn trajectories() -> Vec<(String, Graph, usize)> {
        let mut rng = StdRng::seed_from_u64(23);
        vec![
            ("star".into(), generators::star(9), 2),
            ("path".into(), generators::path(10), 2),
            ("k55".into(), generators::complete_bipartite(5, 5), 2),
            ("chain".into(), generators::clique_chain(4, 6), 2),
            ("cycle_t0".into(), generators::cycle(7), 0),
            (
                "gnp".into(),
                generators::connected_gnp(40, 0.2, &mut rng),
                3,
            ),
            (
                "sbm".into(),
                generators::planted_partition(120, 6, 0.6, 0.02, 5),
                4,
            ),
        ]
    }

    #[test]
    fn direct_matches_relay_on_families() {
        for (name, g, t) in trajectories() {
            let (relay, _) = run_relay(&g, t);
            let (direct, _) = run_direct(&g, t);
            for (v, (a, b)) in relay.iter().zip(direct.iter()).enumerate() {
                assert_eq!(a, b, "{name}: node {v} diverged");
            }
        }
    }

    #[test]
    fn direct_iterations_are_shorter() {
        // K_{5,5} fires two sequential winners: the relay pays 4 rounds
        // per iteration, the direct machine 3.
        let g = generators::complete_bipartite(5, 5);
        let (_, relay) = run_relay(&g, 2);
        let (_, direct) = run_direct(&g, 2);
        assert!(
            direct.rounds < relay.rounds,
            "direct {} !< relay {}",
            direct.rounds,
            relay.rounds
        );
    }

    #[test]
    fn prep_runner_matches_relay_and_charges_prep() {
        let cfg = RunConfig::new().bmm_prep();
        for (name, g, t) in trajectories() {
            let (relay, _) = run_relay(&g, t);
            let (prep, prep_m) = run_phase1_with_prep(&g, t, usize::MAX, &cfg).unwrap();
            for (v, (a, b)) in relay.iter().zip(prep.iter()).enumerate() {
                assert_eq!(a, b, "{name}: node {v} diverged");
            }
            // The BMM materialization always exchanges messages on a
            // non-empty graph, and the merged metrics must show it.
            if g.num_edges() > 0 {
                assert!(
                    prep_m.rounds > 0 && prep_m.messages > 0,
                    "{name}: prep not charged"
                );
            }
        }
    }

    #[test]
    fn sketch_rows_fall_back_to_relay() {
        // cap_words = 1 truncates the star center's row (130 neighbors
        // span 3 words), so the runner must discard the sketches and
        // replay the relay machine — outputs still bit-identical.
        let g = generators::star(130);
        let (relay, _) = run_relay(&g, 2);
        let cfg = RunConfig::new().bmm_prep();
        let (prep, prep_m) = run_phase1_with_prep(&g, 2, 1, &cfg).unwrap();
        for (v, (a, b)) in relay.iter().zip(prep.iter()).enumerate() {
            assert_eq!(a, b, "node {v} diverged on fallback");
        }
        // The merged profile covers prep + relay rounds.
        assert_eq!(prep_m.congestion_profile.len(), prep_m.rounds);
    }

    #[test]
    fn merge_metrics_concatenates() {
        let prep = Metrics {
            rounds: 3,
            messages: 10,
            bits: 100,
            max_message_bits: 70,
            congestion_profile: vec![70, 10, 0],
            fault: FaultStats {
                delivered: 10,
                ..Default::default()
            },
            convergence_round: 2,
        };
        let main = Metrics {
            rounds: 2,
            messages: 4,
            bits: 8,
            max_message_bits: 2,
            congestion_profile: vec![2, 2],
            fault: FaultStats {
                delivered: 4,
                ..Default::default()
            },
            convergence_round: 1,
        };
        let m = merge_metrics(prep.clone(), main);
        assert_eq!(m.rounds, 5);
        assert_eq!(m.messages, 14);
        assert_eq!(m.bits, 108);
        assert_eq!(m.max_message_bits, 70);
        assert_eq!(m.congestion_profile, vec![70, 10, 0, 2, 2]);
        assert_eq!(m.fault.delivered, 14);
        assert_eq!(m.convergence_round, 4);
        // A silent main phase inherits the prep's convergence point.
        let quiet = merge_metrics(prep, Metrics::default());
        assert_eq!(quiet.convergence_round, 2);
    }
}

#[cfg(test)]
mod msg_size_tests {
    use super::*;
    use crate::msg_budget::fits_default_bandwidth;
    use proptest::prelude::*;

    fn arb_msg() -> impl Strategy<Value = DirectP1Msg> {
        prop_oneof![
            Just(DirectP1Msg::Cand),
            Just(DirectP1Msg::JoinS),
            Just(DirectP1Msg::LeftR),
        ]
    }

    proptest! {
        #[test]
        fn direct_p1_msg_fits_default_bandwidth(m in arb_msg()) {
            fits_default_bandwidth(&m)?;
            // Id-free: one cost at every network size.
            prop_assert_eq!(m.size_bits(1), m.size_bits(32));
        }
    }
}
