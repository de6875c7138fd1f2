//! A native low-space MPC algorithm: the greedy 2-ruling set of `G²`.
//!
//! Following the deterministic MPC ruling-set line of Pai–Pemmaraju
//! (arXiv:2205.12686), this computes a set `R` that is **independent in
//! `G²`** (members are pairwise more than 2 `G`-hops apart) and
//! **dominating in `G²`** (every vertex is within 2 `G`-hops of `R`) —
//! i.e. a 2-ruling set of `G`, and simultaneously a maximal independent
//! set of the square. Because `R` dominates `G²`, it serves as an
//! alternative cover/dominating seed for the paper's `G²` problems.
//!
//! The algorithm is the vertex-partitioned *parallel greedy*: in every
//! iteration each undecided vertex whose id is minimal among the
//! undecided vertices of its closed 2-hop neighborhood joins `R`, and
//! everything within 2 hops of a new member is ruled out. This produces
//! exactly the **lexicographically-first MIS of `G²`** ([`lex_first_g2_mis`]
//! is the sequential oracle the tests compare against bit for bit), and
//! it terminates because the globally-minimal undecided id always joins.
//!
//! One iteration costs 4 MPC rounds of boundary-only traffic:
//!
//! 1. **A** — owners compute `m1(v) = min{undecided id in N[v] ∪ {v}}`
//!    and ship it to every machine hosting a neighbor of `v`;
//! 2. **B** — owners fold `m1` over `N[v]` to get the 2-hop minimum
//!    `m2(v)`; a vertex with `m2(v) = v` joins `R`; joins are announced;
//! 3. **C** — owners compute `r1(v) = [R ∩ (N[v] ∪ {v}) ≠ ∅]` and ship
//!    the true bits;
//! 4. **D** — an undecided vertex with `r1` true anywhere in `N[v] ∪ {v}`
//!    becomes *ruled* (it is within 2 hops of `R`); rulings are announced.
//!
//! Machines hold only their hosted adjacency plus ghost tables for
//! boundary neighbors, so memory stays proportional to the partition
//! slice, and per-round I/O is bounded by the boundary size — both
//! enforced by the engine against the budget `S`.

use crate::engine::{Machine, MachineId, MpcCtx, MpcError, MpcSimulator, WordSize};
use crate::metrics::MpcMetrics;
use crate::util::{cut_batches, greedy_partition, owner_table};
use crate::RunConfig;
use pga_congest::Engine;
use pga_graph::{Graph, NodeId};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

const UNDECIDED: u8 = 0;
const IN_R: u8 = 1;
const RULED: u8 = 2;

/// One entry of a ruling-set exchange message.
#[derive(Clone, Debug)]
enum RsVal {
    /// New status of the named vertex ([`IN_R`] or [`RULED`]).
    Status(u8),
    /// The vertex's 1-hop undecided minimum `m1` for this iteration.
    M1(u32),
    /// The vertex's `r1` bit is true (false is implicit).
    R1,
}

/// A batch of `(vertex, value)` entries between two machines; one word
/// per entry (a 32-bit id packs with a 32-bit payload).
#[derive(Clone, Debug)]
pub struct RsMsg {
    entries: Vec<(u32, RsVal)>,
}

impl WordSize for RsMsg {
    fn size_bits(&self, _id_bits: usize) -> usize {
        64 * self.entries.len()
    }

    fn size_words(&self) -> usize {
        self.entries.len()
    }
}

/// One machine of the ruling-set computation, hosting vertices
/// `lo..lo + status.len()`.
struct RsMachine<'g> {
    g: &'g Graph,
    lo: usize,
    status: Vec<u8>,
    /// Hosted `m1`, recomputed each iteration in phase A.
    m1: Vec<u32>,
    /// Hosted `r1`, recomputed each iteration in phase C.
    r1: Vec<bool>,
    /// Status of boundary neighbors (vertices hosted elsewhere that are
    /// adjacent to a hosted vertex).
    ghost_status: HashMap<u32, u8>,
    /// Boundary neighbors' `m1` of the current iteration.
    ghost_m1: HashMap<u32, u32>,
    /// Boundary neighbors with a true `r1` this iteration.
    ghost_r1: HashSet<u32>,
    /// The machine hosting each vertex (shared by every machine).
    owner: Arc<[MachineId]>,
    /// This round's outgoing `(vertex, value)` entries by destination
    /// machine; reused across rounds.
    staged: Vec<(MachineId, (u32, RsVal))>,
    adjacency_words: usize,
    /// Phase deadline in rounds. At the deadline every hosted vertex
    /// still undecided joins `R`: `RULED` is truthful (only ever set
    /// within 2 hops of `R`), so force-joining the undecided preserves
    /// `G²`-domination — only independence (and the lex-first equality)
    /// can degrade. `None` (the default) never fires.
    deadline: Option<usize>,
    timed_out: bool,
}

impl RsMachine<'_> {
    fn hosted(&self) -> usize {
        self.status.len()
    }

    fn is_hosted(&self, v: NodeId) -> bool {
        let i = v.index();
        i >= self.lo && i < self.lo + self.hosted()
    }

    fn status_of(&self, v: NodeId) -> u8 {
        if self.is_hosted(v) {
            self.status[v.index() - self.lo]
        } else {
            self.ghost_status[&v.0]
        }
    }

    /// Whether any vertex this machine can see (hosted or ghost) is
    /// still undecided. Quiet machines skip all sends: if every vertex a
    /// machine sees is decided, no neighbor can still need its values.
    fn active(&self) -> bool {
        self.status.contains(&UNDECIDED) || self.ghost_status.values().any(|&s| s == UNDECIDED)
    }

    /// Stages `(v, val)` for every *other* machine hosting a neighbor of
    /// `v`. Neighbor lists are sorted, so owning machines appear in
    /// nondecreasing order and deduplicate for free.
    fn send_to_peers(&mut self, v: NodeId, val: RsVal, my_id: MachineId) {
        let mut last: Option<MachineId> = None;
        for &u in self.g.neighbors(v) {
            let m = self.owner[u.index()];
            if m != my_id && last != Some(m) {
                self.staged.push((m, (v.0, val.clone())));
            }
            last = Some(m);
        }
    }

    fn m1_of(&self, v: NodeId) -> u32 {
        if self.is_hosted(v) {
            self.m1[v.index() - self.lo]
        } else {
            // A missing entry means the neighbor's machine went quiet —
            // then its whole 1-hop neighborhood is decided and it
            // contributes no undecided minimum.
            *self.ghost_m1.get(&v.0).unwrap_or(&u32::MAX)
        }
    }

    fn r1_of(&self, v: NodeId) -> bool {
        if self.is_hosted(v) {
            self.r1[v.index() - self.lo]
        } else {
            self.ghost_r1.contains(&v.0)
        }
    }
}

impl Machine for RsMachine<'_> {
    type Msg = RsMsg;
    /// Hosted membership bits plus whether this machine fell back to
    /// the phase-timeout path.
    type Output = (Vec<bool>, bool);

    fn round(
        &mut self,
        ctx: &MpcCtx,
        inbox: &[(MachineId, RsMsg)],
    ) -> Result<Vec<(MachineId, RsMsg)>, MpcError> {
        for (_, msg) in inbox {
            for (v, val) in &msg.entries {
                match val {
                    RsVal::Status(s) => {
                        self.ghost_status.insert(*v, *s);
                    }
                    RsVal::M1(x) => {
                        self.ghost_m1.insert(*v, *x);
                    }
                    RsVal::R1 => {
                        self.ghost_r1.insert(*v);
                    }
                }
            }
        }

        // Phase-timeout fallback: all deadlines fire at the same global
        // round, so every machine force-decides consistently (see the
        // `deadline` field).
        if let Some(d) = self.deadline {
            if ctx.round >= d && self.active() {
                self.timed_out = true;
                for s in &mut self.status {
                    if *s == UNDECIDED {
                        *s = IN_R;
                    }
                }
                for s in self.ghost_status.values_mut() {
                    if *s == UNDECIDED {
                        *s = RULED;
                    }
                }
                return Ok(Vec::new());
            }
        }

        let my_id = ctx.id;
        match ctx.round % 4 {
            // Phase A: 1-hop undecided minima.
            0 => {
                if self.active() {
                    for k in 0..self.hosted() {
                        let v = NodeId::from_index(self.lo + k);
                        let mut m1 = if self.status[k] == UNDECIDED {
                            v.0
                        } else {
                            u32::MAX
                        };
                        for &u in self.g.neighbors(v) {
                            if self.status_of(u) == UNDECIDED {
                                m1 = m1.min(u.0);
                            }
                        }
                        self.m1[k] = m1;
                        self.send_to_peers(v, RsVal::M1(m1), my_id);
                    }
                }
            }
            // Phase B: 2-hop minima; local minima join R.
            1 => {
                if self.active() {
                    let mut joined: Vec<usize> = Vec::new();
                    for k in 0..self.hosted() {
                        if self.status[k] != UNDECIDED {
                            continue;
                        }
                        let v = NodeId::from_index(self.lo + k);
                        let mut m2 = self.m1[k];
                        for &u in self.g.neighbors(v) {
                            m2 = m2.min(self.m1_of(u));
                        }
                        if m2 == v.0 {
                            joined.push(k);
                        }
                    }
                    for k in joined {
                        self.status[k] = IN_R;
                        let v = NodeId::from_index(self.lo + k);
                        self.send_to_peers(v, RsVal::Status(IN_R), my_id);
                    }
                }
            }
            // Phase C: 1-hop R indicators.
            2 => {
                if self.active() {
                    for k in 0..self.hosted() {
                        let v = NodeId::from_index(self.lo + k);
                        let mut r1 = self.status[k] == IN_R;
                        for &u in self.g.neighbors(v) {
                            r1 |= self.status_of(u) == IN_R;
                        }
                        self.r1[k] = r1;
                        if r1 {
                            self.send_to_peers(v, RsVal::R1, my_id);
                        }
                    }
                }
            }
            // Phase D: rule out everything within 2 hops of R.
            _ => {
                if self.active() {
                    let mut ruled: Vec<usize> = Vec::new();
                    for k in 0..self.hosted() {
                        if self.status[k] != UNDECIDED {
                            continue;
                        }
                        let v = NodeId::from_index(self.lo + k);
                        let mut covered = self.r1[k];
                        for &u in self.g.neighbors(v) {
                            covered |= self.r1_of(u);
                        }
                        if covered {
                            ruled.push(k);
                        }
                    }
                    for k in ruled {
                        self.status[k] = RULED;
                        let v = NodeId::from_index(self.lo + k);
                        self.send_to_peers(v, RsVal::Status(RULED), my_id);
                    }
                }
                // Iteration boundary: per-iteration ghosts reset.
                self.ghost_m1.clear();
                self.ghost_r1.clear();
            }
        }

        Ok(cut_batches(
            &mut self.staged,
            |entry| RsMsg {
                entries: vec![entry],
            },
            |msg, entry| msg.entries.push(entry),
        ))
    }

    fn memory_words(&self) -> usize {
        self.adjacency_words
            + 3 * self.hosted()
            + 2 * (self.ghost_status.len() + self.ghost_m1.len())
            + self.ghost_r1.len()
    }

    fn is_done(&self, _ctx: &MpcCtx) -> bool {
        !self.active()
    }

    fn can_skip(&self, _ctx: &MpcCtx) -> bool {
        // Phase D clears the per-iteration ghost tables unconditionally,
        // which changes the declared memory footprint — not a no-op even
        // for a decided machine. Never skippable.
        false
    }

    fn output(&self, _ctx: &MpcCtx) -> (Vec<bool>, bool) {
        // A vertex still UNDECIDED at collection time (the machine
        // crashed mid-run, before the deadline fallback could fire)
        // force-joins R: RULED verdicts are truthful — only ever set
        // with a ruler within two hops — so joining every undecided
        // vertex preserves G²-domination. Unreachable on a clean run,
        // where `is_done` requires every vertex decided.
        let undecided = self.status.contains(&UNDECIDED);
        (
            self.status.iter().map(|&s| s != RULED).collect(),
            self.timed_out || undecided,
        )
    }
}

/// Result of the MPC 2-ruling-set computation.
#[derive(Debug)]
pub struct RulingSetResult {
    /// Membership vector of `R`, indexed by vertex id.
    pub in_r: Vec<bool>,
    /// MPC resource metrics of the run.
    pub mpc: MpcMetrics,
    /// Number of machines used.
    pub machines: usize,
}

impl RulingSetResult {
    /// Size of the ruling set.
    pub fn size(&self) -> usize {
        self.in_r.iter().filter(|&&b| b).count()
    }
}

/// A memory budget sufficient to host `g`'s fattest vertex with the
/// ruling set's per-vertex cost.
pub fn recommended_ruling_set_memory_words(g: &Graph) -> usize {
    let worst = (0..g.num_nodes())
        .map(|v| ruling_set_vertex_cost(g.degree(NodeId::from_index(v))))
        .max()
        .unwrap_or(0);
    crate::engine::low_space_words(g.num_nodes().max(1), 0.7)
        .max(2 * worst)
        .max(256)
}

/// Words reserved per hosted vertex when packing the partition:
/// per-vertex state, the adjacency slice, ghost-table shares, and one
/// one-word boundary message per incident edge.
fn ruling_set_vertex_cost(degree: usize) -> usize {
    4 + 4 * degree
}

/// Computes the greedy 2-ruling set of `G²` on the MPC engine.
///
/// The result equals [`lex_first_g2_mis`]`(g)` bit for bit (the
/// distributed rounds and the sequential greedy compute the same set),
/// is independent in `G²`, dominating in `G²`, and defined on
/// disconnected graphs too (unlike the BFS-tree-based CONGEST phases).
///
/// # Errors
///
/// Returns an [`MpcError`] if `memory_words` cannot host the busiest
/// vertex or a budget is violated at runtime.
pub fn g2_ruling_set_mpc(
    g: &Graph,
    memory_words: usize,
    engine: Engine,
) -> Result<RulingSetResult, MpcError> {
    g2_ruling_set_mpc_cfg(g, memory_words, &RunConfig::new().engine(engine))
}

/// [`g2_ruling_set_mpc`] under a full [`RunConfig`]: engine, scheduling
/// policy, round budget, and fault plan in one value (see
/// [`MpcSimulator::run_cfg`]). With [`RunConfig::fault`] set the
/// distributed rounds execute under the seeded adversary, so the
/// result may lose the [`lex_first_g2_mis`] equality — and even
/// `G²`-domination — which is exactly the degradation the fault bench
/// measures.
///
/// # Errors
///
/// Returns an [`MpcError`] like [`g2_ruling_set_mpc`].
pub fn g2_ruling_set_mpc_cfg(
    g: &Graph,
    memory_words: usize,
    cfg: &RunConfig,
) -> Result<RulingSetResult, MpcError> {
    let n = g.num_nodes();
    let starts = greedy_partition(
        (0..n).map(|v| ruling_set_vertex_cost(g.degree(NodeId::from_index(v)))),
        memory_words / 2,
        "memory budget S cannot host the busiest vertex; the ruling set needs \
         S ≥ 2·(4·Δ + 4) words",
    )?;
    let owner = owner_table(&starts);
    let num_machines = starts.len().saturating_sub(1);

    let mut machines = Vec::with_capacity(num_machines);
    for k in 0..num_machines {
        let (lo, hi) = (starts[k], starts[k + 1]);
        let mut ghost_status = HashMap::new();
        for v in lo..hi {
            for &u in g.neighbors(NodeId::from_index(v)) {
                if u.index() < lo || u.index() >= hi {
                    ghost_status.insert(u.0, UNDECIDED);
                }
            }
        }
        machines.push(RsMachine {
            g,
            lo,
            status: vec![UNDECIDED; hi - lo],
            m1: vec![u32::MAX; hi - lo],
            r1: vec![false; hi - lo],
            ghost_status,
            ghost_m1: HashMap::new(),
            ghost_r1: HashSet::new(),
            owner: Arc::clone(&owner),
            staged: Vec::new(),
            adjacency_words: (lo..hi).map(|v| g.degree(NodeId::from_index(v))).sum(),
            // Clean bound: ≤ n+1 four-round iterations (the globally
            // minimal undecided id joins R every iteration).
            deadline: cfg.phase_deadline(4 * (n + 1) + 8),
            timed_out: false,
        });
    }

    let report = MpcSimulator::new(memory_words).run_cfg(machines, cfg)?;
    let mut in_r = Vec::with_capacity(n);
    let mut mpc = report.metrics;
    for (shard, timed_out) in report.outputs {
        in_r.extend(shard);
        mpc.fault.degraded += u64::from(timed_out);
    }
    Ok(RulingSetResult {
        in_r,
        mpc,
        machines: num_machines,
    })
}

/// [`g2_ruling_set_mpc`] with the recommended memory budget and the
/// sequential engine.
///
/// # Errors
///
/// Returns an [`MpcError`] like [`g2_ruling_set_mpc`].
pub fn g2_ruling_set_mpc_auto(g: &Graph) -> Result<RulingSetResult, MpcError> {
    g2_ruling_set_mpc(
        g,
        recommended_ruling_set_memory_words(g),
        Engine::Sequential,
    )
}

/// The sequential oracle: the lexicographically-first maximal
/// independent set of `G²`, computed greedily by ascending id without
/// materializing the square (`O(Σ_v deg(v)²)` time).
pub fn lex_first_g2_mis(g: &Graph) -> Vec<bool> {
    let n = g.num_nodes();
    let mut in_r = vec![false; n];
    let mut blocked = vec![false; n];
    for v in 0..n {
        if blocked[v] {
            continue;
        }
        in_r[v] = true;
        blocked[v] = true;
        let v = NodeId::from_index(v);
        for &u in g.neighbors(v) {
            blocked[u.index()] = true;
            for &w in g.neighbors(u) {
                blocked[w.index()] = true;
            }
        }
    }
    in_r
}

#[cfg(test)]
mod tests {
    use super::*;
    use pga_graph::cover::is_dominating_set_on_square;
    use pga_graph::generators;
    use pga_graph::power::square;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn check_ruling_set(g: &Graph) {
        let result = g2_ruling_set_mpc_auto(g).unwrap();
        // Matches the sequential greedy bit for bit.
        assert_eq!(result.in_r, lex_first_g2_mis(g), "{g:?}");
        if g.num_nodes() == 0 {
            return;
        }
        // Independent in G².
        let g2 = square(g);
        let members: Vec<NodeId> = (0..g.num_nodes())
            .filter(|&v| result.in_r[v])
            .map(NodeId::from_index)
            .collect();
        for (i, &u) in members.iter().enumerate() {
            for &v in &members[i + 1..] {
                assert!(!g2.has_edge(u, v), "{u:?},{v:?} both in R at distance ≤ 2");
            }
        }
        // Dominating in G² (every vertex within 2 hops of R).
        assert!(is_dominating_set_on_square(g, &result.in_r), "{g:?}");
    }

    #[test]
    fn valid_on_families() {
        for g in [
            generators::path(23),
            generators::cycle(17),
            generators::star(30),
            generators::grid(5, 8),
            generators::clique_chain(4, 5),
            generators::complete(9),
            Graph::empty(0),
            Graph::empty(7),
        ] {
            check_ruling_set(&g);
        }
    }

    #[test]
    fn valid_on_disconnected_graphs() {
        let g = generators::disjoint_union(&generators::path(9), &generators::grid(3, 4));
        check_ruling_set(&g);
    }

    #[test]
    fn valid_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..6 {
            let g = generators::connected_gnp(40, 0.08, &mut rng);
            check_ruling_set(&g);
        }
        check_ruling_set(&generators::barabasi_albert(120, 3, 9));
    }

    #[test]
    fn engines_bit_identical() {
        let g = generators::grid(9, 9);
        let s = recommended_ruling_set_memory_words(&g);
        let seq = g2_ruling_set_mpc(&g, s, Engine::Sequential).unwrap();
        for threads in [2, 4] {
            let par = g2_ruling_set_mpc(&g, s, Engine::Parallel { threads }).unwrap();
            assert_eq!(par.in_r, seq.in_r, "t={threads}");
            assert_eq!(par.mpc, seq.mpc, "t={threads}");
        }
    }

    #[test]
    fn rounds_are_four_per_iteration() {
        let g = generators::path(50);
        let result = g2_ruling_set_mpc_auto(&g).unwrap();
        // The path rules greedily from the low end: several iterations,
        // each exactly 4 rounds (plus the final quiescent check).
        assert!(result.mpc.rounds % 4 <= 1, "rounds = {}", result.mpc.rounds);
        assert!(result.size() >= 50 / 5, "R too small: {}", result.size());
    }

    #[test]
    fn budget_enforced() {
        let g = generators::star(64);
        let err = g2_ruling_set_mpc(&g, 64, Engine::Sequential).unwrap_err();
        assert!(matches!(err, MpcError::PreconditionViolated { .. }));
    }

    #[test]
    fn distributes_across_machines() {
        let g = generators::grid(10, 10);
        let result = g2_ruling_set_mpc(&g, 256, Engine::Sequential).unwrap();
        assert!(result.machines > 1, "{} machines", result.machines);
        assert_eq!(result.in_r, lex_first_g2_mis(&g));
        assert!(result.mpc.peak_memory_words <= 256);
        assert!(result.mpc.words > 0, "boundary traffic must be non-zero");
    }
}
