//! Profile search: the *shortest travel cost function* query.
//!
//! Computes `f_{s,v}(t)` (Def. 2) for all `v` — the function the paper's
//! "cost function query" experiments (Fig. 8 b/d/f/h) return — by
//! label-correcting relaxation over whole PLFs:
//!
//! ```text
//! dist[s] = 0;   relax (u,v):  dist[v] ← min(dist[v], Compound(dist[u], w_{u,v}))
//! ```
//!
//! Terminates on FIFO graphs with strictly positive edge costs (every
//! improvement lowers the function value somewhere by a bounded amount). Used
//! as the correctness oracle for every index in the workspace, and as the
//! matrix builder inside TD-G-tree.

use crate::astar::Entry;
use crate::budget::QueryBudget;
use std::collections::{BinaryHeap, VecDeque};
use td_graph::{FrozenGraph, Path, TdGraph, VertexId};
use td_plf::{fle, Plf, EPS_COST};

/// Result of a profile search from a source vertex.
#[derive(Clone, Debug)]
pub struct ProfileResult {
    /// Source vertex.
    pub source: VertexId,
    /// `dist[v]` = shortest travel cost function `f_{s,v}(t)`; `None` when
    /// unreachable. `dist[s]` is the zero function.
    pub dist: Vec<Option<Plf>>,
}

impl ProfileResult {
    /// Cost to `d` departing at `t`.
    pub fn cost(&self, d: VertexId, t: f64) -> Option<f64> {
        self.dist[d as usize].as_ref().map(|f| f.eval(t))
    }

    /// Recovers the shortest path to `d` departing at `t` by walking witness
    /// (predecessor) annotations backwards.
    pub fn path(&self, d: VertexId, t: f64) -> Option<Path> {
        self.dist[d as usize].as_ref()?;
        let mut vertices = vec![d];
        let mut cur = d;
        let mut guard = 0usize;
        while cur != self.source {
            let f = self.dist[cur as usize].as_ref()?;
            let (_, via) = f.eval_with_via(t);
            debug_assert_ne!(via, td_plf::NO_VIA, "non-source vertex lacks predecessor");
            vertices.push(via);
            cur = via;
            guard += 1;
            if guard > self.dist.len() {
                return None; // corrupt witnesses; fail loudly in tests
            }
        }
        vertices.reverse();
        Some(Path::new(vertices))
    }
}

/// [`profile_search`] over the frozen CSR/arena layout.
///
/// `fg` must be `g.freeze()` (same vertex/edge ids): adjacency walks and the
/// per-edge `min_cost` bounds come from the frozen arrays, while the function
/// algebra (compound/minimum) still runs on `g`'s owned [`Plf`]s. Tracks a
/// lower bound on each label's minimum and an upper bound on its maximum so
/// a relaxation is skipped — without touching any breakpoints — when
/// `min(dist[u]) + min_cost(e) ≥ max(dist[v])`, i.e. when the candidate can
/// never improve the existing label anywhere. On road networks this prunes
/// most re-relaxations of already-tight labels, which is where the
/// label-correcting search spends its time.
pub fn profile_search_frozen(g: &TdGraph, fg: &FrozenGraph, s: VertexId) -> ProfileResult {
    let (result, complete) = profile_search_frozen_bounded(g, fg, s, &QueryBudget::UNLIMITED);
    debug_assert!(complete, "unlimited budget cannot exhaust");
    result
}

/// [`profile_search_frozen`] under a [`QueryBudget`]: the settle cap counts
/// relaxation rounds (queue pops) and the deadline is checked on the same
/// stride as [`crate::search`]. Returns the labels plus a completeness
/// flag: when `false`, the search stopped early and every present label is
/// a pointwise *upper bound* on the true cost function (label-correcting
/// labels only ever decrease), while absent labels say nothing — exactly
/// the safe side for an anytime profile answer.
pub fn profile_search_frozen_bounded(
    g: &TdGraph,
    fg: &FrozenGraph,
    s: VertexId,
    budget: &QueryBudget,
) -> (ProfileResult, bool) {
    let mut stats = CorridorStats::default();
    profile_frozen_impl(g, fg, s, budget, Prune::None, &mut stats)
}

/// Scalar `[lower, upper]` corridor for a profile search from one source:
/// for every vertex `v`, `lo[v] ≤ f_{s,v}(t) ≤ hi[v]` at every departure
/// time `t`. `lo` is a Dijkstra over the per-edge `min_cost` bounds, `hi`
/// one over `max_cost` — both stream straight off the frozen arrays the
/// arena precomputed, so deriving the corridor costs two cheap scalar
/// searches (no PLF is touched). Unreachable vertices hold `INFINITY` in
/// both rails.
#[derive(Clone, Debug)]
pub struct ProfileCorridor {
    /// Admissible lower bound on `f_{s,v}` everywhere.
    pub lo: Vec<f64>,
    /// Upper bound on `f_{s,v}` everywhere: some concrete path achieves a
    /// cost ≤ `hi[v]` at every departure time.
    pub hi: Vec<f64>,
}

/// Computes the scalar min/max corridor from `s` (the Strasser–Wagner–Zeitz
/// prelude to corridor-bounded profile computation).
pub fn profile_corridor(fg: &FrozenGraph, s: VertexId) -> ProfileCorridor {
    ProfileCorridor {
        lo: static_rail_dists(fg, s, Walk::Forward, Rail::Min),
        hi: static_rail_dists(fg, s, Walk::Forward, Rail::Max),
    }
}

/// Which adjacency a static rail walks: out-edges from a source, or
/// in-edges back from a destination.
#[derive(Clone, Copy)]
enum Walk {
    Forward,
    Backward,
}

/// Which per-edge scalar bound weighs a static rail.
#[derive(Clone, Copy)]
enum Rail {
    Min,
    Max,
}

/// Static Dijkstra from `origin` over one scalar rail of the frozen graph:
/// every edge weighted by its whole-day `min_cost` or `max_cost`, walked
/// along `walk`. `Forward`/`Min` lower-bounds and `Forward`/`Max`
/// upper-bounds every `f_{origin,v}`; `Backward`/`Min` lower-bounds the cost
/// of any `v → origin` path at any departure time. `INFINITY` marks vertices
/// the walk cannot reach.
fn static_rail_dists(fg: &FrozenGraph, origin: VertexId, walk: Walk, rail: Rail) -> Vec<f64> {
    let n = fg.num_vertices();
    let mut dist = vec![f64::INFINITY; n];
    let mut done = vec![false; n];
    let mut heap: BinaryHeap<Entry> = BinaryHeap::new();
    dist[origin as usize] = 0.0;
    heap.push(Entry {
        key: 0.0,
        vertex: origin,
    });
    while let Some(Entry { key, vertex: u }) = heap.pop() {
        if done[u as usize] {
            continue;
        }
        done[u as usize] = true;
        let (neighbours, edges) = match walk {
            Walk::Forward => fg.csr.out_slices(u),
            Walk::Backward => fg.csr.in_slices(u),
        };
        for (&v, &e) in neighbours.iter().zip(edges.iter()) {
            if done[v as usize] {
                continue;
            }
            let w = match rail {
                Rail::Min => fg.min_cost(e),
                Rail::Max => fg.max_cost(e),
            };
            let cand = key + w;
            if cand < dist[v as usize] {
                dist[v as usize] = cand;
                heap.push(Entry {
                    key: cand,
                    vertex: v,
                });
            }
        }
    }
    dist
}

/// Skip/relax counters of a corridor-bounded profile search — surfaced so
/// benches and conformance can report how much work the corridor saved and
/// assert exactness against the unbounded search regardless.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CorridorStats {
    /// Compound/merge operations skipped by the corridor win test alone
    /// (the candidate's scalar lower bound cleared the corridor's upper
    /// rail by more than [`EPS_COST`]).
    pub skipped: u64,
    /// Compound operations actually performed.
    pub relaxed: u64,
}

impl CorridorStats {
    /// These counters mapped onto the workspace-wide [`td_obs::SearchStats`]
    /// vocabulary, so profile searches export through the same telemetry
    /// pipeline as the scalar/A* loops: skips become `corridor_kills`,
    /// compounds become `relaxed`.
    pub fn as_search_stats(&self) -> td_obs::SearchStats {
        td_obs::SearchStats {
            relaxed: self.relaxed,
            corridor_kills: self.skipped,
            ..td_obs::SearchStats::default()
        }
    }
}

/// Corridor-bounded profile search: [`profile_search_frozen`] plus the
/// corridor win test. A candidate compound over edge `(u, v)` is linked and
/// merged only if its scalar lower bound `min(dist[u]) + min_cost(e)` beats
/// the corridor's upper rail `hi[v]` somewhere in the window — tested
/// epsilon-tolerantly ([`fle`] with [`EPS_COST`]), so a compound that *ties*
/// the rail within epsilon is never dropped.
///
/// **Exactness:** `hi[v]` is realized by a concrete path, so the final label
/// satisfies `f_{s,v} ≤ hi[v]` pointwise; a skipped candidate is everywhere
/// `> hi[v] + ε` and therefore nowhere on the lower envelope. Along the
/// max-metric shortest path realizing `hi[v]` every prefix relaxation has
/// `min(dist[u]) + min_cost(e) ≤ hi[v]`, so the witness path itself is never
/// skipped and reachability is preserved. Conformance asserts the result
/// *value-identical* to the unbounded search on the union probe grid (the
/// representations may keep differently-anchored but tolerance-equal
/// breakpoints, because `simplify` is ε-tolerant and the two searches merge
/// over different grids).
pub fn profile_search_frozen_corridor(
    g: &TdGraph,
    fg: &FrozenGraph,
    s: VertexId,
) -> (ProfileResult, CorridorStats) {
    let corridor = profile_corridor(fg, s);
    let mut stats = CorridorStats::default();
    let (result, complete) = profile_frozen_impl(
        g,
        fg,
        s,
        &QueryBudget::UNLIMITED,
        Prune::Rails(&corridor),
        &mut stats,
    );
    debug_assert!(complete, "unlimited budget cannot exhaust");
    (result, stats)
}

/// *Targeted* corridor profile search `s → d`: computes the exact shortest
/// travel cost function `f_{s,d}(t)` while pruning every relaxation that
/// provably cannot contribute to `d`'s lower envelope.
///
/// Two scalar rails frame the corridor (the CATCHUp-style prelude): a
/// forward max-metric Dijkstra gives `ub = hi_s[d]` — some concrete `s → d`
/// path costs ≤ `ub` at *every* departure time — and a backward min-metric
/// Dijkstra from `d` gives `rev_lo[v]`, an everywhere-lower bound on any
/// `v → d` continuation. A compound over `(u, v)` is skipped when
/// `min(dist[u]) + min_cost(e) + rev_lo[v] > ub + ε` (ε-tolerant via
/// [`fle`]/[`EPS_COST`]): any `s → … → u → v → … → d` path through it costs
/// more than `ub` at every time and is nowhere on `f_{s,d}`. Unlike the
/// one-to-all rails this cuts *whole subgraphs* — every branch that wanders
/// away from the `s → d` corridor dies at its first off-corridor edge.
///
/// **Exactness at `d`** (intermediate labels are deliberately partial): for
/// any departure `t`, walk the optimal path `P_t`. By induction its prefix
/// labels satisfy `label_u(t) ≤ cost(prefix, t)`, so at each edge the test
/// value is ≤ `cost(P_t, t) = f_{s,d}(t) ≤ ub` — the optimal path is never
/// pruned, at any `t`. Equality is value-level, same contract as
/// [`profile_search_frozen_corridor`].
///
/// Returns `None` iff `d` is unreachable from `s`.
pub fn profile_search_frozen_corridor_to(
    g: &TdGraph,
    fg: &FrozenGraph,
    s: VertexId,
    d: VertexId,
) -> (Option<Plf>, CorridorStats) {
    let mut stats = CorridorStats::default();
    let ub = static_rail_dists(fg, s, Walk::Forward, Rail::Max)[d as usize];
    if ub.is_infinite() {
        // Max-metric reachability equals reachability (same adjacency,
        // finite weights): d cannot be reached at all.
        return (None, stats);
    }
    let rev_lo = static_rail_dists(fg, d, Walk::Backward, Rail::Min);
    let (mut result, complete) = profile_frozen_impl(
        g,
        fg,
        s,
        &QueryBudget::UNLIMITED,
        Prune::Target {
            rev_lo: &rev_lo,
            ub,
        },
        &mut stats,
    );
    debug_assert!(complete, "unlimited budget cannot exhaust");
    (result.dist[d as usize].take(), stats)
}

/// Which corridor win test [`profile_frozen_impl`] applies per relaxation.
#[derive(Clone, Copy)]
enum Prune<'a> {
    /// Unbounded label-correcting search.
    None,
    /// One-to-all rails: skip when the candidate's min bound clears `hi[v]`.
    Rails(&'a ProfileCorridor),
    /// Targeted `s → d`: skip when even the best continuation through `v`
    /// clears the everywhere-valid `s → d` upper bound.
    Target { rev_lo: &'a [f64], ub: f64 },
}

fn profile_frozen_impl(
    g: &TdGraph,
    fg: &FrozenGraph,
    s: VertexId,
    budget: &QueryBudget,
    prune: Prune<'_>,
    stats: &mut CorridorStats,
) -> (ProfileResult, bool) {
    debug_assert_eq!(g.num_vertices(), fg.num_vertices());
    debug_assert_eq!(g.num_edges(), fg.num_edges());
    let n = g.num_vertices();
    let mut dist: Vec<Option<Plf>> = vec![None; n];
    // lab_min[v] ≤ min(dist[v]) and lab_max[v] ≥ max(dist[v]), maintained in
    // O(1) per relaxation from the arena's per-edge bounds — never by
    // scanning breakpoints: a compound's values lie within
    // [min f + min g, max f + max g], and a pointwise minimum's within
    // [min of mins, min of maxes].
    let mut lab_min = vec![f64::INFINITY; n];
    let mut lab_max = vec![f64::INFINITY; n];
    let mut in_queue = vec![false; n];
    let mut queue: VecDeque<VertexId> = VecDeque::new();
    dist[s as usize] = Some(Plf::zero());
    lab_min[s as usize] = 0.0;
    lab_max[s as usize] = 0.0;
    queue.push_back(s);
    in_queue[s as usize] = true;

    let mut pops = 0usize;
    let pop_limit = 64 * n * n + 1024;
    while let Some(u) = queue.pop_front() {
        if budget.exhausted(pops as u64) {
            return (ProfileResult { source: s, dist }, false);
        }
        pops += 1;
        assert!(
            pops <= pop_limit,
            "profile search failed to converge after {pops} relaxation rounds — \
             the graph likely contains a (near-)zero-cost cycle"
        );
        in_queue[u as usize] = false;
        let du = dist[u as usize]
            .clone()
            .expect("queued vertices have labels");
        let du_min = lab_min[u as usize];
        let (heads, edges, mins) = fg.out_slices_with_min(u);
        for ((&v, &e), &emin) in heads.iter().zip(edges.iter()).zip(mins.iter()) {
            // Admissible prune: every value of the candidate compound is
            // ≥ min(du) + min(w_e); if that already clears the existing
            // label's maximum, the candidate is nowhere below it. The bound
            // streams in with the adjacency walk (no arena touch).
            if dist[v as usize].is_some() && du_min + emin >= lab_max[v as usize] {
                continue;
            }
            // Corridor win test: the candidate can only contribute to the
            // lower envelope if its scalar lower bound beats the corridor's
            // upper rail somewhere — epsilon-tolerant (`fle`/`EPS_COST`), so
            // a compound tying the rail within epsilon is never dropped.
            // The targeted variant adds the backward rail: even the best
            // continuation from `v` must still beat the `s → d` bound.
            match prune {
                Prune::None => {}
                Prune::Rails(c) => {
                    debug_assert!((v as usize) < c.hi.len());
                    if !fle(du_min + emin, c.hi[v as usize], EPS_COST) {
                        stats.skipped += 1;
                        continue;
                    }
                }
                Prune::Target { rev_lo, ub } => {
                    debug_assert!((v as usize) < rev_lo.len());
                    if !fle(du_min + emin + rev_lo[v as usize], ub, EPS_COST) {
                        stats.skipped += 1;
                        continue;
                    }
                }
            }
            stats.relaxed += 1;
            let cand = du.compound(g.weight(e), u);
            // Exact bounds, one fused pass over the points the compound just
            // wrote (still cache-hot). Exactness matters: the loose
            // sum-of-maxes bound degrades multiplicatively along paths and
            // stops the prune from ever firing on compound-heavy graphs.
            let (cand_min, cand_max) = cand.value_bounds();
            let improved = match &dist[v as usize] {
                None => true,
                Some(old) => {
                    let merged = old.minimum(&cand);
                    if merged.approx_eq(old, 1e-7) {
                        false
                    } else {
                        dist[v as usize] = Some(merged);
                        lab_min[v as usize] = lab_min[v as usize].min(cand_min);
                        lab_max[v as usize] = lab_max[v as usize].min(cand_max);
                        if !in_queue[v as usize] {
                            in_queue[v as usize] = true;
                            queue.push_back(v);
                        }
                        continue;
                    }
                }
            };
            if improved {
                dist[v as usize] = Some(cand);
                lab_min[v as usize] = cand_min;
                lab_max[v as usize] = cand_max;
                if !in_queue[v as usize] {
                    in_queue[v as usize] = true;
                    queue.push_back(v);
                }
            }
        }
    }
    (ProfileResult { source: s, dist }, true)
}

/// Profile search from `s`, restricted to vertices for which `keep` returns
/// true (the search still *traverses* everything reachable; `keep` only
/// controls which functions are retained — memory matters on big graphs).
pub fn profile_search_to(
    g: &TdGraph,
    s: VertexId,
    keep: impl Fn(VertexId) -> bool,
) -> ProfileResult {
    let mut r = profile_search(g, s);
    for v in 0..g.num_vertices() as u32 {
        if !keep(v) && v != s {
            r.dist[v as usize] = None;
        }
    }
    r
}

/// Profile search from `s` over the whole graph.
pub fn profile_search(g: &TdGraph, s: VertexId) -> ProfileResult {
    let n = g.num_vertices();
    let mut dist: Vec<Option<Plf>> = vec![None; n];
    let mut in_queue = vec![false; n];
    let mut queue: VecDeque<VertexId> = VecDeque::new();
    dist[s as usize] = Some(Plf::zero());
    queue.push_back(s);
    in_queue[s as usize] = true;

    // Termination guard: label-correcting converges on FIFO graphs with
    // strictly positive costs; a (near-)zero-cost cycle could otherwise churn
    // forever on ε-improvements. The bound is far above any converging run.
    let mut pops = 0usize;
    let pop_limit = 64 * n * n + 1024;
    while let Some(u) = queue.pop_front() {
        pops += 1;
        assert!(
            pops <= pop_limit,
            "profile search failed to converge after {pops} relaxation rounds — \
             the graph likely contains a (near-)zero-cost cycle"
        );
        in_queue[u as usize] = false;
        let du = dist[u as usize]
            .clone()
            .expect("queued vertices have labels");
        for &(v, e) in g.out_edges(u) {
            let cand = du.compound(g.weight(e), u);
            let improved = match &dist[v as usize] {
                None => true,
                Some(old) => {
                    // Improved iff cand is strictly below old somewhere.
                    let merged = old.minimum(&cand);
                    if merged.approx_eq(old, 1e-7) {
                        false
                    } else {
                        dist[v as usize] = Some(merged);
                        if !in_queue[v as usize] {
                            in_queue[v as usize] = true;
                            queue.push_back(v);
                        }
                        continue;
                    }
                }
            };
            if improved {
                dist[v as usize] = Some(cand);
                if !in_queue[v as usize] {
                    in_queue[v as usize] = true;
                    queue.push_back(v);
                }
            }
        }
    }
    ProfileResult { source: s, dist }
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_plf::Plf;

    fn fig1_subnetwork() -> TdGraph {
        let mut g = TdGraph::with_vertices(4);
        let w12 = Plf::from_pairs(&[(0.0, 10.0), (20.0, 10.0), (60.0, 15.0)]).unwrap();
        let w29 = Plf::from_pairs(&[(0.0, 5.0), (30.0, 10.0), (60.0, 15.0)]).unwrap();
        let w14 = Plf::from_pairs(&[(0.0, 5.0), (30.0, 15.0), (60.0, 25.0)]).unwrap();
        let w49 = Plf::from_pairs(&[(0.0, 5.0), (60.0, 15.0)]).unwrap();
        g.add_edge(0, 1, w12).unwrap();
        g.add_edge(1, 3, w29).unwrap();
        g.add_edge(0, 2, w14).unwrap();
        g.add_edge(2, 3, w49).unwrap();
        g
    }

    #[test]
    fn profile_agrees_with_scalar_dijkstra() {
        let g = fig1_subnetwork();
        let prof = profile_search(&g, 0);
        for t in [0.0, 5.0, 17.0, 29.0, 42.0, 60.0, 75.0] {
            for d in 1..4u32 {
                let want = crate::scalar::shortest_path_cost(&g, 0, d, t).unwrap();
                let got = prof.cost(d, t).unwrap();
                assert!(
                    (want - got).abs() < 1e-6,
                    "d={d} t={t}: scalar {want} vs profile {got}"
                );
            }
        }
    }

    #[test]
    fn example_2_2_min_of_two_compounds() {
        // f_{1,9} = min(Compound(w14, w49), Compound(w12, w29)) per Example 2.2.
        let g = fig1_subnetwork();
        let w12 = g.weight(g.find_edge(0, 1).unwrap()).clone();
        let w29 = g.weight(g.find_edge(1, 3).unwrap()).clone();
        let w14 = g.weight(g.find_edge(0, 2).unwrap()).clone();
        let w49 = g.weight(g.find_edge(2, 3).unwrap()).clone();
        let want = w14.compound(&w49, 2).minimum(&w12.compound(&w29, 1));
        let got = profile_search(&g, 0).dist[3].clone().unwrap();
        assert!(got.approx_eq(&want, 1e-6), "got={got:?}\nwant={want:?}");
    }

    #[test]
    fn witnesses_recover_the_switching_path() {
        let g = fig1_subnetwork();
        let prof = profile_search(&g, 0);
        // Early: via v4 (id 2). Late: via v2 (id 1) — Example 2.3.
        assert_eq!(prof.path(3, 0.0).unwrap().vertices, vec![0, 2, 3]);
        assert_eq!(prof.path(3, 60.0).unwrap().vertices, vec![0, 1, 3]);
    }

    #[test]
    fn recovered_paths_replay_to_reported_cost() {
        let g = fig1_subnetwork();
        let prof = profile_search(&g, 0);
        for t in [0.0, 10.0, 30.0, 50.0, 70.0] {
            let p = prof.path(3, t).unwrap();
            let c = prof.cost(3, t).unwrap();
            assert!((p.cost(&g, t).unwrap() - c).abs() < 1e-6, "t={t}");
        }
    }

    #[test]
    fn frozen_profile_matches_vec_layout() {
        let g = fig1_subnetwork();
        let fg = g.freeze();
        for s in 0..4u32 {
            let want = profile_search(&g, s);
            let got = profile_search_frozen(&g, &fg, s);
            for d in 0..4u32 {
                match (&want.dist[d as usize], &got.dist[d as usize]) {
                    (Some(a), Some(b)) => {
                        for t in [0.0, 10.0, 25.0, 40.0, 60.0, 80.0] {
                            assert!((a.eval(t) - b.eval(t)).abs() < 1e-9, "s={s} d={d} t={t}");
                        }
                    }
                    (None, None) => {}
                    other => panic!("s={s} d={d}: {:?}", other.1.as_ref().map(|_| ())),
                }
            }
        }
    }

    #[test]
    fn unreachable_vertices_have_no_label() {
        let mut g = TdGraph::with_vertices(3);
        g.add_edge(0, 1, Plf::constant(1.0)).unwrap();
        let prof = profile_search(&g, 0);
        assert!(prof.dist[2].is_none());
        assert!(prof.cost(2, 0.0).is_none());
        assert!(prof.path(2, 0.0).is_none());
    }

    #[test]
    fn keep_filter_drops_labels() {
        let g = fig1_subnetwork();
        let prof = profile_search_to(&g, 0, |v| v == 3);
        assert!(prof.dist[1].is_none());
        assert!(prof.dist[2].is_none());
        assert!(prof.dist[3].is_some());
        assert!(prof.dist[0].is_some()); // source always kept
    }

    #[test]
    fn source_label_is_zero() {
        let g = fig1_subnetwork();
        let prof = profile_search(&g, 0);
        assert_eq!(prof.cost(0, 33.0), Some(0.0));
    }

    fn assert_bit_identical_labels(a: &ProfileResult, b: &ProfileResult, ctx: &str) {
        assert_eq!(a.source, b.source, "{ctx}");
        assert_eq!(a.dist.len(), b.dist.len(), "{ctx}");
        for (v, (x, y)) in a.dist.iter().zip(&b.dist).enumerate() {
            // Plf PartialEq is derived — exact on every breakpoint
            // coordinate and witness, i.e. bit-identity.
            assert_eq!(x, y, "{ctx}: label at v={v} diverges");
        }
    }

    #[test]
    fn corridor_rails_bound_the_profiles() {
        let g = fig1_subnetwork();
        let fg = g.freeze();
        for s in 0..4u32 {
            let corridor = profile_corridor(&fg, s);
            let prof = profile_search_frozen(&g, &fg, s);
            for v in 0..4u32 {
                match &prof.dist[v as usize] {
                    Some(f) => {
                        let (fmin, fmax) = f.value_bounds();
                        assert!(corridor.lo[v as usize] <= fmin + 1e-9, "s={s} v={v}");
                        assert!(fmax <= corridor.hi[v as usize] + 1e-9, "s={s} v={v}");
                    }
                    None => {
                        assert!(corridor.lo[v as usize].is_infinite(), "s={s} v={v}");
                        assert!(corridor.hi[v as usize].is_infinite(), "s={s} v={v}");
                    }
                }
            }
        }
    }

    #[test]
    fn corridor_search_is_bit_identical_to_unbounded() {
        let g = fig1_subnetwork();
        let fg = g.freeze();
        for s in 0..4u32 {
            let want = profile_search_frozen(&g, &fg, s);
            let (got, stats) = profile_search_frozen_corridor(&g, &fg, s);
            assert_bit_identical_labels(&want, &got, &format!("s={s}"));
            assert!(stats.relaxed > 0 || s == 3, "s={s}: nothing relaxed");
        }
    }

    #[test]
    fn corridor_skips_hopeless_detours_and_stays_exact() {
        // The 2-hop detour s → w → v costs ≥ 200 everywhere and reaches v
        // *first* (the cheap path has 3 hops), so the unbounded search forms
        // a throwaway label from it while the corridor (hi[v] = 10) skips
        // the compound outright — and the final labels must still match
        // bitwise, because the throwaway label is everywhere > hi[v] + ε
        // and the later merge erases every trace of it.
        let mut g = TdGraph::with_vertices(5);
        g.add_edge(0, 1, Plf::constant(100.0)).unwrap(); // s → w
        g.add_edge(
            1,
            4,
            Plf::from_pairs(&[(0.0, 100.0), (50.0, 120.0)]).unwrap(),
        )
        .unwrap(); // w → v
        g.add_edge(0, 2, Plf::constant(5.0)).unwrap(); // s → a
        g.add_edge(2, 3, Plf::constant(2.5)).unwrap(); // a → b
        g.add_edge(3, 4, Plf::constant(2.5)).unwrap(); // b → v
        let fg = g.freeze();
        let want = profile_search_frozen(&g, &fg, 0);
        let (got, stats) = profile_search_frozen_corridor(&g, &fg, 0);
        assert_bit_identical_labels(&want, &got, "detour");
        assert!(
            stats.skipped >= 1,
            "the w → v compound must be corridor-skipped, got {stats:?}"
        );
    }

    #[test]
    fn corridor_never_drops_an_epsilon_tie() {
        // Satellite regression (ISSUE 8): two 2-hop paths whose total costs
        // are equal within EPS_COST across the whole window. hi[v] comes
        // from the cheaper one; the dearer path relaxes v *first* (while v
        // has no label, so the corridor test is the sole decider) with a min
        // bound exceeding hi[v] by 5e-8 < EPS_COST. The epsilon-tolerant win
        // test (`fle`) must NOT skip it — a strict `<=` would drop the tie
        // and change which witness the final envelope keeps.
        let tie_leg = 5.0 + 5e-8;
        let mut g = TdGraph::with_vertices(4);
        g.add_edge(0, 2, Plf::constant(5.0)).unwrap(); // s → b (first)
        g.add_edge(2, 3, Plf::constant(tie_leg)).unwrap(); // b → v
        g.add_edge(0, 1, Plf::constant(5.0)).unwrap(); // s → a
        g.add_edge(1, 3, Plf::constant(5.0)).unwrap(); // a → v
        let fg = g.freeze();
        let want = profile_search_frozen(&g, &fg, 0);
        let (got, stats) = profile_search_frozen_corridor(&g, &fg, 0);
        assert_bit_identical_labels(&want, &got, "eps-tie");
        assert_eq!(
            stats.skipped, 0,
            "an epsilon-tie must never be corridor-skipped"
        );
        // Sanity: the rail is the cheaper path, and the tie is within EPS.
        let corridor = profile_corridor(&fg, 0);
        assert_eq!(corridor.hi[3], 10.0);
        assert!(td_plf::feq(10.0 + 5e-8, corridor.hi[3], td_plf::EPS_COST));
        // The tie's witness (via b = 2) won the envelope in both runs.
        assert_eq!(got.dist[3].as_ref().unwrap().eval_with_via(0.0).1, 2);
    }

    /// Value-level equality on the union probe grid — the exactness
    /// contract for corridor searches (representations may keep
    /// tolerance-equal but differently-anchored breakpoints).
    fn assert_value_identical(a: &Plf, b: &Plf, ctx: &str) {
        let mut ts: Vec<f64> = a.points().iter().chain(b.points()).map(|p| p.t).collect();
        ts.sort_unstable_by(f64::total_cmp);
        ts.dedup();
        let mut probes = vec![ts[0] - 1.0, ts[ts.len() - 1] + 1.0];
        probes.extend_from_slice(&ts);
        probes.extend(ts.windows(2).map(|w| 0.5 * (w[0] + w[1])));
        for &t in &probes {
            let (va, vb) = (a.eval(t), b.eval(t));
            assert!(
                (va - vb).abs() < EPS_COST,
                "{ctx}: value diverges at t={t}: {va} vs {vb}"
            );
        }
    }

    #[test]
    fn targeted_corridor_matches_unbounded_label_at_destination() {
        let g = fig1_subnetwork();
        let fg = g.freeze();
        for s in 0..4u32 {
            let want = profile_search_frozen(&g, &fg, s);
            for d in 0..4u32 {
                let (got, _) = profile_search_frozen_corridor_to(&g, &fg, s, d);
                match (&want.dist[d as usize], &got) {
                    (Some(a), Some(b)) => assert_value_identical(a, b, &format!("s={s} d={d}")),
                    (None, None) => {}
                    other => panic!("s={s} d={d}: reachability {:?}", other.0.is_some()),
                }
            }
        }
    }

    #[test]
    fn targeted_corridor_prunes_dead_end_branches() {
        // A branch reachable from s that cannot reach d at all: rev_lo is
        // INFINITY there, so the targeted search never compounds into it,
        // while the unbounded search dutifully labels the whole branch.
        // d's label is untouched by the branch in either run, so here even
        // bit-identity must hold.
        let mut g = TdGraph::with_vertices(6);
        g.add_edge(0, 1, Plf::constant(3.0)).unwrap();
        g.add_edge(1, 2, Plf::from_pairs(&[(0.0, 4.0), (40.0, 9.0)]).unwrap())
            .unwrap();
        g.add_edge(0, 3, Plf::constant(1.0)).unwrap(); // dead-end branch
        g.add_edge(3, 4, Plf::constant(1.0)).unwrap();
        g.add_edge(4, 5, Plf::constant(1.0)).unwrap();
        let fg = g.freeze();
        let want = profile_search_frozen(&g, &fg, 0);
        assert!(want.dist[5].is_some(), "unbounded labels the whole branch");
        let (got, stats) = profile_search_frozen_corridor_to(&g, &fg, 0, 2);
        assert_eq!(want.dist[2].as_ref(), got.as_ref(), "d-label must match");
        // One skip kills the whole branch: 0→3 is pruned, so 3, 4, 5 are
        // never visited — the subgraph dies at its first off-corridor edge.
        assert_eq!(
            stats.skipped, 1,
            "the dead-end branch must be pruned at its entry edge, got {stats:?}"
        );
        assert_eq!(stats.relaxed, 2, "only the s → 1 → d chain compounds");
    }

    #[test]
    fn targeted_corridor_never_drops_an_epsilon_tie() {
        // Same tie construction as the one-to-all regression: both 2-hop
        // paths sum to ub within EPS_COST, so the targeted win test must
        // keep both — fle tolerance, not strict comparison.
        let tie_leg = 5.0 + 5e-8;
        let mut g = TdGraph::with_vertices(4);
        g.add_edge(0, 2, Plf::constant(5.0)).unwrap();
        g.add_edge(2, 3, Plf::constant(tie_leg)).unwrap();
        g.add_edge(0, 1, Plf::constant(5.0)).unwrap();
        g.add_edge(1, 3, Plf::constant(5.0)).unwrap();
        let fg = g.freeze();
        let want = profile_search_frozen(&g, &fg, 0);
        let (got, stats) = profile_search_frozen_corridor_to(&g, &fg, 0, 3);
        assert_eq!(stats.skipped, 0, "an epsilon-tie must never be pruned");
        assert_eq!(want.dist[3].as_ref(), got.as_ref());
        assert_eq!(got.unwrap().eval_with_via(0.0).1, 2);
    }

    #[test]
    fn targeted_corridor_handles_unreachable_and_self() {
        let mut g = TdGraph::with_vertices(3);
        g.add_edge(0, 1, Plf::constant(1.0)).unwrap();
        let fg = g.freeze();
        let (got, stats) = profile_search_frozen_corridor_to(&g, &fg, 0, 2);
        assert!(got.is_none(), "unreachable d must yield None");
        assert_eq!(stats, CorridorStats::default(), "no search was run");
        let (zero, _) = profile_search_frozen_corridor_to(&g, &fg, 0, 0);
        assert_eq!(zero.unwrap().eval(12.0), 0.0, "s == d is the zero profile");
    }
}
