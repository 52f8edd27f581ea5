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
//! improvement lowers the function value somewhere by a bounded amount).
//!
//! [`profile_search`] on the `TdGraph` is the reference every index is tested
//! against. It builds every compound and merges it with a plain
//! [`Plf::minimum`] on purpose: it shares no decision with the indexes it
//! judges. The one frozen loop folds each relaxation through
//! [`min_compound_into`], the kernel the TD-tree sweeps, the shortcut DFS,
//! the reduction and the G-tree use, and requeues a vertex when the kernel
//! reports that its label changed. It has two callers — one-to-all
//! ([`profile_search_frozen`], TD-G-tree's matrix builder) and targeted
//! `s → d` ([`profile_search_frozen_corridor_to`], what TD-Dijkstra and
//! TD-A\*-CH answer profile queries with).

use crate::astar::Entry;
use std::collections::{BinaryHeap, VecDeque};
use td_graph::{FrozenGraph, Path, TdGraph, VertexId};
use td_obs::SearchStats;
use td_plf::ops::min_compound_into;
use td_plf::{fle, Plf, PlfView, EPS_COST};

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
/// per-edge `min_cost` bounds come from the frozen arrays, while each
/// relaxation folds `Compound(dist[u], w_e)` into `dist[v]` through
/// [`min_compound_into`] on `g`'s owned [`Plf`]s — a compound the label
/// already lies at or below is never built. Keeps each label's value bounds
/// so a relaxation is skipped — without touching any breakpoints — when
/// `min(dist[u]) + min_cost(e) ≥ max(dist[v])`, i.e. when the candidate can
/// never improve the existing label anywhere. On road networks this prunes
/// most re-relaxations of already-tight labels, which is where the
/// label-correcting search spends its time.
pub fn profile_search_frozen(g: &TdGraph, fg: &FrozenGraph, s: VertexId) -> ProfileResult {
    profile_frozen_impl(g, fg, s, Prune::None, &mut SearchStats::default())
}

/// The two scalar rails that frame a targeted corridor.
#[derive(Clone, Copy)]
enum Rail {
    /// Out-edges from the source, each weighted by its whole-day
    /// `max_cost`: upper-bounds every `f_{origin,v}`.
    UpperFromSource,
    /// In-edges back from the destination, each weighted by its whole-day
    /// `min_cost`: lower-bounds the cost of any `v → origin` path at any
    /// departure time.
    LowerToTarget,
}

/// Static Dijkstra from `origin` over one scalar rail of the frozen graph.
/// `INFINITY` marks vertices the walk cannot reach.
fn static_rail_dists(fg: &FrozenGraph, origin: VertexId, rail: Rail) -> Vec<f64> {
    let n = fg.num_vertices();
    let mut dist = vec![f64::INFINITY; n];
    let mut done = vec![false; n];
    let mut heap: BinaryHeap<Entry> = BinaryHeap::new();
    dist[origin as usize] = 0.0;
    heap.push(Entry::new(0.0, origin));
    while let Some(entry) = heap.pop() {
        let (key, u) = (entry.key(), entry.vertex);
        if done[u as usize] {
            continue;
        }
        done[u as usize] = true;
        let (neighbours, edges) = match rail {
            Rail::UpperFromSource => fg.csr.out_slices(u),
            Rail::LowerToTarget => fg.csr.in_slices(u),
        };
        for (&v, &e) in neighbours.iter().zip(edges.iter()) {
            if done[v as usize] {
                continue;
            }
            let w = match rail {
                Rail::UpperFromSource => fg.max_cost(e),
                Rail::LowerToTarget => fg.min_cost(e),
            };
            let cand = key + w;
            if cand < dist[v as usize] {
                dist[v as usize] = cand;
                heap.push(Entry::new(cand, v));
            }
        }
    }
    dist
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
/// more than `ub` at every time and is nowhere on `f_{s,d}`. This cuts
/// *whole subgraphs*: every branch that wanders away from the `s → d`
/// corridor dies at its first off-corridor edge.
///
/// **Exactness at `d`** (intermediate labels are deliberately partial): for
/// any departure `t`, walk the optimal path `P_t`. By induction its prefix
/// labels satisfy `label_u(t) ≤ cost(prefix, t)`, so at each edge the test
/// value is ≤ `cost(P_t, t) = f_{s,d}(t) ≤ ub` — the optimal path is never
/// pruned, at any `t`. Equality with the unbounded search's label at `d` is
/// value-level (conformance step 10): `simplify` is ε-tolerant and the two
/// searches merge over different grids, so breakpoints may be anchored
/// differently.
///
/// Returns `None` iff `d` is unreachable from `s`, and the search's work in
/// the workspace-wide [`SearchStats`] vocabulary: queue pops are `settled`,
/// relaxations that reach the kernel (built or decided unbuilt) are
/// `relaxed`, and compounds the corridor win test skipped are
/// `corridor_kills`.
pub fn profile_search_frozen_corridor_to(
    g: &TdGraph,
    fg: &FrozenGraph,
    s: VertexId,
    d: VertexId,
) -> (Option<Plf>, SearchStats) {
    let mut stats = SearchStats::default();
    let ub = static_rail_dists(fg, s, Rail::UpperFromSource)[d as usize];
    if ub.is_infinite() {
        // Max-metric reachability equals reachability (same adjacency,
        // finite weights): d cannot be reached at all.
        return (None, stats);
    }
    let rev_lo = static_rail_dists(fg, d, Rail::LowerToTarget);
    let prune = Prune::Target {
        rev_lo: &rev_lo,
        ub,
    };
    let mut result = profile_frozen_impl(g, fg, s, prune, &mut stats);
    (result.dist[d as usize].take(), stats)
}

/// Whether [`profile_frozen_impl`] applies the corridor win test.
#[derive(Clone, Copy)]
enum Prune<'a> {
    /// Unbounded one-to-all label-correcting search.
    None,
    /// Targeted `s → d`: skip when even the best continuation through `v`
    /// clears the everywhere-valid `s → d` upper bound.
    Target { rev_lo: &'a [f64], ub: f64 },
}

fn profile_frozen_impl(
    g: &TdGraph,
    fg: &FrozenGraph,
    s: VertexId,
    prune: Prune<'_>,
    stats: &mut SearchStats,
) -> ProfileResult {
    debug_assert_eq!(g.num_vertices(), fg.num_vertices());
    debug_assert_eq!(g.num_edges(), fg.num_edges());
    let n = g.num_vertices();
    let mut dist: Vec<Option<Plf>> = vec![None; n];
    // lab_min[v] / lab_max[v] are the value bounds of dist[v], taken by one
    // scan of a label each time the kernel changes it, so the adjacency walk
    // below prunes on plain floats without touching a breakpoint.
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
        pops += 1;
        assert!(
            pops <= pop_limit,
            "profile search failed to converge after {pops} relaxation rounds — \
             the graph likely contains a (near-)zero-cost cycle"
        );
        stats.settle(1);
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
            // Corridor win test: the candidate can only contribute to `d`'s
            // lower envelope if even its best continuation from `v` beats
            // the everywhere-valid `s → d` upper bound — epsilon-tolerant
            // (`fle`/`EPS_COST`), so a compound tying the bound within
            // epsilon is never dropped.
            if let Prune::Target { rev_lo, ub } = prune {
                debug_assert!((v as usize) < rev_lo.len());
                if !fle(du_min + emin + rev_lo[v as usize], ub, EPS_COST) {
                    stats.corridor_kill(1);
                    continue;
                }
            }
            stats.relax(1);
            let label = &mut dist[v as usize];
            if min_compound_into(label, &du, g.weight(e), u) {
                let new = label.as_ref().expect("a changed label is set");
                (lab_min[v as usize], lab_max[v as usize]) = new.value_bounds();
                if !in_queue[v as usize] {
                    in_queue[v as usize] = true;
                    queue.push_back(v);
                }
            }
        }
    }
    ProfileResult { source: s, dist }
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
    fn source_label_is_zero() {
        let g = fig1_subnetwork();
        let prof = profile_search(&g, 0);
        assert_eq!(prof.cost(0, 33.0), Some(0.0));
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
            stats.corridor_kills, 1,
            "the dead-end branch must be pruned at its entry edge, got {stats:?}"
        );
        assert_eq!(stats.relaxed, 2, "only the s → 1 → d chain compounds");
    }

    #[test]
    fn targeted_corridor_never_drops_an_epsilon_tie() {
        // Both 2-hop paths sum to ub within EPS_COST (the dearer one, via
        // b = 2, exceeds it by 5e-8 and relaxes v first), so the targeted
        // win test must keep both — fle tolerance, not strict comparison.
        let tie_leg = 5.0 + 5e-8;
        let mut g = TdGraph::with_vertices(4);
        g.add_edge(0, 2, Plf::constant(5.0)).unwrap();
        g.add_edge(2, 3, Plf::constant(tie_leg)).unwrap();
        g.add_edge(0, 1, Plf::constant(5.0)).unwrap();
        g.add_edge(1, 3, Plf::constant(5.0)).unwrap();
        let fg = g.freeze();
        let want = profile_search_frozen(&g, &fg, 0);
        let (got, stats) = profile_search_frozen_corridor_to(&g, &fg, 0, 3);
        assert_eq!(
            stats.corridor_kills, 0,
            "an epsilon-tie must never be pruned"
        );
        assert_eq!(want.dist[3].as_ref(), got.as_ref());
        assert_eq!(got.unwrap().eval_with_via(0.0).1, 2);
    }

    /// Queue pops of the frozen loop over 20 seeded corridor queries on
    /// CAL-0.25, as counted when the loop still built every compound and
    /// asked `old.minimum(&cand).approx_eq(old, 1e-7)` whether the label
    /// changed. The kernel's own change report must not make the
    /// label-correcting loop churn: a change that pops more fails here, far
    /// below the 64·n² guard; one that pops fewer lowers the ceiling.
    const CAL_CORRIDOR_POPS_CEILING: u64 = 12_412;

    #[test]
    fn the_profile_loop_pops_no_more_than_the_pinned_count() {
        use rand::prelude::*;
        let g = td_gen::Dataset::Cal.build(3, 0.25, 42);
        let fg = g.freeze();
        let n = g.num_vertices();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let pops: u64 = (0..20)
            .map(|_| {
                let (s, d) = (rng.gen_range(0..n) as u32, rng.gen_range(0..n) as u32);
                profile_search_frozen_corridor_to(&g, &fg, s, d).1.settled
            })
            .sum();
        assert!(
            pops <= CAL_CORRIDOR_POPS_CEILING,
            "{pops} pops, ceiling {CAL_CORRIDOR_POPS_CEILING}"
        );
    }

    /// The frozen loop settles from every source of 600 random graphs (200
    /// in three shapes; a few in debug builds, always with seeds 117 and
    /// 122). It requeues a vertex whenever the kernel reports a change, so
    /// a kernel that reported a last-ulp difference as one would churn
    /// until the 64·n² guard panics: with an exact keep rule in
    /// `min_compound_into`'s walk, seed 117 (n = 50, s = 43) and seed 122
    /// (n = 60, s = 37) never settle.
    #[test]
    fn the_frozen_profile_loop_settles_on_random_graphs() {
        let seeds: Vec<u64> = if cfg!(debug_assertions) {
            (0..6).chain([117, 122]).collect()
        } else {
            (0..200).collect()
        };
        for (n, extra, points) in [(50, 35, 4), (40, 25, 3), (60, 40, 3)] {
            for &seed in &seeds {
                let g = td_gen::random_graph::seeded_graph(seed, n, extra, points);
                let fg = g.freeze();
                for s in 0..n as u32 {
                    profile_search_frozen(&g, &fg, s);
                }
            }
        }
    }

    #[test]
    fn targeted_corridor_handles_unreachable_and_self() {
        let mut g = TdGraph::with_vertices(3);
        g.add_edge(0, 1, Plf::constant(1.0)).unwrap();
        let fg = g.freeze();
        let (got, stats) = profile_search_frozen_corridor_to(&g, &fg, 0, 2);
        assert!(got.is_none(), "unreachable d must yield None");
        assert_eq!(stats, SearchStats::default(), "no search was run");
        let (zero, _) = profile_search_frozen_corridor_to(&g, &fg, 0, 0);
        assert_eq!(zero.unwrap().eval(12.0), 0.0, "s == d is the zero profile");
    }
}
