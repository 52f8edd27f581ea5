#![deny(clippy::disallowed_types, clippy::disallowed_methods)]
// (query-side file: no locks, no channels — readers never block)

//! Query processing over the TD-tree (Algo. 3 and Algo. 6).
//!
//! Two query kinds, matching the paper's experiments:
//!
//! * **travel cost query** (scalar): the cost of `Q(s, d, t)` for one
//!   departure time — Fig. 8 (a/c/e/g). Implemented as an upward
//!   earliest-arrival sweep along `X(s)`'s root path (exact by the
//!   order-monotone-path property of the chordal fill-in structure) followed
//!   by a top-down arrival sweep along `X(d)`'s root path seeded at the
//!   common ancestors;
//! * **cost function query** (profile): the full `f_{s,d}(t)` — Fig. 8
//!   (b/d/f/h). Implemented exactly as Algo. 3: two upward function sweeps
//!   (`cost_s` via `Ws`, `cost_d` via `Wd`) combined over the LCA vertex cut
//!   (Property 1).
//!
//! With shortcuts (Algo. 6) there are three situations: (1) all cut
//! shortcuts selected → `O(w(T_G))` combination; (2) a subset selected →
//! seeded sweeps, NIL-marked against an upper bound; (3) none → basic
//! sweeps, NIL-marked the same way. The scalar query's bound is the cut's
//! `f⁺`. The profile query's is the corridor's `U` (below), which is at or
//! below `f⁺`'s maximum and exists in situation (3) too. TD-basic,
//! TD-appro / TD-dp and TD-H2H are therefore one query at three shortcut
//! budgets (0, `N`, everything): over a store holding no pair the cut scan
//! can find nothing, so the engine skips it and runs Algo. 3's sweeps
//! directly — the same answer, bit for bit, without the lookups.
//!
//! ## Layout
//!
//! The scalar sweeps walk the tree's label store ([`td_treedec::Labels`])
//! alone: flat bag slots, precomputed bag depths and arena-resident
//! breakpoints. The shortcut store is arena-resident too: the scalar cut
//! scan evaluates its functions in place as [`td_plf::PlfSlice`]s, and the
//! profile query reads a seed's bounds from its chunk's O(1) `min_cost` /
//! `max_cost`. The profile query runs in two phases:
//!
//! * **Bounds (the corridor).** Plain-`f64` sweeps over the same label
//!   slots, in the shape of the scalar sweeps, using the O(1) label minima
//!   and maxima. They give each root-path depth a `(min, max)` `reach` from
//!   its endpoint and a lower bound `rest` to the other endpoint. They also
//!   give one upper bound `U ≥ max_t f_{s,d}(t)`: the best summed maxima
//!   through the common chain, capped by `f⁺`'s maximum.
//! * **Functions.** The profile sweeps compound whole functions. They read
//!   each label's depth, minimum and windows from its slot in place, and
//!   copy it into a function the sweep reuses only once a relaxation has
//!   passed every prune and window keep and must reach the merge kernel,
//!   which takes owned functions. A seed, a slot, a relaxation or a chain
//!   term whose lower bound plus `rest` exceeds `U` (by more than
//!   `EPS_COST`) is dropped: everything it could produce lies above
//!   `f_{s,d}` at every departure. Each slot keeps the `(min, max)` of
//!   the function it holds beside it, so a relaxation whose lower bound
//!   `min(cost[k]) + min(w)` cannot get below the destination slot's
//!   maximum is dropped as well, before its `compound` is touched. A
//!   relaxation into a filled slot then tries per-window bounds
//!   ([`td_plf::window`]): when the slot's maximum in each of the day's 32
//!   windows is at or below the compound's lower bound there, the slot is
//!   kept before a single breakpoint of the compound is made. The slots'
//!   windows are made lazily, one forward pass each, and cached beside
//!   their `(min, max)` until the slot changes; the label's are made on the
//!   fly from the label's slice. Every other relaxation goes through
//!   [`td_plf::ops::fold_compound_into`], which walks the candidate's values
//!   against the slot first and builds it only if it gets below the slot
//!   somewhere. The kernel reads the slot's `(min, max)` from beside it and
//!   leaves them current, and into a filled slot it gets the slot's cached
//!   windows too: a built candidate below them by more than `EPS_COST` in
//!   every window is taken without the pointwise walk, and its windows,
//!   made for that test, become the slot's. The chain combination prunes,
//!   window-tests and relaxes its terms the same way.
//!
//! [`ProfileScratch::counts`] records what the function phase relaxed,
//! pruned by slot maximum and dropped by the corridor, and how each merge
//! past the prunes ended: kept by the windows or by the walk, or changed —
//! a fill of an empty slot, a take the windows or the walk decided, or a
//! merge.
//!
//! ## Scratch buffers
//!
//! Every query takes its working state as a reusable [`CostScratch`] /
//! [`ProfileScratch`] (`Default::default()` is a valid cold one). `td-api`'s
//! `QuerySession` holds one per thread: after the first few queries warm the
//! buffers up to the tree's depth, a scalar query performs **no heap
//! allocation at all**. A profile query still allocates: one copy per
//! shortcut seed inside the corridor and per first-hop label (the other
//! labels are copied into a function each sweep reuses), the
//! breakpoint list (times with their values, made in one pass) of every
//! relaxation it walks — a compound built from such a list is that list,
//! simplified in place, so it costs nothing more — and the point lists of
//! each `minimum` that neither the bounds, the windows nor the walk
//! decided. A relaxation the windows keep allocates nothing, and the slots'
//! windows live in the scratch, reused across queries (debug builds shadow
//! each window keep with the walk it skips, which allocates). The cut
//! scan's through-`w` totals compound two stored legs; those are copied
//! into two functions the scratch owns and refills, so they allocate only
//! while they grow.

use crate::shortcut::{ShortcutStore, DOWN, UP};
use td_graph::VertexId;
use td_plf::ops::{
    fold_compound_into, fold_into, min_compound_into, min_into, Merge, EMPTY_BOUNDS,
};
use td_plf::{Plf, PlfArena, PlfId, PlfSlice, Windows, EPS_COST, NO_PLF};
use td_treedec::{TreeDecomposition, WD, WS};

/// Query engine borrowing the tree and the selected shortcuts.
pub(crate) struct QueryEngine<'a> {
    /// The TFP tree decomposition, with its label store: what the scalar
    /// sweeps walk, and where the profile sweeps read their labels and
    /// O(1) label bounds.
    pub(crate) td: &'a TreeDecomposition,
    /// Selected shortcuts (empty for TD-basic).
    store: &'a ShortcutStore,
    /// Whether queries scan the LCA cut for shortcuts: false exactly when
    /// `store` holds no pair. The scan would then find nothing, leave the
    /// bound unset and fall through to the same two sweeps, so skipping it
    /// changes no bit of any answer.
    scan_cut: bool,
}

/// Reusable buffers for one scalar sweep direction.
#[derive(Clone, Debug, Default)]
pub struct SweepBufs {
    /// Root-first path: `path[k]` = vertex at depth `k`; last entry = the
    /// sweep's endpoint.
    pub path: Vec<VertexId>,
    /// `arr[k]` = earliest arrival at `path[k]` (absolute time).
    pub arr: Vec<Option<f64>>,
    /// Predecessor of `path[k]`: `(relaxing depth, bag index)`, for path
    /// recovery.
    pub pred: Vec<Option<(usize, usize)>>,
    /// Depths holding exact shortcut values (skipped by relaxation).
    fixed: Vec<bool>,
}

impl SweepBufs {
    fn reset(&mut self, len: usize) {
        self.arr.clear();
        self.arr.resize(len, None);
        self.pred.clear();
        self.pred.resize(len, None);
        self.fixed.clear();
        self.fixed.resize(len, false);
    }
}

/// Reusable scratch for scalar (travel cost) queries. After warm-up the
/// buffers reach the tree's depth and scalar queries stop allocating.
#[derive(Clone, Debug, Default)]
pub struct CostScratch {
    pub(crate) up: SweepBufs,
    pub(crate) down: SweepBufs,
    pub(crate) cut: Vec<VertexId>,
    pub(crate) seeds: Vec<(usize, f64)>,
}

/// Reusable buffers for one profile sweep direction.
#[derive(Clone, Debug, Default)]
pub struct ProfileSweepBufs {
    /// Root-first path, last entry = the sweep's endpoint.
    pub path: Vec<VertexId>,
    /// `cost[k]` = travel cost function between `path[k]` and the endpoint.
    pub cost: Vec<Option<Plf>>,
    /// `bounds[k]` = `(min, max)` over all departure times of `cost[k]`,
    /// refreshed whenever the slot is written (`+∞` until then: nothing is
    /// dominated by an empty slot).
    bounds: Vec<(f64, f64)>,
    fixed: Vec<bool>,
    /// `reach[k]` = scalar `(min, max)` bounds on what the sweep can put in
    /// slot `k`, from label bounds alone (the bounds phase; `+∞` =
    /// unreached).
    reach: Vec<(f64, f64)>,
    /// `rest[k]` = lower bound on the cost between `path[k]` and the other
    /// endpoint.
    rest: Vec<f64>,
    /// Per-window bounds of the slots' functions, made on first use.
    windows: WindowCache,
    /// The label of the relaxation at hand, copied out of the label store
    /// for the merge kernel and refilled in place for the next one.
    label: Option<Plf>,
}

impl ProfileSweepBufs {
    fn reset(&mut self, len: usize) {
        self.cost.clear();
        self.cost.resize(len, None);
        self.bounds.clear();
        self.bounds.resize(len, EMPTY_BOUNDS);
        self.fixed.clear();
        self.fixed.resize(len, false);
        self.reach.clear();
        self.reach.resize(len, (f64::INFINITY, f64::INFINITY));
        self.rest.clear();
        self.rest.resize(len, f64::INFINITY);
        self.windows.reset(len);
    }

    /// The leg this table contributes to a chain term at depth `k`, with its
    /// minimum: the endpoint's own is the zero function (`None`, 0), an
    /// empty slot is no leg at all.
    fn leg(&self, k: usize) -> Option<(Option<&Plf>, f64)> {
        if k == self.path.len() - 1 {
            Some((None, 0.0))
        } else {
            Some((Some(self.cost[k].as_ref()?), self.bounds[k].0))
        }
    }
}

/// The [`Windows`] of a sweep's slots, cached beside `bounds`: made by one
/// forward pass the first time a relaxation needs them, valid until the
/// slot changes. A query resets only the flags, so the windows themselves
/// are allocated once, while the scratch warms up.
#[derive(Clone, Debug, Default)]
struct WindowCache {
    windows: Vec<Windows>,
    fresh: Vec<bool>,
}

impl WindowCache {
    fn reset(&mut self, len: usize) {
        self.fresh.clear();
        self.fresh.resize(len, false);
        if self.windows.len() < len {
            self.windows.resize(len, Windows::default());
        }
    }

    /// Makes `windows[k]` those of `f`, the function in slot `k`, unless
    /// they already are.
    fn ensure(&mut self, k: usize, f: &Plf) {
        if !self.fresh[k] {
            self.windows[k] = Windows::of(f);
            self.fresh[k] = true;
        }
    }

    /// Slot `k` changed.
    fn stale(&mut self, k: usize) {
        self.fresh[k] = false;
    }
}

/// `keep`, a per-window decision that `min{slot, Compound(f, g)}` keeps
/// `slot`. Debug builds also run the walk it skips, on a copy of the slot,
/// and assert that the walk keeps too.
fn shadowed(keep: bool, slot: &Plf, f: &Plf, g: &Plf, via: VertexId) -> bool {
    debug_assert!(
        !keep || !min_compound_into(&mut Some(slot.clone()), f, g, via),
        "a window keep the walk would not make (via {via})"
    );
    keep
}

/// Work counters of the most recent profile query (reset when the next one
/// starts). `td-api` drains them into `SearchStats` as `relaxed` /
/// `minbound_prunes` (slot prunes and window keeps) / `corridor_kills`.
///
/// A sweep relaxation that passes the prunes ends as exactly one of a
/// window keep, a walk keep, a fill, a window take, a walk take or a merge;
/// so does a chain term that reaches the merge.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProfileCounts {
    /// Sweep relaxations that reached the prune tests.
    pub relaxed: u64,
    /// Relaxations dropped because they cannot get below the destination
    /// slot's maximum.
    pub slot_prunes: u64,
    /// Slots, seeds, relaxations and chain terms dropped because they cannot
    /// get below the corridor's `s → d` upper bound.
    pub corridor_drops: u64,
    /// Relaxations and chain terms kept by per-window bounds, before any
    /// breakpoint of their compound was made.
    pub window_keeps: u64,
    /// Relaxations and chain terms whose merge kernel ran and kept the slot.
    pub walk_keeps: u64,
    /// Relaxations and chain terms into an empty slot.
    pub fills: u64,
    /// Relaxations and chain terms whose built compound replaced the slot,
    /// decided by per-window bounds before the pointwise walk.
    pub window_takes: u64,
    /// Relaxations and chain terms whose candidate replaced the slot,
    /// decided by value bounds or by the pointwise walk.
    pub walk_takes: u64,
    /// Relaxations and chain terms merged with the slot by `minimum`.
    pub merges: u64,
}

impl std::ops::AddAssign for ProfileCounts {
    /// Sums two queries' counts, field by field.
    fn add_assign(&mut self, o: ProfileCounts) {
        self.relaxed += o.relaxed;
        self.slot_prunes += o.slot_prunes;
        self.corridor_drops += o.corridor_drops;
        self.window_keeps += o.window_keeps;
        self.walk_keeps += o.walk_keeps;
        self.fills += o.fills;
        self.window_takes += o.window_takes;
        self.walk_takes += o.walk_takes;
        self.merges += o.merges;
    }
}

impl ProfileCounts {
    /// Counts a merge kernel's outcome.
    fn record(&mut self, merge: Merge) {
        *match merge {
            Merge::Kept => &mut self.walk_keeps,
            Merge::Filled => &mut self.fills,
            Merge::WindowTake => &mut self.window_takes,
            Merge::WalkTake => &mut self.walk_takes,
            Merge::Merged => &mut self.merges,
        } += 1;
    }
}

/// Reusable scratch for profile (cost function) queries. The sweep tables
/// (slots, slot bounds, the slots' per-window bounds, corridor bounds, root
/// paths), the seed key lists and the cut vector are reused across queries;
/// the functions in the slots are not — every seed copy, first-hop label
/// copy and operator result is a fresh allocation, dropped when the next
/// query resets the tables.
#[derive(Clone, Debug, Default)]
pub struct ProfileScratch {
    up: ProfileSweepBufs,
    down: ProfileSweepBufs,
    cut: Vec<VertexId>,
    /// `(depth, cut vertex)` keys of the shortcut pairs seeding each sweep;
    /// the functions stay in the store until the sweep copies them.
    seeds_s: Vec<(usize, VertexId)>,
    seeds_d: Vec<(usize, VertexId)>,
    /// Owned copies of the two legs of the cut scan's current through-`w`
    /// total (`s → w`, `w → d`), refilled in place for every one.
    legs: [Option<Plf>; 2],
    /// What the most recent profile query did.
    pub counts: ProfileCounts,
}

impl<'a> QueryEngine<'a> {
    /// Creates an engine over `td` (with its label store) and its selected
    /// shortcuts.
    pub(crate) fn new(td: &'a TreeDecomposition, store: &'a ShortcutStore) -> Self {
        QueryEngine {
            td,
            store,
            scan_cut: store.num_pairs() > 0,
        }
    }

    /// The LCA vertex of `s` and `d`, with `cut` filled by its vertex cut
    /// when the cut scan runs and left empty (nothing to scan) otherwise.
    fn lca_and_cut(&self, s: VertexId, d: VertexId, cut: &mut Vec<VertexId>) -> VertexId {
        if self.scan_cut {
            self.td.vertex_cut_into(s, d, cut)
        } else {
            cut.clear();
            self.td.lca(s, d)
        }
    }

    fn root_path_into(&self, v: VertexId, out: &mut Vec<VertexId>) {
        self.td.ancestors_root_first_into(v, out);
        out.push(v);
    }

    // ------------------------------------------------------------------
    // Scalar (travel cost) queries
    // ------------------------------------------------------------------

    /// Upward earliest-arrival sweep from `s` departing at `t` into `bufs`,
    /// optionally seeded with selected shortcuts towards cut vertices and
    /// pruned by a cost upper bound.
    #[deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )]
    pub(crate) fn sweep_up_scalar_into(
        &self,
        s: VertexId,
        t: f64,
        seeds: &[(usize, f64)],
        bound: Option<f64>,
        bufs: &mut SweepBufs,
    ) {
        self.root_path_into(s, &mut bufs.path);
        debug_assert!(!bufs.path.is_empty(), "root path always contains s");
        let ds = bufs.path.len() - 1;
        bufs.reset(ds + 1);
        bufs.arr[ds] = Some(t);
        for &(k, a) in seeds {
            bufs.arr[k] = Some(a);
            bufs.fixed[k] = true; // Algo. 6 line 15: shortcut values are exact
        }
        let labels = self.td.labels();
        let arena = labels.arena(WS);
        for k in (0..=ds).rev() {
            let Some(a) = bufs.arr[k] else { continue };
            if let Some(b) = bound {
                if a - t > b {
                    bufs.arr[k] = None; // NIL (Algo. 6 line 20)
                    continue;
                }
            }
            // Flat slot walk with precomputed bag depths; the arena's
            // min-cost lower bound prunes evaluations that provably cannot
            // improve the slot (or survive the NIL bound — any relaxation
            // with `a + min - t > b` would only write a value NIL-ed at its
            // own processing step).
            for (bi, idx) in labels.range(bufs.path[k]).enumerate() {
                let sid = labels.id(WS, idx);
                if sid == NO_PLF {
                    continue;
                }
                let ku = labels.bag_depth(idx);
                if bufs.fixed[ku] {
                    continue;
                }
                let lb = a + arena.min_cost(sid);
                if bufs.arr[ku].is_some_and(|x| lb >= x) || bound.is_some_and(|b| lb - t > b) {
                    continue;
                }
                let cand = a + arena.slice(sid).eval(a);
                if bufs.arr[ku].is_none_or(|x| cand < x) {
                    bufs.arr[ku] = Some(cand);
                    bufs.pred[ku] = Some((k, bi));
                }
            }
        }
    }

    /// Top-down arrival sweep along `d`'s root path into `bufs`.
    ///
    /// `init[k]` carries the up-sweep arrivals at the common ancestors
    /// (`k ≤ upto`, shared by both root paths). Every depth — including the
    /// common prefix — is then relaxed from above: the apex of the true
    /// shortest path is some common ancestor, and the down-monotone leg from
    /// the apex may pass through other common ancestors before descending to
    /// `d`, so the prefix vertices must be relaxable too.
    #[deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )]
    pub(crate) fn sweep_down_scalar_into(
        &self,
        d: VertexId,
        init: &[Option<f64>],
        upto: usize,
        t: f64,
        bound: Option<f64>,
        bufs: &mut SweepBufs,
    ) {
        self.root_path_into(d, &mut bufs.path);
        debug_assert!(!bufs.path.is_empty(), "root path always contains d");
        let dd = bufs.path.len() - 1;
        bufs.reset(dd + 1);
        for (k, slot) in bufs.arr.iter_mut().enumerate().take(upto.min(dd) + 1) {
            *slot = init.get(k).copied().flatten();
        }
        let labels = self.td.labels();
        let arena = labels.arena(WD);
        for k in 0..=dd {
            let mut best: Option<f64> = bufs.arr[k]; // seeded up-sweep arrival
            let mut best_pred = None;
            for (bi, idx) in labels.range(bufs.path[k]).enumerate() {
                let wid = labels.id(WD, idx);
                if wid == NO_PLF {
                    continue;
                }
                let ku = labels.bag_depth(idx);
                let Some(a) = bufs.arr[ku] else { continue };
                // Min-cost lower bound: skip the evaluation when it cannot
                // beat the running best.
                if best.is_some_and(|x| a + arena.min_cost(wid) >= x) {
                    continue;
                }
                let cand = a + arena.slice(wid).eval(a);
                if best.is_none_or(|x| cand < x) {
                    best = Some(cand);
                    best_pred = Some((ku, bi));
                }
            }
            if let (Some(b), Some(a)) = (bound, best) {
                if a - t > b && bufs.path[k] != d {
                    best = None; // NIL
                    best_pred = None;
                }
            }
            bufs.arr[k] = best;
            bufs.pred[k] = best_pred;
        }
    }

    /// Travel cost query `Q(s, d, t)` — Algo. 6 when shortcuts exist,
    /// falling back to the basic sweeps (Algo. 3's scalar counterpart).
    /// Allocation-free once `scratch` is warm.
    #[deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )]
    pub(crate) fn cost(
        &self,
        scratch: &mut CostScratch,
        s: VertexId,
        d: VertexId,
        t: f64,
    ) -> Option<f64> {
        if s == d {
            return Some(0.0);
        }
        let CostScratch {
            up,
            down,
            cut,
            seeds,
        } = scratch;
        let x = self.lca_and_cut(s, d, cut);
        let upto = self.td.node(x).depth as usize;

        // Shortcut values over the cut: (depth of w, cost s→w, cost w→d).
        // An unscanned (empty) cut covers nothing.
        let mut full_cover = self.scan_cut;
        // Best total over the cut's shortcut pairs: the answer under a full
        // cover, the sweeps' pruning bound otherwise.
        let mut bound: Option<f64> = None;
        seeds.clear();
        // Both endpoints' shortcut rows, resolved once for the whole cut.
        let (row_s, row_d) = (self.store.row(s, UP), self.store.row(d, DOWN));
        for &w in cut.iter() {
            let kw = self.td.node(w).depth as usize;
            // s → w, evaluated in place in the store's arena.
            let up_cost: Option<Option<f64>> = if w == s {
                Some(Some(0.0))
            } else {
                row_s.get(w).map(|f| f.map(|f| f.eval(t)))
            };
            // w → d, departing at the arrival through the shortcut (`None`
            // for `w == d`, whose leg is the zero function).
            let down_f: Option<Option<PlfSlice<'_>>> = if w == d { None } else { row_d.get(w) };
            if up_cost.is_none() || (w != d && down_f.is_none()) {
                full_cover = false;
            }
            if let Some(Some(cs)) = up_cost {
                seeds.push((kw, t + cs));
                let total = match down_f {
                    None if w == d => Some(cs),
                    Some(Some(f)) => Some(cs + f.eval(t + cs)),
                    _ => None,
                };
                if let Some(total) = total {
                    if bound.is_none_or(|b| total < b) {
                        bound = Some(total);
                    }
                }
            }
        }

        if full_cover {
            // Situation (1): O(w) combination from shortcuts alone.
            return bound;
        }

        // Situations (2)/(3): sweeps, pruned by the bound when present.
        self.sweep_up_scalar_into(s, t, seeds, bound, up);
        self.sweep_down_scalar_into(d, &up.arr, upto, t, bound, down);
        debug_assert_eq!(down.arr.len(), down.path.len());
        let swept = down.arr[down.path.len() - 1].map(|a| a - t);
        match (swept, bound) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    // ------------------------------------------------------------------
    // Profile (cost function) queries
    // ------------------------------------------------------------------

    /// Where the stored function of seed `⟨v, ancestor⟩` in the sweep's
    /// direction lives: its chunk and its id there.
    fn seed<const REV: bool>(&self, v: VertexId, ancestor: VertexId) -> (&'a PlfArena, PlfId) {
        let (chunk, id) = (self.store.row(v, if REV { DOWN } else { UP }))
            .locate(ancestor)
            .expect("seed keys name stored pairs");
        debug_assert!(id != NO_PLF, "seed keys name reachable directions");
        (chunk, id)
    }

    /// Algo. 6's cut scan (an unscanned, empty cut covers nothing): reads
    /// each stored function over the LCA cut in place, keys the sweeps'
    /// seeds, and folds the through-`w` totals into the bound `f⁺`. A total
    /// through both legs is walked and built by `min_compound_into`, over
    /// copies of the legs in `scratch.legs` — reused, so they allocate only
    /// while they grow. Returns the LCA's depth, `f⁺`, and whether every cut
    /// pair is stored (situation (1)).
    fn scan_cut_pairs(
        &self,
        scratch: &mut ProfileScratch,
        s: VertexId,
        d: VertexId,
    ) -> (usize, Option<Plf>, bool) {
        let ProfileScratch {
            cut,
            seeds_s,
            seeds_d,
            legs: [leg_s, leg_d],
            ..
        } = scratch;
        let x = self.lca_and_cut(s, d, cut);
        let mut full_cover = self.scan_cut;
        seeds_s.clear();
        seeds_d.clear();
        let mut bound: Option<Plf> = None;
        let (row_s, row_d) = (self.store.row(s, UP), self.store.row(d, DOWN));
        for &w in cut.iter() {
            let kw = self.td.node(w).depth as usize;
            // Outer `None`: pair not selected (or `w` is the endpoint itself,
            // whose leg is the zero function); inner `None`: unreachable.
            let up_f = if w == s { None } else { row_s.get(w) };
            let down_f = if w == d { None } else { row_d.get(w) };
            if (w != s && up_f.is_none()) || (w != d && down_f.is_none()) {
                full_cover = false;
            }
            if let Some(Some(_)) = up_f {
                seeds_s.push((kw, w));
            }
            if let Some(Some(_)) = down_f {
                seeds_d.push((kw, w));
            }
            match (up_f.flatten(), down_f.flatten()) {
                (_, Some(fd)) if w == s => {
                    min_into(&mut bound, fd.to_plf());
                }
                (Some(fu), _) if w == d => {
                    min_into(&mut bound, fu.to_plf());
                }
                (Some(fu), Some(fd)) => {
                    let fu_copy = leg_s.get_or_insert_with(Plf::zero);
                    let fd_copy = leg_d.get_or_insert_with(Plf::zero);
                    fu.copy_into(fu_copy);
                    fd.copy_into(fd_copy);
                    min_compound_into(&mut bound, fu_copy, fd_copy, w);
                }
                _ => {}
            }
        }
        (self.td.node(x).depth as usize, bound, full_cover)
    }

    /// The scalar bounds phase: frames the `s → d` corridor from label
    /// bounds alone, before any function is touched. Fills both sides'
    /// `reach` and `rest` tables and returns the upper bound
    /// `U ≥ max_t f_{s,d}(t)`: the smaller of `f⁺`'s maximum (`bound_max`,
    /// `+∞` without one) and the best `smax[k] + dmax[k]` over the common
    /// chain — a fixed path's summed edge maxima bound its travel time at
    /// every departure.
    fn corridor(
        &self,
        scratch: &mut ProfileScratch,
        s: VertexId,
        d: VertexId,
        upto: usize,
        bound_max: f64,
    ) -> f64 {
        let ProfileScratch {
            up,
            down,
            seeds_s,
            seeds_d,
            ..
        } = scratch;
        self.reach_sweep::<false>(s, seeds_s, up);
        self.reach_sweep::<true>(d, seeds_d, down);
        let upper = (0..=upto)
            .map(|k| up.reach[k].1 + down.reach[k].1)
            .fold(bound_max, f64::min);
        self.rest_pass::<false>(up, &down.reach, upto);
        self.rest_pass::<true>(down, &up.reach, upto);
        upper
    }

    /// Bounds phase, per side: lays out `v`'s root path in `bufs` and runs
    /// the function sweep's shape on `(min, max)` pairs. A seeded slot holds
    /// its stored function's bounds and, as in the function sweep, is not
    /// relaxed into.
    #[deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )]
    fn reach_sweep<const REV: bool>(
        &self,
        v: VertexId,
        seeds: &[(usize, VertexId)],
        bufs: &mut ProfileSweepBufs,
    ) {
        self.root_path_into(v, &mut bufs.path);
        let end = bufs.path.len() - 1;
        bufs.reset(end + 1);
        bufs.reach[end] = (0.0, 0.0);
        for &(k, ancestor) in seeds {
            let (chunk, id) = self.seed::<REV>(v, ancestor);
            bufs.reach[k] = (chunk.min_cost(id), chunk.max_cost(id));
            bufs.fixed[k] = true;
        }
        let (labels, dir) = (self.td.labels(), if REV { WD } else { WS });
        for k in (0..=end).rev() {
            let (lo, hi) = bufs.reach[k];
            if lo == f64::INFINITY {
                continue;
            }
            for idx in labels.range(bufs.path[k]) {
                let ku = labels.bag_depth(idx);
                if bufs.fixed[ku] {
                    continue;
                }
                let (w_lo, w_hi) = (labels.min(dir, idx), labels.max(dir, idx));
                let r = &mut bufs.reach[ku];
                *r = (r.0.min(lo + w_lo), r.1.min(hi + w_hi));
            }
        }
    }

    /// Bounds phase, per side, top-down: `rest[k]` = the least of crossing
    /// the chain at `k` onto the other side's slot (`k ≤ upto`, bounded by
    /// `other[k]`'s minimum) and going up one label first. Relaxations into
    /// seeded slots count too, so `rest[k]` bounds the true distance between
    /// `path[k]` and the other endpoint, not only what the sweep builds.
    #[deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )]
    fn rest_pass<const REV: bool>(
        &self,
        bufs: &mut ProfileSweepBufs,
        other: &[(f64, f64)],
        upto: usize,
    ) {
        let (labels, dir) = (self.td.labels(), if REV { WD } else { WS });
        for (k, &v) in bufs.path.iter().enumerate() {
            let mut r = if k <= upto { other[k].0 } else { f64::INFINITY };
            for idx in labels.range(v) {
                r = r.min(labels.min(dir, idx) + bufs.rest[labels.bag_depth(idx)]);
            }
            bufs.rest[k] = r;
        }
    }

    /// Upward function sweep along the root path [`Self::reach_sweep`] laid
    /// out in `bufs`, ending at `v`. Forward (`REV = false`, Algo. 3 lines
    /// 1-10) `v` is the source and `cost[k]` = `f_{v, path[k]}(t)` through
    /// the `Ws` labels; reversed (line 11, "repeat for cost_d") `v` is the
    /// destination and `cost[k]` = `f_{path[k], v}(t)` through `Wd`. `seeds`
    /// keys the selected pairs `⟨v, ancestor⟩` whose stored function (exact,
    /// skipped by relaxation per Algo. 6 line 15) fills the ancestor's slot.
    /// `limit` is the corridor's upper bound plus `EPS_COST`: a seed, slot
    /// or relaxation whose lower bound through `rest` exceeds it is NIL
    /// (Algo. 6 line 20, with a bound every query has).
    fn sweep_up_profile_into<const REV: bool>(
        &self,
        seeds: &[(usize, VertexId)],
        limit: f64,
        bufs: &mut ProfileSweepBufs,
        counts: &mut ProfileCounts,
    ) {
        let end = bufs.path.len() - 1;
        let v = bufs.path[end];
        for &(k, ancestor) in seeds {
            // Dropped before its copy; the slot stays fixed and empty, as
            // the NIL below would leave it.
            if bufs.reach[k].0 + bufs.rest[k] > limit {
                counts.corridor_drops += 1;
                continue;
            }
            bufs.bounds[k] = bufs.reach[k];
            let (chunk, id) = self.seed::<REV>(v, ancestor);
            bufs.cost[k] = Some(chunk.slice(id).to_plf());
        }
        for k in (0..=end).rev() {
            // At processing time cost[k] is final: NIL it when nothing
            // through it can get below the corridor's upper bound.
            let mut cur_min = 0.0; // the endpoint's own label is the zero function
            if k != end {
                if bufs.cost[k].is_none() {
                    continue;
                }
                cur_min = bufs.bounds[k].0;
                if cur_min + bufs.rest[k] > limit {
                    bufs.cost[k] = None; // NIL
                    counts.corridor_drops += 1;
                    continue;
                }
            }
            // Each label is read in place — its depth, minimum and windows
            // from its slot — and copied out only for the merge kernel.
            let (labels, dir) = (self.td.labels(), if REV { WD } else { WS });
            for idx in labels.range(bufs.path[k]) {
                let Some(w) = labels.get(dir, idx) else {
                    continue;
                };
                let ku = labels.bag_depth(idx);
                if bufs.fixed[ku] {
                    continue;
                }
                counts.relaxed += 1;
                // Edge-level prunes, both before the compound is built: its
                // minimum is ≥ min(cost[k]) + min(w), the slot minimum kept
                // beside cost[k] plus the edge minimum the label arena
                // serves in O(1). When that plus `rest[ku]` clears the
                // corridor, every value it could propagate loses the final
                // combination (same argument as the slot NIL); when it
                // reaches the destination slot's maximum, the candidate is
                // nowhere below what the slot holds and `min_into` would
                // keep the slot (ties included). Past both, per-window
                // bounds may keep a filled slot; otherwise the relaxation
                // itself walks the candidate against the slot before
                // building it.
                let lb = cur_min + labels.min(dir, idx);
                if lb + bufs.rest[ku] > limit {
                    counts.corridor_drops += 1;
                    continue;
                }
                if lb >= bufs.bounds[ku].1 {
                    counts.slot_prunes += 1;
                    continue;
                }
                let bounds = &mut bufs.bounds[ku];
                let merge = if k == end {
                    // line 2: cost_s[u] ← X(s).Ws_u
                    fold_into(&mut bufs.cost[ku], bounds, None, w.to_plf())
                } else {
                    // Bag members are ancestors: the slot lies above `k`.
                    let (above, from_k) = bufs.cost.split_at_mut(k);
                    let (slot, cur) = (&mut above[ku], from_k[0].as_ref().expect("checked above"));
                    let via = bufs.path[k];
                    let label = bufs.label.get_or_insert_with(Plf::zero);
                    // Into a filled slot, the windows may decide the keep
                    // before the compound's breakpoints are made, and a
                    // take before the built compound is walked.
                    let mut windows = None;
                    if let Some(held) = slot.as_ref() {
                        let cache = &mut bufs.windows;
                        cache.ensure(k, cur);
                        cache.ensure(ku, held);
                        let (acc, here, lw) =
                            (&cache.windows[ku], &cache.windows[k], &Windows::of_slice(w));
                        let (fw, gw) = if REV { (lw, here) } else { (here, lw) };
                        if acc.under_compound(fw, gw) {
                            if cfg!(debug_assertions) {
                                w.copy_into(label);
                                let (f, g) = if REV { (&*label, cur) } else { (cur, &*label) };
                                shadowed(true, held, f, g, via);
                            }
                            counts.window_keeps += 1;
                            continue;
                        }
                        windows = Some(&mut cache.windows[ku]);
                    }
                    w.copy_into(label);
                    let (f, g) = if REV { (&*label, cur) } else { (cur, &*label) };
                    fold_compound_into(slot, bounds, windows, f, g, via)
                };
                counts.record(merge);
                if !merge.windows_fresh() {
                    bufs.windows.stale(ku);
                }
            }
        }
    }

    /// Cost function query `f_{s,d}(t)` — Algo. 6 (falls back to Algo. 3
    /// when no shortcut covers the cut), reusing `scratch`'s sweep tables
    /// and seed lists.
    pub(crate) fn profile(
        &self,
        scratch: &mut ProfileScratch,
        s: VertexId,
        d: VertexId,
    ) -> Option<Plf> {
        scratch.counts = ProfileCounts::default();
        if s == d {
            return Some(Plf::zero());
        }
        let (upto, bound, full_cover) = self.scan_cut_pairs(scratch, s, d);
        if full_cover {
            // Situation (1): combine shortcuts directly (lines 1-2).
            return bound;
        }

        // Situations (2)/(3): the bounds phase frames the corridor, then
        // pruned sweeps + combination over the common ancestor chain. The
        // ε keeps a term tying the upper bound, as the search backends'
        // corridor does.
        let bound_max = bound.as_ref().map_or(f64::INFINITY, Plf::max_value);
        let limit = self.corridor(scratch, s, d, upto, bound_max) + EPS_COST;
        let ProfileScratch {
            up,
            down,
            seeds_s,
            seeds_d,
            counts,
            ..
        } = scratch;
        self.sweep_up_profile_into::<false>(seeds_s, limit, up, counts);
        self.sweep_up_profile_into::<true>(seeds_d, limit, down, counts);
        let mut result: Option<Plf> = bound;
        combine_over_chain(up, down, upto, limit, counts, &mut result);
        result
    }
}

/// Combines the two sweep tables over the common-ancestor chain (every
/// vertex at depth `0..=upto`, shared by both root paths).
///
/// The chain — rather than just the LCA cut — is required for exactness with
/// *sweep* values: the sweeps compute order-monotone ("up-edge only") costs,
/// and the apex of the shortest path (where up switches to down) is some
/// common ancestor, possibly above the cut. The cut `{x} ∪ bag(x)` is a
/// subset of the chain, so Property 1's combination is subsumed. (With
/// *exact* shortcut functions, the cut alone suffices — that is situation (1)
/// of Algo. 6.)
///
/// Like the sweeps, each term is first bounded below by its two slots'
/// minima and dropped when that exceeds the corridor's `limit` or reaches
/// the result's maximum; a compound term against a filled result then
/// tries the per-window keep, its result's windows cached until it changes.
fn combine_over_chain(
    up: &mut ProfileSweepBufs,
    down: &mut ProfileSweepBufs,
    upto: usize,
    limit: f64,
    counts: &mut ProfileCounts,
    result: &mut Option<Plf>,
) {
    let mut result_bounds = result.as_ref().map_or(EMPTY_BOUNDS, Plf::value_bounds);
    // The result's windows while they are fresh.
    let mut result_windows: Option<Windows> = None;
    for k in 0..=upto {
        let (Some((cost_s, min_s)), Some((cost_d, min_d))) = (up.leg(k), down.leg(k)) else {
            continue;
        };
        if min_s + min_d > limit {
            counts.corridor_drops += 1;
            continue;
        }
        if min_s + min_d >= result_bounds.1 {
            continue;
        }
        let w = up.path[k];
        let bounds = &mut result_bounds;
        let merge = match (cost_s, cost_d) {
            (None, Some(fd)) => fold_into(result, bounds, result_windows.as_mut(), fd.clone()),
            (Some(fs), None) => fold_into(result, bounds, result_windows.as_mut(), fs.clone()),
            (Some(_), Some(_)) => {
                let (fs, fd) = (up.cost[k].as_ref(), down.cost[k].as_ref());
                let (fs, fd) = (fs.expect("a leg"), fd.expect("a leg"));
                if let Some(held) = result.as_ref() {
                    up.windows.ensure(k, fs);
                    down.windows.ensure(k, fd);
                    let acc = result_windows.get_or_insert_with(|| Windows::of(held));
                    let keep = acc.under_compound(&up.windows.windows[k], &down.windows.windows[k]);
                    if shadowed(keep, held, fs, fd, w) {
                        counts.window_keeps += 1;
                        continue;
                    }
                }
                fold_compound_into(result, bounds, result_windows.as_mut(), fs, fd, w)
            }
            (None, None) => Merge::Kept, // s == d returns before the sweeps
        };
        counts.record(merge);
        if !merge.windows_fresh() {
            result_windows = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shortcut::{build_all, ShortcutStore};
    use rand::prelude::*;
    use rand::rngs::StdRng;
    use td_dijkstra::{profile_search, shortest_path_cost};
    use td_gen::random_graph::seeded_graph;
    use td_plf::DAY;

    fn probe_times() -> Vec<f64> {
        (0..10).map(|k| k as f64 * DAY / 10.0 + 13.0).collect()
    }

    /// The engine's queries on a cold scratch.
    fn cost(engine: &QueryEngine<'_>, s: VertexId, d: VertexId, t: f64) -> Option<f64> {
        engine.cost(&mut CostScratch::default(), s, d, t)
    }

    fn profile(engine: &QueryEngine<'_>, s: VertexId, d: VertexId) -> Option<Plf> {
        engine.profile(&mut ProfileScratch::default(), s, d)
    }

    #[test]
    fn basic_scalar_query_matches_dijkstra() {
        for seed in 0..6u64 {
            let n = 35;
            let g = seeded_graph(seed, n, 25, 3);
            let td = TreeDecomposition::build(&g);
            let store = ShortcutStore::empty(n);
            let engine = QueryEngine::new(&td, &store);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x1234);
            for _ in 0..40 {
                let s = rng.gen_range(0..n) as u32;
                let d = rng.gen_range(0..n) as u32;
                let t = rng.gen_range(0.0..DAY);
                let want = shortest_path_cost(&g, s, d, t);
                let got = cost(&engine, s, d, t);
                match (want, got) {
                    (Some(a), Some(b)) => assert!(
                        (a - b).abs() < 1e-5,
                        "seed={seed} s={s} d={d} t={t}: dijkstra {a} vs index {b}"
                    ),
                    (None, None) => {}
                    other => panic!("seed={seed} s={s} d={d} t={t}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn basic_profile_query_matches_profile_search() {
        for seed in 0..4u64 {
            let n = 28;
            let g = seeded_graph(seed, n, 18, 3);
            let td = TreeDecomposition::build(&g);
            let store = ShortcutStore::empty(n);
            let engine = QueryEngine::new(&td, &store);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x77);
            for _ in 0..8 {
                let s = rng.gen_range(0..n) as u32;
                let prof = profile_search(&g, s);
                for _ in 0..4 {
                    let d = rng.gen_range(0..n) as u32;
                    let got = profile(&engine, s, d);
                    match (&prof.dist[d as usize], &got) {
                        (Some(want), Some(got)) => {
                            for t in probe_times() {
                                assert!(
                                    (want.eval(t) - got.eval(t)).abs() < 1e-5,
                                    "seed={seed} s={s} d={d} t={t}: {} vs {}",
                                    want.eval(t),
                                    got.eval(t)
                                );
                            }
                        }
                        (None, None) => {}
                        other => {
                            panic!(
                                "seed={seed} s={s} d={d}: {:?}",
                                other.1.as_ref().map(|_| ())
                            )
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn full_shortcut_queries_match_basic() {
        // With ALL shortcuts (TD-H2H mode) every query is situation (1); the
        // answers must agree with the basic sweeps of an engine over an
        // empty store on the same tree.
        for seed in 0..4u64 {
            let n = 30;
            let g = seeded_graph(seed, n, 20, 3);
            let td = TreeDecomposition::build(&g);
            let full = build_all(&td, 2);
            let none = ShortcutStore::empty(n);
            let fast = QueryEngine::new(&td, &full);
            let slow = QueryEngine::new(&td, &none);
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..30 {
                let s = rng.gen_range(0..n) as u32;
                let d = rng.gen_range(0..n) as u32;
                let t = rng.gen_range(0.0..DAY);
                let a = cost(&fast, s, d, t);
                let b = cost(&slow, s, d, t);
                match (a, b) {
                    (Some(a), Some(b)) => {
                        assert!(
                            (a - b).abs() < 1e-5,
                            "seed={seed} s={s} d={d} t={t}: {a} vs {b}"
                        )
                    }
                    (None, None) => {}
                    other => panic!("seed={seed} s={s} d={d}: {other:?}"),
                }
                let fa = profile(&fast, s, d);
                let fb = profile(&slow, s, d);
                match (fa, fb) {
                    (Some(fa), Some(fb)) => {
                        for t in probe_times() {
                            assert!(
                                (fa.eval(t) - fb.eval(t)).abs() < 1e-5,
                                "seed={seed} s={s} d={d} t={t}"
                            );
                        }
                    }
                    (None, None) => {}
                    other => panic!("seed={seed} s={s} d={d}: {:?}", other.0.map(|_| ())),
                }
            }
        }
    }

    #[test]
    fn skipping_the_cut_scan_over_an_empty_store_changes_no_bit() {
        // The claim the one-query-path design rests on: with nothing
        // selected, Algo. 6's cut scan is inert, so the engine that skips it
        // (what `QueryEngine::new` picks for an empty store) and the engine
        // forced to run it answer bit-identically — cost, profile
        // breakpoints and path.
        let bits = |f: Option<Plf>| {
            f.map(|f| {
                f.points()
                    .iter()
                    .map(|p| (p.t.to_bits(), p.v.to_bits(), p.via))
                    .collect::<Vec<_>>()
            })
        };
        for seed in 0..4u64 {
            let n = 30;
            let g = seeded_graph(seed, n, 20, 3);
            let td = TreeDecomposition::build(&g);
            let store = ShortcutStore::empty(n);
            let skipping = QueryEngine::new(&td, &store);
            assert!(!skipping.scan_cut, "an empty store skips the scan");
            let scanning = QueryEngine {
                scan_cut: true,
                ..QueryEngine::new(&td, &store)
            };
            let mut rng = StdRng::seed_from_u64(seed ^ 0xc07);
            let mut pairs: Vec<(u32, u32)> = (0..40)
                .map(|_| (rng.gen_range(0..n) as u32, rng.gen_range(0..n) as u32))
                .collect();
            // s an ancestor of d, and the reverse: the degenerate cuts.
            for v in 0..n as u32 {
                for a in td.ancestors_root_first(v) {
                    pairs.push((a, v));
                    pairs.push((v, a));
                }
            }
            let (mut cs_a, mut cs_b) = (CostScratch::default(), CostScratch::default());
            let (mut ps_a, mut ps_b) = (ProfileScratch::default(), ProfileScratch::default());
            for (s, d) in pairs {
                for t in [0.0, 7.5 * 3600.0, rng.gen_range(0.0..DAY)] {
                    assert_eq!(
                        skipping.cost(&mut cs_a, s, d, t).map(f64::to_bits),
                        scanning.cost(&mut cs_b, s, d, t).map(f64::to_bits),
                        "seed={seed} s={s} d={d} t={t}"
                    );
                    let a = skipping.path(&mut cs_a, s, d, t);
                    let b = scanning.path(&mut cs_b, s, d, t);
                    assert_eq!(
                        a.as_ref().map(|(c, p)| (c.to_bits(), p)),
                        b.as_ref().map(|(c, p)| (c.to_bits(), p)),
                        "seed={seed} s={s} d={d} t={t}"
                    );
                }
                assert_eq!(
                    bits(skipping.profile(&mut ps_a, s, d)),
                    bits(scanning.profile(&mut ps_b, s, d)),
                    "seed={seed} s={s} d={d}"
                );
            }
        }
    }

    #[test]
    fn corridor_bounds_hold_against_exact_profiles() {
        // The bounds phase on its own, not through an answer: over an empty,
        // a partial and a full store, `U` must be at or above the exact
        // `max f_{s,d}`, and each `rest` at or below the exact minimum
        // between its path vertex and the other endpoint. A wrong bound that
        // happens not to change an answer still fails here.
        use crate::index::{IndexOptions, SelectionStrategy, TdTreeIndex};
        const TOL: f64 = 1e-6;
        for seed in 0..4u64 {
            let n = 30;
            let g = seeded_graph(seed, n, 20, 3);
            let partial = TdTreeIndex::build(
                g.clone(),
                IndexOptions {
                    strategy: SelectionStrategy::Greedy { budget: 150 },
                    threads: 1,
                    track_supports: false,
                },
            );
            let td = &partial.td;
            let (none, full) = (ShortcutStore::empty(n), build_all(td, 1));
            assert!(
                (1..full.num_pairs()).contains(&partial.store.num_pairs()),
                "seed={seed}: the Greedy store must be partial"
            );
            let exact: Vec<_> = (0..n as u32).map(|v| profile_search(&g, v).dist).collect();
            let f = |u: VertexId, v: VertexId| exact[u as usize][v as usize].as_ref();
            let mut rng = StdRng::seed_from_u64(seed ^ 0xb0d);
            let pairs: Vec<(u32, u32)> = (0..40)
                .map(|_| (rng.gen_range(0..n) as u32, rng.gen_range(0..n) as u32))
                .filter(|(s, d)| s != d)
                .collect();
            for store in [&none, &partial.store, &full] {
                let engine = QueryEngine::new(td, store);
                let mut scratch = ProfileScratch::default();
                for &(s, d) in &pairs {
                    let ctx = format!("seed={seed} pairs={} s={s} d={d}", store.num_pairs());
                    let (upto, bound, _) = engine.scan_cut_pairs(&mut scratch, s, d);
                    let bound_max = bound.as_ref().map_or(f64::INFINITY, Plf::max_value);
                    let upper = engine.corridor(&mut scratch, s, d, upto, bound_max);
                    if let Some(fsd) = f(s, d) {
                        assert!(
                            upper + TOL >= fsd.max_value(),
                            "{ctx}: U = {upper} below max f = {}",
                            fsd.max_value()
                        );
                    }
                    let ProfileScratch { up, down, .. } = &scratch;
                    for (k, &w) in up.path.iter().enumerate() {
                        if let Some(fwd) = f(w, d) {
                            assert!(
                                up.rest[k] <= fwd.min_value() + TOL,
                                "{ctx} k={k}: rest_s {} above min f(w, d) = {}",
                                up.rest[k],
                                fwd.min_value()
                            );
                        }
                    }
                    for (k, &w) in down.path.iter().enumerate() {
                        if let Some(fsw) = f(s, w) {
                            assert!(
                                down.rest[k] <= fsw.min_value() + TOL,
                                "{ctx} k={k}: rest_d {} above min f(s, w) = {}",
                                down.rest[k],
                                fsw.min_value()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn every_relaxation_past_the_prunes_ends_as_one_census_outcome() {
        // The census of the merges: with the corridor switched off (an
        // infinite limit) every sweep relaxation is slot-pruned or ends as
        // exactly one of the six outcomes. Debug builds also shadow every
        // window keep with the walk it skips (`shadowed`) and every window
        // take with the pointwise walk (`ops::fold_into`).
        use crate::index::{IndexOptions, SelectionStrategy, TdTreeIndex};
        use td_gen::{Dataset, Workload, WorkloadConfig};
        let g = Dataset::Cal.build(3, 0.1, 42);
        let n = g.num_vertices();
        let budget = Dataset::Cal.spec().budget_at(0.1) as u64;
        let index = TdTreeIndex::build(
            g,
            IndexOptions {
                strategy: SelectionStrategy::Greedy { budget },
                ..Default::default()
            },
        );
        let engine = QueryEngine::new(&index.td, &index.store);
        let mix = WorkloadConfig {
            pairs: 150,
            times_per_pair: 1,
            seed: 42,
        };
        let mut scratch = ProfileScratch::default();
        let mut total = ProfileCounts::default();
        for (s, d) in Workload::generate(n, &mix).pairs() {
            let (upto, bound, full_cover) = engine.scan_cut_pairs(&mut scratch, s, d);
            if full_cover {
                continue;
            }
            let bound_max = bound.as_ref().map_or(f64::INFINITY, Plf::max_value);
            engine.corridor(&mut scratch, s, d, upto, bound_max);
            let ProfileScratch {
                up,
                down,
                seeds_s,
                seeds_d,
                ..
            } = &mut scratch;
            let mut counts = ProfileCounts::default();
            engine.sweep_up_profile_into::<false>(seeds_s, f64::INFINITY, up, &mut counts);
            engine.sweep_up_profile_into::<true>(seeds_d, f64::INFINITY, down, &mut counts);
            assert_eq!(counts.corridor_drops, 0, "s={s} d={d}");
            let c = counts;
            let outcomes = [
                c.slot_prunes,
                c.window_keeps,
                c.walk_keeps,
                c.fills,
                c.window_takes,
                c.walk_takes,
                c.merges,
            ];
            assert_eq!(
                c.relaxed,
                outcomes.iter().sum::<u64>(),
                "s={s} d={d}: {c:?}"
            );
            total += c;
        }
        let t = total;
        assert!(
            [
                t.window_keeps,
                t.walk_keeps,
                t.fills,
                t.window_takes,
                t.walk_takes,
                t.merges
            ]
            .iter()
            .all(|&x| x > 0),
            "every outcome occurs on the mix: {t:?}"
        );
    }

    #[test]
    fn reused_scratch_matches_fresh_scratch() {
        // The same CostScratch/ProfileScratch driven through many mixed
        // queries must answer exactly like per-call fresh scratch.
        for seed in 0..3u64 {
            let n = 32;
            let g = seeded_graph(seed, n, 22, 3);
            let td = TreeDecomposition::build(&g);
            let full = build_all(&td, 2);
            let none = ShortcutStore::empty(n);
            for store in [&none, &full] {
                let engine = QueryEngine::new(&td, store);
                let mut cost_scratch = CostScratch::default();
                let mut profile_scratch = ProfileScratch::default();
                let mut rng = StdRng::seed_from_u64(seed ^ 0xfeed);
                for _ in 0..60 {
                    let s = rng.gen_range(0..n) as u32;
                    let d = rng.gen_range(0..n) as u32;
                    let t = rng.gen_range(0.0..DAY);
                    assert_eq!(
                        engine.cost(&mut cost_scratch, s, d, t),
                        cost(&engine, s, d, t),
                        "seed={seed} s={s} d={d} t={t}"
                    );
                    let a = engine.profile(&mut profile_scratch, s, d);
                    let b = profile(&engine, s, d);
                    match (a, b) {
                        (Some(a), Some(b)) => {
                            for t in probe_times() {
                                assert!((a.eval(t) - b.eval(t)).abs() < 1e-9);
                            }
                        }
                        (None, None) => {}
                        other => panic!("seed={seed} s={s} d={d}: {:?}", other.0.map(|_| ())),
                    }
                }
            }
        }
    }

    #[test]
    fn self_query_is_zero() {
        let g = seeded_graph(1, 10, 6, 3);
        let td = TreeDecomposition::build(&g);
        let store = ShortcutStore::empty(10);
        let engine = QueryEngine::new(&td, &store);
        assert_eq!(cost(&engine, 3, 3, 100.0), Some(0.0));
        assert_eq!(profile(&engine, 3, 3).unwrap().eval(5.0), 0.0);
    }

    #[test]
    fn ancestor_descendant_queries_work() {
        // Queries where X(s) is an ancestor of X(d) exercise the degenerate
        // cut = {s} ∪ bag(s) case.
        let g = seeded_graph(4, 25, 15, 3);
        let td = TreeDecomposition::build(&g);
        let store = ShortcutStore::empty(25);
        let engine = QueryEngine::new(&td, &store);
        let mut checked = 0;
        for v in 0..25u32 {
            for a in td.ancestors_root_first(v) {
                for t in [0.0, DAY / 3.0, DAY / 2.0] {
                    let want = shortest_path_cost(&g, a, v, t);
                    let got = cost(&engine, a, v, t);
                    match (want, got) {
                        (Some(x), Some(y)) => {
                            assert!((x - y).abs() < 1e-5, "a={a} v={v} t={t}: {x} vs {y}")
                        }
                        (None, None) => {}
                        other => panic!("a={a} v={v}: {other:?}"),
                    }
                    checked += 1;
                }
            }
        }
        assert!(checked > 0);
    }

    #[test]
    fn unreachable_returns_none() {
        use td_graph::TdGraph;
        let mut g = TdGraph::with_vertices(4);
        g.add_edge(0, 1, Plf::constant(1.0)).unwrap();
        g.add_edge(1, 0, Plf::constant(1.0)).unwrap();
        g.add_edge(2, 3, Plf::constant(1.0)).unwrap();
        g.add_edge(3, 2, Plf::constant(1.0)).unwrap();
        let td = TreeDecomposition::build(&g);
        let store = ShortcutStore::empty(4);
        let engine = QueryEngine::new(&td, &store);
        assert_eq!(cost(&engine, 0, 3, 0.0), None);
        assert!(profile(&engine, 0, 3).is_none());
    }
}
