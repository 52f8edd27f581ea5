#![forbid(unsafe_code)]
#![deny(clippy::disallowed_types, clippy::disallowed_methods)]
// (query-side file: no locks, no channels — readers never block)
//! # td-ch — scalar contraction hierarchies over lower-bound metrics
//!
//! The TD-A\* query path needs a potential `h(v)` = a lower bound on the
//! time-dependent cost `v → d`. A static graph whose edges carry lower
//! bounds on the TD weights gives admissible, *consistent* potentials — but
//! computing its exact distances with a full backward Dijkstra per
//! destination is O(n) per query, which defeats the paper's
//! pay-preprocessing-once premise.
//!
//! This crate contracts such scalar graphs once into a
//! [`ContractionHierarchy`] (the CH-Potentials idea of Strasser, Wagner &
//! Zeitz and the TCH line of Batz et al.), built as a customizable CH
//! (Dibbelt, Strasser & Wagner): the order comes from the topology alone —
//! [`td_graph::min_degree_order`], the very order the TD-tree eliminates
//! in — and a customization by triangles derives every metric's arcs in
//! it. A destination's exact scalar distances are then
//! answered by one small backward *upward* search plus lazy memoized
//! resolution over the upward edge arrays — typically a few hundred vertices
//! instead of all of them (see `td_dijkstra::ChPotential`).
//!
//! Two refinements over a single min-over-the-day metric:
//!
//! * **Multi-metric suffix windows** (the multi-metric potentials of the
//!   CATCHUp line): the hierarchy carries one customized weight set per
//!   window start `τ_k`, where metric `k` weighs each edge by
//!   `min_{τ ≥ τ_k} w_e(τ)`. A query departing at `t` uses the largest
//!   `τ_k ≤ t` — valid because FIFO arrival times along the search never
//!   precede the departure, and far tighter than the whole-day minimum
//!   once rush hour has started (metric 0 has `τ_0 = 0`, the classic
//!   global min). [`ContractionHierarchy::build`] places the eight starts
//!   where the graph's own weights change ([`choose_window_starts`]: a DP
//!   over a 15-minute grid minimising how far each departure's metric
//!   sits below the weights it bounds), so the windows crowd the rise to
//!   the morning peak instead of following a fixed 3-hour grid.
//! * **Metric-independent order**: the contraction order is the graph's
//!   min-degree elimination order, computed once from the topology and kept
//!   across weight changes, and so are the window starts;
//!   [`ContractionHierarchy::customize`] re-derives every metric's arcs in
//!   that fixed order by one pass over the order's chordal supergraph: its
//!   triangles, listed once, relax each window's weights bottom-up and then
//!   top-down, and an arc direction some triangle beats is dropped — on
//!   road-like graphs the arcs and weights a witness-search contraction in
//!   that order keeps, for a fraction of its time. The order decides the
//!   cost of a query, never its answer: any order yields exact distances.
//!   Build, `update_edges` re-customization and snapshot load all run this
//!   same pass, so all three produce bit-identical hierarchies.

use td_graph::{min_degree_order, EdgeId, FrozenGraph, VertexId};
use td_plf::eval_times_into;

pub mod persist;

/// Candidate window starts lie on this grid (seconds): every 15 minutes
/// of the day. [`choose_window_starts`] picks [`WINDOW_COUNT`] of them.
pub const WINDOW_GRID_SECS: f64 = 900.0;

/// Suffix windows per hierarchy: one customized metric each.
pub const WINDOW_COUNT: usize = 8;

/// The uniform suffix-window starts (seconds): every three hours. The
/// baseline [`choose_window_starts`] is measured against, and what
/// [`ContractionHierarchy::build_with`] tests pass when they need windows
/// that do not depend on the graph's weights.
pub const UNIFORM_WINDOW_STARTS: [f64; WINDOW_COUNT] = [
    0.0,
    3.0 * 3600.0,
    6.0 * 3600.0,
    9.0 * 3600.0,
    12.0 * 3600.0,
    15.0 * 3600.0,
    18.0 * 3600.0,
    21.0 * 3600.0,
];

/// Candidate window starts per day.
const GRID_POINTS: usize = (td_plf::DAY / WINDOW_GRID_SECS) as usize;

/// The candidate starts: the [`WINDOW_GRID_SECS`] grid over one day.
fn window_grid() -> Vec<f64> {
    (0..GRID_POINTS)
        .map(|i| i as f64 * WINDOW_GRID_SECS)
        .collect()
}

/// The index of the first time on `grid` at or after `t`.
fn grid_index(grid: &[f64], t: f64) -> usize {
    // The arithmetic guess, then exact against the grid's own values.
    let mut k = ((t / WINDOW_GRID_SECS).ceil().max(0.0) as usize).min(grid.len());
    while k > 0 && grid[k - 1] >= t {
        k -= 1;
    }
    while k < grid.len() && grid[k] < t {
        k += 1;
    }
    k
}

/// `F(g) = Σ_e min_{τ ≥ g} w_e(τ)` at every (ascending) grid time `g`, by
/// one right-to-left walk over each edge's pieces: on the piece
/// `[t_i, t_{i+1})` the weight is linear and the breakpoints after `g` are
/// those from `i + 1` on, so each grid time there adds
/// `min(w_e(g), min_{j > i} v_j)`; the rays clamp to the end values. (A
/// heuristic's input: equal to the per-window [`suffix_min`] up to the
/// rounding of the interpolation.)
fn grid_floors(fg: &FrozenGraph, grid: &[f64]) -> Vec<f64> {
    let mut floor = vec![0.0f64; grid.len()];
    for e in 0..fg.num_edges() as EdgeId {
        let w = fg.weight(e);
        let (times, values) = (w.times(), w.values());
        let last = times.len() - 1;
        // At and after the last breakpoint: the right ray.
        let mut lo = grid_index(grid, times[last]);
        for f in &mut floor[lo..] {
            *f += values[last];
        }
        let mut suf = values[last];
        for i in (0..last).rev() {
            let hi = lo;
            lo = grid_index(&grid[..hi], times[i]);
            let (t0, v0) = (times[i], values[i]);
            let slope = (values[i + 1] - v0) / (times[i + 1] - t0);
            for (f, &g) in floor[lo..hi].iter_mut().zip(&grid[lo..hi]) {
                *f += (v0 + slope * (g - t0)).min(suf);
            }
            suf = suf.min(v0);
        }
        // Before the first breakpoint: the left ray.
        for f in &mut floor[..lo] {
            *f += values[0].min(suf);
        }
    }
    floor
}

/// The [`WINDOW_COUNT`] suffix-window starts that fit `fg`'s own weights
/// best: the first at 0, the rest on the [`WINDOW_GRID_SECS`] grid, chosen
/// to minimise the slack `Σ_e Σ_t (w_e(t) − min_{τ ≥ s(t)} w_e(τ))` over
/// the grid's departure times `t`, where `s(t)` is the largest start ≤ `t`
/// — how far the metric a query departing at `t` uses sits below the
/// weights it bounds, with departures uniform over the day.
///
/// `Σ_e w_e(t)` does not depend on the starts, so this maximises
/// `Σ_k (g_{k+1} − g_k) · F(g_k)` with `F(g) = Σ_e min_{τ ≥ g} w_e(τ)`, the
/// windows' lengths times their floors: a DP over grid indices, O(k·G²)
/// after one pass over the edges' pieces. Ties keep the earliest starts, so
/// the choice is deterministic, and a graph whose floors never rise
/// (constant weights) still gets [`WINDOW_COUNT`] strictly increasing
/// starts.
pub fn choose_window_starts(fg: &FrozenGraph) -> Vec<f64> {
    let grid = window_grid();
    let floor = grid_floors(fg, &grid);
    let g = grid.len();
    // best[k][j]: the largest Σ over the first k windows when window k
    // opens at grid index j; from[k][j] the start of window k − 1 then.
    let mut best = vec![vec![f64::NEG_INFINITY; g]; WINDOW_COUNT];
    let mut from = vec![vec![0usize; g]; WINDOW_COUNT];
    best[0][0] = 0.0;
    for k in 1..WINDOW_COUNT {
        for j in k..g {
            for i in (k - 1)..j {
                let v = best[k - 1][i] + (j - i) as f64 * floor[i];
                if v > best[k][j] {
                    best[k][j] = v;
                    from[k][j] = i;
                }
            }
        }
    }
    let last = WINDOW_COUNT - 1;
    let mut end = last;
    let mut top = f64::NEG_INFINITY;
    for j in last..g {
        let v = best[last][j] + (g - j) as f64 * floor[j];
        if v > top {
            top = v;
            end = j;
        }
    }
    let mut picks = vec![0usize; WINDOW_COUNT];
    picks[last] = end;
    for k in (1..WINDOW_COUNT).rev() {
        picks[k - 1] = from[k][picks[k]];
    }
    picks.into_iter().map(|i| grid[i]).collect()
}

/// One customized metric: flat upward and backward-upward adjacency
/// (original edges and shortcuts together, each with its scalar weight).
///
/// `up` holds every edge `(v, u)` with `rank(u) > rank(v)` in forward
/// direction; the backward arrays hold every edge `(u, v)` with
/// `rank(u) > rank(v)` indexed at `v` — both searches of a CH query climb
/// ranks only.
#[derive(Clone, Debug, Default)]
pub struct MetricCsr {
    /// Upward CSR: `up_first[v]..up_first[v+1]` delimits `v`'s up-edges.
    up_first: Vec<u32>,
    up_head: Vec<VertexId>,
    up_weight: Vec<f64>,
    /// Backward-upward CSR: at `v`, the tails `u` (with `rank(u) > rank(v)`)
    /// of down-edges `u → v`.
    down_first: Vec<u32>,
    down_tail: Vec<VertexId>,
    down_weight: Vec<f64>,
    /// Kept arc directions that are not an original edge.
    num_shortcuts: usize,
}

impl MetricCsr {
    /// `v`'s upward edges as parallel `(heads, weights)` slices — every
    /// head has a higher rank than `v`.
    #[inline]
    #[deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )]
    pub fn up_edges(&self, v: VertexId) -> (&[VertexId], &[f64]) {
        debug_assert!((v as usize + 1) < self.up_first.len());
        let lo = self.up_first[v as usize] as usize;
        let hi = self.up_first[v as usize + 1] as usize;
        (&self.up_head[lo..hi], &self.up_weight[lo..hi])
    }

    /// The higher-ranked tails of down-edges into `v`, as parallel
    /// `(tails, weights)` slices — the backward search's adjacency.
    #[inline]
    #[deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )]
    pub fn backward_up_edges(&self, v: VertexId) -> (&[VertexId], &[f64]) {
        debug_assert!((v as usize + 1) < self.down_first.len());
        let lo = self.down_first[v as usize] as usize;
        let hi = self.down_first[v as usize + 1] as usize;
        (&self.down_tail[lo..hi], &self.down_weight[lo..hi])
    }

    /// Shortcuts: the kept arc directions that are not an original edge
    /// (a customization drops an original edge that a path through higher
    /// vertices beats, so originals plus shortcuts can fall short of the
    /// graph's edge count).
    #[inline]
    pub fn num_shortcuts(&self) -> usize {
        self.num_shortcuts
    }

    /// Total directed edges (up + down, originals and shortcuts).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.up_head.len() + self.down_tail.len()
    }

    fn heap_bytes(&self) -> usize {
        (self.up_first.capacity()
            + self.up_head.capacity()
            + self.down_first.capacity()
            + self.down_tail.capacity())
            * std::mem::size_of::<u32>()
            + (self.up_weight.capacity() + self.down_weight.capacity()) * std::mem::size_of::<f64>()
    }
}

/// The contracted scalar lower-bound graphs: a rank per vertex plus one
/// [`MetricCsr`] per suffix window.
#[derive(Clone, Debug, Default)]
pub struct ContractionHierarchy {
    /// `rank[v]` = position of `v` in the contraction order (0 = first).
    rank: Vec<u32>,
    /// Suffix-window starts, strictly increasing, `starts[0] == 0`.
    starts: Vec<f64>,
    /// One customized hierarchy per window, parallel to `starts`.
    metrics: Vec<MetricCsr>,
    /// Wall time of the initial `build` (ordering + customization).
    construction_secs: f64,
}

/// `min_{τ ≥ from} w_e(τ)` for the frozen edge `e`: the minimum of the
/// function evaluated at `from` and every later breakpoint value (pieces
/// are linear, and beyond the last breakpoint the function clamps, so the
/// suffix minimum is attained at `from` or at a breakpoint).
fn suffix_min(fg: &FrozenGraph, e: EdgeId, from: f64) -> f64 {
    let w = fg.weight(e);
    let times = w.times();
    let values = w.values();
    let mut m = w.eval(from);
    // First breakpoint strictly after `from`.
    let idx = times.partition_point(|&t| t <= from);
    for &v in &values[idx..] {
        m = m.min(v);
    }
    m
}

/// [`suffix_min`] for **all** window starts of one edge in a single pass:
/// the batch kernel evaluates the function at every (sorted ascending)
/// start in one hint-chained walk, then one right-to-left sweep folds the
/// breakpoint suffix minima shared between adjacent windows. Bit-identical
/// to calling `suffix_min` per window — all weights are finite and
/// non-negative, so the `f64::min` fold is order-insensitive.
fn suffix_min_all(fg: &FrozenGraph, e: EdgeId, starts: &[f64], evals: &mut [f64], out: &mut [f64]) {
    debug_assert_eq!(starts.len(), evals.len());
    debug_assert_eq!(starts.len(), out.len());
    debug_assert!(starts.windows(2).all(|w| w[0] < w[1]));
    let w = fg.weight(e);
    eval_times_into(w, starts, evals);
    let times = w.times();
    let values = w.values();
    // Walk windows from the last start down, extending the suffix minimum
    // of `values[idx..]` (the breakpoints after the start) as the cut moves
    // left — one merged pass over starts and breakpoints.
    let mut idx = times.len();
    let mut suf = f64::INFINITY;
    for k in (0..starts.len()).rev() {
        while idx > 0 && times[idx - 1] > starts[k] {
            idx -= 1;
            suf = suf.min(values[idx]);
        }
        out[k] = evals[k].min(suf);
    }
    debug_assert!(out
        .iter()
        .zip(starts)
        .all(|(&m, &s)| m.to_bits() == suffix_min(fg, e, s).to_bits()));
}

/// The shape of a hierarchy's order: what its chordal supergraph costs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OrderShape {
    /// Arcs of the chordal supergraph (each holds an up and a down weight
    /// slot in every window before customization drops some).
    pub arcs: usize,
    /// The largest number of higher-ranked neighbours of a vertex — the
    /// width of the order's tree decomposition.
    pub width: usize,
    /// Vertices on the longest path of the elimination tree (a vertex's
    /// parent is its lowest-ranked higher neighbour).
    pub height: usize,
}

/// The metric-independent half of a customization: the order's chordal
/// supergraph (every arc a witness-free contraction in this order would
/// create) and its lower triangles, shared by every window.
///
/// Arcs live in rank space: `first[r]..first[r + 1]` are the arcs of the
/// vertex ranked `r` to its higher-ranked neighbours, heads ascending. A
/// window's weights sit in two slots an arc, `2a` for its upward direction
/// (lower rank → higher) and `2a + 1` for its downward one.
struct Chordal<'a> {
    /// `rank[v]`, as the hierarchy holds it.
    rank: &'a [u32],
    /// `order[r]`: the vertex ranked `r`.
    order: Vec<VertexId>,
    first: Vec<u32>,
    head: Vec<u32>,
    /// Per out-slot of the frozen graph: the weight slot its edge seeds.
    edge_slot: Vec<u32>,
    /// Every triangle `z < x < y` of the supergraph as its arcs
    /// `[z–x, z–y, x–y]`, bottoms `z` ascending: a lower triangle of `x–y`,
    /// an intermediate one of `z–y` and an upper one of `z–x`.
    triangles: Vec<[u32; 3]>,
}

impl<'a> Chordal<'a> {
    /// Eliminates the vertices in rank order, each one's higher neighbours
    /// becoming a clique (merged into its lowest higher neighbour's list,
    /// the elimination-tree parent), then lists the triangles: for each
    /// bottom `z` and each pair `x < y` of its higher neighbours, `x–y` is
    /// an arc of `x` because `z`'s neighbourhood is a clique.
    fn new(fg: &FrozenGraph, rank: &'a [u32]) -> Chordal<'a> {
        let n = fg.num_vertices();
        let mut order = vec![0 as VertexId; n];
        for (v, &r) in rank.iter().enumerate() {
            order[r as usize] = v as VertexId;
        }
        // The graph is simple (`TdGraph::add_edge` refuses self-loops and
        // repeated edges): each edge is one direction of one arc.
        let mut up: Vec<Vec<u32>> = vec![Vec::new(); n];
        for v in 0..n as u32 {
            for &u in fg.csr.out_slices(v).0 {
                let (a, b) = (rank[v as usize], rank[u as usize]);
                up[a.min(b) as usize].push(a.max(b));
            }
        }
        let mut first = Vec::with_capacity(n + 1);
        let mut head = Vec::new();
        first.push(0u32);
        for r in 0..n {
            let mut list = std::mem::take(&mut up[r]);
            list.sort_unstable();
            list.dedup();
            if let Some((&parent, rest)) = list.split_first() {
                up[parent as usize].extend_from_slice(rest);
            }
            head.extend_from_slice(&list);
            first.push(head.len() as u32);
        }
        let arc = |lo: u32, hi: u32| -> u32 {
            let (a, b) = (first[lo as usize] as usize, first[lo as usize + 1] as usize);
            (a + head[a..b].partition_point(|&h| h < hi)) as u32
        };
        let mut edge_slot = Vec::with_capacity(fg.num_edges());
        for v in 0..n as u32 {
            for &u in fg.csr.out_slices(v).0 {
                let (a, b) = (rank[v as usize], rank[u as usize]);
                edge_slot.push(if a < b {
                    2 * arc(a, b)
                } else {
                    2 * arc(b, a) + 1
                });
            }
        }
        let mut triangles = Vec::new();
        for z in 0..n {
            let arcs = first[z]..first[z + 1];
            for zx in arcs.clone() {
                let x = head[zx as usize];
                // `z`'s higher neighbours above `x` are all `x`'s too, and
                // both lists ascend: one merged walk finds their arcs.
                let mut xy = first[x as usize];
                for zy in zx + 1..arcs.end {
                    let y = head[zy as usize];
                    while head[xy as usize] < y {
                        xy += 1;
                    }
                    debug_assert_eq!(head[xy as usize], y, "supergraph is chordal");
                    triangles.push([zx, zy, xy]);
                }
            }
        }
        Chordal {
            rank,
            order,
            first,
            head,
            edge_slot,
            triangles,
        }
    }

    /// The supergraph's arcs, largest up-degree and elimination-tree
    /// height: a vertex's heads ascend, so its first is its parent.
    fn shape(&self) -> OrderShape {
        let n = self.order.len();
        let mut depth = vec![0usize; n];
        let (mut width, mut height) = (0, 0);
        for r in (0..n).rev() {
            let arcs = self.first[r] as usize..self.first[r + 1] as usize;
            width = width.max(arcs.len());
            depth[r] = 1 + match arcs.is_empty() {
                true => 0,
                false => depth[self.head[arcs.start] as usize],
            };
            height = height.max(depth[r]);
        }
        OrderShape {
            arcs: self.head.len(),
            width,
            height,
        }
    }

    /// One window's metric from its seeded weights (`basic`, one per
    /// slot).
    ///
    /// Basic: each lower triangle `z < x < y`, bottoms ascending, relaxes
    /// `x → y` by `x → z → y` (and `y → x` by `y → z → x`), so an arc
    /// holds the shortest path through lower vertices. Perfect: bottoms
    /// descending, an arc `z → y` takes `z → x` at its basic weight plus
    /// `x → y` at its perfect (true-distance) weight over every
    /// intermediate or upper triangle, so it reaches the true distance.
    ///
    /// An arc direction is dropped when its basic weight is infinite or a
    /// triangle beats it. A tie drops it only through an *intermediate*
    /// triangle (the third vertex ranked below the head): two arcs of one
    /// bottom can then never drop each other — as a zero-weight cycle
    /// between their heads would make them tie both ways — and every
    /// dropped arc keeps a kept same-bottom arc that, followed by a shortest
    /// path between the heads, is as short. A kept arc stores its basic
    /// weight, which no triangle beats, so it is its true distance.
    fn customize(&self, mut basic: Vec<f64>) -> MetricCsr {
        for &[zx, zy, xy] in &self.triangles {
            let (zx, zy, xy) = (2 * zx as usize, 2 * zy as usize, 2 * xy as usize);
            basic[xy] = basic[xy].min(basic[zx + 1] + basic[zy]);
            basic[xy + 1] = basic[xy + 1].min(basic[zy + 1] + basic[zx]);
        }
        let mut perfect = basic.clone();
        let mut dropped: Vec<bool> = basic.iter().map(|w| w.is_infinite()).collect();
        for &[zx, zy, xy] in self.triangles.iter().rev() {
            let (zx, zy, xy) = (2 * zx as usize, 2 * zy as usize, 2 * xy as usize);
            let (x_y, y_x) = (perfect[xy], perfect[xy + 1]);
            for (slot, via, tie_drops) in [
                // `x` lies between `z` and `y`: intermediate for `z–y`.
                (zy, basic[zx] + x_y, true),
                (zy + 1, y_x + basic[zx + 1], true),
                // `y` lies above `x`: upper for `z–x`.
                (zx, basic[zy] + y_x, false),
                (zx + 1, x_y + basic[zy + 1], false),
            ] {
                perfect[slot] = perfect[slot].min(via);
                if via < basic[slot] || (tie_drops && via == basic[slot]) {
                    dropped[slot] = true;
                }
            }
        }
        self.layout(&basic, &dropped)
    }

    /// Lays the kept arc directions out per vertex (heads by ascending
    /// rank), every array sized exactly: the hierarchy holds them for its
    /// lifetime.
    fn layout(&self, weights: &[f64], dropped: &[bool]) -> MetricCsr {
        let n = self.order.len();
        let kept = |dir: usize| {
            (dir..weights.len())
                .step_by(2)
                .filter(|&s| !dropped[s])
                .count()
        };
        let (up, down) = (kept(0), kept(1));
        // Each weight slot seeds from at most one edge (the graph is simple).
        let kept_originals = self
            .edge_slot
            .iter()
            .filter(|&&s| !dropped[s as usize])
            .count();
        let mut m = MetricCsr {
            up_first: vec![0; n + 1],
            up_head: Vec::with_capacity(up),
            up_weight: Vec::with_capacity(up),
            down_first: vec![0; n + 1],
            down_tail: Vec::with_capacity(down),
            down_weight: Vec::with_capacity(down),
            num_shortcuts: up + down - kept_originals,
        };
        for v in 0..n {
            let r = self.rank[v] as usize;
            let arcs = self.first[r] as usize..self.first[r + 1] as usize;
            for a in arcs {
                let h = self.order[self.head[a] as usize];
                if !dropped[2 * a] {
                    m.up_head.push(h);
                    m.up_weight.push(weights[2 * a]);
                }
                if !dropped[2 * a + 1] {
                    m.down_tail.push(h);
                    m.down_weight.push(weights[2 * a + 1]);
                }
            }
            m.up_first[v + 1] = m.up_head.len() as u32;
            m.down_first[v + 1] = m.down_tail.len() as u32;
        }
        m
    }
}

impl ContractionHierarchy {
    /// Contracts `fg`'s lower-bound metrics with the suffix windows
    /// [`choose_window_starts`] fits to `fg`'s weights: orders the vertices
    /// by [`td_graph::min_degree_order`] on the topology, then runs the
    /// shared fixed-order [`ContractionHierarchy::customize`] pass for all
    /// windows. The starts, like the order, are kept across
    /// re-customization.
    pub fn build(fg: &FrozenGraph) -> ContractionHierarchy {
        let t0 = std::time::Instant::now();
        let span = td_obs::phase("ch_windows");
        let starts = choose_window_starts(fg);
        drop(span);
        let mut ch = Self::build_with(fg, &starts);
        ch.construction_secs = t0.elapsed().as_secs_f64();
        ch
    }

    /// [`ContractionHierarchy::build`] with explicit window starts
    /// (strictly increasing, `starts[0]` must be `0` so every departure
    /// time has a valid metric).
    pub fn build_with(fg: &FrozenGraph, starts: &[f64]) -> ContractionHierarchy {
        let t0 = std::time::Instant::now();
        let order_span = td_obs::phase("ch_order");
        let rank = min_degree_order(fg.num_vertices(), |v| {
            let (outs, ins) = (fg.csr.out_slices(v).0, fg.csr.in_slices(v).0);
            outs.iter().chain(ins).copied()
        });
        drop(order_span);
        let mut ch = Self::with_order(fg, rank, starts.to_vec());
        ch.construction_secs = t0.elapsed().as_secs_f64();
        ch
    }

    /// The hierarchy of `fg` under a given order — `rank[v]` is `v`'s
    /// position, a permutation of `0..n` — customized for the window
    /// `starts` (strictly increasing from `0`). Any order gives exact
    /// distances; the order only decides how many arcs the customization
    /// keeps and a query climbs. A snapshot load keeps the order the file
    /// stores this way.
    pub fn with_order(fg: &FrozenGraph, rank: Vec<u32>, starts: Vec<f64>) -> ContractionHierarchy {
        assert!(
            starts.first() == Some(&0.0) && starts.windows(2).all(|w| w[0] < w[1]),
            "window starts must be strictly increasing and begin at 0"
        );
        let mut seen = vec![false; rank.len()];
        for &r in &rank {
            let fresh = seen
                .get_mut(r as usize)
                .map(|s| !std::mem::replace(s, true));
            assert_eq!(fresh, Some(true), "the ranks must be a permutation");
        }
        let mut ch = ContractionHierarchy {
            rank,
            starts,
            ..ContractionHierarchy::default()
        };
        ch.customize(fg);
        ch
    }

    /// Recomputes every metric's arcs and weights for the **current**
    /// weights of `fg` under the stored (metric-independent) order. This
    /// one deterministic pass serves initial build, `update_edges`
    /// re-customization and snapshot load, so all three yield bit-identical
    /// hierarchies.
    ///
    /// CCH-style, by triangles: the order's chordal supergraph and its
    /// lower triangles are derived once (`Chordal`) and shared by every
    /// window; each window then relaxes the lower triangles bottom-up
    /// (basic), the intermediate and upper ones top-down (perfect), and
    /// drops the arc directions such a triangle beats (or ties, by the
    /// tie rule `Chordal::customize` states). No witness search runs, and
    /// none picked the order. On the road-like CAL analogues the kept arcs
    /// and their weight bits are exactly those a witness-search contraction
    /// in this order keeps; elsewhere they are a subset, as that
    /// contraction keeps every original edge and some shortcuts a path over
    /// higher vertices beats. Upward/downward distances in the result equal
    /// true scalar distances.
    pub fn customize(&mut self, fg: &FrozenGraph) {
        let _span = td_obs::phase("ch_customize");
        let n = fg.num_vertices();
        assert_eq!(self.rank.len(), n, "order was built for a different graph");
        let chordal = Chordal::new(fg, &self.rank);

        // Every window's arc weights seeded from the suffix minima of the
        // original edges, edge-major so each edge's breakpoints are walked
        // once for all windows (batched evaluation + one shared suffix-min
        // sweep).
        let nw = self.starts.len();
        let mut weights = vec![vec![f64::INFINITY; 2 * chordal.head.len()]; nw];
        let mut evals = vec![0.0f64; nw];
        let mut mins = vec![0.0f64; nw];
        let mut slots = chordal.edge_slot.iter();
        for v in 0..n as u32 {
            for (&e, &slot) in fg.csr.out_slices(v).1.iter().zip(&mut slots) {
                suffix_min_all(fg, e, &self.starts, &mut evals, &mut mins);
                for (w, &m) in weights.iter_mut().zip(&mins) {
                    w[slot as usize] = m;
                }
            }
        }
        self.metrics = weights
            .into_iter()
            .map(|basic| chordal.customize(basic))
            .collect();
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.rank.len()
    }

    /// `v`'s contraction rank (higher = contracted later = more important).
    #[inline]
    pub fn rank(&self, v: VertexId) -> u32 {
        self.rank[v as usize]
    }

    /// The suffix-window starts, strictly increasing from 0.
    #[inline]
    pub fn window_starts(&self) -> &[f64] {
        &self.starts
    }

    /// The index of the metric a query departing at `t` must use: the
    /// largest window start ≤ `t` (index 0 — the whole-day minimum — for
    /// `t < 0`, which only proptest edge cases produce).
    #[inline]
    #[deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )]
    pub fn metric_index(&self, t: f64) -> usize {
        self.starts.partition_point(|&s| s <= t).saturating_sub(1)
    }

    /// The customized hierarchy of metric `idx`.
    #[inline]
    #[deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )]
    pub fn metric(&self, idx: usize) -> &MetricCsr {
        debug_assert!(idx < self.metrics.len());
        &self.metrics[idx]
    }

    /// The customized hierarchy a query departing at `t` must use.
    #[inline]
    #[deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )]
    pub fn metric_for(&self, t: f64) -> &MetricCsr {
        debug_assert!(!self.metrics.is_empty(), "customize runs before queries");
        &self.metrics[self.metric_index(t)]
    }

    /// Shortcuts added across all metrics.
    pub fn num_shortcuts(&self) -> usize {
        self.metrics.iter().map(MetricCsr::num_shortcuts).sum()
    }

    /// Total directed edges stored across all metrics.
    pub fn num_edges(&self) -> usize {
        self.metrics.iter().map(MetricCsr::num_edges).sum()
    }

    /// Wall time of the initial build.
    #[inline]
    pub fn construction_secs(&self) -> f64 {
        self.construction_secs
    }

    pub(crate) fn rank_slice(&self) -> &[u32] {
        &self.rank
    }

    pub(crate) fn set_construction_secs(&mut self, secs: f64) {
        self.construction_secs = secs;
    }

    /// The shape of the hierarchy's order on `fg` (its topology): the
    /// chordal supergraph's arcs, the largest up-degree and the
    /// elimination-tree height. Rebuilds the supergraph to measure it.
    pub fn order_shape(&self, fg: &FrozenGraph) -> OrderShape {
        assert_eq!(
            self.rank.len(),
            fg.num_vertices(),
            "order was built for a different graph"
        );
        Chordal::new(fg, &self.rank).shape()
    }

    /// Heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.rank.capacity() * std::mem::size_of::<u32>()
            + self.starts.capacity() * std::mem::size_of::<f64>()
            + self
                .metrics
                .iter()
                .map(MetricCsr::heap_bytes)
                .sum::<usize>()
    }
}

// Compile-time pin: the hierarchy and its customized metrics are shared
// read-only across query threads.
const _: () = {
    const fn shared_across_threads<T: Send + Sync>() {}
    shared_across_threads::<ContractionHierarchy>();
    shared_across_threads::<MetricCsr>()
};

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use rand::rngs::StdRng;
    use td_gen::random_graph::seeded_graph;
    use td_graph::TdGraph;
    use td_plf::PlfView;

    /// Cap on vertices settled per witness search. A hit means the search was
    /// inconclusive and the shortcut is kept anyway.
    const WITNESS_SETTLE_CAP: usize = 128;

    /// The dynamic graph a witness-search contraction works on: per-vertex
    /// forward and backward adjacency with parallel edges collapsed to their
    /// minimum weight, plus scratch for the witness searches.
    struct Contractor {
        fwd: Vec<Vec<(VertexId, f64)>>,
        bwd: Vec<Vec<(VertexId, f64)>>,
        contracted: Vec<bool>,
        /// Witness-search scratch: tentative distances, generation-stamped.
        dist: Vec<f64>,
        dist_gen: Vec<u32>,
        gen: u32,
        heap: std::collections::BinaryHeap<HeapEntry>,
        /// Shortcut buffer reused across per-node simulations.
        shortcuts: Vec<(VertexId, VertexId, f64)>,
    }

    #[derive(Copy, Clone)]
    struct HeapEntry {
        key: f64,
        vertex: VertexId,
    }
    impl PartialEq for HeapEntry {
        fn eq(&self, other: &Self) -> bool {
            self.key == other.key && self.vertex == other.vertex
        }
    }
    impl Eq for HeapEntry {}
    impl PartialOrd for HeapEntry {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for HeapEntry {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            // `total_cmp` keeps the comparison panic-free (weights are finite by
            // construction; a NaN would order deterministically, not abort).
            other
                .key
                .total_cmp(&self.key)
                .then_with(|| other.vertex.cmp(&self.vertex))
        }
    }

    impl Contractor {
        /// Seeds the working graph from `fg`'s topology with one scalar weight
        /// per out-slot (parallel to the CSR `head` array; parallel edges
        /// collapsed to the minimum, self-loops dropped — they never lie on a
        /// shortest path since weights are non-negative).
        fn seed(fg: &FrozenGraph, slot_weights: &[f64]) -> Contractor {
            let n = fg.num_vertices();
            let mut fwd: Vec<Vec<(VertexId, f64)>> = vec![Vec::new(); n];
            let mut bwd: Vec<Vec<(VertexId, f64)>> = vec![Vec::new(); n];
            let mut slot = 0usize;
            for v in 0..n as u32 {
                let (heads, _) = fg.csr.out_slices(v);
                for &u in heads {
                    let w = slot_weights[slot];
                    slot += 1;
                    if u == v {
                        continue;
                    }
                    match fwd[v as usize].iter_mut().find(|(h, _)| *h == u) {
                        Some((_, old)) => *old = old.min(w),
                        None => fwd[v as usize].push((u, w)),
                    }
                }
            }
            for v in 0..n as u32 {
                for &(u, w) in &fwd[v as usize] {
                    bwd[u as usize].push((v, w));
                }
            }
            Contractor {
                fwd,
                bwd,
                contracted: vec![false; n],
                dist: vec![f64::INFINITY; n],
                dist_gen: vec![0; n],
                gen: 0,
                heap: std::collections::BinaryHeap::new(),
                shortcuts: Vec::new(),
            }
        }

        /// Live (uncontracted, non-self) neighbours of `x` in one direction.
        fn live<'a>(
            adj: &'a [Vec<(VertexId, f64)>],
            contracted: &'a [bool],
            x: VertexId,
        ) -> impl Iterator<Item = (VertexId, f64)> + 'a {
            adj[x as usize]
                .iter()
                .copied()
                .filter(move |&(y, _)| y != x && !contracted[y as usize])
        }

        /// Bounded witness Dijkstra from `source` in the live graph, excluding
        /// `excluded`, stopping once the frontier exceeds `cutoff` or the settle
        /// cap is hit. Distances land in the generation-stamped `dist` array.
        fn witness_search(&mut self, source: VertexId, excluded: VertexId, cutoff: f64) {
            self.gen = if self.gen == u32::MAX {
                self.dist_gen.fill(0);
                1
            } else {
                self.gen + 1
            };
            self.heap.clear();
            self.dist[source as usize] = 0.0;
            self.dist_gen[source as usize] = self.gen;
            self.heap.push(HeapEntry {
                key: 0.0,
                vertex: source,
            });
            let mut settled = 0usize;
            while let Some(HeapEntry { key, vertex: u }) = self.heap.pop() {
                if key > self.dist[u as usize] {
                    continue; // stale
                }
                settled += 1;
                if settled > WITNESS_SETTLE_CAP || key > cutoff {
                    break;
                }
                for (v, w) in &self.fwd[u as usize] {
                    let (v, w) = (*v, *w);
                    if v == excluded || self.contracted[v as usize] {
                        continue;
                    }
                    let cand = key + w;
                    let known = if self.dist_gen[v as usize] == self.gen {
                        self.dist[v as usize]
                    } else {
                        f64::INFINITY
                    };
                    if cand < known {
                        self.dist[v as usize] = cand;
                        self.dist_gen[v as usize] = self.gen;
                        self.heap.push(HeapEntry {
                            key: cand,
                            vertex: v,
                        });
                    }
                }
            }
        }

        /// The shortcuts contracting `x` would need: for every live in-neighbour
        /// `u` and out-neighbour `v` of `x`, shortcut `u → v` with weight
        /// `w(u,x) + w(x,v)` unless a witness path at most that long avoids `x`.
        /// Fills `self.shortcuts` (deterministic order).
        fn simulate(&mut self, x: VertexId) {
            self.shortcuts.clear();
            let ins: Vec<(VertexId, f64)> = Self::live(&self.bwd, &self.contracted, x).collect();
            let outs: Vec<(VertexId, f64)> = Self::live(&self.fwd, &self.contracted, x).collect();
            if ins.is_empty() || outs.is_empty() {
                return;
            }
            let max_out = outs.iter().fold(0f64, |m, &(_, w)| m.max(w));
            for &(u, w_ux) in &ins {
                self.witness_search(u, x, w_ux + max_out);
                for &(v, w_xv) in &outs {
                    if v == u {
                        continue;
                    }
                    let sc = w_ux + w_xv;
                    let witness = if self.dist_gen[v as usize] == self.gen {
                        self.dist[v as usize]
                    } else {
                        f64::INFINITY
                    };
                    if witness <= sc {
                        continue;
                    }
                    self.shortcuts.push((u, v, sc));
                }
            }
        }

        /// Contracts `x`: materialises `self.shortcuts` into the live graph
        /// (keeping minima over parallel edges) and marks `x` contracted.
        /// `simulate(x)` must have run last for `x`.
        fn contract(&mut self, x: VertexId) {
            let shortcuts = std::mem::take(&mut self.shortcuts);
            for &(u, v, w) in &shortcuts {
                match self.fwd[u as usize].iter_mut().find(|(h, _)| *h == v) {
                    Some((_, old)) => {
                        if w < *old {
                            *old = w;
                            let back = self.bwd[v as usize]
                                .iter_mut()
                                .find(|(t, _)| *t == u)
                                .expect("fwd/bwd stay mirrored");
                            back.1 = w;
                        }
                    }
                    None => {
                        self.fwd[u as usize].push((v, w));
                        self.bwd[v as usize].push((u, w));
                    }
                }
            }
            self.shortcuts = shortcuts;
            self.contracted[x as usize] = true;
        }
    }

    impl ContractionHierarchy {
        /// Exact metric-0 (whole-day minimum) distance `s → d` by a
        /// bidirectional upward search — the reference query used by the tests
        /// (the hot path is the lazy potential in td-dijkstra).
        pub fn dist(&self, s: VertexId, d: VertexId) -> f64 {
            self.dist_in_metric(0, s, d)
        }

        /// Exact distance `s → d` within metric `idx`.
        pub fn dist_in_metric(&self, idx: usize, s: VertexId, d: VertexId) -> f64 {
            let m = &self.metrics[idx];
            let fwd = self.upward_sweep(m, s, true);
            let bwd = self.upward_sweep(m, d, false);
            fwd.iter()
                .zip(bwd.iter())
                .fold(f64::INFINITY, |acc, (&a, &b)| acc.min(a + b))
        }

        /// One full upward Dijkstra from `start` over the up-edges (`forward`)
        /// or the backward-up edges (`!forward`).
        fn upward_sweep(&self, m: &MetricCsr, start: VertexId, forward: bool) -> Vec<f64> {
            let mut dist = vec![f64::INFINITY; self.num_vertices()];
            let mut heap = std::collections::BinaryHeap::new();
            dist[start as usize] = 0.0;
            heap.push(HeapEntry {
                key: 0.0,
                vertex: start,
            });
            while let Some(HeapEntry { key, vertex: u }) = heap.pop() {
                if key > dist[u as usize] {
                    continue;
                }
                let (heads, weights) = if forward {
                    m.up_edges(u)
                } else {
                    m.backward_up_edges(u)
                };
                for (&v, &w) in heads.iter().zip(weights.iter()) {
                    if key + w < dist[v as usize] {
                        dist[v as usize] = key + w;
                        heap.push(HeapEntry {
                            key: key + w,
                            vertex: v,
                        });
                    }
                }
            }
            dist
        }
    }

    /// Plain Dijkstra over per-edge scalar weights — the oracle every
    /// metric's CH must match.
    fn scalar_dist(
        g: &TdGraph,
        s: VertexId,
        d: VertexId,
        weight: impl Fn(td_graph::EdgeId) -> f64,
    ) -> f64 {
        let n = g.num_vertices();
        let mut dist = vec![f64::INFINITY; n];
        let mut heap = std::collections::BinaryHeap::new();
        dist[s as usize] = 0.0;
        heap.push(HeapEntry {
            key: 0.0,
            vertex: s,
        });
        while let Some(HeapEntry { key, vertex: u }) = heap.pop() {
            if key > dist[u as usize] {
                continue;
            }
            for &(v, e) in g.out_edges(u) {
                let cand = key + weight(e);
                if cand < dist[v as usize] {
                    dist[v as usize] = cand;
                    heap.push(HeapEntry {
                        key: cand,
                        vertex: v,
                    });
                }
            }
        }
        dist[d as usize]
    }

    /// The witness-search customization the triangle pass replaced: one
    /// contraction per metric strictly in rank order, each vertex's live
    /// adjacency frozen into the hierarchy before its shortcuts (those no
    /// witness search refutes) go in. The reference the triangle pass
    /// must reproduce arc for arc and bit for bit.
    fn customize_metric(fg: &FrozenGraph, order: &[VertexId], slot_weights: &[f64]) -> MetricCsr {
        let n = fg.num_vertices();
        let mut c = Contractor::seed(fg, slot_weights);
        let original_edges: usize = c.fwd.iter().map(Vec::len).sum();
        let mut up: Vec<Vec<(VertexId, f64)>> = vec![Vec::new(); n];
        let mut down_rev: Vec<Vec<(VertexId, f64)>> = vec![Vec::new(); n];
        for &x in order {
            up[x as usize] = Contractor::live(&c.fwd, &c.contracted, x).collect();
            down_rev[x as usize] = Contractor::live(&c.bwd, &c.contracted, x).collect();
            c.simulate(x);
            c.contract(x);
        }
        let flatten = |adj: Vec<Vec<(VertexId, f64)>>| {
            let mut first = vec![0u32];
            let (mut heads, mut weights) = (Vec::new(), Vec::new());
            for list in adj {
                for (h, w) in list {
                    heads.push(h);
                    weights.push(w);
                }
                first.push(heads.len() as u32);
            }
            (first, heads, weights)
        };
        let (up_first, up_head, up_weight) = flatten(up);
        let (down_first, down_tail, down_weight) = flatten(down_rev);
        let total_edges = up_head.len() + down_tail.len();
        MetricCsr {
            up_first,
            up_head,
            up_weight,
            down_first,
            down_tail,
            down_weight,
            // Every original edge survives, each frozen once.
            num_shortcuts: total_edges - original_edges,
        }
    }

    /// [`customize_metric`] for every window of `ch`'s order and starts.
    fn witness_metrics(ch: &ContractionHierarchy, fg: &FrozenGraph) -> Vec<MetricCsr> {
        let mut order: Vec<VertexId> = (0..fg.num_vertices() as u32).collect();
        order.sort_unstable_by_key(|&v| ch.rank(v));
        let nw = ch.starts.len();
        let mut slot_weights = vec![Vec::new(); nw];
        let (mut evals, mut mins) = (vec![0.0; nw], vec![0.0; nw]);
        for v in 0..fg.num_vertices() as u32 {
            for &e in fg.csr.out_slices(v).1 {
                suffix_min_all(fg, e, &ch.starts, &mut evals, &mut mins);
                for (sw, &m) in slot_weights.iter_mut().zip(&mins) {
                    sw.push(m);
                }
            }
        }
        slot_weights
            .iter()
            .map(|sw| customize_metric(fg, &order, sw))
            .collect()
    }

    /// Every vertex's up and down arc lists, each sorted by head, weights
    /// as bits: a metric's identity, whatever order its lists are laid in.
    fn sorted_arcs(m: &MetricCsr) -> Vec<Vec<(VertexId, u64)>> {
        let n = m.up_first.len() - 1;
        (0..n as u32)
            .flat_map(|v| [m.up_edges(v), m.backward_up_edges(v)])
            .map(|(heads, weights)| {
                let mut arcs: Vec<(VertexId, u64)> = heads
                    .iter()
                    .zip(weights)
                    .map(|(&h, w)| (h, w.to_bits()))
                    .collect();
                arcs.sort_unstable();
                arcs
            })
            .collect()
    }

    /// FNV-1a over every metric's [`sorted_arcs`].
    fn arc_hash(ch: &ContractionHierarchy) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |x: u64| {
            h ^= x;
            h = h.wrapping_mul(0x0100_0000_01b3);
        };
        for m in &ch.metrics {
            for arcs in sorted_arcs(m) {
                eat(arcs.len() as u64);
                for (head, bits) in arcs {
                    eat(head as u64);
                    eat(bits);
                }
            }
        }
        h
    }

    /// The hierarchy `build` makes at CAL 0.25 in the min-degree order,
    /// pinned: every metric's arcs and weight bits. (The witness-search
    /// order the build took before hashed to `0x3ec8_7156_1590_a626`; the
    /// order changed, no weight rule did.)
    #[test]
    fn the_hierarchy_keeps_its_bits() {
        let fg = td_gen::Dataset::Cal
            .spec()
            .build_scaled(3, 0.25, 42)
            .freeze();
        let ch = ContractionHierarchy::build(&fg);
        assert_eq!(arc_hash(&ch), 0xd341_ca8c_bca3_6414);
    }

    /// The hierarchy and the TD-tree take one order: at CAL 0.25 and 0.5
    /// the ranks are the tree's elimination steps, and the order's chordal
    /// supergraph is the tree's bags — an arc per bag member, the widest
    /// bag's width and the tree's height.
    #[test]
    fn one_order_serves_the_tree_and_the_hierarchy() {
        for scale in [0.25, 0.5] {
            let g = td_gen::Dataset::Cal.spec().build_scaled(3, scale, 42);
            let fg = g.freeze();
            let ch = ContractionHierarchy::build(&fg);
            let td = td_treedec::TreeDecomposition::build(&g);
            assert!(ch.rank_slice() == &td.order[..], "CAL {scale}");
            let bag_members: usize = td.nodes.iter().map(|nd| nd.bag.len()).sum();
            let stats = td.stats();
            assert_eq!(
                ch.order_shape(&fg),
                OrderShape {
                    arcs: bag_members,
                    width: stats.width,
                    height: stats.height,
                },
                "CAL {scale}"
            );
        }
    }

    /// Triangles keep exactly the arcs the witness searches kept, with the
    /// same weight bits, in every window.
    #[test]
    fn triangles_keep_the_witness_arcs_and_weights() {
        for scale in [0.5, 2.0] {
            let fg = td_gen::Dataset::Cal
                .spec()
                .build_scaled(3, scale, 42)
                .freeze();
            let ch = ContractionHierarchy::build(&fg);
            for (k, (want, got)) in witness_metrics(&ch, &fg)
                .iter()
                .zip(&ch.metrics)
                .enumerate()
            {
                assert!(
                    sorted_arcs(want) == sorted_arcs(got),
                    "CAL {scale}, window {k}"
                );
                assert_eq!(
                    want.num_shortcuts(),
                    got.num_shortcuts(),
                    "CAL {scale}, window {k}"
                );
            }
        }
    }

    /// Ties under every order: on a graph whose distances tie everywhere
    /// (a zero-weight two-cycle `2 ⇄ 3` both reached from `1` at equal
    /// cost, a zero-weight one-way edge, two-way and one-way edges, a
    /// second component), the hierarchy of each of the 7! orders answers
    /// every pair with the exact distance — so a tie never drops both arcs
    /// it could drop.
    #[test]
    fn every_order_keeps_exact_distances_through_ties() {
        use td_plf::Plf;
        let mut g = TdGraph::with_vertices(7);
        for (u, v, w) in [
            (0, 1, 1.0),
            (1, 2, 2.0),
            (1, 3, 2.0),
            (2, 3, 0.0),
            (3, 2, 0.0),
            (3, 4, 1.0),
            (2, 4, 1.0),
            (4, 0, 0.0),
            (4, 1, 3.0),
            (1, 4, 3.0),
            (5, 6, 2.0),
            (6, 5, 2.0),
        ] {
            g.add_edge(u, v, Plf::constant(w)).unwrap();
        }
        let fg = g.freeze();
        let want: Vec<f64> = (0..49)
            .map(|p| scalar_dist(&g, p / 7, p % 7, |e| fg.min_cost(e)))
            .collect();
        // Every permutation of the ranks, in lexicographic order.
        let mut rank: Vec<u32> = (0..7).collect();
        loop {
            let ch = ContractionHierarchy::with_order(&fg, rank.clone(), vec![0.0]);
            for (p, &want) in want.iter().enumerate() {
                let (s, d) = (p as u32 / 7, p as u32 % 7);
                assert_eq!(ch.dist(s, d), want, "ranks {rank:?}: {s} → {d}");
            }
            let Some(i) = (1..7).rev().find(|&i| rank[i - 1] < rank[i]) else {
                break;
            };
            let j = (i..7).rev().find(|&j| rank[j] > rank[i - 1]).unwrap();
            rank.swap(i - 1, j);
            rank[i..].reverse();
        }
    }

    #[test]
    #[should_panic(expected = "the ranks must be a permutation")]
    fn with_order_refuses_ranks_that_are_not_a_permutation() {
        let fg = seeded_graph(1, 5, 4, 3).freeze();
        ContractionHierarchy::with_order(&fg, vec![0, 1, 1, 3, 4], vec![0.0]);
    }

    #[test]
    fn batched_suffix_minima_match_scalar_per_edge_and_window() {
        for seed in 0..4u64 {
            let g = seeded_graph(seed, 40, 30, 4);
            let fg = g.freeze();
            let nw = UNIFORM_WINDOW_STARTS.len();
            let mut evals = vec![0.0; nw];
            let mut mins = vec![0.0; nw];
            for e in 0..fg.num_edges() as u32 {
                suffix_min_all(&fg, e, &UNIFORM_WINDOW_STARTS, &mut evals, &mut mins);
                for (k, &from) in UNIFORM_WINDOW_STARTS.iter().enumerate() {
                    assert_eq!(
                        mins[k].to_bits(),
                        suffix_min(&fg, e, from).to_bits(),
                        "seed={seed} e={e} window={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn ch_distances_match_min_dijkstra_in_every_metric() {
        for seed in 0..4u64 {
            let g = seeded_graph(seed, 50, 35, 3);
            let fg = g.freeze();
            let ch = ContractionHierarchy::build(&fg);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xc4);
            for idx in 0..ch.window_starts().len() {
                let from = ch.window_starts()[idx];
                for _ in 0..10 {
                    let s = rng.gen_range(0..50) as u32;
                    let d = rng.gen_range(0..50) as u32;
                    let want = scalar_dist(&g, s, d, |e| suffix_min(&fg, e, from));
                    let got = ch.dist_in_metric(idx, s, d);
                    if want.is_infinite() {
                        assert!(got.is_infinite(), "seed={seed} m={idx} s={s} d={d}: {got}");
                    } else {
                        assert!(
                            (want - got).abs() < 1e-9,
                            "seed={seed} m={idx} s={s} d={d}: {want} vs {got}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn suffix_min_bounds_the_suffix() {
        let g = seeded_graph(8, 20, 14, 5);
        let fg = g.freeze();
        for e in 0..g.num_edges() as u32 {
            // From 0, the suffix minimum is the global minimum.
            assert!(
                (suffix_min(&fg, e, 0.0) - fg.weight(e).min_value()).abs() < 1e-12,
                "e={e}: suffix_min(0) must equal the global min"
            );
            for from in [0.0, 3.0 * 3600.0, 12.0 * 3600.0, 23.0 * 3600.0] {
                let got = suffix_min(&fg, e, from);
                // Never below the global minimum, never above any sampled
                // suffix value (dense sampling can miss valleys, so it only
                // bounds from above).
                assert!(got >= fg.weight(e).min_value() - 1e-12, "e={e} from={from}");
                let sampled = (0..2000)
                    .map(|i| from + i as f64 * (86_400.0 * 1.5 - from) / 2000.0)
                    .map(|t| fg.weight(e).eval(t))
                    .fold(f64::INFINITY, f64::min);
                assert!(
                    got <= sampled + 1e-9,
                    "e={e} from={from}: suffix_min {got} above sampled {sampled}"
                );
            }
        }
    }

    #[test]
    fn later_windows_are_tighter() {
        let g = seeded_graph(1, 40, 30, 3);
        let fg = g.freeze();
        let ch = ContractionHierarchy::build(&fg);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..25 {
            let s = rng.gen_range(0..40) as u32;
            let d = rng.gen_range(0..40) as u32;
            let mut prev = ch.dist_in_metric(0, s, d);
            for idx in 1..ch.window_starts().len() {
                let cur = ch.dist_in_metric(idx, s, d);
                assert!(
                    cur >= prev - 1e-9,
                    "metric {idx} loosened the bound: {cur} < {prev} (s={s} d={d})"
                );
                prev = cur;
            }
        }
    }

    #[test]
    fn metric_index_selects_the_window() {
        let g = seeded_graph(0, 10, 8, 3);
        let ch = ContractionHierarchy::build_with(&g.freeze(), &UNIFORM_WINDOW_STARTS);
        assert_eq!(ch.metric_index(-5.0), 0);
        assert_eq!(ch.metric_index(0.0), 0);
        assert_eq!(ch.metric_index(3.0 * 3600.0 - 1.0), 0);
        assert_eq!(ch.metric_index(3.0 * 3600.0), 1);
        assert_eq!(ch.metric_index(23.9 * 3600.0), 7);
        assert_eq!(ch.metric_index(99.0 * 3600.0), 7);
    }

    /// The slack [`choose_window_starts`] minimises, for any starts on the
    /// grid: `Σ_e Σ_t (w_e(t) − min_{τ ≥ s(t)} w_e(τ))` over the grid's
    /// departure times `t`.
    fn window_slack(fg: &FrozenGraph, starts: &[f64]) -> f64 {
        let grid = window_grid();
        let floor = grid_floors(fg, &grid);
        let mut value = vec![0.0; grid.len()];
        for e in 0..fg.num_edges() as u32 {
            for (v, &t) in value.iter_mut().zip(&grid) {
                *v += fg.weight(e).eval(t);
            }
        }
        grid.iter()
            .zip(&value)
            .map(|(&t, &v)| {
                let s = starts[starts.partition_point(|&s| s <= t) - 1];
                v - floor[(s / WINDOW_GRID_SECS) as usize]
            })
            .sum()
    }

    #[test]
    fn grid_floors_sum_the_suffix_minima() {
        for fg in [cal(), seeded_graph(7, 40, 30, 5).freeze()] {
            let grid = window_grid();
            let floor = grid_floors(&fg, &grid);
            for (k, &g) in grid.iter().enumerate() {
                let want: f64 = (0..fg.num_edges() as u32)
                    .map(|e| suffix_min(&fg, e, g))
                    .sum();
                assert!(
                    (floor[k] - want).abs() <= 1e-12 * want.max(1.0),
                    "g={g}: {} vs {want}",
                    floor[k]
                );
            }
        }
    }

    /// A road-like graph whose profiles carry the generator's rush hours.
    fn cal() -> FrozenGraph {
        td_gen::Dataset::Cal.build(3, 0.03, 42).freeze()
    }

    fn assert_valid_starts(starts: &[f64]) {
        assert_eq!(starts.len(), WINDOW_COUNT, "{starts:?}");
        assert_eq!(starts[0], 0.0, "{starts:?}");
        assert!(starts.windows(2).all(|w| w[0] < w[1]), "{starts:?}");
        for &s in starts {
            assert!((0.0..td_plf::DAY).contains(&s), "{starts:?}");
            assert_eq!(s % WINDOW_GRID_SECS, 0.0, "off the grid: {starts:?}");
        }
    }

    #[test]
    fn chosen_starts_begin_at_zero_ascend_on_the_grid_and_repeat() {
        let fg = cal();
        let ch = ContractionHierarchy::build(&fg);
        assert_valid_starts(ch.window_starts());
        assert_eq!(ch.window_starts(), &choose_window_starts(&fg)[..]);
        assert_eq!(
            ch.window_starts(),
            ContractionHierarchy::build(&fg).window_starts()
        );
        // The generated profiles rise from a night trough to a morning
        // peak: the windows must not sit on the 3-hour grid.
        assert_ne!(ch.window_starts(), &UNIFORM_WINDOW_STARTS[..]);
    }

    #[test]
    fn chosen_starts_leave_no_more_slack_than_the_uniform_grid() {
        for fg in [cal(), seeded_graph(3, 60, 45, 4).freeze()] {
            let chosen = choose_window_starts(&fg);
            let (mine, uniform) = (
                window_slack(&fg, &chosen),
                window_slack(&fg, &UNIFORM_WINDOW_STARTS),
            );
            // Up to the rounding of two summation orders.
            let eps = 1e-9 * uniform.max(1.0);
            assert!(mine >= -eps, "slack is a sum of non-negative gaps: {mine}");
            assert!(mine <= uniform + eps, "{chosen:?}: {mine} > {uniform}");
        }
        // On the road-like profiles the fit is strictly better.
        let fg = cal();
        let chosen = choose_window_starts(&fg);
        assert!(window_slack(&fg, &chosen) < window_slack(&fg, &UNIFORM_WINDOW_STARTS));
    }

    #[test]
    fn constant_weights_still_get_a_valid_set() {
        use td_plf::Plf;
        let mut g = TdGraph::with_vertices(4);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 0)] {
            g.add_edge(u, v, Plf::constant(7.0)).unwrap();
        }
        let fg = g.freeze();
        assert_valid_starts(&choose_window_starts(&fg));
        assert!(window_slack(&fg, &choose_window_starts(&fg)).abs() < 1e-9);
        assert_valid_starts(&choose_window_starts(&TdGraph::with_vertices(0).freeze()));
        let ch = ContractionHierarchy::build(&fg);
        assert_valid_starts(ch.window_starts());
        assert_eq!(ch.dist(0, 3), 21.0);
    }

    #[test]
    fn recustomizing_keeps_the_starts() {
        use td_plf::Plf;
        let mut g = seeded_graph(6, 40, 30, 4);
        let mut ch = ContractionHierarchy::build(&g.freeze());
        let starts = ch.window_starts().to_vec();
        for e in 0..g.num_edges() as u32 {
            g.set_weight(e, Plf::constant(100.0)).unwrap();
        }
        let fg = g.freeze();
        ch.customize(&fg);
        assert_eq!(ch.window_starts(), &starts[..]);
        // A fresh build of the flattened weights would place them apart.
        assert_ne!(choose_window_starts(&fg), starts);
    }

    /// Every array the hierarchy holds is sized to its contents: the
    /// footprint is the held bytes, after build, re-customization and load.
    #[test]
    fn heap_bytes_are_the_held_bytes() {
        let held = |ch: &ContractionHierarchy| {
            let metrics: usize = ch
                .metrics
                .iter()
                .map(|m| {
                    4 * (m.up_first.len()
                        + m.up_head.len()
                        + m.down_first.len()
                        + m.down_tail.len())
                        + 8 * (m.up_weight.len() + m.down_weight.len())
                })
                .sum();
            4 * ch.rank.len() + 8 * ch.starts.len() + metrics
        };
        let fg = cal();
        let mut ch = ContractionHierarchy::build(&fg);
        assert_eq!(ch.heap_bytes(), held(&ch));
        let n = fg.num_vertices();
        let edges: usize = ch.metrics.iter().map(MetricCsr::num_edges).sum();
        assert_eq!(
            held(&ch),
            4 * n + 8 * WINDOW_COUNT + WINDOW_COUNT * 8 * (n + 1) + 12 * edges
        );
        ch.customize(&fg);
        assert_eq!(ch.heap_bytes(), held(&ch));
        let mut buf = Vec::new();
        persist::write_ch(&ch, &mut buf).unwrap();
        let back = persist::read_ch(&mut buf.as_slice(), &fg).unwrap();
        assert_eq!(back.heap_bytes(), held(&back));
        assert_eq!(back.heap_bytes(), ch.heap_bytes());
    }

    #[test]
    fn customize_is_deterministic_and_matches_build() {
        let g = seeded_graph(9, 40, 30, 3);
        let fg = g.freeze();
        let ch = ContractionHierarchy::build(&fg);
        let ch2 = ContractionHierarchy::with_order(
            &fg,
            ch.rank_slice().to_vec(),
            ch.window_starts().to_vec(),
        );
        for idx in 0..ch.window_starts().len() {
            let (a, b) = (ch.metric(idx), ch2.metric(idx));
            assert_eq!(a.up_first, b.up_first);
            assert_eq!(a.up_head, b.up_head);
            assert_eq!(a.down_first, b.down_first);
            assert_eq!(a.down_tail, b.down_tail);
            assert_eq!(
                a.up_weight.iter().map(|w| w.to_bits()).collect::<Vec<_>>(),
                b.up_weight.iter().map(|w| w.to_bits()).collect::<Vec<_>>()
            );
            assert_eq!(a.num_shortcuts(), b.num_shortcuts());
        }
    }

    #[test]
    fn recustomize_tracks_weight_changes() {
        use td_plf::Plf;
        let mut g = seeded_graph(2, 30, 22, 3);
        let fg = g.freeze();
        let mut ch = ContractionHierarchy::build(&fg);
        // Slash one edge's cost and re-customize: distances must follow.
        let e = 0u32;
        g.set_weight(e, Plf::constant(0.5)).unwrap();
        let fg2 = g.freeze();
        ch.customize(&fg2);
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..30 {
            let s = rng.gen_range(0..30) as u32;
            let d = rng.gen_range(0..30) as u32;
            let want = scalar_dist(&g, s, d, |e| fg2.min_cost(e));
            let got = ch.dist(s, d);
            if want.is_infinite() {
                assert!(got.is_infinite());
            } else {
                assert!((want - got).abs() < 1e-9, "s={s} d={d}: {want} vs {got}");
            }
        }
    }

    #[test]
    fn empty_and_tiny_graphs() {
        let g = TdGraph::with_vertices(0);
        let ch = ContractionHierarchy::build(&g.freeze());
        assert_eq!(ch.num_vertices(), 0);

        let g = TdGraph::with_vertices(1);
        let ch = ContractionHierarchy::build(&g.freeze());
        assert_eq!(ch.num_vertices(), 1);
        assert_eq!(ch.dist(0, 0), 0.0);
    }

    #[test]
    fn ranks_are_a_permutation() {
        let g = seeded_graph(5, 35, 25, 3);
        let ch = ContractionHierarchy::build(&g.freeze());
        let mut seen = [false; 35];
        for v in 0..35u32 {
            let r = ch.rank(v) as usize;
            assert!(!seen[r], "duplicate rank {r}");
            seen[r] = true;
        }
    }
}
