#![deny(clippy::disallowed_types, clippy::disallowed_methods)]
// (query-side file: no locks, no channels — readers never block)

//! [`PlfArena`]: all interpolation points of a *frozen* function set in
//! contiguous structure-of-arrays storage, plus [`PlfSlice`], the borrowed
//! zero-copy view the hot query loops evaluate.
//!
//! [`Plf`] owns one `Vec<Pt>` per function — ideal while functions are being
//! built and rewritten (compound/minimum produce fresh point lists), but a
//! pointer-chasing layout once an index is frozen and only *evaluated*: every
//! `eval` starts with a dereference to a separately-allocated point array,
//! and the AoS `Pt {t, v, via}` layout drags witness words through the cache
//! even when only times are scanned. `PlfArena` is the frozen counterpart:
//!
//! * `times`/`values`/`vias` — one flat SoA array each, all functions
//!   back-to-back;
//! * `first_pt` — CSR-style offsets, `first_pt[id]..first_pt[id+1]` is
//!   function `id`;
//! * `min_cost`/`max_cost` — per-function value bounds, precomputed once so
//!   query loops can prune (`dist + min_cost ≥ best` ⇒ skip evaluation)
//!   without touching the points at all.
//!
//! A stored function is never edited; mutation stays on [`Plf`]. Build with
//! the PLF algebra, freeze with [`PlfArena::push`], query through
//! [`PlfSlice`]; a store that replaces functions drops the old ones with
//! [`PlfArena::remove_functions`], which compacts in place, and concatenates
//! arenas with [`PlfArena::append`]. An arena has no
//! on-disk form of its own: its functions are written in the shared PLF-list
//! encoding, which [`crate::persist::read_plf_arena`] reads straight back
//! into one.

use crate::approx::clamped_segment_value;
use crate::plf::{bounds_by, Plf, Pt, Via};

/// Index of a function inside a [`PlfArena`].
pub type PlfId = u32;

/// Sentinel id for "no function stored" — lets frozen index structures keep
/// `Option<Plf>`-shaped tables as plain `u32` arrays.
pub const NO_PLF: PlfId = u32::MAX;

/// Contiguous SoA storage for a frozen set of piecewise-linear functions.
#[derive(Clone, Debug)]
pub struct PlfArena {
    times: Vec<f64>,
    values: Vec<f64>,
    vias: Vec<Via>,
    /// `first_pt[id]..first_pt[id+1]` delimits function `id`; starts as
    /// `[0]`, one entry appended per push.
    first_pt: Vec<u32>,
    min_cost: Vec<f64>,
    max_cost: Vec<f64>,
}

impl Default for PlfArena {
    fn default() -> Self {
        // Not derived: `first_pt` must start as `[0]`, not empty, for the
        // CSR offset invariant `len() == first_pt.len() - 1` to hold.
        PlfArena::new()
    }
}

impl PlfArena {
    /// An empty arena.
    pub fn new() -> Self {
        PlfArena {
            times: Vec::new(),
            values: Vec::new(),
            vias: Vec::new(),
            first_pt: vec![0],
            min_cost: Vec::new(),
            max_cost: Vec::new(),
        }
    }

    /// An empty arena with room for `functions` functions of about
    /// `points` total interpolation points.
    pub fn with_capacity(functions: usize, points: usize) -> Self {
        let mut first_pt = Vec::with_capacity(functions + 1);
        first_pt.push(0);
        PlfArena {
            times: Vec::with_capacity(points),
            values: Vec::with_capacity(points),
            vias: Vec::with_capacity(points),
            first_pt,
            min_cost: Vec::with_capacity(functions),
            max_cost: Vec::with_capacity(functions),
        }
    }

    /// Number of stored functions.
    #[inline]
    pub fn len(&self) -> usize {
        self.first_pt.len() - 1
    }

    /// True iff no function has been pushed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total stored interpolation points.
    #[inline]
    pub fn total_points(&self) -> usize {
        self.times.len()
    }

    /// Freezes a copy of `f`'s points into the arena and returns its id.
    pub fn push(&mut self, f: &Plf) -> PlfId {
        self.push_points(f.points())
    }

    /// Freezes a raw point list (same invariants as [`Plf`]: non-empty,
    /// strictly increasing times).
    pub fn push_points(&mut self, pts: &[Pt]) -> PlfId {
        debug_assert!(pts.windows(2).all(|w| w[0].t < w[1].t));
        self.times.extend(pts.iter().map(|p| p.t));
        self.values.extend(pts.iter().map(|p| p.v));
        self.vias.extend(pts.iter().map(|p| p.via));
        self.close()
    }

    /// Appends one point to the function being pushed; [`Self::close`] ends
    /// it.
    pub(crate) fn push_pt(&mut self, p: Pt) {
        self.times.push(p.t);
        self.values.push(p.v);
        self.vias.push(p.via);
    }

    /// Ends the function whose points were appended since the last one and
    /// returns its id; its bounds are found as [`Plf::value_bounds`] finds them.
    pub(crate) fn close(&mut self) -> PlfId {
        let id = self.len() as PlfId;
        assert!(id != NO_PLF, "PlfArena overflow (u32::MAX functions)");
        let start = *self.first_pt.last().expect("starts as [0]") as usize;
        debug_assert!(self.times.len() > start, "a PLF needs at least one point");
        let (lo, hi) = bounds_by(&self.values[start..], |&v| v);
        self.first_pt.push(self.times.len() as u32);
        self.min_cost.push(lo);
        self.max_cost.push(hi);
        id
    }

    /// Removes the functions `ids` (ascending, distinct) and moves every
    /// later one down in place, order kept: function `id` becomes `id − (the
    /// number of removed ids below it)`. Nothing is allocated and the
    /// capacity is kept.
    pub fn remove_functions(&mut self, ids: &[PlfId]) {
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]));
        let Some(&first) = ids.first() else {
            return;
        };
        let mut removed = ids.iter().peekable();
        let (mut fn_w, mut pt_w) = (first as usize, self.first_pt[first as usize] as usize);
        let mut lo = pt_w;
        for id in first as usize..self.len() {
            // Only offsets up to `id` have been written, so `first_pt[id +
            // 1]` is still the original end.
            let hi = self.first_pt[id + 1] as usize;
            if removed.next_if_eq(&&(id as PlfId)).is_none() {
                self.times.copy_within(lo..hi, pt_w);
                self.values.copy_within(lo..hi, pt_w);
                self.vias.copy_within(lo..hi, pt_w);
                pt_w += hi - lo;
                self.first_pt[fn_w + 1] = pt_w as u32;
                self.min_cost[fn_w] = self.min_cost[id];
                self.max_cost[fn_w] = self.max_cost[id];
                fn_w += 1;
            }
            lo = hi;
        }
        assert!(removed.next().is_none(), "removed id out of range");
        self.times.truncate(pt_w);
        self.values.truncate(pt_w);
        self.vias.truncate(pt_w);
        self.first_pt.truncate(fn_w + 1);
        self.min_cost.truncate(fn_w);
        self.max_cost.truncate(fn_w);
    }

    /// Copies every function of `other` to the end of this arena, in order
    /// and with its bounds, and returns the id the first one got: function
    /// `id` of `other` is `first + id` here. An arena without spare capacity
    /// has none afterwards either.
    pub fn append(&mut self, other: &PlfArena) -> PlfId {
        let first = self.len() as PlfId;
        let base = self.times.len() as u32;
        assert!(
            self.len() + other.len() < NO_PLF as usize,
            "PlfArena overflow (u32::MAX functions)"
        );
        self.times.reserve_exact(other.times.len());
        self.values.reserve_exact(other.times.len());
        self.vias.reserve_exact(other.times.len());
        self.first_pt.reserve_exact(other.len());
        self.min_cost.reserve_exact(other.len());
        self.max_cost.reserve_exact(other.len());
        self.times.extend_from_slice(&other.times);
        self.values.extend_from_slice(&other.values);
        self.vias.extend_from_slice(&other.vias);
        self.first_pt
            .extend(other.first_pt[1..].iter().map(|&end| base + end));
        self.min_cost.extend_from_slice(&other.min_cost);
        self.max_cost.extend_from_slice(&other.max_cost);
        first
    }

    /// Drops spare capacity, so [`Self::heap_bytes`] counts what is stored
    /// (a no-op on an arena filled to the capacity it was made with).
    pub fn shrink_to_fit(&mut self) {
        self.times.shrink_to_fit();
        self.values.shrink_to_fit();
        self.vias.shrink_to_fit();
        self.first_pt.shrink_to_fit();
        self.min_cost.shrink_to_fit();
        self.max_cost.shrink_to_fit();
    }

    /// The borrowed view of function `id`.
    #[inline]
    #[deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )]
    pub fn slice(&self, id: PlfId) -> PlfSlice<'_> {
        debug_assert!((id as usize) < self.len());
        let lo = self.first_pt[id as usize] as usize;
        let hi = self.first_pt[id as usize + 1] as usize;
        PlfSlice {
            times: &self.times[lo..hi],
            values: &self.values[lo..hi],
            vias: &self.vias[lo..hi],
        }
    }

    /// Precomputed minimum value of function `id` over all departure times —
    /// an admissible lower bound on any evaluation.
    #[inline]
    #[deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )]
    pub fn min_cost(&self, id: PlfId) -> f64 {
        debug_assert!((id as usize) < self.min_cost.len());
        self.min_cost[id as usize]
    }

    /// Precomputed maximum value of function `id` over all departure times.
    #[inline]
    #[deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )]
    pub fn max_cost(&self, id: PlfId) -> f64 {
        debug_assert!((id as usize) < self.max_cost.len());
        self.max_cost[id as usize]
    }

    /// Heap footprint in bytes — the frozen representation's share of index
    /// memory accounting.
    pub fn heap_bytes(&self) -> usize {
        self.times.capacity() * std::mem::size_of::<f64>()
            + self.values.capacity() * std::mem::size_of::<f64>()
            + self.vias.capacity() * std::mem::size_of::<Via>()
            + self.first_pt.capacity() * std::mem::size_of::<u32>()
            + self.min_cost.capacity() * std::mem::size_of::<f64>()
            + self.max_cost.capacity() * std::mem::size_of::<f64>()
    }
}

/// A borrowed, zero-copy view of one function in a [`PlfArena`].
///
/// Evaluation semantics match [`Plf`] exactly (Eq. 1 of the paper): clamped
/// constant extrapolation outside `[first.t, last.t]`, linear interpolation
/// between breakpoints.
#[derive(Clone, Copy, Debug)]
pub struct PlfSlice<'a> {
    times: &'a [f64],
    values: &'a [f64],
    vias: &'a [Via],
}

impl<'a> PlfSlice<'a> {
    /// Builds a view over raw SoA slices (all the same non-zero length,
    /// times strictly increasing).
    #[inline]
    pub fn new(times: &'a [f64], values: &'a [f64], vias: &'a [Via]) -> Self {
        debug_assert!(!times.is_empty());
        debug_assert_eq!(times.len(), values.len());
        debug_assert_eq!(times.len(), vias.len());
        PlfSlice {
            times,
            values,
            vias,
        }
    }

    /// Number of interpolation points.
    #[inline]
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// A valid slice always has ≥ 1 point.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Breakpoint times.
    #[inline]
    pub fn times(&self) -> &'a [f64] {
        self.times
    }

    /// Breakpoint values.
    #[inline]
    pub fn values(&self) -> &'a [f64] {
        self.values
    }

    /// Segment witnesses.
    #[inline]
    pub fn vias(&self) -> &'a [Via] {
        self.vias
    }

    /// The points as owned [`Pt`]s, in order.
    fn points(&self) -> impl Iterator<Item = Pt> + 'a {
        let (times, values, vias) = (self.times, self.values, self.vias);
        (0..times.len()).map(move |i| Pt::with_via(times[i], values[i], vias[i]))
    }

    /// Index of the segment containing `t`: largest `i` with `times[i] ≤ t`,
    /// or `None` for the left ray.
    #[inline]
    #[deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )]
    fn segment_index(&self, t: f64) -> Option<usize> {
        debug_assert!(!self.times.is_empty());
        if t < self.times[0] {
            return None;
        }
        Some(self.times.partition_point(|&x| x <= t) - 1)
    }

    /// Value of the segment starting at breakpoint `i` evaluated at `t`,
    /// routed through the shared right-ray clamp
    /// ([`clamped_segment_value`]) so every entry point — and the batch
    /// kernels — extrapolate identically past the last breakpoint.
    #[inline]
    #[deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )]
    fn value_on_segment(&self, i: usize, t: f64) -> f64 {
        debug_assert!(i < self.times.len());
        let next = if i + 1 < self.times.len() {
            Some((self.times[i + 1], self.values[i + 1]))
        } else {
            None
        };
        clamped_segment_value(self.times[i], self.values[i], next, t)
    }

    /// Evaluates at departure time `t` (Eq. 1), identical to [`Plf::eval`].
    #[inline]
    #[deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )]
    pub fn eval(&self, t: f64) -> f64 {
        debug_assert!(!self.times.is_empty());
        match self.segment_index(t) {
            None => self.values[0],
            Some(i) => self.value_on_segment(i, t),
        }
    }

    /// Evaluates at `t` and returns the witness of the serving segment,
    /// identical to [`Plf::eval_with_via`].
    #[inline]
    #[deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )]
    pub fn eval_with_via(&self, t: f64) -> (f64, Via) {
        debug_assert!(!self.times.is_empty());
        match self.segment_index(t) {
            None => (self.values[0], self.vias[0]),
            Some(i) => (self.value_on_segment(i, t), self.vias[i]),
        }
    }

    /// Arrival time when departing at `t`.
    #[inline]
    pub fn arrival(&self, t: f64) -> f64 {
        t + self.eval(t)
    }

    /// Minimum value over all departure times (prefer the arena's
    /// precomputed [`PlfArena::min_cost`] in hot loops).
    pub fn min_value(&self) -> f64 {
        self.values.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Maximum value over all departure times (prefer
    /// [`PlfArena::max_cost`] in hot loops).
    pub fn max_value(&self) -> f64 {
        self.values
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Copies the view back into an owned [`Plf`] (one allocation, like
    /// cloning the function it was pushed from).
    pub fn to_plf(&self) -> Plf {
        // Every arena function was pushed from a valid point list.
        Plf::from_raw(self.points().collect())
    }

    /// Refills `f` with this view's points, keeping `f`'s allocation: a
    /// scratch copy that allocates only when it has to grow.
    pub fn copy_into(&self, f: &mut Plf) {
        let pts = f.pts_mut();
        pts.clear();
        pts.extend(self.points());
    }
}

impl PartialEq<Plf> for PlfSlice<'_> {
    /// Point by point, as `Plf == Plf` compares: the view holds the same
    /// function as `f`, witnesses included.
    fn eq(&self, f: &Plf) -> bool {
        self.len() == f.len() && self.points().eq(f.points().iter().copied())
    }
}

// Compile-time pin: frozen arenas are shared read-only across query
// threads. A future `Rc`/`Cell` field fails this line instead of a test.
const _: () = {
    const fn shared_across_threads<T: Send + Sync>() {}
    shared_across_threads::<PlfArena>()
};

#[cfg(test)]
mod tests {
    use super::*;

    fn plf(pairs: &[(f64, f64)]) -> Plf {
        Plf::from_pairs(pairs).unwrap()
    }

    #[test]
    fn push_and_eval_match_plf() {
        let f = plf(&[(0.0, 10.0), (20.0, 10.0), (60.0, 15.0)]);
        let g = plf(&[(5.0, 3.0)]);
        let mut arena = PlfArena::new();
        let fid = arena.push(&f);
        let gid = arena.push(&g);
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.total_points(), 4);
        for t in [-5.0, 0.0, 10.0, 20.0, 40.0, 60.0, 100.0] {
            assert_eq!(arena.slice(fid).eval(t), f.eval(t), "t={t}");
            assert_eq!(arena.slice(gid).eval(t), g.eval(t), "t={t}");
        }
    }

    #[test]
    fn bounds_are_precomputed() {
        let f = plf(&[(0.0, 5.0), (50.0, 2.0), (100.0, 9.0)]);
        let mut arena = PlfArena::new();
        let id = arena.push(&f);
        assert_eq!(arena.min_cost(id), 2.0);
        assert_eq!(arena.max_cost(id), 9.0);
        assert_eq!(arena.slice(id).min_value(), 2.0);
        assert_eq!(arena.slice(id).max_value(), 9.0);
    }

    #[test]
    fn vias_round_trip() {
        let f = Plf::new(vec![Pt::with_via(0.0, 1.0, 7), Pt::with_via(10.0, 2.0, 9)]).unwrap();
        let mut arena = PlfArena::new();
        let id = arena.push(&f);
        let s = arena.slice(id);
        assert_eq!(s.eval_with_via(-1.0).1, 7);
        assert_eq!(s.eval_with_via(5.0).1, 7);
        assert_eq!(s.eval_with_via(10.0).1, 9);
        assert!(s.to_plf().approx_eq(&f, 0.0));
    }

    #[test]
    fn copy_into_refills_a_scratch_function_in_place() {
        let f = Plf::new(vec![
            Pt::with_via(0.0, 5.0, 3),
            Pt::with_via(50.0, 2.0, 8),
            Pt::with_via(100.0, 9.0, 1),
        ])
        .unwrap();
        let mut src = PlfArena::new();
        src.push(&Plf::constant(4.0));
        let id = src.push(&f);
        let mut scratch =
            Plf::from_pairs(&[(0.0, 1.0), (1.0, 1.0), (2.0, 1.0), (3.0, 1.0)]).unwrap();
        let before = scratch.heap_bytes();
        src.slice(id).copy_into(&mut scratch);
        assert_eq!(scratch, f);
        assert_eq!(scratch.heap_bytes(), before);
    }

    #[test]
    fn removal_compacts_in_place_and_appending_renumbers() {
        let fs: Vec<Plf> = (0..6)
            .map(|k| {
                let pts = (0..=k).map(|i| (i as f64, (k * 10 + i) as f64));
                Plf::from_pairs(&pts.collect::<Vec<_>>()).unwrap()
            })
            .collect();
        let mut arena = PlfArena::new();
        for f in &fs {
            arena.push(f);
        }
        let bytes = arena.heap_bytes();
        arena.remove_functions(&[1, 2, 4]);
        assert_eq!(arena.heap_bytes(), bytes, "the capacity is kept");
        assert_eq!(arena.len(), 3);
        assert_eq!(arena.total_points(), 1 + 4 + 6);
        for (id, k) in [0, 3, 5].into_iter().enumerate() {
            assert_eq!(arena.slice(id as PlfId).to_plf(), fs[k]);
            assert_eq!(arena.min_cost(id as PlfId), fs[k].min_value());
            assert_eq!(arena.max_cost(id as PlfId), fs[k].max_value());
        }
        arena.remove_functions(&[]);
        assert_eq!(arena.len(), 3);
        // Appending another arena: its functions follow, renumbered from
        // the first free id, bounds kept, no spare capacity.
        arena.shrink_to_fit();
        let mut other = PlfArena::new();
        other.push(&fs[1]);
        other.push(&fs[0]);
        other.shrink_to_fit();
        assert_eq!(arena.append(&other), 3);
        let exact = arena.heap_bytes();
        arena.shrink_to_fit();
        assert_eq!(arena.heap_bytes(), exact);
        assert_eq!(arena.len(), 5);
        for (id, f) in [(3, &fs[1]), (4, &fs[0])] {
            assert_eq!(arena.slice(id).to_plf(), *f);
            assert_eq!(arena.max_cost(id), f.max_value());
        }
        arena.remove_functions(&[0, 1, 2, 3, 4]);
        assert!(arena.is_empty() && arena.total_points() == 0);
        assert_eq!(PlfArena::new().append(&other), 0);
    }

    #[test]
    fn memory_accounting_positive() {
        let mut arena = PlfArena::with_capacity(4, 16);
        arena.push(&Plf::constant(1.0));
        assert!(arena.heap_bytes() > 0);
        assert!(!arena.is_empty());
    }
}
