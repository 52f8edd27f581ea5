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
//! The arena is append-only; mutation stays on [`Plf`]. Build with the PLF
//! algebra, freeze with [`PlfArena::push`], query through [`PlfSlice`]. An
//! arena is derived data and has no on-disk form: snapshots hold the owned
//! functions, and every loader re-pushes them.

use crate::approx::clamped_segment_value;
use crate::plf::{Plf, Pt, Via};

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
        debug_assert!(!pts.is_empty(), "a PLF needs at least one point");
        debug_assert!(pts.windows(2).all(|w| w[0].t < w[1].t));
        let id = self.len() as PlfId;
        assert!(id != NO_PLF, "PlfArena overflow (u32::MAX functions)");
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for p in pts {
            self.times.push(p.t);
            self.values.push(p.v);
            self.vias.push(p.via);
            lo = lo.min(p.v);
            hi = hi.max(p.v);
        }
        self.first_pt.push(self.times.len() as u32);
        self.min_cost.push(lo);
        self.max_cost.push(hi);
        id
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

    /// Copies the view back into an owned [`Plf`].
    pub fn to_plf(&self) -> Plf {
        Plf::new(
            (0..self.times.len())
                .map(|i| Pt::with_via(self.times[i], self.values[i], self.vias[i]))
                .collect(),
        )
        .expect("arena slices satisfy the Plf invariants")
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
    fn memory_accounting_positive() {
        let mut arena = PlfArena::with_capacity(4, 16);
        arena.push(&Plf::constant(1.0));
        assert!(arena.heap_bytes() > 0);
        assert!(!arena.is_empty());
    }
}
