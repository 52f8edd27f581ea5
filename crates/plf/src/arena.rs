#![deny(clippy::disallowed_types, clippy::disallowed_methods)]
// (query-side file: no locks, no channels — readers never block)

//! [`PlfArena`]: all interpolation points of a *frozen* function set in
//! contiguous structure-of-arrays storage, plus [`PlfSlice`], the borrowed
//! zero-copy view of one of them.
//!
//! **Two layouts, one set of kernels.** A function is built as a [`Plf`]
//! (`Vec<Pt>`) and stored in an arena:
//!
//! * `times`/`values` — one flat SoA array each, all functions
//!   back-to-back, 16 B a point;
//! * `first_pt` — CSR-style offsets, `first_pt[id]..first_pt[id+1]` is
//!   function `id`;
//! * `runs`/`first_run` — the witnesses as runs, 8 B a run: a run is the
//!   first point (counted from its function's first) of a stretch of
//!   points with one witness, and `first_run[id]..first_run[id+1]` are
//!   function `id`'s. A compound stamps one bridge vertex on all of its
//!   points and only a `minimum` mixes witnesses, so a stored function
//!   almost always has one run (CAL-0.5's TD-appro index: 20 894 runs in
//!   20 744 functions of 1 285 301 points). On disk a list still keeps one
//!   witness a point; writing expands the runs, reading folds them back;
//! * `min_cost`/`max_cost` — per-function value bounds, precomputed once so
//!   query loops can prune (`dist + min_cost ≥ best` ⇒ skip evaluation)
//!   without touching the points at all.
//!
//! Both layouts stay because each is the cheaper one where it is used. An
//! SoA `Plf` would make three allocations where a built function makes one,
//! and the profile queries build thousands; an AoS arena would store 24 B a
//! point (`Pt` with its padding) against 16 B, ≈ +50 % index memory.
//! Neither layout has code of its own: `&Plf` and `PlfSlice` are both
//! [`PlfView`]s, and evaluation, the forward cursor, `Compound`, `minimum`,
//! the merge walks, [`crate::Windows::of`] and the list writer read either
//! in place. A merge kernel compounds two stored functions where they lie,
//! as CATCHUp links two stored shortcuts without copying them.
//!
//! A stored function is never edited; mutation stays on [`Plf`]. Build with
//! the PLF algebra, freeze with [`PlfArena::push`], read through
//! [`PlfSlice`]; a store that replaces functions drops the old ones with
//! [`PlfArena::remove_functions`], which compacts in place, and concatenates
//! arenas with [`PlfArena::append`]. An arena has no on-disk form of its
//! own: its functions are written in the shared PLF-list encoding, which
//! [`crate::persist::read_plf_arena`] reads straight back into one.

use crate::plf::{Plf, Pt, Via};
use crate::view::PlfView;
use std::iter::repeat_n;
use std::ops::Range;

/// Index of a function inside a [`PlfArena`].
pub type PlfId = u32;

/// Sentinel id for "no function stored" — lets frozen index structures keep
/// `Option<Plf>`-shaped tables as plain `u32` arrays.
pub const NO_PLF: PlfId = u32::MAX;

/// One witness run of a stored function: the points from `start` (counted
/// from the function's first point) up to the next run's start, or to the
/// function's end, all have the witness `via`.
#[derive(Clone, Copy, Debug)]
struct Run {
    start: u32,
    via: Via,
}

/// Contiguous SoA storage for a frozen set of piecewise-linear functions.
#[derive(Clone, Debug)]
pub struct PlfArena {
    times: Vec<f64>,
    values: Vec<f64>,
    /// `first_pt[id]..first_pt[id+1]` delimits function `id`; starts as
    /// `[0]`, one entry appended per push.
    first_pt: Vec<u32>,
    /// Every function's witness runs, back-to-back; the first run of a
    /// function starts at its point 0.
    runs: Vec<Run>,
    /// `first_run[id]..first_run[id+1]` are function `id`'s runs; starts as
    /// `[0]`, like `first_pt`.
    first_run: Vec<u32>,
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
            first_pt: vec![0],
            runs: Vec::new(),
            first_run: vec![0],
            min_cost: Vec::new(),
            max_cost: Vec::new(),
        }
    }

    /// An empty arena with room for `functions` functions of about
    /// `points` total interpolation points, one witness run each; a
    /// function with more runs grows the run array, which
    /// [`Self::shrink_to_fit`] trims.
    pub fn with_capacity(functions: usize, points: usize) -> Self {
        let offsets = || {
            let mut first = Vec::with_capacity(functions + 1);
            first.push(0);
            first
        };
        PlfArena {
            times: Vec::with_capacity(points),
            values: Vec::with_capacity(points),
            first_pt: offsets(),
            runs: Vec::with_capacity(functions),
            first_run: offsets(),
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
        let pts = f.points();
        for (i, p) in pts.iter().enumerate() {
            self.note_via(i, p.via);
        }
        self.times.extend(pts.iter().map(|p| p.t));
        self.values.extend(pts.iter().map(|p| p.v));
        self.close()
    }

    /// Appends one point to the function being pushed; [`Self::close`] ends
    /// it.
    pub(crate) fn push_pt(&mut self, p: Pt) {
        let start = *self.first_pt.last().expect("starts as [0]") as usize;
        self.note_via(self.times.len() - start, p.via);
        self.times.push(p.t);
        self.values.push(p.v);
    }

    /// Records that point `i` of the function being pushed has the witness
    /// `via`: it opens a run when it is the function's first point or its
    /// witness differs from the point before it.
    fn note_via(&mut self, i: usize, via: Via) {
        if i == 0 || self.runs.last().is_some_and(|r| r.via != via) {
            self.runs.push(Run {
                start: i as u32,
                via,
            });
        }
    }

    /// Ends the function whose points were appended since the last one and
    /// returns its id; its bounds are [`PlfView::value_bounds`].
    pub(crate) fn close(&mut self) -> PlfId {
        let id = self.len() as PlfId;
        assert!(id != NO_PLF, "PlfArena overflow (u32::MAX functions)");
        let start = *self.first_pt.last().expect("starts as [0]") as usize;
        debug_assert!(self.times.len() > start, "a PLF needs at least one point");
        self.first_pt.push(self.times.len() as u32);
        self.first_run.push(self.runs.len() as u32);
        let (lo, hi) = self.slice(id).value_bounds();
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
        let fn_0 = first as usize;
        let (mut fn_w, mut pt_w, mut run_w) = (
            fn_0,
            self.first_pt[fn_0] as usize,
            self.first_run[fn_0] as usize,
        );
        let (mut lo, mut run_lo) = (pt_w, run_w);
        for id in fn_0..self.len() {
            // Only offsets up to `id` have been written, so `first_pt[id +
            // 1]` and `first_run[id + 1]` are still the original ends.
            let (hi, run_hi) = (
                self.first_pt[id + 1] as usize,
                self.first_run[id + 1] as usize,
            );
            if removed.next_if_eq(&&(id as PlfId)).is_none() {
                self.times.copy_within(lo..hi, pt_w);
                self.values.copy_within(lo..hi, pt_w);
                self.runs.copy_within(run_lo..run_hi, run_w);
                pt_w += hi - lo;
                run_w += run_hi - run_lo;
                self.first_pt[fn_w + 1] = pt_w as u32;
                self.first_run[fn_w + 1] = run_w as u32;
                self.min_cost[fn_w] = self.min_cost[id];
                self.max_cost[fn_w] = self.max_cost[id];
                fn_w += 1;
            }
            (lo, run_lo) = (hi, run_hi);
        }
        assert!(removed.next().is_none(), "removed id out of range");
        self.times.truncate(pt_w);
        self.values.truncate(pt_w);
        self.runs.truncate(run_w);
        self.first_pt.truncate(fn_w + 1);
        self.first_run.truncate(fn_w + 1);
        self.min_cost.truncate(fn_w);
        self.max_cost.truncate(fn_w);
    }

    /// Copies every function of `other` to the end of this arena, in order
    /// and with its bounds, and returns the id the first one got: function
    /// `id` of `other` is `first + id` here. An arena without spare capacity
    /// has none afterwards either.
    pub fn append(&mut self, other: &PlfArena) -> PlfId {
        let first = self.len() as PlfId;
        let (base, run_base) = (self.times.len() as u32, self.runs.len() as u32);
        assert!(
            self.len() + other.len() < NO_PLF as usize,
            "PlfArena overflow (u32::MAX functions)"
        );
        self.times.reserve_exact(other.times.len());
        self.values.reserve_exact(other.times.len());
        self.runs.reserve_exact(other.runs.len());
        self.first_pt.reserve_exact(other.len());
        self.first_run.reserve_exact(other.len());
        self.min_cost.reserve_exact(other.len());
        self.max_cost.reserve_exact(other.len());
        self.times.extend_from_slice(&other.times);
        self.values.extend_from_slice(&other.values);
        self.runs.extend_from_slice(&other.runs);
        self.first_pt
            .extend(other.first_pt[1..].iter().map(|&end| base + end));
        self.first_run
            .extend(other.first_run[1..].iter().map(|&end| run_base + end));
        self.min_cost.extend_from_slice(&other.min_cost);
        self.max_cost.extend_from_slice(&other.max_cost);
        first
    }

    /// Drops spare capacity, so [`Self::heap_bytes`] counts what is stored
    /// (a no-op on an arena filled to the capacity it was made with).
    pub fn shrink_to_fit(&mut self) {
        self.times.shrink_to_fit();
        self.values.shrink_to_fit();
        self.runs.shrink_to_fit();
        self.first_pt.shrink_to_fit();
        self.first_run.shrink_to_fit();
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
            arena: self,
            id,
        }
    }

    /// Function `id`'s witness runs.
    #[inline]
    fn runs_of(&self, id: PlfId) -> &[Run] {
        let lo = self.first_run[id as usize] as usize;
        let hi = self.first_run[id as usize + 1] as usize;
        &self.runs[lo..hi]
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

    /// Number of stored witness runs.
    #[inline]
    pub fn total_runs(&self) -> usize {
        self.runs.len()
    }

    /// Heap footprint in bytes — the frozen representation's share of index
    /// memory accounting: by capacity, 16 B a point, 8 B a witness run, and
    /// 24 B a function (two offsets and the bounds) plus the two leading
    /// offsets.
    pub fn heap_bytes(&self) -> usize {
        self.times.capacity() * std::mem::size_of::<f64>()
            + self.values.capacity() * std::mem::size_of::<f64>()
            + self.runs.capacity() * std::mem::size_of::<Run>()
            + self.first_pt.capacity() * std::mem::size_of::<u32>()
            + self.first_run.capacity() * std::mem::size_of::<u32>()
            + self.min_cost.capacity() * std::mem::size_of::<f64>()
            + self.max_cost.capacity() * std::mem::size_of::<f64>()
    }
}

/// A borrowed, zero-copy view of one function in a [`PlfArena`].
///
/// It is a [`PlfView`]: every kernel reads it in place, through the same
/// bodies as an owned [`Plf`], so evaluation (Eq. 1 of the paper) and every
/// operator agree bit for bit whichever layout holds a function.
///
/// Its witness runs are found only when a witness is read: an evaluation,
/// which reads none, costs what it cost when every point kept its own.
#[derive(Clone, Copy)]
pub struct PlfSlice<'a> {
    times: &'a [f64],
    values: &'a [f64],
    arena: &'a PlfArena,
    id: PlfId,
}

impl std::fmt::Debug for PlfSlice<'_> {
    /// The points and the witness runs, not the whole arena.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlfSlice")
            .field("times", &self.times)
            .field("values", &self.values)
            .field("runs", &self.runs())
            .finish()
    }
}

impl<'a> PlfSlice<'a> {
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

    /// Evaluates at departure time `t` (Eq. 1): [`PlfView::eval`], the
    /// body [`Plf::eval`] runs too.
    #[inline]
    pub fn eval(&self, t: f64) -> f64 {
        PlfView::eval(*self, t)
    }

    /// Copies the view back into an owned [`Plf`] (one allocation, like
    /// cloning the function it was pushed from).
    pub fn to_plf(&self) -> Plf {
        let mut pts = Vec::with_capacity(self.len());
        pts.extend(self.points());
        // Every arena function was pushed from a valid point list.
        Plf::from_raw(pts)
    }

    /// Every point in order, the witnesses read run by run.
    fn points(self) -> impl Iterator<Item = Pt> + 'a {
        let (times, values) = (self.times, self.values);
        (self.spans())
            .flat_map(move |(span, via)| span.map(move |i| Pt::with_via(times[i], values[i], via)))
    }

    /// The function's witness runs.
    #[inline]
    fn runs(self) -> &'a [Run] {
        self.arena.runs_of(self.id)
    }

    /// Each witness run as its point range and its witness.
    fn spans(self) -> impl Iterator<Item = (Range<usize>, Via)> + 'a {
        let runs = self.runs();
        let ends = (runs.iter().skip(1).map(|r| r.start as usize)).chain([self.len()]);
        (runs.iter().zip(ends)).map(|(r, end)| (r.start as usize..end, r.via))
    }
}

#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
impl PlfView for PlfSlice<'_> {
    #[inline]
    fn len(self) -> usize {
        self.times.len()
    }

    #[inline]
    fn t(self, i: usize) -> f64 {
        self.times[i]
    }

    #[inline]
    fn v(self, i: usize) -> f64 {
        self.values[i]
    }

    /// The witness of the last run starting at or before point `i`.
    #[inline]
    fn via(self, i: usize) -> Via {
        let runs = self.runs();
        let k = runs.partition_point(|r| r.start as usize <= i);
        runs[k.saturating_sub(1)].via
    }

    fn vias(self) -> impl Iterator<Item = Via> {
        (self.spans()).flat_map(|(span, via)| repeat_n(via, span.len()))
    }

    #[inline]
    fn partition_point(self, mut pred: impl FnMut(f64) -> bool) -> usize {
        self.times.partition_point(|&t| pred(t))
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
