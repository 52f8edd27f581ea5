#![deny(clippy::disallowed_types, clippy::disallowed_methods)]
// (query-side file: no locks, no channels — readers never block)
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
// (hot query file: every item here runs inside the sweeps)

//! [`Labels`]: the one store of a tree decomposition's `Ws`/`Wd` weight
//! labels, laid out flat for the query sweeps.
//!
//! A tree node `X(v)` has one *slot* per bag member `u`: its `Ws` label
//! (`v → u`) and its `Wd` label (`u → v`). The slots of all nodes are CSR:
//!
//! * `first[v]..first[v+1]` — `v`'s slots, in bag order (the order of
//!   `TreeNode::bag`, elimination order ascending);
//! * `bag_depth` — the *depth* of each slot's bag member (the sweeps index
//!   root-path tables by depth, never by vertex id);
//! * `ids[WS]` / `ids[WD]` — each slot's function id in its direction's
//!   arena ([`NO_PLF`] = the reduced graph had no such directed edge);
//! * `arenas[WS]` / `arenas[WD]` — every breakpoint of every label of that
//!   direction in contiguous SoA storage, with per-function
//!   `min_cost`/`max_cost` bounds. The scalar sweeps use the minima to skip
//!   relaxations that provably cannot win; the profile query's bounds phase
//!   reads both ([`Labels::min`], [`Labels::max`]) to frame its corridor
//!   before any function is touched.
//!
//! A build pushes each label into its arena in slot order, which is the
//! order the `.tdx` label lists use, so a load adopts the arenas the lists
//! are read into and a save writes them back slot by slot. An incremental
//! update patches a slot with [`Labels::replace`] — the new function is
//! appended with its bounds, the old one is dead — and drops the dead
//! functions with one [`Labels::compact`] when it is done. No other copy of
//! a label is kept: the elimination's owned functions are dropped once
//! frozen, and the algebra reads a label through a scratch copy.

use std::ops::Range;
use td_graph::VertexId;
use td_plf::{Plf, PlfArena, PlfId, PlfSlice, NO_PLF};

/// Direction index of `X(v).Ws`: `v → bag[i]`.
pub const WS: usize = 0;
/// Direction index of `X(v).Wd`: `bag[i] → v`.
pub const WD: usize = 1;

/// The CSR bag slots of every tree node with their `Ws`/`Wd` labels, one
/// arena per direction.
#[derive(Clone, Debug)]
pub struct Labels {
    /// `first[v]..first[v+1]` delimits `v`'s bag slots (len `n+1`).
    first: Vec<u32>,
    /// Depth of each slot's bag member.
    bag_depth: Vec<u32>,
    /// Per direction, per slot: the label's id in `arenas[dir]`.
    ids: [Vec<PlfId>; 2],
    /// Per direction: every label's points, with their bounds.
    arenas: [PlfArena; 2],
}

impl Labels {
    /// Freezes the owned labels of every node, `slots[v]` in bag order as
    /// `(member, [Ws, Wd])`, into arenas sized exactly; `depth[u]` is
    /// member `u`'s depth. Each function is dropped as soon as it is pushed.
    pub(crate) fn freeze(slots: Vec<Vec<(VertexId, [Option<Plf>; 2])>>, depth: &[u32]) -> Labels {
        let total: usize = slots.iter().map(Vec::len).sum();
        let sized = |dir: usize| {
            let fs = slots.iter().flatten().filter_map(|(_, f)| f[dir].as_ref());
            let (functions, points) = fs.fold((0, 0), |(n, p), f| (n + 1, p + f.len()));
            PlfArena::with_capacity(functions, points)
        };
        let mut arenas = [sized(WS), sized(WD)];
        let mut first = Vec::with_capacity(slots.len() + 1);
        let mut bag_depth = Vec::with_capacity(total);
        let mut ids = [Vec::with_capacity(total), Vec::with_capacity(total)];
        first.push(0);
        for node in slots {
            for (u, fs) in node {
                bag_depth.push(depth[u as usize]);
                for (dir, f) in fs.into_iter().enumerate() {
                    ids[dir].push(f.map_or(NO_PLF, |f| arenas[dir].push(&f)));
                }
            }
            first.push(bag_depth.len() as u32);
        }
        for arena in &mut arenas {
            // A label with more than one witness run grew the run array.
            arena.shrink_to_fit();
        }
        Labels {
            first,
            bag_depth,
            ids,
            arenas,
        }
    }

    /// Adopts a loaded store: `first` the bag offsets, `bag_depth` each
    /// slot's member depth, and per direction the arena a label list was
    /// read into with each slot's id there. The caller has checked the
    /// offsets and that every id list has one id per slot.
    pub(crate) fn adopt(
        first: Vec<u32>,
        bag_depth: Vec<u32>,
        [(ws_arena, ws), (wd_arena, wd)]: [(PlfArena, Vec<PlfId>); 2],
    ) -> Labels {
        debug_assert!(ws.len() == bag_depth.len() && wd.len() == bag_depth.len());
        Labels {
            first,
            bag_depth,
            ids: [ws, wd],
            arenas: [ws_arena, wd_arena],
        }
    }

    /// Flat slot range of `v`'s bag.
    #[inline]
    pub fn range(&self, v: VertexId) -> Range<usize> {
        debug_assert!((v as usize + 1) < self.first.len());
        self.first[v as usize] as usize..self.first[v as usize + 1] as usize
    }

    /// Depth of the bag member of slot `idx`.
    #[inline]
    pub fn bag_depth(&self, idx: usize) -> usize {
        debug_assert!(idx < self.bag_depth.len());
        self.bag_depth[idx] as usize
    }

    /// Arena id of slot `idx`'s label in direction `dir` ([`NO_PLF`] =
    /// absent).
    #[inline]
    pub fn id(&self, dir: usize, idx: usize) -> PlfId {
        debug_assert!(idx < self.ids[dir].len());
        self.ids[dir][idx]
    }

    /// The arena of direction `dir`'s labels.
    #[inline]
    pub fn arena(&self, dir: usize) -> &PlfArena {
        &self.arenas[dir]
    }

    /// Slot `idx`'s label in direction `dir` (`None` = absent).
    #[inline]
    pub fn get(&self, dir: usize, idx: usize) -> Option<PlfSlice<'_>> {
        let id = self.id(dir, idx);
        (id != NO_PLF).then(|| self.arenas[dir].slice(id))
    }

    /// Minimum of slot `idx`'s label in direction `dir` over all departure
    /// times (`+∞` when absent) — O(1), precomputed when it was stored.
    #[inline]
    pub fn min(&self, dir: usize, idx: usize) -> f64 {
        match self.id(dir, idx) {
            NO_PLF => f64::INFINITY,
            id => self.arenas[dir].min_cost(id),
        }
    }

    /// Maximum of slot `idx`'s label in direction `dir` (`+∞` when absent).
    #[inline]
    pub fn max(&self, dir: usize, idx: usize) -> f64 {
        match self.id(dir, idx) {
            NO_PLF => f64::INFINITY,
            id => self.arenas[dir].max_cost(id),
        }
    }

    /// Every slot's label in direction `dir`, in slot order — the order of
    /// the `.tdx` label list.
    pub(crate) fn list(
        &self,
        dir: usize,
    ) -> impl Iterator<Item = Option<PlfSlice<'_>>> + Clone + '_ {
        (0..self.bag_depth.len()).map(move |idx| self.get(dir, idx))
    }

    /// Total stored interpolation points, both directions.
    pub fn total_points(&self) -> usize {
        self.arenas.iter().map(PlfArena::total_points).sum()
    }

    /// Heap footprint in bytes: the slot arrays and both arenas, by
    /// capacity.
    pub fn heap_bytes(&self) -> usize {
        let words = [&self.first, &self.bag_depth]
            .into_iter()
            .chain(&self.ids)
            .map(Vec::capacity)
            .sum::<usize>();
        words * std::mem::size_of::<u32>()
            + self.arenas.iter().map(PlfArena::heap_bytes).sum::<usize>()
    }

    /// Points slot `idx`'s label in direction `dir` at `f` (appended to the
    /// arena with its bounds; `None` = absent) and returns the id the slot
    /// held before. That function stays in the arena, dead, until
    /// [`Self::compact`] drops it.
    pub fn replace(&mut self, dir: usize, idx: usize, f: Option<&Plf>) -> PlfId {
        let id = f.map_or(NO_PLF, |f| self.arenas[dir].push(f));
        std::mem::replace(&mut self.ids[dir][idx], id)
    }

    /// Drops the functions `dead[dir]` — ids [`Self::replace`] returned, no
    /// longer named by any slot; [`NO_PLF`]s are skipped — compacting each
    /// arena in place and renumbering the slots past them, then trims the
    /// arenas to what they hold, so they are sized as a build sizes them.
    pub fn compact(&mut self, mut dead: [Vec<PlfId>; 2]) {
        for (dir, dead) in dead.iter_mut().enumerate() {
            dead.retain(|&id| id != NO_PLF);
            dead.sort_unstable();
            debug_assert!(dead.windows(2).all(|w| w[0] < w[1]), "an id died twice");
            debug_assert!(!self.ids[dir]
                .iter()
                .any(|id| dead.binary_search(id).is_ok()));
            if !dead.is_empty() {
                self.arenas[dir].remove_functions(dead);
                for id in self.ids[dir].iter_mut().filter(|id| **id != NO_PLF) {
                    *id -= dead.partition_point(|&d| d < *id) as PlfId;
                }
            }
            self.arenas[dir].shrink_to_fit();
        }
    }
}

// Compile-time pin: the label store is shared read-only across query
// threads. A future `Rc`/`Cell` field fails this line instead of a test.
const _: () = {
    const fn shared_across_threads<T: Send + Sync>() {}
    shared_across_threads::<Labels>()
};

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use td_plf::{PlfView, Pt};

    fn plf(pairs: &[(f64, f64)]) -> Plf {
        Plf::from_pairs(pairs).unwrap()
    }

    /// Two nodes: `X(0)` with members 1 and 2, `X(1)` with member 2. The
    /// first label has two witness runs, every other one.
    fn small() -> Labels {
        let two_runs = Plf::new(vec![Pt::with_via(0.0, 4.0, 7), Pt::with_via(10.0, 6.0, 8)]);
        let slots = vec![
            vec![
                (1, [Some(two_runs.unwrap()), None]),
                (2, [Some(Plf::constant(2.0)), Some(Plf::constant(3.0))]),
            ],
            vec![(2, [None, Some(plf(&[(0.0, 1.0), (5.0, 9.0)]))])],
            vec![],
        ];
        Labels::freeze(slots, &[2, 1, 0])
    }

    #[test]
    fn freeze_lays_the_slots_out_in_bag_order() {
        let labels = small();
        assert_eq!(labels.range(0), 0..2);
        assert_eq!(labels.range(1), 2..3);
        assert_eq!(labels.range(2), 3..3);
        assert_eq!(
            (0..3).map(|i| labels.bag_depth(i)).collect::<Vec<_>>(),
            [1, 0, 0]
        );
        assert_eq!(labels.id(WD, 0), NO_PLF);
        assert_eq!(labels.min(WD, 0), f64::INFINITY);
        assert_eq!(labels.get(WS, 1).unwrap().eval(7.0), 2.0);
        assert_eq!((labels.min(WS, 0), labels.max(WS, 0)), (4.0, 6.0));
        assert_eq!((labels.min(WD, 2), labels.max(WD, 2)), (1.0, 9.0));
        assert_eq!(labels.total_points(), 6);
        assert_eq!(labels.get(WS, 0).unwrap().eval_with_via(10.0).1, 8);
        // Exactly sized: the heap bytes are what is stored, 16 B a point, 8 B
        // a witness run, two offsets and two bounds a function.
        let words = 4 + 3 + 3 + 3;
        let arena = |functions: usize, points: usize, runs: usize| {
            16 * points + 8 * runs + 2 * 4 * (functions + 1) + 16 * functions
        };
        assert_eq!(
            labels.heap_bytes(),
            4 * words + arena(2, 3, 3) + arena(2, 3, 2)
        );
    }

    #[test]
    fn replace_then_compact_is_a_fresh_freeze() {
        let mut labels = small();
        let new = plf(&[(0.0, 3.0), (20.0, 1.0), (40.0, 8.0)]);
        let dead = [
            vec![
                labels.replace(WS, 0, Some(&new)),
                labels.replace(WS, 1, None),
            ],
            vec![labels.replace(WD, 0, Some(&Plf::constant(5.0)))],
        ];
        assert_eq!(labels.get(WS, 0).unwrap(), new);
        assert_eq!((labels.min(WS, 0), labels.max(WS, 0)), (1.0, 8.0));
        labels.compact(dead);
        let fresh = Labels::freeze(
            vec![
                vec![
                    (1, [Some(new.clone()), Some(Plf::constant(5.0))]),
                    (2, [None, Some(Plf::constant(3.0))]),
                ],
                vec![(2, [None, Some(plf(&[(0.0, 1.0), (5.0, 9.0)]))])],
                vec![],
            ],
            &[2, 1, 0],
        );
        for dir in [WS, WD] {
            for idx in 0..3 {
                let (a, b) = (labels.get(dir, idx), fresh.get(dir, idx));
                assert_eq!(a.map(|f| f.to_plf()), b.map(|f| f.to_plf()), "{dir} {idx}");
                assert_eq!(labels.min(dir, idx), fresh.min(dir, idx));
                assert_eq!(labels.max(dir, idx), fresh.max(dir, idx));
            }
        }
        assert_eq!(labels.total_points(), fresh.total_points());
        assert_eq!(labels.heap_bytes(), fresh.heap_bytes());
    }
}
