#![deny(clippy::disallowed_types, clippy::disallowed_methods)]
// (query-side file: no locks, no channels — readers never block)

//! [`FrozenTd`]: the flat, cache-friendly query-time view of a tree
//! decomposition's weight labels.
//!
//! The scalar sweeps of Algo. 3/6 spend their time walking each root-path
//! node's bag and evaluating the `Ws`/`Wd` functions towards it. In the
//! [`TreeDecomposition`] those live as per-node `Vec<Option<Plf>>` — three
//! pointer dereferences per relaxation (node → option vec → boxed points),
//! plus a `node(u).depth` chase to map each bag vertex onto the root path.
//! `FrozenTd` lays the same data out once, CSR-style:
//!
//! * `first[v]..first[v+1]` — `v`'s bag slots in the flat arrays;
//! * `bag_depth` — the *depth* of each bag vertex, precomputed (the sweeps
//!   index root-path tables by depth, never by vertex id);
//! * `ws`/`wd` — arena ids of the slot's functions ([`NO_PLF`] = absent);
//! * `arena` — every breakpoint of every label in contiguous SoA storage,
//!   with per-function `min_cost`/`max_cost` bounds. The scalar sweeps use
//!   the minima to skip relaxations that provably cannot win; the profile
//!   query's bounds phase reads both ([`FrozenTd::ws_min`] …
//!   [`FrozenTd::wd_max`]) to frame its `s → d` corridor before any function
//!   is touched.
//!
//! Derived data, never persisted and never patched: built from the tree by
//! `TdTreeIndex::build`, again by a snapshot load, and again at the end of
//! every incremental update that changed a label (a linear copy — 0.1 % of
//! the update it follows); borrowed by the query engine ([`crate::query`]).

use td_plf::{PlfArena, PlfId, PlfSlice, NO_PLF};
use td_treedec::TreeDecomposition;

/// Flat CSR view of all `Ws`/`Wd` weight lists plus their breakpoint arena.
#[derive(Clone, Debug)]
pub struct FrozenTd {
    /// `first[v]..first[v+1]` delimits `v`'s bag slots (len `n+1`).
    pub(crate) first: Vec<u32>,
    /// Depth of each bag vertex — the root-path index the sweeps relax.
    pub(crate) bag_depth: Vec<u32>,
    /// Arena id of `Ws` per slot (`NO_PLF` when the reduced graph had no
    /// such directed edge).
    pub(crate) ws: Vec<PlfId>,
    /// Arena id of `Wd` per slot.
    pub(crate) wd: Vec<PlfId>,
    /// All label breakpoints, SoA, with precomputed min/max bounds.
    pub(crate) arena: PlfArena,
}

impl FrozenTd {
    /// Freezes `td`'s weight lists (a single linear copy).
    pub fn build(td: &TreeDecomposition) -> FrozenTd {
        let n = td.len();
        let total_slots: usize = td.nodes.iter().map(|nd| nd.bag.len()).sum();
        let total_points: usize = td
            .nodes
            .iter()
            .flat_map(|nd| nd.ws.iter().chain(nd.wd.iter()))
            .flatten()
            .map(|f| f.len())
            .sum();
        let mut first = Vec::with_capacity(n + 1);
        let mut bag_depth = Vec::with_capacity(total_slots);
        let mut ws = Vec::with_capacity(total_slots);
        let mut wd = Vec::with_capacity(total_slots);
        let mut arena = PlfArena::with_capacity(2 * total_slots, total_points);
        first.push(0);
        for node in &td.nodes {
            for (bi, &u) in node.bag.iter().enumerate() {
                bag_depth.push(td.node(u).depth);
                ws.push(match &node.ws[bi] {
                    Some(f) => arena.push(f),
                    None => NO_PLF,
                });
                wd.push(match &node.wd[bi] {
                    Some(f) => arena.push(f),
                    None => NO_PLF,
                });
            }
            first.push(bag_depth.len() as u32);
        }
        FrozenTd {
            first,
            bag_depth,
            ws,
            wd,
            arena,
        }
    }

    /// Flat slot range of `v`'s bag.
    #[inline]
    #[deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )]
    pub fn range(&self, v: td_graph::VertexId) -> std::ops::Range<usize> {
        debug_assert!((v as usize + 1) < self.first.len());
        self.first[v as usize] as usize..self.first[v as usize + 1] as usize
    }

    /// Depth of the bag vertex in slot `idx`.
    #[inline]
    #[deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )]
    pub fn bag_depth(&self, idx: usize) -> usize {
        debug_assert!(idx < self.bag_depth.len());
        self.bag_depth[idx] as usize
    }

    /// Arena id of slot `idx`'s `Ws` (`NO_PLF` = absent).
    #[inline]
    #[deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )]
    pub fn ws_id(&self, idx: usize) -> PlfId {
        debug_assert!(idx < self.ws.len());
        self.ws[idx]
    }

    /// Arena id of slot `idx`'s `Wd` (`NO_PLF` = absent).
    #[inline]
    #[deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )]
    pub fn wd_id(&self, idx: usize) -> PlfId {
        debug_assert!(idx < self.wd.len());
        self.wd[idx]
    }

    /// The breakpoint arena.
    #[inline]
    pub fn arena(&self) -> &PlfArena {
        &self.arena
    }

    /// Borrowed view of arena function `id`.
    #[inline]
    pub fn slice(&self, id: PlfId) -> PlfSlice<'_> {
        self.arena.slice(id)
    }

    /// Minimum of slot `idx`'s `Ws` over all departure times
    /// (`+∞` when absent) — O(1), precomputed at freeze time.
    #[inline]
    #[deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )]
    pub fn ws_min(&self, idx: usize) -> f64 {
        debug_assert!(idx < self.ws.len());
        let id = self.ws[idx];
        if id == NO_PLF {
            f64::INFINITY
        } else {
            self.arena.min_cost(id)
        }
    }

    /// Minimum of slot `idx`'s `Wd` (`+∞` when absent).
    #[inline]
    #[deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )]
    pub fn wd_min(&self, idx: usize) -> f64 {
        debug_assert!(idx < self.wd.len());
        let id = self.wd[idx];
        if id == NO_PLF {
            f64::INFINITY
        } else {
            self.arena.min_cost(id)
        }
    }

    /// Maximum of slot `idx`'s `Ws` over all departure times (`+∞` when
    /// absent) — O(1), the arena's precomputed `max_cost`.
    #[inline]
    #[deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )]
    pub fn ws_max(&self, idx: usize) -> f64 {
        debug_assert!(idx < self.ws.len());
        let id = self.ws[idx];
        if id == NO_PLF {
            f64::INFINITY
        } else {
            self.arena.max_cost(id)
        }
    }

    /// Maximum of slot `idx`'s `Wd` (`+∞` when absent).
    #[inline]
    #[deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )]
    pub fn wd_max(&self, idx: usize) -> f64 {
        debug_assert!(idx < self.wd.len());
        let id = self.wd[idx];
        if id == NO_PLF {
            f64::INFINITY
        } else {
            self.arena.max_cost(id)
        }
    }

    /// Heap footprint in bytes — counted by `TdTreeIndex::memory_bytes`.
    pub fn heap_bytes(&self) -> usize {
        self.first.capacity() * std::mem::size_of::<u32>()
            + self.bag_depth.capacity() * std::mem::size_of::<u32>()
            + (self.ws.capacity() + self.wd.capacity()) * std::mem::size_of::<PlfId>()
            + self.arena.heap_bytes()
    }
}

// Compile-time pin: the frozen label view is shared read-only across query
// threads. A future `Rc`/`Cell` field fails this line instead of a test.
const _: () = {
    const fn shared_across_threads<T: Send + Sync>() {}
    shared_across_threads::<FrozenTd>()
};

#[cfg(test)]
mod tests {
    use super::*;
    use td_gen::random_graph::seeded_graph;

    #[test]
    fn frozen_mirrors_the_tree_labels() {
        let g = seeded_graph(3, 40, 25, 3);
        let td = TreeDecomposition::build(&g);
        let fz = FrozenTd::build(&td);
        for v in 0..td.len() as u32 {
            let node = td.node(v);
            let range = fz.range(v);
            assert_eq!(range.len(), node.bag.len(), "v={v}");
            for (bi, idx) in range.enumerate() {
                let u = node.bag[bi];
                assert_eq!(fz.bag_depth(idx), td.node(u).depth as usize);
                match &node.ws[bi] {
                    Some(f) => {
                        let s = fz.slice(fz.ws_id(idx));
                        for t in [0.0, 1000.0, 40_000.0, 90_000.0] {
                            assert!((s.eval(t) - f.eval(t)).abs() < 1e-12);
                        }
                        assert_eq!(fz.ws_min(idx), f.min_value());
                        assert_eq!(fz.ws_max(idx), f.max_value());
                    }
                    None => assert_eq!(fz.ws_id(idx), NO_PLF),
                }
                match &node.wd[bi] {
                    Some(f) => {
                        let s = fz.slice(fz.wd_id(idx));
                        for t in [0.0, 1000.0, 40_000.0, 90_000.0] {
                            assert!((s.eval(t) - f.eval(t)).abs() < 1e-12);
                        }
                        assert_eq!(fz.wd_min(idx), f.min_value());
                        assert_eq!(fz.wd_max(idx), f.max_value());
                    }
                    None => assert_eq!(fz.wd_id(idx), NO_PLF),
                }
            }
        }
        assert!(fz.heap_bytes() > 0);
    }
}
