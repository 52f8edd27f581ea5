//! Shortcut selection (Def. 8): a 0/1 knapsack over candidate shortcut-pair
//! instances.
//!
//! * [`select_greedy`] — Algo. 5: run two greedy fills (by utility, by
//!   density), return the better one. Theorem 2 proves the 0.5 approximation.
//! * [`select_dp`] — Algo. 4: exact dynamic programming. Selections are
//!   reconstructed with Hirschberg-style divide and conquer so memory stays
//!   `O(N)` instead of `O(items · N)`. For the paper's multi-million budgets
//!   the DP row is intractable verbatim (the paper does not discuss this), so
//!   weights and capacity can be bucketed by `weight_scale`; scale 1 is exact
//!   (tested against brute force). A bucketed selection is never below the
//!   dual greedy's (Theorem 2) and tops up its leftover budget by density.
//! * [`select_brute_force`] — exponential reference for tests.

use td_graph::VertexId;

/// One candidate shortcut-pair instance `⟨i, j⟩` (Def. 6/7).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Candidate {
    /// The tree node.
    pub node: VertexId,
    /// The ancestor.
    pub ancestor: VertexId,
    /// Utility `u⟨i,j⟩ = (height(i) − height(j)) · w(T_G) · p⟨i,j⟩` (Def. 7).
    pub utility: f64,
    /// Weight `|I⟨i,j⟩| + |I⟨j,i⟩|` — total interpolation points of both
    /// directions (Def. 7).
    pub weight: u32,
}

/// The outcome of a selection algorithm.
#[derive(Clone, Debug, Default)]
pub struct Selection {
    /// Indices into the candidate list, sorted ascending.
    pub chosen: Vec<usize>,
    /// Total utility of the chosen set.
    pub utility: f64,
    /// Total weight of the chosen set (≤ budget).
    pub weight: u64,
}

impl Selection {
    fn from_indices(mut chosen: Vec<usize>, items: &[Candidate]) -> Selection {
        chosen.sort_unstable();
        let utility = chosen.iter().map(|&i| items[i].utility).sum();
        let weight = chosen.iter().map(|&i| items[i].weight as u64).sum();
        Selection {
            chosen,
            utility,
            weight,
        }
    }
}

/// Greedy fill in the given priority order, stopping at the *first* item
/// that no longer fits (the paper's `break` in Algo. 5 lines 7/11, which the
/// Theorem 2 proof relies on).
fn greedy_fill(items: &[Candidate], order: &[usize], budget: u64) -> Vec<usize> {
    let mut chosen = Vec::new();
    let mut weight = 0u64;
    for &i in order {
        let w = items[i].weight as u64;
        if weight + w > budget {
            break;
        }
        chosen.push(i);
        weight += w;
    }
    chosen
}

/// Algo. 5's first strategy alone: fill by descending utility. Ablation
/// only — can be arbitrarily bad (one huge-utility item may waste the whole
/// budget on little value density-wise).
pub fn select_greedy_utility_only(items: &[Candidate], budget: u64) -> Selection {
    let mut by_utility: Vec<usize> = (0..items.len()).collect();
    by_utility.sort_by(|&a, &b| {
        items[b]
            .utility
            .partial_cmp(&items[a].utility)
            .expect("finite utilities")
    });
    Selection::from_indices(greedy_fill(items, &by_utility, budget), items)
}

/// Algo. 5's second strategy alone: fill by descending density `u/|I|`.
/// Ablation only — can be arbitrarily bad (many dense crumbs may block one
/// item that is almost the whole optimum).
pub fn select_greedy_density_only(items: &[Candidate], budget: u64) -> Selection {
    Selection::from_indices(greedy_fill(items, &by_density(items), budget), items)
}

/// Every item's index, by descending density `u/|I|` (ties in index order).
fn by_density(items: &[Candidate]) -> Vec<usize> {
    let density = |c: &Candidate| c.utility / (c.weight.max(1) as f64);
    let mut order: Vec<usize> = (0..items.len()).collect();
    order.sort_by(|&a, &b| {
        density(&items[b])
            .partial_cmp(&density(&items[a]))
            .expect("finite densities")
    });
    order
}

/// Algo. 5: dual-greedy 0.5-approximation — run both strategies, keep the
/// better set. §4.4 motivates why neither alone suffices; the ablation
/// binary `exp_ablation` and the tests below demonstrate it empirically.
pub fn select_greedy(items: &[Candidate], budget: u64) -> Selection {
    let s1 = select_greedy_utility_only(items, budget);
    let s2 = select_greedy_density_only(items, budget);
    if s1.utility >= s2.utility {
        s1
    } else {
        s2
    }
}

/// Algo. 4: exact 0/1 knapsack DP with `O(N)` memory reconstruction.
///
/// `weight_scale` buckets item weights as `ceil(w / scale)` and the budget as
/// `floor(N / scale)`; scale 1 is exact, larger scales are conservative
/// (never overshoot the true budget) and used for the paper's multi-million
/// budgets. Rounding every weight up can leave a bucketed optimum below
/// Algo. 5's dual greedy, which Theorem 2 (§5.4) rules out for TD-dp; so
/// the better of the two is kept, and the budget the bucketing left over is
/// then filled by density at exact weights. At scale 1 neither step can
/// add utility to the exact optimum.
pub fn select_dp(items: &[Candidate], budget: u64, weight_scale: u32) -> Selection {
    let scale = weight_scale.max(1) as u64;
    let cap = (budget / scale) as usize;
    let scaled: Vec<(usize, u32)> = items
        .iter()
        .enumerate()
        .map(|(i, c)| (i, ((c.weight as u64).div_ceil(scale)) as u32))
        .filter(|&(_, w)| (w as usize) <= cap)
        .collect();
    let mut chosen = Vec::new();
    dp_reconstruct(&scaled, items, cap, &mut chosen);
    let dp = Selection::from_indices(chosen, items);
    let greedy = select_greedy(items, budget);
    let best = if dp.utility >= greedy.utility {
        dp
    } else {
        greedy
    };
    top_up(best, items, budget)
}

/// `sel` plus, by descending density, every other item of positive utility
/// that still fits `budget` at its exact weight.
fn top_up(sel: Selection, items: &[Candidate], budget: u64) -> Selection {
    let mut taken = vec![false; items.len()];
    for &i in &sel.chosen {
        taken[i] = true;
    }
    let (mut chosen, mut weight) = (sel.chosen, sel.weight);
    for i in by_density(items) {
        let w = items[i].weight as u64;
        if !taken[i] && items[i].utility > 0.0 && weight + w <= budget {
            chosen.push(i);
            weight += w;
        }
    }
    Selection::from_indices(chosen, items)
}

/// Divide-and-conquer knapsack reconstruction: `O(cap)` memory,
/// `O(items · cap · log items)` time.
fn dp_reconstruct(scaled: &[(usize, u32)], items: &[Candidate], cap: usize, out: &mut Vec<usize>) {
    match scaled.len() {
        0 => {}
        1 => {
            let (idx, w) = scaled[0];
            if (w as usize) <= cap && items[idx].utility > 0.0 {
                out.push(idx);
            }
        }
        n => {
            let mid = n / 2;
            let (left, right) = scaled.split_at(mid);
            let fwd = dp_row(left, items, cap);
            let bwd = dp_row(right, items, cap);
            // Best split of the capacity between the halves.
            let mut best_c = 0usize;
            let mut best = f64::NEG_INFINITY;
            for c in 0..=cap {
                let v = fwd[c] + bwd[cap - c];
                if v > best {
                    best = v;
                    best_c = c;
                }
            }
            dp_reconstruct(left, items, best_c, out);
            dp_reconstruct(right, items, cap - best_c, out);
        }
    }
}

/// One forward DP row: `row[c]` = max utility of `scaled` within capacity `c`.
fn dp_row(scaled: &[(usize, u32)], items: &[Candidate], cap: usize) -> Vec<f64> {
    let mut row = vec![0.0f64; cap + 1];
    for &(idx, w) in scaled {
        let w = w as usize;
        let u = items[idx].utility;
        if w > cap || u <= 0.0 {
            continue;
        }
        // Iterate capacity downwards (0/1 knapsack).
        for c in (w..=cap).rev() {
            let cand = row[c - w] + u;
            if cand > row[c] {
                row[c] = cand;
            }
        }
    }
    row
}

/// Exponential-time exact reference (tests only; panics above 20 items).
pub fn select_brute_force(items: &[Candidate], budget: u64) -> Selection {
    assert!(items.len() <= 20, "brute force is for tiny test instances");
    let mut best_mask = 0usize;
    let mut best_utility = f64::NEG_INFINITY;
    for mask in 0..(1usize << items.len()) {
        let mut w = 0u64;
        let mut u = 0.0;
        for (i, c) in items.iter().enumerate() {
            if mask & (1 << i) != 0 {
                w += c.weight as u64;
                u += c.utility;
            }
        }
        if w <= budget && u > best_utility {
            best_utility = u;
            best_mask = mask;
        }
    }
    let chosen = (0..items.len())
        .filter(|i| best_mask & (1 << i) != 0)
        .collect();
    Selection::from_indices(chosen, items)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    fn cand(utility: f64, weight: u32) -> Candidate {
        Candidate {
            node: 0,
            ancestor: 0,
            utility,
            weight,
        }
    }

    fn random_instance(rng: &mut StdRng, n: usize) -> (Vec<Candidate>, u64) {
        let items: Vec<Candidate> = (0..n)
            .map(|_| cand(rng.gen_range(0.1..50.0), rng.gen_range(1..30)))
            .collect();
        let total: u64 = items.iter().map(|c| c.weight as u64).sum();
        let budget = rng.gen_range(1..=total.max(2));
        (items, budget)
    }

    #[test]
    fn dp_matches_brute_force_exactly() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..40 {
            let (items, budget) = random_instance(&mut rng, 12);
            let dp = select_dp(&items, budget, 1);
            let bf = select_brute_force(&items, budget);
            assert!(
                (dp.utility - bf.utility).abs() < 1e-9,
                "dp {} vs brute force {} (budget {budget})",
                dp.utility,
                bf.utility
            );
            assert!(dp.weight <= budget);
        }
    }

    #[test]
    fn greedy_respects_half_approximation_bound() {
        let mut rng = StdRng::seed_from_u64(22);
        for _ in 0..60 {
            let (items, budget) = random_instance(&mut rng, 14);
            let opt = select_dp(&items, budget, 1);
            let greedy = select_greedy(&items, budget);
            assert!(greedy.weight <= budget);
            assert!(
                greedy.utility >= 0.5 * opt.utility - 1e-9,
                "greedy {} < ½·OPT {}",
                greedy.utility,
                opt.utility
            );
        }
    }

    #[test]
    fn greedy_picks_the_better_of_the_two_strategies() {
        // One huge-utility huge-weight item vs many dense small items: the
        // density strategy wins; and vice versa.
        let items = vec![cand(100.0, 10), cand(30.0, 1), cand(30.0, 1), cand(30.0, 1)];
        let s = select_greedy(&items, 10);
        // utility-greedy: picks item0 (100); density-greedy: picks 3×30=90
        // then item0 does not fit. Better is 100.
        assert!((s.utility - 100.0).abs() < 1e-9);

        let items = vec![cand(100.0, 10), cand(60.0, 1), cand(60.0, 1), cand(60.0, 1)];
        let s = select_greedy(&items, 10);
        // utility-greedy: 100 (then 60s do not fit: 10+1 > 10 → break).
        // density-greedy: 60,60,60 then 100 does not fit → 180. Better: 180.
        assert!((s.utility - 180.0).abs() < 1e-9, "got {}", s.utility);
    }

    #[test]
    fn dp_weight_scaling_is_conservative() {
        let mut rng = StdRng::seed_from_u64(33);
        for _ in 0..20 {
            let (items, budget) = random_instance(&mut rng, 15);
            let exact = select_dp(&items, budget, 1);
            for scale in [2, 4, 8] {
                let coarse = select_dp(&items, budget, scale);
                assert!(coarse.weight <= budget, "scale {scale} overshoots budget");
                assert!(
                    coarse.utility <= exact.utility + 1e-9,
                    "scaled DP cannot beat exact"
                );
            }
        }
    }

    #[test]
    fn bucketed_dp_never_selects_less_than_the_dual_greedy() {
        let mut rng = StdRng::seed_from_u64(66);
        for _ in 0..40 {
            let (items, budget) = random_instance(&mut rng, 15);
            let greedy = select_greedy(&items, budget);
            for scale in [2, 4, 8, 16] {
                let coarse = select_dp(&items, budget, scale);
                assert!(coarse.weight <= budget, "scale {scale} overshoots budget");
                assert!(
                    coarse.utility >= greedy.utility - 1e-9,
                    "scale {scale}: dp {} < greedy {}",
                    coarse.utility,
                    greedy.utility
                );
                // The top-up left no item that fits the leftover budget.
                let left = budget - coarse.weight;
                for (i, c) in items.iter().enumerate() {
                    let fits = c.weight as u64 <= left;
                    assert!(coarse.chosen.contains(&i) || !fits, "item {i} fits");
                }
            }
        }
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        assert_eq!(select_greedy(&[], 100).chosen.len(), 0);
        assert_eq!(select_dp(&[], 100, 1).chosen.len(), 0);
        // Zero budget selects nothing.
        let items = vec![cand(10.0, 1)];
        assert_eq!(select_greedy(&items, 0).chosen.len(), 0);
        assert_eq!(select_dp(&items, 0, 1).chosen.len(), 0);
        // Item exactly filling the budget is taken.
        let s = select_dp(&[cand(5.0, 7)], 7, 1);
        assert_eq!(s.chosen, vec![0]);
    }

    #[test]
    fn single_strategies_can_each_be_arbitrarily_bad() {
        // Utility-only trap: the max-utility item swallows the budget while
        // dense crumbs would have been ~10x better.
        let crumb_heavy: Vec<Candidate> = std::iter::once(cand(101.0, 100)) // picked first by utility
            .chain((0..100).map(|_| cand(10.0, 1)))
            .collect();
        let u_only = select_greedy_utility_only(&crumb_heavy, 100);
        let d_only = select_greedy_density_only(&crumb_heavy, 100);
        assert!((u_only.utility - 101.0).abs() < 1e-9);
        assert!((d_only.utility - 1000.0).abs() < 1e-9);

        // Density-only trap: one crumb of slightly higher density blocks the
        // near-optimal big item (fill breaks at the first overflow).
        let big_blocked = vec![cand(2.0, 1), cand(100.0, 100)];
        let u_only = select_greedy_utility_only(&big_blocked, 100);
        let d_only = select_greedy_density_only(&big_blocked, 100);
        assert!((d_only.utility - 2.0).abs() < 1e-9, "{}", d_only.utility);
        assert!((u_only.utility - 100.0).abs() < 1e-9);

        // The dual greedy (Algo. 5) takes the better branch in both traps.
        assert!((select_greedy(&crumb_heavy, 100).utility - 1000.0).abs() < 1e-9);
        assert!((select_greedy(&big_blocked, 100).utility - 100.0).abs() < 1e-9);
    }

    #[test]
    fn dual_greedy_never_loses_to_either_strategy() {
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..50 {
            let (items, budget) = random_instance(&mut rng, 15);
            let dual = select_greedy(&items, budget).utility;
            let u = select_greedy_utility_only(&items, budget).utility;
            let d = select_greedy_density_only(&items, budget).utility;
            assert!(dual >= u - 1e-9 && dual >= d - 1e-9);
        }
    }

    #[test]
    fn dp_reconstruction_reports_consistent_totals() {
        let mut rng = StdRng::seed_from_u64(44);
        let (items, budget) = random_instance(&mut rng, 50);
        let s = select_dp(&items, budget, 1);
        let u: f64 = s.chosen.iter().map(|&i| items[i].utility).sum();
        let w: u64 = s.chosen.iter().map(|&i| items[i].weight as u64).sum();
        assert!((u - s.utility).abs() < 1e-9);
        assert_eq!(w, s.weight);
        assert!(w <= budget);
        // chosen indices are unique and sorted
        let mut sorted = s.chosen.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), s.chosen.len());
    }

    #[test]
    fn larger_budget_never_hurts_dp() {
        let mut rng = StdRng::seed_from_u64(55);
        let (items, _) = random_instance(&mut rng, 16);
        let mut prev = 0.0;
        for budget in [5u64, 10, 20, 40, 80, 160] {
            let s = select_dp(&items, budget, 1);
            assert!(
                s.utility >= prev - 1e-9,
                "budget {budget} decreased utility"
            );
            prev = s.utility;
        }
    }
}
