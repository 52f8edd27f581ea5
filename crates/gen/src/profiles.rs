//! Time-dependent travel-time profile synthesis.
//!
//! The paper (§5, following \[17\]) models each edge weight as a piecewise
//! linear function with `c ∈ {2,…,6}` interpolation points per day ("the
//! travel cost of one road segment could be `c` different values one day").
//! We synthesise FIFO profiles with a daily congestion pattern: free-flow at
//! night, morning and evening rush-hour peaks, mild noise — deterministic per
//! seed.

use crate::network::RoadNetwork;
use rand::prelude::*;
use rand::rngs::StdRng;
use td_graph::TdGraph;
use td_plf::{Plf, Pt, DAY};

/// Configuration of the profile generator.
#[derive(Clone, Debug)]
pub struct ProfileConfig {
    /// Interpolation points per edge — the paper's parameter `c` (≥ 1).
    pub points_per_edge: usize,
    /// Peak congestion multiplier at rush hour (≥ 1).
    pub peak_factor: f64,
    /// Relative noise applied to each sampled value.
    pub noise: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ProfileConfig {
    fn default() -> Self {
        ProfileConfig {
            points_per_edge: 3,
            peak_factor: 1.8,
            noise: 0.1,
            seed: 4242,
        }
    }
}

/// Daily congestion multiplier: two tent-shaped rush-hour bumps
/// (08:00 and 17:30) over a baseline of 1.
fn congestion(t: f64, peak: f64) -> f64 {
    let bump = |t: f64, center: f64, width: f64| -> f64 {
        let d = (t - center).abs();
        if d >= width {
            0.0
        } else {
            1.0 - d / width
        }
    };
    let h = 3600.0;
    1.0 + (peak - 1.0) * (bump(t, 8.0 * h, 2.5 * h) + bump(t, 17.5 * h, 3.0 * h)).min(1.0)
}

/// Salient daily instants, in sampling-priority order: night baseline, the
/// two rush-hour peaks, then shoulders. A profile with `c` points samples the
/// first `c`, so *every* `c ≥ 2` captures genuine time dependence ("the
/// travel cost of one road segment could be `c` different values one day").
const SALIENT_HOURS: [f64; 6] = [3.0, 8.0, 17.5, 12.0, 6.0, 20.5];

/// Synthesises a FIFO profile for one edge with free-flow cost `base`.
///
/// Interpolation times are the first `c` salient instants of the day
/// (jittered ±20 min); values sample the congestion curve with noise and are
/// clamped to keep every slope ≥ −0.9 (strictly FIFO). Outside the sampled
/// range Eq. 1 clamps to the earliest/latest value.
pub fn edge_profile(base: f64, cfg: &ProfileConfig, rng: &mut StdRng) -> Plf {
    let c = cfg.points_per_edge.max(1);
    if c == 1 {
        return Plf::constant(base);
    }
    let mut hours: Vec<f64> = SALIENT_HOURS.iter().copied().take(c.min(6)).collect();
    // Beyond 6 points, fill with uniformly spread extras.
    for i in 6..c {
        hours.push((i as f64 * 24.0 / c as f64) % 24.0);
    }
    let mut pts: Vec<Pt> = Vec::with_capacity(c);
    for h in hours {
        let mut t = (h * 3600.0 + rng.gen_range(-1200.0..1200.0)).clamp(0.0, DAY);
        // Keep instants separated after jitter.
        while pts.iter().any(|p| (p.t - t).abs() < 600.0) {
            t = (t + 633.0) % DAY;
        }
        let noise = if cfg.noise > 0.0 {
            1.0 + rng.gen_range(-cfg.noise..cfg.noise)
        } else {
            1.0
        };
        let v = (base * congestion(t, cfg.peak_factor) * noise).max(1.0);
        pts.push(Pt::new(t, v));
    }
    pts.sort_by(|a, b| a.t.partial_cmp(&b.t).expect("finite"));
    // Enforce FIFO: v_{i+1} ≥ v_i − 0.9·Δt (road slopes are tiny vs. a day,
    // so this virtually never binds, but it makes the guarantee a proof).
    for i in 1..pts.len() {
        let dt = pts[i].t - pts[i - 1].t;
        let lo = pts[i - 1].v - 0.9 * dt;
        if pts[i].v < lo {
            pts[i].v = lo.max(0.0);
        }
    }
    Plf::new(pts).expect("synthesised profile is valid")
}

/// Replaces every edge weight of `net.graph` with a synthesised profile; the
/// two directions of a road get independent profiles (asymmetric congestion).
pub fn apply_profiles(net: &RoadNetwork, cfg: &ProfileConfig) -> TdGraph {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut g = net.graph.clone();
    for e in 0..g.num_edges() as u32 {
        let base = g.weight(e).eval(0.0);
        let plf = edge_profile(base, cfg, &mut rng);
        g.set_weight(e, plf)
            .expect("profile is FIFO by construction");
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::RoadNetworkConfig;
    use td_plf::PlfView;

    #[test]
    fn profiles_have_requested_point_count() {
        let mut rng = StdRng::seed_from_u64(1);
        for c in 1..=6 {
            let cfg = ProfileConfig {
                points_per_edge: c,
                ..Default::default()
            };
            let p = edge_profile(100.0, &cfg, &mut rng);
            assert!(p.len() <= c, "c={c}, got {}", p.len());
            assert!(!p.is_empty());
            assert!(p.is_fifo());
        }
    }

    #[test]
    fn profiles_capture_rush_hour_from_c_equals_2() {
        let mut rng = StdRng::seed_from_u64(2);
        for c in 2..=6 {
            let cfg = ProfileConfig {
                points_per_edge: c,
                noise: 0.0,
                ..Default::default()
            };
            let p = edge_profile(60.0, &cfg, &mut rng);
            assert!(p.first().t >= 0.0 && p.last().t <= DAY);
            // The 8am peak must be visibly more expensive than 3am.
            assert!(
                p.eval(8.0 * 3600.0) > p.eval(3.0 * 3600.0) * 1.2,
                "c={c}: peak {} vs night {}",
                p.eval(8.0 * 3600.0),
                p.eval(3.0 * 3600.0)
            );
        }
    }

    #[test]
    fn congestion_peaks_at_rush_hour() {
        let free = congestion(3.0 * 3600.0, 1.8);
        let morning = congestion(8.0 * 3600.0, 1.8);
        let evening = congestion(17.5 * 3600.0, 1.8);
        assert!((free - 1.0).abs() < 1e-12);
        assert!((morning - 1.8).abs() < 1e-12);
        assert!((evening - 1.8).abs() < 1e-12);
    }

    #[test]
    fn apply_profiles_is_deterministic_and_fifo() {
        let net = crate::network::RoadNetwork::generate(&RoadNetworkConfig {
            rows: 8,
            cols: 8,
            ..Default::default()
        });
        let cfg = ProfileConfig::default();
        let g1 = apply_profiles(&net, &cfg);
        let g2 = apply_profiles(&net, &cfg);
        for e in 0..g1.num_edges() as u32 {
            assert!(g1.weight(e).approx_eq(g2.weight(e), 1e-12));
            assert!(g1.weight(e).is_fifo());
            assert!(g1.weight(e).min_value() >= 1.0);
        }
    }

    #[test]
    fn rush_hour_costs_exceed_free_flow() {
        let net = crate::network::RoadNetwork::generate(&RoadNetworkConfig {
            rows: 10,
            cols: 10,
            ..Default::default()
        });
        let cfg = ProfileConfig {
            points_per_edge: 6,
            noise: 0.0,
            ..Default::default()
        };
        let g = apply_profiles(&net, &cfg);
        // On average, the cost around the morning peak must exceed the
        // night-time cost (samples are jittered, so compare the 9-10am band
        // against 3am with a modest margin).
        let (mut rush, mut night) = (0.0, 0.0);
        for e in 0..g.num_edges() as u32 {
            rush += g.weight(e).eval(9.5 * 3600.0);
            night += g.weight(e).eval(3.0 * 3600.0);
        }
        assert!(rush > night * 1.05, "rush={rush} night={night}");
    }
}
