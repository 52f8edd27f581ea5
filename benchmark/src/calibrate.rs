//! Drift compensation for CPU-bound timings.
//!
//! The boxes this benchmark runs on are small shared VMs whose cores speed
//! up and slow down by 30–80 % in plateaus of seconds to minutes (a
//! neighbour on the sibling hyperthread): a fixed arithmetic loop sampled
//! for a minute reads anywhere between 38 and 70 ms. Medians inside a 10 s
//! run cannot average a plateau away, so every CPU-bound timing is taken in
//! short slices, each next to a run of a fixed **reference kernel** — eight
//! independent multiply–add chains, the benchmark's own code, touching no
//! memory and no repository code — and scaled by
//! `NOMINAL_NS / kernel time`: the slice's time *at the reference speed*.
//! A high-IPC kernel tracks the interference best: over 300 s, scaling by
//! it cut the spread of 10-second-window medians from 7–10 % to 3–6 % and
//! their range from 26–40 % to 11–16 % on all three query kinds.
//!
//! A change to the repository cannot move the kernel, so a regression in the
//! code under test still shows in full. Timer-paced and multi-threaded
//! phases (the `serve_live` workload) are not scaled: their times are not
//! proportional to one core's speed.

use std::hint::black_box;
use std::time::Instant;

/// Multiply–add steps per chain in one kernel run.
const STEPS: u64 = 100_000;
/// One kernel run on a quiet core of the box the benchmark was sized on
/// (Xeon @ 2.1 GHz, 2 vCPUs). It only fixes the unit: reported times are
/// times at the speed where the kernel takes this long.
pub const NOMINAL_NS: f64 = 210_000.0;
/// Kernel runs per reading; the fastest is kept (interference only slows).
const RUNS: usize = 3;

/// Eight independent linear-congruential chains: high instruction-level
/// parallelism, no memory traffic.
pub fn kernel() -> u64 {
    let mut x: [u64; 8] = [1, 2, 3, 4, 5, 6, 7, 8];
    for i in 0..black_box(STEPS) {
        for (k, lane) in x.iter_mut().enumerate() {
            *lane = lane
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(i ^ k as u64);
        }
    }
    x.iter().fold(0, |a, b| a ^ b)
}

/// This core's speed right now, relative to the reference speed: below 1
/// when it is running slow. Costs about three quarters of a millisecond.
pub fn speed() -> f64 {
    let fastest_ns = (0..RUNS)
        .map(|_| {
            let t0 = Instant::now();
            black_box(kernel());
            t0.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min);
    NOMINAL_NS / fastest_ns
}

/// Speed readings at the edges of consecutive slices: each slice is scaled
/// by the mean of the reading before it and the reading after it, and the
/// reading after one slice is the reading before the next.
pub struct SpeedGauge {
    edge: f64,
}

impl SpeedGauge {
    pub fn start() -> SpeedGauge {
        SpeedGauge { edge: speed() }
    }

    /// Ends a slice: the mean speed over it.
    pub fn lap(&mut self) -> f64 {
        let after = speed();
        let mean = (self.edge + after) / 2.0;
        self.edge = after;
        mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_speed_is_a_sane_ratio() {
        assert_eq!(kernel(), kernel());
        let s = speed();
        // Debug builds run the kernel several times slower than nominal.
        assert!(s.is_finite() && s > 0.001 && s < 100.0, "{s}");
        let mut gauge = SpeedGauge::start();
        assert!(gauge.lap() > 0.0);
    }
}
