//! Order statistics: the median, the tail-quantile picker and the
//! run-to-run spread the driver judges the benchmark by.

/// Samples that must lie beyond a reported tail quantile (choosing-metrics
/// §1): with fewer, the "p99" would be one of a handful of outliers.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the middle two for an even count).
/// Sorts in place. Panics on an empty slice: a phase that produced no
/// samples is a harness bug, not a zero.
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The quiet quarter of a run's slices. On a shared box interference only
/// ever slows a slice down, and it comes in stretches that can cover half a
/// run, so the median over slices flips between "quiet" and "disturbed"
/// from run to run; the quartile on the fast side is the steadier estimate
/// of the code's own speed (the same reasoning as taking the best of N
/// timings, without resting on a single slice). Nearest rank. Sorts in
/// place; panics on an empty slice like [`median`].
pub fn quiet_quartile(values: &mut [f64], better: Quiet) -> f64 {
    assert!(!values.is_empty(), "quartile of no samples");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    let rank = n.div_ceil(4).clamp(1, n);
    match better {
        Quiet::Low => values[rank - 1],
        Quiet::High => values[n - rank],
    }
}

/// Which side of a distribution is the undisturbed one.
#[derive(Clone, Copy, Debug)]
pub enum Quiet {
    /// Times: lower is quieter.
    Low,
    /// Rates: higher is quieter.
    High,
}

/// Sorted latency samples, in nanoseconds.
pub struct Latencies {
    sorted: Vec<u32>,
}

impl Latencies {
    pub fn new(mut samples: Vec<u32>) -> Latencies {
        samples.sort_unstable();
        Latencies { sorted: samples }
    }

    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    /// The `q`-quantile by nearest rank, in nanoseconds, or `None` when
    /// fewer than [`MIN_BEYOND`] samples lie beyond it (so p99 needs 1 000
    /// samples, p99.9 needs 10 000) or there are no samples at all. The
    /// median (`q <= 0.5`) only needs one sample.
    pub fn quantile_ns(&self, q: f64) -> Option<f64> {
        let n = self.sorted.len();
        if n == 0 {
            return None;
        }
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        if q > 0.5 && n - rank < MIN_BEYOND {
            return None;
        }
        Some(f64::from(self.sorted[rank - 1]))
    }

    /// [`Latencies::quantile_ns`] in microseconds; NaN when the samples
    /// cannot support it, which the report refuses to print as a result.
    pub fn quantile_us(&self, q: f64) -> f64 {
        self.quantile_ns(q).map_or(f64::NAN, |ns| ns / 1e3)
    }
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// computes them (the exclusive method) — the driver's own arithmetic.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut x = values.to_vec();
    x.sort_by(f64::total_cmp);
    let n = x.len();
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Inter-quartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let med = median(&mut values.to_vec());
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut [7.0]), 7.0);
    }

    #[test]
    fn quiet_quartile_takes_the_fast_side_by_nearest_rank() {
        let mut times = [9.0, 1.0, 5.0, 3.0, 7.0, 2.0, 8.0, 4.0];
        assert_eq!(quiet_quartile(&mut times, Quiet::Low), 2.0);
        assert_eq!(quiet_quartile(&mut times, Quiet::High), 8.0);
        // Half the slices disturbed: the quiet quarter does not move.
        let mut disturbed = [1.0, 1.1, 1.0, 1.1, 4.0, 6.0, 5.0, 9.0];
        assert_eq!(quiet_quartile(&mut disturbed, Quiet::Low), 1.0);
        assert_eq!(quiet_quartile(&mut [3.0], Quiet::Low), 3.0);
        assert_eq!(quiet_quartile(&mut [3.0, 1.0, 2.0], Quiet::High), 3.0);
    }

    #[test]
    fn tail_quantile_needs_ten_samples_beyond() {
        let of = |n: u32| Latencies::new((1..=n).collect());
        // 1 000 samples: rank 990 has exactly 10 beyond it.
        assert_eq!(of(1000).quantile_ns(0.99), Some(990.0));
        // 999 samples: rank 990 has 9 beyond it — refused.
        assert_eq!(of(999).quantile_ns(0.99), None);
        assert_eq!(of(10_000).quantile_ns(0.999), Some(9990.0));
        assert_eq!(of(9_999).quantile_ns(0.999), None);
        // The median is always supported once there is a sample.
        assert_eq!(of(1).quantile_ns(0.5), Some(1.0));
        assert_eq!(of(0).quantile_ns(0.5), None);
    }

    #[test]
    fn quantiles_ignore_input_order() {
        let l = Latencies::new(vec![5, 1, 4, 2, 3]);
        assert_eq!(l.quantile_ns(0.5), Some(3.0));
        assert_eq!(l.count(), 5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
