//! Core metric primitives: sharded [`Counter`], [`Gauge`], and the
//! log-bucketed [`Histogram`].
//!
//! Every write-side operation is a handful of `Relaxed` atomic ops on a
//! cache-line-padded shard owned (by convention) by one worker thread, so
//! the serving hot path never contends on a shared line. A writer names its
//! shard (`add_shard`, `observe_shard`) or writes its thread's
//! ([`set_thread_shard`]; shard 0 for a thread that claimed none). Reads
//! (scrapes) merge all shards by addition; they are racy snapshots, which
//! is exactly what a monitoring scrape wants.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Number of write shards per metric. Power of two; shard selection masks
/// with `SHARDS - 1`, so any worker index is a valid shard argument.
pub const SHARDS: usize = 8;

/// Number of log₂ buckets in a [`Histogram`]. Bucket `k` holds observations
/// `v` with `2^k <= v < 2^(k+1)` (bucket 0 also holds `v == 0`), covering
/// the full `u64` range: nothing ever falls outside the array.
pub const BUCKETS: usize = 64;

thread_local! {
    static THREAD_SHARD: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Claims `shard` for the calling thread: its `add` / `inc` / `observe`
/// writes land there from now on, as do the queries a one-thread
/// `ParallelExecutor` runs on it. A long-lived worker that shares metrics
/// with other workers claims its own shard once, at start; every other
/// thread writes shard 0.
pub fn set_thread_shard(shard: usize) {
    THREAD_SHARD.with(|s| s.set(shard));
}

/// The calling thread's shard: what it claimed with [`set_thread_shard`],
/// or 0.
#[inline]
pub fn thread_shard() -> usize {
    THREAD_SHARD.with(std::cell::Cell::get)
}

/// One cache line worth of counter cell, so neighbouring shards never share
/// a line.
#[derive(Default)]
#[repr(align(64))]
struct Cell(AtomicU64);

/// Monotonic counter, sharded per worker.
///
/// `add`/`inc` write the calling thread's shard ([`thread_shard`]: 0 unless
/// the thread claimed one); a pool of scoped workers passes each worker's
/// index to `add_shard(worker, n)`, so concurrent queries never touch the
/// same cache line.
#[derive(Default)]
pub struct Counter {
    cells: [Cell; SHARDS],
}

impl Counter {
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds `n` on the calling thread's shard.
    #[inline]
    pub fn add(&self, n: u64) {
        self.add_shard(thread_shard(), n);
    }

    /// Increments the calling thread's shard.
    #[inline]
    pub fn inc(&self) {
        self.add_shard(thread_shard(), 1);
    }

    /// Adds `n` on the caller's shard (any `usize` is valid; masked).
    #[inline]
    pub fn add_shard(&self, shard: usize, n: u64) {
        self.cells[shard & (SHARDS - 1)]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Scrape-time readout: the sum over all shards.
    pub fn get(&self) -> u64 {
        self.cells.iter().map(|c| c.0.load(Ordering::Relaxed)).sum()
    }
}

/// Last-write-wins gauge (e.g. the live epoch). Set semantics do not merge,
/// so the gauge is a single padded cell rather than a sharded family.
#[derive(Default)]
#[repr(align(64))]
pub struct Gauge {
    cell: AtomicI64,
}

impl Gauge {
    pub fn new() -> Gauge {
        Gauge::default()
    }

    #[inline]
    pub fn set(&self, v: i64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: i64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// One worker's slice of a histogram. Padded so shards on adjacent workers
/// never false-share.
#[repr(align(64))]
struct HistShard {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl HistShard {
    fn new() -> HistShard {
        HistShard {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// Index of the log₂ bucket holding `v`: `floor(log2(max(v, 1)))`.
#[inline]
pub fn bucket_of(v: u64) -> usize {
    (63 - (v | 1).leading_zeros()) as usize
}

/// Upper bound (inclusive, in raw ticks) of bucket `k`: `2^(k+1) - 1`.
/// Saturates at `u64::MAX` for the top bucket.
#[inline]
pub fn bucket_bound(k: usize) -> u64 {
    if k >= BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << (k + 1)) - 1
    }
}

/// Log₂-bucketed histogram over `u64` ticks (by convention nanoseconds for
/// `*_seconds` families), sharded per worker like [`Counter`].
///
/// An observation is three `Relaxed` ops: bucket `fetch_add`, sum
/// `fetch_add`, and a `fetch_max` keeping the exact maximum. Quantiles are
/// estimated at scrape time from bucket upper bounds ([`HistSnapshot`]);
/// the max is exact.
pub struct Histogram {
    shards: [HistShard; SHARDS],
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram {
            shards: std::array::from_fn(|_| HistShard::new()),
        }
    }

    /// Records `v` on the calling thread's shard.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.observe_shard(thread_shard(), v);
    }

    /// Records `v` on the caller's shard (any `usize` is valid; masked).
    #[inline]
    pub fn observe_shard(&self, shard: usize, v: u64) {
        let s = &self.shards[shard & (SHARDS - 1)];
        s.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        s.sum.fetch_add(v, Ordering::Relaxed);
        s.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Scrape-time readout: all shards merged by addition (max by max).
    pub fn snapshot(&self) -> HistSnapshot {
        let mut out = HistSnapshot::default();
        for s in &self.shards {
            for (k, b) in s.buckets.iter().enumerate() {
                out.buckets[k] += b.load(Ordering::Relaxed);
            }
            out.sum = out.sum.wrapping_add(s.sum.load(Ordering::Relaxed));
            out.max = out.max.max(s.max.load(Ordering::Relaxed));
        }
        out
    }
}

/// A merged, read-only view of a [`Histogram`]: plain `u64` buckets that
/// merge by addition, plus exact sum and max. A snapshot is cumulative —
/// everything observed since the histogram was created. Scrapes and
/// reports read it; no control decision does.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistSnapshot {
    pub buckets: [u64; BUCKETS],
    pub sum: u64,
    pub max: u64,
}

impl Default for HistSnapshot {
    fn default() -> HistSnapshot {
        HistSnapshot {
            buckets: [0; BUCKETS],
            sum: 0,
            max: 0,
        }
    }
}

impl HistSnapshot {
    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Merges another snapshot into this one (bucket-wise addition).
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += *b;
        }
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Estimated `q`-quantile (`0.0 ..= 1.0`) in raw ticks: the upper bound
    /// of the bucket containing the rank-`ceil(q * count)` observation,
    /// clamped by the exact max. Returns 0 with no observations.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut cum = 0u64;
        for (k, b) in self.buckets.iter().enumerate() {
            cum += b;
            if cum >= rank {
                return bucket_bound(k).min(self.max);
            }
        }
        self.max
    }

    /// Convenience p50/p95/p99/max readout, in raw ticks.
    pub fn percentiles(&self) -> [u64; 4] {
        [
            self.quantile(0.50),
            self.quantile(0.95),
            self.quantile(0.99),
            self.max,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_of_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(u64::MAX), 63);
        for k in 0..63 {
            assert_eq!(bucket_of(1u64 << k), k as usize);
            assert_eq!(bucket_of((1u64 << (k + 1)) - 1), k as usize);
        }
    }

    #[test]
    fn counter_shards_sum() {
        let c = Counter::new();
        c.inc();
        c.add_shard(3, 10);
        c.add_shard(3 + SHARDS, 10); // masked onto the same shard
        assert_eq!(c.get(), 21);
    }

    /// A thread that claimed a shard writes it with `inc` / `add` /
    /// `observe`; a thread that claimed none writes shard 0.
    #[test]
    fn unsharded_writes_land_on_the_thread_shard() {
        let c = Counter::new();
        let h = Histogram::new();
        std::thread::scope(|s| {
            s.spawn(|| {
                assert_eq!(thread_shard(), 0);
                c.inc();
                h.observe(7);
            });
            s.spawn(|| {
                set_thread_shard(3 + SHARDS);
                assert_eq!(thread_shard(), 3 + SHARDS);
                c.add(5);
                h.observe(9);
            });
        });
        let cells: Vec<u64> = c
            .cells
            .iter()
            .map(|c| c.0.load(Ordering::Relaxed))
            .collect();
        assert_eq!(cells, [1, 0, 0, 5, 0, 0, 0, 0]);
        let counts: Vec<u64> = h
            .shards
            .iter()
            .map(|s| s.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum())
            .collect();
        assert_eq!(counts, [1, 0, 0, 1, 0, 0, 0, 0]);
        assert_eq!(h.shards[3].sum.load(Ordering::Relaxed), 9);
    }

    #[test]
    fn gauge_set_and_add() {
        let g = Gauge::new();
        g.set(5);
        g.add(-2);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn histogram_quantiles_track_bounds() {
        let h = Histogram::new();
        for v in [100u64, 200, 300, 400, 1000] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 5);
        assert_eq!(s.sum, 2000);
        assert_eq!(s.max, 1000);
        // p50 rank 3 -> value 300, bucket [256, 512) -> bound 511.
        assert_eq!(s.quantile(0.5), 511);
        // p99 rank 5 -> value 1000, bucket [1024)?? 1000 is in [512, 1024)
        // -> bound 1023, clamped by max -> 1000.
        assert_eq!(s.quantile(0.99), 1000);
    }

    #[test]
    fn histogram_shard_merge_equals_single_shard() {
        let a = Histogram::new();
        let b = Histogram::new();
        for (i, v) in (0..100u64).map(|i| (i, i * i)) {
            a.observe_shard(i as usize, v);
            b.observe(v);
        }
        assert_eq!(a.snapshot(), b.snapshot());
    }
}
