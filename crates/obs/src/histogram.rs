//! Lock-free log2-bucketed histograms.
//!
//! Counters answer "how often"; histograms answer "how big". Each
//! [`Histogram`] is a fixed array of 65 relaxed atomic buckets — one
//! for the value `0`, then one per leading-bit position, so bucket `i`
//! (for `i ≥ 1`) covers `[2^(i-1), 2^i − 1]` and `u64::MAX` lands in
//! bucket 64 — plus a running sum and min/max watermarks. Recording is
//! a handful of relaxed RMWs (no locks, no allocation). The
//! process-wide [`histograms`] registry records once per operation or
//! appended batch, never per output row, so it stays on in release
//! builds alongside the counter registry; the `obs_overhead` bench
//! folds its cost into the same ≤ 2% budget.
//!
//! ```
//! use aarray_obs::{histograms, Hist};
//!
//! let before = histograms().get(Hist::DispatchFlops).snapshot();
//! histograms().record(Hist::DispatchFlops, 12);
//! let delta = histograms().get(Hist::DispatchFlops).snapshot().since(&before);
//! assert!(delta.count() >= 1);
//! ```

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets: one for zero plus one per leading-bit position.
pub const N_BUCKETS: usize = 65;

/// Value distributions tracked by the process-wide registry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Hist {
    /// Flops estimate per dispatch decision / plan construction.
    DispatchFlops,
    /// Edges per appended batch at `IncidenceBuilder::append_batch`.
    DeltaBatchEdges,
}

const N_HISTS: usize = Hist::DeltaBatchEdges as usize + 1;

/// Every histogram with its report label, in enum order.
pub const HIST_NAMES: [(Hist, &str); N_HISTS] = [
    (Hist::DispatchFlops, "dispatch.flops"),
    (Hist::DeltaBatchEdges, "delta.batch-edges"),
];

/// Bucket index of a value: 0 for 0, else `floor(log2 v) + 1`.
#[inline]
pub fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive upper bound of bucket `i` (the value reported for
/// quantiles that land in it).
pub fn bucket_upper(i: usize) -> u64 {
    match i {
        0 => 0,
        64 => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

/// A lock-free log2-bucketed histogram. See the [module docs](self).
pub struct Histogram {
    buckets: [AtomicU64; N_BUCKETS],
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// A fresh, empty histogram.
    pub const fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Histogram {
            buckets: [ZERO; N_BUCKETS],
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        // Wrapping on overflow: a sum past 2^64 ns is ~584 years.
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Zero every bucket and watermark. As with the counter registry,
    /// concurrent recording may survive a reset; prefer snapshot diffs.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }

    /// Capture bucket counts, sum, and watermarks.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut s = HistogramSnapshot::default();
        for i in 0..N_BUCKETS {
            s.buckets[i] = self.buckets[i].load(Ordering::Relaxed);
        }
        s.sum = self.sum.load(Ordering::Relaxed);
        s.min = self.min.load(Ordering::Relaxed);
        s.max = self.max.load(Ordering::Relaxed);
        s
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// Point-in-time copy of a [`Histogram`] — also the diff type
/// ([`HistogramSnapshot::since`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (see [`bucket_upper`]).
    pub buckets: [u64; N_BUCKETS],
    /// Sum of all recorded values (wrapping).
    pub sum: u64,
    /// Smallest recorded value (`u64::MAX` when empty).
    pub min: u64,
    /// Largest recorded value (`0` when empty).
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; N_BUCKETS],
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Total observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Whether no observations were recorded.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Bucket-wise difference `self − earlier` (saturating). Watermarks
    /// carry over from `self` — they are not differentiable.
    pub fn since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut d = self.clone();
        for i in 0..N_BUCKETS {
            d.buckets[i] = self.buckets[i].saturating_sub(earlier.buckets[i]);
        }
        d.sum = self.sum.wrapping_sub(earlier.sum);
        d
    }

    /// Upper-bound estimate of the `q`-quantile (`0.0 ≤ q ≤ 1.0`):
    /// the inclusive upper edge of the bucket holding the rank-`⌈qN⌉`
    /// observation. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(i);
            }
        }
        bucket_upper(N_BUCKETS - 1)
    }

    /// Upper-bound estimate of the median.
    pub fn median(&self) -> u64 {
        self.quantile(0.5)
    }
}

/// The process-wide histogram table. Obtain via [`histograms`].
pub struct HistRegistry {
    hists: [Histogram; N_HISTS],
}

impl HistRegistry {
    const fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const EMPTY: Histogram = Histogram::new();
        HistRegistry {
            hists: [EMPTY; N_HISTS],
        }
    }

    /// Record `v` into histogram `h`.
    #[inline]
    pub fn record(&self, h: Hist, v: u64) {
        self.hists[h as usize].record(v);
    }

    /// The underlying histogram for `h`.
    pub fn get(&self, h: Hist) -> &Histogram {
        &self.hists[h as usize]
    }

    /// Snapshot every histogram, in [`HIST_NAMES`] order.
    pub fn snapshot_all(&self) -> Vec<HistogramSnapshot> {
        self.hists.iter().map(Histogram::snapshot).collect()
    }

    /// Zero every histogram.
    pub fn reset(&self) {
        for h in &self.hists {
            h.reset();
        }
    }
}

static HISTOGRAMS: HistRegistry = HistRegistry::new();

/// The process-wide [`HistRegistry`].
#[inline]
pub fn histograms() -> &'static HistRegistry {
    &HISTOGRAMS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of((1 << 16) - 1), 16);
        assert_eq!(bucket_of(1 << 16), 17);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    #[test]
    fn zero_and_max_round_trip() {
        let h = Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.count(), 2);
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[64], 1);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, u64::MAX);
        // Sum wraps: 0 + MAX = MAX.
        assert_eq!(s.sum, u64::MAX);
    }

    #[test]
    fn boundary_values_split_buckets() {
        let h = Histogram::new();
        for v in [1u64, 2, 3, 4, 7, 8] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.buckets[1], 1, "[1,1]");
        assert_eq!(s.buckets[2], 2, "[2,3]");
        assert_eq!(s.buckets[3], 2, "[4,7]");
        assert_eq!(s.buckets[4], 1, "[8,15]");
        assert_eq!(s.sum, 25);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 8);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        use std::sync::Arc;
        let h = Arc::new(Histogram::new());
        let threads = 8;
        let per_thread = 10_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        h.record(t * per_thread + i);
                    }
                })
            })
            .collect();
        for j in handles {
            j.join().unwrap();
        }
        let s = h.snapshot();
        assert_eq!(s.count(), threads * per_thread);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, threads * per_thread - 1);
        // Sum of 0..N-1.
        let n = threads * per_thread;
        assert_eq!(s.sum, n * (n - 1) / 2);
    }

    #[test]
    fn quantiles_report_bucket_upper_bounds() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        // Rank 50 lands in bucket [32,63].
        assert_eq!(s.median(), 63);
        assert_eq!(s.quantile(1.0), 127);
        assert_eq!(s.quantile(0.0), 1, "rank clamps to the first value");
        assert_eq!(HistogramSnapshot::default().median(), 0);
    }

    #[test]
    fn since_diffs_buckets() {
        let h = Histogram::new();
        h.record(7);
        let before = h.snapshot();
        h.record(7);
        h.record(9);
        let d = h.snapshot().since(&before);
        assert_eq!(d.count(), 2);
        assert_eq!(d.buckets[3], 1); // 7 ∈ [4,7]
        assert_eq!(d.buckets[4], 1); // 9 ∈ [8,15]
        assert_eq!(d.sum, 16);
    }

    #[test]
    fn names_are_in_enum_order() {
        for (i, (h, _)) in HIST_NAMES.iter().enumerate() {
            assert_eq!(*h as usize, i, "HIST_NAMES[{}] out of order", i);
        }
    }
}
