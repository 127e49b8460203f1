//! The three instrument kinds: lock-free handles over shared atomics.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A monotonically increasing counter.
///
/// Cloning shares the underlying atomic: hand one clone to the subsystem
/// that increments and register another into a [`crate::Registry`] — there
/// is still exactly one storage location.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// A fresh counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        // relaxed: single-location RMW; exactness needs atomicity only, and
        // scrapes tolerate observing the count slightly late.
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        // relaxed: a scrape may read a slightly stale count; nothing is
        // ordered after this load.
        self.value.load(Ordering::Relaxed)
    }
}

/// A signed value that can move in both directions (queue depth, in-flight
/// requests). Same handle semantics as [`Counter`].
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    value: Arc<AtomicI64>,
}

impl Gauge {
    /// A fresh gauge at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: i64) {
        // relaxed: last-writer-wins is the intended gauge semantics; no
        // cross-location ordering rides on it.
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative).
    #[inline]
    pub fn add(&self, n: i64) {
        // relaxed: single-location RMW, exact by atomicity alone.
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        // relaxed: scrape-path read; staleness is acceptable.
        self.value.load(Ordering::Relaxed)
    }
}

/// The default log-scale bucket boundaries, in nanoseconds: a 1–2.5–5
/// progression per decade from 100 ns to 1 s. Suited to everything the
/// workspace measures, from a counter bump (~10 ns, underflows into the
/// first bucket) to a lossy TCP round trip with retries (~100 ms).
pub fn default_latency_buckets() -> Vec<u64> {
    let mut buckets = Vec::with_capacity(22);
    let mut decade: u64 = 100;
    while decade <= 500_000_000 {
        buckets.push(decade);
        buckets.push(decade.saturating_mul(25) / 10);
        buckets.push(decade * 5);
        decade *= 10;
    }
    buckets.push(1_000_000_000);
    buckets.sort_unstable();
    buckets.dedup();
    buckets
}

/// `count` boundaries starting at `start`, each `factor` times the previous
/// (rounded up so the sequence is strictly increasing even for small
/// factors). Panics if `start == 0`, `factor < 2` or `count == 0`.
pub fn exponential_buckets(start: u64, factor: u64, count: usize) -> Vec<u64> {
    assert!(start > 0, "exponential_buckets: start must be positive");
    assert!(
        factor >= 2,
        "exponential_buckets: factor must be at least 2"
    );
    assert!(count > 0, "exponential_buckets: count must be positive");
    let mut buckets = Vec::with_capacity(count);
    let mut next = start;
    for _ in 0..count {
        buckets.push(next);
        next = next.saturating_mul(factor);
    }
    buckets.dedup();
    buckets
}

struct HistogramInner {
    /// Inclusive upper bounds (`le`), strictly increasing.
    boundaries: Vec<u64>,
    /// Per-range counts, *not* cumulative: `counts[i]` counts observations
    /// in `(boundaries[i-1], boundaries[i]]` (the first range starts at 0,
    /// so values below the first boundary — the "underflow" — land in
    /// `counts[0]`); `counts[boundaries.len()]` is the overflow bucket.
    counts: Vec<AtomicU64>,
    /// Sum of every observed value.
    sum: AtomicU64,
}

/// A fixed-boundary histogram of `u64` observations (latencies in
/// nanoseconds by convention, but any unit works — batch sizes use counts).
///
/// `observe` is one binary search plus two relaxed `fetch_add`s; there is no
/// lock anywhere. Boundaries are inclusive upper bounds, matching the
/// Prometheus `le` semantics exactly: an observation equal to a boundary
/// falls in that boundary's bucket.
#[derive(Clone)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.snapshot();
        f.debug_struct("Histogram")
            .field("buckets", &snap.boundaries.len())
            .field("count", &snap.count)
            .field("sum", &snap.sum)
            .finish()
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// A histogram with the [`default_latency_buckets`].
    pub fn new() -> Self {
        Histogram::with_buckets(default_latency_buckets())
    }

    /// A histogram with custom inclusive upper bounds. Panics if
    /// `boundaries` is empty or not strictly increasing.
    pub fn with_buckets(boundaries: Vec<u64>) -> Self {
        assert!(
            !boundaries.is_empty(),
            "histogram needs at least one bucket"
        );
        assert!(
            boundaries.windows(2).all(|w| w[0] < w[1]),
            "histogram boundaries must be strictly increasing"
        );
        let counts = (0..=boundaries.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            inner: Arc::new(HistogramInner {
                boundaries,
                counts,
                sum: AtomicU64::new(0),
            }),
        }
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&self, value: u64) {
        // partition_point returns the count of boundaries strictly below
        // `value`, i.e. the index of the first boundary >= value — exactly
        // the inclusive-upper-bound bucket. Values above every boundary
        // index one past the end: the overflow bucket.
        let idx = self.inner.boundaries.partition_point(|&b| b < value);
        // relaxed: bucket and sum are updated by independent RMWs; a scrape
        // between the two sees a histogram whose sum lags by one
        // observation, which the exposition format tolerates by design.
        self.inner.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.inner.sum.fetch_add(value, Ordering::Relaxed); // relaxed: see above
    }

    /// Records a duration as nanoseconds (saturating at `u64::MAX`).
    #[inline]
    pub fn observe_duration(&self, d: Duration) {
        self.observe(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.inner
            .counts
            .iter()
            // relaxed: scrape-path read; see `snapshot`.
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Sum of every observed value.
    pub fn sum(&self) -> u64 {
        // relaxed: scrape-path read; see `snapshot`.
        self.inner.sum.load(Ordering::Relaxed)
    }

    /// Estimated `q`-quantile of the observed distribution — see
    /// [`HistogramSnapshot::quantile`].
    pub fn quantile(&self, q: f64) -> Option<f64> {
        self.snapshot().quantile(q)
    }

    /// A point-in-time copy of boundaries, per-range counts (including the
    /// trailing overflow bucket), sum and count. Under concurrent writers
    /// the snapshot is a consistent-enough cut: each field is read once,
    /// atomically.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self
            .inner
            .counts
            .iter()
            // relaxed: each bucket is read once, atomically; the snapshot
            // is documented as a consistent-enough cut, not a linearizable
            // one, so no cross-bucket ordering is required.
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        HistogramSnapshot {
            boundaries: self.inner.boundaries.clone(),
            count: counts.iter().sum(),
            sum: self.inner.sum.load(Ordering::Relaxed), // relaxed: see above
            counts,
        }
    }
}

/// A point-in-time view of a [`Histogram`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Inclusive upper bounds, strictly increasing.
    pub boundaries: Vec<u64>,
    /// Per-range counts; `counts.len() == boundaries.len() + 1`, the last
    /// entry being the overflow bucket.
    pub counts: Vec<u64>,
    /// Sum of observations.
    pub sum: u64,
    /// Number of observations.
    pub count: u64,
}

impl HistogramSnapshot {
    /// Cumulative count at each boundary plus the `+Inf` total — the shape
    /// Prometheus `_bucket` series report.
    pub fn cumulative(&self) -> Vec<u64> {
        let mut total = 0;
        self.counts
            .iter()
            .map(|c| {
                total += c;
                total
            })
            .collect()
    }

    /// Estimated `q`-quantile (`0.0 ..= 1.0`) by linear interpolation within
    /// the bucket holding the target rank — the classic Prometheus
    /// `histogram_quantile` estimator. The first bucket interpolates from 0;
    /// a rank landing in the overflow bucket clamps to the last boundary
    /// (the histogram carries no upper bound to interpolate towards).
    /// `None` for an empty histogram or a `q` outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        // The rank of the target observation, 1-based; q = 0 means the
        // smallest recorded observation's bucket.
        let rank = (q * self.count as f64).max(1.0);
        let mut below = 0u64;
        for (i, &bucket_count) in self.counts.iter().enumerate() {
            if bucket_count == 0 {
                below += bucket_count;
                continue;
            }
            let upto = below + bucket_count;
            if (upto as f64) >= rank {
                if i >= self.boundaries.len() {
                    // Overflow bucket: clamp to the largest finite boundary.
                    return Some(*self.boundaries.last().expect("non-empty boundaries") as f64);
                }
                let lower = if i == 0 {
                    0.0
                } else {
                    self.boundaries[i - 1] as f64
                };
                let upper = self.boundaries[i] as f64;
                let within = (rank - below as f64) / bucket_count as f64;
                return Some(lower + (upper - lower) * within);
            }
            below = upto;
        }
        Some(*self.boundaries.last().expect("non-empty boundaries") as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let clone = c.clone();
        clone.inc();
        assert_eq!(c.get(), 6, "clones share the atomic");
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = Gauge::new();
        g.set(5);
        g.add(-7);
        assert_eq!(g.get(), -2);
    }

    #[test]
    fn default_buckets_are_strictly_increasing_and_span_ns_to_s() {
        let b = default_latency_buckets();
        assert!(b.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(*b.first().unwrap(), 100);
        assert_eq!(*b.last().unwrap(), 1_000_000_000);
    }

    #[test]
    fn exponential_buckets_grow() {
        assert_eq!(exponential_buckets(1, 4, 4), vec![1, 4, 16, 64]);
    }

    #[test]
    fn histogram_bucket_edges() {
        let h = Histogram::with_buckets(vec![10, 100, 1000]);
        // Underflow: below the first boundary lands in the first bucket.
        h.observe(0);
        h.observe(9);
        // Exact boundary values are inclusive (`le` semantics).
        h.observe(10);
        h.observe(100);
        h.observe(1000);
        // One past a boundary falls in the next bucket.
        h.observe(11);
        h.observe(101);
        // Overflow.
        h.observe(1001);
        h.observe(u64::MAX);
        let snap = h.snapshot();
        assert_eq!(snap.counts, vec![3, 2, 2, 2]);
        assert_eq!(snap.count, 9);
        assert_eq!(snap.cumulative(), vec![3, 5, 7, 9]);
        // The sum atomic wraps on overflow (fetch_add semantics).
        assert_eq!(
            snap.sum,
            (9u64 + 10 + 100 + 1000 + 11 + 101 + 1001).wrapping_add(u64::MAX)
        );
    }

    #[test]
    fn concurrent_increments_are_exact() {
        let c = Counter::new();
        let g = Gauge::new();
        let h = Histogram::with_buckets(vec![8, 64]);
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 10_000;
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let c = c.clone();
                let g = g.clone();
                let h = h.clone();
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        c.inc();
                        g.add(1);
                        h.observe((t as u64 + i) % 100);
                    }
                });
            }
        });
        let expected = THREADS as u64 * PER_THREAD;
        assert_eq!(c.get(), expected);
        assert_eq!(g.get(), expected as i64);
        let snap = h.snapshot();
        assert_eq!(snap.count, expected);
        assert_eq!(snap.counts.iter().sum::<u64>(), expected);
        let sum: u64 = (0..THREADS as u64)
            .flat_map(|t| (0..PER_THREAD).map(move |i| (t + i) % 100))
            .sum();
        assert_eq!(snap.sum, sum, "lost sum update");
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_boundaries_panic() {
        Histogram::with_buckets(vec![10, 10]);
    }

    #[test]
    fn quantile_interpolates_within_buckets() {
        let h = Histogram::with_buckets(vec![10, 20, 40]);
        // 10 observations spread evenly through (10, 20].
        for _ in 0..10 {
            h.observe(15);
        }
        // Median rank 5 of 10 lands halfway through the second bucket.
        let p50 = h.quantile(0.5).unwrap();
        assert!((p50 - 15.0).abs() < 1e-9, "p50 = {p50}");
        // p100 interpolates to the bucket's upper bound.
        let p100 = h.quantile(1.0).unwrap();
        assert!((p100 - 20.0).abs() < 1e-9, "p100 = {p100}");
    }

    #[test]
    fn quantile_spans_buckets_and_clamps_overflow() {
        let h = Histogram::with_buckets(vec![10, 100]);
        for _ in 0..90 {
            h.observe(5); // first bucket
        }
        for _ in 0..9 {
            h.observe(50); // second bucket
        }
        h.observe(1_000_000); // overflow
        let p50 = h.quantile(0.5).unwrap();
        assert!(p50 <= 10.0, "p50 within the first bucket, got {p50}");
        let p95 = h.quantile(0.95).unwrap();
        assert!((10.0..=100.0).contains(&p95), "p95 = {p95}");
        // The overflow bucket clamps to the last finite boundary.
        assert_eq!(h.quantile(1.0).unwrap(), 100.0);
    }

    #[test]
    fn quantile_edge_cases() {
        let h = Histogram::with_buckets(vec![10]);
        assert_eq!(h.quantile(0.5), None, "empty histogram");
        h.observe(3);
        assert!(h.quantile(-0.1).is_none());
        assert!(h.quantile(1.1).is_none());
        assert!(h.quantile(0.0).is_some());
    }
}
