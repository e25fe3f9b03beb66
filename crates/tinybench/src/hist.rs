//! Shared latency-histogram and percentile machinery.
//!
//! Every latency-reporting harness in the workspace needs the same three
//! things: a merge-able histogram cheap enough to absorb millions of
//! samples, bounded-error quantiles, and a compact tail summary
//! (p50/p99/p999/mean). This module is the single home for that
//! machinery — `sim_core::stats::Histogram` wraps [`LatencyHist`] with
//! `Duration`-typed accessors, and the kvs Fig. 8 tail reports and the
//! `sim_core::traffic` per-flow statistics both reduce through
//! [`TailSummary`].
//!
//! The histogram is log-bucketed: 64 power-of-two ranges each subdivided
//! into 32 linear sub-buckets, giving ≤ ~3% relative quantile error.
//! Values are raw `u64`s (the workspace records picoseconds), so the
//! module stays dependency-free and usable from any crate.

/// Number of linear sub-buckets per power-of-two range (as a bit count).
const SUB_BITS: u32 = 5;
/// Number of linear sub-buckets per power-of-two range.
const SUBS: usize = 1 << SUB_BITS;

/// Log-bucketed histogram over `u64` values (picoseconds by convention)
/// with bounded relative error.
///
/// # Examples
///
/// ```
/// use tinybench::hist::LatencyHist;
///
/// let mut h = LatencyHist::new();
/// for us in 1..=1000u64 {
///     h.record(us * 1_000_000); // microseconds as picoseconds
/// }
/// let p99 = h.percentile(99.0) as f64;
/// let exact = 990.0e6;
/// assert!((p99 - exact).abs() / exact < 0.05);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHist {
    /// counts[msb * SUBS + sub] where msb indexes the position of the
    /// highest set bit of the value and sub the next SUB_BITS bits.
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    max: u64,
}

impl LatencyHist {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHist {
            counts: vec![0; 64 * SUBS],
            total: 0,
            sum: 0,
            max: 0,
        }
    }

    fn index(v: u64) -> usize {
        if v < SUBS as u64 {
            return v as usize;
        }
        let msb = 63 - v.leading_zeros();
        let sub = ((v >> (msb - SUB_BITS)) & (SUBS as u64 - 1)) as usize;
        (msb as usize) * SUBS + sub
    }

    fn bucket_value(idx: usize) -> u64 {
        if idx < SUBS {
            return idx as u64;
        }
        let msb = (idx / SUBS) as u32;
        let sub = (idx % SUBS) as u64;
        // Midpoint of the bucket's range.
        let base = 1u64 << msb;
        let step = 1u64 << (msb - SUB_BITS);
        base + sub * step + step / 2
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::index(v)] += 1;
        self.total += 1;
        self.sum += v as u128;
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// True if no samples were recorded.
    pub(crate) fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Mean sample value, or zero if empty.
    pub fn mean(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            (self.sum / self.total as u128) as u64
        }
    }

    /// Largest recorded sample (exact).
    ///
    /// # Panics
    ///
    /// Panics if empty.
    pub fn max(&self) -> u64 {
        assert!(self.total > 0, "max of empty histogram");
        self.max
    }

    /// The `p`-th percentile with bounded relative error.
    ///
    /// # Panics
    ///
    /// Panics if empty or `p` not in `(0, 100]`.
    pub fn percentile(&self, p: f64) -> u64 {
        assert!(self.total > 0, "percentile of empty histogram");
        assert!(p > 0.0 && p <= 100.0, "percentile must be in (0, 100]");
        let rank = ((p / 100.0) * self.total as f64).ceil() as u64;
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_value(idx).min(self.max);
            }
        }
        self.max
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

impl Default for LatencyHist {
    fn default() -> Self {
        Self::new()
    }
}

/// The tail figures every latency report in the workspace quotes, in the
/// histogram's native unit (picoseconds by convention). Zero-valued when
/// computed over an empty histogram, so flows that issued no requests
/// summarize cleanly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TailSummary {
    /// Median.
    pub p50: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
    /// Mean.
    pub mean: u64,
    /// Samples summarized.
    pub count: u64,
}

impl TailSummary {
    /// Summarizes one histogram.
    pub fn of(h: &LatencyHist) -> Self {
        if h.is_empty() {
            return TailSummary::default();
        }
        TailSummary {
            p50: h.percentile(50.0),
            p99: h.percentile(99.0),
            p999: h.percentile(99.9),
            mean: h.mean(),
            count: h.count(),
        }
    }

    /// Merges the histograms and summarizes the union — the per-core →
    /// per-run reduction kvs and the traffic scheduler both perform.
    pub fn of_merged<'a>(hists: impl IntoIterator<Item = &'a LatencyHist>) -> Self {
        let mut merged = LatencyHist::new();
        for h in hists {
            merged.merge(h);
        }
        TailSummary::of(&merged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_ordered_and_bounded() {
        let mut h = LatencyHist::new();
        for v in 1..=10_000u64 {
            h.record(v * 1_000);
        }
        let s = TailSummary::of(&h);
        assert!(s.p50 <= s.p99 && s.p99 <= s.p999);
        assert!(s.p999 <= h.max());
        assert_eq!(s.count, 10_000);
        let exact = 5_000_000.0;
        assert!((s.p50 as f64 - exact).abs() / exact < 0.05);
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let mut a = LatencyHist::new();
        let mut b = LatencyHist::new();
        let mut both = LatencyHist::new();
        for v in 0..1000u64 {
            let x = v * 997 + 13;
            if v % 2 == 0 {
                a.record(x);
            } else {
                b.record(x);
            }
            both.record(x);
        }
        a.merge(&b);
        assert_eq!(a, both);
        assert_eq!(TailSummary::of_merged([&a]), TailSummary::of(&both));
    }

    #[test]
    fn empty_summary_is_zero() {
        assert_eq!(TailSummary::of(&LatencyHist::new()), TailSummary::default());
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHist::new();
        for v in [0u64, 1, 5, 31] {
            h.record(v);
        }
        assert_eq!(h.max(), 31);
        assert_eq!(h.percentile(100.0), 31);
    }

    #[test]
    #[should_panic(expected = "percentile of empty histogram")]
    fn percentile_of_empty_panics() {
        LatencyHist::new().percentile(50.0);
    }
}
