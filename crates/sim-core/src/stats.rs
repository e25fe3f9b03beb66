//! Measurement collection: summaries, percentiles, and log-bucketed
//! latency histograms.
//!
//! The paper reports medians of ≥1000 repetitions with standard-deviation
//! error bars for microbenchmarks (Figs. 3–6) and p99 latency for the
//! end-to-end Redis experiments (Fig. 8). [`Summary`] and [`Histogram`]
//! provide exactly those reductions.

use crate::time::Duration;

/// Running summary of a scalar sample stream: count, min, max, mean, and
/// standard deviation (Welford's online algorithm).
///
/// # Examples
///
/// ```
/// use sim_core::stats::Summary;
///
/// let mut s = Summary::new();
/// for v in [1.0, 2.0, 3.0] {
///     s.record(v);
/// }
/// assert_eq!(s.mean(), 2.0);
/// assert_eq!(s.min(), 1.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: f64) {
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population standard deviation, or 0 with fewer than two samples.
    pub fn std_dev(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / self.count as f64).sqrt()
        }
    }

    /// Smallest sample.
    ///
    /// # Panics
    ///
    /// Panics if no samples were recorded.
    pub fn min(&self) -> f64 {
        assert!(self.count > 0, "min of empty summary");
        self.min
    }

    /// Largest sample.
    ///
    /// # Panics
    ///
    /// Panics if no samples were recorded.
    pub fn max(&self) -> f64 {
        assert!(self.count > 0, "max of empty summary");
        self.max
    }
}

/// Exact small-sample percentile estimator holding all samples.
///
/// Used for microbenchmark repetitions where the paper takes the median of
/// ~1000 runs; memory is proportional to the sample count.
///
/// # Examples
///
/// ```
/// use sim_core::stats::Samples;
///
/// let mut s = Samples::new();
/// for v in 1..=100 {
///     s.record(v as f64);
/// }
/// assert_eq!(s.percentile(50.0), 50.0);
/// assert_eq!(s.percentile(99.0), 99.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    /// Creates an empty sample set.
    pub fn new() -> Self {
        Samples {
            values: Vec::new(),
            sorted: true,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: f64) {
        self.values.push(value);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.values
                .sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
            self.sorted = true;
        }
    }

    /// The `p`-th percentile (nearest-rank), `0 < p <= 100`.
    ///
    /// # Panics
    ///
    /// Panics if empty or `p` is out of range.
    pub fn percentile(&mut self, p: f64) -> f64 {
        assert!(!self.values.is_empty(), "percentile of empty sample set");
        assert!(p > 0.0 && p <= 100.0, "percentile must be in (0, 100]");
        self.ensure_sorted();
        let rank = ((p / 100.0) * self.values.len() as f64).ceil() as usize;
        self.values[rank.clamp(1, self.values.len()) - 1]
    }

    /// The median (50th percentile).
    ///
    /// # Panics
    ///
    /// Panics if empty.
    pub fn median(&mut self) -> f64 {
        self.percentile(50.0)
    }

    /// Mean of the samples, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// Population standard deviation, or 0 with fewer than two samples.
    pub fn std_dev(&self) -> f64 {
        if self.values.len() < 2 {
            return 0.0;
        }
        let mean = self.mean();
        let var = self
            .values
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f64>()
            / self.values.len() as f64;
        var.sqrt()
    }
}

impl FromIterator<f64> for Samples {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let values: Vec<f64> = iter.into_iter().collect();
        Samples {
            values,
            sorted: false,
        }
    }
}

impl Extend<f64> for Samples {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        self.values.extend(iter);
        self.sorted = false;
    }
}

/// Log-bucketed latency histogram with bounded relative error, suitable for
/// millions of end-to-end request latencies (Fig. 8's p99 measurements).
///
/// Buckets are arranged as 64 power-of-two ranges each subdivided into 32
/// linear sub-buckets, giving ≤ ~3% relative quantile error. This is a
/// `Duration`-typed view over [`tinybench::hist::LatencyHist`], the
/// workspace's shared histogram machinery.
///
/// # Examples
///
/// ```
/// use sim_core::stats::Histogram;
/// use sim_core::time::Duration;
///
/// let mut h = Histogram::new();
/// for us in 1..=1000u64 {
///     h.record(Duration::from_micros(us));
/// }
/// let p99 = h.percentile(99.0);
/// let exact = Duration::from_micros(990);
/// let err = (p99.as_nanos_f64() - exact.as_nanos_f64()).abs() / exact.as_nanos_f64();
/// assert!(err < 0.05);
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    inner: tinybench::hist::LatencyHist,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            inner: tinybench::hist::LatencyHist::new(),
        }
    }

    /// Records one latency sample.
    pub fn record(&mut self, d: Duration) {
        self.inner.record(d.as_picos());
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.inner.count()
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Mean latency, or zero if empty.
    pub fn mean(&self) -> Duration {
        Duration::from_picos(self.inner.mean())
    }

    /// Largest recorded sample (exact).
    ///
    /// # Panics
    ///
    /// Panics if empty.
    pub fn max(&self) -> Duration {
        Duration::from_picos(self.inner.max())
    }

    /// Smallest recorded sample (exact).
    ///
    /// # Panics
    ///
    /// Panics if empty.
    pub fn min(&self) -> Duration {
        Duration::from_picos(self.inner.min())
    }

    /// The `p`-th percentile latency with bounded relative error.
    ///
    /// # Panics
    ///
    /// Panics if empty or `p` not in `(0, 100]`.
    pub fn percentile(&self, p: f64) -> Duration {
        Duration::from_picos(self.inner.percentile(p))
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        self.inner.merge(&other.inner);
    }

    /// The underlying unit-agnostic histogram (picosecond samples), for
    /// reductions through [`tinybench::hist::TailSummary`].
    pub fn raw(&self) -> &tinybench::hist::LatencyHist {
        &self.inner
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Computes achieved bandwidth in GB/s for `bytes` moved in `elapsed`.
///
/// # Examples
///
/// ```
/// use sim_core::stats::bandwidth_gbps;
/// use sim_core::time::Duration;
///
/// // 64 bytes in 1 ns = 64 GB/s.
/// assert!((bandwidth_gbps(64, Duration::from_nanos(1)) - 64.0).abs() < 1e-9);
/// ```
pub fn bandwidth_gbps(bytes: u64, elapsed: Duration) -> f64 {
    if elapsed.is_zero() {
        return f64::INFINITY;
    }
    bytes as f64 / elapsed.as_nanos_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_welford_matches_direct() {
        let xs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut s = Summary::new();
        for &x in &xs {
            s.record(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.std_dev() - var.sqrt()).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 9.0);
        assert_eq!(s.count(), 8);
    }

    #[test]
    fn summary_empty_is_safe() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn samples_median_even_and_odd() {
        let mut odd: Samples = [3.0, 1.0, 2.0].into_iter().collect();
        assert_eq!(odd.median(), 2.0);
        let mut even: Samples = [4.0, 1.0, 3.0, 2.0].into_iter().collect();
        // Nearest-rank median of 4 samples is the 2nd.
        assert_eq!(even.median(), 2.0);
    }

    #[test]
    fn samples_percentile_boundaries() {
        let mut s: Samples = (1..=100).map(|v| v as f64).collect();
        assert_eq!(s.percentile(1.0), 1.0);
        assert_eq!(s.percentile(100.0), 100.0);
        assert_eq!(s.percentile(99.0), 99.0);
    }

    #[test]
    fn samples_extend_and_stats() {
        let mut s = Samples::new();
        s.extend([1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.len(), 4);
        assert_eq!(s.mean(), 2.5);
        assert!(s.std_dev() > 1.0 && s.std_dev() < 1.2);
    }

    #[test]
    #[should_panic(expected = "percentile of empty")]
    fn samples_empty_percentile_panics() {
        Samples::new().percentile(50.0);
    }

    #[test]
    fn histogram_small_values_exact() {
        // Values below the linear/log split (32 sub-buckets) are exact.
        const SUBS: u64 = 32;
        let mut h = Histogram::new();
        for ps in 0..SUBS {
            h.record(Duration::from_picos(ps));
        }
        assert_eq!(h.min().as_picos(), 0);
        assert_eq!(h.max().as_picos(), SUBS - 1);
        assert_eq!(h.count(), SUBS);
    }

    #[test]
    fn histogram_percentile_relative_error_bounded() {
        let mut h = Histogram::new();
        for us in 1..=10_000u64 {
            h.record(Duration::from_micros(us));
        }
        for p in [50.0, 90.0, 99.0, 99.9] {
            let est = h.percentile(p).as_nanos_f64();
            let exact = (p / 100.0 * 10_000.0).ceil() * 1_000.0;
            let err = (est - exact).abs() / exact;
            assert!(err < 0.04, "p{p}: est {est} exact {exact} err {err}");
        }
    }

    #[test]
    fn histogram_merge_equals_combined() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut c = Histogram::new();
        for i in 1..=500u64 {
            a.record(Duration::from_nanos(i));
            c.record(Duration::from_nanos(i));
        }
        for i in 501..=1000u64 {
            b.record(Duration::from_nanos(i));
            c.record(Duration::from_nanos(i));
        }
        a.merge(&b);
        assert_eq!(a.count(), c.count());
        assert_eq!(a.percentile(99.0), c.percentile(99.0));
        assert_eq!(a.mean(), c.mean());
    }

    #[test]
    fn histogram_mean_exact() {
        let mut h = Histogram::new();
        h.record(Duration::from_nanos(10));
        h.record(Duration::from_nanos(20));
        assert_eq!(h.mean(), Duration::from_nanos(15));
    }

    #[test]
    fn bandwidth_helper() {
        assert!((bandwidth_gbps(1_000, Duration::from_nanos(1_000)) - 1.0).abs() < 1e-12);
        assert!(bandwidth_gbps(1, Duration::ZERO).is_infinite());
    }
}
