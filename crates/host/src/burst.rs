//! Pipelined burst issue with bounded outstanding requests.
//!
//! The paper's microbenchmark issues N consecutive 64 B requests and
//! records first-issue to Nth-completion (§V). Both the host core (limited
//! by its LD/ST queues) and the device LSU (limited by the 400 MHz FPGA
//! issue rate) follow the same pattern. Two entry points drive any access
//! closure under an issue interval and an outstanding-request cap:
//!
//! * [`burst_end`] returns only the last completion and allocates nothing.
//!   The sized transfers (`cxl_type2::transfer`) and the offload's D2D
//!   bursts use it, once per 4 KiB page.
//! * [`run_burst`] also records every request's latency in a
//!   [`BurstResult`], for the latency/bandwidth figures the paper plots.
//!
//! Both are the closed form of one in-order
//! [`sim_core::port::PortEngine`] port whose window is the LD/ST queue (or
//! LSU request window): request `i` issues at
//! `max(start, t[i-1] + issue_interval, c[i - max_outstanding])`. It makes
//! the same backend calls, at the same times and in the same order, as
//! that port would; the `run_burst_matches_one_in_order_engine_port`
//! property test pins the two together, and `run_burst` is `burst_end`'s
//! loop plus the latency record. Multi-port concurrency is
//! available by driving the engine directly.

use std::cell::Cell;

use sim_core::port::PortSpec;
use sim_core::stats::bandwidth_gbps;
use sim_core::time::{Duration, Time};

/// Issue constraints for a burst.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BurstSpec {
    /// Number of requests.
    pub n: usize,
    /// Minimum time between consecutive issues (pipeline rate).
    pub issue_interval: Duration,
    /// Maximum requests in flight (LD/ST queue or LSU window).
    pub max_outstanding: usize,
}

impl BurstSpec {
    /// A burst of `n` requests with the given rate and window.
    ///
    /// # Panics
    ///
    /// Panics if `n` or `max_outstanding` is zero.
    pub fn new(n: usize, issue_interval: Duration, max_outstanding: usize) -> Self {
        assert!(n > 0, "burst must contain at least one request");
        assert!(
            max_outstanding > 0,
            "burst needs at least one outstanding slot"
        );
        BurstSpec {
            n,
            issue_interval,
            max_outstanding,
        }
    }

    /// A burst of `n` requests constrained by `port`'s window and cadence
    /// (`Socket::load_port`, `CxlDevice::lsu_port`, …).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn from_port(n: usize, port: &PortSpec) -> Self {
        BurstSpec::new(n, port.issue_interval, port.max_outstanding)
    }
}

/// Result of a burst run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BurstResult {
    /// Issue time of the first request.
    pub first_issue: Time,
    /// Completion time of the last request.
    pub last_completion: Time,
    /// Per-request completion latencies (completion - issue).
    pub latencies: Vec<Duration>,
}

impl BurstResult {
    /// Elapsed first-issue → last-completion.
    pub fn elapsed(&self) -> Duration {
        self.last_completion.duration_since(self.first_issue)
    }

    /// Achieved bandwidth for `bytes_per_request` per request.
    pub fn bandwidth_gbps(&self, bytes_per_request: u64) -> f64 {
        bandwidth_gbps(
            self.latencies.len() as u64 * bytes_per_request,
            self.elapsed(),
        )
    }

    /// Mean single-request latency.
    pub fn mean_latency(&self) -> Duration {
        let total: Duration = self.latencies.iter().copied().sum();
        total / self.latencies.len() as u64
    }
}

/// Runs a burst: `access(i, issue_time) -> completion_time` is invoked once
/// per request in order; issue `i` waits for the issue interval and for the
/// completion of request `i - max_outstanding`. Returns every request's
/// latency; [`burst_end`] is the same burst without that record.
///
/// # Examples
///
/// ```
/// use host::burst::{run_burst, BurstSpec};
/// use sim_core::time::{Duration, Time};
///
/// // A fixed 100 ns access pipelined 4 deep at 10 ns issue interval.
/// let spec = BurstSpec::new(16, Duration::from_nanos(10), 4);
/// let r = run_burst(spec, Time::ZERO, |_, t| t + Duration::from_nanos(100));
/// assert!(r.elapsed() < Duration::from_nanos(16 * 100));
/// ```
pub fn run_burst(
    spec: BurstSpec,
    start: Time,
    access: impl FnMut(usize, Time) -> Time,
) -> BurstResult {
    let mut latencies = Vec::with_capacity(spec.n);
    let last_completion = drive(spec, start, access, |l| latencies.push(l));
    BurstResult {
        first_issue: start,
        last_completion,
        latencies,
    }
}

/// Runs the same burst as [`run_burst`] and returns only the completion
/// time of the last request. It allocates nothing, except that the first
/// burst on a thread to outrun a window this large grows the thread's
/// window ring.
///
/// # Examples
///
/// ```
/// use host::burst::{burst_end, run_burst, BurstSpec};
/// use sim_core::time::{Duration, Time};
///
/// let spec = BurstSpec::new(16, Duration::from_nanos(10), 4);
/// let access = |_, t| t + Duration::from_nanos(100);
/// assert_eq!(
///     burst_end(spec, Time::ZERO, access),
///     run_burst(spec, Time::ZERO, access).last_completion
/// );
/// ```
pub fn burst_end(spec: BurstSpec, start: Time, access: impl FnMut(usize, Time) -> Time) -> Time {
    drive(spec, start, access, |_| {})
}

thread_local! {
    /// The window ring of the burst running on this thread, kept between
    /// bursts so a 4 KiB page pull does not allocate one.
    static RING: Cell<Vec<Time>> = const { Cell::new(Vec::new()) };
}

/// The burst loop behind both entry points; `record` sees each request's
/// latency in index order.
fn drive(
    spec: BurstSpec,
    start: Time,
    mut access: impl FnMut(usize, Time) -> Time,
    mut record: impl FnMut(Duration),
) -> Time {
    let window = spec.max_outstanding;
    // Completion times of the last `window` requests, indexed `i % window`;
    // a burst that fits in the window never waits on one. The ring is taken
    // out of `RING`, so a burst nested in `access` finds it empty and
    // allocates its own.
    let wide = spec.n > window;
    let mut ring = Vec::new();
    if wide {
        ring = RING.take();
        ring.clear();
        ring.resize(window, Time::ZERO);
    }
    let mut issue = start;
    let mut last_completion = start;
    for i in 0..spec.n {
        if i > 0 {
            issue += spec.issue_interval;
        }
        if i >= window {
            issue = issue.max(ring[i % window]);
        }
        let completion = access(i, issue);
        assert!(
            completion >= issue,
            "transaction completed before it was issued"
        );
        if let Some(slot) = ring.get_mut(i % window) {
            *slot = completion;
        }
        record(completion.duration_since(issue));
        last_completion = last_completion.max(completion);
    }
    if wide {
        RING.set(ring);
    }
    last_completion
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(n: u64) -> Duration {
        Duration::from_nanos(n)
    }

    #[test]
    fn fully_pipelined_burst_overlaps() {
        // 16 accesses of 100ns each, unlimited window: elapsed ≈ issue
        // ramp + one latency.
        let spec = BurstSpec::new(16, ns(1), 64);
        let r = run_burst(spec, Time::ZERO, |_, t| t + ns(100));
        assert_eq!(r.elapsed(), ns(15 + 100));
    }

    #[test]
    fn window_of_one_serializes() {
        let spec = BurstSpec::new(8, ns(1), 1);
        let r = run_burst(spec, Time::ZERO, |_, t| t + ns(100));
        assert_eq!(r.elapsed(), ns(8 * 100));
    }

    #[test]
    fn window_caps_overlap() {
        let spec = BurstSpec::new(8, ns(0), 2);
        let r = run_burst(spec, Time::ZERO, |_, t| t + ns(100));
        // Pairs complete every 100ns: 4 waves.
        assert_eq!(r.elapsed(), ns(400));
    }

    #[test]
    fn latencies_and_bandwidth() {
        let spec = BurstSpec::new(4, ns(0), 4);
        let r = run_burst(spec, Time::ZERO, |_, t| t + ns(50));
        assert!(r.latencies.iter().all(|&l| l == ns(50)));
        assert_eq!(r.mean_latency(), ns(50));
        // 4 × 64B in 50ns = 5.12 GB/s.
        assert!((r.bandwidth_gbps(64) - 5.12).abs() < 1e-9);
    }

    #[test]
    fn issue_interval_limits_rate() {
        // Instant accesses at 10ns cadence: elapsed = (n-1) * interval.
        let spec = BurstSpec::new(10, ns(10), 4);
        let r = run_burst(spec, Time::ZERO, |_, t| t);
        assert_eq!(r.elapsed(), ns(90));
    }

    #[test]
    fn start_offset_respected() {
        let spec = BurstSpec::new(2, ns(5), 2);
        let start = Time::from_nanos(1_000);
        let r = run_burst(spec, start, |_, t| t + ns(1));
        assert_eq!(r.first_issue, start);
        assert!(r.last_completion > start);
    }

    #[test]
    fn burst_end_is_run_burst_last_completion() {
        let access = |i: usize, t: Time| t + ns(100 + (i as u64 * 37) % 90);
        for (n, window) in [(1, 1), (8, 32), (64, 32), (100, 7), (5, 1)] {
            let spec = BurstSpec::new(n, ns(3), window);
            let start = Time::from_nanos(50);
            assert_eq!(
                burst_end(spec, start, access),
                run_burst(spec, start, access).last_completion,
                "n={n} window={window}"
            );
        }
    }

    #[test]
    fn nested_bursts_each_keep_their_own_ring() {
        let inner = BurstSpec::new(6, ns(1), 2);
        let outer = BurstSpec::new(6, ns(1), 2);
        let nested = burst_end(outer, Time::ZERO, |_, t| {
            burst_end(inner, t, |_, u| u + ns(10))
        });
        let inner_span = burst_end(inner, Time::ZERO, |_, u| u + ns(10)).duration_since(Time::ZERO);
        let flat = burst_end(outer, Time::ZERO, |_, t| t + inner_span);
        assert_eq!(nested, flat);
    }

    #[test]
    #[should_panic(expected = "completed before it was issued")]
    fn causality_enforced() {
        let spec = BurstSpec::new(1, ns(1), 1);
        run_burst(spec, Time::from_nanos(10), |_, _| Time::ZERO);
    }
}
