//! Pipelined burst issue with bounded outstanding requests.
//!
//! The paper's microbenchmark issues N consecutive 64 B requests and
//! records first-issue to Nth-completion (§V). Both the host core (limited
//! by its LD/ST queues) and the device LSU (limited by the 400 MHz FPGA
//! issue rate) follow the same pattern. Three entry points drive an access
//! closure under an issue interval and an outstanding-request cap:
//!
//! * [`burst_end`] returns only the last completion and allocates nothing.
//!   The sized transfers (`cxl_type2::transfer`) and the offload's D2D
//!   bursts use it, once per 4 KiB page.
//! * [`run_burst`] also records every request's latency in a
//!   [`BurstResult`], for the latency/bandwidth figures the paper plots.
//! * [`run_concurrent`] spreads the requests over several ports (one per
//!   DCOH slice, or per card and slice of a fabric) and returns the same
//!   [`BurstResult`].
//!
//! `run_concurrent` runs its ports on the port scheduler,
//! [`sim_core::port::run`]. `run_burst` and `burst_end` are one in-order
//! port whose window is the LD/ST queue (or LSU request window): request
//! `i` issues at `max(start, t[i-1] + issue_interval, c[i -
//! max_outstanding])`. That is the schedule the port scheduler gives one
//! in-order port, in a loop of its own that allocates nothing; the
//! property test `run_burst_matches_one_in_order_engine_port` holds it to
//! the reference engine the scheduler is held to. The loop stays by
//! measurement: routed through `run` as one in-order port, the bursts
//! kept every output, but fig8-ksm `ops_per_s` fell to 0.81–0.93× (8 of 8
//! alternating perfbench pairs, also with the completion sort moved out
//! of `run`).

use std::cell::Cell;

use sim_core::port::{self, OpOutcome, PortSpec};
use sim_core::stats::bandwidth_gbps;
use sim_core::time::{Duration, Time};

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

/// Runs a burst of `n` requests through `port`'s window and cadence
/// (`Socket::load_port`, `CxlDevice::lsu_port`, …), retiring in order
/// whatever the port's admission: `access(i, issue_time) ->
/// completion_time` is invoked once per request in order; issue `i` waits
/// for the issue interval and for the completion of request `i -
/// max_outstanding`. Returns every request's latency; [`burst_end`] is the
/// same burst without that record.
///
/// # Examples
///
/// ```
/// use host::burst::run_burst;
/// use sim_core::port::PortSpec;
/// use sim_core::time::{Duration, Time};
///
/// // A fixed 100 ns access pipelined 4 deep at 10 ns issue interval.
/// let port = PortSpec::in_order(4, Duration::from_nanos(10));
/// let r = run_burst(16, port, Time::ZERO, |_, t| t + Duration::from_nanos(100));
/// assert!(r.elapsed() < Duration::from_nanos(16 * 100));
/// ```
///
/// # Panics
///
/// Panics if `n` is zero or `access` completes a request before it was
/// issued.
pub fn run_burst(
    n: usize,
    port: PortSpec,
    start: Time,
    access: impl FnMut(usize, Time) -> Time,
) -> BurstResult {
    let mut latencies = Vec::with_capacity(n);
    let last_completion = drive(n, port, start, access, |l| latencies.push(l));
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
/// use host::burst::{burst_end, run_burst};
/// use sim_core::port::PortSpec;
/// use sim_core::time::{Duration, Time};
///
/// let port = PortSpec::in_order(4, Duration::from_nanos(10));
/// let access = |_, t| t + Duration::from_nanos(100);
/// assert_eq!(
///     burst_end(16, port, Time::ZERO, access),
///     run_burst(16, port, Time::ZERO, access).last_completion
/// );
/// ```
///
/// # Panics
///
/// As [`run_burst`].
pub fn burst_end(
    n: usize,
    port: PortSpec,
    start: Time,
    access: impl FnMut(usize, Time) -> Time,
) -> Time {
    drive(n, port, start, access, |_| {})
}

thread_local! {
    /// The window ring of the burst running on this thread, kept between
    /// bursts so a 4 KiB page pull does not allocate one.
    static RING: Cell<Vec<Time>> = const { Cell::new(Vec::new()) };
}

/// The burst loop behind both entry points; `record` sees each request's
/// latency in index order.
fn drive(
    n: usize,
    port: PortSpec,
    start: Time,
    mut access: impl FnMut(usize, Time) -> Time,
    mut record: impl FnMut(Duration),
) -> Time {
    assert!(n > 0, "burst must contain at least one request");
    let window = port.max_outstanding;
    // Completion times of the last `window` requests, indexed `i % window`;
    // a burst that fits in the window never waits on one. The ring is taken
    // out of `RING`, so a burst nested in `access` finds it empty and
    // allocates its own.
    let wide = n > window;
    let mut ring = Vec::new();
    if wide {
        ring = RING.take();
        ring.clear();
        ring.resize(window, Time::ZERO);
    }
    let mut issue = start;
    let mut last_completion = start;
    for i in 0..n {
        if i > 0 {
            issue += port.issue_interval;
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

/// Runs `n` requests, all submitted at `start`, over `ports` ports:
/// request `i` queues on port `port_of(ctx, i)`, whose window, cadence and
/// admission are `port_spec(ctx, port)`. `access(ctx, i, issue_time) ->
/// completion_time` is invoked once per request. `ctx` is what the three
/// closures share, so `port_of` can read the device state `access`
/// mutates.
///
/// This is [`sim_core::port::run`] with every request ready at `start`:
/// each port issues its requests in index order, and across ports the
/// earliest admission issues first, ties going to the head that queued
/// first. It allocates nothing but the returned latencies, since the
/// port scheduler's buffers are reused from burst to burst, and `port_of`
/// is called as each port looks for its next request.
///
/// # Examples
///
/// ```
/// use host::burst::run_concurrent;
/// use sim_core::port::PortSpec;
/// use sim_core::time::{Duration, Time};
///
/// // Two ports, one request deep, each serving its requests in 100 ns.
/// let port = PortSpec::out_of_order(1, Duration::ZERO);
/// let r = run_concurrent(
///     &mut (),
///     4,
///     Time::ZERO,
///     2,
///     |_, _| port,
///     |_, i| i % 2,
///     |_, _, t| t + Duration::from_nanos(100),
/// );
/// assert_eq!(r.last_completion, Time::from_nanos(200));
/// ```
///
/// # Panics
///
/// Panics if `n` is zero, if `port_of` names a port `>= ports`, or if
/// `access` completes a request before it was issued.
pub fn run_concurrent<C>(
    ctx: &mut C,
    n: usize,
    start: Time,
    ports: usize,
    port_spec: impl Fn(&C, usize) -> PortSpec,
    port_of: impl Fn(&C, usize) -> usize,
    mut access: impl FnMut(&mut C, usize, Time) -> Time,
) -> BurstResult {
    assert!(n > 0, "burst must contain at least one request");
    port::run(
        ctx,
        ports,
        port_spec,
        |ctx, p, from| {
            (from..n)
                .find(|&i| port_of(ctx, i) == p)
                .map(|i| (i, start))
        },
        |ctx, i, t| (access(ctx, i, t), OpOutcome::Clean),
        |done| {
            assert_eq!(done.len(), n, "a request was routed to an unknown port");
            let mut latencies = vec![Duration::ZERO; n];
            let mut last_completion = start;
            for r in done {
                latencies[r.req] = r.completed.duration_since(r.issued);
                last_completion = last_completion.max(r.completed);
            }
            BurstResult {
                first_issue: start,
                last_completion,
                latencies,
            }
        },
    )
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
        let port = PortSpec::in_order(64, ns(1));
        let r = run_burst(16, port, Time::ZERO, |_, t| t + ns(100));
        assert_eq!(r.elapsed(), ns(15 + 100));
    }

    #[test]
    fn window_of_one_serializes() {
        let port = PortSpec::in_order(1, ns(1));
        let r = run_burst(8, port, Time::ZERO, |_, t| t + ns(100));
        assert_eq!(r.elapsed(), ns(8 * 100));
    }

    #[test]
    fn window_caps_overlap() {
        let port = PortSpec::in_order(2, ns(0));
        let r = run_burst(8, port, Time::ZERO, |_, t| t + ns(100));
        // Pairs complete every 100ns: 4 waves.
        assert_eq!(r.elapsed(), ns(400));
    }

    #[test]
    fn latencies_and_bandwidth() {
        let port = PortSpec::in_order(4, ns(0));
        let r = run_burst(4, port, Time::ZERO, |_, t| t + ns(50));
        assert!(r.latencies.iter().all(|&l| l == ns(50)));
        assert_eq!(r.mean_latency(), ns(50));
        // 4 × 64B in 50ns = 5.12 GB/s.
        assert!((r.bandwidth_gbps(64) - 5.12).abs() < 1e-9);
    }

    #[test]
    fn issue_interval_limits_rate() {
        // Instant accesses at 10ns cadence: elapsed = (n-1) * interval.
        let port = PortSpec::in_order(4, ns(10));
        let r = run_burst(10, port, Time::ZERO, |_, t| t);
        assert_eq!(r.elapsed(), ns(90));
    }

    #[test]
    fn start_offset_respected() {
        let port = PortSpec::in_order(2, ns(5));
        let start = Time::from_nanos(1_000);
        let r = run_burst(2, port, start, |_, t| t + ns(1));
        assert_eq!(r.first_issue, start);
        assert!(r.last_completion > start);
    }

    #[test]
    fn burst_end_is_run_burst_last_completion() {
        let access = |i: usize, t: Time| t + ns(100 + (i as u64 * 37) % 90);
        for (n, window) in [(1, 1), (8, 32), (64, 32), (100, 7), (5, 1)] {
            let port = PortSpec::in_order(window, ns(3));
            let start = Time::from_nanos(50);
            assert_eq!(
                burst_end(n, port, start, access),
                run_burst(n, port, start, access).last_completion,
                "n={n} window={window}"
            );
        }
    }

    #[test]
    fn nested_bursts_each_keep_their_own_ring() {
        let port = PortSpec::in_order(2, ns(1));
        let nested = burst_end(6, port, Time::ZERO, |_, t| {
            burst_end(6, port, t, |_, u| u + ns(10))
        });
        let inner_span =
            burst_end(6, port, Time::ZERO, |_, u| u + ns(10)).duration_since(Time::ZERO);
        let flat = burst_end(6, port, Time::ZERO, |_, t| t + inner_span);
        assert_eq!(nested, flat);
    }

    #[test]
    #[should_panic(expected = "completed before it was issued")]
    fn causality_enforced() {
        let port = PortSpec::in_order(1, ns(1));
        run_burst(1, port, Time::from_nanos(10), |_, _| Time::ZERO);
    }

    #[test]
    #[should_panic(expected = "at least one request")]
    fn empty_burst_rejected() {
        burst_end(0, PortSpec::in_order(1, ns(1)), Time::ZERO, |_, t| t);
    }
}
