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
//! * [`run_concurrent`] spreads the requests over several out-of-order
//!   ports (one per DCOH slice, or per card and slice of a fabric) and
//!   returns the same [`BurstResult`].
//!
//! Each is the closed form of a [`sim_core::port::PortEngine`] schedule.
//! `run_burst` and `burst_end` are one in-order port whose window is the
//! LD/ST queue (or LSU request window): request `i` issues at
//! `max(start, t[i-1] + issue_interval, c[i - max_outstanding])`.
//! `run_concurrent` is N out-of-order ports, whose next issue across ports
//! is the earliest admission, ties going to the head that queued first.
//! Both make the same backend calls, at the same times and in the same
//! order, as the engine would; the property tests
//! `run_burst_matches_one_in_order_engine_port` and
//! `run_concurrent_matches_out_of_order_engine_ports` pin them to it.

use std::cell::Cell;

use sim_core::port::PortSpec;
use sim_core::stats::bandwidth_gbps;
use sim_core::time::{Duration, Time};

/// Issue constraints for a burst.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BurstSpec {
    /// Number of requests.
    pub(crate) n: usize,
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

/// One out-of-order port of a [`run_concurrent`] burst.
#[derive(Debug)]
struct OooPort {
    window: usize,
    interval: Duration,
    /// Where the port's in-flight completions start in the scratch
    /// buffer; `live` of them are held there, sorted ascending.
    base: usize,
    live: usize,
    /// The port's next request (`n` once the port has drained), its
    /// admission time, and when it became the head: the engine's FIFO
    /// tie-break between ports admitting at the same time.
    next: usize,
    at: Time,
    order: usize,
}

impl OooPort {
    /// Retires the in-flight completions at or before `at`.
    fn retire(&mut self, inflight: &mut [Time], at: Time) {
        let live = &mut inflight[self.base..self.base + self.live];
        let done = live.partition_point(|&c| c <= at);
        live.copy_within(done.., 0);
        self.live -= done;
    }

    /// Records a completion, after any equal ones.
    fn hold(&mut self, inflight: &mut [Time], completion: Time) {
        let live = &mut inflight[self.base..=self.base + self.live];
        let pos = live[..self.live].partition_point(|&c| c <= completion);
        live.copy_within(pos..self.live, pos + 1);
        live[pos] = completion;
        self.live += 1;
    }
}

/// The ports and in-flight completions of a concurrent burst.
#[derive(Debug, Default)]
struct Scratch {
    ports: Vec<OooPort>,
    inflight: Vec<Time>,
}

thread_local! {
    /// The scratch of the concurrent burst running on this thread, kept
    /// between bursts so a Fig. 4 repetition does not allocate one.
    static SCRATCH: Cell<Scratch> = const {
        Cell::new(Scratch {
            ports: Vec::new(),
            inflight: Vec::new(),
        })
    };
}

/// Runs `n` requests, all submitted at `start`, over `ports` out-of-order
/// ports: request `i` queues on port `port_of(ctx, i)`, whose window and
/// cadence are `port_spec(ctx, port)` (its admission is not consulted:
/// every port retires out of order, like a DCOH slice's request table).
/// `access(ctx, i, issue_time) -> completion_time` is invoked once per
/// request. `ctx` is what the three closures share, so `port_of` can read
/// the device state `access` mutates.
///
/// Each port issues its requests in index order. Its next request is
/// admitted when its previous one issues, at the later of the cadence and,
/// if the window is still full of requests completing after that, the
/// earliest of their completions. Across ports, the next request to issue
/// is the earliest admission, and at equal times the one that became its
/// port's head first. That is the schedule a
/// [`PortEngine`](sim_core::port::PortEngine) runs for the same ports, in
/// closed form: it allocates nothing but the returned latencies. The port
/// state is a per-thread buffer reused from burst to burst (a burst nested
/// in `access` allocates its own), and `port_of` is called as each port
/// looks for its next request.
///
/// # Examples
///
/// ```
/// use host::burst::run_concurrent;
/// use sim_core::port::PortSpec;
/// use sim_core::time::{Duration, Time};
///
/// // Two ports, one request deep, each serving its requests in 100 ns.
/// let port = PortSpec::out_of_order("example", 1, Duration::ZERO);
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
    // Taken out of `SCRATCH`, so a burst nested in `access` finds it empty.
    let Scratch {
        ports: mut state,
        mut inflight,
    } = SCRATCH.take();
    state.clear();
    let mut slots = 0;
    for p in 0..ports {
        let spec = port_spec(ctx, p);
        state.push(OooPort {
            window: spec.max_outstanding,
            interval: spec.issue_interval,
            base: slots,
            live: 0,
            next: (0..n).find(|&i| port_of(ctx, i) == p).unwrap_or(n),
            at: start,
            order: p,
        });
        slots += spec.max_outstanding;
    }
    inflight.clear();
    inflight.resize(slots, Time::ZERO);

    let mut latencies = vec![Duration::ZERO; n];
    let mut last_completion = start;
    let mut issued = 0;
    let mut order = ports;
    while let Some(p) = (0..ports)
        .filter(|&p| state[p].next < n)
        .min_by_key(|&p| (state[p].at, state[p].order))
    {
        let port = &mut state[p];
        let (i, at) = (port.next, port.at);
        let completion = access(ctx, i, at);
        assert!(
            completion >= at,
            "transaction completed before it was issued"
        );
        latencies[i] = completion.duration_since(at);
        last_completion = last_completion.max(completion);
        issued += 1;
        port.hold(&mut inflight, completion);

        port.next = (i + 1..n).find(|&j| port_of(ctx, j) == p).unwrap_or(n);
        if port.next < n {
            let mut next_at = at + port.interval;
            port.retire(&mut inflight, next_at);
            if port.live >= port.window {
                next_at = inflight[port.base];
                port.retire(&mut inflight, next_at);
            }
            port.at = next_at;
            port.order = order;
            order += 1;
        }
    }
    assert_eq!(issued, n, "a request was routed to an unknown port");
    SCRATCH.set(Scratch {
        ports: state,
        inflight,
    });
    BurstResult {
        first_issue: start,
        last_completion,
        latencies,
    }
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
