//! The port scheduler: requests through bounded-window ports, in closed
//! form.
//!
//! Every datapath in the workspace — host LD/ST queues, the device LSU
//! window, the H2D ingress pipeline, DRAM channels, PCIe descriptor rings —
//! is at bottom the same structure: a *port* that admits a bounded number
//! of outstanding requests, issues them at some minimum cadence, and
//! completes them out of a shared, stateful timing model. [`run`]
//! schedules requests over any number of such ports, calling a backend
//! closure that returns each request's completion time.
//!
//! The schedule is open loop: every request and its ready time are known
//! before the run starts, and a completion never creates new work. A
//! port's next admission is therefore known as soon as its previous
//! request issues, and the schedule needs no event queue:
//!
//! * A port admits its head request at the later of the request's ready
//!   time and the port's cadence (previous issue + `issue_interval`). If
//!   its window is full at that time, it waits for a slot: an in-order
//!   window for the completion of the request `max_outstanding` issues
//!   back (a ring of the port's last W completions), an out-of-order one
//!   for the earliest completion still in flight (a sorted list).
//! * Across ports, the next request to issue is the head with the
//!   smallest `(admission time, order it became head)`.
//! * Completions are reported in `(completion time, issue order)`.
//!
//! That is the schedule an event-driven engine produces when it pops
//! `(time, seq)` in FIFO order, since each completion event would be
//! scheduled as its request issues; `tests/port_engine.rs` keeps such an
//! engine as the reference and holds [`run`] to it call for call.
//!
//! Because the backend models are stateful (DRAM bus busy intervals, write
//! queues, ingress slots), issuing many in-flight requests through ports
//! *measures* contention instead of dividing bandwidth analytically: two
//! requests that land on the same DRAM channel serialize on its bus,
//! while requests on different channels overlap. The synchronous
//! single-request facades (`Socket::load`, `CxlDevice::d2h`, …) remain
//! the timing ground truth: backends call exactly those models.
//!
//! Its users are [`traffic`](crate::traffic), whose flows mix in-order and
//! out-of-order ports, arrive over time and report per-op outcomes, and
//! `host::burst::run_concurrent`, the LSU's and the fabric's bursts. A
//! burst on one in-order port runs in its own allocation-free loop
//! (`host::burst`'s `run_burst` and `burst_end`).
//!
//! # Examples
//!
//! ```
//! use sim_core::port::{self, OpOutcome, PortSpec};
//! use sim_core::time::{Duration, Time};
//!
//! // Four requests through a port 2 deep over a backend with a fixed
//! // 100 ns service time.
//! let spec = PortSpec::in_order(2, Duration::ZERO);
//! let last = port::run(
//!     &mut (),
//!     1,
//!     |_, _| spec,
//!     |_, _, from| (from < 4).then_some((from, Time::ZERO)),
//!     |_, _, t| (t + Duration::from_nanos(100), OpOutcome::Clean),
//!     |done| done.last().map(|r| r.completed),
//! );
//! // Window of 2: pairs complete every 100 ns.
//! assert_eq!(last, Some(Time::from_nanos(200)));
//! ```

use std::cell::Cell;

use crate::time::{Duration, Time};

/// How a full port frees an issue slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Admission {
    /// Slot `i` frees when request `i - window` completes — in-order
    /// retirement, as in the host LD/ST queues and the FPGA LSU request
    /// window.
    InOrderWindow,
    /// A slot frees at the earliest outstanding completion — out-of-order
    /// retirement, as in MSHR-style miss queues.
    OutOfOrder,
}

/// Static description of one port: its outstanding-request limit and
/// issue cadence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortSpec {
    /// Maximum requests in flight (queue depth / request window).
    pub max_outstanding: usize,
    /// Minimum time between consecutive issues on this port.
    pub issue_interval: Duration,
    /// Slot-freeing policy when the window is full.
    pub(crate) admission: Admission,
}

impl PortSpec {
    /// An in-order-retirement port (LD/ST queue semantics).
    ///
    /// # Panics
    ///
    /// Panics if `max_outstanding` is zero.
    pub fn in_order(max_outstanding: usize, issue_interval: Duration) -> Self {
        Self::new(max_outstanding, issue_interval, Admission::InOrderWindow)
    }

    /// An out-of-order-retirement port (MSHR semantics).
    ///
    /// # Panics
    ///
    /// Panics if `max_outstanding` is zero.
    pub fn out_of_order(max_outstanding: usize, issue_interval: Duration) -> Self {
        Self::new(max_outstanding, issue_interval, Admission::OutOfOrder)
    }

    fn new(max_outstanding: usize, issue_interval: Duration, admission: Admission) -> Self {
        assert!(max_outstanding > 0, "port needs at least one slot");
        PortSpec {
            max_outstanding,
            issue_interval,
            admission,
        }
    }
}

/// Reliability classification of one completed request, as reported by
/// an outcome-aware backend.
///
/// Backends that know no failures report every completion as
/// [`OpOutcome::Clean`], which keeps the fault-free paths byte-identical
/// to their pre-reliability behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum OpOutcome {
    /// Completed on the first attempt, no reliability machinery involved.
    #[default]
    Clean,
    /// Completed, but only after link retries and/or timeout re-issues.
    Retried,
    /// Gave up: retries exhausted, deadline blown, or data poisoned. The
    /// completion time is when the failure was declared to the issuer.
    Failed,
}

impl OpOutcome {
    /// Merges two outcomes, keeping the worse one
    /// (`Failed > Retried > Clean`).
    pub fn worst(self, other: OpOutcome) -> OpOutcome {
        self.max(other)
    }
}

/// One request that [`run`] issued and the backend completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Retired {
    /// The request, as the `next` closure named it.
    pub req: usize,
    /// When its port issued it to the backend.
    pub issued: Time,
    /// When the backend completed it.
    pub completed: Time,
    /// The backend's classification of it.
    pub outcome: OpOutcome,
    /// Its place in the issue order, which breaks ties between equal
    /// completion times.
    order: usize,
}

/// One port during a [`run`].
#[derive(Debug, Clone, Copy)]
struct Port {
    spec: PortSpec,
    /// Where the port's `max_outstanding` slots start in the run's slab
    /// of completion times: a ring indexed by `issued` for an in-order
    /// window, the `live` in-flight completions sorted ascending for an
    /// out-of-order one.
    base: usize,
    issued: usize,
    live: usize,
    /// Earliest next issue allowed by the cadence.
    next_issue: Time,
    /// The port's next request, if any, its admission time, and when it
    /// became the head.
    head: Option<usize>,
    at: Time,
    order: usize,
}

impl Port {
    /// The admission time of a head request that is ready at `ready`.
    fn admit(&mut self, slab: &mut [Time], ready: Time) -> Time {
        let at = ready.max(self.next_issue);
        let window = self.spec.max_outstanding;
        let slots = &mut slab[self.base..self.base + window];
        match self.spec.admission {
            Admission::InOrderWindow if self.issued >= window => {
                at.max(slots[self.issued % window])
            }
            Admission::InOrderWindow => at,
            Admission::OutOfOrder => {
                self.retire(slots, at);
                if self.live < window {
                    return at;
                }
                let at = slots[0];
                self.retire(slots, at);
                at
            }
        }
    }

    /// Drops the in-flight completions at or before `at`.
    fn retire(&mut self, slots: &mut [Time], at: Time) {
        let done = slots[..self.live].partition_point(|&c| c <= at);
        slots.copy_within(done..self.live, 0);
        self.live -= done;
    }

    /// Records the issue at `at` of a request completing at `completion`.
    fn record(&mut self, slab: &mut [Time], at: Time, completion: Time) {
        let window = self.spec.max_outstanding;
        let slots = &mut slab[self.base..self.base + window];
        match self.spec.admission {
            Admission::InOrderWindow => slots[self.issued % window] = completion,
            Admission::OutOfOrder => {
                let pos = slots[..self.live].partition_point(|&c| c <= completion);
                slots.copy_within(pos..self.live, pos + 1);
                slots[pos] = completion;
                self.live += 1;
            }
        }
        self.issued += 1;
        self.next_issue = at + self.spec.issue_interval;
    }
}

/// The buffers of one run: the ports, their slab of completion times,
/// and the retired requests.
#[derive(Debug, Default)]
struct Scratch {
    ports: Vec<Port>,
    slab: Vec<Time>,
    done: Vec<Retired>,
}

thread_local! {
    /// The buffers of the run going on on this thread, kept between runs
    /// so a burst or a traffic row does not allocate them again.
    static SCRATCH: Cell<Scratch> = const {
        Cell::new(Scratch {
            ports: Vec::new(),
            slab: Vec::new(),
            done: Vec::new(),
        })
    };
}

/// Runs requests over `ports` ports until every one has completed, and
/// returns what `retire` makes of the completions.
///
/// * `port_spec(ctx, p)` is port `p`'s window, cadence and admission.
/// * `next(ctx, p, from)` is port `p`'s first request at or after index
///   `from`, with its ready time, or `None` once the port has none left.
///   A port issues its requests in index order, and the scheduler asks
///   for the next one as the previous one issues.
/// * `issue(ctx, req, at)` performs the request issued at `at` against
///   the (stateful) timing model and returns its completion time and
///   outcome. A failed request still holds its slot until the completion
///   time it declares.
/// * `retire(done)` sees every request, in `(completion time, issue
///   order)`: the order a hardware completion queue would drain.
///
/// `ctx` is what the first three closures share, so `next` can read the
/// state `issue` mutates. The ports, in-flight lists and completions live
/// in a per-thread buffer reused from run to run; a run nested in one of
/// the closures allocates its own.
///
/// # Panics
///
/// Panics if the backend reports a completion before the issue time.
pub fn run<C, R>(
    ctx: &mut C,
    ports: usize,
    port_spec: impl Fn(&C, usize) -> PortSpec,
    next: impl Fn(&C, usize, usize) -> Option<(usize, Time)>,
    mut issue: impl FnMut(&mut C, usize, Time) -> (Time, OpOutcome),
    retire: impl FnOnce(&[Retired]) -> R,
) -> R {
    // Taken out of `SCRATCH`, so a run nested in a closure finds it empty.
    let Scratch {
        ports: mut state,
        mut slab,
        mut done,
    } = SCRATCH.take();
    state.clear();
    done.clear();
    let mut slots = 0;
    for p in 0..ports {
        let spec = port_spec(ctx, p);
        let mut port = Port {
            spec,
            base: slots,
            issued: 0,
            live: 0,
            next_issue: Time::ZERO,
            head: None,
            at: Time::ZERO,
            order: p,
        };
        if let Some((req, ready)) = next(ctx, p, 0) {
            port.head = Some(req);
            port.at = ready;
        }
        state.push(port);
        slots += spec.max_outstanding;
    }
    slab.clear();
    slab.resize(slots, Time::ZERO);

    let mut order = ports;
    while let Some(p) = (0..ports)
        .filter(|&p| state[p].head.is_some())
        .min_by_key(|&p| (state[p].at, state[p].order))
    {
        let port = &mut state[p];
        let (req, at) = (port.head.take().expect("filtered on a head"), port.at);
        let (completed, outcome) = issue(ctx, req, at);
        assert!(
            completed >= at,
            "transaction completed before it was issued"
        );
        done.push(Retired {
            req,
            issued: at,
            completed,
            outcome,
            order: done.len(),
        });
        port.record(&mut slab, at, completed);
        if let Some((req, ready)) = next(ctx, p, req + 1) {
            port.head = Some(req);
            port.at = port.admit(&mut slab, ready);
            port.order = order;
            order += 1;
        }
    }
    done.sort_unstable_by_key(|r| (r.completed, r.order));
    let result = retire(&done);
    SCRATCH.set(Scratch {
        ports: state,
        slab,
        done,
    });
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(n: u64) -> Duration {
        Duration::from_nanos(n)
    }

    /// Runs `reqs`, each a `(port, ready)` pair, over `specs` against
    /// `backend(req, issue_time)`.
    fn drive(
        specs: &[PortSpec],
        reqs: &[(usize, Time)],
        mut backend: impl FnMut(usize, Time) -> (Time, OpOutcome),
    ) -> Vec<Retired> {
        run(
            &mut backend,
            specs.len(),
            |_, p| specs[p],
            |_, p, from| {
                (from..reqs.len())
                    .find(|&i| reqs[i].0 == p)
                    .map(|i| (i, reqs[i].1))
            },
            |backend, i, t| backend(i, t),
            |done| done.to_vec(),
        )
    }

    /// [`drive`] with every request ready at zero and a clean backend.
    fn drive_clean(
        specs: &[PortSpec],
        ports: &[usize],
        mut backend: impl FnMut(usize, Time) -> Time,
    ) -> Vec<Retired> {
        let reqs: Vec<_> = ports.iter().map(|&p| (p, Time::ZERO)).collect();
        drive(specs, &reqs, |i, t| (backend(i, t), OpOutcome::Clean))
    }

    fn issued_of(done: &[Retired], req: usize) -> Time {
        done.iter().find(|r| r.req == req).expect("retired").issued
    }

    #[test]
    fn single_request_matches_backend() {
        let specs = [PortSpec::in_order(4, ns(1))];
        let done = drive(&specs, &[(0, Time::from_nanos(10))], |_, t| {
            (t + ns(100), OpOutcome::Clean)
        });
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].issued, Time::from_nanos(10));
        assert_eq!(done[0].completed, Time::from_nanos(110));
    }

    #[test]
    fn window_of_one_serializes() {
        let done = drive_clean(&[PortSpec::in_order(1, ns(0))], &[0; 8], |_, t| t + ns(100));
        assert_eq!(done.last().unwrap().completed, Time::from_nanos(800));
    }

    #[test]
    fn issue_interval_limits_rate() {
        // Instant backend: last issue at (n-1) * interval.
        let done = drive_clean(&[PortSpec::in_order(64, ns(10))], &[0; 10], |_, t| t);
        assert_eq!(done.last().unwrap().completed, Time::from_nanos(90));
    }

    #[test]
    fn in_order_window_waits_for_oldest() {
        // Request 0 is slow (300 ns), requests 1.. are fast (10 ns). With
        // a 2-deep in-order window, request 2 must wait for request 0
        // even though request 1 completed long before.
        let done = drive_clean(&[PortSpec::in_order(2, ns(0))], &[0; 3], |i, t| {
            t + if i == 0 { ns(300) } else { ns(10) }
        });
        assert_eq!(issued_of(&done, 2), Time::from_nanos(300));
    }

    #[test]
    fn out_of_order_window_frees_at_earliest() {
        // Same shape, but out-of-order admission: request 1's early
        // completion frees the slot for request 2.
        let done = drive_clean(&[PortSpec::out_of_order(2, ns(0))], &[0; 3], |i, t| {
            t + if i == 0 { ns(300) } else { ns(10) }
        });
        assert_eq!(issued_of(&done, 2), Time::from_nanos(10));
    }

    #[test]
    fn ports_interleave_in_time_order() {
        // Two ports with offset cadences: the backend sees globally
        // sorted issue times.
        let specs = [PortSpec::in_order(1, ns(7)), PortSpec::in_order(1, ns(11))];
        let mut last = Time::ZERO;
        let done = drive_clean(&specs, &[0, 1].repeat(5), |_, t| {
            assert!(t >= last, "issues must be globally time-ordered");
            last = t;
            t + ns(3)
        });
        assert_eq!(done.len(), 10);
    }

    #[test]
    fn completions_drain_in_time_order() {
        // Reverse service times: later requests complete earlier.
        let done = drive_clean(&[PortSpec::out_of_order(8, ns(0))], &[0; 6], |i, t| {
            t + ns(100 - 10 * i as u64)
        });
        let times: Vec<Time> = done.iter().map(|r| r.completed).collect();
        let mut sorted = times.clone();
        sorted.sort();
        assert_eq!(times, sorted);
        assert_eq!(done.first().unwrap().req, 5);
    }

    /// Two mixed ports over a shared serializing backend, requests
    /// arriving over time.
    fn shared_bus_run() -> Vec<Retired> {
        let specs = [
            PortSpec::in_order(3, ns(2)),
            PortSpec::out_of_order(2, ns(5)),
        ];
        let reqs: Vec<_> = (0..20u64)
            .map(|i| (usize::from(i % 3 == 0), Time::from_nanos(i)))
            .collect();
        let mut bus_free = Time::ZERO;
        drive(&specs, &reqs, move |_, t| {
            bus_free = bus_free.max(t) + ns(13);
            (bus_free, OpOutcome::Clean)
        })
    }

    #[test]
    fn deterministic_across_runs() {
        assert_eq!(
            shared_bus_run(),
            shared_bus_run(),
            "same requests must replay identically"
        );
    }

    #[test]
    fn outcomes_ride_on_completions() {
        let done = drive(
            &[PortSpec::in_order(2, ns(0))],
            &[(0, Time::ZERO); 3],
            |i, t| match i {
                0 => (t + ns(10), OpOutcome::Clean),
                1 => (t + ns(50), OpOutcome::Retried),
                _ => (t + ns(5), OpOutcome::Failed),
            },
        );
        let outcome_of = |i| done.iter().find(|r| r.req == i).unwrap().outcome;
        assert_eq!(outcome_of(0), OpOutcome::Clean);
        assert_eq!(outcome_of(1), OpOutcome::Retried);
        assert_eq!(outcome_of(2), OpOutcome::Failed);
        assert_eq!(
            OpOutcome::Clean.worst(OpOutcome::Retried),
            OpOutcome::Retried
        );
        assert_eq!(
            OpOutcome::Failed.worst(OpOutcome::Retried),
            OpOutcome::Failed
        );
    }

    #[test]
    fn reused_buffers_replay_like_fresh_ones() {
        // A run on a thread whose buffers a larger, different-shaped run
        // grew must match a run on a fresh thread: the contract that lets
        // every burst and traffic row reuse them.
        let fresh = std::thread::spawn(shared_bus_run)
            .join()
            .expect("fresh thread");
        let junk: Vec<_> = (0..50u64)
            .map(|i| (0, Time::from_nanos(1_000 + i)))
            .collect();
        drive(&[PortSpec::in_order(7, ns(1))], &junk, |_, t| {
            (t + ns(700), OpOutcome::Retried)
        });
        assert_eq!(shared_bus_run(), fresh);
        // And again: reuse holds across cycles.
        assert_eq!(shared_bus_run(), fresh);
    }

    #[test]
    fn nested_runs_each_keep_their_own_buffers() {
        let spec = [PortSpec::out_of_order(2, ns(1))];
        let inner = || drive_clean(&spec, &[0; 5], |_, t| t + ns(10));
        let inner_span = inner().last().unwrap().completed.duration_since(Time::ZERO);
        let nested = drive_clean(&spec, &[0; 5], |_, t| {
            let span = inner().last().unwrap().completed.duration_since(Time::ZERO);
            t + span
        });
        let flat = drive_clean(&spec, &[0; 5], |_, t| t + inner_span);
        assert_eq!(nested, flat);
    }

    #[test]
    #[should_panic(expected = "completed before it was issued")]
    fn causality_enforced() {
        drive(
            &[PortSpec::in_order(1, ns(0))],
            &[(0, Time::from_nanos(10))],
            |_, _| (Time::ZERO, OpOutcome::Clean),
        );
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_window_rejected() {
        let _ = PortSpec::in_order(0, ns(0));
    }
}
