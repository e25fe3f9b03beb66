//! Port-based concurrent transaction engine.
//!
//! Every datapath in the workspace — host LD/ST queues, the device LSU
//! window, the H2D ingress pipeline, DRAM channels, PCIe descriptor rings —
//! is at bottom the same structure: a *port* that admits a bounded number
//! of outstanding transactions, issues them at some minimum cadence, and
//! completes them out of a shared, stateful timing model. [`PortEngine`]
//! captures that structure once, driven by the [`EventQueue`]: callers
//! submit tagged transactions against one or more ports, and the engine
//! issues them in global timestamp order (FIFO tiebreak, so runs are
//! deterministic), invoking a backend closure that returns each
//! transaction's completion time.
//!
//! The schedule is open loop: every transaction is submitted before
//! [`PortEngine::run`] starts, and a completion never creates new work.
//! A port therefore always knows its next pending transaction, and the
//! run ends when the last submitted one completes.
//!
//! Because the backend models are stateful (DRAM bus busy intervals, write
//! queues, ingress slots), issuing many in-flight transactions through the
//! engine *measures* contention instead of dividing bandwidth analytically:
//! two transactions that land on the same DRAM channel serialize on its
//! bus, while transactions on different channels overlap.
//!
//! The synchronous single-request facades (`Socket::load`,
//! `CxlDevice::d2h`, …) remain the timing ground truth: the engine calls
//! exactly those models, so a burst of one transaction completes at the
//! identical time the facade reports.
//!
//! Its one user in the simulator is [`traffic`](crate::traffic), whose
//! flows mix in-order and out-of-order ports, arrive over time and report
//! per-op outcomes. A burst on one in-order port, or on out-of-order ports
//! with every request ready at its start, runs in closed form instead
//! (`host::burst`'s `run_burst`, `burst_end` and `run_concurrent`), and
//! property tests hold each to this engine call for call.
//!
//! # Examples
//!
//! ```
//! use sim_core::port::{PortEngine, PortSpec};
//! use sim_core::time::{Duration, Time};
//!
//! // A port 2 deep over a backend with a fixed 100 ns service time.
//! let mut engine = PortEngine::new();
//! let p = engine.add_port(PortSpec::in_order("example", 2, Duration::ZERO));
//! for i in 0..4 {
//!     engine.submit(p, Time::ZERO, i);
//! }
//! let done = engine.run(|_, _, t| t + Duration::from_nanos(100));
//! assert_eq!(done.len(), 4);
//! // Window of 2: pairs complete every 100 ns.
//! assert_eq!(done.last().unwrap().completed, Time::from_nanos(200));
//! ```

use std::collections::VecDeque;

use crate::event::EventQueue;
use crate::time::{Duration, Time};

/// Identifies a port registered with a [`PortEngine`].
pub(crate) type PortId = usize;

/// Tag of one submitted transaction, unique within its engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TxnId(pub u64);

/// How a full port frees an issue slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Admission {
    /// Slot `i` frees when transaction `i - window` completes — in-order
    /// retirement, as in the host LD/ST queues and the FPGA LSU request
    /// window.
    InOrderWindow,
    /// A slot frees at the earliest outstanding completion — out-of-order
    /// retirement, as in MSHR-style miss queues.
    OutOfOrder,
}

/// Static description of one port: its outstanding-transaction limit and
/// issue cadence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortSpec {
    /// Label used in diagnostics.
    pub name: &'static str,
    /// Maximum transactions in flight (queue depth / request window).
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
    pub fn in_order(name: &'static str, max_outstanding: usize, issue_interval: Duration) -> Self {
        assert!(max_outstanding > 0, "port needs at least one slot");
        PortSpec {
            name,
            max_outstanding,
            issue_interval,
            admission: Admission::InOrderWindow,
        }
    }

    /// An out-of-order-retirement port (MSHR semantics).
    ///
    /// # Panics
    ///
    /// Panics if `max_outstanding` is zero.
    pub fn out_of_order(
        name: &'static str,
        max_outstanding: usize,
        issue_interval: Duration,
    ) -> Self {
        assert!(max_outstanding > 0, "port needs at least one slot");
        PortSpec {
            name,
            max_outstanding,
            issue_interval,
            admission: Admission::OutOfOrder,
        }
    }
}

/// Reliability classification of one completed transaction, as reported
/// by an outcome-aware backend (`PortEngine::run_with_outcomes`).
///
/// Plain backends ([`PortEngine::run`]) report every completion as
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

/// One finished transaction, as reported by [`PortEngine::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion<P> {
    /// The transaction's tag.
    pub(crate) id: TxnId,
    /// The port it was issued on.
    pub port: PortId,
    /// The caller's payload.
    pub payload: P,
    /// When the port issued it to the backend.
    pub issued: Time,
    /// When the backend completed it.
    pub completed: Time,
    /// Reliability classification (always [`OpOutcome::Clean`] for
    /// backends that do not report outcomes).
    pub(crate) outcome: OpOutcome,
}

#[derive(Debug, Clone)]
struct TxnSlot<P> {
    port: PortId,
    ready: Time,
    payload: P,
    issued: Option<Time>,
    outcome: OpOutcome,
}

#[derive(Debug, Clone)]
struct PortState {
    spec: PortSpec,
    /// Transactions submitted but not yet issued, FIFO.
    pending: VecDeque<usize>,
    /// Completion times of issued transactions, in issue order.
    issued_completions: Vec<Time>,
    /// Completion times of transactions still counted in flight
    /// (out-of-order admission only), kept sorted ascending.
    inflight: Vec<Time>,
    /// Earliest next issue allowed by the port's cadence.
    next_issue: Time,
}

impl PortState {
    fn new(spec: PortSpec) -> Self {
        PortState {
            spec,
            pending: VecDeque::new(),
            issued_completions: Vec::new(),
            inflight: Vec::new(),
            next_issue: Time::ZERO,
        }
    }

    /// Rewinds a spare port to a fresh one for `spec`, keeping its
    /// queues' allocations.
    fn reuse(&mut self, spec: PortSpec) {
        self.spec = spec;
        self.pending.clear();
        self.issued_completions.clear();
        self.inflight.clear();
        self.next_issue = Time::ZERO;
    }

    /// The earliest time the next pending transaction may issue, given the
    /// port's cadence and its admission policy.
    fn admit_at(&mut self, ready: Time) -> Time {
        let mut at = ready.max(self.next_issue);
        let window = self.spec.max_outstanding;
        match self.spec.admission {
            Admission::InOrderWindow => {
                let issued = self.issued_completions.len();
                if issued >= window {
                    at = at.max(self.issued_completions[issued - window]);
                }
            }
            Admission::OutOfOrder => {
                self.inflight.retain(|&c| c > at);
                if self.inflight.len() >= window {
                    let earliest = self.inflight.remove(0);
                    at = at.max(earliest);
                    self.inflight.retain(|&c| c > at);
                }
            }
        }
        at
    }

    fn record_issue(&mut self, at: Time, completion: Time) {
        self.issued_completions.push(completion);
        if self.spec.admission == Admission::OutOfOrder {
            let pos = self.inflight.partition_point(|&c| c <= completion);
            self.inflight.insert(pos, completion);
        }
        self.next_issue = at + self.spec.issue_interval;
    }
}

#[derive(Debug, Clone, Copy)]
enum EngineEvent {
    Issue(usize),
    Complete(usize),
}

/// A deterministic multi-port transaction engine.
///
/// Submit transactions with [`submit`](Self::submit), then
/// [`run`](Self::run) them against a backend. Issues across all ports are
/// interleaved in global timestamp order with a stable FIFO tiebreak, so
/// the same submissions always produce the same backend call sequence —
/// and therefore the same trace bytes.
#[derive(Debug, Clone)]
pub struct PortEngine<P> {
    ports: Vec<PortState>,
    txns: Vec<TxnSlot<P>>,
    /// The event queue driving [`run`](Self::run), kept as a field so
    /// repeated runs (and [`reset`](Self::reset) cycles) reuse its grown
    /// heap instead of reallocating it.
    queue: EventQueue<EngineEvent>,
    /// Ports forgotten by [`reset`](Self::reset), last port first, so the
    /// `i`-th [`add_port`](Self::add_port) after a reset gets back the
    /// queues the `i`-th port grew.
    spare_ports: Vec<PortState>,
}

impl<P> PortEngine<P> {
    /// Creates an engine with no ports.
    pub fn new() -> Self {
        PortEngine {
            ports: Vec::new(),
            txns: Vec::new(),
            queue: EventQueue::new(),
            spare_ports: Vec::new(),
        }
    }

    /// Forgets all ports and transactions and rewinds the clock to zero
    /// while keeping every grown allocation — the transaction arena, the
    /// port table with each port's queues, and the event queue's heap. A
    /// driver that builds one engine per burst/point can instead hold a
    /// single engine and `reset` it, making repeated bursts allocation-free
    /// once the first has sized the arenas.
    pub fn reset(&mut self) {
        self.spare_ports.extend(self.ports.drain(..).rev());
        self.txns.clear();
        self.queue.reset();
    }

    /// Registers a port; returns its id.
    pub fn add_port(&mut self, spec: PortSpec) -> PortId {
        let port = match self.spare_ports.pop() {
            Some(mut port) => {
                port.reuse(spec);
                port
            }
            None => PortState::new(spec),
        };
        self.ports.push(port);
        self.ports.len() - 1
    }

    /// Queues a transaction on `port`, to issue no earlier than `ready`.
    ///
    /// # Panics
    ///
    /// Panics if `port` is not a registered port id.
    pub fn submit(&mut self, port: PortId, ready: Time, payload: P) -> TxnId {
        assert!(port < self.ports.len(), "unknown port {port}");
        let idx = self.txns.len();
        self.txns.push(TxnSlot {
            port,
            ready,
            payload,
            issued: None,
            outcome: OpOutcome::Clean,
        });
        self.ports[port].pending.push_back(idx);
        TxnId(idx as u64)
    }

    /// Issues every submitted transaction, driving the event queue until
    /// all have completed. `backend(id, payload, issue_time)` performs one
    /// transaction against the (stateful) timing model and returns its
    /// completion time.
    ///
    /// Completions are returned in completion-time order (FIFO at equal
    /// times), which is the order a hardware completion queue would drain.
    ///
    /// # Panics
    ///
    /// Panics if the backend reports a completion before the issue time.
    pub fn run(&mut self, mut backend: impl FnMut(TxnId, &P, Time) -> Time) -> Vec<Completion<P>>
    where
        P: Clone,
    {
        self.run_with_outcomes(|id, p, t| (backend(id, p, t), OpOutcome::Clean))
    }

    /// [`run`](Self::run) with an outcome-aware backend: alongside each
    /// completion time the backend classifies the op as clean, retried, or
    /// failed, and the classification is carried on the [`Completion`].
    /// This is how retry-aware layers (`RetryLink`, DCOH timeouts)
    /// report partial failure without changing the engine's scheduling
    /// behaviour — a failed op still occupies its port slot until its
    /// declared completion time, exactly like a real transaction that
    /// burned the window before erroring out.
    ///
    /// # Panics
    ///
    /// Panics if the backend reports a completion before the issue time.
    pub(crate) fn run_with_outcomes(
        &mut self,
        backend: impl FnMut(TxnId, &P, Time) -> (Time, OpOutcome),
    ) -> Vec<Completion<P>>
    where
        P: Clone,
    {
        let mut out = Vec::new();
        self.run_with_outcomes_into(backend, &mut out);
        out
    }

    /// [`run_with_outcomes`](Self::run_with_outcomes) that appends the
    /// completions to `out` instead of returning a new `Vec`, so a driver
    /// that keeps `out` between runs does not regrow it.
    ///
    /// # Panics
    ///
    /// Panics if the backend reports a completion before the issue time.
    pub(crate) fn run_with_outcomes_into(
        &mut self,
        mut backend: impl FnMut(TxnId, &P, Time) -> (Time, OpOutcome),
        out: &mut Vec<Completion<P>>,
    ) where
        P: Clone,
    {
        // Reuse the engine's queue across runs: rewind it, allocations
        // retained.
        self.queue.reset();
        let PortEngine {
            ports, txns, queue, ..
        } = self;
        // Seed each port's head transaction.
        for port in ports.iter_mut() {
            Self::schedule_head(port, txns, queue);
        }
        while let Some((at, ev)) = queue.pop() {
            match ev {
                EngineEvent::Issue(idx) => {
                    let (completion, outcome) = backend(TxnId(idx as u64), &txns[idx].payload, at);
                    assert!(
                        completion >= at,
                        "transaction completed before it was issued"
                    );
                    let t = &mut txns[idx];
                    t.issued = Some(at);
                    t.outcome = outcome;
                    let port = &mut ports[t.port];
                    port.record_issue(at, completion);
                    queue.schedule(completion, EngineEvent::Complete(idx));
                    Self::schedule_head(port, txns, queue);
                }
                EngineEvent::Complete(idx) => {
                    let t = &txns[idx];
                    out.push(Completion {
                        id: TxnId(idx as u64),
                        port: t.port,
                        payload: t.payload.clone(),
                        issued: t.issued.expect("completed txn was issued"),
                        completed: at,
                        outcome: t.outcome,
                    });
                }
            }
        }
    }

    /// Pops the next pending transaction of `port`, if any, and schedules
    /// its issue event at the port's admission time.
    fn schedule_head(
        port: &mut PortState,
        txns: &[TxnSlot<P>],
        queue: &mut EventQueue<EngineEvent>,
    ) {
        if let Some(idx) = port.pending.pop_front() {
            let at = port.admit_at(txns[idx].ready);
            queue.schedule(at, EngineEvent::Issue(idx));
        }
    }
}

impl<P> Default for PortEngine<P> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(n: u64) -> Duration {
        Duration::from_nanos(n)
    }

    #[test]
    fn single_transaction_matches_backend() {
        let mut e = PortEngine::new();
        let p = e.add_port(PortSpec::in_order("p", 4, ns(1)));
        e.submit(p, Time::from_nanos(10), ());
        let done = e.run(|_, (), t| t + ns(100));
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].issued, Time::from_nanos(10));
        assert_eq!(done[0].completed, Time::from_nanos(110));
    }

    #[test]
    fn window_of_one_serializes() {
        let mut e = PortEngine::new();
        let p = e.add_port(PortSpec::in_order("p", 1, ns(0)));
        for i in 0..8 {
            e.submit(p, Time::ZERO, i);
        }
        let done = e.run(|_, _, t| t + ns(100));
        assert_eq!(done.last().unwrap().completed, Time::from_nanos(800));
    }

    #[test]
    fn issue_interval_limits_rate() {
        let mut e = PortEngine::new();
        let p = e.add_port(PortSpec::in_order("p", 64, ns(10)));
        for i in 0..10 {
            e.submit(p, Time::ZERO, i);
        }
        let done = e.run(|_, _, t| t);
        // Instant backend: last issue at (n-1) * interval.
        assert_eq!(done.last().unwrap().completed, Time::from_nanos(90));
    }

    #[test]
    fn in_order_window_waits_for_oldest() {
        // Txn 0 is slow (300 ns), txns 1.. are fast (10 ns). With a
        // 2-deep in-order window, txn 2 must wait for txn 0 even though
        // txn 1 completed long before.
        let mut e = PortEngine::new();
        let p = e.add_port(PortSpec::in_order("p", 2, ns(0)));
        for i in 0..3 {
            e.submit(p, Time::ZERO, i);
        }
        let done = e.run(|_, &i, t| if i == 0 { t + ns(300) } else { t + ns(10) });
        let t2 = done.iter().find(|c| c.payload == 2).unwrap();
        assert_eq!(t2.issued, Time::from_nanos(300));
    }

    #[test]
    fn out_of_order_window_frees_at_earliest() {
        // Same shape, but OoO admission: txn 1's early completion frees
        // the slot for txn 2.
        let mut e = PortEngine::new();
        let p = e.add_port(PortSpec::out_of_order("p", 2, ns(0)));
        for i in 0..3 {
            e.submit(p, Time::ZERO, i);
        }
        let done = e.run(|_, &i, t| if i == 0 { t + ns(300) } else { t + ns(10) });
        let t2 = done.iter().find(|c| c.payload == 2).unwrap();
        assert_eq!(t2.issued, Time::from_nanos(10));
    }

    #[test]
    fn ports_interleave_in_time_order() {
        // Two ports with offset cadences: backend sees globally sorted
        // issue times.
        let mut e = PortEngine::new();
        let a = e.add_port(PortSpec::in_order("a", 1, ns(7)));
        let b = e.add_port(PortSpec::in_order("b", 1, ns(11)));
        for i in 0..5 {
            e.submit(a, Time::ZERO, i);
            e.submit(b, Time::ZERO, 100 + i);
        }
        let mut last = Time::ZERO;
        e.run(|_, _, t| {
            assert!(t >= last, "issues must be globally time-ordered");
            last = t;
            t + ns(3)
        });
    }

    #[test]
    fn completions_drain_in_time_order() {
        let mut e = PortEngine::new();
        let p = e.add_port(PortSpec::out_of_order("p", 8, ns(0)));
        for i in 0..6u64 {
            e.submit(p, Time::ZERO, i);
        }
        // Reverse service times: later submissions complete earlier.
        let done = e.run(|_, &i, t| t + ns(100 - 10 * i));
        let times: Vec<Time> = done.iter().map(|c| c.completed).collect();
        let mut sorted = times.clone();
        sorted.sort();
        assert_eq!(times, sorted);
        assert_eq!(done.first().unwrap().payload, 5);
    }

    #[test]
    fn deterministic_across_runs() {
        let build = || {
            let mut e = PortEngine::new();
            let a = e.add_port(PortSpec::in_order("a", 3, ns(2)));
            let b = e.add_port(PortSpec::out_of_order("b", 2, ns(5)));
            for i in 0..20u64 {
                e.submit(if i % 3 == 0 { b } else { a }, Time::from_nanos(i), i);
            }
            let mut bus_free = Time::ZERO;
            // A shared serializing backend: contention is measured.
            e.run(move |_, _, t| {
                let start = bus_free.max(t);
                bus_free = start + ns(13);
                bus_free
            })
        };
        let x = build();
        let y = build();
        assert_eq!(x, y, "same submissions must replay identically");
    }

    #[test]
    fn outcomes_ride_on_completions() {
        let mut e = PortEngine::new();
        let p = e.add_port(PortSpec::in_order("p", 2, ns(0)));
        for i in 0..3u64 {
            e.submit(p, Time::ZERO, i);
        }
        let done = e.run_with_outcomes(|_, &i, t| match i {
            0 => (t + ns(10), OpOutcome::Clean),
            1 => (t + ns(50), OpOutcome::Retried),
            _ => (t + ns(5), OpOutcome::Failed),
        });
        let outcome_of = |i: u64| done.iter().find(|c| c.payload == i).unwrap().outcome;
        assert_eq!(outcome_of(0), OpOutcome::Clean);
        assert_eq!(outcome_of(1), OpOutcome::Retried);
        assert_eq!(outcome_of(2), OpOutcome::Failed);
        // Plain run reports Clean everywhere.
        let mut e2: PortEngine<u64> = PortEngine::new();
        let p2 = e2.add_port(PortSpec::in_order("p", 2, ns(0)));
        e2.submit(p2, Time::ZERO, 0);
        let done2 = e2.run(|_, _, t| t + ns(10));
        assert_eq!(done2[0].outcome, OpOutcome::Clean);
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
    fn reset_engine_replays_like_a_fresh_one() {
        // A single engine cycled through reset() must be byte-identical
        // to building a fresh engine per run — the contract the
        // `TrafficScheduler`'s per-thread spare engine depends on.
        let drive = |e: &mut PortEngine<u64>| {
            let a = e.add_port(PortSpec::in_order("a", 3, ns(2)));
            let b = e.add_port(PortSpec::out_of_order("b", 2, ns(5)));
            for i in 0..20u64 {
                e.submit(if i % 3 == 0 { b } else { a }, Time::from_nanos(i), i);
            }
            let mut bus_free = Time::ZERO;
            e.run(move |_, _, t| {
                let start = bus_free.max(t);
                bus_free = start + ns(13);
                bus_free
            })
        };
        let mut fresh = PortEngine::new();
        let reference = drive(&mut fresh);

        let mut reused = PortEngine::new();
        // Dirty the engine with a different shape first, then reset.
        let junk = reused.add_port(PortSpec::in_order("junk", 1, ns(1)));
        for i in 0..50u64 {
            reused.submit(junk, Time::from_nanos(1_000 + i), i);
        }
        let _ = reused.run(|_, _, t| t + ns(700));
        reused.reset();
        assert_eq!(drive(&mut reused), reference);
        // And again: reset is idempotent across cycles.
        reused.reset();
        assert_eq!(drive(&mut reused), reference);
    }

    #[test]
    #[should_panic(expected = "completed before it was issued")]
    fn causality_enforced() {
        let mut e = PortEngine::new();
        let p = e.add_port(PortSpec::in_order("p", 1, ns(0)));
        e.submit(p, Time::from_nanos(10), ());
        e.run(|_, (), _| Time::ZERO);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_window_rejected() {
        let _ = PortSpec::in_order("p", 0, ns(0));
    }
}
