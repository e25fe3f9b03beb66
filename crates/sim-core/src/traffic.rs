//! Multi-initiator workload generation over the port engine.
//!
//! A CXL Type-2 link is full duplex: host cores issue LD/ST against device
//! memory (H2D) while the device LSU, the H2D ingress pipeline, and PCIe
//! descriptor rings push traffic of their own. The interesting behaviour —
//! DCOH request tables filling up, DRAM channels serializing writes from
//! both directions — only appears when those initiators run *concurrently*
//! against one shared timing model.
//!
//! This module provides the missing piece: deterministic workload
//! generators bound to ports. A [`FlowSpec`] pairs an arrival process
//! ([`Arrival`]: Poisson or fixed-rate) with an address stream
//! (`AddressPattern`: uniform or zipfian) and a [`PortSpec`] describing
//! the initiator's queue. Flows are open loop: every arrival time and
//! address is drawn when the flow is added, and the whole flow is
//! submitted before the run starts, as in the paper's case studies where
//! the offered load does not depend on how fast earlier ops complete. A
//! [`TrafficScheduler`] interleaves every registered flow through one
//! shared [`PortEngine`], so transactions from different initiators
//! genuinely collide in whatever stateful backend the caller supplies.
//!
//! Per-flow results come back as [`FlowStats`]: a latency histogram
//! (p50/p99/p999 via [`tail`](FlowStats::tail)), achieved bandwidth and
//! goodput. Each retired op also emits a
//! [`TraceEvent::FlowOp`] record, so traces stay byte-identical across
//! thread counts under the sweep runner.
//!
//! # Examples
//!
//! ```
//! use sim_core::port::PortSpec;
//! use sim_core::time::{Duration, Time};
//! use sim_core::traffic::{FlowSpec, TrafficScheduler};
//!
//! // Two initiators over one serializing 20 ns resource.
//! let mut sched = TrafficScheduler::new(7);
//! sched.add_flow(
//!     FlowSpec::bound("fg", PortSpec::in_order("fg.port", 4, Duration::ZERO))
//!         .open_fixed(Duration::from_nanos(50))
//!         .requests(100),
//! );
//! sched.add_flow(
//!     FlowSpec::bound("bg", PortSpec::in_order("bg.port", 4, Duration::ZERO))
//!         .open_poisson(Duration::from_nanos(80))
//!         .requests(100),
//! );
//! let mut bus_free = Time::ZERO;
//! let report = sched.run(|_op, at| {
//!     let start = bus_free.max(at);
//!     bus_free = start + Duration::from_nanos(20);
//!     bus_free
//! });
//! assert_eq!(report.flows[0].ops + report.flows[1].ops, 200);
//! ```

use crate::port::{Completion, OpOutcome, PortEngine, PortSpec};
use crate::rng::SimRng;
use crate::stats::{bandwidth_gbps, Histogram};
use crate::sweep;
use crate::time::{Duration, Time};
use crate::trace::{self, CounterRegistry, TraceEvent};
use std::cell::Cell;
use std::sync::Mutex;
use tinybench::hist::TailSummary;

/// Kept only because `perfbench` still calls it; counting no longer
/// interns anything, so there is nothing to resolve up front.
pub fn preintern_counters() {}

/// How a flow's requests arrive (always open loop: arrival times do not
/// depend on completions).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrival {
    /// Exponential interarrivals (memoryless offered load).
    Poisson {
        /// Mean time between arrivals.
        mean_interarrival: Duration,
    },
    /// Constant interarrivals (fixed offered rate).
    Fixed {
        /// Time between arrivals; `ZERO` means "as fast as the port
        /// admits".
        interval: Duration,
    },
}

/// Which line each op of a flow touches, over the flow's line range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum AddressPattern {
    /// Independent uniform draws.
    Uniform,
    /// Zipfian draws (Gray's approximation, as in YCSB): a small hot set
    /// absorbs most accesses. `theta` in `(0, 1)`, typically `0.99`.
    Zipfian {
        /// Skew parameter; larger is more skewed.
        theta: f64,
    },
}

/// One workload generator bound to one initiator port.
///
/// Built with [`bound`](Self::bound) plus chained setters; registered via
/// [`TrafficScheduler::add_flow`].
#[derive(Debug, Clone, Copy)]
pub struct FlowSpec {
    /// Flow label for reports.
    pub name: &'static str,
    /// The initiator's queue structure (depth, cadence, admission).
    pub port: PortSpec,
    /// Arrival process.
    pub arrival: Arrival,
    /// Address stream shape.
    pub(crate) pattern: AddressPattern,
    /// First line of the flow's address range.
    pub(crate) base_line: u64,
    /// Number of lines in the range.
    pub(crate) lines: u64,
    /// Total ops this flow generates.
    pub requests: u64,
    /// Bytes moved per op (for achieved-bandwidth reporting).
    pub(crate) bytes_per_op: u64,
}

impl FlowSpec {
    /// A flow named `name` issuing through `port`: open-loop
    /// port-rate-limited arrivals, uniform addresses over 4096 lines from
    /// zero, 1024 requests, 64 B per op, starting at time zero. Override
    /// with the chained setters.
    pub fn bound(name: &'static str, port: PortSpec) -> Self {
        FlowSpec {
            name,
            port,
            arrival: Arrival::Fixed {
                interval: Duration::ZERO,
            },
            pattern: AddressPattern::Uniform,
            base_line: 0,
            lines: 4096,
            requests: 1024,
            bytes_per_op: 64,
        }
    }

    /// Open-loop Poisson arrivals with the given mean interarrival.
    pub fn open_poisson(mut self, mean_interarrival: Duration) -> Self {
        self.arrival = Arrival::Poisson { mean_interarrival };
        self
    }

    /// Open-loop fixed-rate arrivals.
    pub fn open_fixed(mut self, interval: Duration) -> Self {
        self.arrival = Arrival::Fixed { interval };
        self
    }

    /// Zipfian address draws with skew `theta`.
    pub fn zipfian(mut self, theta: f64) -> Self {
        self.pattern = AddressPattern::Zipfian { theta };
        self
    }

    /// Restrict the address stream to `count` lines starting at `base`.
    pub fn over_lines(mut self, base: u64, count: u64) -> Self {
        assert!(count > 0, "flow needs at least one line");
        self.base_line = base;
        self.lines = count;
        self
    }

    /// Total ops to generate.
    pub fn requests(mut self, n: u64) -> Self {
        self.requests = n;
        self
    }

    /// Bytes per op, for bandwidth accounting.
    pub fn bytes_per_op(mut self, bytes: u64) -> Self {
        self.bytes_per_op = bytes;
        self
    }
}

/// Zipfian sampler (Gray et al.'s rejection-free approximation, the
/// same scheme YCSB uses). The `O(n)` harmonic partial sum is computed
/// once per `(n, theta)` per process and shared by every later sampler
/// over the same range and skew. Public so serving layers can shard
/// tenant key popularity with the exact distribution flows use, and so
/// property tests can pin the approximation against the analytic law.
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipfian {
    fn zeta(n: u64, theta: f64) -> f64 {
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    }

    /// [`zeta`](Self::zeta), summed once per `(n, theta)`: every tenant
    /// flow of a serving sweep builds a sampler over the same `2^20`-rank
    /// space, and each sum is `n` `powf` calls. A sweep sees only a few
    /// distinct keys, so a linear scan finds them.
    fn zeta_memo(n: u64, theta: f64) -> f64 {
        static MEMO: Mutex<Vec<((u64, u64), f64)>> = Mutex::new(Vec::new());
        let key = (n, theta.to_bits());
        let mut memo = MEMO
            .lock()
            .expect("zeta memo poisoned: a thread panicked while summing");
        if let Some(&(_, z)) = memo.iter().find(|(k, _)| *k == key) {
            return z;
        }
        let z = Self::zeta(n, theta);
        memo.push((key, z));
        z
    }

    /// A sampler over ranks `[0, n)` with skew `theta`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `theta` is outside `(0, 1)`.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "zipf needs a non-empty range");
        assert!(
            theta > 0.0 && theta < 1.0,
            "zipf theta must be in (0, 1), got {theta}"
        );
        let zetan = Self::zeta_memo(n, theta);
        let zeta2 = Self::zeta(2.min(n), theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipfian {
            n,
            theta,
            alpha,
            zetan,
            eta,
        }
    }

    /// A rank in `[0, n)`, rank 0 hottest.
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        let u = rng.gen_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if self.n > 1 && uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }

    /// The analytic probability mass of the hottest `hot` ranks under
    /// the true Zipf law: `zeta(hot) / zeta(n)`. The sampler's measured
    /// hit rate on those ranks converges to this within the error of
    /// Gray's approximation (a few percent) — the property tests pin
    /// that tolerance.
    pub fn hot_set_mass(&self, hot: u64) -> f64 {
        Self::zeta(hot.min(self.n), self.theta) / self.zetan
    }

    /// The rank-space size this sampler draws from.
    pub fn n(&self) -> u64 {
        self.n
    }
}

/// Payload the scheduler submits for every generated op. Backends read the
/// line address; the `ready` stamp is the op's arrival time, so sojourn
/// (queueing + service) is `completed - ready`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowOp {
    /// Index of the owning flow within its scheduler.
    pub flow: u32,
    /// Op ordinal within the flow.
    pub seq: u64,
    /// Line address the op targets.
    pub line: u64,
    /// Arrival time (generation instant, before any queueing).
    pub ready: Time,
}

/// Per-flow results of one [`TrafficScheduler::run`].
#[derive(Debug, Clone)]
pub struct FlowStats {
    /// The flow's label.
    pub name: &'static str,
    /// Ops retired.
    pub ops: u64,
    /// Bytes moved (`ops * bytes_per_op`).
    pub bytes: u64,
    /// Sojourn (arrival to completion) distribution, all ops.
    pub(crate) hist: Histogram,
    /// Ops that completed on the first attempt.
    pub clean: u64,
    /// Ops that completed only after retries/re-issues.
    pub retried: u64,
    /// Ops that were declared failed.
    pub failed: u64,
    /// Sojourn distribution of retried ops only.
    pub(crate) retried_hist: Histogram,
    /// Sojourn distribution of failed ops only.
    pub(crate) failed_hist: Histogram,
    /// When the flow's first op issued.
    pub first_issue: Time,
    /// When its last op completed.
    pub last_completion: Time,
    /// Summed per-op service time (issue to completion).
    pub(crate) busy: Duration,
}

impl FlowStats {
    fn new(name: &'static str) -> Self {
        FlowStats {
            name,
            ops: 0,
            bytes: 0,
            hist: Histogram::new(),
            clean: 0,
            retried: 0,
            failed: 0,
            retried_hist: Histogram::new(),
            failed_hist: Histogram::new(),
            first_issue: Time::ZERO,
            last_completion: Time::ZERO,
            busy: Duration::ZERO,
        }
    }

    /// Wall-clock span from first issue to last completion.
    pub fn elapsed(&self) -> Duration {
        self.last_completion.duration_since(self.first_issue)
    }

    /// p50/p99/p999/mean of the sojourn distribution (zeros when empty).
    pub fn tail(&self) -> TailSummary {
        TailSummary::of(self.hist.raw())
    }

    /// Achieved bandwidth over the flow's active span.
    pub fn achieved_gbps(&self) -> f64 {
        bandwidth_gbps(self.bytes, self.elapsed())
    }

    /// Goodput: bandwidth counting only ops that delivered data (clean +
    /// retried), over the same active span. Equal to
    /// [`achieved_gbps`](Self::achieved_gbps) when nothing failed.
    pub fn goodput_gbps(&self) -> f64 {
        if self.ops == 0 {
            return 0.0;
        }
        let good_bytes = self.bytes / self.ops * (self.clean + self.retried);
        bandwidth_gbps(good_bytes, self.elapsed())
    }
}

/// Everything one [`TrafficScheduler::run`] produced.
#[derive(Debug, Clone)]
pub struct TrafficReport {
    /// One entry per registered flow, in registration order.
    pub flows: Vec<FlowStats>,
    /// Aggregate counters, summed over `flows`: `traffic.ops` and
    /// `traffic.bytes`, plus `traffic.ops.retried`/`.failed` when nonzero.
    pub counters: CounterRegistry,
}

/// Interleaves every registered flow through one shared [`PortEngine`], so
/// all initiators contend in the caller's backend.
///
/// Determinism: flow `i` draws from `SimRng::seed_from(point_seed(seed,
/// i))`, so adding a flow never perturbs the streams of existing flows,
/// and the same `(seed, flows)` always replays the identical schedule.
///
/// The engine and the completion buffer come from a per-thread spare and
/// go back to it when the scheduler drops, so a sweep that builds one
/// scheduler per point reuses the buffers the previous point grew.
#[derive(Debug, Clone)]
pub struct TrafficScheduler {
    seed: u64,
    engine: PortEngine<FlowOp>,
    completions: Vec<Completion<FlowOp>>,
    flows: Vec<FlowSpec>,
}

/// The buffers a dropped [`TrafficScheduler`] leaves for the next one on
/// its thread.
type Spare = (PortEngine<FlowOp>, Vec<Completion<FlowOp>>);

thread_local! {
    static SPARE: Cell<Option<Spare>> = const { Cell::new(None) };
}

impl TrafficScheduler {
    /// An empty scheduler; `seed` roots every flow's RNG stream.
    pub fn new(seed: u64) -> Self {
        let (mut engine, completions) = SPARE.take().unwrap_or_default();
        engine.reset();
        TrafficScheduler {
            seed,
            engine,
            completions,
            flows: Vec::new(),
        }
    }

    /// Registers `spec` and submits every one of its ops: arrival times
    /// and line addresses are drawn here, from the flow's own stream.
    /// Returns the flow's index.
    pub fn add_flow(&mut self, spec: FlowSpec) -> usize {
        let port = self.engine.add_port(spec.port);
        let idx = self.flows.len();
        let flow = idx as u32;
        let mut rng = SimRng::seed_from(sweep::point_seed(self.seed, idx));
        let zipf = match spec.pattern {
            AddressPattern::Zipfian { theta } => Some(Zipfian::new(spec.lines, theta)),
            AddressPattern::Uniform => None,
        };
        let mut ready = Time::ZERO;
        for seq in 0..spec.requests {
            let offset = match &zipf {
                Some(z) => z.sample(&mut rng),
                None => rng.gen_range(spec.lines),
            };
            let line = spec.base_line + offset;
            self.engine.submit(
                port,
                ready,
                FlowOp {
                    flow,
                    seq,
                    line,
                    ready,
                },
            );
            ready += match spec.arrival {
                Arrival::Poisson { mean_interarrival } => mean_interarrival.mul_f64(rng.gen_exp()),
                Arrival::Fixed { interval } => interval,
            };
        }
        self.flows.push(spec);
        idx
    }

    /// Runs every flow to exhaustion against `backend(op, issue_time) ->
    /// completion_time`. The backend is shared by all flows — its state is
    /// where contention happens.
    pub fn run(&mut self, mut backend: impl FnMut(&FlowOp, Time) -> Time) -> TrafficReport {
        self.run_with_outcomes(|op, at| (backend(op, at), OpOutcome::Clean))
    }

    /// [`run`](Self::run) with an outcome-aware backend: the backend
    /// classifies each op as clean, retried, or failed, and per-flow
    /// stats split accordingly ([`FlowStats::clean`] /
    /// [`FlowStats::retried`] / [`FlowStats::failed`], with separate
    /// retried/failed histograms and [`FlowStats::goodput_gbps`]).
    /// Retry/failure counters appear in the report only when they fire,
    /// so fault-free runs export byte-identical counter files.
    pub fn run_with_outcomes(
        &mut self,
        mut backend: impl FnMut(&FlowOp, Time) -> (Time, OpOutcome),
    ) -> TrafficReport {
        let completions = &mut self.completions;
        completions.clear();
        self.engine
            .run_with_outcomes_into(|_, op, at| backend(op, at), completions);
        let flows = &self.flows;
        let mut stats: Vec<FlowStats> = flows.iter().map(|f| FlowStats::new(f.name)).collect();
        sweep::profile::scope(sweep::profile::Stage::Report, move || {
            for c in completions.iter() {
                let op = &c.payload;
                let s = &mut stats[op.flow as usize];
                if s.ops == 0 || c.issued < s.first_issue {
                    s.first_issue = c.issued;
                }
                s.last_completion = s.last_completion.max(c.completed);
                s.ops += 1;
                s.bytes += flows[op.flow as usize].bytes_per_op;
                let sojourn = c.completed.duration_since(op.ready);
                s.hist.record(sojourn);
                s.busy += c.completed.duration_since(c.issued);
                match c.outcome {
                    OpOutcome::Clean => s.clean += 1,
                    OpOutcome::Retried => {
                        s.retried += 1;
                        s.retried_hist.record(sojourn);
                    }
                    OpOutcome::Failed => {
                        s.failed += 1;
                        s.failed_hist.record(sojourn);
                    }
                }
                trace::emit(
                    c.completed,
                    TraceEvent::FlowOp {
                        flow: op.flow,
                        line: op.line,
                        sojourn_ps: sojourn.as_picos(),
                    },
                );
            }
            TrafficReport {
                counters: counters_of(&stats),
                flows: stats,
            }
        })
    }
}

/// The run's aggregate counters: `traffic.ops` and `traffic.bytes` once
/// any op completed, `.retried` and `.failed` only when they fired, so
/// fault-free runs export the same counter set.
fn counters_of(flows: &[FlowStats]) -> CounterRegistry {
    let sum = |f: fn(&FlowStats) -> u64| flows.iter().map(f).sum::<u64>();
    let mut counters = CounterRegistry::new();
    if sum(|f| f.ops) > 0 {
        counters.add("traffic.ops", sum(|f| f.ops));
        counters.add("traffic.bytes", sum(|f| f.bytes));
    }
    for (name, n) in [
        ("traffic.ops.retried", sum(|f| f.retried)),
        ("traffic.ops.failed", sum(|f| f.failed)),
    ] {
        if n > 0 {
            counters.add(name, n);
        }
    }
    counters
}

impl Drop for TrafficScheduler {
    fn drop(&mut self) {
        let spare = (
            std::mem::take(&mut self.engine),
            std::mem::take(&mut self.completions),
        );
        // `try_with`: a scheduler may drop while thread-locals are torn down.
        let _ = SPARE.try_with(|s| s.set(Some(spare)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(n: u64) -> Duration {
        Duration::from_nanos(n)
    }

    #[test]
    fn memoised_zeta_is_bit_identical_to_the_direct_sum() {
        // Same `n`, different theta first: the memo must key on both.
        for &(n, theta) in &[
            (1u64, 0.5),
            (4096, 0.7),
            (4096, 0.99),
            (1 << 16, 0.99),
            (3, 0.3),
        ] {
            for _ in 0..2 {
                let z = Zipfian::new(n, theta);
                let zetan = Zipfian::zeta(n, theta);
                let zeta2 = Zipfian::zeta(2.min(n), theta);
                let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
                assert_eq!(
                    z.zetan.to_bits(),
                    zetan.to_bits(),
                    "zetan n={n} theta={theta}"
                );
                assert_eq!(z.eta.to_bits(), eta.to_bits(), "eta n={n} theta={theta}");
            }
        }
    }

    /// Fixed 30 ns service, no shared state: a pure per-port pipeline.
    fn fixed_backend(op: &FlowOp, at: Time) -> Time {
        let _ = op;
        at + ns(30)
    }

    #[test]
    fn open_fixed_flow_retires_all_requests() {
        let mut sched = TrafficScheduler::new(1);
        let f = sched.add_flow(
            FlowSpec::bound("a", PortSpec::in_order("a.port", 4, Duration::ZERO))
                .open_fixed(ns(100))
                .requests(16),
        );
        let report = sched.run(fixed_backend);
        let s = &report.flows[f];
        assert_eq!(s.ops, 16);
        assert_eq!(s.bytes, 16 * 64);
        // Unloaded port: every sojourn is the 30 ns service time (up to
        // the histogram's ~3% log-bucket resolution).
        let p99 = s.tail().p99 as f64;
        assert!(
            (p99 - 30_000.0).abs() / 30_000.0 < 0.04,
            "unloaded sojourn p99 should be ~30 ns, got {p99} ps"
        );
        assert_eq!(report.counters.get("traffic.ops"), 16);
    }

    #[test]
    fn flows_contend_in_a_shared_backend() {
        // The same foreground flow, isolated vs alongside a background
        // flow on one serializing bus: contention must raise its p99.
        let run = |with_bg: bool| {
            let mut sched = TrafficScheduler::new(3);
            let fg = sched.add_flow(
                FlowSpec::bound("fg", PortSpec::in_order("fg.port", 2, Duration::ZERO))
                    .open_fixed(ns(100))
                    .requests(200),
            );
            if with_bg {
                sched.add_flow(
                    FlowSpec::bound("bg", PortSpec::in_order("bg.port", 2, Duration::ZERO))
                        .open_poisson(ns(60))
                        .requests(200),
                );
            }
            let mut bus_free = Time::ZERO;
            let report = sched.run(|_, at| {
                let start = bus_free.max(at);
                bus_free = start + ns(40);
                bus_free
            });
            report.flows[fg].tail().p99
        };
        let isolated = run(false);
        let contended = run(true);
        assert!(
            contended > isolated,
            "background load must inflate foreground p99 ({contended} <= {isolated})"
        );
    }

    #[test]
    fn zipfian_skews_toward_hot_lines() {
        let mut sched = TrafficScheduler::new(4);
        let f = sched.add_flow(
            FlowSpec::bound("z", PortSpec::in_order("z.port", 8, Duration::ZERO))
                .zipfian(0.99)
                .over_lines(0, 1024)
                .open_fixed(ns(10))
                .requests(4000),
        );
        let mut hot = 0u64;
        let mut total = 0u64;
        let report = sched.run(|op, at| {
            total += 1;
            if op.line < 16 {
                hot += 1;
            }
            at + ns(5)
        });
        assert_eq!(report.flows[f].ops, 4000);
        // With theta=0.99 the 16 hottest of 1024 lines draw far more than
        // their uniform share (16/1024 ≈ 1.6%).
        assert!(
            hot * 10 > total,
            "zipfian hot set underweighted: {hot}/{total}"
        );
    }

    #[test]
    fn same_seed_replays_identically_and_seeds_differ() {
        let run = |seed: u64| {
            let mut sched = TrafficScheduler::new(seed);
            sched.add_flow(
                FlowSpec::bound("a", PortSpec::out_of_order("a.port", 4, Duration::ZERO))
                    .open_poisson(ns(50))
                    .over_lines(0, 256)
                    .requests(300),
            );
            sched.add_flow(
                FlowSpec::bound("b", PortSpec::in_order("b.port", 2, Duration::ZERO))
                    .open_poisson(ns(25))
                    .zipfian(0.9)
                    .over_lines(256, 256)
                    .requests(300),
            );
            let mut bus_free = Time::ZERO;
            let report = sched.run(|_, at| {
                let start = bus_free.max(at);
                bus_free = start + ns(11);
                bus_free
            });
            (
                report.flows[0].last_completion,
                report.flows[0].tail(),
                report.flows[1].last_completion,
                report.flows[1].tail(),
            )
        };
        assert_eq!(run(9), run(9), "same seed must replay identically");
        assert_ne!(
            run(9).0,
            run(10).0,
            "different seeds must shift the schedule"
        );
    }

    #[test]
    fn poisson_interarrivals_average_to_the_mean() {
        let mut sched = TrafficScheduler::new(6);
        let f = sched.add_flow(
            FlowSpec::bound("p", PortSpec::out_of_order("p.port", 64, Duration::ZERO))
                .open_poisson(ns(100))
                .requests(2000),
        );
        let report = sched.run(|_, at| at + ns(1));
        let s = &report.flows[f];
        // 2000 arrivals at a 100 ns mean: the span concentrates around
        // 200 us; 3-sigma for the sum is ~±6.7%.
        let span_ns = s.elapsed().as_nanos_f64();
        assert!(
            (170_000.0..=230_000.0).contains(&span_ns),
            "poisson span off: {span_ns} ns"
        );
    }

    #[test]
    fn outcome_splits_account_every_op() {
        let mut sched = TrafficScheduler::new(8);
        let f = sched.add_flow(
            FlowSpec::bound("r", PortSpec::in_order("r.port", 4, Duration::ZERO))
                .open_fixed(ns(50))
                .requests(30),
        );
        // Every third op retried (with a longer sojourn), every tenth failed.
        let report = sched.run_with_outcomes(|op, at| match op.seq % 10 {
            9 => (at + ns(500), OpOutcome::Failed),
            s if s % 3 == 0 => (at + ns(120), OpOutcome::Retried),
            _ => (at + ns(30), OpOutcome::Clean),
        });
        let s = &report.flows[f];
        assert_eq!(s.clean + s.retried + s.failed, s.ops);
        assert_eq!(s.failed, 3);
        assert!(s.retried > 0);
        assert!(s.goodput_gbps() < s.achieved_gbps());
        assert_eq!(s.retried_hist.raw().count(), s.retried);
        assert_eq!(report.counters.get("traffic.ops.failed"), 3);
        // A clean run exports no retry/failure counters at all.
        let mut clean = TrafficScheduler::new(8);
        clean.add_flow(
            FlowSpec::bound("c", PortSpec::in_order("c.port", 4, Duration::ZERO))
                .open_fixed(ns(50))
                .requests(10),
        );
        let clean_report = clean.run(fixed_backend);
        assert_eq!(clean_report.counters.get("traffic.ops.retried"), 0);
        assert!(!clean_report
            .counters
            .iter()
            .any(|(k, _)| k.contains("retried") || k.contains("failed")));
        assert_eq!(
            clean_report.flows[0].goodput_gbps(),
            clean_report.flows[0].achieved_gbps()
        );
    }

    #[test]
    fn derived_counters_equal_the_flow_sums() {
        let mut sched = TrafficScheduler::new(12);
        for (name, bytes) in [("x", 64), ("y", 256)] {
            sched.add_flow(
                FlowSpec::bound(name, PortSpec::in_order(name, 4, Duration::ZERO))
                    .open_fixed(ns(40))
                    .requests(50)
                    .bytes_per_op(bytes),
            );
        }
        let report = sched.run_with_outcomes(|op, at| match op.seq % 7 {
            6 => (at + ns(400), OpOutcome::Failed),
            2 | 4 => (at + ns(90), OpOutcome::Retried),
            _ => (at + ns(30), OpOutcome::Clean),
        });
        let sum = |f: fn(&FlowStats) -> u64| report.flows.iter().map(f).sum::<u64>();
        let c = &report.counters;
        assert_eq!(c.get("traffic.ops"), sum(|f| f.ops));
        assert_eq!(c.get("traffic.ops.retried"), sum(|f| f.retried));
        assert_eq!(c.get("traffic.ops.failed"), sum(|f| f.failed));
        assert_eq!(c.get("traffic.bytes"), sum(|f| f.bytes));
        assert_eq!(c.get("traffic.bytes"), 50 * 64 + 50 * 256);
        assert!(sum(|f| f.clean) > 0 && sum(|f| f.retried) > 0 && sum(|f| f.failed) > 0);
        assert_eq!(c.iter().count(), 4);
    }

    #[test]
    fn zipf_rank_zero_is_hottest() {
        let z = Zipfian::new(64, 0.99);
        let mut rng = SimRng::seed_from(11);
        let mut counts = [0u64; 64];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        assert!(counts[0] > counts[1]);
        assert!(counts[1] > counts[8]);
        assert!(counts[8] > counts[63]);
    }
}
