//! Integration tests for the port scheduler (`sim_core::port::run`):
//! contention is *measured* out of the shared timing models, not computed
//! by dividing bandwidth analytically, and the closed-form schedule is
//! held call for call to an event-driven reference engine.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use cxl_proto::request::RequestType;
use cxl_type2::addr::device_line;
use cxl_type2::device::CxlDevice;
use cxl_type2::lsu::{BurstTarget, Lsu};
use host::burst::{run_burst, run_concurrent, BurstResult};
use host::socket::Socket;
use mem_subsys::dram::{DramTech, MemorySystem};
use mem_subsys::line::LineAddr;
use proptest::prelude::*;
use sim_core::port::{self, OpOutcome, PortSpec};
use sim_core::rng::SimRng;
use sim_core::stats::bandwidth_gbps;
use sim_core::time::{Duration, Time};

/// One retired request: `(request, issued, completed, outcome)`.
type Done = (usize, Time, Time, OpOutcome);

/// Runs `reqs`, each a `(port, ready)` pair, over `specs` through the
/// port scheduler against `backend(request, issue_time)`, and returns
/// the completions in the order the scheduler reports them.
fn schedule(
    specs: &[PortSpec],
    reqs: &[(usize, Time)],
    mut backend: impl FnMut(usize, Time) -> (Time, OpOutcome),
) -> Vec<Done> {
    port::run(
        &mut backend,
        specs.len(),
        |_, p| specs[p],
        |_, p, from| {
            (from..reqs.len())
                .find(|&i| reqs[i].0 == p)
                .map(|i| (i, reqs[i].1))
        },
        |backend, i, t| backend(i, t),
        |done| {
            done.iter()
                .map(|r| (r.req, r.issued, r.completed, r.outcome))
                .collect()
        },
    )
}

/// [`schedule`] with every request ready at zero and a clean backend.
fn schedule_clean(
    specs: &[PortSpec],
    ports: impl IntoIterator<Item = usize>,
    mut backend: impl FnMut(usize, Time) -> Time,
) -> Vec<Done> {
    let reqs: Vec<_> = ports.into_iter().map(|p| (p, Time::ZERO)).collect();
    schedule(specs, &reqs, |i, t| (backend(i, t), OpOutcome::Clean))
}

/// Issue times in ns of the requests `keep` selects, in completion order.
fn issue_ns(done: &[Done], keep: impl Fn(usize) -> bool) -> Vec<u64> {
    done.iter()
        .filter(|d| keep(d.0))
        .map(|d| d.1.duration_since(Time::ZERO).as_picos() / 1000)
        .collect()
}

/// The event-driven port engine the scheduler replaced, kept as its
/// reference. Each port queues its requests FIFO and schedules an issue
/// event for its head at the head's admission time; an issue calls the
/// backend and schedules the request's completion event. One binary heap
/// pops every event in `(time, scheduling order)`, and completions are
/// reported as they pop.
fn reference(
    specs: &[PortSpec],
    reqs: &[(usize, Time)],
    mut backend: impl FnMut(usize, Time) -> (Time, OpOutcome),
) -> Vec<Done> {
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    enum Event {
        Issue(usize),
        Complete(usize),
    }
    /// The event queue: a min-heap on `(time, scheduling order)`.
    #[derive(Default)]
    struct Queue {
        heap: BinaryHeap<Reverse<(Time, u64, Event)>>,
        seq: u64,
    }
    impl Queue {
        fn push(&mut self, at: Time, event: Event) {
            self.heap.push(Reverse((at, self.seq, event)));
            self.seq += 1;
        }
    }
    struct RefPort {
        spec: PortSpec,
        in_order: bool,
        pending: VecDeque<usize>,
        /// Completion times of issued requests, in issue order.
        completions: Vec<Time>,
        /// Completion times still in flight, sorted (out of order only).
        inflight: Vec<Time>,
        next_issue: Time,
    }
    impl RefPort {
        /// Schedules the issue of the next pending request, if any, at
        /// its admission time.
        fn schedule_head(&mut self, reqs: &[(usize, Time)], queue: &mut Queue) {
            let Some(i) = self.pending.pop_front() else {
                return;
            };
            let mut at = reqs[i].1.max(self.next_issue);
            let window = self.spec.max_outstanding;
            if self.in_order {
                let issued = self.completions.len();
                if issued >= window {
                    at = at.max(self.completions[issued - window]);
                }
            } else {
                self.inflight.retain(|&c| c > at);
                if self.inflight.len() >= window {
                    at = at.max(self.inflight.remove(0));
                    self.inflight.retain(|&c| c > at);
                }
            }
            queue.push(at, Event::Issue(i));
        }
    }

    let mut ports: Vec<RefPort> = specs
        .iter()
        .map(|&spec| RefPort {
            spec,
            in_order: spec == PortSpec::in_order(spec.max_outstanding, spec.issue_interval),
            pending: VecDeque::new(),
            completions: Vec::new(),
            inflight: Vec::new(),
            next_issue: Time::ZERO,
        })
        .collect();
    for (i, &(p, _)) in reqs.iter().enumerate() {
        ports[p].pending.push_back(i);
    }
    let mut queue = Queue::default();
    for port in &mut ports {
        port.schedule_head(reqs, &mut queue);
    }
    let mut issued = vec![(Time::ZERO, OpOutcome::Clean); reqs.len()];
    let mut done = Vec::new();
    while let Some(Reverse((at, _, event))) = queue.heap.pop() {
        match event {
            Event::Issue(i) => {
                let (completion, outcome) = backend(i, at);
                assert!(
                    completion >= at,
                    "transaction completed before it was issued"
                );
                issued[i] = (at, outcome);
                let port = &mut ports[reqs[i].0];
                port.completions.push(completion);
                if !port.in_order {
                    let pos = port.inflight.partition_point(|&c| c <= completion);
                    port.inflight.insert(pos, completion);
                }
                port.next_issue = at + port.spec.issue_interval;
                queue.push(completion, Event::Complete(i));
                port.schedule_head(reqs, &mut queue);
            }
            Event::Complete(i) => done.push((i, issued[i].0, at, issued[i].1)),
        }
    }
    done
}

/// N >= 8 concurrent reads pinned to one DRAM channel complete strictly
/// later than the same N striped across channels: the scheduler observes
/// the channel's bus busy intervals instead of assuming ideal interleave.
#[test]
fn same_channel_transactions_complete_later_than_independent() {
    const N: usize = 16;
    let run = |addrs: Vec<LineAddr>| -> Time {
        let mut mem = MemorySystem::new(DramTech::Ddr4_2400, 2, 32);
        let spec = PortSpec::out_of_order(32, Duration::ZERO);
        let done = schedule_clean(&[spec], vec![0; addrs.len()], |i, t| mem.read(addrs[i], t));
        done.iter().map(|d| d.2).max().expect("non-empty")
    };
    // Stride 2 pins every line to channel 0; stride 1 alternates channels.
    let same_channel = run((0..N as u64).map(|i| LineAddr::new(i * 2)).collect());
    let independent = run((0..N as u64).map(LineAddr::new).collect());
    assert!(
        same_channel > independent,
        "channel contention must delay completion: same-channel {same_channel} \
         vs interleaved {independent}"
    );
    // The gap is the serialized bus: N transfers on one bus vs N/2 on each.
    let per = DramTech::Ddr4_2400.line_transfer_time();
    assert_eq!(
        same_channel.duration_since(independent),
        per * (N as u64 / 2)
    );
}

/// A large out-of-order burst against one DDR4-2400 channel sustains the
/// channel's measured drain rate — near its 19.2 GB/s peak, not a value
/// divided down analytically.
#[test]
fn measured_bandwidth_saturates_single_channel_peak() {
    const N: u64 = 2048;
    let run = |stride: u64| -> f64 {
        let mut mem = MemorySystem::new(DramTech::Ddr4_2400, 2, 32);
        let spec = PortSpec::out_of_order(64, Duration::ZERO);
        let done = schedule_clean(&[spec], vec![0; N as usize], |i, t| {
            mem.read(LineAddr::new(i as u64 * stride), t)
        });
        let last = done.iter().map(|d| d.2).max().expect("non-empty");
        bandwidth_gbps(N * 64, last.duration_since(Time::ZERO))
    };
    // Stride 2 keeps every line on channel 0.
    let bw = run(2);
    let peak = DramTech::Ddr4_2400.channel_bandwidth_gbps();
    assert!(
        bw > 0.95 * peak && bw <= peak + 1e-9,
        "single-channel bandwidth {bw} should saturate near {peak}"
    );
    // Striping over both channels roughly doubles it — measured, not split.
    let bw2 = run(1);
    assert!(
        bw2 > 1.8 * bw,
        "two-channel bandwidth {bw2} should near-double one channel's {bw}"
    );
}

/// The same contention effect end-to-end through the device: D2D
/// concurrent transactions pinned to one device-DRAM channel finish later
/// than transactions spread over both.
#[test]
fn d2d_concurrent_burst_observes_channel_contention() {
    const N: usize = 16;
    let run = |addrs: Vec<LineAddr>| -> Time {
        let mut host = Socket::xeon_6538y();
        let mut dev = CxlDevice::agilex7();
        let r = Lsu::new().concurrent_burst(
            &mut dev,
            &mut host,
            RequestType::CS_RD,
            BurstTarget::DeviceMemory,
            &addrs,
            Time::ZERO,
            32,
        );
        assert_eq!(r.latencies.len(), N);
        r.last_completion
    };
    let same_channel = run((0..N as u64).map(|i| device_line(i * 2)).collect());
    let spread = run((0..N as u64).map(device_line).collect());
    assert!(
        same_channel > spread,
        "device-channel contention must delay the burst: {same_channel} vs {spread}"
    );
}

/// Fig. 4-style D2D read bandwidth through the full device stack: with
/// deep MLP and all lines on one device channel, the measured rate
/// approaches the DDR4-2400 channel peak (drain-bound); spread over both
/// channels it rises above a single channel's peak.
#[test]
fn d2d_concurrent_bandwidth_saturates_device_channel() {
    const N: usize = 1024;
    let run = |addrs: Vec<LineAddr>| -> f64 {
        let mut host = Socket::xeon_6538y();
        let mut dev = CxlDevice::agilex7();
        let r = Lsu::new().concurrent_burst(
            &mut dev,
            &mut host,
            RequestType::CS_RD,
            BurstTarget::DeviceMemory,
            &addrs,
            Time::ZERO,
            64,
        );
        r.bandwidth_gbps(64)
    };
    let peak = DramTech::Ddr4_2400.channel_bandwidth_gbps();
    let one_channel = run((0..N as u64).map(|i| device_line(i * 2)).collect());
    assert!(
        one_channel > 0.8 * peak && one_channel <= peak + 1e-9,
        "drain-bound D2D bandwidth {one_channel} should sit near the \
         DDR4-2400 channel peak {peak}"
    );
    let both_channels = run((0..N as u64).map(device_line).collect());
    assert!(
        both_channels > one_channel,
        "striping over both device channels must raise measured bandwidth \
         ({both_channels} vs {one_channel})"
    );
}

/// An in-order descriptor ring and an out-of-order MSHR-style port share
/// one schedule: completions from both interleave in global timestamp
/// order, and each port's admission policy holds independently.
#[test]
fn mixed_admission_ports_share_one_schedule() {
    // Even requests go to the ring (port 0), odd ones to the MSHR (port
    // 1). The backend is stateless so each port's arithmetic stays exact.
    let specs = [
        PortSpec::in_order(2, Duration::ZERO),
        PortSpec::out_of_order(4, Duration::ZERO),
    ];
    let done = schedule_clean(&specs, (0..12).map(|i| i % 2), |i, t| {
        t + Duration::from_nanos(if i % 2 == 1 { 37 } else { 100 })
    });
    assert_eq!(done.len(), 12);
    // Completion stream is globally time-ordered.
    assert!(done.windows(2).all(|w| w[0].2 <= w[1].2));
    // In-order window 2: issues gate on the completion two slots back —
    // pairs at 0, 100, 200 ns; completions at 100, 200, 300 ns.
    assert_eq!(issue_ns(&done, |i| i % 2 == 0), [0, 0, 100, 100, 200, 200]);
    // Out-of-order window 4: four issue immediately, two wait for the
    // earliest retire at 37 ns.
    assert_eq!(issue_ns(&done, |i| i % 2 == 1), [0, 0, 0, 0, 37, 37]);
    // The streams genuinely interleave: all six MSHR completions (37 and
    // 74 ns) drain before the ring's first at 100 ns.
    assert!(done[..6].iter().all(|d| d.0 % 2 == 1));
}

/// Out-of-order admission lets short transactions overtake long ones;
/// an in-order window of one in the same schedule serializes its stream
/// in submission order regardless of per-transaction latency.
#[test]
fn ooo_overtakes_while_window_one_preserves_fifo() {
    const N: usize = 8;
    // Requests 0..N go to the FIFO (port 0), N..2N to the MSHR (port 1).
    let specs = [
        PortSpec::in_order(1, Duration::ZERO),
        PortSpec::out_of_order(N, Duration::ZERO),
    ];
    // Earlier requests of each port take longer: its k-th costs (N - k)
    // * 10 ns.
    let done = schedule_clean(&specs, (0..2 * N).map(|i| i / N), |i, t| {
        t + Duration::from_nanos((N - i % N) as u64 * 10)
    });
    let order = |port: usize| -> Vec<usize> {
        done.iter()
            .filter(|d| d.0 / N == port)
            .map(|d| d.0 % N)
            .collect()
    };
    // All out-of-order requests issue at time zero, so the short late
    // ones complete first: pure reversal.
    assert_eq!(order(1), (0..N).rev().collect::<Vec<_>>());
    // Window 1 gates each issue on the previous completion: FIFO survives
    // the adversarial latencies.
    assert_eq!(order(0), (0..N).collect::<Vec<_>>());
}

/// Same-input schedules are identical: completions, issue times, and
/// ordering are all byte-stable.
#[test]
fn engine_schedules_are_deterministic() {
    let run = || {
        let mut mem = MemorySystem::new(DramTech::Ddr4_2400, 2, 32);
        let specs = [
            PortSpec::out_of_order(8, Duration::ZERO),
            PortSpec::in_order(4, Duration::from_nanos(1)),
        ];
        schedule_clean(&specs, (0..64).map(|i| usize::from(i % 3 == 0)), |i, t| {
            mem.read(LineAddr::new(i as u64 * 7), t)
        })
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "identical requests must yield identical schedules");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The port scheduler is the closed form of the reference engine:
    /// the same backend calls, at the same times, in the same order, and
    /// the same completions in the same order. Ports draw their admission
    /// kind, window and cadence; requests their port, ready time and
    /// outcome.
    #[test]
    fn scheduler_matches_reference_engine(
        ports in 1usize..5,
        n in 1usize..200,
        bus_ns in 0u64..4,
        seed in any::<u64>(),
    ) {
        assert_scheduler_matches_reference(ports, n, bus_ns, seed);
    }

    /// `run_burst` is the closed form of one in-order port: the same
    /// backend calls, at the same times, in the same order, and the same
    /// result as the reference engine. A quarter of the latencies are
    /// zero and the rest are drawn at random, so completions are
    /// non-monotone and the window waits on a request that is not the
    /// latest to complete.
    #[test]
    fn run_burst_matches_one_in_order_engine_port(
        n in 1usize..200,
        max_outstanding in 1usize..40,
        interval_ns in 0u64..20,
        start_ns in 0u64..10_000,
        seed in any::<u64>(),
    ) {
        let mut rng = SimRng::seed_from(seed);
        let latency: Vec<Duration> = (0..n).map(|_| random_latency(&mut rng)).collect();
        let interval = Duration::from_nanos(interval_ns);
        let start = Time::from_nanos(start_ns);

        let mut burst_calls = Vec::new();
        let port = PortSpec::in_order(max_outstanding, interval);
        let burst = run_burst(n, port, start, |i, t| {
            burst_calls.push((i, t));
            t + latency[i]
        });

        let spec = PortSpec::in_order(max_outstanding, interval);
        let mut engine_calls = Vec::new();
        let done = reference(&[spec], &vec![(0, start); n], |i, t| {
            engine_calls.push((i, t));
            (t + latency[i], OpOutcome::Clean)
        });

        prop_assert_eq!(burst_calls, engine_calls);
        prop_assert_eq!(burst, burst_result(&done, start));
    }

    /// `run_concurrent` is the port scheduler with every request ready at
    /// `start`: the same backend calls, at the same times and in the same
    /// order, and the same result as out-of-order reference ports. Each
    /// port draws its own window (1–40) and cadence (0–20 ns), and each
    /// request a random port. The backend is stateful, a bus every
    /// request serialises on, and a quarter of the latencies after it are
    /// zero, so admissions tie across ports and completions tie within
    /// one.
    #[test]
    fn run_concurrent_matches_out_of_order_engine_ports(
        ports in 1usize..5,
        n in 1usize..200,
        start_ns in 0u64..10_000,
        bus_ns in 0u64..4,
        seed in any::<u64>(),
    ) {
        let start = Time::from_nanos(start_ns);
        let mut rng = SimRng::seed_from(seed);
        let specs: Vec<PortSpec> = (0..ports)
            .map(|_| PortSpec::out_of_order(random_window(&mut rng), random_interval(&mut rng)))
            .collect();
        let port_of: Vec<usize> = (0..n)
            .map(|_| rng.gen_range(ports as u64) as usize)
            .collect();
        let latency: Vec<Duration> = (0..n).map(|_| random_latency(&mut rng)).collect();
        let bus = Duration::from_nanos(bus_ns);
        let backend = |bus_free: &mut Time, i: usize, t: Time| {
            *bus_free = (*bus_free).max(t) + bus;
            *bus_free + latency[i]
        };

        let mut calls = Vec::new();
        let mut bus_free = Time::ZERO;
        let closed = run_concurrent(
            &mut bus_free,
            n,
            start,
            ports,
            |_, p| specs[p],
            |_, i| port_of[i],
            |bus_free, i, t| {
                calls.push((i, t));
                backend(bus_free, i, t)
            },
        );

        let reqs: Vec<_> = port_of.iter().map(|&p| (p, start)).collect();
        let mut engine_calls = Vec::new();
        let mut bus_free = Time::ZERO;
        let done = reference(&specs, &reqs, |i, t| {
            engine_calls.push((i, t));
            (backend(&mut bus_free, i, t), OpOutcome::Clean)
        });

        prop_assert_eq!(calls, engine_calls);
        prop_assert_eq!(closed, burst_result(&done, start));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// The larger rung: up to 8 ports and 4,000 requests, so windows wrap
    /// many times and every port waits on its window.
    #[test]
    #[ignore = "heavy differential sweep; CI runs it via cargo test --release -- --ignored"]
    fn scheduler_matches_reference_engine_at_scale(
        ports in 1usize..9,
        n in 1usize..4_000,
        bus_ns in 0u64..4,
        seed in any::<u64>(),
    ) {
        assert_scheduler_matches_reference(ports, n, bus_ns, seed);
    }
}

/// A port window of 1–40.
fn random_window(rng: &mut SimRng) -> usize {
    1 + rng.gen_range(40) as usize
}

/// A port cadence of 0–20 ns.
fn random_interval(rng: &mut SimRng) -> Duration {
    Duration::from_nanos(rng.gen_range(21))
}

/// A latency that is zero a quarter of the time and otherwise up to
/// 500 ns, so completions tie and overtake one another.
fn random_latency(rng: &mut SimRng) -> Duration {
    match rng.gen_range(4) {
        0 => Duration::ZERO,
        _ => Duration::from_picos(rng.gen_range(500_000)),
    }
}

/// The `BurstResult` of a burst that started at `start`.
fn burst_result(done: &[Done], start: Time) -> BurstResult {
    let mut latencies = vec![Duration::ZERO; done.len()];
    let mut last_completion = start;
    for &(i, issued, completed, _) in done {
        latencies[i] = completed.duration_since(issued);
        last_completion = last_completion.max(completed);
    }
    BurstResult {
        first_issue: start,
        last_completion,
        latencies,
    }
}

/// Runs `n` requests over `ports` random ports, once through the port
/// scheduler and once through the reference engine, against the same
/// backend, and asserts the same backend calls and completions. Each
/// port draws its admission kind, window and cadence; each request its
/// port, its latency and its ready time: zero an eighth of the time, so
/// arrivals tie, and otherwise anywhere in the run, so a port's requests
/// arrive out of index order and some find their port idle. The backend holds a shared bus
/// `bus_ns` per request, then adds the latency, and fails or retries
/// some requests.
fn assert_scheduler_matches_reference(ports: usize, n: usize, bus_ns: u64, seed: u64) {
    let mut rng = SimRng::seed_from(seed);
    let specs: Vec<PortSpec> = (0..ports)
        .map(|_| {
            let (window, interval) = (random_window(&mut rng), random_interval(&mut rng));
            if rng.gen_range(2) == 0 {
                PortSpec::in_order(window, interval)
            } else {
                PortSpec::out_of_order(window, interval)
            }
        })
        .collect();
    let reqs: Vec<(usize, Time)> = (0..n)
        .map(|_| {
            let port = rng.gen_range(ports as u64) as usize;
            let ready = Time::from_nanos(rng.gen_range(8) * rng.gen_range(n as u64 * 10));
            (port, ready)
        })
        .collect();
    let latency: Vec<Duration> = (0..n).map(|_| random_latency(&mut rng)).collect();
    let outcome: Vec<OpOutcome> = (0..n)
        .map(|_| match rng.gen_range(8) {
            0 => OpOutcome::Failed,
            1 | 2 => OpOutcome::Retried,
            _ => OpOutcome::Clean,
        })
        .collect();
    let bus = Duration::from_nanos(bus_ns);
    let backend = |bus_free: &mut Time, i: usize, t: Time| {
        *bus_free = (*bus_free).max(t) + bus;
        (*bus_free + latency[i], outcome[i])
    };

    let mut calls = Vec::new();
    let mut bus_free = Time::ZERO;
    let done = schedule(&specs, &reqs, |i, t| {
        calls.push((i, t));
        backend(&mut bus_free, i, t)
    });
    let mut engine_calls = Vec::new();
    let mut bus_free = Time::ZERO;
    let engine_done = reference(&specs, &reqs, |i, t| {
        engine_calls.push((i, t));
        backend(&mut bus_free, i, t)
    });

    assert_eq!(calls, engine_calls);
    assert_eq!(done, engine_done);
}
