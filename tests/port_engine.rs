//! Integration tests for the port-based transaction engine: contention is
//! *measured* out of the shared timing models, not computed by dividing
//! bandwidth analytically.

use cxl_proto::request::RequestType;
use cxl_type2::addr::device_line;
use cxl_type2::device::CxlDevice;
use cxl_type2::lsu::{BurstTarget, Lsu};
use host::burst::{run_burst, run_concurrent, BurstResult, BurstSpec};
use host::socket::Socket;
use mem_subsys::dram::{DramTech, MemorySystem};
use mem_subsys::line::LineAddr;
use proptest::prelude::*;
use sim_core::port::{PortEngine, PortSpec};
use sim_core::rng::SimRng;
use sim_core::stats::bandwidth_gbps;
use sim_core::time::{Duration, Time};

/// N >= 8 concurrent reads pinned to one DRAM channel complete strictly
/// later than the same N striped across channels: the engine observes the
/// channel's bus busy intervals instead of assuming ideal interleave.
#[test]
fn same_channel_transactions_complete_later_than_independent() {
    const N: usize = 16;
    let run = |addrs: Vec<LineAddr>| -> Time {
        let mut mem = MemorySystem::new(DramTech::Ddr4_2400, 2, 32);
        let mut engine: PortEngine<LineAddr> = PortEngine::new();
        let port = engine.add_port(PortSpec::out_of_order("test.mlp", 32, Duration::ZERO));
        for a in addrs {
            engine.submit(port, Time::ZERO, a);
        }
        let done = engine.run(|_, &a, t| mem.read(a, t));
        done.iter().map(|c| c.completed).max().expect("non-empty")
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
    let mut mem = MemorySystem::new(DramTech::Ddr4_2400, 2, 32);
    let mut engine: PortEngine<LineAddr> = PortEngine::new();
    let port = engine.add_port(PortSpec::out_of_order("test.bw", 64, Duration::ZERO));
    for i in 0..N {
        engine.submit(port, Time::ZERO, LineAddr::new(i * 2)); // channel 0
    }
    let done = engine.run(|_, &a, t| mem.read(a, t));
    let last = done.iter().map(|c| c.completed).max().expect("non-empty");
    let bw = bandwidth_gbps(N * 64, last.duration_since(Time::ZERO));
    let peak = DramTech::Ddr4_2400.channel_bandwidth_gbps();
    assert!(
        bw > 0.95 * peak && bw <= peak + 1e-9,
        "single-channel bandwidth {bw} should saturate near {peak}"
    );
    // Striping over both channels roughly doubles it — measured, not split.
    let mut mem = MemorySystem::new(DramTech::Ddr4_2400, 2, 32);
    let mut engine: PortEngine<LineAddr> = PortEngine::new();
    let port = engine.add_port(PortSpec::out_of_order("test.bw2", 64, Duration::ZERO));
    for i in 0..N {
        engine.submit(port, Time::ZERO, LineAddr::new(i));
    }
    let done = engine.run(|_, &a, t| mem.read(a, t));
    let last = done.iter().map(|c| c.completed).max().expect("non-empty");
    let bw2 = bandwidth_gbps(N * 64, last.duration_since(Time::ZERO));
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

/// An in-order descriptor ring and an out-of-order MSHR-style port drain
/// the same event queue: completions from both interleave in global
/// timestamp order, and each port's admission policy holds independently.
#[test]
fn mixed_admission_ports_drain_one_event_queue() {
    // Payload: (is_ooo, seq). The backend is stateless so each port's
    // arithmetic stays exact; the engine's single queue interleaves them.
    let mut engine: PortEngine<(bool, u64)> = PortEngine::new();
    let ring = engine.add_port(PortSpec::in_order("mix.ring", 2, Duration::ZERO));
    let mshr = engine.add_port(PortSpec::out_of_order("mix.mshr", 4, Duration::ZERO));
    for i in 0..6u64 {
        engine.submit(ring, Time::ZERO, (false, i));
        engine.submit(mshr, Time::ZERO, (true, i));
    }
    let done = engine.run(|_, &(ooo, _), t| {
        t + if ooo {
            Duration::from_nanos(37)
        } else {
            Duration::from_nanos(100)
        }
    });
    assert_eq!(done.len(), 12);
    // Completion stream is globally time-ordered.
    assert!(done.windows(2).all(|w| w[0].completed <= w[1].completed));
    // In-order window 2: issues gate on the completion two slots back —
    // pairs at 0, 100, 200 ns; completions at 100, 200, 300 ns.
    let ring_done: Vec<_> = done.iter().filter(|c| c.port == ring).collect();
    let issue_ns: Vec<u64> = ring_done
        .iter()
        .map(|c| c.issued.duration_since(Time::ZERO).as_picos() / 1000)
        .collect();
    assert_eq!(issue_ns, [0, 0, 100, 100, 200, 200]);
    // Out-of-order window 4: four issue immediately, two wait for the
    // earliest retire at 37 ns.
    let mshr_done: Vec<_> = done.iter().filter(|c| c.port == mshr).collect();
    let issue_ns: Vec<u64> = mshr_done
        .iter()
        .map(|c| c.issued.duration_since(Time::ZERO).as_picos() / 1000)
        .collect();
    assert_eq!(issue_ns, [0, 0, 0, 0, 37, 37]);
    // The streams genuinely interleave: all six MSHR completions (37 and
    // 74 ns) drain before the ring's first at 100 ns.
    assert!(done[0].port == mshr && done.iter().position(|c| c.port == ring).unwrap() == 6);
}

/// Out-of-order admission lets short transactions overtake long ones;
/// an in-order window of one on the same event queue serializes its
/// stream in submission order regardless of per-transaction latency.
#[test]
fn ooo_overtakes_while_window_one_preserves_fifo() {
    const N: u64 = 8;
    let mut engine: PortEngine<(bool, u64)> = PortEngine::new();
    let fifo = engine.add_port(PortSpec::in_order("mix.fifo", 1, Duration::ZERO));
    let mshr = engine.add_port(PortSpec::out_of_order(
        "mix.ooo",
        N as usize,
        Duration::ZERO,
    ));
    for i in 0..N {
        engine.submit(fifo, Time::ZERO, (false, i));
        engine.submit(mshr, Time::ZERO, (true, i));
    }
    // Earlier submissions take longer: payload i costs (N - i) * 10 ns.
    let done = engine.run(|_, &(_, i), t| t + Duration::from_nanos((N - i) * 10));
    let order = |port| -> Vec<u64> {
        done.iter()
            .filter(|c| c.port == port)
            .map(|c| c.payload.1)
            .collect()
    };
    // All OoO transactions issue at time zero, so the short late ones
    // complete first: pure reversal.
    assert_eq!(order(mshr), (0..N).rev().collect::<Vec<_>>());
    // Window 1 gates each issue on the previous completion: FIFO survives
    // the adversarial latencies.
    assert_eq!(order(fifo), (0..N).collect::<Vec<_>>());
}

/// Same-seed engine runs produce identical schedules: completions, issue
/// times, and ordering are all byte-stable.
#[test]
fn engine_schedules_are_deterministic() {
    let run = || {
        let mut mem = MemorySystem::new(DramTech::Ddr4_2400, 2, 32);
        let mut engine: PortEngine<u64> = PortEngine::new();
        let p0 = engine.add_port(PortSpec::out_of_order("det.a", 8, Duration::ZERO));
        let p1 = engine.add_port(PortSpec::in_order("det.b", 4, Duration::from_nanos(1)));
        for i in 0..64u64 {
            engine.submit(if i % 3 == 0 { p1 } else { p0 }, Time::ZERO, i);
        }
        engine.run(|_, &i, t| mem.read(LineAddr::new(i * 7), t))
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "identical submissions must yield identical schedules");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `run_burst` is the closed form of one in-order engine port: the
    /// same backend calls, at the same times, in the same order, and the
    /// same result. A quarter of the latencies are zero and the rest are
    /// drawn at random, so completions are non-monotone and the window
    /// waits on a request that is not the latest to complete.
    #[test]
    fn run_burst_matches_one_in_order_engine_port(
        n in 1usize..200,
        max_outstanding in 1usize..40,
        interval_ns in 0u64..20,
        start_ns in 0u64..10_000,
        seed in any::<u64>(),
    ) {
        let mut rng = SimRng::seed_from(seed);
        let latency: Vec<Duration> = (0..n)
            .map(|_| match rng.gen_range(4) {
                0 => Duration::ZERO,
                _ => Duration::from_picos(rng.gen_range(500_000)),
            })
            .collect();
        let interval = Duration::from_nanos(interval_ns);
        let start = Time::from_nanos(start_ns);

        let mut burst_calls = Vec::new();
        let burst = run_burst(BurstSpec::new(n, interval, max_outstanding), start, |i, t| {
            burst_calls.push((i, t));
            t + latency[i]
        });

        let mut engine: PortEngine<usize> = PortEngine::new();
        let port = engine.add_port(PortSpec::in_order("burst", max_outstanding, interval));
        for i in 0..n {
            engine.submit(port, start, i);
        }
        let mut engine_calls = Vec::new();
        let done = engine.run(|_, &i, t| {
            engine_calls.push((i, t));
            t + latency[i]
        });
        let mut latencies = vec![Duration::ZERO; n];
        let mut first_issue = start;
        let mut last_completion = start;
        for c in &done {
            if c.payload == 0 {
                first_issue = c.issued;
            }
            latencies[c.payload] = c.completed.duration_since(c.issued);
            last_completion = last_completion.max(c.completed);
        }

        prop_assert_eq!(burst_calls, engine_calls);
        prop_assert_eq!(
            burst,
            BurstResult {
                first_issue,
                last_completion,
                latencies,
            }
        );
    }

    /// `run_concurrent` is the closed form of out-of-order engine ports:
    /// the same backend calls, at the same times and in the same order,
    /// and the same result. Each port draws its own window (1–40) and
    /// cadence (0–20 ns), and each request a random port. The backend is
    /// stateful, a bus every request serialises on, and a quarter of the
    /// latencies after it are zero, so admissions tie across ports and
    /// completions tie within one.
    #[test]
    fn run_concurrent_matches_out_of_order_engine_ports(
        ports in 1usize..5,
        n in 1usize..200,
        start_ns in 0u64..10_000,
        bus_ns in 0u64..4,
        seed in any::<u64>(),
    ) {
        assert_concurrent_matches_engine(ports, n, Time::from_nanos(start_ns), bus_ns, seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// The larger rung: up to 8 ports and 4,000 requests, so windows wrap
    /// many times and every port waits on its earliest completion.
    #[test]
    #[ignore = "heavy differential sweep; CI runs it via cargo test --release -- --ignored"]
    fn run_concurrent_matches_out_of_order_engine_ports_at_scale(
        ports in 1usize..9,
        n in 1usize..4_000,
        start_ns in 0u64..10_000,
        bus_ns in 0u64..4,
        seed in any::<u64>(),
    ) {
        assert_concurrent_matches_engine(ports, n, Time::from_nanos(start_ns), bus_ns, seed);
    }
}

/// Runs `n` requests over `ports` random out-of-order ports, once through
/// `run_concurrent` and once through a `PortEngine`, against the same
/// backend: a shared bus held `bus_ns` per request, then a random latency.
fn assert_concurrent_matches_engine(ports: usize, n: usize, start: Time, bus_ns: u64, seed: u64) {
    let mut rng = SimRng::seed_from(seed);
    let specs: Vec<PortSpec> = (0..ports)
        .map(|_| {
            let window = 1 + rng.gen_range(40) as usize;
            let interval = Duration::from_nanos(rng.gen_range(21));
            PortSpec::out_of_order("concurrent", window, interval)
        })
        .collect();
    let port_of: Vec<usize> = (0..n)
        .map(|_| rng.gen_range(ports as u64) as usize)
        .collect();
    let latency: Vec<Duration> = (0..n)
        .map(|_| match rng.gen_range(4) {
            0 => Duration::ZERO,
            _ => Duration::from_picos(rng.gen_range(500_000)),
        })
        .collect();
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

    let mut engine: PortEngine<usize> = PortEngine::new();
    let ids: Vec<_> = specs.iter().map(|&spec| engine.add_port(spec)).collect();
    for (i, &p) in port_of.iter().enumerate() {
        engine.submit(ids[p], start, i);
    }
    let mut engine_calls = Vec::new();
    let mut bus_free = Time::ZERO;
    let done = engine.run(|_, &i, t| {
        engine_calls.push((i, t));
        backend(&mut bus_free, i, t)
    });
    let mut latencies = vec![Duration::ZERO; n];
    let mut first_issue = done[0].issued;
    let mut last_completion = start;
    for c in &done {
        first_issue = first_issue.min(c.issued);
        latencies[c.payload] = c.completed.duration_since(c.issued);
        last_completion = last_completion.max(c.completed);
    }

    assert_eq!(calls, engine_calls);
    assert_eq!(
        closed,
        BurstResult {
            first_issue,
            last_completion,
            latencies,
        }
    );
}
