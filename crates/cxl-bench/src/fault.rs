//! Reliability sweep: goodput and tail latency versus link BER.
//!
//! The paper characterizes the *healthy* Type-2 pipeline; this harness
//! asks what the same pipeline delivers when the link and the DCOH
//! misbehave. One severity knob — the flit bit-error rate — drives every
//! bound fault process, so a single sweep walks the whole reliability
//! story:
//!
//! * **link retry** ([`cxl_proto::retry::RetryLink`]): CRC hits at the
//!   swept BER trigger link replays on the H2D and D2H wires;
//! * **slice timeouts** ([`cxl_type2::reliability::SliceTimeouts`]):
//!   channel stalls (probability scaled from the BER) trip the per-slice
//!   watchdog, back off exponentially, and reissue;
//! * **poison** ([`host::poison::PoisonSet`]): a BER-scaled fraction of
//!   writes plants poisoned lines that surface on the pointer-chase's
//!   reads and force a scrub-and-refetch round trip.
//!
//! Two workloads run per BER point: a Fig. 3-style dependent
//! *pointer-chase* over host memory (per-hop latency is pure round-trip,
//! so retry cost is maximally visible) and the duplex-style *traffic*
//! scenario (foreground H2D `nt-st` against background D2H+D2D ingest,
//! where goodput accounting splits clean/retried/failed ops).
//!
//! Every BER point reuses the *same* workload seed and the same
//! fault-plan seed (common random numbers): points differ only in the
//! bound probabilities. Fault processes are gap-sampled (geometric
//! inter-arrival skip-ahead in `sim_core::fault`), and each gap spends
//! exactly one uniform variate, so one shared stream couples the whole
//! ladder: the same variate yields a strictly shorter gap at a higher
//! rate, the k-th fire never lands later, and the fire set over any
//! horizon only grows with BER. The sweep's headline shape — goodput
//! non-increasing, p999 non-decreasing as BER rises — is pinned by this
//! module's tests. The zero-BER point binds *no* fault process
//! ([`sim_core::fault::FaultPlan::disabled`]), so it takes the exact
//! healthy code path: zero extra RNG draws, zero fault events.

use std::fmt::Write;

use cxl_proto::link::cxl_x16;
use cxl_proto::request::RequestType;
use cxl_proto::retry::{RetryConfig, RetryLink};
use cxl_type2::addr::{device_line, host_line};
use cxl_type2::device::CxlDevice;
use cxl_type2::occupancy::SharedSliceTables;
use cxl_type2::reliability::SliceTimeouts;
use host::poison::PoisonSet;
use host::socket::Socket;
use sim_core::fault::{FaultPlan, FaultProcess};
use sim_core::port::OpOutcome;
use sim_core::rng::SimRng;
use sim_core::stats::{bandwidth_gbps, Histogram};
use sim_core::sweep;
use sim_core::time::{Duration, Time};
use sim_core::traffic::TrafficScheduler;
use tinybench::hist::TailSummary;

/// Injection points this harness registers, one per subsystem.
const POINT_CHASE_LINK: &str = "fault.link.chase";
const POINT_H2D_LINK: &str = "fault.link.h2d";
const POINT_D2H_LINK: &str = "fault.link.d2h";
const POINT_SLICE: &str = "fault.dcoh.slice";
const POINT_MEM: &str = "fault.host.mem";

/// Pointer-chase working set, in host lines.
const CHASE_LINES: u64 = 4096;

/// Foreground issue interval and working sets, mirroring the duplex
/// harness so the zero-BER traffic point is a familiar healthy baseline.
const FG_INTERVAL: Duration = Duration::from_nanos(100);
const FG_LINES: u64 = 4096;
const BG_LINES: u64 = 4096;
const BG_DST_BASE: u64 = 1 << 20;
const BG_BYTES_PER_OP: u64 = 128;
const BG_INTERVAL: Duration = Duration::from_nanos(400);

/// A stalled DCOH attempt overruns the 2 µs watchdog deadline by design.
const STALL_DELAY: Duration = Duration::from_micros(10);

/// Channel-stall probability for a given link BER: stalls are rarer
/// than bit flips per event but far more likely per op (one draw per
/// attempt vs per flit), so the scale keeps both visible on one ladder.
fn stall_probability(ber: f64) -> f64 {
    (ber * 2e3).min(0.5)
}

/// Poisoned-write probability for a given link BER.
fn poison_probability(ber: f64) -> f64 {
    (ber * 1e2).min(0.05)
}

/// The swept bit-error rates: the healthy point plus six decades.
pub(crate) fn fault_bers() -> Vec<f64> {
    vec![0.0, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4]
}

/// The fault plan for one BER point. Zero BER binds nothing — the run
/// takes the exact healthy code path with zero fault-RNG draws.
pub(crate) fn fault_plan(seed: u64, ber: f64) -> FaultPlan {
    if ber == 0.0 {
        return FaultPlan::disabled();
    }
    FaultPlan::new(seed)
        .with(POINT_CHASE_LINK, FaultProcess::bit_error(ber))
        .with(POINT_H2D_LINK, FaultProcess::bit_error(ber))
        .with(POINT_D2H_LINK, FaultProcess::bit_error(ber))
        .with(
            POINT_SLICE,
            FaultProcess::stall(stall_probability(ber), STALL_DELAY),
        )
        .with(POINT_MEM, FaultProcess::poison(poison_probability(ber)))
}

/// One BER point of the reliability sweep.
#[derive(Debug, Clone)]
pub(crate) struct FaultRow {
    /// The flit bit-error rate driving every fault process at this point.
    pub ber: f64,
    /// Pointer-chase per-hop latency tail.
    pub(crate) chase: TailSummary,
    /// Link replays on the chase wire.
    pub(crate) chase_replays: u64,
    /// Poisoned lines that surfaced on chase reads.
    pub(crate) chase_poisoned: u64,
    /// Traffic foreground sojourn tail.
    pub(crate) fg: TailSummary,
    /// Traffic aggregate goodput (clean + retried bytes over the span).
    pub goodput_gbps: f64,
    /// Traffic ops that completed only after retries/reissues.
    pub retried: u64,
    /// Traffic ops abandoned (replays or watchdog attempts exhausted).
    pub failed: u64,
    /// Link replays on the traffic wires (H2D + D2H).
    pub link_replays: u64,
    /// DCOH slice watchdog expiries in the traffic run.
    pub(crate) timeouts: u64,
}

/// Pointer-chase outcome at one BER point.
struct ChaseResult {
    hist: Histogram,
    replays: u64,
    poisoned: u64,
    failed: u64,
}

/// Chases `hops` dependent pointers through host memory: each hop is a
/// request flit and a response flit over the retry link around a home
/// read, and a hop that reads a poisoned pointer must scrub and refetch
/// before it can follow it.
fn run_chase(hops: u64, ber: f64, seed: u64) -> ChaseResult {
    let (mut host, mut link, mut poison) =
        sweep::profile::scope(sweep::profile::Stage::Setup, || {
            let plan = fault_plan(seed, ber);
            let host = Socket::xeon_6538y();
            let link = RetryLink::new(cxl_x16(), RetryConfig, plan.injector(POINT_CHASE_LINK));
            let mut poison = PoisonSet::new(plan.injector(POINT_MEM));
            // The writer that laid down the chain is where poison enters.
            for i in 0..CHASE_LINES {
                poison.on_write(host_line(i), Time::ZERO);
            }
            (host, link, poison)
        });

    let mut rng = SimRng::seed_from(seed);
    let mut hist = Histogram::new();
    let mut failed = 0u64;
    let mut now = Time::ZERO;
    let mut line = 0u64;
    for _ in 0..hops {
        let a = host_line(line);
        let issue = now;
        let (req_at, req_out) = link.deliver(now, 64);
        let read = host.home_read_current(a, req_at, Duration::ZERO);
        let (resp_at, resp_out) = link.deliver(read.completion, 64);
        let mut done = resp_at;
        let mut outcome = req_out.worst(resp_out);
        if poison.check_read(a, resp_at).poison {
            // The pointer word itself is corrupt: scrub, refetch from
            // the clean copy, and pay a second full round trip.
            poison.scrub(a);
            let (r_req, o1) = link.deliver(done, 64);
            let reread = host.home_read_current(a, r_req, Duration::ZERO);
            let (r_resp, o2) = link.deliver(reread.completion, 64);
            done = r_resp;
            outcome = outcome.worst(o1).worst(o2).worst(OpOutcome::Retried);
        }
        if outcome == OpOutcome::Failed {
            failed += 1;
        }
        hist.record(done.duration_since(issue));
        now = done;
        // The next pointer is data-dependent: drawn, not prefetchable.
        line = rng.gen_range(CHASE_LINES);
    }
    ChaseResult {
        hist,
        replays: link.replays(),
        poisoned: poison.surfaced(),
        failed,
    }
}

/// Traffic outcome at one BER point.
struct TrafficResult {
    fg: TailSummary,
    goodput_gbps: f64,
    retried: u64,
    failed: u64,
    link_replays: u64,
    timeouts: u64,
}

/// The duplex-style contention scenario with the reliability layers
/// wrapped around every op: retry links on both wires, the slice
/// watchdog around every DCOH transaction.
fn run_traffic(requests: u64, ber: f64, seed: u64) -> TrafficResult {
    let (mut host, mut dev, mut occ, mut watchdog, mut h2d, mut d2h, mut sched, fg_flow) =
        sweep::profile::scope(sweep::profile::Stage::Setup, || {
            let plan = fault_plan(seed, ber);
            let host = Socket::xeon_6538y();
            let dev = CxlDevice::agilex7();
            let occ = SharedSliceTables::for_device(&dev, vec![dev.timing.dcoh_slice_outstanding]);
            let watchdog = SliceTimeouts::new(plan.injector(POINT_SLICE));
            let h2d = RetryLink::new(cxl_x16(), RetryConfig, plan.injector(POINT_H2D_LINK));
            let d2h = RetryLink::new(cxl_x16(), RetryConfig, plan.injector(POINT_D2H_LINK));

            let mut sched = TrafficScheduler::new(seed);
            let fg_flow = sched.add_flow(
                host.store_flow("fault.fg.h2d")
                    .open_fixed(FG_INTERVAL)
                    .over_lines(0, FG_LINES)
                    .requests(requests),
            ) as u32;
            sched.add_flow(
                dev.lsu_flow_ooo("fault.bg.ingest")
                    .open_poisson(BG_INTERVAL)
                    .over_lines(0, BG_LINES)
                    .bytes_per_op(BG_BYTES_PER_OP)
                    .requests(requests),
            );
            (host, dev, occ, watchdog, h2d, d2h, sched, fg_flow)
        });

    let report = sched.run_with_outcomes(|op, at| {
        if op.flow == fg_flow {
            // Foreground: the store's flit crosses the H2D retry link,
            // then the DCOH transaction runs under the watchdog.
            let addr = device_line(op.line);
            let slice = dev.slice_of(addr);
            let (arrived, wire) = h2d.deliver(at, 64);
            let start = occ.admit(slice, 0, arrived);
            let (done, served) =
                watchdog.supervise(start, |t| dev.h2d_nt_store(addr, t, &mut host).completion);
            occ.retire(slice, 0, done);
            (done, wire.worst(served))
        } else {
            // Background ingest: D2H pull over the retry link, then the
            // D2D commit (device-internal, no wire to corrupt).
            let src = host_line(op.line);
            let s_rd = dev.slice_of(src);
            let (arrived, wire) = d2h.deliver(at, 64);
            let start = occ.admit(s_rd, 0, arrived);
            let (rd, served) = watchdog.supervise(start, |t| {
                dev.d2h(RequestType::NC_RD, src, t, &mut host).completion
            });
            occ.retire(s_rd, 0, rd);

            let dst = device_line(BG_DST_BASE + op.line);
            let s_wr = dev.slice_of(dst);
            let wr_start = occ.admit(s_wr, 0, rd);
            let wr = dev
                .d2d(RequestType::CO_WR, dst, wr_start, &mut host)
                .completion;
            occ.retire(s_wr, 0, wr);
            (wr, wire.worst(served))
        }
    });

    let fg = &report.flows[0];
    let mut retried = 0;
    let mut failed = 0;
    let mut good_bytes = 0u64;
    let mut first = Time::ZERO;
    let mut last = Time::ZERO;
    for (i, f) in report.flows.iter().enumerate() {
        retried += f.retried;
        failed += f.failed;
        if let Some(per_op) = f.bytes.checked_div(f.ops) {
            good_bytes += per_op * (f.clean + f.retried);
            if i == 0 || f.first_issue < first {
                first = f.first_issue;
            }
            last = last.max(f.last_completion);
        }
    }
    TrafficResult {
        fg: fg.tail(),
        goodput_gbps: bandwidth_gbps(good_bytes, last.duration_since(first)),
        retried,
        failed,
        link_replays: h2d.replays() + d2h.replays(),
        timeouts: watchdog.timeouts(),
    }
}

/// Runs the reliability sweep on a `threads`-worker pool. Every BER
/// point runs both workloads with the *same* workload and plan seeds
/// (common random numbers — the only thing that varies across points is
/// the bound fault rates), so degradation curves are coupled, not noisy.
/// Output and any captured trace are identical at every thread count.
pub(crate) fn run_fault_with_threads(threads: usize, requests: u64, seed: u64) -> Vec<FaultRow> {
    let bers = fault_bers();
    sweep::run_with_threads(threads, bers.len(), |i| {
        let ber = bers[i];
        let chase = run_chase(requests, ber, seed);
        let traffic = run_traffic(requests, ber, seed);
        FaultRow {
            ber,
            chase: TailSummary::of(chase.hist.raw()),
            chase_replays: chase.replays,
            chase_poisoned: chase.poisoned,
            fg: traffic.fg,
            goodput_gbps: traffic.goodput_gbps,
            retried: traffic.retried,
            failed: traffic.failed + chase.failed,
            link_replays: traffic.link_replays,
            timeouts: traffic.timeouts,
        }
    })
}

/// Human label for a BER value (`0`, `1e-6`, ...).
pub(crate) fn ber_label(ber: f64) -> String {
    if ber == 0.0 {
        "0".to_string()
    } else {
        format!("{ber:.0e}")
    }
}

/// Renders the sweep as an aligned table (the `cxl-bench repro fault` report).
pub(crate) fn render_fault(rows: &[FaultRow]) -> String {
    let mut s = String::new();
    writeln!(
        s,
        "Reliability sweep: pointer-chase + duplex traffic vs link BER"
    )
    .unwrap();
    writeln!(
        s,
        "{:>6} {:>10} {:>10} {:>10} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "ber",
        "chase-p50",
        "chase-p999",
        "fg-p999",
        "good",
        "retried",
        "failed",
        "replays",
        "t/o",
        "poison"
    )
    .unwrap();
    for r in rows {
        writeln!(
            s,
            "{:>6} {:>8.1}ns {:>8.1}ns {:>8.1}ns {:>8.3} {:>8} {:>8} {:>8} {:>8} {:>8}",
            ber_label(r.ber),
            r.chase.p50 as f64 / 1e3,
            r.chase.p999 as f64 / 1e3,
            r.fg.p999 as f64 / 1e3,
            r.goodput_gbps,
            r.retried,
            r.failed,
            r.chase_replays + r.link_replays,
            r.timeouts,
            r.chase_poisoned,
        )
        .unwrap();
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::trace;

    const REQS: u64 = 1200;
    const SEED: u64 = 42;

    #[test]
    fn zero_ber_point_is_fault_free_and_deterministic() {
        trace::install(1 << 18);
        let a = run_fault_with_threads(1, REQS, SEED);
        let first = trace::uninstall();
        trace::install(1 << 18);
        let b = run_fault_with_threads(1, REQS, SEED);
        let second = trace::uninstall();
        assert_eq!(trace::to_jsonl(&first), trace::to_jsonl(&second));
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "rows are deterministic");

        let zero = &a[0];
        assert_eq!(zero.ber, 0.0);
        assert_eq!(zero.retried, 0, "healthy point never retries");
        assert_eq!(zero.failed, 0);
        assert_eq!(zero.chase_replays + zero.link_replays, 0);
        assert_eq!(zero.timeouts, 0);
        assert_eq!(zero.chase_poisoned, 0);
    }

    /// Also pins every BER point exactly: chase and foreground p999 in
    /// picoseconds, goodput bit-for-bit.
    #[test]
    fn goodput_degrades_and_tails_inflate_monotonically() {
        let rows = run_fault_with_threads(1, REQS, SEED);
        let pinned: [(u64, u64, f64); 7] = [
            (141_312, 696_320, 0.46186160274976845),
            (141_312, 696_320, 0.46186160274976845),
            (141_312, 696_320, 0.46186160274976845),
            (141_312, 696_320, 0.46186160274976845),
            (141_312, 2_523_136, 0.46186160274976845),
            (282_624, 6_881_280, 0.46186160274976845),
            (389_120, 1_090_519_040, 0.15220095701758415),
        ];
        assert_eq!(rows.len(), pinned.len());
        for (r, (chase_p999, fg_p999, goodput)) in rows.iter().zip(pinned) {
            let ber = ber_label(r.ber);
            assert_eq!(r.chase.p999, chase_p999, "chase p999 at {ber}");
            assert_eq!(r.fg.p999, fg_p999, "fg p999 at {ber}");
            assert_eq!(
                r.goodput_gbps.to_bits(),
                goodput.to_bits(),
                "goodput at {ber}: {}",
                r.goodput_gbps
            );
        }
        for pair in rows.windows(2) {
            assert!(
                pair[1].goodput_gbps <= pair[0].goodput_gbps,
                "goodput must not rise with BER ({} -> {})",
                pair[0].goodput_gbps,
                pair[1].goodput_gbps
            );
            assert!(
                pair[1].chase.p999 >= pair[0].chase.p999,
                "chase p999 must not fall with BER"
            );
            assert!(
                pair[1].fg.p999 >= pair[0].fg.p999,
                "foreground p999 must not fall with BER"
            );
        }
    }

    #[test]
    fn high_ber_fires_every_fault_class_without_hanging() {
        let rows = run_fault_with_threads(1, REQS, SEED);
        let worst = rows.last().expect("sweep is non-empty");
        assert!(worst.retried > 0, "1e-4 BER retries ops");
        assert!(worst.chase_replays > 0, "chase wire replays");
        assert!(worst.link_replays > 0, "traffic wires replay");
        assert!(worst.timeouts > 0, "slice watchdog fires");
        assert!(worst.chase_poisoned > 0, "poison surfaces on the chase");
        assert!(
            worst.goodput_gbps < rows[0].goodput_gbps,
            "severe faults must cost goodput"
        );
    }
}
