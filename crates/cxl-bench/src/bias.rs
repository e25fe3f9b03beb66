//! Adaptive-bias ablation: the feedback-controlled bias daemon versus
//! static bias choices, on both sides of the Fig. 4 crossover and down
//! the reliability ladder.
//!
//! §IV-B gives the device two coherence modes per region — host bias
//! (DCOH snoops the host before serving D2D; H2D is cheap) and device
//! bias (D2D skips the snoop; any H2D access flips the region back and
//! software must re-enter). Fig. 4 shows the static trade-off: which
//! mode wins depends on the H2D/D2D mix. This harness puts the
//! [`BiasDaemon`] on that trade-off and
//! measures what feedback control buys over committing statically:
//!
//! * **crossover sweep** — one mixed H2D/D2D op stream per swept
//!   `h2d_fraction`, executed under three policies over identical ops
//!   (common random numbers): *static-host* (never enter device bias),
//!   *static-device* (enter everywhere up front and restore after every
//!   H2D flip), and *adaptive* (the daemon decides per region per
//!   epoch). The *oracle* is the better static choice per point —
//!   whole-run hindsight the daemon has to approach online.
//! * **duplex split** — a spatially partitioned stream (host stores in
//!   one half of the regions, device scans in the other) where neither
//!   static choice can be right everywhere, but a per-region policy can.
//! * **BER ladder** — the scan-heavy stream under link faults. A fault
//!   caught under device bias lands in *software* coherence: the region
//!   must be aborted back to host bias (watchdog stall + flush) before
//!   the op can re-issue, while under host bias hardware coherence just
//!   replays the op. The daemon's fault EWMA degrades persistently
//!   faulting hot regions to host bias; static-device keeps paying the
//!   software-recovery price.
//!
//! Everything is deterministic: op streams, fault draws, and daemon
//! decisions are all pure functions of the seed, so the ablation ratios
//! asserted by this module's tests are exact, and output is identical
//! at every worker-thread count.

use std::fmt::Write;

use cxl_proto::request::RequestType;
use cxl_type2::addr::{device_byte_offset, device_line};
use cxl_type2::biasmgr::{BiasDaemon, GRAIN_SHIFT};
use cxl_type2::device::CxlDevice;
use host::socket::Socket;
use mem_subsys::line::LINE_BYTES;
use sim_core::rng::splitmix64;
use sim_core::stats::bandwidth_gbps;
use sim_core::sweep;
use sim_core::time::{Duration, Time};
use sim_core::trace::BiasKind;

/// Lines per bias region: the daemon's region, 64 lines = 4 KiB.
pub(crate) const REGION_LINES: u64 = 1 << GRAIN_SHIFT;

/// Regions in the crossover working set (8 regions = 32 KiB).
pub(crate) const CROSS_REGIONS: u64 = 8;

/// Watchdog + software-coherence recovery charge when a fault lands in
/// a device-biased region: the access cannot be replayed transparently
/// (the host was never snooped), so the slice watchdog expires, the
/// region is aborted back to host bias, and the op re-issues under
/// hardware coherence. Matches the reliability harness's stall ladder
/// in magnitude (watchdog deadline + drain + re-arm).
pub(crate) const RECOVERY_STALL: Duration = Duration::from_micros(25);

/// Per-op fault probability for a link BER: one 64-byte flit per op,
/// scaled like the reliability harness's stall probability so the same
/// ladder rungs stress both harnesses comparably.
pub(crate) fn fault_probability(ber: f64) -> f64 {
    (ber * 2e3).min(0.5)
}

/// The swept H2D fractions. The grid deliberately brackets the static
/// crossover (between 0.2 and 0.5 under the default timing model)
/// rather than sampling inside its dead band, where the two static
/// choices are within noise of each other and "better" is undefined.
pub(crate) fn crossover_fractions() -> Vec<f64> {
    vec![0.02, 0.05, 0.1, 0.15, 0.2, 0.5, 0.65, 0.8, 0.95]
}

/// The swept BER rungs for the degradation ladder.
pub(crate) fn bias_bers() -> Vec<f64> {
    vec![0.0, 1e-7, 1e-6, 1e-5, 1e-4]
}

/// One operation of a bias scenario stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BiasOp {
    /// Host load of a device line (H2D, temporal).
    HostLoad(u64),
    /// Host store of a device line (H2D, temporal, dirties host cache).
    HostStore(u64),
    /// Device-initiated scan read (D2D NC-RD — never allocates DMC, so
    /// every access pays the bias-dependent path).
    Scan(u64),
}

impl BiasOp {
    /// The device-local line index the op touches.
    pub(crate) fn line(&self) -> u64 {
        match *self {
            BiasOp::HostLoad(l) | BiasOp::HostStore(l) | BiasOp::Scan(l) => l,
        }
    }
}

/// The bias-management policy a scenario runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BiasPolicyKind {
    /// Never enter device bias: hardware coherence everywhere.
    StaticHost,
    /// Enter device bias on every region up front; after any H2D access
    /// flips a region out, immediately restore it.
    StaticDevice,
    /// The feedback daemon decides per region per epoch.
    Adaptive,
}

impl BiasPolicyKind {
    /// Short human label (`host`/`device`/`adaptive`).
    pub(crate) fn label(&self) -> &'static str {
        match self {
            BiasPolicyKind::StaticHost => "host",
            BiasPolicyKind::StaticDevice => "device",
            BiasPolicyKind::Adaptive => "adaptive",
        }
    }
}

/// What one policy delivered on one op stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PolicyOut {
    /// Mean simulated nanoseconds per op (the dependent-chain elapsed
    /// time over the op count).
    pub(crate) mean_ns: f64,
    /// Goodput over the stream (64 B per completed op).
    pub goodput_gbps: f64,
    /// Bias transitions: the daemon's unified-path count for adaptive
    /// runs, the device bias-table's re-switch counts for static runs
    /// (the table does not count first-time region definitions).
    pub(crate) flips: u64,
    /// Ops that needed a retry or software recovery after a fault.
    pub retried: u64,
    /// Regions degraded to host bias when the stream ended (adaptive
    /// only; zero for static policies).
    pub(crate) degraded: u64,
}

/// One H2D-fraction point of the crossover sweep.
#[derive(Debug, Clone)]
pub(crate) struct CrossoverRow {
    /// Fraction of ops that are host accesses.
    pub(crate) h2d_fraction: f64,
    /// Static host-bias outcome.
    pub(crate) static_host: PolicyOut,
    /// Static device-bias outcome.
    pub(crate) static_device: PolicyOut,
    /// Adaptive daemon outcome.
    pub(crate) adaptive: PolicyOut,
}

impl CrossoverRow {
    /// The better static mean at this point (the oracle static choice).
    pub(crate) fn oracle_ns(&self) -> f64 {
        self.static_host.mean_ns.min(self.static_device.mean_ns)
    }
}

/// One BER rung of the degradation ladder.
#[derive(Debug, Clone)]
pub(crate) struct LadderRow {
    /// Link bit-error rate at this rung.
    pub ber: f64,
    /// Static host-bias outcome.
    pub(crate) static_host: PolicyOut,
    /// Static device-bias outcome.
    pub(crate) static_device: PolicyOut,
    /// Adaptive (fault-aware degradation) outcome.
    pub(crate) adaptive: PolicyOut,
}

/// One policy row of the duplex split scenario.
#[derive(Debug, Clone)]
pub(crate) struct DuplexRow {
    /// Which policy this row ran.
    pub(crate) policy: BiasPolicyKind,
    /// Its outcome on the split stream.
    pub(crate) out: PolicyOut,
}

/// The full ablation: crossover sweep, duplex split, BER ladder.
#[derive(Debug, Clone)]
pub(crate) struct BiasReport {
    /// One row per swept H2D fraction.
    pub(crate) crossover: Vec<CrossoverRow>,
    /// One row per policy on the duplex split.
    pub(crate) duplex: Vec<DuplexRow>,
    /// One row per BER rung.
    pub(crate) ladder: Vec<LadderRow>,
}

fn unit(v: u64) -> f64 {
    v as f64 / u64::MAX as f64
}

/// The mixed crossover stream: each op is H2D with probability
/// `h2d_fraction` (half loads, half stores) and a D2D scan otherwise,
/// uniform over the working set. Pure function of the seed.
pub(crate) fn crossover_ops(requests: u64, h2d_fraction: f64, seed: u64) -> Vec<BiasOp> {
    let lines = CROSS_REGIONS * REGION_LINES;
    (0..requests)
        .map(|i| {
            let mix = splitmix64(seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).1;
            let pick = splitmix64(seed ^ i.wrapping_mul(0xd1b5_4a32_d192_ed03)).1;
            let line = pick % lines;
            if unit(mix) < h2d_fraction {
                if mix & 1 == 0 {
                    BiasOp::HostLoad(line)
                } else {
                    BiasOp::HostStore(line)
                }
            } else {
                BiasOp::Scan(line)
            }
        })
        .collect()
}

/// The duplex split stream: every third op is a host store into the
/// lower half of the regions (the serving side), the rest are device
/// scans over the upper half (the accelerator side). No static choice
/// fits both halves.
pub(crate) fn duplex_ops(requests: u64, seed: u64) -> Vec<BiasOp> {
    let half = CROSS_REGIONS / 2 * REGION_LINES;
    (0..requests)
        .map(|i| {
            let pick = splitmix64(seed ^ i.wrapping_mul(0xd1b5_4a32_d192_ed03)).1;
            if i % 3 == 0 {
                BiasOp::HostStore(pick % half)
            } else {
                BiasOp::Scan(half + pick % half)
            }
        })
        .collect()
}

/// The scan-heavy ladder stream: 2% host loads, 98% scans, with 85% of
/// the scans concentrated on region 0 (the accelerator's hot shard) so
/// fault pressure lands where degradation matters.
pub(crate) fn ladder_ops(requests: u64, seed: u64) -> Vec<BiasOp> {
    let lines = CROSS_REGIONS * REGION_LINES;
    (0..requests)
        .map(|i| {
            let mix = splitmix64(seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).1;
            let pick = splitmix64(seed ^ i.wrapping_mul(0xd1b5_4a32_d192_ed03)).1;
            if unit(mix) < 0.02 {
                BiasOp::HostLoad(pick % lines)
            } else if unit(splitmix64(mix).1) < 0.85 {
                BiasOp::Scan(pick % REGION_LINES)
            } else {
                BiasOp::Scan(pick % lines)
            }
        })
        .collect()
}

/// Runs one op stream under one policy at one BER. The stream is a
/// dependent chain (op N+1 issues when op N completes), so elapsed
/// simulated time is the figure of merit. Fault draws are indexed by op
/// (common random numbers across policies — all three see the same
/// fault set, only the recovery cost differs by bias state).
pub(crate) fn run_policy(ops: &[BiasOp], policy: BiasPolicyKind, ber: f64, seed: u64) -> PolicyOut {
    let regions = CROSS_REGIONS;
    let (mut host, mut dev, mut daemon, mut now) =
        sweep::profile::scope(sweep::profile::Stage::Setup, || {
            let mut host = Socket::xeon_6538y();
            let mut dev = CxlDevice::agilex7();
            let mut now = Time::ZERO;
            let daemon = match policy {
                BiasPolicyKind::Adaptive => {
                    Some(BiasDaemon::new(regions * REGION_LINES, Time::ZERO))
                }
                BiasPolicyKind::StaticDevice => {
                    for r in 0..regions {
                        now = dev.enter_device_bias(
                            device_line(r * REGION_LINES),
                            REGION_LINES,
                            now,
                            &mut host,
                        );
                    }
                    None
                }
                BiasPolicyKind::StaticHost => None,
            };
            (host, dev, daemon, now)
        });

    let fault_thresh = (fault_probability(ber) * u64::MAX as f64) as u64;
    let fault_seed = seed ^ 0x000f_a017_5eed_0000;
    let mut retried = 0u64;
    for (i, op) in ops.iter().enumerate() {
        let line = op.line();
        let a = device_line(line);
        let region_first = device_line((line >> GRAIN_SHIFT) << GRAIN_SHIFT);
        let fires = fault_thresh != 0
            && splitmix64(fault_seed ^ (i as u64).wrapping_mul(0xa076_1d64_78bd_642f)).1
                <= fault_thresh;
        match *op {
            BiasOp::Scan(_) => {
                if let Some(dm) = daemon.as_mut() {
                    dm.note_d2d(a);
                }
                now = dev.d2d(RequestType::NC_RD, a, now, &mut host).completion;
                if fires {
                    retried += 1;
                    if let Some(dm) = daemon.as_mut() {
                        dm.note_fault(a);
                    }
                    let device_biased =
                        dev.bias.mode_of(device_byte_offset(a)) == BiasKind::DeviceBias;
                    if device_biased {
                        // Software coherence owns the region: abort it
                        // back to host bias (watchdog stall + flush),
                        // then re-issue under hardware coherence.
                        now += RECOVERY_STALL;
                        now = dev.enter_host_bias(region_first, REGION_LINES, now);
                        now = dev.d2d(RequestType::NC_RD, a, now, &mut host).completion;
                        if policy == BiasPolicyKind::StaticDevice {
                            now = dev.enter_device_bias(region_first, REGION_LINES, now, &mut host);
                        }
                    } else {
                        // Hardware coherence: the link replays and the
                        // op re-issues.
                        now = dev.d2d(RequestType::NC_RD, a, now, &mut host).completion;
                    }
                }
            }
            BiasOp::HostLoad(_) | BiasOp::HostStore(_) => {
                let write = matches!(op, BiasOp::HostStore(_));
                if let Some(dm) = daemon.as_mut() {
                    dm.note_h2d(a, write, &dev);
                }
                let was_device = dev.bias.mode_of(device_byte_offset(a)) == BiasKind::DeviceBias;
                now = if write {
                    dev.h2d_store(a, now, &mut host).completion
                } else {
                    dev.h2d_load(a, now, &mut host).completion
                };
                if fires {
                    retried += 1;
                    if let Some(dm) = daemon.as_mut() {
                        dm.note_fault(a);
                    }
                    // H2D runs under hardware coherence in either mode:
                    // a link fault is a replay, never a software abort.
                    now = if write {
                        dev.h2d_store(a, now, &mut host).completion
                    } else {
                        dev.h2d_load(a, now, &mut host).completion
                    };
                }
                if policy == BiasPolicyKind::StaticDevice && was_device {
                    // The access flipped the region out of device bias
                    // (§IV-B); a static-device policy restores it.
                    now = dev.enter_device_bias(region_first, REGION_LINES, now, &mut host);
                }
            }
        }
        if let Some(dm) = daemon.as_mut() {
            now = dm.poll(now, &mut dev, &mut host);
        }
    }

    let elapsed = now.duration_since(Time::ZERO);
    let (to_host, to_device) = dev.bias.transition_counts();
    let flips = daemon
        .as_ref()
        .map(|dm| dm.transitions())
        .unwrap_or(to_host + to_device);
    let degraded = daemon
        .as_ref()
        .map(|dm| (0..regions as u32).filter(|&r| dm.is_degraded(r)).count() as u64)
        .unwrap_or(0);
    PolicyOut {
        mean_ns: elapsed.as_nanos_f64() / ops.len() as f64,
        goodput_gbps: bandwidth_gbps(ops.len() as u64 * LINE_BYTES, elapsed),
        flips,
        retried,
        degraded,
    }
}

fn run_crossover_point(h2d_fraction: f64, requests: u64, seed: u64) -> CrossoverRow {
    let ops = crossover_ops(requests, h2d_fraction, seed);
    CrossoverRow {
        h2d_fraction,
        static_host: run_policy(&ops, BiasPolicyKind::StaticHost, 0.0, seed),
        static_device: run_policy(&ops, BiasPolicyKind::StaticDevice, 0.0, seed),
        adaptive: run_policy(&ops, BiasPolicyKind::Adaptive, 0.0, seed),
    }
}

fn run_ladder_point(ber: f64, requests: u64, seed: u64) -> LadderRow {
    let ops = ladder_ops(requests, seed);
    LadderRow {
        ber,
        static_host: run_policy(&ops, BiasPolicyKind::StaticHost, ber, seed),
        static_device: run_policy(&ops, BiasPolicyKind::StaticDevice, ber, seed),
        adaptive: run_policy(&ops, BiasPolicyKind::Adaptive, ber, seed),
    }
}

/// All three duplex policies, in `StaticHost`/`StaticDevice`/`Adaptive`
/// order.
pub(crate) fn duplex_policies() -> [BiasPolicyKind; 3] {
    [
        BiasPolicyKind::StaticHost,
        BiasPolicyKind::StaticDevice,
        BiasPolicyKind::Adaptive,
    ]
}

/// Runs the full ablation on `threads` workers. Every point builds its
/// own sockets, devices, and daemon, and the op streams are pure
/// functions of the seed, so output and any captured trace are
/// identical at every thread count.
pub(crate) fn run_bias_with_threads(threads: usize, requests: u64, seed: u64) -> BiasReport {
    let fracs = crossover_fractions();
    let crossover = sweep::run_with_threads(threads, fracs.len(), |i| {
        run_crossover_point(fracs[i], requests, seed)
    });
    let policies = duplex_policies();
    let duplex = sweep::run_with_threads(threads, policies.len(), |i| {
        let ops = duplex_ops(requests, seed);
        DuplexRow {
            policy: policies[i],
            out: run_policy(&ops, policies[i], 0.0, seed),
        }
    });
    let bers = bias_bers();
    let ladder = sweep::run_with_threads(threads, bers.len(), |i| {
        run_ladder_point(bers[i], requests, seed)
    });
    BiasReport {
        crossover,
        duplex,
        ladder,
    }
}

/// Renders the ablation as aligned tables (the `cxl-bench repro bias` report).
pub(crate) fn render_bias(report: &BiasReport) -> String {
    let mut s = String::new();
    writeln!(s, "Adaptive bias ablation: crossover sweep (mean ns/op)").unwrap();
    writeln!(
        s,
        "{:>6} {:>10} {:>10} {:>10} {:>10} {:>7} {:>7}",
        "h2d", "host", "device", "adaptive", "oracle", "flips", "a/orcl"
    )
    .unwrap();
    for r in &report.crossover {
        writeln!(
            s,
            "{:>6.2} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>7} {:>7.3}",
            r.h2d_fraction,
            r.static_host.mean_ns,
            r.static_device.mean_ns,
            r.adaptive.mean_ns,
            r.oracle_ns(),
            r.adaptive.flips,
            r.adaptive.mean_ns / r.oracle_ns(),
        )
        .unwrap();
    }
    writeln!(s).unwrap();
    writeln!(s, "Duplex split (host stores lower half, scans upper half)").unwrap();
    writeln!(
        s,
        "{:>10} {:>10} {:>9} {:>7}",
        "policy", "mean-ns", "good", "flips"
    )
    .unwrap();
    for r in &report.duplex {
        writeln!(
            s,
            "{:>10} {:>10.1} {:>9.3} {:>7}",
            r.policy.label(),
            r.out.mean_ns,
            r.out.goodput_gbps,
            r.out.flips
        )
        .unwrap();
    }
    writeln!(s).unwrap();
    writeln!(
        s,
        "BER ladder (goodput GB/s; degradation pushes hot regions to host bias)"
    )
    .unwrap();
    writeln!(
        s,
        "{:>6} {:>9} {:>9} {:>9} {:>8} {:>7} {:>8}",
        "ber", "host", "device", "adaptive", "degraded", "flips", "retried"
    )
    .unwrap();
    for r in &report.ladder {
        writeln!(
            s,
            "{:>6} {:>9.3} {:>9.3} {:>9.3} {:>8} {:>7} {:>8}",
            crate::fault::ber_label(r.ber),
            r.static_host.goodput_gbps,
            r.static_device.goodput_gbps,
            r.adaptive.goodput_gbps,
            r.adaptive.degraded,
            r.adaptive.flips,
            r.adaptive.retried,
        )
        .unwrap();
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::trace::{self, TraceEvent};

    const REQS: u64 = 2000;
    const SEED: u64 = 42;

    /// The worse static mean at a crossover point.
    fn worst_static_ns(r: &CrossoverRow) -> f64 {
        r.static_host.mean_ns.max(r.static_device.mean_ns)
    }

    #[test]
    fn crossover_has_both_sides_and_adaptive_tracks_the_oracle() {
        let report = run_bias_with_threads(1, REQS, SEED);
        let rows = &report.crossover;
        let host_wins = rows
            .iter()
            .filter(|r| r.static_host.mean_ns < r.static_device.mean_ns)
            .count();
        let device_wins = rows
            .iter()
            .filter(|r| r.static_device.mean_ns < r.static_host.mean_ns)
            .count();
        assert!(
            host_wins > 0 && device_wins > 0,
            "sweep must straddle the crossover (host wins {host_wins}, device wins {device_wins})"
        );
        for r in rows {
            // Acceptance gate: never more than 5% worse than the better
            // static choice, anywhere on the sweep.
            assert!(
                r.adaptive.mean_ns <= r.oracle_ns() * 1.05,
                "adaptive {:.1} ns/op > 1.05x oracle {:.1} at h2d={}",
                r.adaptive.mean_ns,
                r.oracle_ns(),
                r.h2d_fraction
            );
        }
        // Acceptance gate: >=1.2x faster than the worse static choice on
        // both sides of the crossover (the sweep's endpoints).
        for r in [rows.first().unwrap(), rows.last().unwrap()] {
            assert!(
                worst_static_ns(r) >= 1.2 * r.adaptive.mean_ns,
                "adaptive {:.1} ns/op not 1.2x faster than worse static {:.1} at h2d={}",
                r.adaptive.mean_ns,
                worst_static_ns(r),
                r.h2d_fraction
            );
        }

        // The adaptive mean at every fraction and both endpoint speedups,
        // bit-exact.
        let pinned = [
            79.888818,
            95.3471445,
            120.41176,
            149.418667,
            175.94613,
            142.920627,
            124.5386405,
            99.76019500000001,
            74.2700475,
        ];
        assert_eq!(rows.len(), pinned.len());
        for (r, want) in rows.iter().zip(pinned) {
            assert_eq!(
                r.adaptive.mean_ns.to_bits(),
                f64::to_bits(want),
                "adaptive at h2d={}: {}",
                r.h2d_fraction,
                r.adaptive.mean_ns
            );
        }
        let speedup = |r: &CrossoverRow| worst_static_ns(r) / r.adaptive.mean_ns;
        let (d2d_heavy, h2d_heavy) = (speedup(&rows[0]), speedup(&rows[rows.len() - 1]));
        assert_eq!(
            d2d_heavy.to_bits(),
            2.029727495780448f64.to_bits(),
            "{d2d_heavy}"
        );
        assert_eq!(
            h2d_heavy.to_bits(),
            7.632927607862374f64.to_bits(),
            "{h2d_heavy}"
        );
    }

    #[test]
    fn duplex_split_defeats_both_static_choices() {
        let report = run_bias_with_threads(1, REQS, SEED);
        let host = &report.duplex[0].out;
        let device = &report.duplex[1].out;
        let adaptive = &report.duplex[2].out;
        let better = host.mean_ns.min(device.mean_ns);
        assert!(
            adaptive.mean_ns <= better * 1.05,
            "adaptive {:.1} ns/op > 1.05x better static {:.1} on the duplex split",
            adaptive.mean_ns,
            better
        );
        assert!(adaptive.flips > 0, "adaptive never specialized a region");
        assert_eq!(
            adaptive.mean_ns.to_bits(),
            76.5140495f64.to_bits(),
            "{}",
            adaptive.mean_ns
        );
    }

    #[test]
    fn degradation_beats_static_device_bias_under_faults() {
        let report = run_bias_with_threads(1, REQS, SEED);
        let healthy = &report.ladder[0];
        assert_eq!(healthy.ber, 0.0);
        assert_eq!(healthy.adaptive.retried, 0);
        assert_eq!(healthy.adaptive.degraded, 0);

        let rung = report
            .ladder
            .iter()
            .find(|r| r.ber == 1e-5)
            .expect("ladder sweeps 1e-5");
        // Acceptance gate: degraded-bias goodput >= 1.1x static device
        // bias at the 1e-5 rung.
        assert!(
            rung.adaptive.goodput_gbps >= 1.1 * rung.static_device.goodput_gbps,
            "adaptive {:.3} GB/s < 1.1x static-device {:.3} GB/s at 1e-5",
            rung.adaptive.goodput_gbps,
            rung.static_device.goodput_gbps
        );
        assert!(
            rung.adaptive.degraded > 0,
            "1e-5 must degrade the hot region"
        );
        // Degradation recovers: the healthy rung keeps the hot region
        // device-biased instead.
        assert!(healthy.adaptive.flips > 0);

        // Adaptive goodput on every faulty rung and the 1e-5 speedup,
        // bit-exact.
        let pinned = [
            (1e-7, 0.6872411084221909),
            (1e-6, 0.6045394394209683),
            (1e-5, 0.3048171884393147),
            (1e-4, 0.2745657782436673),
        ];
        assert_eq!(report.ladder.len(), pinned.len() + 1);
        for (r, (ber, want)) in report.ladder[1..].iter().zip(pinned) {
            assert_eq!(r.ber, ber);
            assert_eq!(
                r.adaptive.goodput_gbps.to_bits(),
                f64::to_bits(want),
                "adaptive goodput at {ber}: {}",
                r.adaptive.goodput_gbps
            );
        }
        let speedup = rung.adaptive.goodput_gbps / rung.static_device.goodput_gbps;
        assert_eq!(
            speedup.to_bits(),
            2.430747951891637f64.to_bits(),
            "{speedup}"
        );
    }

    /// ROADMAP item 4(a)'s rule, on the harness's adaptive runs: a bias
    /// flip starts only from a legal state. Replaying each run's trace,
    /// with every region's bias tracked from the device's `bias-switch`
    /// events (daemon transitions, hardware H2D exits and fault
    /// recoveries alike), every `bias-flip` orders the bias the region
    /// is not in.
    #[test]
    fn adaptive_flips_start_from_the_other_bias() {
        let runs = [
            ("crossover at h2d=0.2", crossover_ops(REQS, 0.2, SEED), 0.0),
            ("duplex split", duplex_ops(REQS, SEED), 0.0),
            ("ladder at 1e-4", ladder_ops(REQS, SEED), 1e-4),
        ];
        for (name, ops, ber) in runs {
            trace::install(1 << 20);
            let out = run_policy(&ops, BiasPolicyKind::Adaptive, ber, SEED);
            let (events, dropped) = trace::take_captured();
            assert_eq!(dropped, 0, "{name}: the ring overflowed");
            let mut bias = [BiasKind::HostBias; CROSS_REGIONS as usize];
            let mut flips = 0;
            for e in &events {
                match e.event {
                    TraceEvent::BiasSwitch { region_offset, to } => {
                        bias[(region_offset / (REGION_LINES * LINE_BYTES)) as usize] = to;
                    }
                    TraceEvent::BiasFlip { region, to, reason } => {
                        assert_ne!(
                            bias[region as usize], to,
                            "{name}: {reason:?} flip of region {region} at {:?} orders the bias it is in",
                            e.at
                        );
                        flips += 1;
                    }
                    _ => {}
                }
            }
            assert!(flips > 0, "{name}: the daemon never flipped");
            assert_eq!(flips, out.flips, "{name}: trace and tally disagree");
        }
    }

    #[test]
    fn ladder_goodput_is_monotone_per_policy() {
        let report = run_bias_with_threads(1, REQS, SEED);
        for pair in report.ladder.windows(2) {
            assert!(
                pair[1].static_device.goodput_gbps <= pair[0].static_device.goodput_gbps * 1.0001,
                "static-device goodput rose with BER"
            );
            assert!(
                pair[1].adaptive.goodput_gbps <= pair[0].adaptive.goodput_gbps * 1.0001,
                "adaptive goodput rose with BER"
            );
        }
    }
}
