//! Fig. 5: latency and bandwidth of H2D accesses — CXL Type-2 vs Type-3,
//! DMC hit states, and the NC-P prefetch benefit (Insights 3 and 4).

use std::fmt::Write;

use cxl_type2::addr::device_line;
use cxl_type2::device::CxlDevice;
pub use cxl_type2::device::H2dOp;
use host::socket::Socket;
use mem_subsys::coherence::MesiState;
use sim_core::rng::SimRng;
use sim_core::stats::Samples;
use sim_core::sweep;
use sim_core::time::Time;

/// The H2D configurations Fig. 5 compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum H2dCase {
    /// Type-2, DMC miss.
    T2DmcMiss,
    /// Type-2, DMC hit with the line Owned (Exclusive).
    T2DmcOwned,
    /// Type-2, DMC hit with the line Shared (after CS-read staging).
    T2DmcShared,
    /// Type-2, DMC hit with the line Modified (write-back required).
    T2DmcModified,
    /// Type-3 (no device cache).
    T3,
    /// Type-2 with NC-P prefetch into host LLC (Insight 4).
    T2NcpPrefetch,
}

impl H2dCase {
    /// All cases in display order.
    pub(crate) const ALL: [H2dCase; 6] = [
        H2dCase::T3,
        H2dCase::T2DmcMiss,
        H2dCase::T2DmcShared,
        H2dCase::T2DmcOwned,
        H2dCase::T2DmcModified,
        H2dCase::T2NcpPrefetch,
    ];

    /// Display label.
    pub(crate) fn label(self) -> &'static str {
        match self {
            H2dCase::T3 => "T3 DMC-0",
            H2dCase::T2DmcMiss => "T2 DMC-0",
            H2dCase::T2DmcShared => "T2 DMC-1 (S)",
            H2dCase::T2DmcOwned => "T2 DMC-1 (E)",
            H2dCase::T2DmcModified => "T2 DMC-1 (M)",
            H2dCase::T2NcpPrefetch => "T2 NC-P->LLC",
        }
    }
}

/// One bar of Fig. 5.
#[derive(Debug, Clone)]
pub struct Fig5Row {
    /// The host operation.
    pub(crate) op: H2dOp,
    /// The device configuration/state case.
    pub(crate) case: H2dCase,
    /// Median latency, ns.
    pub latency_ns: f64,
    /// Latency standard deviation, ns.
    pub(crate) latency_std: f64,
    /// Median 16-access burst bandwidth, GB/s.
    pub(crate) bw_gbps: f64,
}

const BURST: usize = 16;

fn build_device(case: H2dCase) -> CxlDevice {
    match case {
        H2dCase::T3 => CxlDevice::agilex7_type3(),
        _ => CxlDevice::agilex7(),
    }
}

fn stage(
    case: H2dCase,
    dev: &mut CxlDevice,
    host: &mut Socket,
    addrs: &[mem_subsys::line::LineAddr],
    t: Time,
) -> Time {
    let mut t = t;
    match case {
        H2dCase::T3 | H2dCase::T2DmcMiss => {}
        H2dCase::T2DmcShared => {
            for &a in addrs {
                dev.stage_dmc(a, MesiState::Shared);
            }
        }
        H2dCase::T2DmcOwned => {
            for &a in addrs {
                dev.stage_dmc(a, MesiState::Exclusive);
            }
        }
        H2dCase::T2DmcModified => {
            for &a in addrs {
                dev.stage_dmc(a, MesiState::Modified);
            }
        }
        H2dCase::T2NcpPrefetch => {
            for &a in addrs {
                t = dev.d2h_push_from_device(a, t, host);
            }
        }
    }
    // The host hierarchy must not already hold the lines (except via the
    // NC-P push, which is the point of that case).
    if case != H2dCase::T2NcpPrefetch {
        for &a in addrs {
            host.caches.invalidate(a);
        }
    }
    t
}

fn access(
    op: H2dOp,
    dev: &mut CxlDevice,
    host: &mut Socket,
    a: mem_subsys::line::LineAddr,
    t: Time,
) -> Time {
    dev.h2d(op, a, t, host).completion
}

/// Runs the full Fig. 5 sweep on a `threads`-worker pool. Each of
/// the 24 (op, case) points is an independent simulation with its own
/// RNG stream derived from `seed` and the point index, so output is
/// identical at every thread count.
pub fn run_fig5_with_threads(threads: usize, reps: usize, seed: u64) -> Vec<Fig5Row> {
    let points: Vec<(H2dOp, H2dCase)> = H2dOp::ALL
        .into_iter()
        .flat_map(|op| H2dCase::ALL.map(|case| (op, case)))
        .collect();
    sweep::run_with_threads(threads, points.len(), |i| {
        let (op, case) = points[i];
        let mut rng = SimRng::seed_from(sweep::point_seed(seed, i));
        fig5_point(op, case, reps, &mut rng)
    })
}

/// Measures one (op, case) bar of Fig. 5.
fn fig5_point(op: H2dOp, case: H2dCase, reps: usize, rng: &mut SimRng) -> Fig5Row {
    let mut lat = Samples::new();
    let mut bw = Samples::new();
    let mut host = Socket::xeon_6538y();
    let mut dev = build_device(case);
    let mut t = Time::ZERO;
    let mut next: u64 = 1 << 12;
    for _ in 0..reps {
        let addrs: Vec<_> = (0..BURST)
            .map(|_| {
                next += 1 + rng.gen_range(4);
                device_line(next)
            })
            .collect();
        t = stage(case, &mut dev, &mut host, &addrs, t);
        let single = access(op, &mut dev, &mut host, addrs[0], t);
        lat.record(single.duration_since(t).as_nanos_f64());
        t = single;
        // Restage the first line's state consumed by the access.
        t = stage(case, &mut dev, &mut host, &addrs[..1], t);
        let port = match op {
            H2dOp::Load | H2dOp::NtLoad => host.load_port(),
            _ => host.store_port(),
        };
        let burst = host::burst::run_burst(BURST, port, t, |i, at| {
            access(op, &mut dev, &mut host, addrs[i], at)
        });
        bw.record(burst.bandwidth_gbps(64));
        t = burst.last_completion;
    }
    Fig5Row {
        op,
        case,
        latency_ns: lat.median(),
        latency_std: lat.std_dev(),
        bw_gbps: bw.median(),
    }
}

/// Renders the Fig. 5 table.
pub fn render_fig5(rows: &[Fig5Row]) -> String {
    let mut s = String::new();
    writeln!(
        s,
        "Fig. 5 — H2D latency (ns) and bandwidth (GB/s): T2 vs T3, DMC states, NC-P"
    )
    .unwrap();
    writeln!(
        s,
        "{:<6} {:<14} | {:>10} {:>8} | {:>9}",
        "op", "case", "latency", "±std", "bw"
    )
    .unwrap();
    for r in rows {
        writeln!(
            s,
            "{:<6} {:<14} | {:>10.1} {:>8.1} | {:>9.2}",
            r.op.label(),
            r.case.label(),
            r.latency_ns,
            r.latency_std,
            r.bw_gbps,
        )
        .unwrap();
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn find(rows: &[Fig5Row], op: H2dOp, case: H2dCase) -> &Fig5Row {
        rows.iter()
            .find(|r| r.op == op && r.case == case)
            .expect("row exists")
    }

    #[test]
    fn fig5_shape_matches_paper() {
        let rows = run_fig5_with_threads(1, 25, 17);
        assert_eq!(rows.len(), 24);
        for op in H2dOp::ALL {
            let t2 = find(&rows, op, H2dCase::T2DmcMiss);
            let t3 = find(&rows, op, H2dCase::T3);
            // T2 is slightly slower than T3 (2–5% in the paper).
            let overhead = t2.latency_ns / t3.latency_ns - 1.0;
            assert!(
                (0.0..0.15).contains(&overhead),
                "{}: T2 overhead {overhead}",
                op.label()
            );
            // Counter-intuitive Insight 3: DMC-1 Owned is *slower* than
            // DMC-0, Modified slower still; Shared is comparable to miss.
            let owned = find(&rows, op, H2dCase::T2DmcOwned);
            let modified = find(&rows, op, H2dCase::T2DmcModified);
            let shared = find(&rows, op, H2dCase::T2DmcShared);
            if op == H2dOp::NtStore {
                // nt-st is posted: the single-access latency is the link
                // trip regardless of DMC state; the dirty-line cost shows
                // as ingress back-pressure, i.e. lower burst bandwidth.
                assert!(
                    modified.bw_gbps < t2.bw_gbps,
                    "nt-st: dirty-DMC bw {} not below miss bw {}",
                    modified.bw_gbps,
                    t2.bw_gbps
                );
            } else {
                assert!(owned.latency_ns > t2.latency_ns, "{}", op.label());
                assert!(modified.latency_ns > owned.latency_ns, "{}", op.label());
                assert!(
                    (shared.latency_ns / t2.latency_ns - 1.0).abs() < 0.05,
                    "{}: shared {} vs miss {}",
                    op.label(),
                    shared.latency_ns,
                    t2.latency_ns
                );
            }
        }
        // Insight 4: NC-P prefetch slashes temporal-access latency.
        let ld_pre = find(&rows, H2dOp::Load, H2dCase::T2NcpPrefetch);
        let ld_miss = find(&rows, H2dOp::Load, H2dCase::T2DmcMiss);
        let reduction = 1.0 - ld_pre.latency_ns / ld_miss.latency_ns;
        assert!(reduction > 0.5, "NC-P latency reduction {reduction}");
        assert!(
            ld_pre.bw_gbps > 2.0 * ld_miss.bw_gbps,
            "NC-P bandwidth gain"
        );
        // nt-st completes at the controller: far higher bandwidth than ld.
        let ntst = find(&rows, H2dOp::NtStore, H2dCase::T2DmcMiss);
        assert!(
            ntst.bw_gbps > 4.0 * ld_miss.bw_gbps,
            "nt-st posted-write bandwidth"
        );
    }
}
