//! Fig. 3: latency and bandwidth of true vs emulated D2H accesses.
//!
//! Methodology (§V): 16 consecutive 64 B requests to random addresses,
//! each experiment repeated ≥1000 times back-to-back, median reported with
//! standard-deviation error bars. LLC-hit cases are staged with CLDEMOTE
//! (line resides only in the LLC, Shared); the emulated baseline is a
//! remote-socket core crossing UPI (footnote 1).

use std::fmt::Write;

use cxl_proto::request::RequestType;
use cxl_type2::addr::host_line;
use cxl_type2::device::CxlDevice;
use cxl_type2::lsu::{BurstTarget, Lsu};
use host::numa::NumaSystem;
use host::socket::Socket;
use sim_core::rng::SimRng;
use sim_core::stats::{bandwidth_gbps, Samples};
use sim_core::sweep;
use sim_core::time::Time;

/// One bar-pair of Fig. 3.
#[derive(Debug, Clone)]
pub struct Fig3Row {
    /// Request type label ("NC-rd", ...).
    pub request: String,
    /// True for the LLC-hit case ("LLC-1").
    pub llc_hit: bool,
    /// Median single-access latency over CXL, ns.
    pub cxl_latency_ns: f64,
    /// Standard deviation of the CXL latency, ns.
    pub(crate) cxl_latency_std: f64,
    /// Median single-access latency emulated over UPI, ns.
    pub emu_latency_ns: f64,
    /// Standard deviation of the emulated latency, ns.
    pub(crate) emu_latency_std: f64,
    /// Median 16-access burst bandwidth over CXL, GB/s.
    pub cxl_bw_gbps: f64,
    /// Median 16-access burst bandwidth emulated, GB/s.
    pub emu_bw_gbps: f64,
}

const BURST: usize = 16;

/// The four request types Fig. 3 plots.
pub(crate) fn fig3_requests() -> [RequestType; 4] {
    [
        RequestType::NC_RD,
        RequestType::CS_RD,
        RequestType::NC_WR,
        RequestType::CO_WR,
    ]
}

/// Stages an address region's lines in the home LLC (Shared), per the
/// methodology: touch, CLDEMOTE, and leave Shared.
fn stage_llc(host: &mut Socket, addrs: &[mem_subsys::line::LineAddr], t: Time) -> Time {
    let mut t = t;
    for &a in addrs {
        let acc = host.load(a, t);
        t = host.cldemote(a, acc.completion);
        host.caches.degrade_to_shared(a);
    }
    t
}

/// Runs the full Fig. 3 sweep on a `threads`-worker pool. Each of
/// the eight (request, LLC-state) points is an independent simulation
/// with its own RNG stream derived from `seed` and the point index, so
/// output is identical at every thread count.
pub fn run_fig3_with_threads(threads: usize, reps: usize, seed: u64) -> Vec<Fig3Row> {
    let points: Vec<(RequestType, bool)> = fig3_requests()
        .into_iter()
        .flat_map(|rq| [true, false].map(|llc_hit| (rq, llc_hit)))
        .collect();
    sweep::run_with_threads(threads, points.len(), |i| {
        let (req, llc_hit) = points[i];
        let mut rng = SimRng::seed_from(sweep::point_seed(seed, i));
        fig3_point(req, llc_hit, reps, &mut rng)
    })
}

/// Measures one (request, LLC-state) bar-pair of Fig. 3.
fn fig3_point(req: RequestType, llc_hit: bool, reps: usize, rng: &mut SimRng) -> Fig3Row {
    // --- true CXL D2H ---
    let mut host = Socket::xeon_6538y();
    let mut dev = CxlDevice::agilex7();
    let lsu = Lsu::new();
    let mut lat = Samples::new();
    let mut bw = Samples::new();
    let mut t = Time::ZERO;
    let mut next_addr: u64 = 1 << 20;
    for _ in 0..reps {
        // Fresh random-offset region per repetition.
        let addrs: Vec<_> = (0..BURST)
            .map(|_| {
                next_addr += 64 + rng.gen_range(64);
                host_line(next_addr)
            })
            .collect();
        if llc_hit {
            t = stage_llc(&mut host, &addrs, t);
        }
        dev.flush_device_caches(t, &mut host);
        // Latency: one isolated access.
        let single = lsu.single(
            &mut dev,
            &mut host,
            req,
            BurstTarget::HostMemory,
            addrs[0],
            t,
        );
        lat.record(single.duration_since(t).as_nanos_f64());
        t = single;
        // Re-stage the first line for the burst if needed.
        if llc_hit {
            t = stage_llc(&mut host, &addrs[..1], t);
            dev.flush_device_caches(t, &mut host);
        }
        // Bandwidth: 16-access pipelined burst.
        let burst = lsu.burst(&mut dev, &mut host, req, BurstTarget::HostMemory, &addrs, t);
        bw.record(burst.bandwidth_gbps(64));
        t = burst.last_completion;
    }
    // --- emulated over UPI ---
    let mut numa = NumaSystem::xeon_dual_socket();
    let mut elat = Samples::new();
    let mut ebw = Samples::new();
    let mut t = Time::ZERO;
    let mut next_addr: u64 = 1 << 21;
    for _ in 0..reps {
        let addrs: Vec<_> = (0..BURST)
            .map(|_| {
                next_addr += 64 + rng.gen_range(64);
                host_line(next_addr)
            })
            .collect();
        if llc_hit {
            t = stage_llc(&mut numa.home, &addrs, t);
        }
        let single = emulated_access(&mut numa, req, addrs[0], t);
        elat.record(single.duration_since(t).as_nanos_f64());
        t = single;
        let port = if req.is_read() {
            // UPI occupancy credits bind remote reads.
            numa.home.remote_load_port()
        } else {
            numa.home.store_port()
        };
        let spec = host::burst::BurstSpec::from_port(BURST, &port);
        let burst = host::burst::run_burst(spec, t, |i, at| {
            emulated_access(&mut numa, req, addrs[i], at)
        });
        ebw.record(bandwidth_gbps(BURST as u64 * 64, burst.elapsed()));
        t = burst.last_completion;
    }
    Fig3Row {
        request: req.to_string(),
        llc_hit,
        cxl_latency_ns: lat.median(),
        cxl_latency_std: lat.std_dev(),
        emu_latency_ns: elat.median(),
        emu_latency_std: elat.std_dev(),
        cxl_bw_gbps: bw.median(),
        emu_bw_gbps: ebw.median(),
    }
}

fn emulated_access(
    numa: &mut NumaSystem,
    req: RequestType,
    addr: mem_subsys::line::LineAddr,
    t: Time,
) -> Time {
    match req.emulated_host_op() {
        "nt-ld" => numa.remote_nt_load(addr, t).completion,
        "ld" => numa.remote_load(addr, t).completion,
        "nt-st" => numa.remote_nt_store(addr, t).completion,
        "st" => numa.remote_store(addr, t).completion,
        other => unreachable!("unknown emulated op {other}"),
    }
}

/// Renders the Fig. 3 table.
pub fn render_fig3(rows: &[Fig3Row]) -> String {
    let mut s = String::new();
    writeln!(
        s,
        "Fig. 3 — D2H latency (ns) and bandwidth (GB/s): true CXL vs emulated (UPI)"
    )
    .unwrap();
    writeln!(
        s,
        "{:<8} {:>6} | {:>10} {:>8} | {:>10} {:>8} | {:>8} | {:>9} {:>9}",
        "req", "LLC", "cxl-lat", "±std", "emu-lat", "±std", "lat-x", "cxl-bw", "emu-bw"
    )
    .unwrap();
    for r in rows {
        writeln!(
            s,
            "{:<8} {:>6} | {:>10.1} {:>8.1} | {:>10.1} {:>8.1} | {:>8.2} | {:>9.2} {:>9.2}",
            r.request,
            if r.llc_hit { "LLC-1" } else { "LLC-0" },
            r.cxl_latency_ns,
            r.cxl_latency_std,
            r.emu_latency_ns,
            r.emu_latency_std,
            r.cxl_latency_ns / r.emu_latency_ns,
            r.cxl_bw_gbps,
            r.emu_bw_gbps,
        )
        .unwrap();
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_shape_matches_paper() {
        let rows = run_fig3_with_threads(1, 40, 7);
        assert_eq!(rows.len(), 8);
        for r in &rows {
            // Insight 1 direction: CXL D2H latency exceeds emulated.
            assert!(
                r.cxl_latency_ns > r.emu_latency_ns,
                "{} LLC-{}: cxl {} <= emu {}",
                r.request,
                r.llc_hit,
                r.cxl_latency_ns,
                r.emu_latency_ns
            );
        }
        // Reads on LLC miss: CXL bandwidth advantage (76–125% in paper).
        let read_miss: Vec<&Fig3Row> = rows
            .iter()
            .filter(|r| !r.llc_hit && (r.request == "NC-rd" || r.request == "CS-rd"))
            .collect();
        for r in read_miss {
            assert!(
                r.cxl_bw_gbps > r.emu_bw_gbps,
                "{}: cxl bw {} <= emu {}",
                r.request,
                r.cxl_bw_gbps,
                r.emu_bw_gbps
            );
        }
        // Writes beat reads in burst bandwidth (write-queue absorption).
        let nc_wr = rows
            .iter()
            .find(|r| r.request == "NC-wr" && !r.llc_hit)
            .unwrap();
        let nc_rd = rows
            .iter()
            .find(|r| r.request == "NC-rd" && !r.llc_hit)
            .unwrap();
        assert!(nc_wr.cxl_bw_gbps > nc_rd.cxl_bw_gbps);
    }

    #[test]
    fn fig3_deterministic() {
        let a = run_fig3_with_threads(1, 10, 3);
        let b = run_fig3_with_threads(1, 10, 3);
        assert_eq!(a[0].cxl_latency_ns, b[0].cxl_latency_ns);
        assert_eq!(a[3].emu_bw_gbps, b[3].emu_bw_gbps);
    }
}
