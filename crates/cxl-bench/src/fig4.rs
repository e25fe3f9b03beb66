//! Fig. 4: latency and bandwidth of D2D accesses in host- vs device-bias
//! mode, plus the emulated baseline (a CPU core against its own L1 /
//! local memory).

use std::fmt::Write;

use cxl_proto::request::RequestType;
use cxl_type2::addr::{device_line, host_line};
use cxl_type2::device::CxlDevice;
use cxl_type2::lsu::{BurstTarget, Lsu};
use host::socket::Socket;
use mem_subsys::coherence::MesiState;
use sim_core::rng::SimRng;
use sim_core::stats::Samples;
use sim_core::sweep;
use sim_core::time::Time;

/// One bar-group of Fig. 4.
#[derive(Debug, Clone)]
pub struct Fig4Row {
    /// Request type label.
    pub request: String,
    /// True for the DMC-hit case ("DMC-1").
    pub dmc_hit: bool,
    /// Median latency in host-bias mode, ns.
    pub host_bias_latency_ns: f64,
    /// Median latency in device-bias mode, ns.
    pub device_bias_latency_ns: f64,
    /// Median burst bandwidth in host-bias mode, GB/s.
    pub host_bias_bw_gbps: f64,
    /// Median burst bandwidth in device-bias mode, GB/s.
    pub device_bias_bw_gbps: f64,
    /// Median latency of the emulated counterpart (CPU hitting its own
    /// L1 for DMC-1, local memory for DMC-0), ns.
    pub emulated_latency_ns: f64,
}

const BURST: usize = 16;

/// The request types Fig. 4 plots.
pub fn fig4_requests() -> Vec<RequestType> {
    vec![
        RequestType::NC_RD,
        RequestType::CS_RD,
        RequestType::NC_WR,
        RequestType::CO_WR,
    ]
}

fn measure_bias(
    req: RequestType,
    dmc_hit: bool,
    device_bias: bool,
    reps: usize,
    rng: &mut SimRng,
) -> (f64, f64) {
    let (mut host, mut dev) = sweep::profile::scope(sweep::profile::Stage::Setup, || {
        (Socket::xeon_6538y(), CxlDevice::agilex7())
    });
    let lsu = Lsu::new();
    let mut lat = Samples::new();
    let mut bw = Samples::new();
    let mut t = Time::ZERO;
    let mut next: u64 = 1 << 16;
    // One address buffer for all reps: refilled in place, never regrown.
    let mut addrs = Vec::with_capacity(BURST);
    for _ in 0..reps {
        addrs.clear();
        addrs.extend((0..BURST).map(|_| {
            next += 1 + rng.gen_range(4);
            device_line(next)
        }));
        if device_bias {
            for &a in &addrs {
                t = dev.enter_device_bias(a, 1, t, &mut host);
            }
        }
        if dmc_hit {
            // Methodology: bring the lines into DMC in Shared via CS-read.
            for &a in &addrs {
                dev.stage_dmc(a, MesiState::Shared);
            }
        } else {
            dev.flush_device_caches(t, &mut host);
        }
        let single = lsu.single(
            &mut dev,
            &mut host,
            req,
            BurstTarget::DeviceMemory,
            addrs[0],
            t,
        );
        lat.record(single.duration_since(t).as_nanos_f64());
        t = single;
        if dmc_hit {
            dev.stage_dmc(addrs[0], MesiState::Shared);
        }
        // Bandwidth from the port scheduler's measured path: transactions
        // fan out across DCOH slices and overlap up to the per-slice
        // outstanding limit, so the curve comes from channel busy
        // intervals rather than window-inferred math.
        let mlp = dev.timing.dcoh_slice_outstanding;
        let burst = lsu.concurrent_burst(
            &mut dev,
            &mut host,
            req,
            BurstTarget::DeviceMemory,
            &addrs,
            t,
            mlp,
        );
        bw.record(burst.bandwidth_gbps(64));
        t = burst.last_completion;
    }
    (lat.median(), bw.median())
}

fn measure_emulated(req: RequestType, dmc_hit: bool, reps: usize, rng: &mut SimRng) -> f64 {
    // The emulated D2D baseline: the host CPU against its own hierarchy —
    // an L1 hit stands in for a DMC hit (the device has one cache level).
    let mut host = sweep::profile::scope(sweep::profile::Stage::Setup, Socket::xeon_6538y);
    let mut lat = Samples::new();
    let mut t = Time::ZERO;
    let mut next: u64 = 1 << 18;
    for _ in 0..reps {
        next += 1 + rng.gen_range(4);
        let a = host_line(next);
        if dmc_hit {
            let acc = host.load(a, t); // fills L1
            t = acc.completion;
        }
        let acc = match req.emulated_host_op() {
            "nt-ld" => host.nt_load(a, t),
            "ld" => host.load(a, t),
            "nt-st" => host.nt_store(a, t),
            _ => host.store(a, t),
        };
        lat.record(acc.completion.duration_since(t).as_nanos_f64());
        t = acc.completion;
    }
    lat.median()
}

/// Runs the full Fig. 4 sweep on a `threads`-worker pool. Each of
/// the eight (request, DMC-state) points is an independent simulation
/// with its own RNG stream derived from `seed` and the point index, so
/// output is identical at every thread count.
pub fn run_fig4_with_threads(threads: usize, reps: usize, seed: u64) -> Vec<Fig4Row> {
    let points: Vec<(RequestType, bool)> = fig4_requests()
        .into_iter()
        .flat_map(|req| [true, false].map(|dmc_hit| (req, dmc_hit)))
        .collect();
    sweep::run_with_threads(threads, points.len(), |i| {
        let (req, dmc_hit) = points[i];
        let mut rng = SimRng::seed_from(sweep::point_seed(seed, i));
        let (hb_lat, hb_bw) = measure_bias(req, dmc_hit, false, reps, &mut rng);
        let (db_lat, db_bw) = measure_bias(req, dmc_hit, true, reps, &mut rng);
        let emu = measure_emulated(req, dmc_hit, reps, &mut rng);
        Fig4Row {
            request: req.to_string(),
            dmc_hit,
            host_bias_latency_ns: hb_lat,
            device_bias_latency_ns: db_lat,
            host_bias_bw_gbps: hb_bw,
            device_bias_bw_gbps: db_bw,
            emulated_latency_ns: emu,
        }
    })
}

/// Renders the Fig. 4 table.
pub fn render_fig4(rows: &[Fig4Row]) -> String {
    let mut s = String::new();
    writeln!(
        s,
        "Fig. 4 — D2D latency (ns) and bandwidth (GB/s): host-bias vs device-bias"
    )
    .unwrap();
    writeln!(
        s,
        "{:<8} {:>6} | {:>10} {:>10} {:>7} | {:>9} {:>9} | {:>9}",
        "req", "DMC", "hb-lat", "db-lat", "db/hb", "hb-bw", "db-bw", "emu-lat"
    )
    .unwrap();
    for r in rows {
        writeln!(
            s,
            "{:<8} {:>6} | {:>10.1} {:>10.1} {:>7.2} | {:>9.2} {:>9.2} | {:>9.1}",
            r.request,
            if r.dmc_hit { "DMC-1" } else { "DMC-0" },
            r.host_bias_latency_ns,
            r.device_bias_latency_ns,
            r.device_bias_latency_ns / r.host_bias_latency_ns,
            r.host_bias_bw_gbps,
            r.device_bias_bw_gbps,
            r.emulated_latency_ns,
        )
        .unwrap();
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_shape_matches_paper() {
        let rows = run_fig4_with_threads(1, 30, 11);
        assert_eq!(rows.len(), 8);
        for r in &rows {
            // Insight 2: device bias is never slower.
            assert!(
                r.device_bias_latency_ns <= r.host_bias_latency_ns * 1.01,
                "{} DMC-{}: db {} > hb {}",
                r.request,
                r.dmc_hit,
                r.device_bias_latency_ns,
                r.host_bias_latency_ns
            );
        }
        // Writes hitting DMC gain the most from device bias (paper: ~60%
        // lower); shared-read hits gain little.
        let co_wr_hit = rows
            .iter()
            .find(|r| r.request == "CO-wr" && r.dmc_hit)
            .unwrap();
        let cs_rd_hit = rows
            .iter()
            .find(|r| r.request == "CS-rd" && r.dmc_hit)
            .unwrap();
        let co_gain = 1.0 - co_wr_hit.device_bias_latency_ns / co_wr_hit.host_bias_latency_ns;
        let cs_gain = 1.0 - cs_rd_hit.device_bias_latency_ns / cs_rd_hit.host_bias_latency_ns;
        assert!(co_gain > 0.3, "CO-wr DMC-1 device-bias gain {co_gain}");
        assert!(cs_gain < 0.1, "CS-rd DMC-1 gain should be small: {cs_gain}");
        // Reads missing DMC are slower in host bias (LLC check first).
        let cs_rd_miss = rows
            .iter()
            .find(|r| r.request == "CS-rd" && !r.dmc_hit)
            .unwrap();
        assert!(cs_rd_miss.host_bias_latency_ns > cs_rd_miss.device_bias_latency_ns);
    }

    #[test]
    fn emulated_l1_hits_are_fastest() {
        let rows = run_fig4_with_threads(1, 20, 13);
        let hit = rows
            .iter()
            .find(|r| r.request == "CS-rd" && r.dmc_hit)
            .unwrap();
        // Host frequency is 5.5× the FPGA's: emulated D2D hits beat DMC
        // hits in host-bias mode (§V-B).
        assert!(hit.emulated_latency_ns < hit.host_bias_latency_ns);
    }
}
