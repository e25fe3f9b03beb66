//! Full-duplex H2D/D2H contention through the shared port scheduler.
//!
//! The paper's figure sweeps measure each direction of the CXL link in
//! isolation. This harness measures what a Type-2 deployment actually
//! runs: a *foreground* host workload (H2D `nt-st` offload writes into
//! device memory) while the device's own *background* traffic is active —
//! an LSU-driven swap-out ingest that pulls host lines over D2H (`NC-RD`)
//! and commits them to device DRAM over D2D (`CO-WR`), the cxl-zswap §VII
//! pattern.
//!
//! Both initiators run as [`sim_core::traffic`] flows over one shared
//! backend — one [`host::socket::Socket`], one
//! [`cxl_type2::device::CxlDevice`], one single-class
//! [`cxl_type2::occupancy::SharedSliceTables`] — so they genuinely
//! collide in the DCOH slice request tables and on the device DRAM
//! channels.
//! Each sweep point runs the foreground twice, isolated and contended,
//! with identical RNG streams: the reported latency gap is contention and
//! nothing else.
//!
//! The expected shape, pinned by this module's tests: contended
//! foreground latency is strictly above isolated at every positive
//! background load, and converges to isolated as the load approaches
//! zero.

use std::fmt::Write;

use cxl_proto::request::RequestType;
use cxl_type2::addr::{device_line, host_line};
use cxl_type2::device::CxlDevice;
use cxl_type2::occupancy::SharedSliceTables;
use host::socket::Socket;
use sim_core::stats::bandwidth_gbps;
use sim_core::sweep;
use sim_core::time::Duration;
use sim_core::traffic::{FlowStats, TrafficScheduler};
use tinybench::hist::TailSummary;

/// Foreground issue interval: one 64 B `nt-st` per 100 ns (0.64 GB/s) —
/// far below the link, so the isolated baseline is uncontended.
const FG_INTERVAL: Duration = Duration::from_nanos(100);

/// Foreground working set, in device lines.
const FG_LINES: u64 = 4096;

/// Background working set, in lines; its device-DRAM destinations start
/// at [`BG_DST_BASE`] so the two flows never share a line, only slices
/// and channels.
const BG_LINES: u64 = 4096;
const BG_DST_BASE: u64 = 1 << 20;

/// Bytes a background ingest op moves: a 64 B D2H read plus a 64 B D2D
/// write.
const BG_BYTES_PER_OP: u64 = 128;

/// Service time of one ingest op at saturation (D2H host-DRAM read plus
/// D2D device-DRAM write, serialized on the shared channel state). The
/// load knob offers arrivals as a fraction of this rate, so `1.0` is the
/// ingest path's own ceiling — offering against the LSU's raw 25.6 GB/s
/// peak would put every point past saturation.
const BG_OP_SERVICE_EST: Duration = Duration::from_nanos(160);

/// One background-load point of the duplex sweep.
#[derive(Debug, Clone)]
pub(crate) struct DuplexRow {
    /// Background offered load, as a fraction of the ingest path's
    /// saturation rate.
    pub(crate) bg_load: f64,
    /// Foreground sojourn tail with no background traffic.
    pub(crate) isolated: TailSummary,
    /// Foreground sojourn tail under background load.
    pub(crate) contended: TailSummary,
    /// Foreground achieved bandwidth, contended.
    pub(crate) fg_gbps_contended: f64,
    /// Background achieved bandwidth (reads + writes).
    pub(crate) bg_gbps: f64,
    /// DCOH slice request-table stalls in the contended run.
    pub(crate) slice_stalls: u64,
}

/// The swept background loads, as fractions of the ingest path's
/// saturation rate.
pub(crate) fn duplex_loads() -> Vec<f64> {
    vec![0.05, 0.1, 0.2, 0.4, 0.6, 0.8]
}

/// Mean interarrival for a background load fraction of the ingest path's
/// saturation rate.
fn bg_interval(load: f64) -> Duration {
    BG_OP_SERVICE_EST.mul_f64(1.0 / load)
}

/// Per-flow outcome of one scenario run.
struct ScenarioResult {
    fg: FlowStats,
    bg: Option<FlowStats>,
    slice_stalls: u64,
}

/// Runs the foreground flow (plus the background ingest when `bg_load`
/// is `Some`) against one shared platform, all through one traffic
/// scheduler.
fn run_scenario(seed: u64, fg_requests: u64, bg: Option<(f64, u64)>) -> ScenarioResult {
    let (mut host, mut dev, mut occ, mut sched, fg_flow, bg_flow) =
        sweep::profile::scope(sweep::profile::Stage::Setup, || {
            let host = Socket::xeon_6538y();
            let dev = CxlDevice::agilex7();
            let occ = SharedSliceTables::for_device(&dev, vec![dev.timing.dcoh_slice_outstanding]);

            let mut sched = TrafficScheduler::new(seed);
            let fg_flow = sched.add_flow(
                host.store_flow("duplex.fg.h2d")
                    .open_fixed(FG_INTERVAL)
                    .over_lines(0, FG_LINES)
                    .requests(fg_requests),
            ) as u32;
            let bg_flow = bg.map(|(load, requests)| {
                sched.add_flow(
                    dev.lsu_flow_ooo("duplex.bg.ingest")
                        .open_poisson(bg_interval(load))
                        .over_lines(0, BG_LINES)
                        .bytes_per_op(BG_BYTES_PER_OP)
                        .requests(requests),
                ) as u32
            });
            (host, dev, occ, sched, fg_flow, bg_flow)
        });

    let report = sched.run(|op, at| {
        if op.flow == fg_flow {
            // Foreground: host nt-st into device memory, through the
            // line's DCOH slice.
            let addr = device_line(op.line);
            let slice = dev.slice_of(addr);
            let start = occ.admit(slice, 0, at);
            let done = dev.h2d_nt_store(addr, start, &mut host).completion;
            occ.retire(slice, 0, done);
            done
        } else {
            // Background ingest: pull one host line over D2H, then
            // commit it to device DRAM over D2D. Each leg occupies its
            // own slice-table entry for its full lifetime.
            let src = host_line(op.line);
            let s_rd = dev.slice_of(src);
            let rd_start = occ.admit(s_rd, 0, at);
            let rd = dev
                .d2h(RequestType::NC_RD, src, rd_start, &mut host)
                .completion;
            occ.retire(s_rd, 0, rd);

            let dst = device_line(BG_DST_BASE + op.line);
            let s_wr = dev.slice_of(dst);
            let wr_start = occ.admit(s_wr, 0, rd);
            let wr = dev
                .d2d(RequestType::CO_WR, dst, wr_start, &mut host)
                .completion;
            occ.retire(s_wr, 0, wr);
            wr
        }
    });

    let mut flows = report.flows.into_iter();
    let fg = flows.next().expect("foreground flow registered first");
    ScenarioResult {
        fg,
        bg: bg_flow.map(|_| flows.next().expect("background flow registered")),
        slice_stalls: occ.stalls(),
    }
}

/// Runs the duplex sweep on a `threads`-worker pool: for each background
/// load, the foreground isolated and contended. Each load point is an
/// independent simulation seeded from `seed` and its index; the isolated
/// and contended runs of a point share one seed, so their foreground
/// streams are identical and the latency gap is pure contention. Output
/// (and any captured trace) is identical at every thread count.
pub(crate) fn run_duplex_with_threads(
    threads: usize,
    fg_requests: u64,
    bg_requests: u64,
    seed: u64,
) -> Vec<DuplexRow> {
    let loads = duplex_loads();
    sweep::run_with_threads(threads, loads.len(), |i| {
        let load = loads[i];
        let point_seed = sweep::point_seed(seed, i);
        let iso = run_scenario(point_seed, fg_requests, None);
        let con = run_scenario(point_seed, fg_requests, Some((load, bg_requests)));
        let bg = con.bg.expect("contended run has a background flow");
        DuplexRow {
            bg_load: load,
            isolated: iso.fg.tail(),
            contended: con.fg.tail(),
            fg_gbps_contended: con.fg.achieved_gbps(),
            bg_gbps: bandwidth_gbps(bg.bytes, bg.elapsed()),
            slice_stalls: con.slice_stalls,
        }
    })
}

/// Renders the sweep as an aligned table (the `cxl-bench repro duplex` report).
pub(crate) fn render_duplex(rows: &[DuplexRow]) -> String {
    let mut s = String::new();
    writeln!(
        s,
        "Duplex contention: foreground H2D nt-st vs background D2H+D2D ingest"
    )
    .unwrap();
    writeln!(
        s,
        "{:>8} {:>10} {:>10} {:>10} {:>10} {:>9} {:>9} {:>9}",
        "bg-load", "iso-p50", "con-p50", "iso-p99", "con-p99", "fg-GB/s", "bg-GB/s", "stalls"
    )
    .unwrap();
    for r in rows {
        writeln!(
            s,
            "{:>8.2} {:>8.1}ns {:>8.1}ns {:>8.1}ns {:>8.1}ns {:>9.3} {:>9.2} {:>9}",
            r.bg_load,
            r.isolated.p50 as f64 / 1e3,
            r.contended.p50 as f64 / 1e3,
            r.isolated.p99 as f64 / 1e3,
            r.contended.p99 as f64 / 1e3,
            r.fg_gbps_contended,
            r.bg_gbps,
            r.slice_stalls,
        )
        .unwrap();
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    const FG_REQS: u64 = 1500;
    const BG_REQS: u64 = 1500;

    #[test]
    fn contended_latency_strictly_above_isolated() {
        for r in run_duplex_with_threads(1, FG_REQS, BG_REQS, 42) {
            assert!(
                r.contended.mean > r.isolated.mean,
                "load {}: contended mean {} <= isolated {}",
                r.bg_load,
                r.contended.mean,
                r.isolated.mean
            );
            assert!(
                r.contended.p99 >= r.isolated.p99,
                "load {}: contended p99 {} < isolated {}",
                r.bg_load,
                r.contended.p99,
                r.isolated.p99
            );
        }
    }

    #[test]
    fn contention_converges_to_isolated_at_low_load() {
        let rows = run_duplex_with_threads(1, FG_REQS, BG_REQS, 42);
        // The median is the convergence metric: at 5% load the typical
        // foreground store never meets a background op, while the mean
        // still carries the rare collisions.
        let p50_gap = |r: &DuplexRow| r.contended.p50 as f64 / r.isolated.p50 as f64;
        let mean_gap = |r: &DuplexRow| r.contended.mean as f64 / r.isolated.mean as f64;
        let first = rows.first().expect("sweep is non-empty");
        let last = rows.last().expect("sweep is non-empty");
        assert!(
            p50_gap(first) < 1.05,
            "5% background load should barely perturb the typical store, got {:.3}x",
            p50_gap(first)
        );
        assert!(
            mean_gap(last) > mean_gap(first),
            "heavier background load must widen the gap ({:.3} <= {:.3})",
            mean_gap(last),
            mean_gap(first)
        );
    }

    #[test]
    fn background_bandwidth_tracks_offered_load() {
        let rows = run_duplex_with_threads(1, FG_REQS, BG_REQS, 42);
        for pair in rows.windows(2) {
            assert!(
                pair[1].bg_gbps > pair[0].bg_gbps,
                "achieved background bandwidth must grow with offered load"
            );
        }
    }
}
