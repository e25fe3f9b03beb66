//! Multi-device interleave harness: aggregate store bandwidth across a
//! fabric of 1/2/4 Type-2 cards at 1/2/4-way HDM interleave.
//!
//! The workload is the Fig. 4 saturating store stream (NC-writes in
//! device-bias mode, concurrency capped by the per-slice outstanding
//! window) pointed at one *contiguous* host-physical range at the bottom
//! of the HDM window. How that range spreads is then purely a decoder
//! question: at 1-way interleave the whole stream lands on device 0 and
//! aggregate bandwidth stays at the single-card ceiling no matter how
//! many cards are installed; at N-way interleave the granules fan out
//! round-robin and the cards' memory channels run in parallel.
//!
//! `cxl-bench repro fabric` prints the table; the lib test
//! `interleave_scales_aggregate_bandwidth` pins its simulated figures.

use std::fmt::Write;

use cxl_proto::request::RequestType;
use cxl_type2::addr::DEVICE_MEM_BASE;
use cxl_type2::fabric::Fabric;
use sim_core::sweep;
use sim_core::time::Time;

/// Default store-stream length (lines). 4096 lines = 256 KiB: long
/// enough to saturate every card's channels, short enough that the
/// 1/2/4-thread smoke runs finish instantly.
pub(crate) const DEFAULT_LINES: usize = 4096;

/// One cell of the interleave sweep.
#[derive(Debug, Clone)]
pub(crate) struct FabricPoint {
    /// Cards in the fabric.
    pub devices: usize,
    /// HDM interleave ways.
    pub ways: u8,
    /// Aggregate achieved bandwidth, GB/s.
    pub(crate) gbps: f64,
    /// Simulated first-issue → last-completion envelope, ns.
    pub(crate) sim_ns: f64,
    /// Lines absorbed by each card, in device order.
    pub per_device_lines: Vec<u64>,
}

/// The (devices, ways) grid the harness sweeps. Ways never exceeds the
/// device count (a decoder cannot interleave over absent targets).
pub(crate) fn fabric_grid() -> Vec<(usize, u8)> {
    vec![(1, 1), (2, 1), (2, 2), (4, 1), (4, 2), (4, 4)]
}

/// Runs one cell: builds the fabric, flips the stream into device bias,
/// and drives the concurrent store burst across every card at once.
pub(crate) fn run_fabric_point(devices: usize, ways: u8, lines: usize) -> FabricPoint {
    let mut fab = Fabric::symmetric(devices, ways);
    let base = DEVICE_MEM_BASE;
    let t = fab.enter_device_bias(
        mem_subsys::line::LineAddr::new(base),
        lines as u64,
        Time::ZERO,
    );
    let addrs: Vec<u64> = (0..lines as u64).map(|i| base + i).collect();
    let mlp = fab.devs[0].timing.dcoh_slice_outstanding;
    let burst = fab.concurrent_d2d_burst(RequestType::NC_WR, &addrs, t, mlp);
    FabricPoint {
        devices,
        ways,
        gbps: burst.result.bandwidth_gbps(64),
        sim_ns: burst.result.elapsed().as_nanos_f64(),
        per_device_lines: burst.per_device_lines,
    }
}

/// Sweeps the whole grid on `threads` workers. Each point is an
/// independent fabric, so results (and traces, via the sweep runner's
/// deterministic ordering) are byte-identical for any thread count.
pub(crate) fn run_fabric_sweep_with_threads(threads: usize, lines: usize) -> Vec<FabricPoint> {
    let grid = fabric_grid();
    sweep::run_with_threads(threads, grid.len(), |i| {
        let (devices, ways) = grid[i];
        run_fabric_point(devices, ways, lines)
    })
}

/// Renders the interleave table with per-card line counts.
pub(crate) fn render_fabric(points: &[FabricPoint]) -> String {
    let mut s = String::new();
    writeln!(
        s,
        "Fabric interleave — aggregate NC-WR store bandwidth (device bias)"
    )
    .unwrap();
    writeln!(
        s,
        "{:<8} {:>5} | {:>10} {:>12} | per-device lines",
        "devices", "ways", "GB/s", "sim-ns"
    )
    .unwrap();
    for p in points {
        writeln!(
            s,
            "{:<8} {:>5} | {:>10.2} {:>12.0} | {:?}",
            p.devices, p.ways, p.gbps, p.sim_ns, p.per_device_lines
        )
        .unwrap();
    }
    if let Some(base) = points.iter().find(|p| p.devices == 1 && p.ways == 1) {
        for p in points
            .iter()
            .filter(|p| p.ways as usize == p.devices && p.devices > 1)
        {
            writeln!(
                s,
                "scaling: {} devices x {}-way = {:.2}x single-device",
                p.devices,
                p.ways,
                p.gbps / base.gbps
            )
            .unwrap();
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(points: &[FabricPoint], devices: usize, ways: u8) -> &FabricPoint {
        points
            .iter()
            .find(|p| p.devices == devices && p.ways == ways)
            .expect("grid cell present")
    }

    /// The acceptance gate: matched interleave scales aggregate
    /// bandwidth ≥1.6× at 2 cards and ≥2.5× at 4. The simulated envelope
    /// of every grid cell and both scaling ratios are also pinned
    /// bit-exactly, so any timing-model change shows up here.
    #[test]
    fn interleave_scales_aggregate_bandwidth() {
        let points = run_fabric_sweep_with_threads(1, DEFAULT_LINES);
        let base = point(&points, 1, 1).gbps;
        let x2 = point(&points, 2, 2).gbps / base;
        let x4 = point(&points, 4, 4).gbps / base;
        assert!(x2 >= 1.6, "2-device 2-way scaling {x2:.2}x < 1.6x");
        assert!(x4 >= 2.5, "4-device 4-way scaling {x4:.2}x < 2.5x");

        let sim_ns = [
            (1, 1, 10270.0),
            (2, 1, 10270.0),
            (2, 2, 5150.0),
            (4, 1, 10270.0),
            (4, 2, 5150.0),
            (4, 4, 2590.0),
        ];
        for (devices, ways, want) in sim_ns {
            let got = point(&points, devices, ways).sim_ns;
            assert_eq!(got.to_bits(), f64::to_bits(want), "{devices}x{ways}: {got}");
        }
        assert_eq!(x2.to_bits(), 1.9941747572815536f64.to_bits(), "{x2}");
        assert_eq!(x4.to_bits(), 3.965250965250965f64.to_bits(), "{x4}");
    }

    /// 1-way interleave concentrates the contiguous stream on device 0:
    /// extra cards contribute nothing.
    #[test]
    fn one_way_interleave_does_not_scale() {
        let points = run_fabric_sweep_with_threads(1, 1024);
        let base = point(&points, 1, 1).gbps;
        for devices in [2usize, 4] {
            let p = point(&points, devices, 1);
            assert_eq!(
                p.per_device_lines[0], 1024,
                "contiguous stream stays on device 0"
            );
            assert!(p.per_device_lines[1..].iter().all(|&l| l == 0));
            let ratio = p.gbps / base;
            assert!(
                (0.9..1.1).contains(&ratio),
                "{devices}-device 1-way should stay at 1x, got {ratio:.2}x"
            );
        }
    }

    /// Matched interleave splits the stream evenly across the cards.
    #[test]
    fn matched_interleave_partitions_lines_evenly() {
        let points = run_fabric_sweep_with_threads(1, 1024);
        for (devices, ways) in [(2usize, 2u8), (4, 4)] {
            let p = point(&points, devices, ways);
            let share = 1024 / devices as u64;
            assert!(
                p.per_device_lines.iter().all(|&l| l == share),
                "{devices}x{ways}: {:?}",
                p.per_device_lines
            );
        }
    }
}
