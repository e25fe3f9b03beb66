//! An mlc/memo-style latency matrix for the simulated platform: every
//! (initiator, target, operation) pair a user would probe on real CXL
//! hardware, in one table (`cxl-bench repro mlc`).

use std::fmt::Write;

use cxl_proto::request::RequestType as Req;
use cxl_type2::addr::{device_line, host_line};
use cxl_type2::device::CxlDevice;
use cxl_type2::lsu::BurstTarget::{DeviceMemory, HostMemory};
use cxl_type2::lsu::Lsu;
use host::numa::NumaSystem;
use host::socket::Socket;
use sim_core::stats::Samples;
use sim_core::time::Time;

/// Cold accesses per path.
const REPS: usize = 200;

/// Median latency (ns) of [`REPS`] back-to-back accesses, each issued at
/// the previous one's completion, starting at `t`.
fn median_from<F: FnMut(u64, Time) -> Time>(mut t: Time, mut f: F) -> f64 {
    let mut s = Samples::new();
    for i in 0..REPS {
        let done = f(i as u64, t);
        s.record(done.duration_since(t).as_nanos_f64());
        t = done;
    }
    s.median()
}

fn median<F: FnMut(u64, Time) -> Time>(f: F) -> f64 {
    median_from(Time::ZERO, f)
}

/// The matrix: median latency (ns) per initiator → target path.
pub(crate) fn run_mlc() -> Vec<(&'static str, f64)> {
    let mut rows = Vec::new();

    // Host core -> local DRAM.
    let mut s = Socket::xeon_6538y();
    let lat = median(|i, t| s.load(host_line(1000 + i * 7), t).completion);
    rows.push(("host ld -> local DRAM", lat));

    // Host core -> local LLC.
    let mut s = Socket::xeon_6538y();
    let lat = median(|i, t| {
        let a = host_line(5000 + i);
        s.load(a, t);
        let t1 = s.cldemote(a, t);
        s.load(a, t1).completion
    });
    rows.push(("host ld -> local LLC (CLDEMOTE'd)", lat));

    // Host core -> remote socket DRAM over UPI (the emulated-CXL path).
    let mut numa = NumaSystem::xeon_dual_socket();
    let lat = median(|i, t| numa.remote_load(host_line(9000 + i * 7), t).completion);
    rows.push(("host ld -> remote DRAM (UPI / emulated CXL)", lat));

    // Host core -> CXL Type-2 / Type-3 device memory.
    let t2: fn() -> CxlDevice = CxlDevice::agilex7;
    for (name, device) in [
        ("host ld -> CXL T2 device DRAM (H2D)", t2),
        (
            "host ld -> CXL T3 device DRAM (H2D)",
            CxlDevice::agilex7_type3,
        ),
    ] {
        let mut s = Socket::xeon_6538y();
        let mut dev = device();
        let lat = median(|i, t| dev.h2d_load(device_line(100 + i), t, &mut s).completion);
        rows.push((name, lat));
    }

    // Device ACC -> host DRAM / LLC (D2H).
    let lsu = Lsu::new();
    let mut s = Socket::xeon_6538y();
    let mut dev = CxlDevice::agilex7();
    let lat = median(|i, t| {
        let a = host_line(20_000 + i * 7);
        lsu.single(&mut dev, &mut s, Req::NC_RD, HostMemory, a, t)
    });
    rows.push(("device NC-rd -> host DRAM (D2H)", lat));

    let mut s = Socket::xeon_6538y();
    let mut dev = CxlDevice::agilex7();
    let lat = median(|i, t| {
        let a = host_line(30_000 + i);
        s.load(a, t);
        let t1 = s.cldemote(a, t);
        lsu.single(&mut dev, &mut s, Req::CS_RD, HostMemory, a, t1)
    });
    rows.push(("device CS-rd -> host LLC (D2H)", lat));

    // Device ACC -> own memory, both bias modes (D2D).
    let mut s = Socket::xeon_6538y();
    let mut dev = CxlDevice::agilex7();
    let lat = median(|i, t| {
        let a = device_line(40_000 + i);
        lsu.single(&mut dev, &mut s, Req::CS_RD, DeviceMemory, a, t)
    });
    rows.push(("device CS-rd -> device DRAM (host-bias)", lat));

    let mut s = Socket::xeon_6538y();
    let mut dev = CxlDevice::agilex7();
    let t0 = dev.enter_device_bias(device_line(50_000), 4096, Time::ZERO, &mut s);
    let lat = median_from(t0, |i, t| {
        let a = device_line(50_000 + i);
        lsu.single(&mut dev, &mut s, Req::CS_RD, DeviceMemory, a, t)
    });
    rows.push(("device CS-rd -> device DRAM (device-bias)", lat));
    rows
}

/// The paper's methodology note: median D2H NC-rd latency (ns) for a
/// sequential and a strided ("random-ish") address walk.
pub(crate) fn run_mlc_strides() -> Vec<(&'static str, f64)> {
    let lsu = Lsu::new();
    [("sequential", 1u64), ("random-ish", 97u64)]
        .map(|(name, stride)| {
            let mut s = Socket::xeon_6538y();
            let mut dev = CxlDevice::agilex7();
            let lat = median(|i, t| {
                let a = host_line(60_000 + i * stride);
                lsu.single(&mut dev, &mut s, Req::NC_RD, HostMemory, a, t)
            });
            (name, lat)
        })
        .to_vec()
}

/// Renders the matrix and the sequential-vs-random check.
pub(crate) fn render_mlc(paths: &[(&str, f64)], strides: &[(&str, f64)]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "cxl_mlc — simulated latency matrix (median of {REPS} cold accesses, ns)\n"
    )
    .unwrap();
    writeln!(out, "{:<44} {:>10}", "path", "latency").unwrap();
    for (path, lat) in paths {
        writeln!(out, "{path:<44} {lat:>10.1}").unwrap();
    }
    writeln!(
        out,
        "\nSequential-vs-random check (the paper's methodology note):"
    )
    .unwrap();
    for (name, lat) in strides {
        writeln!(out, "  D2H NC-rd {name:<12} {lat:>8.1} ns").unwrap();
    }
    out
}
