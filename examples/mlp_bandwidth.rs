//! Memory-level parallelism sweep through the LSU's concurrent burst:
//! D2D read bandwidth as a function of how many transactions the DCOH
//! slice keeps in flight (the Fig. 4 shape, grown one MLP step at a time).
//! The slice is an out-of-order port run in closed form
//! (`host::burst::run_concurrent`), so the bandwidth is measured out of
//! the device's DRAM model, not divided from its peak.
//!
//! Run with: `cargo run --example mlp_bandwidth`

use cxl_t2_sim::prelude::*;

const LINES: u64 = 1024;

const MLPS: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];

fn sweep(label: &str, addrs: &[LineAddr]) {
    println!("== {label} ==");
    println!("  {:>4}  {:>10}  {:>12}", "MLP", "GB/s", "burst time");
    // Each MLP point runs on a fresh host/device pair, so the seven
    // points fan across the sweep worker pool and print in MLP order.
    let results =
        sim_core::sweep::run_with_threads(sim_core::sweep::max_threads(), MLPS.len(), |i| {
            let mut host = Socket::xeon_6538y();
            let mut dev = CxlDevice::agilex7();
            Lsu::new().concurrent_burst(
                &mut dev,
                &mut host,
                RequestType::CS_RD,
                BurstTarget::DeviceMemory,
                addrs,
                Time::ZERO,
                MLPS[i],
            )
        });
    for (mlp, r) in MLPS.into_iter().zip(&results) {
        println!(
            "  {mlp:>4}  {:>10.2}  {:>12}",
            r.bandwidth_gbps(64),
            r.elapsed()
        );
    }
}

fn main() {
    // Every line on device channel 0: bandwidth climbs with MLP until the
    // DDR4-2400 channel bus drains at its ~19.2 GB/s peak.
    let pinned: Vec<_> = (0..LINES).map(|i| device_line(i * 2)).collect();
    sweep("one device channel (drain-bound)", &pinned);

    // Striped over both channels: the same sweep clears a single
    // channel's peak once the request window covers the DRAM round trip.
    let striped: Vec<_> = (0..LINES).map(device_line).collect();
    sweep("both device channels", &striped);

    let peak = DramTech::Ddr4_2400.channel_bandwidth_gbps();
    println!("DDR4-2400 channel peak: {peak:.1} GB/s");
}
