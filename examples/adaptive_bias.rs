//! The adaptive bias daemon end to end (DESIGN.md §12): a feedback
//! controller watches who touches each 4 KiB region and flips
//! host/device bias only when the modeled benefit decisively beats the
//! modeled cost — then degrades a persistently faulting hot region back
//! to host bias, where recovery is a cheap hardware replay.
//!
//! Run with: `cargo run --example adaptive_bias`

use cxl_t2_sim::cxl_type2::addr::device_byte_offset;
use cxl_t2_sim::cxl_type2::biasmgr::BiasDaemon;
use cxl_t2_sim::prelude::*;
use cxl_t2_sim::sim_core::time::Duration;

/// Whether `addr` runs device-biased, per the device's bias table.
fn device_biased(dev: &CxlDevice, addr: LineAddr) -> bool {
    dev.bias.mode_of(device_byte_offset(addr)) == BiasKind::DeviceBias
}

fn main() {
    let mut host = Socket::xeon_6538y();
    let mut dev = CxlDevice::agilex7();
    // Two 4 KiB regions under the daemon's 5 µs epochs.
    let mut daemon = BiasDaemon::new(128, Time::ZERO);
    let scans = device_line(64); // region 1: the accelerator's shard
    let serves = device_line(0); // region 0: the host's shard
    let mut t = Time::ZERO;

    // Phase 1 — mixed traffic: the device scans region 1, the host
    // stores into region 0. The daemon learns the split and gives each
    // region the bias its traffic wants.
    for i in 0..256u64 {
        daemon.note_d2d(scans.offset(i % 64));
        t = dev
            .d2d(RequestType::NC_RD, scans.offset(i % 64), t, &mut host)
            .completion;
        if i % 3 == 0 {
            daemon.note_h2d(serves.offset(i % 64), true, &dev);
            t = dev
                .h2d_store(serves.offset(i % 64), t, &mut host)
                .completion;
        }
        t = daemon.poll(t, &mut dev, &mut host);
    }
    println!(
        "after mixed traffic: scan region device-biased = {}, serve region device-biased = {}",
        device_biased(&dev, scans),
        device_biased(&dev, serves)
    );
    println!(
        "  transitions {} (policy decisions, one unified code path)",
        daemon.transitions()
    );

    // Phase 2 — the link turns noisy over the scan region: each fault
    // under device bias would cost a software recovery, so the fault
    // EWMA degrades the region back to host bias.
    for _ in 0..16 {
        daemon.note_fault(scans);
        t += Duration::from_nanos(500);
        t = daemon.poll(t, &mut dev, &mut host);
    }
    let region = daemon.region_of(scans);
    println!(
        "after fault burst: scan region degraded = {}, device-biased = {}",
        daemon.is_degraded(region),
        device_biased(&dev, scans)
    );

    // Phase 3 — the faults quiesce; the slow fault EWMA decays below
    // its exit threshold (about 40 epochs) and the feedback loop
    // re-earns device bias.
    for i in 0..4096u64 {
        daemon.note_d2d(scans.offset(i % 64));
        t = dev
            .d2d(RequestType::NC_RD, scans.offset(i % 64), t, &mut host)
            .completion;
        t = daemon.poll(t, &mut dev, &mut host);
    }
    println!(
        "after recovery: scan region degraded = {}, device-biased = {}",
        daemon.is_degraded(region),
        device_biased(&dev, scans)
    );
    let stats = daemon.stats();
    println!(
        "flip ledger: {} policy, {} degrade over {} epochs",
        stats.policy_flips, stats.degrade_flips, stats.epochs
    );
}
