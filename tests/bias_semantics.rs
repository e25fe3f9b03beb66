//! Integration tests for §IV-B: bias-mode semantics, dynamic switching,
//! and the request-type implications table.

use cxl_t2_sim::cxl_proto::device_type::Protocol;
use cxl_t2_sim::prelude::*;

fn setup() -> (Socket, CxlDevice) {
    (Socket::xeon_6538y(), CxlDevice::agilex7())
}

/// §IV-B: "In device-bias mode, D2D requests do not take cache coherence
/// into account" — CO-read and CS-read both perform cacheable reads,
/// CO-write a cacheable write, NC-write/NC-read non-cacheable accesses.
#[test]
fn device_bias_degrades_hints_to_plain_accesses() {
    let (mut host, mut dev) = setup();
    let base = device_line(0);
    let mut t = dev.enter_device_bias(base, 64, Time::ZERO, &mut host);

    // CO-read and CS-read: both allocate (cacheable read), same latency.
    let co = dev.d2d(RequestType::CO_RD, base, t, &mut host);
    t = co.completion;
    let cs = dev.d2d(RequestType::CS_RD, base.offset(1), t, &mut host);
    t = cs.completion;
    assert!(dev.dmc_state(base).is_some(), "CO-rd allocated");
    assert!(dev.dmc_state(base.offset(1)).is_some(), "CS-rd allocated");
    // Neither consulted the host.
    assert_eq!(co.llc_hit, None);
    assert_eq!(cs.llc_hit, None);

    // NC-read: non-cacheable — no allocation.
    let nc = dev.d2d(RequestType::NC_RD, base.offset(2), t, &mut host);
    t = nc.completion;
    assert_eq!(
        dev.dmc_state(base.offset(2)),
        None,
        "NC-rd does not allocate"
    );

    // CO-write: cacheable write (Modified in DMC); NC-write: non-cacheable.
    let cow = dev.d2d(RequestType::CO_WR, base.offset(3), t, &mut host);
    t = cow.completion;
    assert_eq!(dev.dmc_state(base.offset(3)), Some(MesiState::Modified));
    let ncw = dev.d2d(RequestType::NC_WR, base.offset(4), t, &mut host);
    let _ = ncw;
    assert_eq!(
        dev.dmc_state(base.offset(4)),
        None,
        "NC-wr does not allocate"
    );
}

/// §IV-B: "In host-bias mode, D2D requests exhibit the same cache
/// coherence effect as D2H requests" — writes invalidate host copies.
#[test]
fn host_bias_writes_invalidate_host_copies() {
    let (mut host, mut dev) = setup();
    let a = device_line(100);
    // The host caches the device line via H2D.
    let t = dev.h2d_load(a, Time::ZERO, &mut host).completion;
    assert!(host.caches.llc_state(a).is_some());
    // Host-bias D2D write must invalidate it.
    let w = dev.d2d(RequestType::CO_WR, a, t, &mut host);
    assert_eq!(host.caches.llc_state(a), None, "host copy invalidated");
    assert_eq!(dev.dmc_state(a), Some(MesiState::Modified));
    let _ = w;
}

/// §IV-B dynamic switching: device bias must be *prepared* (host flush);
/// the first H2D access exits it; re-entry works repeatedly.
#[test]
fn bias_mode_lifecycle() {
    let (mut host, mut dev) = setup();
    let base = device_line(200);
    let byte = cxl_type2::addr::device_byte_offset(base);
    let mut t = Time::ZERO;
    for round in 0..3 {
        t = dev.enter_device_bias(base, 8, t, &mut host);
        assert_eq!(
            dev.bias.mode_of(byte),
            BiasKind::DeviceBias,
            "round {round}"
        );
        // Device works in device bias...
        t = dev.d2d(RequestType::CO_WR, base, t, &mut host).completion;
        // ...until the host touches the region.
        t = dev.h2d_load(base, t, &mut host).completion;
        assert_eq!(dev.bias.mode_of(byte), BiasKind::HostBias, "round {round}");
    }
    let (flips, switches) = dev.bias.transition_counts();
    assert_eq!(flips, 3, "every round's first H2D access exits device bias");
    // The first round *defines* the region directly in device bias; only
    // the two re-entries count as switches.
    assert_eq!(switches, 2);
}

/// The preparation flush is not optional: entering device bias writes
/// back any dirty host-cached lines of the region so the device reads
/// current data.
#[test]
fn device_bias_entry_flushes_dirty_host_lines() {
    let (mut host, mut dev) = setup();
    let a = device_line(300);
    // Host dirties the device line.
    let t = dev.h2d_store(a, Time::ZERO, &mut host).completion;
    assert_eq!(host.caches.llc_state(a), Some(MesiState::Modified));
    let (_, host_w0) = host.mem.op_counts();
    let (_, dev_w0) = dev.dev_mem.op_counts();
    let t = dev.enter_device_bias(a, 1, t, &mut host);
    assert_eq!(host.caches.llc_state(a), None, "flushed");
    // The dirty *device* line writes back over CXL into device memory,
    // not host DRAM.
    assert!(
        dev.dev_mem.op_counts().1 > dev_w0,
        "written back to device memory"
    );
    assert_eq!(host.mem.op_counts().1, host_w0, "host DRAM untouched");
    // And the subsequent device-bias access proceeds without a snoop.
    let acc = dev.d2d(RequestType::CS_RD, a, t, &mut host);
    assert_eq!(acc.llc_hit, None);
}

/// Table I executable check: only CXL.cache-capable types may issue D2H;
/// only CXL.mem-capable types expose HDM.
#[test]
fn device_type_capabilities_enforced() {
    let t2 = DeviceType::Type2.protocols();
    assert!(t2.contains(&Protocol::Cache) && t2.contains(&Protocol::Mem));
    assert!(!DeviceType::Type3.protocols().contains(&Protocol::Cache));
    // The Type-3 build rejects D2H at the API boundary.
    let result = std::panic::catch_unwind(|| {
        let mut host = Socket::xeon_6538y();
        let mut t3 = CxlDevice::agilex7_type3();
        t3.d2h(RequestType::NC_RD, host_line(1), Time::ZERO, &mut host);
    });
    assert!(result.is_err(), "Type-3 D2H must be rejected");
}

/// Regions not covered by any bias-table entry default to host bias
/// (hardware-managed coherence is the safe default).
#[test]
fn uncovered_regions_default_to_host_bias() {
    let (mut host, mut dev) = setup();
    let a = device_line(1 << 20);
    let acc = dev.d2d(RequestType::CS_RD, a, Time::ZERO, &mut host);
    assert_eq!(acc.llc_hit, Some(false), "host snooped: host-bias default");
}
