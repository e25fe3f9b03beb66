//! Sized CXL-LD/ST transfers: moving byte ranges as pipelined bursts of
//! 64 B accesses.
//!
//! Fig. 6 compares `ld`/`st` over CXL against PCIe MMIO/DMA/RDMA for
//! transfer sizes from 64 B up. H2D transfers are driven by a host core
//! (bounded by its LD/ST queues — the >1 KiB bottleneck the paper
//! addresses with DSA); D2H transfers are driven by the device LSU
//! (bounded by the 400 MHz issue rate).

use cxl_proto::request::RequestType;
use host::burst::burst_end;
use host::socket::Socket;
use mem_subsys::line::{LineAddr, LINE_BYTES};
use sim_core::time::Time;

use crate::device::CxlDevice;

fn lines_for(bytes: u64) -> u64 {
    bytes.div_ceil(LINE_BYTES).max(1)
}

/// H2D write of `bytes` starting at device line `start` using `nt-st`
/// (the store path of Fig. 6's CXL-LD/ST curves). Returns the time the
/// last store is accepted by the CXL controller.
pub fn h2d_store_bytes(
    dev: &mut CxlDevice,
    host: &mut Socket,
    start: LineAddr,
    bytes: u64,
    now: Time,
) -> Time {
    let n = lines_for(bytes);
    burst_end(n as usize, host.store_port(), now, |i, t| {
        dev.h2d_nt_store(start.offset(i as u64), t, host).completion
    })
}

/// H2D read of `bytes` starting at device line `start` using `ld`.
/// Returns the completion of the last load.
pub fn h2d_load_bytes(
    dev: &mut CxlDevice,
    host: &mut Socket,
    start: LineAddr,
    bytes: u64,
    now: Time,
) -> Time {
    let n = lines_for(bytes);
    burst_end(n as usize, host.load_port(), now, |i, t| {
        dev.h2d_load(start.offset(i as u64), t, host).completion
    })
}

/// D2H read of `bytes` of host memory starting at `start`, using NC-read —
/// the request type cxl-zswap uses to pull pages (§VI-A chose NC-read as
/// the lowest-latency D2H read for 4 KiB). Returns the last completion.
pub fn d2h_read_bytes(
    dev: &mut CxlDevice,
    host: &mut Socket,
    start: LineAddr,
    bytes: u64,
    now: Time,
) -> Time {
    let n = lines_for(bytes);
    burst_end(n as usize, dev.lsu_port(), now, |i, t| {
        dev.d2h(RequestType::NC_RD, start.offset(i as u64), t, host)
            .completion
    })
}

/// D2H write of `bytes` into host memory starting at `start`, using NC-P
/// pushes into host LLC (the DDIO-equivalent the paper uses for CXL-ST,
/// §V-D). Returns the last completion.
pub fn d2h_push_bytes(
    dev: &mut CxlDevice,
    host: &mut Socket,
    start: LineAddr,
    bytes: u64,
    now: Time,
) -> Time {
    let n = lines_for(bytes);
    burst_end(n as usize, dev.lsu_port(), now, |i, t| {
        dev.d2h(RequestType::NC_P, start.offset(i as u64), t, host)
            .completion
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{device_line, host_line};
    use sim_core::time::Duration;

    #[test]
    fn larger_transfers_take_longer() {
        let mut host = Socket::xeon_6538y();
        let mut dev = CxlDevice::agilex7();
        let t1 = h2d_store_bytes(&mut dev, &mut host, device_line(0), 256, Time::ZERO);
        let mut host2 = Socket::xeon_6538y();
        let mut dev2 = CxlDevice::agilex7();
        let t2 = h2d_store_bytes(&mut dev2, &mut host2, device_line(0), 64 * 1024, Time::ZERO);
        assert!(t2.duration_since(Time::ZERO) > t1.duration_since(Time::ZERO));
    }

    #[test]
    fn d2h_read_4k_page_latency_in_microseconds() {
        let mut host = Socket::xeon_6538y();
        let mut dev = CxlDevice::agilex7();
        let t = d2h_read_bytes(&mut dev, &mut host, host_line(4096), 4096, Time::ZERO);
        let us = t.duration_since(Time::ZERO).as_micros_f64();
        assert!(us > 0.2 && us < 10.0, "4KB D2H pull {us}us");
    }

    #[test]
    fn d2h_push_lands_lines_in_llc() {
        let mut host = Socket::xeon_6538y();
        let mut dev = CxlDevice::agilex7();
        d2h_push_bytes(&mut dev, &mut host, host_line(8192), 256, Time::ZERO);
        for i in 0..4 {
            assert!(host.caches.llc_state(host_line(8192 + i)).is_some());
        }
    }

    #[test]
    fn sub_line_transfers_cost_one_line() {
        let mut host = Socket::xeon_6538y();
        let mut dev = CxlDevice::agilex7();
        let a = h2d_store_bytes(&mut dev, &mut host, device_line(100), 1, Time::ZERO);
        let mut host2 = Socket::xeon_6538y();
        let mut dev2 = CxlDevice::agilex7();
        let b = h2d_store_bytes(&mut dev2, &mut host2, device_line(100), 64, Time::ZERO);
        assert_eq!(a.duration_since(Time::ZERO), b.duration_since(Time::ZERO));
    }

    #[test]
    fn h2d_load_bounded_by_ldq() {
        // With MLP 10 and ~200ns device latency, 64KB (1024 lines) takes
        // at least lines/MLP * latency.
        let mut host = Socket::xeon_6538y();
        let mut dev = CxlDevice::agilex7();
        let t = h2d_load_bytes(&mut dev, &mut host, device_line(0), 64 * 1024, Time::ZERO);
        assert!(t.duration_since(Time::ZERO) > Duration::from_nanos(5_000));
    }
}
