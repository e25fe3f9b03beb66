//! The CAFU load/store unit and the §V microbenchmark driver.
//!
//! The paper implements an LSU in a CAFU that issues N D2H or D2D requests
//! (16 × 64 B by default, random addresses) and records first-issue to
//! Nth-completion; latency is the median of ≥1000 repetitions, bandwidth is
//! bytes/elapsed. [`Lsu`] reproduces that driver on top of
//! [`CxlDevice`], with the FPGA's 400 MHz issue
//! rate and bounded request window.

use cxl_proto::request::RequestType;
use host::burst::{run_burst, BurstResult, BurstSpec};
use host::socket::Socket;
use mem_subsys::line::LineAddr;
use sim_core::port::PortEngine;
use sim_core::time::Time;
use sim_core::trace::{self, Lane, TraceEvent};

use crate::device::CxlDevice;

/// Whether the burst targets host memory (D2H) or device memory (D2D).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BurstTarget {
    /// D2H: host-memory addresses.
    HostMemory,
    /// D2D: device-memory addresses.
    DeviceMemory,
}

/// The device accelerator's load/store unit.
#[derive(Debug, Clone, Copy, Default)]
pub struct Lsu;

impl Lsu {
    /// Creates an LSU.
    pub fn new() -> Self {
        Lsu
    }

    /// Issues a burst of `req`-type accesses to the given addresses,
    /// pipelined at the device issue rate with the device request window.
    ///
    /// # Examples
    ///
    /// ```
    /// use cxl_proto::request::RequestType;
    /// use cxl_type2::addr::host_line;
    /// use cxl_type2::device::CxlDevice;
    /// use cxl_type2::lsu::{BurstTarget, Lsu};
    /// use host::socket::Socket;
    /// use sim_core::time::Time;
    ///
    /// let mut host = Socket::xeon_6538y();
    /// let mut dev = CxlDevice::agilex7();
    /// let addrs: Vec<_> = (0..16).map(|i| host_line(i * 97)).collect();
    /// let r = Lsu::new().burst(
    ///     &mut dev,
    ///     &mut host,
    ///     RequestType::NC_RD,
    ///     BurstTarget::HostMemory,
    ///     &addrs,
    ///     Time::ZERO,
    /// );
    /// assert_eq!(r.latencies.len(), 16);
    /// ```
    pub fn burst(
        &self,
        dev: &mut CxlDevice,
        host: &mut Socket,
        req: RequestType,
        target: BurstTarget,
        addrs: &[LineAddr],
        start: Time,
    ) -> BurstResult {
        let lane = match target {
            BurstTarget::HostMemory => Lane::D2h,
            BurstTarget::DeviceMemory => Lane::D2d,
        };
        trace::emit(
            start,
            TraceEvent::LsuBurst {
                lane,
                lines: addrs.len() as u64,
            },
        );
        let spec = BurstSpec::from_port(addrs.len(), &dev.lsu_port());
        run_burst(spec, start, |i, t| match target {
            BurstTarget::HostMemory => dev.d2h(req, addrs[i], t, host).completion,
            BurstTarget::DeviceMemory => dev.d2d(req, addrs[i], t, host).completion,
        })
    }

    /// Issues the burst as concurrent transactions: out-of-order LSU
    /// retirement, one engine port per DCOH slice, each address routed to
    /// its slice. Unlike [`Lsu::burst`]'s in-order window, a transaction
    /// that completes early frees its slot immediately, and transactions
    /// on different slices (and different memory channels underneath)
    /// genuinely overlap — bandwidth is *measured* out of the shared
    /// timing models rather than inferred from a serial schedule. `mlp`
    /// caps the engine-wide memory-level parallelism by shrinking each
    /// slice port's window.
    ///
    /// # Panics
    ///
    /// Panics if `addrs` is empty or `mlp` is zero.
    #[allow(clippy::too_many_arguments)]
    pub fn concurrent_burst(
        &self,
        dev: &mut CxlDevice,
        host: &mut Socket,
        req: RequestType,
        target: BurstTarget,
        addrs: &[LineAddr],
        start: Time,
        mlp: usize,
    ) -> BurstResult {
        assert!(!addrs.is_empty(), "burst must contain at least one request");
        assert!(mlp > 0, "concurrency requires at least one transaction");
        let lane = match target {
            BurstTarget::HostMemory => Lane::D2h,
            BurstTarget::DeviceMemory => Lane::D2d,
        };
        trace::emit(
            start,
            TraceEvent::LsuBurst {
                lane,
                lines: addrs.len() as u64,
            },
        );
        // One scratch engine per thread, reset between bursts: repeated
        // bursts (the Fig. 4 reps) reuse the transaction arena and the
        // engine's event heap instead of reallocating them.
        thread_local! {
            static BURST_ENGINE: std::cell::RefCell<PortEngine<usize>> =
                std::cell::RefCell::new(PortEngine::new());
        }
        let done = BURST_ENGINE.with(|cell| {
            let mut engine = cell.borrow_mut();
            engine.reset();
            let per_slice = mlp.min(dev.timing.dcoh_slice_outstanding);
            let ports: Vec<_> = dev
                .slice_ports()
                .into_iter()
                .map(|spec| {
                    let mut spec = spec;
                    spec.max_outstanding = spec.max_outstanding.min(per_slice);
                    engine.add_port(spec)
                })
                .collect();
            for (i, &a) in addrs.iter().enumerate() {
                engine.submit(ports[dev.slice_of(a)], start, i);
            }
            engine.run(|_, &i, t| match target {
                BurstTarget::HostMemory => dev.d2h(req, addrs[i], t, host).completion,
                BurstTarget::DeviceMemory => dev.d2d(req, addrs[i], t, host).completion,
            })
        });
        let mut first_issue = done.first().map(|c| c.issued).unwrap_or(start);
        let mut last_completion = start;
        let mut latencies = vec![sim_core::time::Duration::ZERO; addrs.len()];
        for c in &done {
            first_issue = first_issue.min(c.issued);
            latencies[c.payload] = c.completed.duration_since(c.issued);
            last_completion = last_completion.max(c.completed);
        }
        BurstResult {
            first_issue,
            last_completion,
            latencies,
        }
    }

    /// Issues a single access and returns its latency measurement point.
    pub fn single(
        &self,
        dev: &mut CxlDevice,
        host: &mut Socket,
        req: RequestType,
        target: BurstTarget,
        addr: LineAddr,
        now: Time,
    ) -> Time {
        match target {
            BurstTarget::HostMemory => dev.d2h(req, addr, now, host).completion,
            BurstTarget::DeviceMemory => dev.d2d(req, addr, now, host).completion,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{device_line, host_line};

    #[test]
    fn burst_reports_n_latencies() {
        let mut host = Socket::xeon_6538y();
        let mut dev = CxlDevice::agilex7();
        let addrs: Vec<_> = (0..16).map(|i| host_line(1000 + i * 13)).collect();
        let r = Lsu::new().burst(
            &mut dev,
            &mut host,
            RequestType::CS_RD,
            BurstTarget::HostMemory,
            &addrs,
            Time::ZERO,
        );
        assert_eq!(r.latencies.len(), 16);
        assert!(r.bandwidth_gbps(64) > 0.0);
    }

    #[test]
    fn d2d_burst_targets_device_memory() {
        let mut host = Socket::xeon_6538y();
        let mut dev = CxlDevice::agilex7();
        let addrs: Vec<_> = (0..16).map(|i| device_line(i * 7)).collect();
        let r = Lsu::new().burst(
            &mut dev,
            &mut host,
            RequestType::CO_WR,
            BurstTarget::DeviceMemory,
            &addrs,
            Time::ZERO,
        );
        assert_eq!(dev.counters().get("device.d2d.requests"), 16);
        assert!(r.elapsed() > sim_core::time::Duration::ZERO);
    }

    #[test]
    fn writes_outpace_reads_in_small_bursts() {
        // The Fig. 3 mechanism: 16 writes are absorbed by write queues while
        // 16 reads pay full memory latency.
        let mut host = Socket::xeon_6538y();
        let mut dev = CxlDevice::agilex7();
        let rd_addrs: Vec<_> = (0..16).map(|i| host_line(50_000 + i * 29)).collect();
        let wr_addrs: Vec<_> = (0..16).map(|i| host_line(90_000 + i * 31)).collect();
        let lsu = Lsu::new();
        let rd = lsu.burst(
            &mut dev,
            &mut host,
            RequestType::NC_RD,
            BurstTarget::HostMemory,
            &rd_addrs,
            Time::ZERO,
        );
        let wr = lsu.burst(
            &mut dev,
            &mut host,
            RequestType::NC_WR,
            BurstTarget::HostMemory,
            &wr_addrs,
            Time::from_nanos(100_000),
        );
        assert!(
            wr.bandwidth_gbps(64) > rd.bandwidth_gbps(64),
            "writes {} GB/s vs reads {} GB/s",
            wr.bandwidth_gbps(64),
            rd.bandwidth_gbps(64)
        );
    }
}
