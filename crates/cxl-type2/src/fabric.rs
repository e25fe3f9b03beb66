//! The coherent platform: one host socket and N CXL Type-2 cards.
//!
//! [`Socket`]'s core-side operations are device-unaware; on a real system
//! the home agent back-snoops a Type-2 card over CXL.cache when the host
//! touches a line the card's DCOH holds (the HMC appears in the host's
//! snoop filter). [`Fabric`] provides that glue for N identical devices —
//! each with its own DCOH slices, LSU ports, links, and memory channels —
//! addressed through a [`DecoderSet`] programmed at [`addr`]'s HDM
//! window. Host-side accesses decode first: device-space addresses route
//! to the owning card's H2D pipeline at the device-local address;
//! host-space addresses back-snoop *every* Type-2 card's HMC before the
//! local access proceeds, and a D2H access from one card back-snoops
//! every other card's, so at most one agent holds a line writable. All of
//! it goes through one recall loop.
//!
//! The paper's testbed is the one-card fabric
//! ([`Fabric::agilex7_testbed`]): the identity decode hands each device
//! address back unchanged, no fabric-route events are emitted, and the
//! recall loop visits exactly one device. `tests/testbed_fixture.rs` pins
//! it byte for byte to a recording of the original hand-wired
//! single-socket, single-card glue.

use cxl_proto::link::cxl_x16;
use cxl_proto::request::RequestType;
use host::burst::BurstResult;
use host::socket::{Access, Socket};
use mem_subsys::line::LineAddr;
use sim_core::port::PortEngine;
use sim_core::time::{Duration, Time};
use sim_core::topology::{DecoderSet, DeviceId};
use sim_core::trace::{self, Lane, SnoopKind, TraceEvent};
use sim_core::traffic::FlowSpec;

use crate::addr::{
    self, is_device_addr, DEFAULT_INTERLEAVE_BYTES, DEVICE_MEM_BASE, HDM_WINDOW_LINES,
};
use crate::device::{CxlDevice, DeviceAccess, H2dOp};

/// One fabric-wide concurrent burst: the aggregate envelope plus how many
/// lines each device absorbed.
#[derive(Debug, Clone)]
pub struct FabricBurst {
    /// First-issue / last-completion envelope and per-op latencies (in
    /// submission order).
    pub result: BurstResult,
    /// Lines served by each device, in id order.
    pub per_device_lines: Vec<u64>,
}

/// What a back-snoop leaves of the HMC copies it finds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Recall {
    /// Non-ownership read: Modified/Exclusive copies degrade to Shared,
    /// dirty data written back; Shared copies are left alone.
    Degrade,
    /// Ownership: every copy invalidates, dirty data written back first.
    Invalidate,
    /// Full-line overwrite: every copy invalidates, dirty data dropped.
    Drop,
}

/// One host socket and N identical Type-2 cards behind it, with
/// hardware-managed coherence between the host and every card's HMC.
///
/// # Examples
///
/// ```
/// use cxl_type2::addr::host_line;
/// use cxl_type2::fabric::Fabric;
/// use cxl_proto::request::RequestType;
/// use mem_subsys::coherence::MesiState;
/// use sim_core::time::Time;
/// use sim_core::topology::DeviceId;
///
/// let mut fab = Fabric::agilex7_testbed();
/// let a = host_line(7);
/// // The device takes ownership; a host store then reclaims it.
/// fab.d2h(DeviceId(0), RequestType::CO_WR, a, Time::ZERO);
/// assert_eq!(fab.devs[0].hmc_state(a), Some(MesiState::Modified));
/// fab.host_store(a, Time::from_nanos(1_000));
/// assert_eq!(fab.devs[0].hmc_state(a), None, "back-invalidated");
/// ```
#[derive(Debug)]
pub struct Fabric {
    /// The one host socket. It is a one-element array rather than a
    /// plain `Socket` only because the separate `perfbench` workspace
    /// indexes this field; it becomes `host: Socket` with the next change
    /// to `perfbench`. Code in this workspace binds it with
    /// `let [host] = &mut fabric.hosts;` and never indexes.
    pub hosts: [Socket; 1],
    /// Devices, in [`DeviceId`] order.
    pub devs: Vec<CxlDevice>,
    decoders: DecoderSet,
}

impl Fabric {
    /// The paper's testbed as a fabric: one host, one card, and the
    /// identity decode.
    pub fn agilex7_testbed() -> Self {
        Fabric::symmetric(1, 1)
    }

    /// One host and `devices` identical one-slice Agilex-7 cards,
    /// interleaved `ways`-wide at 256 B from [`DEVICE_MEM_BASE`], each
    /// card exposing `HDM_WINDOW_LINES`.
    ///
    /// # Panics
    ///
    /// Panics if [`DecoderSet::symmetric`] rejects `(devices, ways)` —
    /// `ways` must be 1, 2, 4 or 8 and divide `devices`.
    pub fn symmetric(devices: usize, ways: u8) -> Self {
        let decoders = DecoderSet::symmetric(
            devices,
            ways,
            DEVICE_MEM_BASE,
            HDM_WINDOW_LINES,
            DEFAULT_INTERLEAVE_BYTES,
        );
        let hosts = [Socket::xeon_6538y()];
        let devs = (0..devices)
            .map(|_| CxlDevice::agilex7_with_slices(1))
            .collect();
        Fabric {
            hosts,
            devs,
            decoders,
        }
    }

    /// The HDM decoders every host access routes through.
    pub fn decoders(&self) -> &DecoderSet {
        &self.decoders
    }

    /// A host-side store flow (the host socket's store port):
    /// the endpoint a serving tenant issues through. The target device
    /// is *not* fixed — each op's line decodes through the HDM windows
    /// via [`Fabric::route`], so one flow's ops interleave across every
    /// device its key shard spans.
    pub fn host_store_flow(&self, name: &'static str) -> FlowSpec {
        let [host] = &self.hosts;
        host.store_flow(name)
    }

    /// Decodes a host-physical address to its card and local line. In
    /// multi-device fabrics a `fabric-route` trace event records the
    /// device dimension; the 1×1 fabric emits nothing so singleton traces
    /// stay byte-identical.
    pub fn route(&mut self, addr: LineAddr, now: Time) -> Option<(DeviceId, LineAddr)> {
        let d = self.decoders.decode(addr.index())?;
        let (id, local) = (d.device, addr::device_line(d.dpa_line));
        if self.devs.len() > 1 {
            trace::emit(
                now,
                TraceEvent::FabricRoute {
                    device: id.0,
                    hpa: addr.index(),
                    dpa: local.index(),
                    way: d.way,
                },
            );
        }
        Some((id, local))
    }

    /// The back-snoop round-trip cost of recalling a line from one
    /// device's HMC (a CXL.cache H2D snoop + D2H response).
    fn back_snoop_cost(dev: &CxlDevice) -> Duration {
        cxl_x16().unloaded_latency(0) + cxl_x16().unloaded_latency(64) + dev.timing.dcoh_lookup
    }

    /// Back-snoops `addr` out of every device HMC except `skip`'s, as
    /// the host's home agent (host memory takes any dirty data).
    /// Returns the extra latency: one back-snoop per copy recalled.
    fn recall(&mut self, skip: Option<usize>, addr: LineAddr, now: Time, mode: Recall) -> Duration {
        let [host] = &mut self.hosts;
        let mut extra = Duration::ZERO;
        for (i, dev) in self.devs.iter_mut().enumerate() {
            if Some(i) == skip {
                continue;
            }
            let state = match dev.hmc_state(addr) {
                Some(s) if mode != Recall::Degrade || s.is_writable() => s,
                _ => continue,
            };
            trace::emit(
                now,
                TraceEvent::Snoop {
                    snoop: SnoopKind::BackInvalidate,
                    addr: addr.index(),
                    hit: true,
                    dirty: state.is_dirty(),
                },
            );
            match mode {
                Recall::Degrade => {
                    dev.writeback_and_degrade(addr, now, host);
                    dev.degrade_hmc(addr);
                }
                Recall::Invalidate => {
                    dev.writeback_and_degrade(addr, now, host);
                    dev.invalidate_hmc(addr);
                }
                Recall::Drop => dev.invalidate_hmc(addr),
            }
            extra += Self::back_snoop_cost(dev);
        }
        extra
    }

    fn assert_decoded(&self, addr: LineAddr) {
        assert!(
            !is_device_addr(addr),
            "device address {addr} is not covered by any HDM decoder"
        );
    }

    /// Routes a host access to device memory through the owning card's
    /// H2D pipeline, or returns `None` for host memory.
    fn h2d(&mut self, op: H2dOp, addr: LineAddr, now: Time) -> Option<Access> {
        let (id, local) = self.route(addr, now)?;
        let [host] = &mut self.hosts;
        let acc = self.devs[id.0 as usize].h2d(op, local, now, host);
        Some(Access {
            completion: acc.completion,
            level: host::hierarchy::HitLevel::Memory,
        })
    }

    /// Coherent host load: decodes, then either the owning device's H2D
    /// pipeline or the fabric-wide recall + local access.
    pub fn host_load(&mut self, addr: LineAddr, now: Time) -> Access {
        if let Some(acc) = self.h2d(H2dOp::Load, addr, now) {
            return acc;
        }
        self.assert_decoded(addr);
        let extra = self.recall(None, addr, now, Recall::Degrade);
        let [host] = &mut self.hosts;
        host.load(addr, now + extra)
    }

    /// Coherent host store.
    pub fn host_store(&mut self, addr: LineAddr, now: Time) -> Access {
        if let Some(acc) = self.h2d(H2dOp::Store, addr, now) {
            return acc;
        }
        self.assert_decoded(addr);
        let extra = self.recall(None, addr, now, Recall::Invalidate);
        let [host] = &mut self.hosts;
        host.store(addr, now + extra)
    }

    /// Coherent host non-temporal store. A full-line overwrite needs no
    /// dirty data back, only invalidation.
    pub fn host_nt_store(&mut self, addr: LineAddr, now: Time) -> Access {
        if let Some(acc) = self.h2d(H2dOp::NtStore, addr, now) {
            return acc;
        }
        self.assert_decoded(addr);
        let extra = self.recall(None, addr, now, Recall::Drop);
        let [host] = &mut self.hosts;
        host.nt_store(addr, now + extra)
    }

    /// Coherent CLFLUSH, covering all agents. Dirty device-memory lines
    /// write back over CXL into the owning device.
    pub fn host_clflush(&mut self, addr: LineAddr, now: Time) -> Time {
        if let Some((id, local)) = self.route(addr, now) {
            let [host] = &mut self.hosts;
            let dirty = host.caches.flush_line(addr);
            let t = now + host.timing.issue + host.timing.cacheline_op;
            if dirty {
                return self.devs[id.0 as usize].writeback_device_line(local, t);
            }
            return t;
        }
        self.assert_decoded(addr);
        let extra = self.recall(None, addr, now, Recall::Invalidate);
        let [host] = &mut self.hosts;
        host.clflush(addr, now + extra)
    }

    /// A device-initiated access on one card against host memory (D2H) —
    /// the fabric-aware form of `CxlDevice::d2h`. The home agent first
    /// recalls the line from every *other* card's HMC: a non-ownership
    /// read (`NC_RD`, `CS_RD`) degrades their writable copies to Shared,
    /// anything else invalidates them, so at most one agent ever holds the
    /// line writable.
    pub fn d2h(
        &mut self,
        id: DeviceId,
        req: RequestType,
        addr: LineAddr,
        now: Time,
    ) -> DeviceAccess {
        let d = id.0 as usize;
        let mode = if req == RequestType::NC_RD || req == RequestType::CS_RD {
            Recall::Degrade
        } else {
            Recall::Invalidate
        };
        let extra = self.recall(Some(d), addr, now, mode);
        let [host] = &mut self.hosts;
        self.devs[d].d2h(req, addr, now + extra, host)
    }

    /// Flips `lines` starting at host-physical `addr` into device bias on
    /// their owning cards (decoding line by line, so interleaved ranges
    /// flip on every card they touch); each flip's CO_WR flush empties
    /// the host's caches. Returns the last completion.
    pub fn enter_device_bias(&mut self, addr: LineAddr, lines: u64, now: Time) -> Time {
        let mut t = now;
        let mut i = 0;
        while i < lines {
            let hpa = LineAddr::new(addr.index() + i);
            let (id, local) = self
                .route(hpa, t)
                .unwrap_or_else(|| panic!("{hpa} is not HDM-mapped device memory"));
            let [host] = &mut self.hosts;
            t = self.devs[id.0 as usize].enter_device_bias(local, 1, t, host);
            i += 1;
        }
        t
    }

    /// Issues one D2D request per host-physical line as concurrent
    /// transactions across the whole fabric: one engine port per (device,
    /// DCOH slice), each line routed by the HDM decode, every device's
    /// memory channels progressing in parallel. `mlp` caps the per-slice
    /// outstanding window, exactly like `Lsu::concurrent_burst` on one
    /// card — this is the Fig. 4 store stream generalized to N devices.
    ///
    /// # Panics
    ///
    /// Panics if `lines` is empty, `mlp` is zero, or any line fails to
    /// decode.
    pub fn concurrent_d2d_burst(
        &mut self,
        req: RequestType,
        lines: &[u64],
        start: Time,
        mlp: usize,
    ) -> FabricBurst {
        assert!(!lines.is_empty(), "burst must contain at least one request");
        assert!(mlp > 0, "concurrency requires at least one transaction");
        trace::emit(
            start,
            TraceEvent::LsuBurst {
                lane: Lane::D2d,
                lines: lines.len() as u64,
            },
        );
        // Route every line first (accounting + trace), then wire one port
        // per (device, slice) and let the engine interleave all devices.
        let routed: Vec<(usize, LineAddr)> = lines
            .iter()
            .map(|&l| {
                let hpa = LineAddr::new(l);
                let (id, local) = self
                    .route(hpa, start)
                    .unwrap_or_else(|| panic!("{hpa} is not HDM-mapped device memory"));
                (id.0 as usize, local)
            })
            .collect();
        let mut engine: PortEngine<usize> = PortEngine::new();
        let mut ports = Vec::with_capacity(self.devs.len());
        for dev in &self.devs {
            let per_slice = mlp.min(dev.timing.dcoh_slice_outstanding);
            let dev_ports: Vec<_> = dev
                .slice_ports()
                .into_iter()
                .map(|mut spec| {
                    spec.max_outstanding = spec.max_outstanding.min(per_slice);
                    engine.add_port(spec)
                })
                .collect();
            ports.push(dev_ports);
        }
        for (i, &(d, local)) in routed.iter().enumerate() {
            engine.submit(ports[d][self.devs[d].slice_of(local)], start, i);
        }
        let [host] = &mut self.hosts;
        let devs = &mut self.devs;
        let done = engine.run(|_, &i, t| {
            let (d, local) = routed[i];
            devs[d].d2d(req, local, t, host).completion
        });
        let mut per_device_lines = vec![0u64; self.devs.len()];
        let mut first_issue = done.first().map(|c| c.issued).unwrap_or(start);
        let mut last_completion = start;
        let mut latencies = vec![Duration::ZERO; lines.len()];
        for c in &done {
            first_issue = first_issue.min(c.issued);
            latencies[c.payload] = c.completed.duration_since(c.issued);
            last_completion = last_completion.max(c.completed);
            per_device_lines[routed[c.payload].0] += 1;
        }
        FabricBurst {
            result: BurstResult {
                first_issue,
                last_completion,
                latencies,
            },
            per_device_lines,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{device_line, host_line};
    use mem_subsys::coherence::MesiState;

    const DEV0: DeviceId = DeviceId(0);

    #[test]
    fn host_store_reclaims_device_owned_line() {
        let mut fab = Fabric::agilex7_testbed();
        let a = host_line(100);
        fab.d2h(DEV0, RequestType::CO_WR, a, Time::ZERO);
        assert_eq!(fab.devs[0].hmc_state(a), Some(MesiState::Modified));
        let [host] = &fab.hosts;
        let (_, w0) = host.mem.op_counts();
        fab.host_store(a, Time::from_nanos(5_000));
        assert_eq!(fab.devs[0].hmc_state(a), None);
        let [host] = &fab.hosts;
        assert_eq!(host.caches.llc_state(a), Some(MesiState::Modified));
        assert!(host.mem.op_counts().1 > w0, "dirty HMC data written back");
    }

    #[test]
    fn host_load_degrades_device_exclusive_to_shared() {
        let mut fab = Fabric::agilex7_testbed();
        let a = host_line(200);
        fab.d2h(DEV0, RequestType::CO_RD, a, Time::ZERO);
        assert_eq!(fab.devs[0].hmc_state(a), Some(MesiState::Exclusive));
        fab.host_load(a, Time::from_nanos(5_000));
        assert_eq!(fab.devs[0].hmc_state(a), Some(MesiState::Shared));
    }

    #[test]
    fn recall_costs_latency() {
        let mut fab = Fabric::agilex7_testbed();
        let owned = host_line(300);
        let free = host_line(301);
        fab.d2h(DEV0, RequestType::CO_WR, owned, Time::ZERO);
        let t = Time::from_nanos(10_000);
        let slow = fab.host_store(owned, t);
        let t2 = slow.completion;
        let fast = fab.host_store(free, t2);
        let slow_lat = slow.completion.duration_since(t);
        let fast_lat = fast.completion.duration_since(t2);
        assert!(slow_lat > fast_lat, "recall {slow_lat} vs clean {fast_lat}");
    }

    #[test]
    fn shared_hmc_lines_survive_host_reads() {
        let mut fab = Fabric::agilex7_testbed();
        let a = host_line(400);
        fab.d2h(DEV0, RequestType::CS_RD, a, Time::ZERO);
        assert_eq!(fab.devs[0].hmc_state(a), Some(MesiState::Shared));
        fab.host_load(a, Time::from_nanos(5_000));
        assert_eq!(
            fab.devs[0].hmc_state(a),
            Some(MesiState::Shared),
            "reads coexist"
        );
    }

    #[test]
    fn nt_store_drops_device_copy_without_writeback() {
        let mut fab = Fabric::agilex7_testbed();
        let a = host_line(500);
        fab.d2h(DEV0, RequestType::CO_WR, a, Time::ZERO);
        let [host] = &fab.hosts;
        let (_, w0) = host.mem.op_counts();
        fab.host_nt_store(a, Time::from_nanos(5_000));
        assert_eq!(fab.devs[0].hmc_state(a), None);
        // One write: the nt-st itself (no separate HMC write-back needed
        // for a full-line overwrite).
        let [host] = &fab.hosts;
        assert_eq!(host.mem.op_counts().1, w0 + 1);
    }

    #[test]
    fn d2h_keeps_a_single_writer_across_devices() {
        let mut fab = Fabric::symmetric(2, 2);
        let a = host_line(800);
        let writers = |fab: &Fabric| {
            fab.devs
                .iter()
                .filter(|d| d.hmc_state(a).is_some_and(|s| s.is_writable()))
                .count()
        };
        fab.d2h(DEV0, RequestType::CO_WR, a, Time::ZERO);
        fab.d2h(DeviceId(1), RequestType::CO_WR, a, Time::from_nanos(1_000));
        assert_eq!(writers(&fab), 1, "two HMCs hold {a} writable");
        assert_eq!(
            fab.devs[0].hmc_state(a),
            None,
            "ownership recalls dev0's copy"
        );
        // A non-ownership read from dev0 only degrades dev1's copy.
        fab.d2h(DEV0, RequestType::CS_RD, a, Time::from_nanos(2_000));
        assert_eq!(fab.devs[1].hmc_state(a), Some(MesiState::Shared));
        assert_eq!(writers(&fab), 0);
    }

    #[test]
    fn host_store_recalls_every_devices_copy() {
        let mut fab = Fabric::symmetric(2, 2);
        let a = host_line(777);
        fab.d2h(DEV0, RequestType::CO_RD, a, Time::ZERO);
        fab.d2h(DeviceId(1), RequestType::CS_RD, a, Time::from_nanos(1_000));
        assert!(fab.devs[0].hmc_state(a).is_some());
        assert!(fab.devs[1].hmc_state(a).is_some());
        fab.host_store(a, Time::from_nanos(10_000));
        assert_eq!(fab.devs[0].hmc_state(a), None);
        assert_eq!(fab.devs[1].hmc_state(a), None);
    }

    #[test]
    fn interleaved_stores_land_on_alternating_devices() {
        let mut fab = Fabric::symmetric(2, 2);
        // 256 B granularity = 4 lines per granule.
        for i in 0..8u64 {
            fab.host_store(LineAddr::new(DEVICE_MEM_BASE + i * 4), Time::ZERO);
        }
        let c0 = fab.devs[0].counters().get("device.h2d.requests");
        let c1 = fab.devs[1].counters().get("device.h2d.requests");
        assert_eq!((c0, c1), (4, 4));
    }

    #[test]
    fn fabric_burst_spreads_lines_by_decode() {
        let mut fab = Fabric::symmetric(4, 4);
        let lines: Vec<u64> = (0..64).map(|i| DEVICE_MEM_BASE + i * 4).collect();
        let burst = fab.concurrent_d2d_burst(RequestType::NC_WR, &lines, Time::ZERO, 8);
        assert_eq!(burst.per_device_lines, vec![16, 16, 16, 16]);
        assert!(burst.result.last_completion > Time::ZERO);
    }

    #[test]
    #[should_panic(expected = "not covered by any HDM decoder")]
    fn unmapped_device_addresses_rejected() {
        let mut fab = Fabric::agilex7_testbed();
        // Beyond the 32 GiB window: device space but no decoder.
        fab.host_load(device_line(crate::addr::HDM_WINDOW_LINES), Time::ZERO);
    }
}
