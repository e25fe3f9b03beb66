//! The coherent platform: hosts and CXL devices wired by a topology.
//!
//! [`Socket`]'s core-side operations are device-unaware; on a real system
//! the home agent back-snoops a Type-2 card over CXL.cache when the host
//! touches a line the card's DCOH holds (the HMC appears in the host's
//! snoop filter). [`Fabric`] provides that glue for N devices — each
//! with its own DCOH slices, LSU ports, links, and memory channels —
//! built from a declarative [`TopologySpec`] and addressed through the
//! HDM decoders of [`addr`]. Host-side accesses decode
//! first: device-space addresses route to the owning card's H2D pipeline
//! at the device-local address; host-space addresses back-snoop *every*
//! Type-2 card's HMC before the local access proceeds, and a D2H access
//! from one card back-snoops every other card's, so at most one agent
//! holds a line writable. All of it goes through one recall loop.
//!
//! The paper's testbed is the degenerate 1×1 fabric
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
use sim_core::topology::{DeviceId, DeviceKind, Topology, TopologyError, TopologySpec};
use sim_core::trace::{self, CounterId, CounterRegistry, CounterSlot, Lane, SnoopKind, TraceEvent};
use sim_core::traffic::FlowSpec;

use crate::addr::{self, is_device_addr, DEFAULT_INTERLEAVE_BYTES};
use crate::device::{CxlDevice, DeviceAccess, H2dOp};

/// Static per-device counter keys (`CounterRegistry` wants `&'static
/// str`); devices past the table share the last slot.
const ROUTED_KEYS: [&str; 8] = [
    "fabric.dev0.routed",
    "fabric.dev1.routed",
    "fabric.dev2.routed",
    "fabric.dev3.routed",
    "fabric.dev4.routed",
    "fabric.dev5.routed",
    "fabric.dev6.routed",
    "fabric.dev7.routed",
];

static FABRIC_ROUTED: CounterSlot = CounterSlot::new("fabric.routed");

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

/// N hosts and N devices wired by a validated topology, with
/// hardware-managed coherence between every host and every card's HMC.
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
    /// Host sockets, in topology id order.
    pub hosts: Vec<Socket>,
    /// Devices, in topology id order.
    pub devs: Vec<CxlDevice>,
    topo: Topology,
    counters: CounterRegistry,
    /// `fabric.devN.routed` ids, interned once at build — `route()` bumps
    /// by dense id only.
    routed_ids: Vec<CounterId>,
}

impl Fabric {
    /// Builds sockets and cards from a validated spec.
    pub fn from_spec(spec: &TopologySpec) -> Result<Self, TopologyError> {
        let topo = spec.resolve()?;
        let hosts = topo.hosts().iter().map(|_| Socket::xeon_6538y()).collect();
        let devs = topo
            .devices()
            .iter()
            .map(|d| match d.kind {
                DeviceKind::Type2 => CxlDevice::agilex7_with_slices(d.dcoh_slices),
                DeviceKind::Type3 => CxlDevice::agilex7_type3(),
            })
            .collect();
        let routed_ids = (0..topo.devices().len())
            .map(|i| CounterId::intern(ROUTED_KEYS[i.min(ROUTED_KEYS.len() - 1)]))
            .collect();
        Ok(Fabric {
            hosts,
            devs,
            topo,
            counters: CounterRegistry::new(),
            routed_ids,
        })
    }

    /// The paper's testbed as a fabric: the degenerate 1-host × 1-device
    /// topology with the identity decode.
    pub fn agilex7_testbed() -> Self {
        Fabric::from_spec(&addr::hdm_spec(1, 1, DEFAULT_INTERLEAVE_BYTES))
            .expect("the 1x1 spec is statically valid")
    }

    /// `devices` identical cards interleaved `ways`-wide at 256 B.
    ///
    /// # Panics
    ///
    /// Panics if `ways` does not divide `devices` (decoder windows
    /// interleave whole device groups).
    pub fn symmetric(devices: usize, ways: u8) -> Self {
        Fabric::from_spec(&addr::hdm_spec(devices, ways, DEFAULT_INTERLEAVE_BYTES))
            .expect("symmetric specs are statically valid")
    }

    /// The resolved topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Fabric-level routing counters (`fabric.devN.routed`). Per-device
    /// protocol counters stay on each device: [`Fabric::device_counters`].
    pub fn counters(&self) -> &CounterRegistry {
        &self.counters
    }

    /// The protocol counters of one device.
    pub fn device_counters(&self, id: DeviceId) -> &CounterRegistry {
        self.devs[id.0 as usize].counters()
    }

    /// A host-side store flow (the primary host socket's store port):
    /// the endpoint a serving tenant issues through. The target device
    /// is *not* fixed — each op's line decodes through the HDM windows
    /// via [`Fabric::route`], so one flow's ops interleave across every
    /// device its key shard spans.
    pub fn host_store_flow(&self, name: &'static str) -> FlowSpec {
        self.hosts[0].store_flow(name)
    }

    /// Decodes a host-physical address and accounts the route. In
    /// multi-device fabrics a `fabric-route` trace event records the
    /// device dimension; the 1×1 fabric emits nothing so singleton traces
    /// stay byte-identical.
    pub fn route(&mut self, addr: LineAddr, now: Time) -> Option<(DeviceId, LineAddr)> {
        let d = self.topo.decoders().decode(addr.index())?;
        let (id, local) = (d.device, addr::device_line(d.dpa_line));
        self.counters.bump(&FABRIC_ROUTED);
        self.counters.add_id(
            self.routed_ids[(id.0 as usize).min(self.routed_ids.len() - 1)],
            1,
        );
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
    /// the home agent of host `h` (whose memory takes any dirty data).
    /// Returns the extra latency: one back-snoop per copy recalled.
    fn recall(
        &mut self,
        h: usize,
        skip: Option<usize>,
        addr: LineAddr,
        now: Time,
        mode: Recall,
    ) -> Duration {
        let host = &mut self.hosts[h];
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
        let acc = self.devs[id.0 as usize].h2d(op, local, now, &mut self.hosts[0]);
        Some(Access {
            completion: acc.completion,
            level: host::hierarchy::HitLevel::Memory,
        })
    }

    /// Coherent host load from host 0: decodes, then either the owning
    /// device's H2D pipeline or the fabric-wide recall + local access.
    pub fn host_load(&mut self, addr: LineAddr, now: Time) -> Access {
        if let Some(acc) = self.h2d(H2dOp::Load, addr, now) {
            return acc;
        }
        self.assert_decoded(addr);
        let extra = self.recall(0, None, addr, now, Recall::Degrade);
        self.hosts[0].load(addr, now + extra)
    }

    /// Coherent host store from host 0.
    pub fn host_store(&mut self, addr: LineAddr, now: Time) -> Access {
        if let Some(acc) = self.h2d(H2dOp::Store, addr, now) {
            return acc;
        }
        self.assert_decoded(addr);
        let extra = self.recall(0, None, addr, now, Recall::Invalidate);
        self.hosts[0].store(addr, now + extra)
    }

    /// Coherent host non-temporal store from host 0. A full-line
    /// overwrite needs no dirty data back, only invalidation.
    pub fn host_nt_store(&mut self, addr: LineAddr, now: Time) -> Access {
        if let Some(acc) = self.h2d(H2dOp::NtStore, addr, now) {
            return acc;
        }
        self.assert_decoded(addr);
        let extra = self.recall(0, None, addr, now, Recall::Drop);
        self.hosts[0].nt_store(addr, now + extra)
    }

    /// Coherent CLFLUSH from host 0, covering all agents. Dirty
    /// device-memory lines write back over CXL into the owning device.
    pub fn host_clflush(&mut self, addr: LineAddr, now: Time) -> Time {
        if let Some((id, local)) = self.route(addr, now) {
            let dirty = self.hosts[0].caches.flush_line(addr);
            let t = now + self.hosts[0].timing.issue + self.hosts[0].timing.cacheline_op;
            if dirty {
                return self.devs[id.0 as usize].writeback_device_line(local, t);
            }
            return t;
        }
        self.assert_decoded(addr);
        let extra = self.recall(0, None, addr, now, Recall::Invalidate);
        self.hosts[0].clflush(addr, now + extra)
    }

    /// A device-initiated access on one card against its owning host's
    /// memory (D2H) — the fabric-aware form of `CxlDevice::d2h`. The
    /// home agent first recalls the line from every *other* card's HMC:
    /// a non-ownership read (`NC_RD`, `CS_RD`) degrades their writable
    /// copies to Shared, anything else invalidates them, so at most one
    /// agent ever holds the line writable.
    pub fn d2h(
        &mut self,
        id: DeviceId,
        req: RequestType,
        addr: LineAddr,
        now: Time,
    ) -> DeviceAccess {
        let (d, h) = (id.0 as usize, self.owning_host(id));
        let mode = if req == RequestType::NC_RD || req == RequestType::CS_RD {
            Recall::Degrade
        } else {
            Recall::Invalidate
        };
        let extra = self.recall(h, Some(d), addr, now, mode);
        self.devs[d].d2h(req, addr, now + extra, &mut self.hosts[h])
    }

    /// The host socket whose home agent owns `id`'s HDM range (the
    /// topology's `owner_host`); bias transitions flush *its* caches.
    pub fn owning_host(&self, id: DeviceId) -> usize {
        self.topo.device(id).owner_host as usize
    }

    /// Flips `lines` starting at host-physical `addr` into device bias on
    /// their owning cards (decoding line by line, so interleaved ranges
    /// flip on every card they touch). The CO_WR flush is charged to each
    /// card's *owning* host — in a multi-socket topology the UPI path to
    /// host 0 would be the wrong one. Returns the last completion.
    pub fn enter_device_bias(&mut self, addr: LineAddr, lines: u64, now: Time) -> Time {
        let mut t = now;
        let mut i = 0;
        while i < lines {
            let hpa = LineAddr::new(addr.index() + i);
            let (id, local) = self
                .route(hpa, t)
                .unwrap_or_else(|| panic!("{hpa} is not HDM-mapped device memory"));
            let owner = self.owning_host(id);
            t = self.devs[id.0 as usize].enter_device_bias(local, 1, t, &mut self.hosts[owner]);
            i += 1;
        }
        t
    }

    /// Returns `lines` starting at host-physical `addr` to host bias on
    /// their owning cards: dirty device-cache (DMC) copies flush back to
    /// device memory first — the symmetric software obligation of leaving
    /// device bias. Returns the last completion.
    pub fn enter_host_bias(&mut self, addr: LineAddr, lines: u64, now: Time) -> Time {
        let mut t = now;
        let mut i = 0;
        while i < lines {
            let hpa = LineAddr::new(addr.index() + i);
            let (id, local) = self
                .route(hpa, t)
                .unwrap_or_else(|| panic!("{hpa} is not HDM-mapped device memory"));
            t = self.devs[id.0 as usize].enter_host_bias(local, 1, t);
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
        let owners: Vec<usize> = self
            .topo
            .devices()
            .iter()
            .map(|d| d.owner_host as usize)
            .collect();
        let hosts = &mut self.hosts;
        let devs = &mut self.devs;
        let done = engine.run(|_, &i, t| {
            let (d, local) = routed[i];
            devs[d].d2d(req, local, t, &mut hosts[owners[d]]).completion
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
    use crate::addr::{device_line, host_line, DEVICE_MEM_BASE, HDM_WINDOW_LINES};
    use mem_subsys::coherence::MesiState;
    use sim_core::topology::{FabricNode, HostSpec};

    const DEV0: DeviceId = DeviceId(0);

    /// Two sockets, two cards, dev1 homed on host1.
    fn two_socket_fabric() -> Fabric {
        let mut spec = addr::hdm_spec(2, 1, DEFAULT_INTERLEAVE_BYTES);
        spec.hosts.push(HostSpec {
            name: "host1".into(),
        });
        if let FabricNode::Switch { children, .. } = &mut spec.root {
            if let FabricNode::Device(d) = &mut children[1] {
                d.owner_host = 1;
            }
        }
        Fabric::from_spec(&spec).unwrap()
    }

    #[test]
    fn host_store_reclaims_device_owned_line() {
        let mut fab = Fabric::agilex7_testbed();
        let a = host_line(100);
        fab.d2h(DEV0, RequestType::CO_WR, a, Time::ZERO);
        assert_eq!(fab.devs[0].hmc_state(a), Some(MesiState::Modified));
        let (_, w0) = fab.hosts[0].mem.op_counts();
        fab.host_store(a, Time::from_nanos(5_000));
        assert_eq!(fab.devs[0].hmc_state(a), None);
        assert_eq!(fab.hosts[0].caches.llc_state(a), Some(MesiState::Modified));
        assert!(
            fab.hosts[0].mem.op_counts().1 > w0,
            "dirty HMC data written back"
        );
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
        let (_, w0) = fab.hosts[0].mem.op_counts();
        fab.host_nt_store(a, Time::from_nanos(5_000));
        assert_eq!(fab.devs[0].hmc_state(a), None);
        // One write: the nt-st itself (no separate HMC write-back needed
        // for a full-line overwrite).
        assert_eq!(fab.hosts[0].mem.op_counts().1, w0 + 1);
    }

    #[test]
    fn bias_flush_targets_the_owning_host() {
        // The CO_WR flush of a bias transition on dev1 must empty host1's
        // cache, not host0's.
        let mut fab = two_socket_fabric();
        assert_eq!(fab.owning_host(DEV0), 0);
        assert_eq!(fab.owning_host(DeviceId(1)), 1);

        // Dirty the same device-local line in both sockets' caches.
        let local = device_line(0);
        fab.hosts[0].store(local, Time::ZERO);
        fab.hosts[1].store(local, Time::ZERO);

        // First line of dev1's decoder window.
        let hpa = LineAddr::new(DEVICE_MEM_BASE + HDM_WINDOW_LINES);
        fab.enter_device_bias(hpa, 1, Time::from_nanos(1_000));

        // The owner's copy was flushed by the transition; host0's dirty
        // copy must survive untouched.
        assert!(
            !fab.hosts[1].caches.flush_line(local),
            "host1's copy should already have been flushed"
        );
        assert!(
            fab.hosts[0].caches.flush_line(local),
            "host0's dirty copy must not be collateral of dev1's flip"
        );
    }

    #[test]
    fn d2h_reads_the_owning_hosts_memory() {
        let mut fab = two_socket_fabric();
        let a = host_line(900);
        let before = (fab.hosts[0].mem.op_counts(), fab.hosts[1].mem.op_counts());
        fab.d2h(DeviceId(1), RequestType::NC_RD, a, Time::ZERO);
        assert_eq!(fab.hosts[0].mem.op_counts(), before.0, "host0 untouched");
        assert_ne!(
            fab.hosts[1].mem.op_counts(),
            before.1,
            "host1 served the read"
        );
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
        let c0 = fab.device_counters(DeviceId(0)).get("device.h2d.requests");
        let c1 = fab.device_counters(DeviceId(1)).get("device.h2d.requests");
        assert_eq!((c0, c1), (4, 4));
        assert_eq!(fab.counters().get("fabric.dev0.routed"), 4);
        assert_eq!(fab.counters().get("fabric.dev1.routed"), 4);
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
