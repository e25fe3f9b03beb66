//! The CXL Type-2 device: DCOH slice, device caches, device memory, and
//! the D2H / D2D / H2D request paths of §IV.
//!
//! The device consists of the components of the paper's Fig. 1: a memory
//! controller for device memory (2 × DDR4-2400), a Device COHerence engine
//! (DCOH) whose device cache is split into a 4-way 128 KiB *host memory
//! cache* (HMC) and a direct-mapped 32 KiB *device memory cache* (DMC), and
//! accelerator functional units that issue requests through the DCOH.
//!
//! The same hardware can be configured as a CXL Type-3 device (CXL.mem
//! only, no device cache) via [`CxlDevice::agilex7_type3`], which is the
//! comparison point of Fig. 5.

use cxl_proto::bias::BiasTable;
use cxl_proto::device_type::DeviceType;
use cxl_proto::link::{cxl_x16, Link};
use cxl_proto::request::{AccessKind, CacheHint, RequestType};
use host::hierarchy::HitLevel;
use host::socket::Socket;
use mem_subsys::coherence::MesiState;
use mem_subsys::dram::{DramTech, MemorySystem};
use mem_subsys::line::LineAddr;
use sim_core::port::PortSpec;
use sim_core::time::{Duration, Time};
use sim_core::trace::{self, BiasKind, CacheId, CounterRegistry, Lane, MemId, OpKind, TraceEvent};
use sim_core::traffic::FlowSpec;

use crate::addr::{device_byte_offset, device_local_index, is_device_addr};
use crate::dcoh::SliceArray;
use crate::timing::DeviceTiming;

/// Outcome of a device-initiated (D2H/D2D) access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceAccess {
    /// When the request completed from the issuer's perspective.
    pub completion: Time,
    /// True if the relevant device cache (HMC for D2H, DMC for D2D) held
    /// the line.
    pub device_cache_hit: bool,
    /// Whether the host LLC held the line, when the host was consulted.
    pub llc_hit: Option<bool>,
}

/// A host-initiated H2D instruction flavor (§IV-C / Fig. 5): the four
/// x86 access idioms the paper measures against device memory. All four
/// run through the single parameterized flow of [`CxlDevice::h2d`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum H2dOp {
    /// Temporal load (`ld`): allocates into the host hierarchy.
    Load,
    /// Non-temporal load (`nt-ld`): no host-cache allocation.
    NtLoad,
    /// Temporal store (`st`): write-allocates the line Modified.
    Store,
    /// Non-temporal store (`nt-st`): posted full-line write.
    NtStore,
}

impl H2dOp {
    /// All four flavors, in the order the paper's Fig. 5 plots them.
    pub const ALL: [H2dOp; 4] = [H2dOp::Load, H2dOp::NtLoad, H2dOp::Store, H2dOp::NtStore];

    /// The trace [`OpKind`] this flavor emits on its request event.
    pub(crate) fn trace_kind(self) -> OpKind {
        match self {
            H2dOp::Load => OpKind::Load,
            H2dOp::NtLoad => OpKind::NtLoad,
            H2dOp::Store => OpKind::Store,
            H2dOp::NtStore => OpKind::NtStore,
        }
    }

    /// True for the write flavors (`st`, `nt-st`).
    pub(crate) fn is_store(self) -> bool {
        matches!(self, H2dOp::Store | H2dOp::NtStore)
    }

    /// Display label (the paper's x86 mnemonic).
    pub fn label(self) -> &'static str {
        self.trace_kind().as_str()
    }
}

/// The trace [`OpKind`] a device [`RequestType`] maps to.
fn op_kind(req: RequestType) -> OpKind {
    match (req.hint(), req.kind()) {
        (CacheHint::NcPush, _) => OpKind::NcP,
        (CacheHint::Nc, AccessKind::Read) => OpKind::NcRd,
        (CacheHint::Nc, AccessKind::Write) => OpKind::NcWr,
        (CacheHint::CacheableOwned, AccessKind::Read) => OpKind::CoRd,
        (CacheHint::CacheableOwned, AccessKind::Write) => OpKind::CoWr,
        (CacheHint::CacheableShared, _) => OpKind::CsRd,
    }
}

/// The trace [`CacheId`] a host-hierarchy hit level maps to.
fn host_cache_id(level: HitLevel) -> CacheId {
    match level {
        HitLevel::L1 => CacheId::HostL1,
        HitLevel::L2 => CacheId::HostL2,
        _ => CacheId::HostLlc,
    }
}

/// The trace state a MESI state maps to.
fn line_state(s: MesiState) -> trace::LineState {
    match s {
        MesiState::Modified => trace::LineState::Modified,
        MesiState::Exclusive => trace::LineState::Exclusive,
        MesiState::Shared => trace::LineState::Shared,
        MesiState::Invalid => trace::LineState::Invalid,
    }
}

/// The Agilex-7 card modeled as a CXL Type-2 (or Type-3) device.
///
/// # Examples
///
/// ```
/// use cxl_type2::addr::host_line;
/// use cxl_type2::device::CxlDevice;
/// use cxl_proto::request::RequestType;
/// use host::socket::Socket;
/// use sim_core::time::Time;
///
/// let mut host = Socket::xeon_6538y();
/// let mut dev = CxlDevice::agilex7();
/// let a = host_line(0x40);
/// let acc = dev.d2h(RequestType::CS_RD, a, Time::ZERO, &mut host);
/// assert!(!acc.device_cache_hit); // cold HMC
/// let again = dev.d2h(RequestType::CS_RD, a, acc.completion, &mut host);
/// assert!(again.device_cache_hit); // CS-read allocated the line
/// ```
#[derive(Debug, Clone)]
pub struct CxlDevice {
    /// Timing constants.
    pub timing: DeviceTiming,
    device_type: DeviceType,
    dcoh: SliceArray,
    /// Device-attached memory channels.
    pub dev_mem: MemorySystem,
    /// Bias-mode table over device-memory byte offsets.
    pub bias: BiasTable,
    /// Device → host link direction (D2H requests, H2D responses).
    to_host: Link,
    /// Host → device link direction (H2D requests, D2H responses).
    to_device: Link,
    /// H2D ingress buffer: occupied slots' service-completion times. While
    /// slots remain, requests are admitted at link rate; a full buffer
    /// back-pressures to the pipeline's service rate (this is what makes
    /// nt-st bursts to dirty DMC lines slower, Fig. 5).
    ingress_slots: std::collections::VecDeque<Time>,
    /// Serialization point of the ingress pipeline's service stage.
    ingress_busy_until: Time,
    counts: Counts,
}

/// The device's event counts, each incremented where its event happens;
/// [`CxlDevice::counters`] names them.
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    d2h_requests: u64,
    d2d_requests: u64,
    h2d_requests: u64,
    hmc_writebacks: u64,
    dmc_writebacks: u64,
}

impl CxlDevice {
    /// The paper's Agilex-7 in CXL Type-2 configuration: 128 KiB 4-way HMC,
    /// 32 KiB direct-mapped DMC, 2 × DDR4-2400 device memory, CXL 1.1 over
    /// PCIe 5.0 ×16.
    pub fn agilex7() -> Self {
        Self::with_type(DeviceType::Type2, 1)
    }

    /// The Agilex-7 with `slices` DCOH slices (Fig. 1: "one or more
    /// instances"); cache capacity and lookup interleaving scale with the
    /// slice count.
    ///
    /// # Panics
    ///
    /// Panics if `slices` is zero.
    pub fn agilex7_with_slices(slices: usize) -> Self {
        Self::with_type(DeviceType::Type2, slices)
    }

    /// The same card configured as a CXL Type-3 device: no device cache,
    /// CXL.mem only (Fig. 5's comparison).
    pub fn agilex7_type3() -> Self {
        Self::with_type(DeviceType::Type3, 1)
    }

    fn with_type(device_type: DeviceType, slices: usize) -> Self {
        assert!(
            matches!(device_type, DeviceType::Type2 | DeviceType::Type3),
            "the Agilex-7 card models Type-2 or Type-3 operation"
        );
        CxlDevice {
            timing: DeviceTiming::default(),
            device_type,
            dcoh: SliceArray::new(slices),
            dev_mem: MemorySystem::new(DramTech::Ddr4_2400, 2, 32),
            bias: BiasTable::new(),
            to_host: cxl_x16(),
            to_device: cxl_x16(),
            ingress_slots: std::collections::VecDeque::new(),
            ingress_busy_until: Time::ZERO,
            counts: Counts::default(),
        }
    }

    /// Number of DCOH slices.
    pub(crate) fn slice_count(&self) -> usize {
        self.dcoh.slice_count()
    }

    /// The DCOH slice `addr` interleaves onto.
    pub fn slice_of(&self, addr: LineAddr) -> usize {
        self.dcoh.slice_of(addr)
    }

    // ---------------------------------------------------------------
    // Transaction ports
    // ---------------------------------------------------------------

    /// The LSU's issue port: the FPGA request window, one request per
    /// fabric cycle, with in-order retirement — the §V burst driver.
    pub fn lsu_port(&self) -> PortSpec {
        PortSpec::in_order(
            self.timing.lsu_max_outstanding,
            self.timing.lsu_issue_interval,
        )
    }

    /// The LSU window with out-of-order retirement — MSHR-style MLP for
    /// measured-contention bandwidth runs, where a fast completion frees
    /// its slot immediately instead of waiting behind an older miss.
    pub(crate) fn lsu_port_ooo(&self) -> PortSpec {
        PortSpec::out_of_order(
            self.timing.lsu_max_outstanding,
            self.timing.lsu_issue_interval,
        )
    }

    /// The port of one DCOH slice: it accepts overlapping H2D/D2H
    /// transactions up to its request-table depth, capped at `mlp`, and
    /// retires them out of order. A concurrent burst
    /// (`host::burst::run_concurrent`) runs one per slice, routing each
    /// address with [`CxlDevice::slice_of`]; a single slice serializes
    /// once its table fills.
    pub(crate) fn slice_port(&self, mlp: usize) -> PortSpec {
        PortSpec::out_of_order(
            self.timing.dcoh_slice_outstanding.min(mlp),
            self.timing.lsu_issue_interval,
        )
    }

    /// A traffic-subsystem flow named `name` issuing through the LSU
    /// request window with out-of-order retirement (MSHR semantics) — the
    /// device-initiated D2H/D2D initiator of measured-MLP runs.
    pub fn lsu_flow_ooo(&self, name: &'static str) -> FlowSpec {
        FlowSpec::bound(name, self.lsu_port_ooo())
    }

    /// A snapshot of the device's nonzero event counters, keyed under
    /// the `device.` hierarchy (`device.d2h.requests`,
    /// `device.hmc.writebacks`, …).
    pub fn counters(&self) -> CounterRegistry {
        let c = &self.counts;
        let mut r = CounterRegistry::new();
        for (name, n) in [
            ("device.d2h.requests", c.d2h_requests),
            ("device.d2d.requests", c.d2d_requests),
            ("device.h2d.requests", c.h2d_requests),
            ("device.hmc.writebacks", c.hmc_writebacks),
            ("device.dmc.writebacks", c.dmc_writebacks),
        ] {
            if n > 0 {
                r.add(name, n);
            }
        }
        r
    }

    /// The HMC state of a host-memory line (test/verification hook).
    pub fn hmc_state(&self, addr: LineAddr) -> Option<MesiState> {
        self.dcoh.hmc_probe(addr)
    }

    /// The DMC state of a device-memory line (test/verification hook).
    pub fn dmc_state(&self, addr: LineAddr) -> Option<MesiState> {
        self.dcoh.dmc_probe(addr)
    }

    /// Flushes both device caches (the methodology's between-runs reset),
    /// writing dirty victims back to their home memories.
    pub fn flush_device_caches(&mut self, now: Time, host: &mut Socket) {
        for v in self.dcoh.hmc_flush_all() {
            self.writeback_hmc_victim(v.addr, now, host);
        }
        for v in self.dcoh.dmc_flush_all() {
            self.writeback_dmc_victim(v.addr, now);
        }
    }

    fn writeback_dmc_victim(&mut self, addr: LineAddr, now: Time) {
        self.counts.dmc_writebacks += 1;
        trace::emit(
            now,
            TraceEvent::CacheWriteback {
                cache: CacheId::Dmc,
                addr: addr.index(),
            },
        );
        trace::emit(
            now,
            TraceEvent::MemWrite {
                mem: MemId::DevDram,
                addr: device_local_index(addr),
            },
        );
        let _ = self
            .dev_mem
            .write(LineAddr::new(device_local_index(addr)), now);
    }

    /// Prepares a device-memory region for device-bias operation: flushes
    /// the host-cache lines of the region (the software obligation of
    /// §IV-B) and switches the bias table. Returns the completion time of
    /// the preparation.
    pub fn enter_device_bias(
        &mut self,
        first: LineAddr,
        lines: u64,
        now: Time,
        host: &mut Socket,
    ) -> Time {
        assert!(
            is_device_addr(first),
            "device bias applies to device memory"
        );
        let mut t = now;
        for i in 0..lines {
            let addr = first.offset(i);
            // Flush the host-cache copy; dirty device-memory lines write
            // back over CXL into *device* memory, not host DRAM.
            let dirty = host.caches.flush_line(addr);
            t = t + host.timing.issue + host.timing.cacheline_op;
            if dirty {
                let arrive = self.to_device.deliver(t, 64);
                t = self.dev_mem_write(addr, arrive);
            }
        }
        let start = device_byte_offset(first);
        let end = start + lines * mem_subsys::line::LINE_BYTES;
        if !self.bias.switch_to_device_bias(start) {
            self.bias.define_region(start..end, BiasKind::DeviceBias);
        }
        trace::emit(
            t,
            TraceEvent::BiasSwitch {
                region_offset: start,
                to: BiasKind::DeviceBias,
            },
        );
        t
    }

    /// Returns a device-memory region to host bias: flushes the device's
    /// own dirty DMC copies of the range back to device memory (the
    /// symmetric software obligation of leaving device bias — the host
    /// must see current data once hardware coherence resumes) and
    /// switches the bias table. Returns the completion time.
    pub fn enter_host_bias(&mut self, first: LineAddr, lines: u64, now: Time) -> Time {
        assert!(is_device_addr(first), "host bias applies to device memory");
        let mut t = now;
        for i in 0..lines {
            let addr = first.offset(i);
            if let Some(state) = self.dcoh.dmc_probe(addr) {
                t += self.timing.dcoh_lookup;
                self.dcoh.dmc_invalidate(addr);
                if state.is_dirty() {
                    self.counts.dmc_writebacks += 1;
                    trace::emit(
                        t,
                        TraceEvent::CacheWriteback {
                            cache: CacheId::Dmc,
                            addr: addr.index(),
                        },
                    );
                    t = self.dev_mem_write(addr, t);
                }
            }
        }
        let start = device_byte_offset(first);
        self.bias.switch_to_host_bias(start);
        trace::emit(
            t,
            TraceEvent::BiasSwitch {
                region_offset: start,
                to: BiasKind::HostBias,
            },
        );
        t
    }

    fn penalty(&self) -> Duration {
        // Charged on the host side to CXL.cache-originated requests.
        Duration::ZERO
    }

    fn writeback_hmc_victim(&mut self, addr: LineAddr, now: Time, host: &mut Socket) {
        self.counts.hmc_writebacks += 1;
        trace::emit(
            now,
            TraceEvent::CacheWriteback {
                cache: CacheId::Hmc,
                addr: addr.index(),
            },
        );
        let arrive = self.to_host.deliver(now, 64);
        let _ = host.home_write_memory(addr, arrive, host.timing.cxl_agent_penalty);
    }

    fn fill_hmc(&mut self, addr: LineAddr, state: MesiState, now: Time, host: &mut Socket) {
        trace::emit(
            now,
            TraceEvent::CacheFill {
                cache: CacheId::Hmc,
                addr: addr.index(),
                state: line_state(state),
            },
        );
        if let Some(v) = self.dcoh.hmc_fill(addr, state) {
            if v.state.is_dirty() {
                self.writeback_hmc_victim(v.addr, now, host);
            }
        }
    }

    fn fill_dmc(&mut self, addr: LineAddr, state: MesiState, now: Time) {
        trace::emit(
            now,
            TraceEvent::CacheFill {
                cache: CacheId::Dmc,
                addr: addr.index(),
                state: line_state(state),
            },
        );
        if let Some(v) = self.dcoh.dmc_fill(addr, state) {
            if v.state.is_dirty() {
                self.writeback_dmc_victim(v.addr, now);
            }
        }
    }

    fn dev_mem_read(&mut self, addr: LineAddr, now: Time) -> Time {
        trace::emit(
            now,
            TraceEvent::MemRead {
                mem: MemId::DevDram,
                addr: device_local_index(addr),
            },
        );
        self.dev_mem
            .read(LineAddr::new(device_local_index(addr)), now)
    }

    fn dev_mem_write(&mut self, addr: LineAddr, now: Time) -> Time {
        trace::emit(
            now,
            TraceEvent::MemWrite {
                mem: MemId::DevDram,
                addr: device_local_index(addr),
            },
        );
        self.dev_mem
            .write(LineAddr::new(device_local_index(addr)), now)
    }

    // ===============================================================
    // D2H: device accelerator → host memory (§IV-A, Table III, Fig. 3)
    // ===============================================================

    /// Issues a D2H request from the device accelerator to host memory.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is a device-memory address (use [`Self::d2d`]) or
    /// if the device is configured as Type-3 (no CXL.cache; D2H requires a
    /// Type-2 device).
    pub fn d2h(
        &mut self,
        req: RequestType,
        addr: LineAddr,
        now: Time,
        host: &mut Socket,
    ) -> DeviceAccess {
        assert!(!is_device_addr(addr), "D2H targets host memory; got {addr}");
        assert_eq!(
            self.device_type,
            DeviceType::Type2,
            "D2H requires CXL.cache (Type-2 operation)"
        );
        self.counts.d2h_requests += 1;
        trace::emit(
            now,
            TraceEvent::Request {
                lane: Lane::D2h,
                op: op_kind(req),
                addr: addr.index(),
            },
        );
        let penalty = host.timing.cxl_agent_penalty + self.penalty();
        let t = now + self.timing.dcoh_lookup;
        match (req.hint(), req.kind()) {
            // NC-P: update HMC, push the line into host LLC, invalidate the
            // HMC copy (Table III: HMC Invalid, LLC Modified).
            (CacheHint::NcPush, _) => {
                let hmc_hit = self.dcoh.hmc_lookup(addr).is_some();
                trace::emit(
                    t,
                    TraceEvent::CacheAccess {
                        cache: CacheId::Hmc,
                        addr: addr.index(),
                        hit: hmc_hit,
                    },
                );
                // For device-memory sources (the Fig. 5 prefetch use), the
                // data is read from device memory first.
                let data_ready = t + self.timing.hmc_access;
                let arrive = self.to_host.deliver(data_ready, 64);
                let h = host.home_push_llc(addr, arrive, penalty);
                if self.dcoh.hmc_invalidate(addr).is_some() {
                    trace::emit(
                        t,
                        TraceEvent::CacheInvalidate {
                            cache: CacheId::Hmc,
                            addr: addr.index(),
                        },
                    );
                }
                let ack = self.to_device.deliver(h.completion, 0);
                DeviceAccess {
                    completion: ack,
                    device_cache_hit: hmc_hit,
                    llc_hit: Some(true),
                }
            }
            // NC-read (RdCurr): HMC hit serves locally with no state
            // change; otherwise data from LLC/memory without HMC
            // allocation (Table III: no change / no change).
            (CacheHint::Nc, AccessKind::Read) => {
                let hmc_hit = self.dcoh.hmc_lookup(addr).is_some();
                trace::emit(
                    t,
                    TraceEvent::CacheAccess {
                        cache: CacheId::Hmc,
                        addr: addr.index(),
                        hit: hmc_hit,
                    },
                );
                if hmc_hit {
                    return DeviceAccess {
                        completion: t + self.timing.hmc_access,
                        device_cache_hit: true,
                        llc_hit: None,
                    };
                }
                let arrive = self.to_host.deliver(t, 0);
                let h = host.home_read_current(addr, arrive, penalty);
                let data = self.to_device.deliver(h.completion, 64);
                DeviceAccess {
                    completion: data,
                    device_cache_hit: false,
                    llc_hit: Some(h.llc_hit),
                }
            }
            // NC-write (WrCur): invalidate HMC and LLC copies, write host
            // memory directly (Table III: Invalid / Invalid). Posted:
            // completes on host write-queue admission.
            (CacheHint::Nc, AccessKind::Write) => {
                let hmc_hit = self.dcoh.hmc_invalidate(addr).is_some();
                trace::emit(
                    t,
                    TraceEvent::CacheAccess {
                        cache: CacheId::Hmc,
                        addr: addr.index(),
                        hit: hmc_hit,
                    },
                );
                if hmc_hit {
                    trace::emit(
                        t,
                        TraceEvent::CacheInvalidate {
                            cache: CacheId::Hmc,
                            addr: addr.index(),
                        },
                    );
                }
                let arrive = self.to_host.deliver(t, 64);
                let h = host.home_write_memory(addr, arrive, penalty);
                DeviceAccess {
                    completion: h.completion,
                    device_cache_hit: hmc_hit,
                    llc_hit: Some(h.llc_hit),
                }
            }
            // CO-read (RdOwn): exclusive ownership into HMC; host copies
            // invalidated (Table III: M/E→M/E, S→E / E-or-M / Exclusive;
            // LLC Invalid).
            (CacheHint::CacheableOwned, AccessKind::Read) => {
                let hmc_state = self.dcoh.hmc_lookup(addr);
                trace::emit(
                    t,
                    TraceEvent::CacheAccess {
                        cache: CacheId::Hmc,
                        addr: addr.index(),
                        hit: hmc_state.is_some(),
                    },
                );
                match hmc_state {
                    Some(MesiState::Modified) | Some(MesiState::Exclusive) => DeviceAccess {
                        completion: t + self.timing.hmc_access,
                        device_cache_hit: true,
                        llc_hit: None,
                    },
                    Some(_) => {
                        // Shared → Exclusive upgrade: invalidate host copies.
                        let arrive = self.to_host.deliver(t, 0);
                        let h = host.home_read_own(addr, arrive, penalty);
                        let ack = self.to_device.deliver(h.completion, 0);
                        self.dcoh.hmc_set_state(addr, MesiState::Exclusive);
                        trace::emit(
                            ack,
                            TraceEvent::CacheState {
                                cache: CacheId::Hmc,
                                addr: addr.index(),
                                state: trace::LineState::Exclusive,
                            },
                        );
                        DeviceAccess {
                            completion: ack,
                            device_cache_hit: true,
                            llc_hit: Some(h.llc_hit),
                        }
                    }
                    None => {
                        // Table III: the HMC fill follows the original LLC
                        // state (Modified stays Modified).
                        let prior = host.caches.llc_state(addr);
                        let arrive = self.to_host.deliver(t, 0);
                        let h = host.home_read_own(addr, arrive, penalty);
                        let data = self.to_device.deliver(h.completion, 64);
                        let state = if prior == Some(MesiState::Modified) {
                            MesiState::Modified
                        } else {
                            MesiState::Exclusive
                        };
                        self.fill_hmc(addr, state, data, host);
                        DeviceAccess {
                            completion: data + self.timing.dcoh_fill,
                            device_cache_hit: false,
                            llc_hit: Some(h.llc_hit),
                        }
                    }
                }
            }
            // CO-write: ownership + write into HMC (Table III: HMC
            // Modified, LLC Invalid).
            (CacheHint::CacheableOwned, AccessKind::Write) => {
                let hmc_state = self.dcoh.hmc_lookup(addr);
                trace::emit(
                    t,
                    TraceEvent::CacheAccess {
                        cache: CacheId::Hmc,
                        addr: addr.index(),
                        hit: hmc_state.is_some(),
                    },
                );
                match hmc_state {
                    Some(MesiState::Modified) | Some(MesiState::Exclusive) => {
                        self.dcoh.hmc_set_state(addr, MesiState::Modified);
                        trace::emit(
                            t,
                            TraceEvent::CacheState {
                                cache: CacheId::Hmc,
                                addr: addr.index(),
                                state: trace::LineState::Modified,
                            },
                        );
                        DeviceAccess {
                            completion: t + self.timing.hmc_access,
                            device_cache_hit: true,
                            llc_hit: None,
                        }
                    }
                    prior_hmc => {
                        // Shared upgrade or miss: fetch ownership (with
                        // data — the ACC may write a partial line).
                        let hmc_hit = prior_hmc.is_some();
                        let arrive = self.to_host.deliver(t, 0);
                        let h = host.home_read_own(addr, arrive, penalty);
                        let data = self.to_device.deliver(h.completion, 64);
                        self.fill_hmc(addr, MesiState::Modified, data, host);
                        DeviceAccess {
                            completion: data + self.timing.dcoh_fill,
                            device_cache_hit: hmc_hit,
                            llc_hit: Some(h.llc_hit),
                        }
                    }
                }
            }
            // CS-read (RdShared): like NC-read but allocates in HMC in
            // Shared (Table III: HMC Shared; LLC no change, I/S on miss).
            (CacheHint::CacheableShared, _) => {
                let hmc_state = self.dcoh.hmc_lookup(addr);
                trace::emit(
                    t,
                    TraceEvent::CacheAccess {
                        cache: CacheId::Hmc,
                        addr: addr.index(),
                        hit: hmc_state.is_some(),
                    },
                );
                if let Some(state) = hmc_state {
                    if state.is_dirty() {
                        // Degrading a dirty HMC line to Shared publishes it.
                        self.writeback_hmc_victim(addr, t, host);
                    }
                    self.dcoh.hmc_set_state(addr, MesiState::Shared);
                    trace::emit(
                        t,
                        TraceEvent::CacheState {
                            cache: CacheId::Hmc,
                            addr: addr.index(),
                            state: trace::LineState::Shared,
                        },
                    );
                    return DeviceAccess {
                        completion: t + self.timing.hmc_access,
                        device_cache_hit: true,
                        llc_hit: None,
                    };
                }
                let arrive = self.to_host.deliver(t, 0);
                let h = host.home_read_shared(addr, arrive, penalty);
                let data = self.to_device.deliver(h.completion, 64);
                self.fill_hmc(addr, MesiState::Shared, data, host);
                DeviceAccess {
                    completion: data + self.timing.dcoh_fill,
                    device_cache_hit: false,
                    llc_hit: Some(h.llc_hit),
                }
            }
        }
    }

    // ===============================================================
    // D2D: device accelerator → device memory (§IV-B, Fig. 4)
    // ===============================================================

    /// Issues a D2D request from the device accelerator to device memory.
    ///
    /// In host-bias mode DCOH keeps hardware coherence with the host; in
    /// device-bias mode (or Type-3 operation) it accesses DMC/device memory
    /// directly and requests carry no coherence semantics.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is a host-memory address or `req` is NC-P (the
    /// push hint targets host LLC and is not defined for D2D).
    pub fn d2d(
        &mut self,
        req: RequestType,
        addr: LineAddr,
        now: Time,
        host: &mut Socket,
    ) -> DeviceAccess {
        assert!(
            is_device_addr(addr),
            "D2D targets device memory; got {addr}"
        );
        assert!(
            req.hint() != CacheHint::NcPush,
            "NC-P is not defined for D2D accesses"
        );
        self.counts.d2d_requests += 1;
        trace::emit(
            now,
            TraceEvent::Request {
                lane: Lane::D2d,
                op: op_kind(req),
                addr: addr.index(),
            },
        );
        let mode = if self.device_type == DeviceType::Type3 {
            // Type-3 AFUs access device memory without coherence.
            BiasKind::DeviceBias
        } else {
            self.bias.mode_of(device_byte_offset(addr))
        };
        let t = now + self.timing.dcoh_lookup;
        match mode {
            BiasKind::DeviceBias => self.d2d_device_bias(req, addr, t),
            BiasKind::HostBias => self.d2d_host_bias(req, addr, t, host),
        }
    }

    /// Device-bias D2D: no host coherence check; hints degrade to plain
    /// cacheable/non-cacheable accesses (§IV-B "implications").
    fn d2d_device_bias(&mut self, req: RequestType, addr: LineAddr, t: Time) -> DeviceAccess {
        match (req.hint(), req.kind()) {
            // NC-read: serve from DMC or device memory, no allocation.
            (CacheHint::Nc, AccessKind::Read) => {
                let hit = self.dcoh.dmc_lookup(addr).is_some();
                trace::emit(
                    t,
                    TraceEvent::CacheAccess {
                        cache: CacheId::Dmc,
                        addr: addr.index(),
                        hit,
                    },
                );
                if hit {
                    DeviceAccess {
                        completion: t + self.timing.dmc_access,
                        device_cache_hit: true,
                        llc_hit: None,
                    }
                } else {
                    DeviceAccess {
                        completion: self.dev_mem_read(addr, t),
                        device_cache_hit: false,
                        llc_hit: None,
                    }
                }
            }
            // CO-read and CS-read both perform a cacheable read.
            (_, AccessKind::Read) => {
                let hit = self.dcoh.dmc_lookup(addr).is_some();
                trace::emit(
                    t,
                    TraceEvent::CacheAccess {
                        cache: CacheId::Dmc,
                        addr: addr.index(),
                        hit,
                    },
                );
                if hit {
                    DeviceAccess {
                        completion: t + self.timing.dmc_access,
                        device_cache_hit: true,
                        llc_hit: None,
                    }
                } else {
                    let data = self.dev_mem_read(addr, t);
                    self.fill_dmc(addr, MesiState::Exclusive, data);
                    DeviceAccess {
                        completion: data + self.timing.dcoh_fill,
                        device_cache_hit: false,
                        llc_hit: None,
                    }
                }
            }
            // NC-write: invalidate DMC, write device memory (posted; the
            // fabric traversal to the MC is still paid).
            (CacheHint::Nc, AccessKind::Write) => {
                let hit = self.dcoh.dmc_invalidate(addr).is_some();
                trace::emit(
                    t,
                    TraceEvent::CacheAccess {
                        cache: CacheId::Dmc,
                        addr: addr.index(),
                        hit,
                    },
                );
                if hit {
                    trace::emit(
                        t,
                        TraceEvent::CacheInvalidate {
                            cache: CacheId::Dmc,
                            addr: addr.index(),
                        },
                    );
                }
                let fabric = t + self.timing.dmc_access;
                DeviceAccess {
                    completion: self.dev_mem_write(addr, fabric),
                    device_cache_hit: hit,
                    llc_hit: None,
                }
            }
            // CO-write: cacheable write into DMC.
            (_, AccessKind::Write) => {
                let hit = self.dcoh.dmc_lookup(addr).is_some();
                trace::emit(
                    t,
                    TraceEvent::CacheAccess {
                        cache: CacheId::Dmc,
                        addr: addr.index(),
                        hit,
                    },
                );
                self.fill_dmc(addr, MesiState::Modified, t);
                DeviceAccess {
                    completion: t + self.timing.dmc_access,
                    device_cache_hit: hit,
                    llc_hit: None,
                }
            }
        }
    }

    /// Host-bias D2D: same coherence semantics as D2H, with the host
    /// snooped when the DMC cannot prove the line is host-clean.
    fn d2d_host_bias(
        &mut self,
        req: RequestType,
        addr: LineAddr,
        t: Time,
        host: &mut Socket,
    ) -> DeviceAccess {
        let penalty = host.timing.cxl_agent_penalty;
        match (req.hint(), req.kind()) {
            (_, AccessKind::Read) => {
                // A valid DMC line is coherent: reads hit without the LLC
                // check (§V-B explains why NC/CS reads match device-bias
                // latency on DMC hits).
                if let Some(_state) = self.dcoh.dmc_lookup(addr) {
                    if req.hint() == CacheHint::CacheableShared {
                        self.dcoh.dmc_set_state(addr, MesiState::Shared);
                    }
                    return DeviceAccess {
                        completion: t + self.timing.dmc_access,
                        device_cache_hit: true,
                        llc_hit: None,
                    };
                }
                // DMC miss: check whether the host modified the line
                // before reading device memory.
                let arrive = self.to_host.deliver(t, 0);
                let snoop = match req.hint() {
                    CacheHint::Nc => host.snoop_current(addr, arrive, penalty),
                    _ => host.snoop_shared(addr, arrive, penalty),
                };
                let resp = self
                    .to_device
                    .deliver(snoop.completion, if snoop.hit { 64 } else { 0 });
                let (data_ready, fill_state) = if snoop.was_dirty {
                    // Host forwarded the modified data; keep DMC coherent
                    // and publish the line to device memory.
                    let _ = self.dev_mem_write(addr, resp);
                    (resp, MesiState::Shared)
                } else {
                    (self.dev_mem_read(addr, resp), MesiState::Shared)
                };
                if req.hint() != CacheHint::Nc {
                    self.fill_dmc(addr, fill_state, data_ready);
                    return DeviceAccess {
                        completion: data_ready + self.timing.dcoh_fill,
                        device_cache_hit: false,
                        llc_hit: Some(snoop.hit),
                    };
                }
                DeviceAccess {
                    completion: data_ready,
                    device_cache_hit: false,
                    llc_hit: Some(snoop.hit),
                }
            }
            (_, AccessKind::Write) => {
                // Writes must invalidate any host copies (even Shared ones)
                // before the device may own the line.
                let dmc_hit = self.dcoh.dmc_probe(addr).is_some();
                let host_clean = matches!(
                    self.dcoh.dmc_probe(addr),
                    Some(MesiState::Modified | MesiState::Exclusive)
                );
                let t = if host_clean {
                    // Device already owns the line exclusively: no snoop.
                    t
                } else {
                    let arrive = self.to_host.deliver(t, 0);
                    let snoop = host.snoop_invalidate(addr, arrive, penalty);
                    if snoop.was_dirty {
                        // Merge the host's modified data before overwriting.
                        let _ = self.dev_mem_write(addr, snoop.completion);
                    }
                    self.to_device.deliver(snoop.completion, 0)
                };
                match req.hint() {
                    CacheHint::Nc => {
                        let _ = self.dcoh.dmc_invalidate(addr);
                        DeviceAccess {
                            completion: self.dev_mem_write(addr, t),
                            device_cache_hit: dmc_hit,
                            llc_hit: None,
                        }
                    }
                    _ => {
                        self.fill_dmc(addr, MesiState::Modified, t);
                        DeviceAccess {
                            completion: t + self.timing.dmc_access,
                            device_cache_hit: dmc_hit,
                            llc_hit: None,
                        }
                    }
                }
            }
        }
    }

    // ===============================================================
    // H2D: host CPU → device memory (§IV-C, Fig. 5)
    // ===============================================================

    fn h2d_device_side(&mut self, addr: LineAddr, arrive: Time, for_write: bool) -> Time {
        let mut t = arrive + self.timing.h2d_processing;
        if self.device_type == DeviceType::Type2 {
            // The Type-2 penalty: DCOH always checks/updates the DMC
            // coherence state before touching device memory (§V-C).
            t += self.timing.h2d_dmc_check;
            match self.dcoh.dmc_probe(addr) {
                Some(MesiState::Modified) => {
                    // Write back the dirty device-cache line first.
                    trace::emit(
                        t,
                        TraceEvent::CacheWriteback {
                            cache: CacheId::Dmc,
                            addr: addr.index(),
                        },
                    );
                    let wb = self.dev_mem_write(addr, t);
                    t = wb.max(t) + self.timing.h2d_dirty_writeback;
                    self.counts.dmc_writebacks += 1;
                    let next = if for_write {
                        MesiState::Invalid
                    } else {
                        MesiState::Shared
                    };
                    trace::emit(
                        t,
                        TraceEvent::CacheState {
                            cache: CacheId::Dmc,
                            addr: addr.index(),
                            state: line_state(next),
                        },
                    );
                    self.dcoh.dmc_set_state(addr, next);
                }
                Some(MesiState::Exclusive) => {
                    t += self.timing.h2d_state_downgrade;
                    let next = if for_write {
                        MesiState::Invalid
                    } else {
                        MesiState::Shared
                    };
                    trace::emit(
                        t,
                        TraceEvent::CacheState {
                            cache: CacheId::Dmc,
                            addr: addr.index(),
                            state: line_state(next),
                        },
                    );
                    self.dcoh.dmc_set_state(addr, next);
                }
                Some(_) if for_write => {
                    trace::emit(
                        t,
                        TraceEvent::CacheInvalidate {
                            cache: CacheId::Dmc,
                            addr: addr.index(),
                        },
                    );
                    self.dcoh.dmc_invalidate(addr);
                }
                _ => {}
            }
        }
        t
    }

    /// The extra pipeline occupancy an H2D request to `addr` will incur
    /// for DMC maintenance, judged from the current DMC state.
    fn h2d_occupancy(&self, addr: LineAddr) -> Duration {
        let mut occ = self.timing.h2d_ingress_occupancy;
        if self.device_type == DeviceType::Type2 {
            match self.dcoh.dmc_probe(addr) {
                Some(MesiState::Modified) => occ += self.timing.h2d_dirty_writeback,
                Some(MesiState::Exclusive) => occ += self.timing.h2d_state_downgrade,
                _ => {}
            }
        }
        occ
    }

    /// Admits an H2D request arriving on the link at `arrival` into the
    /// ingress buffer; returns the admission time (= producer-visible
    /// acceptance for posted writes).
    fn ingress_admit(&mut self, arrival: Time, occupancy: Duration) -> Time {
        while let Some(&front) = self.ingress_slots.front() {
            if front <= arrival {
                self.ingress_slots.pop_front();
            } else {
                break;
            }
        }
        let admitted = if self.ingress_slots.len() < self.timing.h2d_ingress_entries {
            arrival
        } else {
            let front = self
                .ingress_slots
                .pop_front()
                .expect("full buffer has a head");
            arrival.max(front)
        };
        let done = self.ingress_busy_until.max(admitted) + occupancy;
        self.ingress_busy_until = done;
        self.ingress_slots.push_back(done);
        admitted
    }

    /// Emits the bias-flip event (device→host bias, §IV-B) if this H2D
    /// access exits device bias, then records the access in the table.
    fn h2d_touch_bias(&mut self, addr: LineAddr, at: Time) {
        let off = device_byte_offset(addr);
        if self.bias.mode_of(off) == BiasKind::DeviceBias {
            trace::emit(
                at,
                TraceEvent::BiasSwitch {
                    region_offset: off,
                    to: BiasKind::HostBias,
                },
            );
        }
        self.bias.on_h2d_access(off);
    }

    /// Host temporal load (`ld`) from device memory.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not a device-memory address.
    pub fn h2d_load(&mut self, addr: LineAddr, now: Time, host: &mut Socket) -> DeviceAccess {
        self.h2d(H2dOp::Load, addr, now, host)
    }

    /// Host non-temporal load (`nt-ld`): no host-cache allocation.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not a device-memory address.
    pub fn h2d_nt_load(&mut self, addr: LineAddr, now: Time, host: &mut Socket) -> DeviceAccess {
        self.h2d(H2dOp::NtLoad, addr, now, host)
    }

    /// Host temporal store (`st`): write-allocates the device line into the
    /// host hierarchy in Modified state.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not a device-memory address.
    pub fn h2d_store(&mut self, addr: LineAddr, now: Time, host: &mut Socket) -> DeviceAccess {
        self.h2d(H2dOp::Store, addr, now, host)
    }

    /// Host non-temporal store (`nt-st`): posted; the core perceives
    /// completion when the write reaches the CXL controller (§V-C).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not a device-memory address.
    pub fn h2d_nt_store(&mut self, addr: LineAddr, now: Time, host: &mut Socket) -> DeviceAccess {
        self.h2d(H2dOp::NtStore, addr, now, host)
    }

    /// The single H2D transaction flow, parameterized by [`H2dOp`].
    ///
    /// All four host-initiated instruction flavors share one pipeline —
    /// host-cache probe, bias touch, CXL.mem link, ingress-buffer
    /// admission, DMC coherence check, device DRAM — and differ only in
    /// allocation policy (temporal ops touch the host hierarchy),
    /// direction (stores write-allocate or post), and completion point
    /// (`nt-st` retires at ingress admission, everything else at the
    /// response).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not a device-memory address.
    pub fn h2d(&mut self, op: H2dOp, addr: LineAddr, now: Time, host: &mut Socket) -> DeviceAccess {
        assert!(
            is_device_addr(addr),
            "H2D targets device memory; got {addr}"
        );
        self.counts.h2d_requests += 1;
        trace::emit(
            now,
            TraceEvent::Request {
                lane: Lane::H2d,
                op: op.trace_kind(),
                addr: addr.index(),
            },
        );
        let issue = now + host.timing.issue;
        // CXL memory is cached in the host hierarchy like remote-NUMA
        // memory; NC-P prefetches (Insight 4) hit here. nt-st is the one
        // flavor that never checks: a full-line overwrite just drops any
        // cached host copy.
        match op {
            H2dOp::Load | H2dOp::NtLoad => {
                if let Some((level, _)) = host.caches.probe(addr) {
                    if op == H2dOp::Load {
                        let (lvl, _) = host.caches.touch_load_with_victims(addr);
                        debug_assert_eq!(lvl, level);
                    }
                    trace::emit(
                        issue,
                        TraceEvent::CacheAccess {
                            cache: host_cache_id(level),
                            addr: addr.index(),
                            hit: true,
                        },
                    );
                    let completion = match level {
                        HitLevel::L1 => issue + host.timing.l1,
                        HitLevel::L2 => issue + host.timing.l2,
                        HitLevel::Llc => issue + host.timing.llc,
                        HitLevel::Memory => unreachable!("probe said the line is cached"),
                    };
                    return DeviceAccess {
                        completion,
                        device_cache_hit: false,
                        llc_hit: Some(true),
                    };
                }
            }
            H2dOp::Store => {
                if host.caches.probe(addr).is_some() {
                    let (level, _) = host.caches.touch_store(addr);
                    trace::emit(
                        issue,
                        TraceEvent::CacheAccess {
                            cache: host_cache_id(level),
                            addr: addr.index(),
                            hit: true,
                        },
                    );
                    let completion = match level {
                        HitLevel::L1 => issue + host.timing.l1,
                        HitLevel::L2 => issue + host.timing.l2,
                        _ => issue + host.timing.llc,
                    } + host.timing.store_commit;
                    return DeviceAccess {
                        completion,
                        device_cache_hit: false,
                        llc_hit: Some(true),
                    };
                }
            }
            H2dOp::NtStore => {
                host.caches.invalidate(addr);
            }
        }
        if op != H2dOp::NtStore {
            trace::emit(
                issue,
                TraceEvent::CacheAccess {
                    cache: CacheId::HostLlc,
                    addr: addr.index(),
                    hit: false,
                },
            );
        }
        self.h2d_touch_bias(addr, issue);
        // Posted nt-st pushes the full line immediately; the other flavors
        // pay an LLC lookup before a header-only request crosses the link.
        let link = match op {
            H2dOp::NtStore => self.to_device.deliver(issue, 64),
            _ => self.to_device.deliver(issue + host.timing.llc_lookup, 0),
        };
        let occupancy = self.h2d_occupancy(addr);
        let arrive = self.ingress_admit(link, occupancy);
        let dmc_hit = self.device_type == DeviceType::Type2 && self.dcoh.dmc_probe(addr).is_some();
        let t = self.h2d_device_side(addr, arrive, op.is_store());
        if op == H2dOp::NtStore {
            // A buffer kept busy by dirty-DMC write-backs back-pressures
            // the link; the core perceives completion at admission.
            let _ = self.dev_mem_write(addr, t);
            return DeviceAccess {
                completion: arrive,
                device_cache_hit: dmc_hit,
                llc_hit: Some(false),
            };
        }
        // Loads fetch the line; `st` write-allocates (fetch, then the host
        // owns it Modified).
        let data = self.dev_mem_read(addr, t);
        let back = self.to_host.deliver(data, 64);
        let completion = match op {
            H2dOp::Load => {
                host.caches.touch_load_with_victims(addr);
                back
            }
            H2dOp::NtLoad => back,
            H2dOp::Store => {
                host.caches.touch_store(addr);
                back + host.timing.store_commit
            }
            H2dOp::NtStore => unreachable!("posted path returned above"),
        };
        DeviceAccess {
            completion,
            device_cache_hit: dmc_hit,
            llc_hit: Some(false),
        }
    }

    /// NC-P from device memory: reads a device-memory line and pushes it
    /// into host LLC in Modified state — the Insight-4 prefetch that lets
    /// subsequent host loads hit the LLC instead of crossing CXL (the
    /// lighter DMC-0 bars of Fig. 5, and step ⑤ of the cxl-zswap
    /// decompression flow).
    ///
    /// Returns the completion time of the push (host-LLC fill
    /// acknowledged).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not a device-memory address or the device is
    /// configured as Type-3 (NC-P needs CXL.cache).
    pub fn d2h_push_from_device(&mut self, addr: LineAddr, now: Time, host: &mut Socket) -> Time {
        assert!(
            is_device_addr(addr),
            "push-from-device sources device memory; got {addr}"
        );
        assert_eq!(
            self.device_type,
            DeviceType::Type2,
            "NC-P requires CXL.cache (Type-2 operation)"
        );
        self.counts.d2h_requests += 1;
        trace::emit(
            now,
            TraceEvent::Request {
                lane: Lane::D2h,
                op: OpKind::NcP,
                addr: addr.index(),
            },
        );
        let t = now + self.timing.dcoh_lookup;
        // Source the data: DMC if valid, device memory otherwise.
        let dmc_hit = self.dcoh.dmc_lookup(addr).is_some();
        trace::emit(
            t,
            TraceEvent::CacheAccess {
                cache: CacheId::Dmc,
                addr: addr.index(),
                hit: dmc_hit,
            },
        );
        let data_ready = if dmc_hit {
            t + self.timing.dmc_access
        } else {
            self.dev_mem_read(addr, t)
        };
        let arrive = self.to_host.deliver(data_ready, 64);
        let h = host.home_push_llc(addr, arrive, host.timing.cxl_agent_penalty);
        self.to_device.deliver(h.completion, 0)
    }

    /// Accepts a dirty device-memory line written back from the host
    /// cache: one CXL data transfer plus a device-memory write. Returns
    /// the durable-completion time.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not a device-memory address.
    pub(crate) fn writeback_device_line(&mut self, addr: LineAddr, now: Time) -> Time {
        assert!(
            is_device_addr(addr),
            "device write-back targets device memory; got {addr}"
        );
        let arrive = self.to_device.deliver(now, 64);
        self.dev_mem_write(addr, arrive)
    }

    /// Brings a device-memory line into the DMC in the given state via a
    /// background D2D fill — a test/staging hook used by the benchmarks to
    /// construct the DMC-hit cases of Fig. 5.
    pub fn stage_dmc(&mut self, addr: LineAddr, state: MesiState) {
        assert!(is_device_addr(addr), "DMC caches device memory; got {addr}");
        assert!(state.is_valid(), "staging requires a valid state");
        self.fill_dmc(addr, state, Time::ZERO);
    }

    /// Writes a dirty HMC line back to host memory and degrades it to
    /// Shared (the response to a host read snoop hitting a Modified HMC
    /// line).
    pub(crate) fn writeback_and_degrade(&mut self, addr: LineAddr, now: Time, host: &mut Socket) {
        if self.dcoh.hmc_probe(addr).is_some_and(|s| s.is_dirty()) {
            self.writeback_hmc_victim(addr, now, host);
            self.dcoh.hmc_set_state(addr, MesiState::Shared);
        }
    }

    /// Degrades an HMC line to Shared (host read snoop on a clean line).
    pub(crate) fn degrade_hmc(&mut self, addr: LineAddr) {
        if self.dcoh.hmc_probe(addr).is_some() {
            self.dcoh.hmc_set_state(addr, MesiState::Shared);
        }
    }

    /// Drops an HMC line (host write snoop); the caller handles any dirty
    /// write-back first via [`Self::writeback_and_degrade`].
    pub(crate) fn invalidate_hmc(&mut self, addr: LineAddr) {
        self.dcoh.hmc_invalidate(addr);
    }

    /// Brings a host-memory line into the HMC in the given state — the
    /// staging hook for Fig. 3's HMC-hit cases.
    pub fn stage_hmc(&mut self, addr: LineAddr, state: MesiState, host: &mut Socket) {
        assert!(!is_device_addr(addr), "HMC caches host memory; got {addr}");
        assert!(state.is_valid(), "staging requires a valid state");
        self.fill_hmc(addr, state, Time::ZERO, host);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{device_line, host_line};

    fn setup() -> (Socket, CxlDevice) {
        (Socket::xeon_6538y(), CxlDevice::agilex7())
    }

    /// Stage the LLC-hit case of the methodology: host core touches the
    /// line and CLDEMOTEs it so it resides only in the LLC (Shared here).
    fn stage_llc_shared(host: &mut Socket, addr: LineAddr) {
        host.load(addr, Time::ZERO);
        host.cldemote(addr, Time::ZERO);
        host.caches.degrade_to_shared(addr);
    }

    fn stage_llc_modified(host: &mut Socket, addr: LineAddr) {
        host.store(addr, Time::ZERO);
        host.cldemote(addr, Time::ZERO);
    }

    // ----- Table III: coherence states after D2H accesses -----

    #[test]
    fn table3_ncp_hmc_invalid_llc_modified() {
        let (mut host, mut dev) = setup();
        let a = host_line(10);
        dev.stage_hmc(a, MesiState::Shared, &mut host);
        dev.d2h(RequestType::NC_P, a, Time::ZERO, &mut host);
        assert_eq!(dev.hmc_state(a), None, "HMC line invalidated");
        assert_eq!(
            host.caches.llc_state(a),
            Some(MesiState::Modified),
            "LLC line Modified"
        );
    }

    #[test]
    fn table3_nc_read_no_change() {
        let (mut host, mut dev) = setup();
        let a = host_line(11);
        stage_llc_shared(&mut host, a);
        dev.stage_hmc(a, MesiState::Shared, &mut host);
        dev.d2h(RequestType::NC_RD, a, Time::ZERO, &mut host);
        assert_eq!(dev.hmc_state(a), Some(MesiState::Shared), "HMC unchanged");
        assert_eq!(
            host.caches.llc_state(a),
            Some(MesiState::Shared),
            "LLC unchanged"
        );
        // Miss case: no HMC allocation.
        let b = host_line(12);
        dev.d2h(RequestType::NC_RD, b, Time::ZERO, &mut host);
        assert_eq!(dev.hmc_state(b), None, "NC-read does not allocate");
    }

    #[test]
    fn table3_nc_write_invalidates_both() {
        let (mut host, mut dev) = setup();
        let a = host_line(13);
        stage_llc_shared(&mut host, a);
        dev.stage_hmc(a, MesiState::Shared, &mut host);
        let (_, w0) = host.mem.op_counts();
        dev.d2h(RequestType::NC_WR, a, Time::ZERO, &mut host);
        assert_eq!(dev.hmc_state(a), None, "HMC Invalid");
        assert_eq!(host.caches.llc_state(a), None, "LLC Invalid");
        assert!(host.mem.op_counts().1 > w0, "host memory written directly");
    }

    #[test]
    fn table3_co_read_states() {
        let (mut host, mut dev) = setup();
        // HMC hit M/E -> unchanged.
        let a = host_line(14);
        dev.stage_hmc(a, MesiState::Exclusive, &mut host);
        dev.d2h(RequestType::CO_RD, a, Time::ZERO, &mut host);
        assert_eq!(dev.hmc_state(a), Some(MesiState::Exclusive));
        // HMC hit S -> E, LLC invalidated.
        let b = host_line(15);
        stage_llc_shared(&mut host, b);
        dev.stage_hmc(b, MesiState::Shared, &mut host);
        dev.d2h(RequestType::CO_RD, b, Time::ZERO, &mut host);
        assert_eq!(dev.hmc_state(b), Some(MesiState::Exclusive));
        assert_eq!(host.caches.llc_state(b), None, "LLC Invalid after CO-rd");
        // LLC hit M -> HMC follows original state (Modified).
        let c = host_line(16);
        stage_llc_modified(&mut host, c);
        dev.d2h(RequestType::CO_RD, c, Time::ZERO, &mut host);
        assert_eq!(dev.hmc_state(c), Some(MesiState::Modified));
        assert_eq!(host.caches.llc_state(c), None);
        // LLC miss -> Exclusive.
        let d = host_line(17);
        dev.d2h(RequestType::CO_RD, d, Time::ZERO, &mut host);
        assert_eq!(dev.hmc_state(d), Some(MesiState::Exclusive));
    }

    #[test]
    fn table3_co_write_modified_llc_invalid() {
        let (mut host, mut dev) = setup();
        for (i, stage) in [true, false].into_iter().enumerate() {
            let a = host_line(20 + i as u64);
            if stage {
                stage_llc_shared(&mut host, a);
            }
            dev.d2h(RequestType::CO_WR, a, Time::ZERO, &mut host);
            assert_eq!(dev.hmc_state(a), Some(MesiState::Modified), "HMC Modified");
            assert_eq!(host.caches.llc_state(a), None, "LLC Invalid");
        }
    }

    #[test]
    fn table3_cs_read_shared() {
        let (mut host, mut dev) = setup();
        // HMC hit: -> Shared; LLC unchanged.
        let a = host_line(22);
        stage_llc_shared(&mut host, a);
        dev.stage_hmc(a, MesiState::Exclusive, &mut host);
        dev.d2h(RequestType::CS_RD, a, Time::ZERO, &mut host);
        assert_eq!(dev.hmc_state(a), Some(MesiState::Shared));
        assert_eq!(host.caches.llc_state(a), Some(MesiState::Shared));
        // LLC hit M: degrade to S, fill HMC S.
        let b = host_line(23);
        stage_llc_modified(&mut host, b);
        dev.d2h(RequestType::CS_RD, b, Time::ZERO, &mut host);
        assert_eq!(dev.hmc_state(b), Some(MesiState::Shared));
        assert_eq!(host.caches.llc_state(b), Some(MesiState::Shared));
        // Miss: fill HMC S.
        let c = host_line(24);
        dev.d2h(RequestType::CS_RD, c, Time::ZERO, &mut host);
        assert_eq!(dev.hmc_state(c), Some(MesiState::Shared));
    }

    // ----- D2H latency orderings (Fig. 3 shapes) -----

    #[test]
    fn d2h_llc_hit_and_miss_latencies_comparable() {
        // Unlike the UPI-emulated baseline, the CXL hit path pays the
        // coherence-agent penalty, so LLC-hit and LLC-miss D2H latencies
        // end up in the same band (deriving Fig. 3's percentages against
        // the emulated values puts the CS-rd hit slightly *above* the
        // miss). Verify both are in-band rather than strictly ordered.
        let (mut host, mut dev) = setup();
        let hit_addr = host_line(30);
        stage_llc_shared(&mut host, hit_addr);
        let hit = dev.d2h(RequestType::CS_RD, hit_addr, Time::ZERO, &mut host);
        let miss = dev.d2h(RequestType::CS_RD, host_line(31), hit.completion, &mut host);
        let hit_lat = hit.completion.duration_since(Time::ZERO);
        let miss_lat = miss.completion.duration_since(hit.completion);
        let ratio = hit_lat.as_nanos_f64() / miss_lat.as_nanos_f64();
        assert!(
            (0.7..1.4).contains(&ratio),
            "hit {hit_lat} vs miss {miss_lat}"
        );
    }

    #[test]
    fn d2h_hmc_hit_is_local_and_fast() {
        let (mut host, mut dev) = setup();
        let a = host_line(32);
        dev.stage_hmc(a, MesiState::Shared, &mut host);
        let acc = dev.d2h(RequestType::NC_RD, a, Time::ZERO, &mut host);
        assert!(acc.device_cache_hit);
        let lat = acc.completion.duration_since(Time::ZERO);
        assert!(lat < Duration::from_nanos(60), "HMC hit {lat}");
    }

    // ----- D2D and bias modes (Fig. 4) -----

    #[test]
    fn d2d_device_bias_write_faster_than_host_bias() {
        let (mut host, mut dev) = setup();
        let hb = device_line(100);
        let db = device_line(200);
        dev.enter_device_bias(db, 1, Time::ZERO, &mut host);
        dev.stage_dmc(hb, MesiState::Shared);
        dev.stage_dmc(db, MesiState::Shared);
        let t0 = Time::from_nanos(10_000);
        let host_bias = dev.d2d(RequestType::CO_WR, hb, t0, &mut host);
        let t1 = host_bias.completion;
        let device_bias = dev.d2d(RequestType::CO_WR, db, t1, &mut host);
        let hb_lat = host_bias.completion.duration_since(t0);
        let db_lat = device_bias.completion.duration_since(t1);
        assert!(
            db_lat < hb_lat,
            "device-bias write {db_lat} should beat host-bias {hb_lat}"
        );
    }

    #[test]
    fn d2d_shared_read_hits_skip_host_check_in_host_bias() {
        let (mut host, mut dev) = setup();
        let a = device_line(300);
        dev.stage_dmc(a, MesiState::Shared);
        let acc = dev.d2d(RequestType::CS_RD, a, Time::ZERO, &mut host);
        assert!(acc.device_cache_hit);
        assert_eq!(acc.llc_hit, None, "no host consultation on shared DMC hit");
        let lat = acc.completion.duration_since(Time::ZERO);
        assert!(lat < Duration::from_nanos(60), "local DMC hit {lat}");
    }

    #[test]
    fn d2d_miss_in_host_bias_snoops_host() {
        let (mut host, mut dev) = setup();
        let a = device_line(400);
        let acc = dev.d2d(RequestType::CS_RD, a, Time::ZERO, &mut host);
        assert_eq!(acc.llc_hit, Some(false), "host snooped on DMC miss");
    }

    #[test]
    fn d2d_recovers_host_modified_line() {
        // The host stored to a device line (H2D st leaves it Modified in
        // host cache); a host-bias D2D read must observe that.
        let (mut host, mut dev) = setup();
        let a = device_line(500);
        dev.h2d_store(a, Time::ZERO, &mut host);
        assert_eq!(host.caches.llc_state(a), Some(MesiState::Modified));
        let acc = dev.d2d(RequestType::CS_RD, a, Time::from_nanos(5_000), &mut host);
        assert_eq!(acc.llc_hit, Some(true), "host had the line");
        assert_eq!(
            host.caches.llc_state(a),
            Some(MesiState::Shared),
            "host copy degraded by the shared read"
        );
    }

    #[test]
    fn h2d_access_flips_device_bias_region() {
        let (mut host, mut dev) = setup();
        let a = device_line(600);
        dev.enter_device_bias(a, 1, Time::ZERO, &mut host);
        assert_eq!(
            dev.bias.mode_of(device_byte_offset(a)),
            BiasKind::DeviceBias
        );
        dev.h2d_load(a, Time::from_nanos(1_000), &mut host);
        assert_eq!(
            dev.bias.mode_of(device_byte_offset(a)),
            BiasKind::HostBias,
            "H2D access exits device bias (§IV-B)"
        );
    }

    // ----- H2D (Fig. 5) -----

    #[test]
    fn h2d_type2_slower_than_type3_on_dmc_miss() {
        let mut host2 = Socket::xeon_6538y();
        let mut host3 = Socket::xeon_6538y();
        let mut t2 = CxlDevice::agilex7();
        let mut t3 = CxlDevice::agilex7_type3();
        let a = device_line(700);
        let l2 = t2.h2d_load(a, Time::ZERO, &mut host2);
        let l3 = t3.h2d_load(a, Time::ZERO, &mut host3);
        let lat2 = l2.completion.duration_since(Time::ZERO);
        let lat3 = l3.completion.duration_since(Time::ZERO);
        assert!(lat2 > lat3, "T2 {lat2} vs T3 {lat3}");
        let overhead = (lat2.as_nanos_f64() - lat3.as_nanos_f64()) / lat3.as_nanos_f64();
        assert!(overhead < 0.15, "T2 penalty should be small: {overhead}");
    }

    #[test]
    fn h2d_dmc_modified_pays_writeback() {
        let (mut host, mut dev) = setup();
        let dirty = device_line(800);
        let clean = device_line(900);
        dev.stage_dmc(dirty, MesiState::Modified);
        let d = dev.h2d_load(dirty, Time::ZERO, &mut host);
        let t1 = d.completion + Duration::from_nanos(100);
        // Use a second device to avoid queueing interactions.
        let c = dev.h2d_load(clean, t1, &mut host);
        let dirty_lat = d.completion.duration_since(Time::ZERO);
        let clean_lat = c.completion.duration_since(t1);
        assert!(
            dirty_lat > clean_lat,
            "dirty {dirty_lat} vs miss {clean_lat}"
        );
        assert_eq!(
            dev.dmc_state(dirty),
            Some(MesiState::Shared),
            "downgraded after writeback"
        );
    }

    #[test]
    fn h2d_nt_store_completes_at_controller() {
        let (mut host, mut dev) = setup();
        let a = device_line(1000);
        let st = dev.h2d_store(a, Time::ZERO, &mut host);
        host.caches.invalidate(a); // drop the cached copy for a fair rerun
        let t1 = st.completion + Duration::from_nanos(100);
        let nt = dev.h2d_nt_store(a, t1, &mut host);
        let st_lat = st.completion.duration_since(Time::ZERO);
        let nt_lat = nt.completion.duration_since(t1);
        assert!(
            nt_lat.as_nanos_f64() * 3.0 < st_lat.as_nanos_f64(),
            "nt-st {nt_lat} far below st {st_lat}"
        );
    }

    #[test]
    fn ncp_prefetch_makes_h2d_fast() {
        let (mut host, mut dev) = setup();
        let a = device_line(1100);
        let done = dev.d2h_push_from_device(a, Time::ZERO, &mut host);
        let fast = dev.h2d_load(a, done, &mut host);
        assert_eq!(fast.llc_hit, Some(true));
        let slow = dev.h2d_load(device_line(1200), fast.completion, &mut host);
        let fast_lat = fast.completion.duration_since(done);
        let slow_lat = slow.completion.duration_since(fast.completion);
        // Insight 4: 82–87% lower latency.
        let reduction = 1.0 - fast_lat.as_nanos_f64() / slow_lat.as_nanos_f64();
        assert!(reduction > 0.5, "NC-P reduction {reduction}");
    }

    #[test]
    fn enter_host_bias_writes_back_dirty_dmc() {
        let (mut host, mut dev) = setup();
        let a = device_line(8);
        dev.enter_device_bias(a, 1, Time::ZERO, &mut host);
        assert_eq!(
            dev.bias.mode_of(device_byte_offset(a)),
            BiasKind::DeviceBias
        );
        dev.stage_dmc(a, MesiState::Modified);

        let start = Time::from_nanos(100);
        let t = dev.enter_host_bias(a, 1, start);
        assert!(t > start, "dirty DMC flush must cost time");
        assert_eq!(dev.dmc_state(a), None, "DMC copy dropped");
        assert_eq!(dev.bias.mode_of(device_byte_offset(a)), BiasKind::HostBias);
        // Explicit daemon flips count as device→host transitions.
        assert_eq!(dev.bias.transition_counts().0, 1);
    }

    #[test]
    fn flush_device_caches_writes_back_dirty() {
        let (mut host, mut dev) = setup();
        dev.stage_hmc(host_line(40), MesiState::Modified, &mut host);
        dev.stage_dmc(device_line(41), MesiState::Modified);
        dev.flush_device_caches(Time::ZERO, &mut host);
        assert_eq!(dev.hmc_state(host_line(40)), None);
        assert_eq!(dev.dmc_state(device_line(41)), None);
        let c = dev.counters();
        assert_eq!(c.get("device.hmc.writebacks"), 1);
        assert_eq!(c.get("device.dmc.writebacks"), 1);
    }

    #[test]
    #[should_panic(expected = "D2H requires CXL.cache")]
    fn type3_cannot_d2h() {
        let mut host = Socket::xeon_6538y();
        let mut t3 = CxlDevice::agilex7_type3();
        t3.d2h(RequestType::NC_RD, host_line(1), Time::ZERO, &mut host);
    }

    #[test]
    #[should_panic(expected = "NC-P is not defined for D2D")]
    fn ncp_rejected_for_d2d() {
        let (mut host, mut dev) = setup();
        dev.d2d(RequestType::NC_P, device_line(1), Time::ZERO, &mut host);
    }

    #[test]
    fn type3_d2d_behaves_as_device_bias() {
        let mut host = Socket::xeon_6538y();
        let mut t3 = CxlDevice::agilex7_type3();
        let a = device_line(1300);
        let acc = t3.d2d(RequestType::CS_RD, a, Time::ZERO, &mut host);
        assert_eq!(acc.llc_hit, None, "Type-3 AFU never snoops the host");
    }
    /// The four `h2d_*` facades are exactly the parameterized [`CxlDevice::h2d`]
    /// flow: running the facade and the unified entry point on identically
    /// prepared (host, device) pairs yields the same [`DeviceAccess`].
    #[test]
    fn h2d_facades_match_parameterized_flow() {
        for op in H2dOp::ALL {
            for staged in [None, Some(MesiState::Shared), Some(MesiState::Modified)] {
                let (mut host_a, mut dev_a) = setup();
                let (mut host_b, mut dev_b) = setup();
                let a = device_line(4242);
                if let Some(s) = staged {
                    dev_a.stage_dmc(a, s);
                    dev_b.stage_dmc(a, s);
                }
                let t = Time::from_nanos(1_000);
                let via_facade = match op {
                    H2dOp::Load => dev_a.h2d_load(a, t, &mut host_a),
                    H2dOp::NtLoad => dev_a.h2d_nt_load(a, t, &mut host_a),
                    H2dOp::Store => dev_a.h2d_store(a, t, &mut host_a),
                    H2dOp::NtStore => dev_a.h2d_nt_store(a, t, &mut host_a),
                };
                let via_unified = dev_b.h2d(op, a, t, &mut host_b);
                assert_eq!(via_facade, via_unified, "{op:?} staged={staged:?}");
                // Second access from warmed state exercises the host-cache
                // hit paths of the temporal flavors.
                let t2 = Time::from_nanos(50_000);
                let again_facade = match op {
                    H2dOp::Load => dev_a.h2d_load(a, t2, &mut host_a),
                    H2dOp::NtLoad => dev_a.h2d_nt_load(a, t2, &mut host_a),
                    H2dOp::Store => dev_a.h2d_store(a, t2, &mut host_a),
                    H2dOp::NtStore => dev_a.h2d_nt_store(a, t2, &mut host_a),
                };
                let again_unified = dev_b.h2d(op, a, t2, &mut host_b);
                assert_eq!(again_facade, again_unified, "warm {op:?} staged={staged:?}");
            }
        }
    }

    /// Pins the exact `DeviceAccess` each H2D flavor produced *before* the
    /// four paths were collapsed into [`CxlDevice::h2d`] (values captured
    /// from the pre-refactor code on a cold device at t = 1 µs, then again
    /// at t = 50 µs from the warmed host cache). Any drift in the unified
    /// flow shows up here as a picosecond diff.
    #[test]
    fn h2d_dedupe_preserves_pre_refactor_timings() {
        // (staged DMC state, op, cold ps, cold dmc-hit, cold llc-hit,
        //  warm ps, warm dmc-hit, warm llc-hit)
        type Row = (Option<MesiState>, H2dOp, u64, bool, bool, u64, bool, bool);
        #[rustfmt::skip]
        let expected: &[Row] = &[
            (None, H2dOp::Load,    1_251_618, false, false, 50_003_300, false, true),
            (None, H2dOp::NtLoad,  1_251_618, false, false, 50_251_618, false, false),
            (None, H2dOp::Store,   1_253_118, false, false, 50_004_800, false, true),
            (None, H2dOp::NtStore, 1_037_214, false, false, 50_037_214, false, false),
            (Some(MesiState::Shared), H2dOp::Load,    1_251_618, true, false, 50_003_300, false, true),
            (Some(MesiState::Shared), H2dOp::NtLoad,  1_251_618, true, false, 50_251_618, true, false),
            (Some(MesiState::Shared), H2dOp::Store,   1_253_118, true, false, 50_004_800, false, true),
            (Some(MesiState::Shared), H2dOp::NtStore, 1_037_214, true, false, 50_037_214, false, false),
            (Some(MesiState::Exclusive), H2dOp::Load,    1_271_618, true, false, 50_003_300, false, true),
            (Some(MesiState::Exclusive), H2dOp::NtLoad,  1_271_618, true, false, 50_251_618, true, false),
            (Some(MesiState::Exclusive), H2dOp::Store,   1_273_118, true, false, 50_004_800, false, true),
            (Some(MesiState::Exclusive), H2dOp::NtStore, 1_037_214, true, false, 50_037_214, false, false),
            (Some(MesiState::Modified), H2dOp::Load,    1_331_618, true, false, 50_003_300, false, true),
            (Some(MesiState::Modified), H2dOp::NtLoad,  1_331_618, true, false, 50_251_618, true, false),
            (Some(MesiState::Modified), H2dOp::Store,   1_333_118, true, false, 50_004_800, false, true),
            (Some(MesiState::Modified), H2dOp::NtStore, 1_037_214, true, false, 50_037_214, false, false),
        ];
        for &(staged, op, cold_ps, cold_dmc, cold_llc, warm_ps, warm_dmc, warm_llc) in expected {
            let (mut host, mut dev) = setup();
            let a = device_line(42);
            if let Some(s) = staged {
                dev.stage_dmc(a, s);
            }
            let cold = dev.h2d(op, a, Time::from_nanos(1_000), &mut host);
            assert_eq!(
                (
                    cold.completion.duration_since(Time::ZERO).as_picos(),
                    cold.device_cache_hit,
                    cold.llc_hit,
                ),
                (cold_ps, cold_dmc, Some(cold_llc)),
                "cold {op:?} staged={staged:?}"
            );
            let warm = dev.h2d(op, a, Time::from_nanos(50_000), &mut host);
            assert_eq!(
                (
                    warm.completion.duration_since(Time::ZERO).as_picos(),
                    warm.device_cache_hit,
                    warm.llc_hit,
                ),
                (warm_ps, warm_dmc, Some(warm_llc)),
                "warm {op:?} staged={staged:?}"
            );
        }
    }
}
