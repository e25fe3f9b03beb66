//! Event-type definitions for the trace substrate: the closed wire-named
//! enums and [`TraceEvent`] itself, declared once as a table that
//! generates the JSON encoder and decoder.
//! The ring buffer, tracer thread-locals and counters live in the parent
//! [`crate::trace`] module, which re-exports everything here —
//! `sim_core::trace::TraceEvent` is the public path.

use core::fmt::Write as _;
use std::collections::BTreeSet;
use std::sync::Mutex;

// =====================================================================
// Small closed enums with canonical wire names
// =====================================================================

macro_rules! str_enum {
    ($(#[$m:meta])* pub enum $name:ident { $($(#[$vm:meta])* $var:ident => $s:literal),+ $(,)? }) => {
        $(#[$m])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub enum $name {
            $($(#[$vm])* $var),+
        }

        impl $name {
            /// Every variant, in declaration order.
            pub const ALL: &[Self] = &[$($name::$var),+];

            /// The canonical wire name used in exports.
            pub const fn as_str(self) -> &'static str {
                match self {
                    $($name::$var => $s),+
                }
            }

            /// Parses a canonical wire name.
            pub fn parse(s: &str) -> Option<Self> {
                match s {
                    $($s => Some($name::$var),)+
                    _ => None,
                }
            }
        }

        impl core::fmt::Display for $name {
            fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
                f.write_str(self.as_str())
            }
        }

        impl Wire for $name {
            fn write_json(self, out: &mut String) {
                self.as_str().write_json(out);
            }

            fn read_json(r: &FieldReader<'_>, key: &str) -> Result<Self, String> {
                r.parse_as(key, Self::parse)
            }
        }
    };
}

str_enum! {
    /// Which request lane a transaction travels (paper §IV).
    pub enum Lane {
        /// Device accelerator → host memory.
        D2h => "d2h",
        /// Device accelerator → device memory.
        D2d => "d2d",
        /// Host CPU → device memory.
        H2d => "h2d",
    }
}

str_enum! {
    /// The request flavor (Table II semantic request types and host ops).
    pub enum OpKind {
        /// Non-cacheable push (RdCurr data pushed into host LLC).
        NcP => "nc-p",
        /// Non-cacheable read (RdCurr).
        NcRd => "nc-rd",
        /// Non-cacheable write (WrCur).
        NcWr => "nc-wr",
        /// Cacheable-owned read (RdOwn).
        CoRd => "co-rd",
        /// Cacheable-owned write (ItoMWr path).
        CoWr => "co-wr",
        /// Cacheable-shared read (RdShared).
        CsRd => "cs-rd",
        /// Host temporal load.
        Load => "ld",
        /// Host non-temporal load.
        NtLoad => "nt-ld",
        /// Host temporal store.
        Store => "st",
        /// Host non-temporal store.
        NtStore => "nt-st",
    }
}

str_enum! {
    /// Caches participating in the coherence protocol.
    pub enum CacheId {
        /// The device's host-memory cache (DCOH slice).
        Hmc => "hmc",
        /// The device's device-memory cache (DCOH slice).
        Dmc => "dmc",
        /// Host L1 data cache.
        HostL1 => "l1",
        /// Host L2 cache.
        HostL2 => "l2",
        /// Host last-level cache.
        HostLlc => "llc",
    }
}

str_enum! {
    /// Memory controllers.
    pub enum MemId {
        /// Host socket DRAM.
        HostDram => "host-dram",
        /// Device-attached DRAM.
        DevDram => "dev-dram",
    }
}

str_enum! {
    /// MESI line states as they appear in Table III.
    pub enum LineState {
        /// Modified.
        Modified => "M",
        /// Exclusive.
        Exclusive => "E",
        /// Shared.
        Shared => "S",
        /// Invalid.
        Invalid => "I",
    }
}

str_enum! {
    /// Snoop flavors the host home agent services for the device.
    pub enum SnoopKind {
        /// Snoop-current (no state change).
        Current => "snp-cur",
        /// Snoop-shared (degrade to Shared).
        Shared => "snp-shared",
        /// Snoop-invalidate (drop host copies).
        Invalidate => "snp-inv",
        /// Home-agent back-snoop recalling a line from a device HMC (§IV-C).
        BackInvalidate => "back-inv",
    }
}

str_enum! {
    /// Bias modes of a device-memory region (§IV-B).
    #[derive(Default)]
    pub enum BiasKind {
        /// Host-bias: DCOH keeps hardware coherence with the host.
        /// Default after reset and after any H2D access.
        #[default]
        HostBias => "host",
        /// Device-bias: device accesses skip the host check.
        DeviceBias => "device",
    }
}

str_enum! {
    /// Why the adaptive daemon flipped a region's bias.
    pub enum FlipCause {
        /// Feedback controller: the observed access mix crossed a margin.
        Policy => "policy",
        /// Fault-aware degradation pinned the region to host bias.
        Degrade => "degrade",
    }
}

str_enum! {
    /// Offload backend identities (Fig. 8 series).
    pub enum BackendId {
        /// Host CPU inline.
        Cpu => "cpu",
        /// STYX-style BF-3 RDMA.
        PcieRdma => "pcie-rdma",
        /// Agilex-7 plain DMA.
        PcieDma => "pcie-dma",
        /// The paper's CXL Type-2 path.
        Cxl => "cxl",
    }
}

str_enum! {
    /// Offloadable data-plane functions (§VI).
    pub enum OffloadFn {
        /// zswap page compression.
        Compress => "compress",
        /// zswap page decompression.
        Decompress => "decompress",
        /// ksm page checksum.
        Checksum => "checksum",
        /// ksm page byte-compare.
        Compare => "compare",
    }
}

str_enum! {
    /// Steps of one offloaded invocation (Fig. 7 / Table IV numbering).
    pub enum OffloadStep {
        /// ① mailbox/descriptor dispatch.
        Dispatch => "dispatch",
        /// ② page transfer to the compute engine.
        TransferIn => "transfer-in",
        /// ④ the computation itself.
        Compute => "compute",
        /// ⑤ result transfer back.
        TransferOut => "transfer-out",
        /// Completion observed by the host.
        Complete => "complete",
    }
}

str_enum! {
    /// zswap lifecycle steps.
    pub enum ZswapStep {
        /// A store began (page swapped out).
        StoreBegin => "store-begin",
        /// Stored as an 8-byte same-filled pattern.
        StoreSameFilled => "store-same-filled",
        /// Compressed page entered the zpool.
        StorePooled => "store-pooled",
        /// Incompressible page rejected to the backing device.
        StoreRejected => "store-rejected",
        /// Load served from the zpool (decompression).
        LoadPoolHit => "load-pool-hit",
        /// Load served by expanding a same-filled pattern.
        LoadSameFilled => "load-same-filled",
        /// Load fell through to the backing swap device.
        LoadDisk => "load-disk",
        /// LRU entry written back to the backing device to make room.
        WritebackEvict => "writeback-evict",
        /// Entry dropped (page freed).
        Invalidate => "invalidate",
    }
}

str_enum! {
    /// ksm lifecycle steps.
    pub enum KsmStep {
        /// A page scan began.
        ScanBegin => "scan-begin",
        /// Checksum computed; page still volatile.
        ChecksumVolatile => "checksum-volatile",
        /// Page matched a stable-tree node and was merged.
        MergedStable => "merged-stable",
        /// Page matched an unstable-tree node; both promoted and merged.
        MergedUnstable => "merged-unstable",
        /// Page inserted into the unstable tree (no match).
        UnstableInsert => "unstable-insert",
        /// Copy-on-write break of a merged page.
        CowBreak => "cow-break",
    }
}

str_enum! {
    /// KVS (Fig. 8 Redis) request lifecycle steps.
    pub enum KvsStep {
        /// Request arrived at its server queue.
        Arrival => "arrival",
        /// Request faulted on a swapped-out key; swap-in started.
        FaultIn => "fault-in",
        /// Insert allocated a brand-new key/page.
        Insert => "insert",
        /// Request service time fixed (queued for its core).
        Enqueued => "enqueued",
    }
}

str_enum! {
    /// Fault-process flavors bound to injection points ([`crate::fault`]).
    pub enum FaultKind {
        /// A flit draw fell under the configured bit-error rate.
        FlitCorrupt => "flit-corrupt",
        /// A port op was stalled past its deadline.
        PortStall => "port-stall",
        /// A line was marked poisoned at its home memory.
        Poison => "poison",
    }
}

// =====================================================================
// Field values on the wire
// =====================================================================

/// One event field's value on the wire. Every [`TraceEvent`] field type
/// implements it, so the event table below is the whole schema: a second
/// encoding is one more method here.
trait Wire: Sized {
    /// Appends the value as JSON.
    fn write_json(self, out: &mut String);

    /// Reads field `key` of a parsed JSONL object.
    fn read_json(r: &FieldReader<'_>, key: &str) -> Result<Self, String>;
}

macro_rules! wire_uint {
    ($($t:ty),+) => {$(
        impl Wire for $t {
            fn write_json(self, out: &mut String) {
                let _ = write!(out, "{self}");
            }

            fn read_json(r: &FieldReader<'_>, key: &str) -> Result<Self, String> {
                let n = r.num(key)?;
                Self::try_from(n).map_err(|_| format!("field {key:?} out of range: {n}"))
            }
        }
    )+};
}

wire_uint!(u64, u32, u16, u8);

impl Wire for bool {
    fn write_json(self, out: &mut String) {
        out.push_str(if self { "true" } else { "false" });
    }

    fn read_json(r: &FieldReader<'_>, key: &str) -> Result<Self, String> {
        r.boolean(key)
    }
}

impl Wire for &'static str {
    fn write_json(self, out: &mut String) {
        out.push('"');
        out.push_str(self);
        out.push('"');
    }

    fn read_json(r: &FieldReader<'_>, key: &str) -> Result<Self, String> {
        r.string(key).map(intern_name)
    }
}

// =====================================================================
// TraceEvent
// =====================================================================

/// Declares [`TraceEvent`] from one table — per variant its wire `kind`
/// name and its fields in wire order, each written under its own name —
/// and generates the JSON encoder ([`write_json_fields`]) and decoder
/// ([`parse_event`]) from it.
macro_rules! trace_events {
    ($(#[$m:meta])* pub enum $name:ident {
        $($(#[$vm:meta])* $var:ident => $kind:literal {
            $($(#[$fm:meta])* $field:ident: $ty:ty),+ $(,)?
        }),+ $(,)?
    }) => {
        $(#[$m])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $name {
            $($(#[$vm])* $var { $($(#[$fm])* $field: $ty),+ }),+
        }

        /// Appends the event-specific JSON fields (`,"kind":...` onward) for
        /// one event. The caller writes the `seq`/`at_ps` prefix and closing
        /// brace.
        pub(crate) fn write_json_fields(out: &mut String, event: &$name) {
            match *event {
                $($name::$var { $($field),+ } => {
                    out.push_str(concat!(",\"kind\":\"", $kind, "\""));
                    $(
                        out.push_str(concat!(",\"", stringify!($field), "\":"));
                        <$ty as Wire>::write_json($field, out);
                    )+
                })+
            }
        }

        /// Decodes the event-specific fields of one parsed JSONL object.
        pub(crate) fn parse_event(r: &FieldReader<'_>) -> Result<$name, String> {
            Ok(match r.string("kind")? {
                $($kind => $name::$var {
                    $($field: <$ty as Wire>::read_json(r, stringify!($field))?),+
                },)+
                other => return Err(format!("unknown event kind {other:?}")),
            })
        }
    };
}

trace_events! {
    /// One protocol-level event. `Copy` and allocation-free by construction
    /// so emission costs a branch and a few stores.
    ///
    /// Adding an event takes one entry in this table.
    pub enum TraceEvent {
        /// A request entered a lane (D2H/D2D/H2D).
        Request => "request" {
            /// The lane.
            lane: Lane,
            /// Request flavor.
            op: OpKind,
            /// Line address (index space).
            addr: u64,
        },
        /// A cache was consulted.
        CacheAccess => "cache-access" {
            /// Which cache.
            cache: CacheId,
            /// Line address.
            addr: u64,
            /// Whether the line was resident.
            hit: bool,
        },
        /// A line was filled into a cache.
        CacheFill => "cache-fill" {
            /// Which cache.
            cache: CacheId,
            /// Line address.
            addr: u64,
            /// Fill state.
            state: LineState,
        },
        /// A resident line's state changed.
        CacheState => "cache-state" {
            /// Which cache.
            cache: CacheId,
            /// Line address.
            addr: u64,
            /// New state.
            state: LineState,
        },
        /// A line was invalidated (dropped without write-back).
        CacheInvalidate => "cache-invalidate" {
            /// Which cache.
            cache: CacheId,
            /// Line address.
            addr: u64,
        },
        /// A dirty line was written back toward its home memory.
        CacheWriteback => "cache-writeback" {
            /// Which cache.
            cache: CacheId,
            /// Line address.
            addr: u64,
        },
        /// A line was pushed into the host LLC in Modified state (NC-P).
        LlcPush => "llc-push" {
            /// Line address.
            addr: u64,
        },
        /// The host home agent snooped on the device's behalf — or the
        /// platform back-invalidated a device-cached line.
        Snoop => "snoop" {
            /// Snoop flavor.
            snoop: SnoopKind,
            /// Line address.
            addr: u64,
            /// Whether a host cache held the line.
            hit: bool,
            /// Whether the held copy was dirty.
            dirty: bool,
        },
        /// A device-memory region switched bias mode.
        BiasSwitch => "bias-switch" {
            /// Region byte offset in device memory.
            region_offset: u64,
            /// The new mode.
            to: BiasKind,
        },
        /// The adaptive bias daemon ordered a region transition (one event
        /// per transition, whatever triggered it).
        BiasFlip => "bias-flip" {
            /// Policy region index (device-local line index >> grain).
            region: u32,
            /// The bias the region transitions to.
            to: BiasKind,
            /// What triggered the transition.
            reason: FlipCause,
        },
        /// A memory controller served a read.
        MemRead => "mem-read" {
            /// Which memory.
            mem: MemId,
            /// Line address.
            addr: u64,
        },
        /// A memory controller accepted a write.
        MemWrite => "mem-write" {
            /// Which memory.
            mem: MemId,
            /// Line address.
            addr: u64,
        },
        /// Bytes crossed the UPI socket interconnect.
        UpiTransfer => "upi" {
            /// Payload bytes.
            bytes: u64,
            /// True for the write direction.
            write: bool,
        },
        /// A PCIe DMA descriptor was processed (one-sided; no direction).
        DmaDescriptor => "dma" {
            /// Payload bytes.
            bytes: u64,
        },
        /// An RDMA verb was executed (one-sided; no direction).
        RdmaVerb => "rdma" {
            /// Payload bytes.
            bytes: u64,
        },
        /// The device LSU issued a burst.
        LsuBurst => "lsu-burst" {
            /// Target lane.
            lane: Lane,
            /// Lines in the burst.
            lines: u64,
        },
        /// An offload backend progressed through a Fig. 7 step.
        Offload => "offload" {
            /// Backend identity.
            backend: BackendId,
            /// The function being offloaded.
            func: OffloadFn,
            /// The step.
            step: OffloadStep,
            /// Bytes involved in the step.
            bytes: u64,
        },
        /// A zswap lifecycle step.
        Zswap => "zswap" {
            /// The step.
            step: ZswapStep,
            /// Swap key.
            key: u64,
            /// Bytes involved (compressed size for pool stores).
            bytes: u64,
        },
        /// A ksm lifecycle step.
        Ksm => "ksm" {
            /// The step.
            step: KsmStep,
            /// Page id.
            page: u64,
            /// Step-dependent auxiliary value (checksum, partner page id).
            aux: u64,
        },
        /// A KVS request lifecycle step.
        Kvs => "kvs" {
            /// The step.
            step: KvsStep,
            /// Server index.
            server: u32,
            /// Request key.
            key: u64,
        },
        /// A traffic-generator op retired ([`crate::traffic`] flow view).
        FlowOp => "flow-op" {
            /// Flow index within its scheduler.
            flow: u32,
            /// Line address the op touched.
            line: u64,
            /// Submit→completion sojourn in picoseconds (queueing + service).
            sojourn_ps: u64,
        },
        /// A fault process fired at a registered injection point
        /// ([`crate::fault`]).
        FaultInject => "fault-inject" {
            /// The injection-point name the fault was bound to.
            point: &'static str,
            /// Which fault process fired.
            fault: FaultKind,
        },
        /// The link-layer retry machinery replayed a flit after a CRC NAK
        /// (`cxl_proto::retry`).
        LinkRetry => "link-retry" {
            /// The injection-point name of the faulting link.
            point: &'static str,
            /// Replay attempt number for this flit (1 = first replay).
            attempt: u32,
        },
        /// A memory read returned a poisoned line to its consumer.
        PoisonSurface => "poison-surface" {
            /// Line address.
            addr: u64,
        },
        /// A request timed out at an injection point and was re-issued after
        /// exponential backoff.
        Timeout => "timeout" {
            /// The injection-point name (e.g. a DCOH slice).
            point: &'static str,
            /// Timeout attempt number for this request (1 = first timeout).
            attempt: u32,
            /// Backoff applied before the re-issue, in picoseconds.
            backoff_ps: u64,
        },
        /// The HDM decoder routed a host-physical address onto a fabric
        /// device (multi-device topologies only; the degenerate 1×1 fabric
        /// stays silent to keep singleton traces byte-identical).
        FabricRoute => "fabric-route" {
            /// Target device id.
            device: u16,
            /// Host-physical line address.
            hpa: u64,
            /// Device-local line address.
            dpa: u64,
            /// Interleave way the address fell on.
            way: u8,
        },
        /// A QoS admission layer shed a tenant op: its token-bucket queueing
        /// delay exceeded the shed bound, so the op was rejected without
        /// touching the shared slice tables (serving fleets only).
        QosShed => "qos-shed" {
            /// Tenant index within the fleet.
            tenant: u32,
            /// Line address the shed op targeted.
            line: u64,
        },
        /// The SLO controller retuned a tenant's admission token bucket
        /// (serving fleets only).
        QosThrottle => "qos-throttle" {
            /// Tenant index within the fleet.
            tenant: u32,
            /// New sustained per-op interval, in picoseconds.
            interval_ps: u64,
        },
    }
}

/// A [`TraceEvent`] stamped with its simulated time and sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedEvent {
    /// Monotonic per-tracer sequence number (total emission order).
    pub seq: u64,
    /// Simulated time of the event.
    pub at: crate::time::Time,
    /// The event.
    pub event: TraceEvent,
}

// =====================================================================
// JSON-lines parsing helpers (fixtures + round-trip tests; cold path)
// =====================================================================

#[derive(Debug, Clone, Copy, PartialEq)]
enum JsonValue<'a> {
    Num(u64),
    Bool(bool),
    Str(&'a str),
}

/// One flat JSON object (string/number/bool values only), its keys and
/// string values borrowed from the parsed line.
pub(crate) struct FieldReader<'a> {
    fields: Vec<(&'a str, JsonValue<'a>)>,
}

impl<'a> FieldReader<'a> {
    /// Parses one flat JSON object.
    pub(crate) fn parse(line: &'a str) -> Result<Self, String> {
        let s = line.trim();
        let inner = s
            .strip_prefix('{')
            .and_then(|s| s.strip_suffix('}'))
            .ok_or_else(|| "expected a JSON object".to_string())?;
        let mut fields = Vec::new();
        let mut rest = inner.trim();
        while !rest.is_empty() {
            rest = rest
                .strip_prefix('"')
                .ok_or_else(|| "expected a quoted key".to_string())?;
            let kq = rest
                .find('"')
                .ok_or_else(|| "unterminated key".to_string())?;
            let key = &rest[..kq];
            rest = rest[kq + 1..]
                .trim_start()
                .strip_prefix(':')
                .ok_or_else(|| format!("expected ':' after key {key:?}"))?
                .trim_start();
            let value;
            if let Some(r) = rest.strip_prefix('"') {
                let vq = r
                    .find('"')
                    .ok_or_else(|| "unterminated string value".to_string())?;
                value = JsonValue::Str(&r[..vq]);
                rest = &r[vq + 1..];
            } else if let Some(r) = rest.strip_prefix("true") {
                value = JsonValue::Bool(true);
                rest = r;
            } else if let Some(r) = rest.strip_prefix("false") {
                value = JsonValue::Bool(false);
                rest = r;
            } else {
                let end = rest
                    .find(|c: char| !c.is_ascii_digit())
                    .unwrap_or(rest.len());
                if end == 0 {
                    return Err(format!("unparseable value for key {key:?}"));
                }
                let n: u64 = rest[..end]
                    .parse()
                    .map_err(|e| format!("bad number: {e}"))?;
                value = JsonValue::Num(n);
                rest = &rest[end..];
            }
            fields.push((key, value));
            rest = rest.trim_start();
            if let Some(r) = rest.strip_prefix(',') {
                rest = r.trim_start();
            } else if !rest.is_empty() {
                return Err("expected ',' or end of object".to_string());
            }
        }
        Ok(FieldReader { fields })
    }

    fn get(&self, key: &str) -> Result<JsonValue<'a>, String> {
        self.fields
            .iter()
            .find(|(k, _)| *k == key)
            .map(|&(_, v)| v)
            .ok_or_else(|| format!("missing field {key:?}"))
    }

    pub(crate) fn num(&self, key: &str) -> Result<u64, String> {
        match self.get(key)? {
            JsonValue::Num(n) => Ok(n),
            _ => Err(format!("field {key:?} is not a number")),
        }
    }

    pub(crate) fn boolean(&self, key: &str) -> Result<bool, String> {
        match self.get(key)? {
            JsonValue::Bool(b) => Ok(b),
            _ => Err(format!("field {key:?} is not a bool")),
        }
    }

    pub(crate) fn string(&self, key: &str) -> Result<&'a str, String> {
        match self.get(key)? {
            JsonValue::Str(s) => Ok(s),
            _ => Err(format!("field {key:?} is not a string")),
        }
    }

    pub(crate) fn parse_as<T>(&self, key: &str, parse: fn(&str) -> Option<T>) -> Result<T, String> {
        let s = self.string(key)?;
        parse(s).ok_or_else(|| format!("unknown {key:?} value {s:?}"))
    }
}

/// Interns a name parsed from a fixture. Parsing is a cold path
/// (tests/tooling); the handful of distinct names leaked per process is
/// bounded by the fixture vocabulary.
pub(crate) fn intern_name(s: &str) -> &'static str {
    static NAMES: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
    let mut names = NAMES.lock().expect("a name-interner holder panicked");
    if let Some(&name) = names.get(s) {
        return name;
    }
    let name: &'static str = Box::leak(s.into());
    names.insert(name);
    name
}
