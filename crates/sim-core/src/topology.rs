//! Fabric topology and HDM address decode.
//!
//! The paper measures one host socket bolted to one Type-2 card, and the
//! rest of this workspace inherited that shape. This module lifts it: a
//! [`TopologySpec`] is a declarative, typed tree of hosts, switches, and
//! Type-2/Type-3 devices, and a [`DecoderSet`] is the HDM (host-managed
//! device memory) decoder programming that maps host-physical line
//! addresses onto `(device, device-local address)` pairs with 1/2/4/8-way
//! interleave at a configurable granularity — the same decode a real root
//! complex performs before a CXL.mem request leaves the socket.
//!
//! Everything here is pure data and arithmetic: no timing, no device
//! state. `host` consumes it to route remote accesses, `cxl-type2` builds
//! a device fabric from it, and the degenerate 1-host × 1-device spec
//! reproduces today's singleton platform byte-identically.
//!
//! # Examples
//!
//! ```
//! use sim_core::topology::TopologySpec;
//!
//! // Two Type-2 devices, 2-way interleaved at 256 B, window base line 64.
//! let spec = TopologySpec::symmetric(2, 2, 64, 1 << 20, 256);
//! let topo = spec.resolve().unwrap();
//! assert_eq!(topo.devices().len(), 2);
//! // Consecutive 256 B chunks alternate devices.
//! let d0 = topo.decoders().decode(64).unwrap();
//! let d1 = topo.decoders().decode(64 + 4).unwrap();
//! assert_ne!(d0.device, d1.device);
//! // Decode round-trips through encode.
//! assert_eq!(topo.decoders().encode(d0.device, d0.dpa_line), Some(64));
//! ```

use std::fmt;

/// Bytes per cache line (the decode granularity floor).
pub const LINE_BYTES: u64 = 64;

/// Identity of a device within a resolved topology: its index in
/// depth-first tree order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DeviceId(pub u16);

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dev{}", self.0)
    }
}

/// What kind of CXL device a tree leaf is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceKind {
    /// Type-2: accelerator with DCOH, HMC/DMC, CXL.cache + CXL.mem.
    Type2,
    /// Type-3: memory expander, CXL.mem only.
    Type3,
}

/// A host in the topology (one socket each; multi-socket hosts attach
/// through `host::numa` above this layer).
#[derive(Debug, Clone)]
pub struct HostSpec {
    /// Display name, unique across the topology.
    pub name: String,
}

/// A device leaf of the fabric tree.
#[derive(Debug, Clone)]
pub struct DeviceSpec {
    /// Display name, unique across the topology.
    pub name: String,
    /// Type-2 or Type-3.
    pub kind: DeviceKind,
    /// DCOH slice count (Type-2 only; ignored for Type-3).
    pub dcoh_slices: usize,
    /// Device-local capacity in 64 B lines.
    pub capacity_lines: u64,
    /// Index into [`TopologySpec::hosts`] of the socket whose home agent
    /// owns this device's HDM range — bias transitions flush *that*
    /// host's caches, not host 0's.
    pub owner_host: u16,
}

impl DeviceSpec {
    /// An Agilex-7-shaped Type-2 device: one DCOH slice (the default
    /// card configuration downstream), 32 GiB, owned by host 0.
    pub fn type2(name: impl Into<String>) -> Self {
        DeviceSpec {
            name: name.into(),
            kind: DeviceKind::Type2,
            dcoh_slices: 1,
            capacity_lines: 1 << 29,
            owner_host: 0,
        }
    }

    /// The same card configured as a Type-3 expander.
    pub fn type3(name: impl Into<String>) -> Self {
        DeviceSpec {
            kind: DeviceKind::Type3,
            ..DeviceSpec::type2(name)
        }
    }

    /// Attach the device under a different owning host socket.
    pub fn owned_by(mut self, host: u16) -> Self {
        self.owner_host = host;
        self
    }
}

/// One node of the fabric tree below the host root ports.
#[derive(Debug, Clone)]
pub enum FabricNode {
    /// A CXL switch fanning out to children.
    Switch {
        /// Display name, unique across the topology.
        name: String,
        /// Downstream ports in order.
        children: Vec<FabricNode>,
    },
    /// A device leaf.
    Device(DeviceSpec),
}

/// One HDM decoder: a host-physical window interleaved across target
/// devices, exactly as a root complex programs it.
#[derive(Debug, Clone)]
pub struct DecoderSpec {
    /// First host-physical line of the window.
    pub base_line: u64,
    /// Window length in lines; must be a multiple of
    /// `ways × granularity`.
    pub size_lines: u64,
    /// Interleave ways: 1, 2, 4, or 8. Must equal `targets.len()`.
    pub ways: u8,
    /// Interleave granularity in bytes (power of two, ≥ 64).
    pub granularity_bytes: u64,
    /// Target device names, one per way, in way order.
    pub targets: Vec<String>,
    /// Device-local line each target's contribution starts at.
    pub dpa_base_line: u64,
}

/// The declarative description a fabric is built from.
#[derive(Debug, Clone)]
pub struct TopologySpec {
    /// Hosts, in id order.
    pub hosts: Vec<HostSpec>,
    /// The fabric tree hanging off the hosts' root ports.
    pub root: FabricNode,
    /// HDM decoder programming.
    pub decoders: Vec<DecoderSpec>,
}

/// Why a [`TopologySpec`] failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// The spec names no hosts.
    NoHosts,
    /// The fabric tree contains no devices.
    NoDevices,
    /// A device names an owning host index outside the host list.
    BadOwner {
        /// Device name.
        device: String,
        /// The out-of-range owner index.
        owner: u16,
        /// How many hosts the spec declares.
        hosts: usize,
    },
    /// Two nodes share a name.
    DuplicateName(String),
    /// A decoder targets a name that is not a device in the tree.
    UnknownTarget(String),
    /// A decoder lists the same device on two ways.
    RepeatedTarget(String),
    /// Interleave ways not in {1, 2, 4, 8} or ≠ target count.
    BadWays(u8),
    /// Granularity not a power of two ≥ 64 B.
    BadGranularity(u64),
    /// Window size zero or not a multiple of ways × granularity.
    BadWindow {
        /** offending base line */
        base_line: u64,
    },
    /// Two decoder windows overlap in host-physical space.
    Overlap {
        /** lower window base */
        a: u64,
        /** higher window base */
        b: u64,
    },
    /// Two decoders map overlapping device-local ranges on one device.
    DpaOverlap(String),
    /// A decoder's device-local range exceeds the device capacity.
    CapacityExceeded(String),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::NoHosts => write!(f, "topology has no hosts"),
            TopologyError::NoDevices => write!(f, "topology has no devices"),
            TopologyError::BadOwner {
                device,
                owner,
                hosts,
            } => write!(
                f,
                "device {device:?} owned by host {owner} but only {hosts} host(s) declared"
            ),
            TopologyError::DuplicateName(n) => write!(f, "duplicate node name {n:?}"),
            TopologyError::UnknownTarget(n) => write!(f, "decoder targets unknown device {n:?}"),
            TopologyError::RepeatedTarget(n) => {
                write!(f, "decoder lists device {n:?} on more than one way")
            }
            TopologyError::BadWays(w) => write!(f, "interleave ways {w} not in {{1,2,4,8}}"),
            TopologyError::BadGranularity(g) => {
                write!(f, "granularity {g} B is not a power of two >= 64")
            }
            TopologyError::BadWindow { base_line } => write!(
                f,
                "decoder at line {base_line} has a zero or misaligned window"
            ),
            TopologyError::Overlap { a, b } => {
                write!(f, "decoder windows at lines {a} and {b} overlap")
            }
            TopologyError::DpaOverlap(n) => {
                write!(f, "device {n:?} receives overlapping device-local ranges")
            }
            TopologyError::CapacityExceeded(n) => {
                write!(f, "decoder range exceeds capacity of device {n:?}")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// A device in a resolved topology.
#[derive(Debug, Clone)]
pub struct DeviceInfo {
    /// Depth-first id.
    pub id: DeviceId,
    /// Spec name.
    pub name: String,
    /// Type-2 or Type-3.
    pub kind: DeviceKind,
    /// DCOH slice count.
    pub dcoh_slices: usize,
    /// Capacity in lines.
    pub capacity_lines: u64,
    /// Switch hops between the root port and this device.
    pub hops: u8,
    /// Index of the owning host socket (validated against the host list).
    pub owner_host: u16,
}

/// A validated HDM decoder with name targets resolved to [`DeviceId`]s
/// and granularity converted to lines.
#[derive(Debug, Clone)]
pub struct HdmDecoder {
    /// First host-physical line of the window.
    pub base_line: u64,
    /// Window length in lines.
    pub size_lines: u64,
    /// Interleave ways.
    pub ways: u8,
    /// Granularity in lines.
    pub granularity_lines: u64,
    /// Way targets.
    pub targets: Vec<DeviceId>,
    /// Device-local start line of each target's contribution.
    pub dpa_base_line: u64,
}

impl HdmDecoder {
    fn contains(&self, line: u64) -> bool {
        line >= self.base_line && line - self.base_line < self.size_lines
    }

    /// Lines each target contributes to this window.
    pub fn lines_per_target(&self) -> u64 {
        self.size_lines / self.ways as u64
    }
}

/// One successful address decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decoded {
    /// The target device.
    pub device: DeviceId,
    /// Device-local line address.
    pub dpa_line: u64,
    /// Which interleave way the address fell on.
    pub way: u8,
    /// Index of the decoder that matched.
    pub decoder: usize,
}

/// The validated set of HDM decoders: the address-decode function of the
/// whole fabric.
#[derive(Debug, Clone, Default)]
pub struct DecoderSet {
    decoders: Vec<HdmDecoder>,
}

impl DecoderSet {
    /// The decoders, sorted by base line.
    pub fn decoders(&self) -> &[HdmDecoder] {
        &self.decoders
    }

    /// Decodes a host-physical line into `(device, device-local line)`.
    /// `None` means the address is host DRAM (or unmapped).
    pub fn decode(&self, line: u64) -> Option<Decoded> {
        let (i, d) = self
            .decoders
            .iter()
            .enumerate()
            .find(|(_, d)| d.contains(line))?;
        let off = line - d.base_line;
        let g = d.granularity_lines;
        let ways = d.ways as u64;
        let chunk = off / g;
        let way = (chunk % ways) as u8;
        let dpa_line = d.dpa_base_line + (chunk / ways) * g + off % g;
        Some(Decoded {
            device: d.targets[way as usize],
            dpa_line,
            way,
            decoder: i,
        })
    }

    /// The inverse of [`DecoderSet::decode`]: the host-physical line a
    /// device-local line is visible at, if any decoder maps it.
    pub fn encode(&self, device: DeviceId, dpa_line: u64) -> Option<u64> {
        for d in &self.decoders {
            let Some(way) = d.targets.iter().position(|&t| t == device) else {
                continue;
            };
            if dpa_line < d.dpa_base_line {
                continue;
            }
            let rel = dpa_line - d.dpa_base_line;
            if rel >= d.lines_per_target() {
                continue;
            }
            let g = d.granularity_lines;
            let chunk = (rel / g) * d.ways as u64 + way as u64;
            return Some(d.base_line + chunk * g + rel % g);
        }
        None
    }

    /// Total host-physical lines mapped across all windows.
    pub fn mapped_lines(&self) -> u64 {
        self.decoders.iter().map(|d| d.size_lines).sum()
    }
}

/// A validated topology: devices in depth-first order plus the decode
/// function.
#[derive(Debug, Clone)]
pub struct Topology {
    hosts: Vec<HostSpec>,
    devices: Vec<DeviceInfo>,
    decoders: DecoderSet,
}

impl Topology {
    /// Hosts in id order.
    pub fn hosts(&self) -> &[HostSpec] {
        &self.hosts
    }

    /// Devices in depth-first id order.
    pub fn devices(&self) -> &[DeviceInfo] {
        &self.devices
    }

    /// The HDM decode function.
    pub fn decoders(&self) -> &DecoderSet {
        &self.decoders
    }

    /// The device with the given id.
    pub fn device(&self, id: DeviceId) -> &DeviceInfo {
        &self.devices[id.0 as usize]
    }

    /// Newick-style rendering of the tree (CXLMemSim's topology syntax):
    /// `(host0,(dev0,dev1))`.
    pub fn newick(&self) -> String {
        let hosts: Vec<&str> = self.hosts.iter().map(|h| h.name.as_str()).collect();
        let devs: Vec<&str> = self.devices.iter().map(|d| d.name.as_str()).collect();
        if devs.len() == 1 {
            format!("({},{})", hosts.join(","), devs[0])
        } else {
            format!("({},({}))", hosts.join(","), devs.join(","))
        }
    }
}

fn collect_devices(
    node: &FabricNode,
    depth: u8,
    out: &mut Vec<DeviceInfo>,
    names: &mut Vec<String>,
) -> Result<(), TopologyError> {
    match node {
        FabricNode::Switch { name, children } => {
            if names.iter().any(|n| n == name) {
                return Err(TopologyError::DuplicateName(name.clone()));
            }
            names.push(name.clone());
            for c in children {
                collect_devices(c, depth + 1, out, names)?;
            }
        }
        FabricNode::Device(spec) => {
            if names.iter().any(|n| n == &spec.name) {
                return Err(TopologyError::DuplicateName(spec.name.clone()));
            }
            names.push(spec.name.clone());
            out.push(DeviceInfo {
                id: DeviceId(out.len() as u16),
                name: spec.name.clone(),
                kind: spec.kind,
                dcoh_slices: spec.dcoh_slices,
                capacity_lines: spec.capacity_lines,
                hops: depth,
                owner_host: spec.owner_host,
            });
        }
    }
    Ok(())
}

impl TopologySpec {
    /// The degenerate 1-host × 1-device topology: one identity decoder
    /// mapping `[base_line, base_line + size_lines)` straight onto
    /// `dev0`'s local lines `[0, size_lines)` — the shape every
    /// pre-fabric harness assumed.
    pub fn single_device(base_line: u64, size_lines: u64) -> Self {
        TopologySpec::symmetric(1, 1, base_line, size_lines, 256)
    }

    /// `devices` identical Type-2 cards behind one root port, with
    /// `devices / ways` decoders each interleaving `ways` consecutive
    /// devices at `granularity_bytes`. Each device contributes
    /// `size_lines` of capacity starting at local line 0, so the total
    /// mapped window is `devices × size_lines`.
    ///
    /// # Panics
    ///
    /// Panics if `ways` does not divide `devices`.
    pub fn symmetric(
        devices: usize,
        ways: u8,
        base_line: u64,
        size_lines: u64,
        granularity_bytes: u64,
    ) -> Self {
        assert!(devices >= 1 && ways as usize >= 1);
        assert!(
            devices.is_multiple_of(ways as usize),
            "ways {ways} must divide device count {devices}"
        );
        let specs: Vec<DeviceSpec> = (0..devices)
            .map(|i| DeviceSpec::type2(format!("dev{i}")))
            .collect();
        let root = if devices == 1 {
            FabricNode::Device(specs.into_iter().next().unwrap())
        } else {
            FabricNode::Switch {
                name: "sw0".into(),
                children: specs.into_iter().map(FabricNode::Device).collect(),
            }
        };
        let groups = devices / ways as usize;
        let window = size_lines * ways as u64;
        let decoders = (0..groups)
            .map(|g| DecoderSpec {
                base_line: base_line + g as u64 * window,
                size_lines: window,
                ways,
                granularity_bytes,
                targets: (0..ways as usize)
                    .map(|w| format!("dev{}", g * ways as usize + w))
                    .collect(),
                dpa_base_line: 0,
            })
            .collect();
        TopologySpec {
            hosts: vec![HostSpec {
                name: "host0".into(),
            }],
            root,
            decoders,
        }
    }

    /// Validates the spec and resolves names into ids.
    pub fn resolve(&self) -> Result<Topology, TopologyError> {
        if self.hosts.is_empty() {
            return Err(TopologyError::NoHosts);
        }
        let mut names: Vec<String> = self.hosts.iter().map(|h| h.name.clone()).collect();
        if let Some(dup) = self
            .hosts
            .iter()
            .enumerate()
            .find(|(i, h)| self.hosts[..*i].iter().any(|p| p.name == h.name))
        {
            return Err(TopologyError::DuplicateName(dup.1.name.clone()));
        }
        let mut devices = Vec::new();
        collect_devices(&self.root, 0, &mut devices, &mut names)?;
        if devices.is_empty() {
            return Err(TopologyError::NoDevices);
        }
        for d in &devices {
            if d.owner_host as usize >= self.hosts.len() {
                return Err(TopologyError::BadOwner {
                    device: d.name.clone(),
                    owner: d.owner_host,
                    hosts: self.hosts.len(),
                });
            }
        }
        let lookup =
            |name: &str| -> Option<&DeviceInfo> { devices.iter().find(|d| d.name == name) };

        let mut resolved = Vec::with_capacity(self.decoders.len());
        for d in &self.decoders {
            if !matches!(d.ways, 1 | 2 | 4 | 8) || d.ways as usize != d.targets.len() {
                return Err(TopologyError::BadWays(d.ways));
            }
            if d.granularity_bytes < LINE_BYTES || !d.granularity_bytes.is_power_of_two() {
                return Err(TopologyError::BadGranularity(d.granularity_bytes));
            }
            let g = d.granularity_bytes / LINE_BYTES;
            if d.size_lines == 0 || d.size_lines % (g * d.ways as u64) != 0 {
                return Err(TopologyError::BadWindow {
                    base_line: d.base_line,
                });
            }
            let mut targets = Vec::with_capacity(d.targets.len());
            for t in &d.targets {
                let info = lookup(t).ok_or_else(|| TopologyError::UnknownTarget(t.clone()))?;
                if targets.contains(&info.id) {
                    return Err(TopologyError::RepeatedTarget(t.clone()));
                }
                if d.dpa_base_line + d.size_lines / d.ways as u64 > info.capacity_lines {
                    return Err(TopologyError::CapacityExceeded(t.clone()));
                }
                targets.push(info.id);
            }
            resolved.push(HdmDecoder {
                base_line: d.base_line,
                size_lines: d.size_lines,
                ways: d.ways,
                granularity_lines: g,
                targets,
                dpa_base_line: d.dpa_base_line,
            });
        }
        resolved.sort_by_key(|d| d.base_line);
        for pair in resolved.windows(2) {
            if pair[0].base_line + pair[0].size_lines > pair[1].base_line {
                return Err(TopologyError::Overlap {
                    a: pair[0].base_line,
                    b: pair[1].base_line,
                });
            }
        }
        // Device-local windows must not collide either: two decoders may
        // target the same device only with disjoint dpa ranges.
        for info in &devices {
            let mut windows: Vec<(u64, u64)> = resolved
                .iter()
                .filter(|d| d.targets.contains(&info.id))
                .map(|d| (d.dpa_base_line, d.lines_per_target()))
                .collect();
            windows.sort_unstable();
            for pair in windows.windows(2) {
                if pair[0].0 + pair[0].1 > pair[1].0 {
                    return Err(TopologyError::DpaOverlap(info.name.clone()));
                }
            }
        }
        Ok(Topology {
            hosts: self.hosts.clone(),
            devices,
            decoders: DecoderSet { decoders: resolved },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_device_decode_is_identity() {
        let topo = TopologySpec::single_device(1 << 20, 1 << 16)
            .resolve()
            .unwrap();
        let d = topo.decoders().decode((1 << 20) + 12345).unwrap();
        assert_eq!(d.device, DeviceId(0));
        assert_eq!(d.dpa_line, 12345);
        assert_eq!(d.way, 0);
        assert_eq!(
            topo.decoders().encode(DeviceId(0), 12345),
            Some((1 << 20) + 12345)
        );
        assert!(topo.decoders().decode((1 << 20) + (1 << 16)).is_none());
        assert!(topo.decoders().decode(0).is_none());
    }

    #[test]
    fn two_way_interleave_alternates_by_granule() {
        // 256 B granularity = 4 lines per granule.
        let topo = TopologySpec::symmetric(2, 2, 0, 1 << 12, 256)
            .resolve()
            .unwrap();
        for line in 0..16u64 {
            let d = topo.decoders().decode(line).unwrap();
            assert_eq!(d.device.0, ((line / 4) % 2) as u16, "line {line}");
            assert_eq!(d.way as u16, d.device.0);
        }
        // Device-local addresses compact: lines 0..4 and 8..12 both land
        // on dev0 at dpa 0..4 and 4..8.
        assert_eq!(topo.decoders().decode(8).unwrap().dpa_line, 4);
    }

    #[test]
    fn ways_one_groups_are_contiguous_blocks() {
        let topo = TopologySpec::symmetric(2, 1, 0, 1 << 10, 256)
            .resolve()
            .unwrap();
        assert_eq!(topo.decoders().decode(0).unwrap().device, DeviceId(0));
        assert_eq!(
            topo.decoders().decode((1 << 10) - 1).unwrap().device,
            DeviceId(0)
        );
        assert_eq!(topo.decoders().decode(1 << 10).unwrap().device, DeviceId(1));
    }

    #[test]
    fn overlapping_windows_rejected() {
        let mut spec = TopologySpec::symmetric(2, 1, 0, 1 << 10, 256);
        spec.decoders[1].base_line = 512;
        assert!(matches!(
            spec.resolve(),
            Err(TopologyError::Overlap { a: 0, b: 512 })
        ));
    }

    #[test]
    fn bad_ways_and_granularity_rejected() {
        let mut spec = TopologySpec::symmetric(1, 1, 0, 1 << 10, 256);
        spec.decoders[0].ways = 3;
        assert!(matches!(spec.resolve(), Err(TopologyError::BadWays(3))));
        let mut spec = TopologySpec::symmetric(1, 1, 0, 1 << 10, 256);
        spec.decoders[0].granularity_bytes = 96;
        assert!(matches!(
            spec.resolve(),
            Err(TopologyError::BadGranularity(96))
        ));
    }

    #[test]
    fn duplicate_names_rejected() {
        let spec = TopologySpec {
            hosts: vec![HostSpec { name: "h".into() }],
            root: FabricNode::Switch {
                name: "sw".into(),
                children: vec![
                    FabricNode::Device(DeviceSpec::type2("dup")),
                    FabricNode::Device(DeviceSpec::type2("dup")),
                ],
            },
            decoders: vec![],
        };
        assert!(matches!(
            spec.resolve(),
            Err(TopologyError::DuplicateName(_))
        ));
    }

    #[test]
    fn newick_renders_tree() {
        let topo = TopologySpec::symmetric(2, 2, 0, 1 << 10, 256)
            .resolve()
            .unwrap();
        assert_eq!(topo.newick(), "(host0,(dev0,dev1))");
    }

    #[test]
    fn switch_depth_recorded_as_hops() {
        let topo = TopologySpec::symmetric(4, 4, 0, 1 << 12, 256)
            .resolve()
            .unwrap();
        assert!(topo.devices().iter().all(|d| d.hops == 1));
        let solo = TopologySpec::single_device(0, 1 << 10).resolve().unwrap();
        assert_eq!(solo.device(DeviceId(0)).hops, 0);
    }

    #[test]
    fn owner_host_resolves_and_validates() {
        let mut spec = TopologySpec::symmetric(2, 1, 0, 1 << 10, 256);
        spec.hosts.push(HostSpec {
            name: "host1".into(),
        });
        if let FabricNode::Switch { children, .. } = &mut spec.root {
            if let FabricNode::Device(d) = &mut children[1] {
                d.owner_host = 1;
            }
        }
        let topo = spec.resolve().unwrap();
        assert_eq!(topo.device(DeviceId(0)).owner_host, 0);
        assert_eq!(topo.device(DeviceId(1)).owner_host, 1);

        // An owner index past the host list is rejected, not clamped.
        let mut bad = TopologySpec::single_device(0, 1 << 10);
        if let FabricNode::Device(d) = &mut bad.root {
            d.owner_host = 3;
        }
        assert!(matches!(
            bad.resolve(),
            Err(TopologyError::BadOwner {
                owner: 3,
                hosts: 1,
                ..
            })
        ));
    }
}
