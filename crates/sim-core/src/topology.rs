//! HDM address decode.
//!
//! The paper measures one host socket with one Type-2 card; the simulator
//! keeps that one host and lets it carry N identical cards. A
//! [`DecoderSet`] is the HDM (host-managed device memory) decoder
//! programming that maps host-physical line addresses onto
//! `(device, device-local address)` pairs with 1/2/4/8-way interleave at
//! a configurable granularity — the same decode a real root complex
//! performs before a CXL.mem request leaves the socket.
//!
//! Everything here is pure data and arithmetic: no timing, no device
//! state. `cxl-type2`'s fabric routes every host access through it, and
//! the 1-device set decodes to the identity, which keeps the singleton
//! platform byte-identical.
//!
//! # Examples
//!
//! ```
//! use sim_core::topology::DecoderSet;
//!
//! // Two Type-2 devices, 2-way interleaved at 256 B, window base line 64.
//! let dec = DecoderSet::symmetric(2, 2, 64, 1 << 20, 256);
//! // Consecutive 256 B chunks alternate devices.
//! let d0 = dec.decode(64).unwrap();
//! let d1 = dec.decode(64 + 4).unwrap();
//! assert_ne!(d0.device, d1.device);
//! // Decode round-trips through encode.
//! assert_eq!(dec.encode(d0.device, d0.dpa_line), Some(64));
//! ```

use std::fmt;

/// Bytes per cache line (the decode granularity floor).
pub const LINE_BYTES: u64 = 64;

/// Identity of a device in a fabric: its index in device order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DeviceId(pub u16);

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dev{}", self.0)
    }
}

/// One HDM decoder: a host-physical window interleaved across target
/// devices, exactly as a root complex programs it. Each target's share
/// starts at its device-local line 0.
#[derive(Debug, Clone)]
struct HdmDecoder {
    /// First host-physical line of the window.
    base_line: u64,
    /// Window length in lines.
    size_lines: u64,
    /// Interleave ways.
    ways: u8,
    /// Granularity in lines.
    granularity_lines: u64,
    /// Way targets.
    targets: Vec<DeviceId>,
}

impl HdmDecoder {
    fn contains(&self, line: u64) -> bool {
        line >= self.base_line && line - self.base_line < self.size_lines
    }

    /// Lines each target contributes to this window.
    fn lines_per_target(&self) -> u64 {
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
}

/// The set of HDM decoders: the address-decode function of the whole
/// fabric.
#[derive(Debug, Clone)]
pub struct DecoderSet {
    decoders: Vec<HdmDecoder>,
}

impl DecoderSet {
    /// `devices` identical cards behind one host, programmed as
    /// `devices / ways` decoders, each interleaving `ways` consecutive
    /// devices at `granularity_bytes`. Each device contributes
    /// `size_lines` starting at its local line 0, so decoder `g` covers
    /// `[base_line + g·ways·size_lines, base_line + (g+1)·ways·size_lines)`
    /// and the whole mapped window is `devices × size_lines`.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is not 1, 2, 4 or 8, if `ways` does not divide
    /// `devices`, if `granularity_bytes` is not a power of two ≥ 64, or
    /// if `size_lines` is zero or not a multiple of the granule.
    pub fn symmetric(
        devices: usize,
        ways: u8,
        base_line: u64,
        size_lines: u64,
        granularity_bytes: u64,
    ) -> Self {
        assert!(
            matches!(ways, 1 | 2 | 4 | 8),
            "interleave ways {ways} not in {{1,2,4,8}}"
        );
        assert!(
            devices >= 1 && devices.is_multiple_of(ways as usize),
            "ways {ways} must divide device count {devices}"
        );
        assert!(
            granularity_bytes >= LINE_BYTES && granularity_bytes.is_power_of_two(),
            "granularity {granularity_bytes} B is not a power of two >= 64"
        );
        let g = granularity_bytes / LINE_BYTES;
        assert!(
            size_lines > 0 && size_lines.is_multiple_of(g),
            "per-device window of {size_lines} lines is not a nonzero multiple of the {g}-line granule"
        );
        let ways_n = ways as usize;
        let window = size_lines * ways as u64;
        let decoders = (0..devices / ways_n)
            .map(|group| HdmDecoder {
                base_line: base_line + group as u64 * window,
                size_lines: window,
                ways,
                granularity_lines: g,
                targets: (0..ways_n)
                    .map(|w| DeviceId((group * ways_n + w) as u16))
                    .collect(),
            })
            .collect();
        DecoderSet { decoders }
    }

    /// Decodes a host-physical line into `(device, device-local line)`.
    /// `None` means the address is host DRAM (or unmapped).
    pub fn decode(&self, line: u64) -> Option<Decoded> {
        let d = self.decoders.iter().find(|d| d.contains(line))?;
        let off = line - d.base_line;
        let g = d.granularity_lines;
        let ways = d.ways as u64;
        let chunk = off / g;
        let way = (chunk % ways) as u8;
        let dpa_line = (chunk / ways) * g + off % g;
        Some(Decoded {
            device: d.targets[way as usize],
            dpa_line,
            way,
        })
    }

    /// The inverse of [`DecoderSet::decode`]: the host-physical line a
    /// device-local line is visible at, if any decoder maps it.
    pub fn encode(&self, device: DeviceId, dpa_line: u64) -> Option<u64> {
        for d in &self.decoders {
            let Some(way) = d.targets.iter().position(|&t| t == device) else {
                continue;
            };
            if dpa_line >= d.lines_per_target() {
                continue;
            }
            let g = d.granularity_lines;
            let chunk = (dpa_line / g) * d.ways as u64 + way as u64;
            return Some(d.base_line + chunk * g + dpa_line % g);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_device_decode_is_identity() {
        let dec = DecoderSet::symmetric(1, 1, 1 << 20, 1 << 16, 256);
        let d = dec.decode((1 << 20) + 12345).unwrap();
        assert_eq!(d.device, DeviceId(0));
        assert_eq!(d.dpa_line, 12345);
        assert_eq!(d.way, 0);
        assert_eq!(dec.encode(DeviceId(0), 12345), Some((1 << 20) + 12345));
        assert!(dec.decode((1 << 20) + (1 << 16)).is_none());
        assert!(dec.decode(0).is_none());
    }

    #[test]
    fn two_way_interleave_alternates_by_granule() {
        // 256 B granularity = 4 lines per granule.
        let dec = DecoderSet::symmetric(2, 2, 0, 1 << 12, 256);
        for line in 0..16u64 {
            let d = dec.decode(line).unwrap();
            assert_eq!(d.device.0, ((line / 4) % 2) as u16, "line {line}");
            assert_eq!(d.way as u16, d.device.0);
        }
        // Device-local addresses compact: lines 0..4 and 8..12 both land
        // on dev0 at dpa 0..4 and 4..8.
        assert_eq!(dec.decode(8).unwrap().dpa_line, 4);
    }

    #[test]
    fn ways_one_groups_are_contiguous_blocks() {
        let dec = DecoderSet::symmetric(2, 1, 0, 1 << 10, 256);
        assert_eq!(dec.decode(0).unwrap().device, DeviceId(0));
        assert_eq!(dec.decode((1 << 10) - 1).unwrap().device, DeviceId(0));
        assert_eq!(dec.decode(1 << 10).unwrap().device, DeviceId(1));
    }

    #[test]
    #[should_panic(expected = "interleave ways 3")]
    fn bad_ways_rejected() {
        let _ = DecoderSet::symmetric(3, 3, 0, 1 << 10, 256);
    }

    #[test]
    #[should_panic(expected = "must divide device count")]
    fn ways_not_dividing_devices_rejected() {
        let _ = DecoderSet::symmetric(3, 2, 0, 1 << 10, 256);
    }

    #[test]
    #[should_panic(expected = "granularity 96 B")]
    fn bad_granularity_rejected() {
        let _ = DecoderSet::symmetric(1, 1, 0, 1 << 10, 96);
    }

    #[test]
    #[should_panic(expected = "not a nonzero multiple")]
    fn window_off_the_granule_rejected() {
        let _ = DecoderSet::symmetric(1, 1, 0, 6, 256);
    }
}
