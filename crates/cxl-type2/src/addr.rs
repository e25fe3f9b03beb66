//! Host vs device address-space partitioning and HDM address decode.
//!
//! CXL.mem exposes device memory in the host physical address space (the
//! device appears as a CPU-less NUMA node), so host LLC lines and device
//! DMC lines can refer to device memory with the *same* addresses. We carve
//! the line-address space: indices below [`DEVICE_MEM_BASE`] are host
//! memory; indices at or above it are device memory.
//!
//! With more than one device, *which* device owns a device-space line is
//! an HDM-decoder question. A fabric programs its [`DecoderSet`] with
//! windows starting at [`DEVICE_MEM_BASE`], `HDM_WINDOW_LINES` per card,
//! interleaved at `DEFAULT_INTERLEAVE_BYTES`; [`decode`] maps a
//! host-physical [`LineAddr`] to the owning device plus the device-local
//! address (still ≥ [`DEVICE_MEM_BASE`], so every `CxlDevice` entry point
//! keeps its device-space assertion). The one-card set decodes to the
//! identity — `decode` returns the input address — which is what keeps
//! singleton traces byte-identical.

use mem_subsys::line::LineAddr;
use sim_core::topology::{DecoderSet, DeviceId};

/// First line index of device-attached memory (1 TiB boundary).
pub const DEVICE_MEM_BASE: u64 = 1 << 34;

/// A host-memory line address from a host line index.
///
/// # Examples
///
/// ```
/// use cxl_type2::addr::{device_line, host_line, DEVICE_MEM_BASE};
///
/// assert_eq!(host_line(7).index(), 7);
/// assert_eq!(device_line(7).index(), DEVICE_MEM_BASE + 7);
/// ```
pub fn host_line(index: u64) -> LineAddr {
    assert!(
        index < DEVICE_MEM_BASE,
        "host line index overflows into device space"
    );
    LineAddr::new(index)
}

/// A device-memory line address from a device-local line index.
pub fn device_line(index: u64) -> LineAddr {
    LineAddr::new(DEVICE_MEM_BASE + index)
}

/// True if the line lives in device-attached memory.
pub(crate) fn is_device_addr(addr: LineAddr) -> bool {
    addr.index() >= DEVICE_MEM_BASE
}

/// The device-local line index of a device-memory address.
///
/// # Panics
///
/// Panics if `addr` is a host-memory address.
pub(crate) fn device_local_index(addr: LineAddr) -> u64 {
    assert!(is_device_addr(addr), "not a device-memory address: {addr}");
    addr.index() - DEVICE_MEM_BASE
}

/// The device-local *byte* offset of a device-memory address (used by the
/// bias table, which operates on byte ranges).
pub fn device_byte_offset(addr: LineAddr) -> u64 {
    device_local_index(addr) * mem_subsys::line::LINE_BYTES
}

/// Default HDM interleave granularity (the CXL spec's smallest, 256 B).
pub(crate) const DEFAULT_INTERLEAVE_BYTES: u64 = 256;

/// Device-local lines each card exposes through its decoder window
/// (32 GiB, the Agilex-7's two channels of 16 GiB).
pub(crate) const HDM_WINDOW_LINES: u64 = 1 << 29;

/// Decodes a host-physical line: `Some((device, device-local addr))` if
/// an HDM window maps it, `None` for host memory. The returned address is
/// re-based into device space (`device_line(dpa)`), so it satisfies
/// `is_device_addr` and can be handed to any `CxlDevice` entry point.
pub fn decode(decoders: &DecoderSet, addr: LineAddr) -> Option<(DeviceId, LineAddr)> {
    let d = decoders.decode(addr.index())?;
    Some((d.device, device_line(d.dpa_line)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decoders(devices: usize, ways: u8) -> DecoderSet {
        DecoderSet::symmetric(
            devices,
            ways,
            DEVICE_MEM_BASE,
            HDM_WINDOW_LINES,
            DEFAULT_INTERLEAVE_BYTES,
        )
    }

    #[test]
    fn identity_decode_for_single_device_spec() {
        let dec = decoders(1, 1);
        let a = device_line(123_456);
        let (id, local) = decode(&dec, a).unwrap();
        assert_eq!(id, DeviceId(0));
        assert_eq!(local, a, "1x1 decode must be the identity");
        assert!(decode(&dec, host_line(5)).is_none());
    }

    #[test]
    fn multi_device_decode_rebases_into_device_space() {
        // 256 B granularity = 4 lines: line 4 is way 1 → dev1, dpa 0.
        let (id, local) = decode(&decoders(2, 2), device_line(4)).unwrap();
        assert_eq!(id, DeviceId(1));
        assert_eq!(local, device_line(0));
        assert!(is_device_addr(local));
    }

    #[test]
    fn partitioning() {
        assert!(!is_device_addr(host_line(0)));
        assert!(!is_device_addr(host_line(DEVICE_MEM_BASE - 1)));
        assert!(is_device_addr(device_line(0)));
        assert_eq!(device_local_index(device_line(42)), 42);
        assert_eq!(device_byte_offset(device_line(2)), 128);
    }

    #[test]
    #[should_panic(expected = "overflows into device space")]
    fn host_line_bounds_checked() {
        let _ = host_line(DEVICE_MEM_BASE);
    }

    #[test]
    #[should_panic(expected = "not a device-memory address")]
    fn device_index_of_host_addr_panics() {
        let _ = device_local_index(host_line(1));
    }
}
