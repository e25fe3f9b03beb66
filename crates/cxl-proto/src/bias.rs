//! Bias modes for device-memory regions (§IV-B).
//!
//! A CXL Type-2 device manages host-device coherence for its own memory in
//! one of two modes per region. In *host-bias* mode, DCOH snoops the host
//! before serving D2D requests (hardware coherence, fine-grained CHC). In
//! *device-bias* mode it skips the snoop for lower latency, and software is
//! responsible for coherence (coarse-grained CHC). Regions switch modes at
//! runtime: entering device bias requires a host cache flush; any H2D access
//! to a device-bias region flips it back to host bias.

use core::ops::Range;

use sim_core::trace::BiasKind;

/// A device-memory region with an associated bias mode.
#[derive(Debug, Clone, PartialEq, Eq)]
struct BiasRegion {
    /// Byte-address range of the region within device memory.
    range: Range<u64>,
    /// Current bias mode.
    mode: BiasKind,
}

/// Tracks the bias mode of device-memory regions and the transitions
/// between modes.
///
/// # Examples
///
/// ```
/// use cxl_proto::bias::BiasTable;
/// use sim_core::trace::BiasKind;
///
/// let mut table = BiasTable::new();
/// table.define_region(0..4096, BiasKind::DeviceBias);
/// assert_eq!(table.mode_of(100), BiasKind::DeviceBias);
/// // An H2D access flips the region back to host bias (§IV-B).
/// table.on_h2d_access(100);
/// assert_eq!(table.mode_of(100), BiasKind::HostBias);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BiasTable {
    /// Non-overlapping, sorted by `range.start` (so also by `range.end`).
    regions: Vec<BiasRegion>,
    flips_to_host: u64,
    switches_to_device: u64,
}

impl BiasTable {
    /// Creates an empty table; addresses not covered by any region default
    /// to [`BiasKind::HostBias`].
    pub fn new() -> Self {
        BiasTable::default()
    }

    /// Defines a region with an initial mode.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or overlaps an existing region.
    pub fn define_region(&mut self, range: Range<u64>, mode: BiasKind) {
        assert!(range.start < range.end, "bias region must be non-empty");
        let at = self
            .regions
            .partition_point(|r| r.range.start < range.start);
        // Sorted and disjoint: only the two neighbours can overlap.
        let clear_before = at == 0 || self.regions[at - 1].range.end <= range.start;
        let clear_after = self
            .regions
            .get(at)
            .is_none_or(|r| range.end <= r.range.start);
        assert!(clear_before && clear_after, "bias regions must not overlap");
        self.regions.insert(at, BiasRegion { range, mode });
    }

    fn region_index(&self, addr: u64) -> Option<usize> {
        let after = self.regions.partition_point(|r| r.range.start <= addr);
        after
            .checked_sub(1)
            .filter(|&i| addr < self.regions[i].range.end)
    }

    fn region_mut(&mut self, addr: u64) -> Option<&mut BiasRegion> {
        self.region_index(addr).map(|i| &mut self.regions[i])
    }

    /// The mode governing a device-memory byte address.
    pub fn mode_of(&self, addr: u64) -> BiasKind {
        self.region_index(addr)
            .map_or(BiasKind::HostBias, |i| self.regions[i].mode)
    }

    /// Switches the region containing `addr` to device bias.
    ///
    /// The caller must first perform the software preparation the paper
    /// describes (flush the host-cache lines of the range); the
    /// `cxl-type2` crate's device wrapper enforces that.
    ///
    /// Returns `true` if a region was found and switched.
    pub fn switch_to_device_bias(&mut self, addr: u64) -> bool {
        if let Some(r) = self.region_mut(addr) {
            if r.mode != BiasKind::DeviceBias {
                r.mode = BiasKind::DeviceBias;
                self.switches_to_device += 1;
            }
            true
        } else {
            false
        }
    }

    /// Explicitly returns the region containing `addr` to host bias — the
    /// policy-daemon path, as opposed to the implicit [`on_h2d_access`]
    /// flip hardware performs. The caller flushes dirty device-cache
    /// copies first; the `cxl-type2` device wrapper enforces that.
    ///
    /// Counts toward the same `flips_to_host` total as H2D flips (both
    /// are device→host transitions). Returns `true` if a region was
    /// found and was in device bias.
    ///
    /// [`on_h2d_access`]: BiasTable::on_h2d_access
    pub fn switch_to_host_bias(&mut self, addr: u64) -> bool {
        if let Some(r) = self.region_mut(addr) {
            if r.mode != BiasKind::HostBias {
                r.mode = BiasKind::HostBias;
                self.flips_to_host += 1;
                return true;
            }
        }
        false
    }

    /// Records an H2D access: if it falls in a device-bias region, the
    /// region exits device bias (§IV-B). Returns the mode in force *after*
    /// the access.
    pub fn on_h2d_access(&mut self, addr: u64) -> BiasKind {
        let mut flipped = false;
        let mode = if let Some(r) = self.region_mut(addr) {
            if r.mode == BiasKind::DeviceBias {
                r.mode = BiasKind::HostBias;
                flipped = true;
            }
            r.mode
        } else {
            BiasKind::HostBias
        };
        if flipped {
            self.flips_to_host += 1;
        }
        mode
    }

    /// (host-bias flips caused by H2D, explicit switches to device bias).
    pub fn transition_counts(&self) -> (u64, u64) {
        (self.flips_to_host, self.switches_to_device)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_mode_is_host_bias() {
        let table = BiasTable::new();
        assert_eq!(table.mode_of(0xdead), BiasKind::HostBias);
        assert_eq!(BiasKind::default(), BiasKind::HostBias);
    }

    #[test]
    fn regions_carry_their_mode() {
        let mut t = BiasTable::new();
        t.define_region(0..4096, BiasKind::DeviceBias);
        t.define_region(4096..8192, BiasKind::HostBias);
        assert_eq!(t.mode_of(0), BiasKind::DeviceBias);
        assert_eq!(t.mode_of(4095), BiasKind::DeviceBias);
        assert_eq!(t.mode_of(4096), BiasKind::HostBias);
        assert_eq!(t.mode_of(8191), BiasKind::HostBias);
        // A gap also reads as host bias; only a defined region switches.
        assert!(t.clone().switch_to_device_bias(8191));
        assert!(!t.clone().switch_to_device_bias(8192));
    }

    #[test]
    fn h2d_access_exits_device_bias() {
        let mut t = BiasTable::new();
        t.define_region(0..4096, BiasKind::DeviceBias);
        assert_eq!(t.on_h2d_access(64), BiasKind::HostBias);
        assert_eq!(t.mode_of(64), BiasKind::HostBias);
        assert_eq!(t.transition_counts().0, 1);
        // Second access does not count another flip.
        t.on_h2d_access(64);
        assert_eq!(t.transition_counts().0, 1);
    }

    #[test]
    fn switching_back_to_device_bias() {
        let mut t = BiasTable::new();
        t.define_region(0..4096, BiasKind::HostBias);
        assert!(t.switch_to_device_bias(10));
        assert_eq!(t.mode_of(10), BiasKind::DeviceBias);
        assert_eq!(t.transition_counts().1, 1);
        assert!(!t.switch_to_device_bias(99_999), "unknown region");
    }

    #[test]
    fn explicit_switch_to_host_bias() {
        let mut t = BiasTable::new();
        t.define_region(0..4096, BiasKind::DeviceBias);
        assert!(t.switch_to_host_bias(64));
        assert_eq!(t.mode_of(64), BiasKind::HostBias);
        assert_eq!(t.transition_counts().0, 1);
        // Already host-biased: no-op, no double count.
        assert!(!t.switch_to_host_bias(64));
        assert_eq!(t.transition_counts().0, 1);
        assert!(!t.switch_to_host_bias(99_999), "unknown region");
    }

    #[test]
    #[should_panic(expected = "must not overlap")]
    fn overlapping_regions_rejected() {
        let mut t = BiasTable::new();
        t.define_region(0..4096, BiasKind::HostBias);
        t.define_region(2048..6144, BiasKind::HostBias);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_region_rejected() {
        let mut t = BiasTable::new();
        t.define_region(5..5, BiasKind::HostBias);
    }
}
