//! Functional three-level host cache hierarchy (L1D → L2 → LLC).
//!
//! Tag/state tracking only — timing is composed in [`crate::socket`]. The
//! LLC is the socket's coherence point: device-originated snoops (from the
//! DCOH in the `cxl-type2` crate) and remote-socket requests interrogate
//! and mutate LLC state through the `snoop_*`/`degrade_*` operations here.

use mem_subsys::cache::{Evicted, SetAssocCache};
use mem_subsys::coherence::MesiState;
use mem_subsys::line::LineAddr;

/// Which level of the hierarchy served an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HitLevel {
    /// L1 data cache.
    L1,
    /// Mid-level cache.
    L2,
    /// Last-level cache.
    Llc,
    /// DRAM.
    Memory,
}

/// The host cache hierarchy of one socket.
///
/// # Examples
///
/// ```
/// use host::hierarchy::HitLevel;
/// use host::socket::Socket;
/// use mem_subsys::line::LineAddr;
///
/// let mut h = Socket::xeon_6538y().caches;
/// let a = LineAddr::new(0x40);
/// assert_eq!(h.touch_load_with_victims(a).0, HitLevel::Memory); // cold
/// assert_eq!(h.touch_load_with_victims(a).0, HitLevel::L1); // now resident
/// ```
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    l1: SetAssocCache,
    l2: SetAssocCache,
    llc: SetAssocCache,
}

impl CacheHierarchy {
    /// Builds a hierarchy with explicit geometry.
    pub fn new(
        l1_bytes: u64,
        l1_ways: usize,
        l2_bytes: u64,
        l2_ways: usize,
        llc_bytes: u64,
        llc_ways: usize,
    ) -> Self {
        CacheHierarchy {
            l1: SetAssocCache::with_capacity(l1_bytes, l1_ways),
            l2: SetAssocCache::with_capacity(l2_bytes, l2_ways),
            llc: SetAssocCache::with_capacity(llc_bytes, llc_ways),
        }
    }

    /// The paper's per-socket geometry: 48 KiB/12-way L1D, 2 MiB/16-way L2,
    /// 60 MiB/12-way shared LLC (Table II).
    pub(crate) fn xeon_6538y() -> Self {
        CacheHierarchy::new(48 * 1024, 12, 2 * 1024 * 1024, 16, 60 * 1024 * 1024, 12)
    }

    /// The highest (fastest) level holding the line, with its state there.
    pub fn probe(&self, addr: LineAddr) -> Option<(HitLevel, MesiState)> {
        if let Some(s) = self.l1.probe(addr) {
            return Some((HitLevel::L1, s));
        }
        if let Some(s) = self.l2.probe(addr) {
            return Some((HitLevel::L2, s));
        }
        self.llc.probe(addr).map(|s| (HitLevel::Llc, s))
    }

    /// The LLC's view of the line (the state device snoops observe).
    pub fn llc_state(&self, addr: LineAddr) -> Option<MesiState> {
        self.llc.probe(addr)
    }

    /// True if any level holds the line.
    pub fn contains(&self, addr: LineAddr) -> bool {
        self.probe(addr).is_some()
    }

    fn fill_chain(&mut self, addr: LineAddr, state: MesiState) -> Vec<Evicted> {
        let mut dirty = Vec::new();
        if let Some(v) = self.l1.fill(addr, state) {
            if let Some(v2) = self.l2.fill(v.addr, v.state) {
                if v2.state.is_dirty() {
                    // Keep the dirty line coherent at the LLC level.
                    if !self.llc.set_state(v2.addr, MesiState::Modified) {
                        if let Some(v3) = self.llc.fill(v2.addr, MesiState::Modified) {
                            if v3.state.is_dirty() {
                                dirty.push(v3);
                            }
                        }
                    }
                }
            }
        }
        if let Some(v) = self.l2.fill(addr, state) {
            if v.state.is_dirty() && !self.llc.set_state(v.addr, MesiState::Modified) {
                if let Some(v3) = self.llc.fill(v.addr, MesiState::Modified) {
                    if v3.state.is_dirty() {
                        dirty.push(v3);
                    }
                }
            }
        }
        if let Some(v3) = self.llc.fill(addr, state) {
            if v3.state.is_dirty() {
                dirty.push(v3);
            }
        }
        dirty
    }

    /// A temporal load: returns the level that served it and the dirty
    /// LLC victims that must be written back to memory, and fills all
    /// levels. Cold fills enter Exclusive.
    pub fn touch_load_with_victims(&mut self, addr: LineAddr) -> (HitLevel, Vec<Evicted>) {
        if self.l1.lookup(addr).is_some() {
            return (HitLevel::L1, Vec::new());
        }
        if let Some(s) = self.l2.lookup(addr) {
            let dirty = self.fill_chain(addr, s);
            return (HitLevel::L2, dirty);
        }
        if let Some(s) = self.llc.lookup(addr) {
            let dirty = self.fill_chain(addr, s);
            return (HitLevel::Llc, dirty);
        }
        let dirty = self.fill_chain(addr, MesiState::Exclusive);
        (HitLevel::Memory, dirty)
    }

    /// A temporal store: returns the level that held the line (Memory when
    /// absent) and leaves it Modified at every level.
    pub fn touch_store(&mut self, addr: LineAddr) -> (HitLevel, Vec<Evicted>) {
        let level = match self.probe(addr) {
            Some((level, _)) => level,
            None => HitLevel::Memory,
        };
        let dirty = self.fill_chain(addr, MesiState::Modified);
        (level, dirty)
    }

    /// A non-temporal load: observes the serving level without filling.
    pub(crate) fn probe_level(&mut self, addr: LineAddr) -> HitLevel {
        match self.probe(addr) {
            Some((level, _)) => level,
            None => HitLevel::Memory,
        }
    }

    /// Invalidates the line everywhere; returns true if any level held it
    /// dirty (the caller owes a write-back unless overwriting the full
    /// line).
    pub fn invalidate(&mut self, addr: LineAddr) -> bool {
        let d1 = self.l1.invalidate(addr).is_some_and(MesiState::is_dirty);
        let d2 = self.l2.invalidate(addr).is_some_and(MesiState::is_dirty);
        let d3 = self.llc.invalidate(addr).is_some_and(MesiState::is_dirty);
        d1 || d2 || d3
    }

    /// Degrades the line to Shared everywhere (remote read snoop); returns
    /// true if it was dirty (the caller owes a write-back).
    pub fn degrade_to_shared(&mut self, addr: LineAddr) -> bool {
        let mut was_dirty = false;
        for cache in [&mut self.l1, &mut self.l2, &mut self.llc] {
            if let Some(s) = cache.probe(addr) {
                was_dirty |= s.is_dirty();
                cache.set_state(addr, MesiState::Shared);
            }
        }
        was_dirty
    }

    /// CLDEMOTE: pushes the line out of L1/L2 so it resides only in the LLC
    /// (the paper's methodology for constructing LLC-hit cases).
    pub fn demote(&mut self, addr: LineAddr) -> Vec<Evicted> {
        let s1 = self.l1.invalidate(addr);
        let s2 = self.l2.invalidate(addr);
        let state = match (s1, s2, self.llc.probe(addr)) {
            (Some(s), _, _) | (None, Some(s), _) => s,
            (None, None, Some(s)) => s,
            (None, None, None) => return Vec::new(),
        };
        match self.llc.fill(addr, state) {
            Some(v) if v.state.is_dirty() => vec![v],
            _ => Vec::new(),
        }
    }

    /// CLFLUSH: invalidates everywhere, reporting whether a write-back is
    /// owed.
    pub fn flush_line(&mut self, addr: LineAddr) -> bool {
        self.invalidate(addr)
    }

    /// Allocates the line directly into the LLC in Modified state, as NC-P
    /// pushes and DDIO-style DMA writes do. Returns dirty victims.
    pub(crate) fn push_llc_modified(&mut self, addr: LineAddr) -> Vec<Evicted> {
        // The pushed line supersedes any stale core-cache copies.
        self.l1.invalidate(addr);
        self.l2.invalidate(addr);
        match self.llc.fill(addr, MesiState::Modified) {
            Some(v) if v.state.is_dirty() => vec![v],
            _ => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CacheHierarchy {
        // Tiny geometry so eviction paths are exercised: 4-line L1,
        // 8-line L2, 16-line LLC.
        CacheHierarchy::new(4 * 64, 2, 8 * 64, 2, 16 * 64, 2)
    }

    fn line(i: u64) -> LineAddr {
        LineAddr::new(i)
    }

    #[test]
    fn cold_load_fills_all_levels() {
        let mut h = small();
        assert_eq!(h.touch_load_with_victims(line(1)).0, HitLevel::Memory);
        assert_eq!(h.probe(line(1)).unwrap().0, HitLevel::L1);
        assert_eq!(h.llc_state(line(1)), Some(MesiState::Exclusive));
    }

    #[test]
    fn store_leaves_modified() {
        let mut h = small();
        let (lvl, _) = h.touch_store(line(2));
        assert_eq!(lvl, HitLevel::Memory);
        assert_eq!(h.llc_state(line(2)), Some(MesiState::Modified));
        let (lvl2, _) = h.touch_store(line(2));
        assert_eq!(lvl2, HitLevel::L1);
    }

    #[test]
    fn nt_load_does_not_fill() {
        let mut h = small();
        assert_eq!(h.probe_level(line(3)), HitLevel::Memory);
        assert!(!h.contains(line(3)));
    }

    #[test]
    fn demote_moves_line_to_llc_only() {
        let mut h = small();
        h.touch_load_with_victims(line(4));
        h.demote(line(4));
        assert_eq!(h.probe(line(4)).unwrap().0, HitLevel::Llc);
        assert_eq!(h.touch_load_with_victims(line(4)).0, HitLevel::Llc);
    }

    #[test]
    fn invalidate_reports_dirtiness() {
        let mut h = small();
        h.touch_store(line(5));
        assert!(h.invalidate(line(5)));
        assert!(!h.contains(line(5)));
        h.touch_load_with_victims(line(6));
        assert!(!h.invalidate(line(6)), "clean line owes no write-back");
    }

    #[test]
    fn degrade_to_shared_everywhere() {
        let mut h = small();
        h.touch_store(line(7));
        assert!(h.degrade_to_shared(line(7)));
        assert_eq!(h.llc_state(line(7)), Some(MesiState::Shared));
        assert_eq!(h.probe(line(7)).unwrap().1, MesiState::Shared);
    }

    #[test]
    fn push_llc_modified_lands_in_llc() {
        let mut h = small();
        h.push_llc_modified(line(8));
        assert_eq!(h.probe(line(8)), Some((HitLevel::Llc, MesiState::Modified)));
    }

    #[test]
    fn push_llc_invalidates_stale_core_copies() {
        let mut h = small();
        h.touch_load_with_victims(line(9));
        h.push_llc_modified(line(9));
        // The line must now be *only* in LLC with the new data.
        assert_eq!(h.probe(line(9)), Some((HitLevel::Llc, MesiState::Modified)));
    }

    #[test]
    fn capacity_eviction_cascades_without_losing_dirty_lines() {
        let mut h = small();
        // Dirty many conflicting lines; every dirty line must either stay
        // resident or be reported as a dirty victim.
        let mut reported = 0;
        let n = 64;
        for i in 0..n {
            let (_, dirty) = h.touch_store(line(i));
            reported += dirty.len();
        }
        let resident = (0..n).filter(|&i| h.contains(line(i))).count();
        assert_eq!(
            resident + reported,
            n as usize,
            "no dirty line silently dropped"
        );
    }
}
