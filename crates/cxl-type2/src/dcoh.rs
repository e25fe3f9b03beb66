//! The DCOH slice array.
//!
//! The paper's Fig. 1 shows the device built from "one or more instances"
//! of {memory controller, DCOH, CAFU}; each DCOH slice carries a 4-way
//! 128 KiB HMC and a direct-mapped 32 KiB DMC. [`SliceArray`] interleaves
//! cache lines across slices by address (as the hardware stripes requests)
//! while presenting the single-cache interface the request paths use, so
//! the device scales its cache capacity and lookup parallelism with the
//! slice count.

use mem_subsys::cache::{DirectMappedCache, Evicted, SetAssocCache};
use mem_subsys::coherence::MesiState;
use mem_subsys::line::LineAddr;
use sim_core::rng::splitmix64;

/// HMC capacity per DCOH slice (4-way).
pub(crate) const HMC_BYTES_PER_SLICE: u64 = 128 * 1024;

/// DMC capacity per DCOH slice (direct-mapped).
pub(crate) const DMC_BYTES_PER_SLICE: u64 = 32 * 1024;

/// One DCOH slice's caches.
#[derive(Debug, Clone)]
struct Slice {
    hmc: SetAssocCache,
    dmc: DirectMappedCache,
}

impl Slice {
    fn new() -> Self {
        Slice {
            hmc: SetAssocCache::with_capacity(HMC_BYTES_PER_SLICE, 4),
            dmc: DirectMappedCache::with_capacity(DMC_BYTES_PER_SLICE),
        }
    }
}

/// The device's DCOH slices, address-interleaved.
#[derive(Debug, Clone)]
pub(crate) struct SliceArray {
    slices: Vec<Slice>,
}

impl SliceArray {
    /// Creates `n` slices.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub(crate) fn new(n: usize) -> Self {
        assert!(n > 0, "a DCOH needs at least one slice");
        SliceArray {
            slices: (0..n).map(|_| Slice::new()).collect(),
        }
    }

    /// Number of slices.
    pub(crate) fn slice_count(&self) -> usize {
        self.slices.len()
    }

    fn slice_for(&self, addr: LineAddr) -> usize {
        let n = self.slices.len();
        if n == 1 {
            // The agilex7 card: no hash, no divide on the per-line path.
            return 0;
        }
        // Hash the index before the modulus (hardware slice selectors XOR
        // many address bits) so that no access stride aliases with the
        // per-slice caches' set indexing.
        let (_, h) = splitmix64(addr.index());
        (h % n as u64) as usize
    }

    /// The slice `addr` interleaves onto — the port a concurrent
    /// transaction to this line must issue on.
    pub(crate) fn slice_of(&self, addr: LineAddr) -> usize {
        self.slice_for(addr)
    }

    // --- HMC operations (host-memory lines) ---

    /// Probe without side effects.
    pub(crate) fn hmc_probe(&self, addr: LineAddr) -> Option<MesiState> {
        self.slices[self.slice_for(addr)].hmc.probe(addr)
    }

    /// Lookup with LRU touch and hit/miss accounting.
    pub(crate) fn hmc_lookup(&mut self, addr: LineAddr) -> Option<MesiState> {
        let s = self.slice_for(addr);
        self.slices[s].hmc.lookup(addr)
    }

    /// Fill, returning the displaced victim if any.
    pub(crate) fn hmc_fill(&mut self, addr: LineAddr, state: MesiState) -> Option<Evicted> {
        let s = self.slice_for(addr);
        self.slices[s].hmc.fill(addr, state)
    }

    /// Change a resident line's state.
    pub(crate) fn hmc_set_state(&mut self, addr: LineAddr, state: MesiState) -> bool {
        let s = self.slice_for(addr);
        self.slices[s].hmc.set_state(addr, state)
    }

    /// Invalidate a line.
    pub(crate) fn hmc_invalidate(&mut self, addr: LineAddr) -> Option<MesiState> {
        let s = self.slice_for(addr);
        self.slices[s].hmc.invalidate(addr)
    }

    /// Flush every slice's HMC, returning dirty victims.
    pub(crate) fn hmc_flush_all(&mut self) -> Vec<Evicted> {
        self.slices
            .iter_mut()
            .flat_map(|s| s.hmc.flush_all())
            .collect()
    }

    // --- DMC operations (device-memory lines) ---

    /// Probe without side effects.
    pub(crate) fn dmc_probe(&self, addr: LineAddr) -> Option<MesiState> {
        self.slices[self.slice_for(addr)].dmc.probe(addr)
    }

    /// Lookup with accounting.
    pub(crate) fn dmc_lookup(&mut self, addr: LineAddr) -> Option<MesiState> {
        let s = self.slice_for(addr);
        self.slices[s].dmc.lookup(addr)
    }

    /// Fill, returning the displaced conflict victim if any.
    pub(crate) fn dmc_fill(&mut self, addr: LineAddr, state: MesiState) -> Option<Evicted> {
        let s = self.slice_for(addr);
        self.slices[s].dmc.fill(addr, state)
    }

    /// Change a resident line's state.
    pub(crate) fn dmc_set_state(&mut self, addr: LineAddr, state: MesiState) -> bool {
        let s = self.slice_for(addr);
        self.slices[s].dmc.set_state(addr, state)
    }

    /// Invalidate a line.
    pub(crate) fn dmc_invalidate(&mut self, addr: LineAddr) -> Option<MesiState> {
        let s = self.slice_for(addr);
        self.slices[s].dmc.invalidate(addr)
    }

    /// Flush every slice's DMC, returning dirty victims.
    pub(crate) fn dmc_flush_all(&mut self) -> Vec<Evicted> {
        self.slices
            .iter_mut()
            .flat_map(|s| s.dmc.flush_all())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Lines resident in the HMC, over every slice.
    fn hmc_len(a: &SliceArray) -> usize {
        a.slices.iter().map(|s| s.hmc.len()).sum()
    }

    #[test]
    fn lines_interleave_across_slices() {
        let mut a = SliceArray::new(4);
        // Consecutive lines land on distinct slices: filling 4 conflicting
        // (per-slice) addresses does not evict anything.
        for i in 0..4 {
            assert!(a.hmc_fill(LineAddr::new(i), MesiState::Shared).is_none());
        }
        assert_eq!(hmc_len(&a), 4);
    }

    #[test]
    fn state_ops_route_to_owning_slice() {
        let mut a = SliceArray::new(2);
        let even = LineAddr::new(10);
        let odd = LineAddr::new(11);
        a.dmc_fill(even, MesiState::Exclusive);
        a.dmc_fill(odd, MesiState::Modified);
        assert!(a.dmc_set_state(even, MesiState::Shared));
        assert_eq!(a.dmc_probe(even), Some(MesiState::Shared));
        assert_eq!(a.dmc_probe(odd), Some(MesiState::Modified));
        assert_eq!(a.dmc_invalidate(odd), Some(MesiState::Modified));
        let dirty = a.dmc_flush_all();
        assert!(dirty.is_empty(), "remaining line is clean Shared");
    }

    #[test]
    fn flush_covers_all_slices() {
        let mut a = SliceArray::new(3);
        for i in 0..9 {
            a.hmc_fill(LineAddr::new(i), MesiState::Modified);
        }
        let dirty = a.hmc_flush_all();
        assert_eq!(dirty.len(), 9);
        assert_eq!(hmc_len(&a), 0);
    }

    #[test]
    fn slice_is_the_hashed_index_modulo_the_count() {
        for n in 1..=4 {
            let a = SliceArray::new(n);
            for i in (0..4096).chain([u64::MAX - 1, u64::MAX]) {
                let want = (splitmix64(i).1 % n as u64) as usize;
                assert_eq!(a.slice_of(LineAddr::new(i)), want, "line {i} of {n} slices");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one slice")]
    fn zero_slices_rejected() {
        let _ = SliceArray::new(0);
    }
}
