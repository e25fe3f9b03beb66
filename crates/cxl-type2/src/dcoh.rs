//! The DCOH slice array.
//!
//! The paper's Fig. 1 shows the device built from "one or more instances"
//! of {memory controller, DCOH, CAFU}; each DCOH slice carries a 4-way
//! 128 KiB HMC and a direct-mapped 32 KiB DMC. [`SliceArray`] interleaves
//! cache lines across slices by address (as the hardware stripes requests)
//! and hands the request paths the HMC or DMC of the slice that owns a
//! line, so the device scales its cache capacity and lookup parallelism
//! with the slice count.

use mem_subsys::cache::{Evicted, SetAssocCache};
use mem_subsys::line::LineAddr;
use sim_core::rng::splitmix64;
use sim_core::trace::CacheId;

/// HMC capacity per DCOH slice (4-way).
pub(crate) const HMC_BYTES_PER_SLICE: u64 = 128 * 1024;

/// DMC capacity per DCOH slice (direct-mapped).
pub(crate) const DMC_BYTES_PER_SLICE: u64 = 32 * 1024;

/// Where a slice keeps `cache`: HMC first, then DMC.
///
/// # Panics
///
/// Panics if `cache` is neither [`CacheId::Hmc`] nor [`CacheId::Dmc`].
fn position(cache: CacheId) -> usize {
    match cache {
        CacheId::Hmc => 0,
        CacheId::Dmc => 1,
        other => panic!("{other:?} is not a DCOH cache"),
    }
}

/// The device's DCOH slices, address-interleaved.
#[derive(Debug, Clone)]
pub(crate) struct SliceArray {
    /// Per slice, its HMC and DMC (indexed by [`position`]).
    slices: Vec<[SetAssocCache; 2]>,
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
            slices: (0..n)
                .map(|_| {
                    [
                        SetAssocCache::with_capacity(HMC_BYTES_PER_SLICE, 4),
                        SetAssocCache::with_capacity(DMC_BYTES_PER_SLICE, 1),
                    ]
                })
                .collect(),
        }
    }

    /// Number of slices.
    pub(crate) fn slice_count(&self) -> usize {
        self.slices.len()
    }

    /// The slice `addr` interleaves onto — the port a concurrent
    /// transaction to this line must issue on.
    pub(crate) fn slice_of(&self, addr: LineAddr) -> usize {
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

    /// The HMC or DMC (`cache`) of the slice that owns `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `cache` is neither [`CacheId::Hmc`] nor [`CacheId::Dmc`].
    pub(crate) fn cache(&self, cache: CacheId, addr: LineAddr) -> &SetAssocCache {
        &self.slices[self.slice_of(addr)][position(cache)]
    }

    /// [`Self::cache`], mutably.
    pub(crate) fn cache_mut(&mut self, cache: CacheId, addr: LineAddr) -> &mut SetAssocCache {
        let s = self.slice_of(addr);
        &mut self.slices[s][position(cache)]
    }

    /// Empties `cache` in every slice, returning the dirty victims slice
    /// by slice.
    pub(crate) fn flush_all(&mut self, cache: CacheId) -> Vec<Evicted> {
        self.slices
            .iter_mut()
            .flat_map(|s| s[position(cache)].flush_all())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mem_subsys::coherence::MesiState;

    /// Lines resident in the HMC, over every slice.
    fn hmc_len(a: &SliceArray) -> usize {
        a.slices
            .iter()
            .map(|s| s[position(CacheId::Hmc)].len())
            .sum()
    }

    #[test]
    fn lines_interleave_across_slices() {
        let mut a = SliceArray::new(4);
        // Consecutive lines land on distinct slices: filling 4 conflicting
        // (per-slice) addresses does not evict anything.
        for i in 0..4 {
            let addr = LineAddr::new(i);
            let hmc = a.cache_mut(CacheId::Hmc, addr);
            assert!(hmc.fill(addr, MesiState::Shared).is_none());
        }
        assert_eq!(hmc_len(&a), 4);
    }

    #[test]
    fn state_ops_route_to_owning_slice() {
        let mut a = SliceArray::new(2);
        let even = LineAddr::new(10);
        let odd = LineAddr::new(11);
        let dmc = CacheId::Dmc;
        a.cache_mut(dmc, even).fill(even, MesiState::Exclusive);
        a.cache_mut(dmc, odd).fill(odd, MesiState::Modified);
        assert!(a.cache_mut(dmc, even).set_state(even, MesiState::Shared));
        assert_eq!(a.cache(dmc, even).probe(even), Some(MesiState::Shared));
        assert_eq!(a.cache(dmc, odd).probe(odd), Some(MesiState::Modified));
        assert_eq!(
            a.cache_mut(dmc, odd).invalidate(odd),
            Some(MesiState::Modified)
        );
        let dirty = a.flush_all(dmc);
        assert!(dirty.is_empty(), "remaining line is clean Shared");
    }

    #[test]
    fn flush_covers_all_slices() {
        let mut a = SliceArray::new(3);
        for i in 0..9 {
            let addr = LineAddr::new(i);
            a.cache_mut(CacheId::Hmc, addr)
                .fill(addr, MesiState::Modified);
        }
        let dirty = a.flush_all(CacheId::Hmc);
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
