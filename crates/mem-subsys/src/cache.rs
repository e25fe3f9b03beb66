//! Set-associative cache tag/state models.
//!
//! These are *functional* models: they track which lines are present and in
//! which MESI state, with true LRU replacement. Timing is composed by the
//! components that own the caches (DCOH, host hierarchy), not here. The
//! paper's device caches are both instances: HMC is 4-way 128 KiB and DMC is
//! direct-mapped 32 KiB (a 1-way instance, see [`DirectMappedCache`]).

use crate::coherence::MesiState;
use crate::line::{LineAddr, LINE_BYTES};

/// A line evicted or displaced from a cache, with the state it held.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// Address of the displaced line.
    pub addr: LineAddr,
    /// State the line held when displaced; [`MesiState::Modified`] lines
    /// require a write-back by the caller.
    pub state: MesiState,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    tag: u64,
    state: MesiState,
    stamp: u64,
}

/// Hit/miss counters for a cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a valid line.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Valid lines displaced by fills.
    pub evictions: u64,
}

/// A set-associative cache with true-LRU replacement tracking MESI state per
/// line.
///
/// # Examples
///
/// ```
/// use mem_subsys::cache::SetAssocCache;
/// use mem_subsys::coherence::MesiState;
/// use mem_subsys::line::LineAddr;
///
/// // The paper's HMC: 128 KiB, 4-way.
/// let mut hmc = SetAssocCache::with_capacity(128 * 1024, 4);
/// let a = LineAddr::new(0x100);
/// hmc.fill(a, MesiState::Shared);
/// assert_eq!(hmc.probe(a), Some(MesiState::Shared));
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    /// Per set, 0 if the set was never filled, else one more than its
    /// index in `filled`. Building a cache zero-fills this one array;
    /// no set allocates until its first fill.
    slot: Vec<u32>,
    /// The entries of every set filled at least once, in first-fill order.
    /// A set keeps its `Vec` (and its capacity) once listed.
    filled: Vec<Vec<Entry>>,
    /// Valid lines resident across all sets.
    resident: usize,
    ways: usize,
    num_sets: u64,
    clock: u64,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Creates a cache of `capacity_bytes` with `ways` lines per set.
    ///
    /// Set indexing uses modulo arithmetic, so any whole number of sets is
    /// accepted (the Xeon's 60 MiB LLC is not a power of two).
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate: zero ways, zero sets, or a
    /// capacity that is not a whole number of sets.
    pub fn with_capacity(capacity_bytes: u64, ways: usize) -> Self {
        assert!(ways > 0, "cache must have at least one way");
        let lines = capacity_bytes / LINE_BYTES;
        assert_eq!(
            lines % ways as u64,
            0,
            "capacity must be a whole number of sets"
        );
        let num_sets = lines / ways as u64;
        assert!(num_sets > 0, "cache must have at least one set");
        assert!(
            num_sets < u32::MAX as u64,
            "cache has more sets than a u32 slot can index"
        );
        SetAssocCache {
            // A point touches few sets: building and dropping the cache
            // costs one zeroed index plus the sets it fills.
            slot: vec![0; num_sets as usize],
            filled: Vec::new(),
            resident: 0,
            ways,
            num_sets,
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// Number of valid lines currently resident.
    pub fn len(&self) -> usize {
        self.resident
    }

    /// True if no valid lines are resident.
    pub fn is_empty(&self) -> bool {
        self.resident == 0
    }

    /// Hit/miss/eviction counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn set_index(&self, addr: LineAddr) -> usize {
        (addr.index() % self.num_sets) as usize
    }

    fn tag(&self, addr: LineAddr) -> u64 {
        addr.index() / self.num_sets
    }

    fn addr_of(&self, set: usize, tag: u64) -> LineAddr {
        LineAddr::new(tag * self.num_sets + set as u64)
    }

    /// The entries of set `set_idx`; empty if it was never filled.
    fn set(&self, set_idx: usize) -> &[Entry] {
        match self.slot[set_idx] {
            0 => &[],
            s => &self.filled[s as usize - 1],
        }
    }

    /// The entries of set `set_idx`, or `None` if it was never filled.
    fn set_mut(&mut self, set_idx: usize) -> Option<&mut Vec<Entry>> {
        match self.slot[set_idx] {
            0 => None,
            s => Some(&mut self.filled[s as usize - 1]),
        }
    }

    /// The entries of set `set_idx`, listing the set on its first fill.
    fn set_for_fill(&mut self, set_idx: usize) -> &mut Vec<Entry> {
        let mut s = self.slot[set_idx];
        if s == 0 {
            self.filled.push(Vec::new());
            s = self.filled.len() as u32;
            self.slot[set_idx] = s;
        }
        &mut self.filled[s as usize - 1]
    }

    /// Checks for the line without updating LRU order or counters.
    pub fn probe(&self, addr: LineAddr) -> Option<MesiState> {
        let tag = self.tag(addr);
        self.set(self.set_index(addr))
            .iter()
            .find(|e| e.tag == tag)
            .map(|e| e.state)
    }

    /// Looks up the line, updating LRU recency and hit/miss counters.
    pub fn lookup(&mut self, addr: LineAddr) -> Option<MesiState> {
        let set_idx = self.set_index(addr);
        let tag = self.tag(addr);
        self.clock += 1;
        let clock = self.clock;
        let found = self
            .set_mut(set_idx)
            .and_then(|set| set.iter_mut().find(|e| e.tag == tag))
            .map(|e| {
                e.stamp = clock;
                e.state
            });
        if found.is_some() {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        found
    }

    /// Inserts (or updates) the line with `state`, evicting the LRU victim
    /// if the set is full. Returns the victim, whose `Modified` state
    /// signals a required write-back.
    pub fn fill(&mut self, addr: LineAddr, state: MesiState) -> Option<Evicted> {
        assert!(state.is_valid(), "cannot fill a line in Invalid state");
        let set_idx = self.set_index(addr);
        let tag = self.tag(addr);
        self.clock += 1;
        let clock = self.clock;
        let ways = self.ways;
        let set = self.set_for_fill(set_idx);
        if let Some(e) = set.iter_mut().find(|e| e.tag == tag) {
            e.state = state;
            e.stamp = clock;
            return None;
        }
        let victim = if set.len() == ways {
            let (vi, _) = set
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.stamp)
                .expect("full set has a victim");
            Some(set.swap_remove(vi))
        } else {
            None
        };
        set.push(Entry {
            tag,
            state,
            stamp: clock,
        });
        match victim {
            Some(v) => {
                self.stats.evictions += 1;
                Some(Evicted {
                    addr: self.addr_of(set_idx, v.tag),
                    state: v.state,
                })
            }
            None => {
                self.resident += 1;
                None
            }
        }
    }

    /// Changes the state of a resident line. Returns false if not resident.
    pub fn set_state(&mut self, addr: LineAddr, state: MesiState) -> bool {
        if !state.is_valid() {
            return self.invalidate(addr).is_some();
        }
        let set_idx = self.set_index(addr);
        let tag = self.tag(addr);
        match self
            .set_mut(set_idx)
            .and_then(|set| set.iter_mut().find(|e| e.tag == tag))
        {
            Some(e) => {
                e.state = state;
                true
            }
            None => false,
        }
    }

    /// Removes the line, returning the state it held (callers write back
    /// `Modified` victims).
    pub fn invalidate(&mut self, addr: LineAddr) -> Option<MesiState> {
        let set_idx = self.set_index(addr);
        let tag = self.tag(addr);
        let set = self.set_mut(set_idx)?;
        let pos = set.iter().position(|e| e.tag == tag)?;
        let state = set.swap_remove(pos).state;
        self.resident -= 1;
        Some(state)
    }

    /// Removes every line, returning those that were dirty, in set-index
    /// order.
    pub fn flush_all(&mut self) -> Vec<Evicted> {
        let num_sets = self.num_sets;
        let mut dirty = Vec::new();
        for (set_idx, &s) in self.slot.iter().enumerate() {
            // Sets past the last resident line need no visit.
            if self.resident == 0 {
                break;
            }
            if s == 0 {
                continue;
            }
            let set = &mut self.filled[s as usize - 1];
            self.resident -= set.len();
            for e in set.drain(..) {
                if e.state.is_dirty() {
                    dirty.push(Evicted {
                        addr: LineAddr::new(e.tag * num_sets + set_idx as u64),
                        state: e.state,
                    });
                }
            }
        }
        dirty
    }

    /// Iterates over all resident lines and their states, in set-index
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, MesiState)> + '_ {
        let num_sets = self.num_sets;
        (0..self.slot.len()).flat_map(move |set_idx| {
            self.set(set_idx)
                .iter()
                .map(move |e| (LineAddr::new(e.tag * num_sets + set_idx as u64), e.state))
        })
    }
}

/// A direct-mapped cache: a 1-way [`SetAssocCache`] with the same API.
///
/// The paper's DMC (device-memory cache) is direct-mapped 32 KiB.
///
/// # Examples
///
/// ```
/// use mem_subsys::cache::DirectMappedCache;
/// use mem_subsys::coherence::MesiState;
/// use mem_subsys::line::LineAddr;
///
/// let mut dmc = DirectMappedCache::with_capacity(32 * 1024);
/// let a = LineAddr::new(0);
/// // Two lines 32 KiB apart conflict in a direct-mapped cache.
/// let b = LineAddr::new(32 * 1024 / 64);
/// dmc.fill(a, MesiState::Exclusive);
/// let victim = dmc.fill(b, MesiState::Exclusive).unwrap();
/// assert_eq!(victim.addr, a);
/// ```
#[derive(Debug, Clone)]
pub struct DirectMappedCache(SetAssocCache);

impl DirectMappedCache {
    /// Creates a direct-mapped cache of `capacity_bytes`.
    ///
    /// # Panics
    ///
    /// Panics if the line count is not a power of two.
    pub fn with_capacity(capacity_bytes: u64) -> Self {
        DirectMappedCache(SetAssocCache::with_capacity(capacity_bytes, 1))
    }

    /// Checks for the line without side effects.
    pub fn probe(&self, addr: LineAddr) -> Option<MesiState> {
        self.0.probe(addr)
    }

    /// Looks up the line, updating counters.
    pub fn lookup(&mut self, addr: LineAddr) -> Option<MesiState> {
        self.0.lookup(addr)
    }

    /// Inserts the line, returning the displaced conflict victim if any.
    pub fn fill(&mut self, addr: LineAddr, state: MesiState) -> Option<Evicted> {
        self.0.fill(addr, state)
    }

    /// Changes the state of a resident line.
    pub fn set_state(&mut self, addr: LineAddr, state: MesiState) -> bool {
        self.0.set_state(addr, state)
    }

    /// Removes the line.
    pub fn invalidate(&mut self, addr: LineAddr) -> Option<MesiState> {
        self.0.invalidate(addr)
    }

    /// Removes every line, returning dirty victims.
    pub fn flush_all(&mut self) -> Vec<Evicted> {
        self.0.flush_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(i: u64) -> LineAddr {
        LineAddr::new(i)
    }

    #[test]
    fn fill_then_probe_hits() {
        let mut c = SetAssocCache::with_capacity(4096, 4);
        c.fill(line(3), MesiState::Shared);
        assert_eq!(c.probe(line(3)), Some(MesiState::Shared));
        assert_eq!(c.probe(line(4)), None);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lookup_counts_hits_and_misses() {
        let mut c = SetAssocCache::with_capacity(4096, 4);
        c.fill(line(1), MesiState::Exclusive);
        assert!(c.lookup(line(1)).is_some());
        assert!(c.lookup(line(2)).is_none());
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn lru_evicts_least_recent() {
        // 4 sets × 2 ways; lines 0, 4, 8 share set 0 (16 lines total, mask 3).
        let mut c = SetAssocCache::with_capacity(8 * 64, 2);
        c.fill(line(0), MesiState::Shared);
        c.fill(line(4), MesiState::Shared);
        // Touch line 0 so line 4 becomes LRU.
        c.lookup(line(0));
        let v = c.fill(line(8), MesiState::Shared).unwrap();
        assert_eq!(v.addr, line(4));
        assert_eq!(c.probe(line(0)), Some(MesiState::Shared));
        assert_eq!(c.probe(line(4)), None);
    }

    #[test]
    fn refill_updates_state_without_eviction() {
        let mut c = SetAssocCache::with_capacity(4096, 4);
        c.fill(line(1), MesiState::Shared);
        assert!(c.fill(line(1), MesiState::Modified).is_none());
        assert_eq!(c.probe(line(1)), Some(MesiState::Modified));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn eviction_reports_dirty_state() {
        let mut c = SetAssocCache::with_capacity(64, 1); // one line total
        c.fill(line(0), MesiState::Modified);
        let v = c.fill(line(1), MesiState::Shared).unwrap();
        assert_eq!(v.state, MesiState::Modified);
        assert!(v.state.is_dirty());
    }

    #[test]
    fn invalidate_and_set_state() {
        let mut c = SetAssocCache::with_capacity(4096, 4);
        c.fill(line(9), MesiState::Exclusive);
        assert!(c.set_state(line(9), MesiState::Shared));
        assert_eq!(c.probe(line(9)), Some(MesiState::Shared));
        assert!(!c.set_state(line(10), MesiState::Shared));
        assert_eq!(c.invalidate(line(9)), Some(MesiState::Shared));
        assert_eq!(c.invalidate(line(9)), None);
        // set_state to Invalid behaves like invalidate.
        c.fill(line(9), MesiState::Exclusive);
        assert!(c.set_state(line(9), MesiState::Invalid));
        assert_eq!(c.probe(line(9)), None);
    }

    #[test]
    fn flush_all_returns_only_dirty() {
        let mut c = SetAssocCache::with_capacity(4096, 4);
        c.fill(line(1), MesiState::Modified);
        c.fill(line(2), MesiState::Shared);
        c.fill(line(3), MesiState::Exclusive);
        let dirty = c.flush_all();
        assert_eq!(dirty.len(), 1);
        assert_eq!(dirty[0].addr, line(1));
        assert!(c.is_empty());
    }

    #[test]
    fn addresses_reconstructed_correctly_across_sets() {
        // 8 sets × 2 ways; chosen lines occupy ≤2 ways per set so nothing
        // evicts: sets are 0,7,1,7,4,1.
        let mut c = SetAssocCache::with_capacity(16 * 64, 2);
        for i in [0u64, 7, 9, 15, 100, 1001] {
            c.fill(line(i), MesiState::Shared);
        }
        let mut got: Vec<u64> = c.iter().map(|(a, _)| a.index()).collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 7, 9, 15, 100, 1001]);
    }

    #[test]
    fn hmc_geometry_matches_paper() {
        let hmc = SetAssocCache::with_capacity(128 * 1024, 4);
        assert_eq!(hmc.num_sets * hmc.ways as u64 * LINE_BYTES, 128 * 1024);
        assert_eq!(hmc.ways, 4);
    }

    #[test]
    fn direct_mapped_conflicts() {
        let mut dmc = DirectMappedCache::with_capacity(32 * 1024);
        assert_eq!(dmc.0.num_sets * LINE_BYTES, 32 * 1024);
        let lines = 32 * 1024 / 64;
        dmc.fill(line(5), MesiState::Exclusive);
        // Same index, different tag.
        let v = dmc.fill(line(5 + lines), MesiState::Exclusive).unwrap();
        assert_eq!(v.addr, line(5));
        assert_eq!(dmc.0.len(), 1);
        // Non-conflicting line coexists.
        dmc.fill(line(6), MesiState::Shared);
        assert_eq!(dmc.0.len(), 2);
        assert!(!dmc.0.is_empty());
        let _ = dmc.lookup(line(6));
        assert_eq!(dmc.0.stats().hits, 1);
        assert_eq!(dmc.invalidate(line(6)), Some(MesiState::Shared));
        assert_eq!(dmc.flush_all().len(), 0); // E line is clean
        assert_eq!(dmc.0.iter().count(), 0);
    }

    #[test]
    #[should_panic(expected = "cannot fill a line in Invalid state")]
    fn filling_invalid_panics() {
        let mut c = SetAssocCache::with_capacity(4096, 4);
        c.fill(line(0), MesiState::Invalid);
    }

    #[test]
    fn non_power_of_two_set_counts_supported() {
        // 3 sets of 1 way: lines 0,1,2 coexist; line 3 conflicts with 0.
        let mut c = SetAssocCache::with_capacity(3 * 64, 1);
        for i in 0..3 {
            assert!(c.fill(line(i), MesiState::Shared).is_none());
        }
        let v = c.fill(line(3), MesiState::Shared).unwrap();
        assert_eq!(v.addr, line(0));
    }

    #[test]
    #[should_panic(expected = "whole number of sets")]
    fn bad_geometry_panics() {
        let _ = SetAssocCache::with_capacity(3 * 64, 2);
    }
}
