//! Set-associative cache tag/state models.
//!
//! These are *functional* models: they track which lines are present and in
//! which MESI state, with true LRU replacement. Timing is composed by the
//! components that own the caches (DCOH, host hierarchy), not here. The
//! paper's device caches are both instances: HMC is 4-way 128 KiB and DMC is
//! direct-mapped 32 KiB, i.e. 1-way.

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

/// A resident line: its tag, and its LRU stamp, which is the cache clock
/// at its last use shifted left to make room for its MESI state. At 16
/// bytes an entry packs a 4-way set into 64.
#[derive(Debug, Clone, Copy)]
struct Entry {
    tag: u64,
    stamp: u64,
}

/// Low stamp bits that hold the state.
const STATE_BITS: u32 = 2;
const STATE_MASK: u64 = (1 << STATE_BITS) - 1;

/// Each state at the index of its discriminant.
const STATES: [MesiState; 4] = [
    MesiState::Modified,
    MesiState::Exclusive,
    MesiState::Shared,
    MesiState::Invalid,
];

impl Entry {
    fn new(tag: u64, state: MesiState, clock: u64) -> Self {
        Entry {
            tag,
            stamp: clock << STATE_BITS | state as u64,
        }
    }

    fn state(self) -> MesiState {
        STATES[(self.stamp & STATE_MASK) as usize]
    }

    fn set_state(&mut self, state: MesiState) {
        self.stamp = self.stamp & !STATE_MASK | state as u64;
    }

    /// Marks the line used at `clock`. Clocks are unique, so stamps
    /// order entries by last use whatever their state bits.
    fn touch(&mut self, clock: u64) {
        self.stamp = clock << STATE_BITS | self.stamp & STATE_MASK;
    }
}

/// What a never-written slab entry holds; no set reads past its length.
const VACANT: Entry = Entry { tag: 0, stamp: 0 };

/// Entries in a set's first block. Most touched sets never hold more
/// lines than this; one that outgrows it moves to a block of `ways`
/// entries.
const SMALL_BLOCK: usize = 4;

/// Where a filled set's entries live in the slab.
#[derive(Debug, Clone, Copy)]
struct Block {
    /// Slab offset of the set's first entry.
    start: u32,
    /// Entries in use, in `push`/`swap_remove` order.
    len: u32,
    /// Entries the block holds: `min(ways, SMALL_BLOCK)` or `ways`.
    cap: u32,
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
///
/// // The paper's DMC: direct-mapped 32 KiB, so two lines 32 KiB apart
/// // conflict.
/// let mut dmc = SetAssocCache::with_capacity(32 * 1024, 1);
/// let b = LineAddr::new(a.index() + 32 * 1024 / 64);
/// dmc.fill(a, MesiState::Exclusive);
/// assert_eq!(dmc.fill(b, MesiState::Exclusive).unwrap().addr, a);
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    /// Per set, 0 if the set was never filled, else one more than its
    /// index in `blocks`. Building a cache zero-fills this one array;
    /// no set takes slab space until its first fill.
    slot: Vec<u32>,
    /// The block of every set filled at least once, in first-fill order.
    blocks: Vec<Block>,
    /// The entries of every block, back to back.
    slab: Vec<Entry>,
    /// Slab offsets of small blocks left behind by sets that outgrew them.
    free_small: Vec<u32>,
    /// Valid lines resident across all sets.
    resident: usize,
    ways: usize,
    num_sets: u64,
    /// `log2(num_sets)` when `num_sets` is a power of two: the set index
    /// is then a mask and the tag a shift.
    set_bits: Option<u32>,
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
    /// capacity that is not a whole number of sets. Also panics if
    /// `sets × (ways + min(ways, 4))` entries overflow a `u32` slab
    /// offset.
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
        // Every set can own a small block it outgrew plus a full one.
        let per_set = ways + ways.min(SMALL_BLOCK);
        assert!(
            num_sets.saturating_mul(per_set as u64) <= u32::MAX as u64,
            "cache has more lines than a u32 slab offset can index"
        );
        SetAssocCache {
            // A point touches few sets: building and dropping the cache
            // costs one zeroed index plus the sets it fills.
            slot: vec![0; num_sets as usize],
            blocks: Vec::new(),
            slab: Vec::new(),
            free_small: Vec::new(),
            resident: 0,
            ways,
            num_sets,
            set_bits: num_sets
                .is_power_of_two()
                .then(|| num_sets.trailing_zeros()),
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
        match self.set_bits {
            Some(_) => (addr.index() & (self.num_sets - 1)) as usize,
            None => (addr.index() % self.num_sets) as usize,
        }
    }

    fn tag(&self, addr: LineAddr) -> u64 {
        match self.set_bits {
            Some(bits) => addr.index() >> bits,
            None => addr.index() / self.num_sets,
        }
    }

    fn addr_of(&self, set: usize, tag: u64) -> LineAddr {
        LineAddr::new(tag * self.num_sets + set as u64)
    }

    /// The entries of set `set_idx`; empty if it was never filled.
    fn set(&self, set_idx: usize) -> &[Entry] {
        match self.slot[set_idx] {
            0 => &[],
            s => {
                let b = self.blocks[s as usize - 1];
                &self.slab[b.start as usize..][..b.len as usize]
            }
        }
    }

    /// The block of set `set_idx` and its entries, or `None` if the set
    /// was never filled.
    fn set_mut(&mut self, set_idx: usize) -> Option<(&mut Block, &mut [Entry])> {
        match self.slot[set_idx] {
            0 => None,
            s => {
                let b = &mut self.blocks[s as usize - 1];
                let entries = &mut self.slab[b.start as usize..][..b.len as usize];
                Some((b, entries))
            }
        }
    }

    /// Takes a small block for a set's first fill, reusing one a set
    /// outgrew if any.
    fn take_small_block(&mut self) -> Block {
        let cap = self.ways.min(SMALL_BLOCK);
        let start = self.free_small.pop().unwrap_or_else(|| {
            let start = self.slab.len();
            self.slab.resize(start + cap, VACANT);
            start as u32
        });
        Block {
            start,
            len: 0,
            cap: cap as u32,
        }
    }

    /// Moves a full small block's entries, in order, to a `ways`-entry
    /// block at the slab's end and frees the small block.
    fn grow(&mut self, block: usize) {
        let old = self.blocks[block];
        let start = self.slab.len();
        self.slab
            .extend_from_within(old.start as usize..(old.start + old.len) as usize);
        self.slab.resize(start + self.ways, VACANT);
        self.free_small.push(old.start);
        self.blocks[block] = Block {
            start: start as u32,
            len: old.len,
            cap: self.ways as u32,
        };
    }

    /// Checks for the line without updating LRU order or counters.
    pub fn probe(&self, addr: LineAddr) -> Option<MesiState> {
        let tag = self.tag(addr);
        self.set(self.set_index(addr))
            .iter()
            .find(|e| e.tag == tag)
            .map(|e| e.state())
    }

    /// Looks up the line, updating LRU recency and hit/miss counters.
    pub fn lookup(&mut self, addr: LineAddr) -> Option<MesiState> {
        let set_idx = self.set_index(addr);
        let tag = self.tag(addr);
        self.clock += 1;
        let clock = self.clock;
        let found = self
            .set_mut(set_idx)
            .and_then(|(_, set)| set.iter_mut().find(|e| e.tag == tag))
            .map(|e| {
                e.touch(clock);
                e.state()
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
        let block = match self.slot[set_idx] {
            0 => {
                let b = self.take_small_block();
                self.blocks.push(b);
                self.slot[set_idx] = self.blocks.len() as u32;
                self.blocks.len() - 1
            }
            s => {
                let block = s as usize - 1;
                let b = self.blocks[block];
                let set = &mut self.slab[b.start as usize..][..b.len as usize];
                if let Some(e) = set.iter_mut().find(|e| e.tag == tag) {
                    e.set_state(state);
                    e.touch(clock);
                    return None;
                }
                if b.len == b.cap && (b.cap as usize) < self.ways {
                    self.grow(block);
                }
                block
            }
        };
        let b = &mut self.blocks[block];
        let set = &mut self.slab[b.start as usize..][..b.cap as usize];
        let victim = if b.len as usize == self.ways {
            // Victim out by `swap_remove`, the new line appended: the
            // order the entries of a per-set `Vec` would take.
            let (vi, _) = set
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.stamp)
                .expect("full set has a victim");
            let v = set[vi];
            set[vi] = set[b.len as usize - 1];
            b.len -= 1;
            Some(v)
        } else {
            None
        };
        set[b.len as usize] = Entry::new(tag, state, clock);
        b.len += 1;
        match victim {
            Some(v) => {
                self.stats.evictions += 1;
                Some(Evicted {
                    addr: self.addr_of(set_idx, v.tag),
                    state: v.state(),
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
            .and_then(|(_, set)| set.iter_mut().find(|e| e.tag == tag))
        {
            Some(e) => {
                e.set_state(state);
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
        let (b, set) = self.set_mut(set_idx)?;
        let pos = set.iter().position(|e| e.tag == tag)?;
        let state = set[pos].state();
        // `swap_remove`: the last entry takes the removed one's place.
        set[pos] = set[set.len() - 1];
        b.len -= 1;
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
            let b = &mut self.blocks[s as usize - 1];
            self.resident -= b.len as usize;
            for e in &self.slab[b.start as usize..][..b.len as usize] {
                if e.state().is_dirty() {
                    dirty.push(Evicted {
                        addr: LineAddr::new(e.tag * num_sets + set_idx as u64),
                        state: e.state(),
                    });
                }
            }
            b.len = 0;
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
                .map(move |e| (LineAddr::new(e.tag * num_sets + set_idx as u64), e.state()))
        })
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
        let mut dmc = SetAssocCache::with_capacity(32 * 1024, 1);
        assert_eq!(dmc.num_sets * LINE_BYTES, 32 * 1024);
        let lines = 32 * 1024 / 64;
        dmc.fill(line(5), MesiState::Exclusive);
        // Same index, different tag.
        let v = dmc.fill(line(5 + lines), MesiState::Exclusive).unwrap();
        assert_eq!(v.addr, line(5));
        assert_eq!(dmc.len(), 1);
        // Non-conflicting line coexists.
        dmc.fill(line(6), MesiState::Shared);
        assert_eq!(dmc.len(), 2);
        assert!(!dmc.is_empty());
        let _ = dmc.lookup(line(6));
        assert_eq!(dmc.stats().hits, 1);
        assert_eq!(dmc.invalidate(line(6)), Some(MesiState::Shared));
        assert_eq!(dmc.flush_all().len(), 0); // E line is clean
        assert_eq!(dmc.iter().count(), 0);
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
    fn direct_mapped_three_sets() {
        // 3 lines, so 3 sets: lines 0, 1, 2 coexist; 3 and 5 conflict with
        // 0 and 2, and the victims come back at their own addresses.
        let mut dmc = SetAssocCache::with_capacity(3 * 64, 1);
        for i in 0..3 {
            assert!(dmc.fill(line(i), MesiState::Exclusive).is_none());
        }
        assert_eq!(dmc.fill(line(3), MesiState::Shared).unwrap().addr, line(0));
        let v = dmc.fill(line(5), MesiState::Modified).unwrap();
        assert_eq!((v.addr, v.state), (line(2), MesiState::Exclusive));
        assert_eq!(dmc.probe(line(1)), Some(MesiState::Exclusive));
        assert_eq!(
            dmc.flush_all(),
            vec![Evicted {
                addr: line(5),
                state: MesiState::Modified
            }]
        );
    }

    #[test]
    #[should_panic(expected = "at least one set")]
    fn direct_mapped_smaller_than_a_line_panics() {
        let _ = SetAssocCache::with_capacity(63, 1);
    }

    #[test]
    fn outgrown_small_blocks_are_reused_in_order() {
        // 2 sets × 12 ways: set 0 outgrows its 4-entry block on the 5th
        // fill, and set 1's first fill takes the block set 0 left.
        let mut c = SetAssocCache::with_capacity(24 * 64, 12);
        for t in 0..5 {
            c.fill(line(2 * t), MesiState::Shared);
        }
        assert_eq!(c.slab.len(), 4 + 12);
        assert_eq!(c.free_small, vec![0]);
        c.fill(line(1), MesiState::Modified);
        assert_eq!(c.slab.len(), 4 + 12);
        assert!(c.free_small.is_empty());
        // Set 0 kept its push order through the move.
        let got: Vec<u64> = c.iter().map(|(a, _)| a.index()).collect();
        assert_eq!(got, vec![0, 2, 4, 6, 8, 1]);
    }

    #[test]
    #[should_panic(expected = "whole number of sets")]
    fn bad_geometry_panics() {
        let _ = SetAssocCache::with_capacity(3 * 64, 2);
    }
}
