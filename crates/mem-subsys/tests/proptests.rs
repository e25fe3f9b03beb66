//! Property-based tests for the memory-subsystem invariants.
//!
//! The `#[ignore]`d differential rung replays a million ops at the LLC's
//! geometry; CI's `checks` job runs it (`cargo test --release --
//! --ignored`).

use mem_subsys::cache::{CacheStats, Evicted, SetAssocCache};
use mem_subsys::coherence::MesiState;
use mem_subsys::dram::{DramTech, MemorySystem};
use mem_subsys::line::{LineAddr, LINE_BYTES};
use mem_subsys::write_queue::WriteQueue;
use proptest::prelude::*;
use sim_core::rng::SimRng;
use sim_core::time::{Duration, Time};
use std::collections::HashMap;

/// The set-associative cache as it was before its sets were indexed
/// lazily: one eagerly built `Vec` per set, true LRU, victims taken by
/// `swap_remove` and appended fills. The differential tests below hold
/// [`SetAssocCache`] to it op for op, including which line each fill
/// evicts and the order of `iter` and `flush_all`.
struct RefCache {
    sets: Vec<Vec<RefEntry>>,
    ways: usize,
    num_sets: u64,
    clock: u64,
    stats: CacheStats,
}

#[derive(Clone, Copy)]
struct RefEntry {
    tag: u64,
    state: MesiState,
    stamp: u64,
}

impl RefCache {
    fn new(num_sets: u64, ways: usize) -> Self {
        RefCache {
            sets: vec![Vec::new(); num_sets as usize],
            ways,
            num_sets,
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    fn split(&self, addr: LineAddr) -> (usize, u64) {
        (
            (addr.index() % self.num_sets) as usize,
            addr.index() / self.num_sets,
        )
    }

    fn len(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    fn probe(&self, addr: LineAddr) -> Option<MesiState> {
        let (set, tag) = self.split(addr);
        self.sets[set]
            .iter()
            .find(|e| e.tag == tag)
            .map(|e| e.state)
    }

    fn lookup(&mut self, addr: LineAddr) -> Option<MesiState> {
        let (set, tag) = self.split(addr);
        self.clock += 1;
        let clock = self.clock;
        let found = self.sets[set].iter_mut().find(|e| e.tag == tag).map(|e| {
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

    fn fill(&mut self, addr: LineAddr, state: MesiState) -> Option<Evicted> {
        let (set, tag) = self.split(addr);
        self.clock += 1;
        let clock = self.clock;
        if let Some(e) = self.sets[set].iter_mut().find(|e| e.tag == tag) {
            e.state = state;
            e.stamp = clock;
            return None;
        }
        let victim = if self.sets[set].len() == self.ways {
            let (vi, _) = self.sets[set]
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.stamp)
                .unwrap();
            let v = self.sets[set].swap_remove(vi);
            self.stats.evictions += 1;
            Some(Evicted {
                addr: LineAddr::new(v.tag * self.num_sets + set as u64),
                state: v.state,
            })
        } else {
            None
        };
        self.sets[set].push(RefEntry {
            tag,
            state,
            stamp: clock,
        });
        victim
    }

    fn set_state(&mut self, addr: LineAddr, state: MesiState) -> bool {
        if !state.is_valid() {
            return self.invalidate(addr).is_some();
        }
        let (set, tag) = self.split(addr);
        match self.sets[set].iter_mut().find(|e| e.tag == tag) {
            Some(e) => {
                e.state = state;
                true
            }
            None => false,
        }
    }

    fn invalidate(&mut self, addr: LineAddr) -> Option<MesiState> {
        let (set, tag) = self.split(addr);
        let pos = self.sets[set].iter().position(|e| e.tag == tag)?;
        Some(self.sets[set].swap_remove(pos).state)
    }

    fn flush_all(&mut self) -> Vec<Evicted> {
        let num_sets = self.num_sets;
        let mut dirty = Vec::new();
        for (set, entries) in self.sets.iter_mut().enumerate() {
            for e in entries.drain(..) {
                if e.state.is_dirty() {
                    dirty.push(Evicted {
                        addr: LineAddr::new(e.tag * num_sets + set as u64),
                        state: e.state,
                    });
                }
            }
        }
        dirty
    }

    fn iter(&self) -> impl Iterator<Item = (LineAddr, MesiState)> + '_ {
        let num_sets = self.num_sets;
        self.sets
            .iter()
            .enumerate()
            .flat_map(move |(set, entries)| {
                entries
                    .iter()
                    .map(move |e| (LineAddr::new(e.tag * num_sets + set as u64), e.state))
            })
    }
}

#[derive(Debug, Clone, Copy)]
enum DiffOp {
    Lookup(u64),
    Probe(u64),
    Fill(u64, MesiState),
    SetState(u64, MesiState),
    Invalidate(u64),
    FlushAll,
}

/// Op kinds `0..63`, weighted towards fills so sets fill up and evict.
/// `FlushAll` is left to the caller, which picks its own rate.
fn diff_op(kind: u8, line: u64) -> DiffOp {
    use MesiState::{Exclusive, Invalid, Modified, Shared};
    match kind {
        0..=11 => DiffOp::Lookup(line),
        12..=19 => DiffOp::Probe(line),
        20..=43 => DiffOp::Fill(line, [Shared, Exclusive, Modified][kind as usize % 3]),
        44..=51 => DiffOp::SetState(
            line,
            [Shared, Exclusive, Modified, Invalid][kind as usize % 4],
        ),
        _ => DiffOp::Invalidate(line),
    }
}

/// Replays `ops` on a [`SetAssocCache`] and a [`RefCache`] of `sets ×
/// ways` and asserts that every op returns the same value and that
/// `stats` agree after each. `len`, `is_empty` and the `iter` order (each
/// a walk over every set of the reference) are compared every
/// `check_every` ops, before each flush and at the end. Returns the
/// cache's final counters.
fn replay_differential(
    sets: u64,
    ways: usize,
    ops: impl IntoIterator<Item = DiffOp>,
    check_every: u64,
) -> CacheStats {
    let mut cache = SetAssocCache::with_capacity(sets * ways as u64 * LINE_BYTES, ways);
    let mut reference = RefCache::new(sets, ways);
    let same_iter = |cache: &SetAssocCache, reference: &RefCache, i: u64| {
        assert_eq!(cache.len(), reference.len(), "op {i}: len");
        assert_eq!(cache.is_empty(), reference.len() == 0, "op {i}: is_empty");
        assert!(
            cache.iter().eq(reference.iter()),
            "iter order diverged after op {i}"
        );
    };
    let mut n = 0;
    for (i, op) in ops.into_iter().enumerate() {
        let i = i as u64;
        match op {
            DiffOp::Lookup(a) => {
                let a = LineAddr::new(a);
                assert_eq!(cache.lookup(a), reference.lookup(a), "op {i}: {op:?}");
            }
            DiffOp::Probe(a) => {
                let a = LineAddr::new(a);
                assert_eq!(cache.probe(a), reference.probe(a), "op {i}: {op:?}");
            }
            DiffOp::Fill(a, s) => {
                let a = LineAddr::new(a);
                assert_eq!(cache.fill(a, s), reference.fill(a, s), "op {i}: {op:?}");
            }
            DiffOp::SetState(a, s) => {
                let a = LineAddr::new(a);
                assert_eq!(
                    cache.set_state(a, s),
                    reference.set_state(a, s),
                    "op {i}: {op:?}"
                );
            }
            DiffOp::Invalidate(a) => {
                let a = LineAddr::new(a);
                assert_eq!(
                    cache.invalidate(a),
                    reference.invalidate(a),
                    "op {i}: {op:?}"
                );
            }
            DiffOp::FlushAll => {
                same_iter(&cache, &reference, i);
                assert_eq!(
                    cache.flush_all(),
                    reference.flush_all(),
                    "op {i}: flush_all"
                );
            }
        }
        assert_eq!(cache.stats(), reference.stats, "op {i}: stats");
        if i.is_multiple_of(check_every) {
            same_iter(&cache, &reference, i);
        }
        n = i + 1;
    }
    same_iter(&cache, &reference, n);
    assert_eq!(cache.flush_all(), reference.flush_all(), "final flush_all");
    assert!(cache.is_empty());
    cache.stats()
}

/// Associativities the differential tests cover: direct-mapped, the HMC's
/// 4 ways (a set's first slab block), 5 (one past it), the LLC's 12 and
/// L2's 16.
const DIFF_WAYS: [usize; 5] = [1, 4, 5, 12, 16];

/// The LLC's geometry (60 MiB, 12-way): 81,920 sets, 1.2 million ops over
/// four times its capacity. Half the ops land in 64 scattered hot sets, so
/// those sets fill, evict and reorder while the rest stay sparse; a flush
/// every ~256 k ops empties the cache mid-run.
#[test]
#[ignore = "heavy differential sweep; CI runs it via cargo test --release -- --ignored"]
fn cache_matches_reference_at_llc_geometry() {
    let (sets, ways) = (60 * 1024 * 1024 / LINE_BYTES / 12, 12);
    assert_eq!(sets, 81_920);
    let mut rng = SimRng::seed_from(0x11c_d1ff);
    let ops = (0..1_200_000u64).map(|_| {
        if rng.gen_range(1 << 18) == 0 {
            return DiffOp::FlushAll;
        }
        let set = if rng.gen_bool(0.5) {
            rng.gen_range(64) * 1279 % sets
        } else {
            rng.gen_range(sets)
        };
        let tag = rng.gen_range(4 * ways as u64);
        diff_op(rng.gen_range(63) as u8, tag * sets + set)
    });
    let stats = replay_differential(sets, ways, ops, 1 << 12);
    assert!(stats.evictions > 100_000, "the hot sets evict: {stats:?}");
}

#[derive(Debug, Clone, Copy)]
enum CacheOp {
    Lookup(u16),
    FillShared(u16),
    FillModified(u16),
    Invalidate(u16),
    SetShared(u16),
}

fn cache_op() -> impl Strategy<Value = CacheOp> {
    prop_oneof![
        any::<u16>().prop_map(CacheOp::Lookup),
        any::<u16>().prop_map(CacheOp::FillShared),
        any::<u16>().prop_map(CacheOp::FillModified),
        any::<u16>().prop_map(CacheOp::Invalidate),
        any::<u16>().prop_map(CacheOp::SetShared),
    ]
}

proptest! {
    /// The slab cache returns what the eager per-set `Vec` cache
    /// returns, op for op, over 1- to 19-set caches (most not a power of
    /// two) of every [`DIFF_WAYS`] associativity, on lines spread over
    /// four times the capacity.
    #[test]
    fn cache_matches_reference(
        sets in 1u64..20,
        ways_idx in 0..DIFF_WAYS.len(),
        ops in proptest::collection::vec((0u8..64, any::<u64>()), 1..600),
    ) {
        let ways = DIFF_WAYS[ways_idx];
        let span = 4 * sets * ways as u64;
        let ops = ops.into_iter().map(|(kind, a)| match kind {
            63 => DiffOp::FlushAll,
            _ => diff_op(kind, a % span),
        });
        replay_differential(sets, ways, ops, 1);
    }

    /// The same differential check on an op mix that sweeps the cache:
    /// op `i` lands in one of the three sets from `i / 16`, on one of
    /// `ways + 2` tags. Each set fills (past 4 ways, outgrowing its small
    /// block), is invalidated and refilled, and is left behind, while the
    /// sets ahead are filled for the first time and so take the small
    /// blocks the sets behind released.
    #[test]
    fn cache_matches_reference_as_new_sets_fill(
        sets in 8u64..64,
        ways_idx in 0..DIFF_WAYS.len(),
        ops in proptest::collection::vec((0u8..63, 0u64..3, any::<u64>()), 1..1500),
    ) {
        let ways = DIFF_WAYS[ways_idx];
        let ops = ops.into_iter().enumerate().map(|(i, (kind, near, tag))| {
            let set = (i as u64 / 16 + near) % sets;
            diff_op(kind, tag % (ways as u64 + 2) * sets + set)
        });
        replay_differential(sets, ways, ops, 1);
    }

    /// Set placement by mask and shift (power-of-two set counts) is
    /// placement by `%` and `/` (every other count): in a direct-mapped
    /// cache of `n` sets, a line `b != a` displaces line `a` exactly when
    /// `a % n == b % n`, and both come back at their own addresses.
    #[test]
    fn set_split_matches_div_mod(
        log2 in 0u32..18,
        other in 1u64..200_000,
        pow2 in any::<bool>(),
        a in any::<u64>(),
        b in any::<u64>(),
        same_set in any::<bool>(),
    ) {
        let n = if pow2 { 1 << log2 } else { other };
        // Half the cases pick `b` in `a`'s set, on an arbitrary tag.
        let b = if same_set { b % (u64::MAX / n) * n + a % n } else { b };
        let mut cache = SetAssocCache::with_capacity(n * LINE_BYTES, 1);
        let (la, lb) = (LineAddr::new(a), LineAddr::new(b));
        prop_assert_eq!(cache.fill(la, MesiState::Modified), None);
        prop_assert!(cache.iter().eq([(la, MesiState::Modified)]));
        let victim = cache.fill(lb, MesiState::Shared);
        if a == b {
            prop_assert_eq!(victim, None);
            prop_assert!(cache.iter().eq([(lb, MesiState::Shared)]));
        } else if a % n == b % n {
            prop_assert_eq!(
                victim,
                Some(Evicted { addr: la, state: MesiState::Modified })
            );
            prop_assert!(cache.iter().eq([(lb, MesiState::Shared)]));
        } else {
            prop_assert_eq!(victim, None);
            let mut want = [(la, MesiState::Modified), (lb, MesiState::Shared)];
            want.sort_by_key(|&(l, _)| l.index() % n);
            prop_assert!(cache.iter().eq(want), "lines {a} and {b} in {n} sets");
        }
    }

    /// Under arbitrary op sequences the cache (a) never exceeds capacity,
    /// (b) never silently drops a dirty line (every Modified fill is later
    /// resident, reported evicted, or explicitly invalidated), and (c) its
    /// shadow model agrees on membership.
    #[test]
    fn cache_invariants_hold(ops in proptest::collection::vec(cache_op(), 1..400)) {
        let capacity_lines = 64usize;
        let mut cache = SetAssocCache::with_capacity(64 * capacity_lines as u64, 4);
        // Shadow: lines we believe are resident (state only).
        let mut shadow: HashMap<u64, MesiState> = HashMap::new();
        for op in ops {
            match op {
                CacheOp::Lookup(a) => {
                    let addr = LineAddr::new(a as u64);
                    let got = cache.lookup(addr);
                    prop_assert_eq!(got, shadow.get(&(a as u64)).copied());
                }
                CacheOp::FillShared(a) | CacheOp::FillModified(a) => {
                    let state = if matches!(op, CacheOp::FillModified(_)) {
                        MesiState::Modified
                    } else {
                        MesiState::Shared
                    };
                    let addr = LineAddr::new(a as u64);
                    if let Some(evicted) = cache.fill(addr, state) {
                        let removed = shadow.remove(&evicted.addr.index());
                        prop_assert_eq!(removed, Some(evicted.state), "victim state agrees");
                    }
                    shadow.insert(a as u64, state);
                }
                CacheOp::Invalidate(a) => {
                    let addr = LineAddr::new(a as u64);
                    let got = cache.invalidate(addr);
                    prop_assert_eq!(got, shadow.remove(&(a as u64)));
                }
                CacheOp::SetShared(a) => {
                    let addr = LineAddr::new(a as u64);
                    let changed = cache.set_state(addr, MesiState::Shared);
                    if let std::collections::hash_map::Entry::Occupied(mut e) =
                        shadow.entry(a as u64)
                    {
                        e.insert(MesiState::Shared);
                        prop_assert!(changed);
                    } else {
                        prop_assert!(!changed);
                    }
                }
            }
            prop_assert!(cache.len() <= capacity_lines);
            prop_assert_eq!(cache.len(), shadow.len());
        }
        // Final sweep: every shadow line is resident with the same state.
        for (&a, &state) in &shadow {
            prop_assert_eq!(cache.probe(LineAddr::new(a)), Some(state));
        }
    }

    /// Write-queue acceptance times are non-decreasing for non-decreasing
    /// offer times, and never precede the offer.
    #[test]
    fn write_queue_is_causal(
        gaps in proptest::collection::vec(0u64..500, 1..300),
        cap in 1usize..64,
    ) {
        let mut q = WriteQueue::new(cap, Duration::from_nanos(10));
        let mut now = Time::ZERO;
        let mut last_accept = Time::ZERO;
        for gap in gaps {
            now += Duration::from_nanos(gap);
            let accepted = q.push(now);
            prop_assert!(accepted >= now, "acceptance after offer");
            prop_assert!(accepted >= last_accept, "FIFO acceptance order");
            last_accept = accepted;
        }
        prop_assert!(q.drained_at() >= last_accept);
    }

    /// Memory-system reads complete after issue and each channel's
    /// completions are self-consistent (monotone for same-channel
    /// same-time issues).
    #[test]
    fn dram_reads_are_causal(addrs in proptest::collection::vec(0u64..4096, 1..200)) {
        let mut mem = MemorySystem::new(DramTech::Ddr4_2400, 2, 32);
        let mut per_channel_last: HashMap<u64, Time> = HashMap::new();
        for a in addrs {
            let done = mem.read(LineAddr::new(a), Time::ZERO);
            prop_assert!(done > Time::ZERO);
            let ch = a % 2;
            if let Some(&prev) = per_channel_last.get(&ch) {
                prop_assert!(done > prev, "channel {ch} serializes");
            }
            per_channel_last.insert(ch, done);
        }
    }
}
