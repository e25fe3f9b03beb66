//! Watermark-driven page reclaim (kswapd) feeding zswap (§VI-A).
//!
//! The paper's zswap workflow has two entry points: the **synchronous
//! direct path**, taken when an allocation fails outright (the allocator
//! blocks while pages are reclaimed), and the **asynchronous background
//! path**, where kswapd wakes when free memory drops below the `page_low`
//! watermark and reclaims LRU pages until it exceeds `page_high`.

use std::collections::{BTreeMap, HashMap};

use host::socket::Socket;
use sim_core::time::{Duration, Time};

use crate::offload::OffloadBackend;
use crate::page::PageData;
use crate::zswap::{SwapKey, Zswap};

/// Which reclaim path ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReclaimPath {
    /// Synchronous: the allocator was blocked (performance-critical).
    Direct,
    /// Asynchronous: kswapd ran in the background.
    Background,
}

/// Watermark configuration in pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Watermarks {
    /// Below this, allocations take the direct-reclaim path.
    pub(crate) min: u64,
    /// Below this, kswapd wakes.
    pub(crate) low: u64,
    /// kswapd reclaims until free pages exceed this.
    pub(crate) high: u64,
}

impl Watermarks {
    /// Kernel-style defaults for a zone of `total` pages.
    pub fn for_zone(total: u64) -> Self {
        Watermarks {
            min: total / 64,
            low: total / 32,
            high: total / 16,
        }
    }
}

/// Outcome of a reclaim pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReclaimOutcome {
    /// Pages reclaimed (swapped out via zswap).
    pub reclaimed: u64,
    /// The keys that were swapped out, in eviction order.
    pub keys: Vec<SwapKey>,
    /// When the pass finished.
    pub completion: Time,
    /// Host CPU time consumed (LRU scanning + zswap store host cost).
    pub host_cpu: Duration,
}

/// A memory zone with an inactive-LRU list of swappable pages, reclaiming
/// through a zswap instance.
///
/// # Examples
///
/// ```
/// use host::socket::Socket;
/// use kernel::offload::CpuBackend;
/// use kernel::reclaim::{MemoryZone, Watermarks};
/// use kernel::zswap::{Zswap, ZswapConfig};
/// use sim_core::time::Time;
///
/// let mut host = Socket::xeon_6538y();
/// let mut zswap = Zswap::new(ZswapConfig::kernel_default(64 << 20), CpuBackend::new());
/// let mut zone = MemoryZone::new(1024, Watermarks::for_zone(1024));
/// // Fill memory with anonymous pages until kswapd has work to do.
/// for i in 0..1020 {
///     zone.allocate(kernel::zswap::SwapKey(i), vec![0u8; 4096], Time::ZERO, &mut zswap, &mut host);
/// }
/// // Reclaim kept the zone at or above its low watermark.
/// assert!(!zone.below_low());
/// ```
#[derive(Debug)]
pub struct MemoryZone {
    free_pages: u64,
    watermarks: Watermarks,
    /// Inactive LRU (reclaim victims): stamp → key, oldest first.
    inactive: BTreeMap<u64, SwapKey>,
    /// Active LRU (repeatedly referenced, protected): stamp → key.
    active: BTreeMap<u64, SwapKey>,
    /// Resident pages: key → (stamp, on_active, contents).
    resident: HashMap<SwapKey, (u64, bool, PageData)>,
    next_stamp: u64,
    direct_reclaims: u64,
    background_reclaims: u64,
}

impl MemoryZone {
    /// Creates a zone of `total_pages` with the given watermarks.
    ///
    /// # Panics
    ///
    /// Panics if the watermarks are not ordered `min < low < high < total`.
    pub fn new(total_pages: u64, watermarks: Watermarks) -> Self {
        assert!(
            watermarks.min < watermarks.low
                && watermarks.low < watermarks.high
                && watermarks.high < total_pages,
            "watermarks must satisfy min < low < high < total"
        );
        MemoryZone {
            free_pages: total_pages,
            watermarks,
            inactive: BTreeMap::new(),
            active: BTreeMap::new(),
            resident: HashMap::new(),
            next_stamp: 0,
            direct_reclaims: 0,
            background_reclaims: 0,
        }
    }

    fn insert_resident(&mut self, key: SwapKey, page: PageData) {
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        // New (or faulted-in) pages start on the inactive list, as in the
        // kernel: a single reference does not protect a page.
        if let Some((old, was_active, _)) = self.resident.insert(key, (stamp, false, page)) {
            if was_active {
                self.active.remove(&old);
            } else {
                self.inactive.remove(&old);
            }
            self.free_pages += 1; // overwrite does not consume a new frame
        }
        self.inactive.insert(stamp, key);
    }

    /// True if the key currently has a resident frame.
    pub fn is_resident(&self, key: SwapKey) -> bool {
        self.resident.contains_key(&key)
    }

    /// (direct, background) reclaim pass counts.
    pub fn reclaim_counts(&self) -> (u64, u64) {
        (self.direct_reclaims, self.background_reclaims)
    }

    /// True if kswapd should be running.
    pub fn below_low(&self) -> bool {
        self.free_pages < self.watermarks.low
    }

    /// Allocates one page of anonymous memory holding `data`, reclaiming
    /// first if the zone is exhausted (the direct path). Returns the
    /// outcome of any direct reclaim.
    ///
    /// # Panics
    ///
    /// Panics if no frame can be freed even by direct reclaim (every
    /// resident page already reclaimed and the zone is still full) — the
    /// simulated equivalent of the OOM killer firing.
    pub fn allocate<B: OffloadBackend>(
        &mut self,
        key: SwapKey,
        data: PageData,
        now: Time,
        zswap: &mut Zswap<B>,
        host: &mut Socket,
    ) -> ReclaimOutcome {
        let mut outcome = ReclaimOutcome {
            reclaimed: 0,
            keys: Vec::new(),
            completion: now,
            host_cpu: Duration::ZERO,
        };
        if self.free_pages <= self.watermarks.min {
            // Direct reclaim: synchronously swap out a batch.
            outcome = self.reclaim(ReclaimPath::Direct, 32, now, zswap, host);
        }
        assert!(
            self.free_pages > 0,
            "zone exhausted even after direct reclaim"
        );
        self.free_pages -= 1;
        self.insert_resident(key, data);
        outcome
    }

    /// Frees a page that was allocated and is still resident (drops it
    /// from the LRU if present).
    pub fn free(&mut self, key: SwapKey) {
        if let Some((stamp, was_active, _)) = self.resident.remove(&key) {
            if was_active {
                self.active.remove(&stamp);
            } else {
                self.inactive.remove(&stamp);
            }
            self.free_pages += 1;
        }
    }

    /// Marks a page referenced: a second reference promotes it from the
    /// inactive to the active list (the kernel's two-list protection), and
    /// active pages are re-stamped to the tail.
    pub fn touch(&mut self, key: SwapKey) {
        if let Some((stamp, was_active, page)) = self.resident.remove(&key) {
            if was_active {
                self.active.remove(&stamp);
            } else {
                self.inactive.remove(&stamp);
            }
            let new_stamp = self.next_stamp;
            self.next_stamp += 1;
            self.active.insert(new_stamp, key);
            self.resident.insert(key, (new_stamp, true, page));
        }
    }

    /// Swaps a page back in on a fault: re-allocates a frame for it.
    /// Returns the page data if it had been swapped out.
    pub fn fault_in<B: OffloadBackend>(
        &mut self,
        key: SwapKey,
        now: Time,
        zswap: &mut Zswap<B>,
        host: &mut Socket,
    ) -> Option<(PageData, Time, Duration)> {
        let (page, op) = zswap.load(key, now, host)?;
        let mut t = op.completion;
        let mut cpu = op.host_cpu;
        if self.free_pages <= self.watermarks.min {
            let o = self.reclaim(ReclaimPath::Direct, 32, t, zswap, host);
            t = o.completion;
            cpu += o.host_cpu;
        }
        self.free_pages = self.free_pages.saturating_sub(1);
        self.insert_resident(key, page.clone());
        Some((page, t, cpu))
    }

    /// Runs a reclaim pass: swap out up to `batch` LRU pages via zswap.
    /// The background path continues until `page_high` or the LRU is
    /// empty.
    pub fn reclaim<B: OffloadBackend>(
        &mut self,
        path: ReclaimPath,
        batch: u64,
        now: Time,
        zswap: &mut Zswap<B>,
        host: &mut Socket,
    ) -> ReclaimOutcome {
        match path {
            ReclaimPath::Direct => self.direct_reclaims += 1,
            ReclaimPath::Background => self.background_reclaims += 1,
        }
        let target = match path {
            ReclaimPath::Direct => self.free_pages + batch,
            ReclaimPath::Background => self.watermarks.high,
        };
        let mut t = now;
        let mut cpu = Duration::ZERO;
        let mut reclaimed = 0;
        let mut keys = Vec::new();
        while self.free_pages < target {
            // Inactive pages are reclaimed first; if none remain, the
            // oldest active pages are demoted and taken.
            let from_inactive = self.inactive.iter().next().map(|(&s, &k)| (s, k));
            let (stamp, key) = match from_inactive {
                Some(e) => {
                    self.inactive.remove(&e.0);
                    e
                }
                None => {
                    let Some((&s, &k)) = self.active.iter().next() else {
                        break;
                    };
                    self.active.remove(&s);
                    (s, k)
                }
            };
            let _ = stamp;
            let (_, _, page) = self.resident.remove(&key).expect("LRU entry is resident");
            // LRU scan cost per page.
            cpu += Duration::from_nanos(300);
            let op = zswap.store(key, &page, t + Duration::from_nanos(300), host);
            t = op.completion;
            cpu += op.host_cpu;
            self.free_pages += 1;
            reclaimed += 1;
            keys.push(key);
        }
        ReclaimOutcome {
            reclaimed,
            keys,
            completion: t,
            host_cpu: cpu,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offload::CpuBackend;
    use crate::page::{PageContent, PAGE_SIZE};
    use crate::zswap::ZswapConfig;
    use sim_core::rng::SimRng;

    fn setup() -> (Socket, Zswap<CpuBackend>, MemoryZone) {
        let host = Socket::xeon_6538y();
        let zswap = Zswap::new(ZswapConfig::kernel_default(256 << 20), CpuBackend::new());
        let zone = MemoryZone::new(256, Watermarks::for_zone(256));
        (host, zswap, zone)
    }

    #[test]
    fn allocation_consumes_free_pages() {
        let (mut h, mut z, mut zone) = setup();
        let before = zone.free_pages;
        zone.allocate(SwapKey(1), vec![0u8; PAGE_SIZE], Time::ZERO, &mut z, &mut h);
        assert_eq!(zone.free_pages, before - 1);
    }

    #[test]
    fn exhaustion_triggers_direct_reclaim() {
        let (mut h, mut z, mut zone) = setup();
        let mut rng = SimRng::seed_from(1);
        let mut t = Time::ZERO;
        // 256-page zone with min watermark 4: filling past 252 triggers
        // direct reclaim.
        for i in 0..300 {
            let o = zone.allocate(
                SwapKey(i),
                PageContent::Text.generate(&mut rng),
                t,
                &mut z,
                &mut h,
            );
            t = o.completion.max(t);
        }
        assert!(zone.reclaim_counts().0 > 0, "direct reclaim ran");
        assert!(z.stats().stored > 0, "pages landed in zswap");
        assert!(zone.free_pages > 0);
    }

    #[test]
    fn background_reclaim_reaches_high_watermark() {
        let (mut h, mut z, mut zone) = setup();
        let mut rng = SimRng::seed_from(2);
        let mut t = Time::ZERO;
        // Fill until below low.
        let mut i = 0;
        while !zone.below_low() {
            let o = zone.allocate(
                SwapKey(i),
                PageContent::Binary.generate(&mut rng),
                t,
                &mut z,
                &mut h,
            );
            t = o.completion.max(t);
            i += 1;
        }
        let o = zone.reclaim(ReclaimPath::Background, 0, t, &mut z, &mut h);
        assert!(o.reclaimed > 0);
        assert!(zone.free_pages >= zone.watermarks.high);
        assert_eq!(zone.reclaim_counts().1, 1);
    }

    #[test]
    fn fault_in_restores_page() {
        let (mut h, mut z, mut zone) = setup();
        let mut rng = SimRng::seed_from(3);
        let page = PageContent::Text.generate(&mut rng);
        zone.allocate(SwapKey(7), page.clone(), Time::ZERO, &mut z, &mut h);
        // Force it out.
        let o = zone.reclaim(ReclaimPath::Direct, 8, Time::ZERO, &mut z, &mut h);
        assert!(o.reclaimed >= 1);
        let (restored, _, _) = zone
            .fault_in(SwapKey(7), o.completion, &mut z, &mut h)
            .unwrap();
        assert_eq!(restored, page);
        assert!(zone
            .fault_in(SwapKey(99), o.completion, &mut z, &mut h)
            .is_none());
    }

    #[test]
    fn touch_protects_from_imminent_reclaim() {
        let (mut h, mut z, mut zone) = setup();
        let mut rng = SimRng::seed_from(4);
        for i in 0..8 {
            zone.allocate(
                SwapKey(i),
                PageContent::Text.generate(&mut rng),
                Time::ZERO,
                &mut z,
                &mut h,
            );
        }
        zone.touch(SwapKey(0));
        let o = zone.reclaim(ReclaimPath::Direct, 4, Time::ZERO, &mut z, &mut h);
        assert_eq!(o.reclaimed, 4);
        // Keys 1..=4 went out; key 0 survived at the tail.
        assert!(zone
            .fault_in(SwapKey(1), o.completion, &mut z, &mut h)
            .is_some());
        assert!(zone
            .fault_in(SwapKey(0), o.completion, &mut z, &mut h)
            .is_none());
    }

    #[test]
    fn free_returns_frames() {
        let (mut h, mut z, mut zone) = setup();
        let before = zone.free_pages;
        zone.allocate(SwapKey(5), vec![0u8; PAGE_SIZE], Time::ZERO, &mut z, &mut h);
        zone.free(SwapKey(5));
        assert_eq!(zone.free_pages, before);
    }

    #[test]
    #[should_panic(expected = "min < low < high")]
    fn bad_watermarks_rejected() {
        let _ = MemoryZone::new(
            100,
            Watermarks {
                min: 50,
                low: 40,
                high: 60,
            },
        );
    }
}
