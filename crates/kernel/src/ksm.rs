//! ksm: kernel samepage merging (§VI-B).
//!
//! ksm periodically scans candidate pages, computing a 32-bit xxhash as a
//! change hint. Stable pages are searched against two content-ordered
//! trees: the *stable tree* of already-merged (write-protected) pages and
//! the *unstable tree* of candidates seen this scan cycle. Identical pages
//! merge into a single CoW copy. Both the hash and the byte-by-byte tree
//! comparisons execute on the pluggable [`OffloadBackend`].

use std::collections::HashMap;

use accel::compare::PageCompare;
use host::socket::Socket;
use sim_core::time::{Duration, Time};
use sim_core::trace::{self, KsmStep, TraceEvent};

use crate::offload::OffloadBackend;
use crate::page::{PageData, PAGE_SIZE};

/// Identifier of a candidate page registered with ksm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct KsmPageId(pub usize);

/// ksm event counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KsmStats {
    /// Candidate pages scanned (checksum computed).
    pub pages_scanned: u64,
    /// Pages skipped because their checksum changed since the last scan
    /// (volatile pages are not merge candidates).
    pub volatile_skips: u64,
    /// Pages merged into a stable page (each saves one page frame).
    pub pages_merged: u64,
    /// Stable-tree nodes (distinct shared pages).
    pub stable_nodes: u64,
    /// Copy-on-write breaks (writes to merged pages).
    pub cow_breaks: u64,
    /// Byte-comparisons performed during tree walks.
    pub comparisons: u64,
}

/// Outcome of scanning one page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanOutcome {
    /// Checksum changed since last scan; page is volatile.
    Volatile,
    /// Merged with an existing stable page.
    MergedStable,
    /// Matched another unstable candidate; both promoted to a new stable
    /// node.
    MergedUnstable,
    /// Inserted into the unstable tree to await a future match.
    Unstable,
    /// First scan: checksum recorded, no tree search yet.
    FirstScan,
}

/// Timing of one ksm operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KsmOp {
    /// When the operation completed.
    pub completion: Time,
    /// Host CPU time consumed.
    pub host_cpu: Duration,
    /// What happened.
    pub outcome: ScanOutcome,
}

#[derive(Debug, Clone)]
enum PageState {
    /// An ordinary, writable page with its own frame.
    Normal,
    /// Merged: this page's frame was freed; reads go to the stable node.
    Merged { stable: usize },
}

#[derive(Debug, Clone)]
struct Node {
    /// Index into `stable_pages` / `unstable` arena contents.
    data: PageData,
    left: Option<usize>,
    right: Option<usize>,
    /// How many candidate pages share this node (stable tree only).
    sharers: u64,
}

#[derive(Debug, Clone, Default)]
struct Tree {
    nodes: Vec<Node>,
    root: Option<usize>,
}

enum TreeSearch {
    /// An identical page already in the tree.
    Found(#[allow(dead_code)] usize),
    /// Inserted as a new leaf.
    InsertedAt(#[allow(dead_code)] usize),
}

impl Tree {
    fn clear(&mut self) {
        self.nodes.clear();
        self.root = None;
    }

    /// Walks the tree comparing `page` at each node via `compare`;
    /// either finds an identical node or inserts a new leaf.
    fn search_or_insert(
        &mut self,
        page: &[u8],
        mut compare: impl FnMut(&[u8], &[u8]) -> PageCompare,
    ) -> (TreeSearch, u64) {
        let mut comparisons = 0;
        let Some(mut cur) = self.root else {
            self.nodes.push(Node {
                data: page.to_vec(),
                left: None,
                right: None,
                sharers: 1,
            });
            self.root = Some(0);
            return (TreeSearch::InsertedAt(0), 0);
        };
        loop {
            comparisons += 1;
            let r = compare(page, &self.nodes[cur].data);
            match r {
                PageCompare::Identical => return (TreeSearch::Found(cur), comparisons),
                PageCompare::DiffersAt { ordering, .. } => {
                    let go_left = ordering == std::cmp::Ordering::Less;
                    let next = if go_left {
                        self.nodes[cur].left
                    } else {
                        self.nodes[cur].right
                    };
                    match next {
                        Some(next) => cur = next,
                        None => {
                            let idx = self.nodes.len();
                            self.nodes.push(Node {
                                data: page.to_vec(),
                                left: None,
                                right: None,
                                sharers: 1,
                            });
                            let branch = if go_left {
                                &mut self.nodes[cur].left
                            } else {
                                &mut self.nodes[cur].right
                            };
                            *branch = Some(idx);
                            return (TreeSearch::InsertedAt(idx), comparisons);
                        }
                    }
                }
            }
        }
    }
}

/// The ksm daemon state over a pluggable offload backend.
///
/// # Examples
///
/// ```
/// use host::socket::Socket;
/// use kernel::ksm::Ksm;
/// use kernel::offload::CpuBackend;
/// use sim_core::time::Time;
///
/// let mut host = Socket::xeon_6538y();
/// let mut ksm = Ksm::new(CpuBackend::new());
/// let a = ksm.register(vec![7u8; 4096]);
/// let b = ksm.register(vec![7u8; 4096]);
/// // Two scan cycles: first records checksums, second merges.
/// ksm.scan_cycle(&[a, b], Time::ZERO, &mut host);
/// ksm.scan_cycle(&[a, b], Time::ZERO, &mut host);
/// // b matched a in the unstable tree and merged into a stable node;
/// // a itself merges on the next cycle via the stable tree.
/// assert_eq!(ksm.stats().pages_merged, 1);
/// ksm.scan_cycle(&[a, b], Time::ZERO, &mut host);
/// assert_eq!(ksm.stats().pages_merged, 2);
/// ```
#[derive(Debug)]
pub struct Ksm<B> {
    backend: B,
    pages: Vec<(PageData, PageState)>,
    stable: Tree,
    unstable: Tree,
    checksums: HashMap<KsmPageId, u32>,
    stats: KsmStats,
}

impl<B: OffloadBackend> Ksm<B> {
    /// Creates a ksm instance.
    pub fn new(backend: B) -> Self {
        Ksm {
            backend,
            pages: Vec::new(),
            stable: Tree::default(),
            unstable: Tree::default(),
            checksums: HashMap::new(),
            stats: KsmStats::default(),
        }
    }

    /// Registers a candidate page (an madvise(MERGEABLE) region page).
    ///
    /// # Panics
    ///
    /// Panics if the page is not exactly 4 KiB.
    pub fn register(&mut self, page: PageData) -> KsmPageId {
        assert_eq!(page.len(), PAGE_SIZE, "ksm candidates are whole pages");
        self.pages.push((page, PageState::Normal));
        KsmPageId(self.pages.len() - 1)
    }

    /// Event counters.
    pub fn stats(&self) -> KsmStats {
        self.stats
    }

    /// The current content of a page (following merge indirection).
    pub fn read_page(&self, id: KsmPageId) -> &[u8] {
        match &self.pages[id.0].1 {
            PageState::Normal => &self.pages[id.0].0,
            PageState::Merged { stable } => &self.stable.nodes[*stable].data,
        }
    }

    /// True if the page currently shares a stable frame.
    pub fn is_merged(&self, id: KsmPageId) -> bool {
        matches!(self.pages[id.0].1, PageState::Merged { .. })
    }

    /// Page frames currently saved by merging: merged candidates release
    /// their frames, each stable node retains one shared copy, and CoW
    /// breaks re-allocate private frames.
    pub fn frames_saved(&self) -> u64 {
        self.stats
            .pages_merged
            .saturating_sub(self.stats.stable_nodes + self.stats.cow_breaks)
    }

    /// Writes to a page: merged pages take a CoW break, getting a private
    /// writable copy again.
    pub fn write_page(&mut self, id: KsmPageId, data: PageData) {
        assert_eq!(data.len(), PAGE_SIZE, "ksm candidates are whole pages");
        if let PageState::Merged { stable } = self.pages[id.0].1 {
            self.stable.nodes[stable].sharers -= 1;
            self.stats.cow_breaks += 1;
            trace::emit(
                Time::ZERO,
                TraceEvent::Ksm {
                    step: KsmStep::CowBreak,
                    page: id.0 as u64,
                    aux: stable as u64,
                },
            );
        }
        self.pages[id.0] = (data, PageState::Normal);
    }

    /// Scans one page: checksum hint, then stable/unstable tree search.
    pub fn scan_page(&mut self, id: KsmPageId, now: Time, host: &mut Socket) -> KsmOp {
        if self.is_merged(id) {
            // Already sharing; nothing to do.
            return KsmOp {
                completion: now,
                host_cpu: Duration::ZERO,
                outcome: ScanOutcome::MergedStable,
            };
        }
        self.stats.pages_scanned += 1;
        trace::emit(
            now,
            TraceEvent::Ksm {
                step: KsmStep::ScanBegin,
                page: id.0 as u64,
                aux: 0,
            },
        );
        // Checksum hint (disjoint field borrows: backend vs pages — no
        // page copy needed for the common volatile/first-scan outcomes).
        let sum = self.backend.checksum(&self.pages[id.0].0, now, host);
        let mut t = sum.completion;
        let mut cpu = sum.host_cpu;
        match self.checksums.insert(id, sum.value) {
            None => {
                // First sighting: record and wait for the next cycle.
                return KsmOp {
                    completion: t,
                    host_cpu: cpu,
                    outcome: ScanOutcome::FirstScan,
                };
            }
            Some(prev) if prev != sum.value => {
                self.stats.volatile_skips += 1;
                trace::emit(
                    t,
                    TraceEvent::Ksm {
                        step: KsmStep::ChecksumVolatile,
                        page: id.0 as u64,
                        aux: sum.value as u64,
                    },
                );
                return KsmOp {
                    completion: t,
                    host_cpu: cpu,
                    outcome: ScanOutcome::Volatile,
                };
            }
            Some(_) => {}
        }
        // The tree walks interleave borrows of the trees, pages, and
        // backend; move the page out here. A merge frees the frame, an
        // unstable insert puts the page back.
        let page = std::mem::take(&mut self.pages[id.0].0);
        // Stable-tree search: each node comparison runs on the backend.
        let backend = &mut self.backend;
        let mut compare_timed = |a: &[u8], b: &[u8], t: &mut Time, cpu: &mut Duration| {
            let out = backend.compare(a, b, *t, host);
            *t = out.completion;
            *cpu += out.host_cpu;
            out.value
        };
        let (result, comparisons) = self
            .stable
            .search_or_insert_probe(&page, |a, b| compare_timed(a, b, &mut t, &mut cpu));
        self.stats.comparisons += comparisons;
        if let Some(stable_idx) = result {
            self.stable.nodes[stable_idx].sharers += 1;
            // `page` is not put back: the frame is freed.
            self.pages[id.0].1 = PageState::Merged { stable: stable_idx };
            self.stats.pages_merged += 1;
            trace::emit(
                t,
                TraceEvent::Ksm {
                    step: KsmStep::MergedStable,
                    page: id.0 as u64,
                    aux: stable_idx as u64,
                },
            );
            // Page-table update + CoW protection.
            cpu += Duration::from_nanos(600);
            return KsmOp {
                completion: t,
                host_cpu: cpu,
                outcome: ScanOutcome::MergedStable,
            };
        }
        // Unstable-tree search.
        let backend = &mut self.backend;
        let mut compare_timed = |a: &[u8], b: &[u8], t: &mut Time, cpu: &mut Duration| {
            let out = backend.compare(a, b, *t, host);
            *t = out.completion;
            *cpu += out.host_cpu;
            out.value
        };
        let (search, comparisons) = self
            .unstable
            .search_or_insert(&page, |a, b| compare_timed(a, b, &mut t, &mut cpu));
        self.stats.comparisons += comparisons;
        match search {
            TreeSearch::Found(_) => {
                // Promote: create a stable node shared by both pages. The
                // unstable twin is identified lazily when next scanned (as
                // in the kernel, where the rmap item migrates).
                let stable_idx = self.stable.insert_unbalanced(page);
                self.stable.nodes[stable_idx].sharers += 1;
                self.pages[id.0].1 = PageState::Merged { stable: stable_idx };
                self.stats.pages_merged += 1;
                self.stats.stable_nodes += 1;
                trace::emit(
                    t,
                    TraceEvent::Ksm {
                        step: KsmStep::MergedUnstable,
                        page: id.0 as u64,
                        aux: stable_idx as u64,
                    },
                );
                cpu += Duration::from_nanos(1_200);
                KsmOp {
                    completion: t,
                    host_cpu: cpu,
                    outcome: ScanOutcome::MergedUnstable,
                }
            }
            TreeSearch::InsertedAt(_) => {
                self.pages[id.0].0 = page;
                trace::emit(
                    t,
                    TraceEvent::Ksm {
                        step: KsmStep::UnstableInsert,
                        page: id.0 as u64,
                        aux: comparisons,
                    },
                );
                KsmOp {
                    completion: t,
                    host_cpu: cpu,
                    outcome: ScanOutcome::Unstable,
                }
            }
        }
    }

    /// Runs one full scan cycle over `ids`: the unstable tree is rebuilt
    /// each cycle (as in the kernel). Returns (completion, host CPU).
    pub fn scan_cycle(
        &mut self,
        ids: &[KsmPageId],
        now: Time,
        host: &mut Socket,
    ) -> (Time, Duration) {
        self.unstable.clear();
        let mut t = now;
        let mut cpu = Duration::ZERO;
        for &id in ids {
            let op = self.scan_page(id, t, host);
            t = op.completion;
            cpu += op.host_cpu;
        }
        (t, cpu)
    }
}

impl Tree {
    /// Searches without inserting; returns the identical node if found.
    fn search_or_insert_probe(
        &mut self,
        page: &[u8],
        mut compare: impl FnMut(&[u8], &[u8]) -> PageCompare,
    ) -> (Option<usize>, u64) {
        let mut comparisons = 0;
        let Some(mut cur) = self.root else {
            return (None, 0);
        };
        loop {
            comparisons += 1;
            match compare(page, &self.nodes[cur].data) {
                PageCompare::Identical => return (Some(cur), comparisons),
                PageCompare::DiffersAt { ordering, .. } => {
                    let next = if ordering == std::cmp::Ordering::Less {
                        self.nodes[cur].left
                    } else {
                        self.nodes[cur].right
                    };
                    match next {
                        Some(n) => cur = n,
                        None => return (None, comparisons),
                    }
                }
            }
        }
    }

    /// Inserts a page by plain byte ordering (no timed comparisons; used
    /// for stable-node creation where the search already ran).
    fn insert_unbalanced(&mut self, data: PageData) -> usize {
        let idx = self.nodes.len();
        let node = Node {
            data,
            left: None,
            right: None,
            sharers: 0,
        };
        let Some(mut cur) = self.root else {
            self.nodes.push(node);
            self.root = Some(idx);
            return idx;
        };
        loop {
            let ord = node.data.cmp(&self.nodes[cur].data);
            let branch = if ord == std::cmp::Ordering::Less {
                &mut self.nodes[cur].left
            } else {
                &mut self.nodes[cur].right
            };
            match branch {
                Some(n) => cur = *n,
                None => {
                    *branch = Some(idx);
                    self.nodes.push(node);
                    return idx;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offload::{CpuBackend, CxlBackend};
    use crate::page::PageContent;
    use sim_core::rng::SimRng;

    fn host() -> Socket {
        Socket::xeon_6538y()
    }

    #[test]
    fn identical_pages_merge_after_two_cycles() {
        let mut h = host();
        let mut ksm = Ksm::new(CpuBackend::new());
        let ids: Vec<_> = (0..4).map(|_| ksm.register(vec![9u8; PAGE_SIZE])).collect();
        ksm.scan_cycle(&ids, Time::ZERO, &mut h);
        assert_eq!(
            ksm.stats().pages_merged,
            0,
            "first cycle only records checksums"
        );
        ksm.scan_cycle(&ids, Time::ZERO, &mut h);
        // The first page seeds the unstable tree; the other three merge.
        assert_eq!(ksm.stats().pages_merged, 3);
        ksm.scan_cycle(&ids, Time::ZERO, &mut h);
        assert_eq!(ksm.stats().pages_merged, 4, "all four share one frame");
        for id in &ids {
            assert!(ksm.is_merged(*id));
            assert_eq!(ksm.read_page(*id), vec![9u8; PAGE_SIZE].as_slice());
        }
    }

    #[test]
    fn distinct_pages_do_not_merge() {
        let mut h = host();
        let mut ksm = Ksm::new(CpuBackend::new());
        let mut rng = SimRng::seed_from(1);
        let ids: Vec<_> = (0..4)
            .map(|_| ksm.register(PageContent::Random.generate(&mut rng)))
            .collect();
        ksm.scan_cycle(&ids, Time::ZERO, &mut h);
        ksm.scan_cycle(&ids, Time::ZERO, &mut h);
        assert_eq!(ksm.stats().pages_merged, 0);
    }

    #[test]
    fn volatile_pages_skipped() {
        let mut h = host();
        let mut ksm = Ksm::new(CpuBackend::new());
        let id = ksm.register(vec![1u8; PAGE_SIZE]);
        ksm.scan_cycle(&[id], Time::ZERO, &mut h);
        // The page changes between cycles.
        ksm.write_page(id, vec![2u8; PAGE_SIZE]);
        let op = ksm.scan_page(id, Time::ZERO, &mut h);
        assert_eq!(op.outcome, ScanOutcome::Volatile);
        assert_eq!(ksm.stats().volatile_skips, 1);
    }

    #[test]
    fn cow_break_restores_private_copy() {
        let mut h = host();
        let mut ksm = Ksm::new(CpuBackend::new());
        let a = ksm.register(vec![5u8; PAGE_SIZE]);
        let b = ksm.register(vec![5u8; PAGE_SIZE]);
        ksm.scan_cycle(&[a, b], Time::ZERO, &mut h);
        ksm.scan_cycle(&[a, b], Time::ZERO, &mut h);
        ksm.scan_cycle(&[a, b], Time::ZERO, &mut h);
        assert!(ksm.is_merged(a) && ksm.is_merged(b));
        ksm.write_page(a, vec![6u8; PAGE_SIZE]);
        assert!(!ksm.is_merged(a));
        assert_eq!(ksm.read_page(a), vec![6u8; PAGE_SIZE].as_slice());
        assert_eq!(
            ksm.read_page(b),
            vec![5u8; PAGE_SIZE].as_slice(),
            "twin unaffected"
        );
        assert_eq!(ksm.stats().cow_breaks, 1);
    }

    #[test]
    fn duplicate_heavy_workload_merges_proportionally() {
        let mut h = host();
        let mut ksm = Ksm::new(CpuBackend::new());
        let mut rng = SimRng::seed_from(2);
        let mut ids = Vec::new();
        // 30 duplicates across 3 base pages + 10 unique pages.
        for i in 0..30u32 {
            ids.push(ksm.register(PageContent::Duplicate { id: i % 3 }.generate(&mut rng)));
        }
        for _ in 0..10 {
            ids.push(ksm.register(PageContent::Random.generate(&mut rng)));
        }
        ksm.scan_cycle(&ids, Time::ZERO, &mut h);
        ksm.scan_cycle(&ids, Time::ZERO, &mut h);
        // Each of the 3 groups keeps one stable copy; the other 27 merge.
        assert_eq!(ksm.stats().pages_merged, 27, "27 of 30 duplicates merge");
    }

    #[test]
    fn merged_content_is_preserved_bitwise() {
        let mut h = host();
        let mut ksm = Ksm::new(CxlBackend::agilex7());
        let mut rng = SimRng::seed_from(3);
        let page = PageContent::Duplicate { id: 42 }.generate(&mut rng);
        let a = ksm.register(page.clone());
        let b = ksm.register(page.clone());
        ksm.scan_cycle(&[a, b], Time::ZERO, &mut h);
        ksm.scan_cycle(&[a, b], Time::ZERO, &mut h);
        assert!(ksm.is_merged(a) || ksm.is_merged(b));
        assert_eq!(ksm.read_page(a), page.as_slice());
        assert_eq!(ksm.read_page(b), page.as_slice());
    }

    #[test]
    fn cxl_backend_consumes_less_host_cpu_than_cpu_backend() {
        let mut h1 = host();
        let mut h2 = host();
        let mut ksm_cpu = Ksm::new(CpuBackend::new());
        let mut ksm_cxl = Ksm::new(CxlBackend::agilex7());
        let mut rng = SimRng::seed_from(4);
        let pages: Vec<PageData> = (0..20)
            .map(|i| PageContent::Duplicate { id: i % 4 }.generate(&mut rng))
            .collect();
        let ids1: Vec<_> = pages.iter().map(|p| ksm_cpu.register(p.clone())).collect();
        let ids2: Vec<_> = pages.iter().map(|p| ksm_cxl.register(p.clone())).collect();
        let (_, cpu1a) = ksm_cpu.scan_cycle(&ids1, Time::ZERO, &mut h1);
        let (_, cpu1b) = ksm_cpu.scan_cycle(&ids1, Time::ZERO, &mut h1);
        let (_, cpu2a) = ksm_cxl.scan_cycle(&ids2, Time::ZERO, &mut h2);
        let (_, cpu2b) = ksm_cxl.scan_cycle(&ids2, Time::ZERO, &mut h2);
        let cpu_total = cpu1a + cpu1b;
        let cxl_total = cpu2a + cpu2b;
        assert!(
            cxl_total.as_nanos_f64() < 0.5 * cpu_total.as_nanos_f64(),
            "cxl {cxl_total} vs cpu {cpu_total}"
        );
        assert_eq!(ksm_cpu.stats().pages_merged, ksm_cxl.stats().pages_merged);
    }
}
