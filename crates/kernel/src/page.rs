//! Page frames with real contents and synthetic workload page generation.
//!
//! zswap compression ratios and ksm dedup rates depend on actual page
//! contents, so the simulation stores real 4 KiB byte arrays.
//! [`PageContent`] generates the content classes datacenter memory
//! exhibits: zero pages, text-like compressible pages, binary pages with
//! moderate structure, incompressible (encrypted/compressed-at-rest)
//! pages, and duplicated pages (shared libraries / guest kernels — the
//! ksm target).

use sim_core::rng::SimRng;

/// Page size in bytes.
pub const PAGE_SIZE: usize = 4096;

/// A 4 KiB page frame with real contents.
pub type PageData = Vec<u8>;

/// Content classes for synthetic workload pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PageContent {
    /// All zeroes (freed/never-touched guest memory).
    Zero,
    /// Text-like: repeated word motifs, highly compressible.
    Text,
    /// Structured binary: pointers/zero runs, moderately compressible.
    Binary,
    /// Random: incompressible.
    Random,
    /// A duplicate of a base page identified by `id` (identical across
    /// generators seeded the same way — the ksm merge target).
    Duplicate {
        /// Which shared base page this duplicates.
        id: u32,
    },
}

impl PageContent {
    /// Materializes the page contents.
    pub fn generate(self, rng: &mut SimRng) -> PageData {
        match self {
            PageContent::Zero => vec![0u8; PAGE_SIZE],
            PageContent::Text => {
                let phrases: &[&[u8]] = &[
                    b"the device coherence engine checks the host cache before serving ",
                    b"a compressed page enters the pool and waits for the next fault ",
                    b"kernel samepage merging walks the stable tree comparing bytes ",
                    b"swap out the least recently used page to the backing device ",
                ];
                let mut page = Vec::with_capacity(PAGE_SIZE + 80);
                while page.len() < PAGE_SIZE {
                    page.extend_from_slice(phrases[rng.gen_index(phrases.len())]);
                }
                page.truncate(PAGE_SIZE);
                page
            }
            PageContent::Binary => {
                let mut page = vec![0u8; PAGE_SIZE];
                let mut i = 0;
                while i < PAGE_SIZE {
                    if rng.gen_bool(0.5) {
                        // A plausible pointer-ish 8-byte value.
                        let v = 0x7f00_0000_0000u64 | (rng.next_u32() as u64 & 0xff_fff8);
                        let end = (i + 8).min(PAGE_SIZE);
                        page[i..end].copy_from_slice(&v.to_le_bytes()[..end - i]);
                        i = end;
                    } else {
                        // A zero run.
                        i += 8 + rng.gen_index(64);
                    }
                }
                page
            }
            PageContent::Random => {
                let mut page = vec![0u8; PAGE_SIZE];
                rng.fill_bytes(&mut page);
                page
            }
            PageContent::Duplicate { id } => {
                // Deterministic content independent of the caller's RNG
                // state: all generators produce the same bytes for an id.
                let mut dup_rng = SimRng::seed_from(0xD0D0_0000 + u64::from(id));
                let mut page = vec![0u8; PAGE_SIZE];
                // Half structured, half motif, so duplicates are realistic
                // library-code-like pages rather than constant fill.
                dup_rng.fill_bytes(&mut page[..PAGE_SIZE / 8]);
                let motif: Vec<u8> = (0..32).map(|_| dup_rng.next_u32() as u8).collect();
                for (i, b) in page[PAGE_SIZE / 8..].iter_mut().enumerate() {
                    *b = motif[i % motif.len()];
                }
                page
            }
        }
    }
}

/// A mix of page-content classes with sampling weights.
///
/// # Examples
///
/// ```
/// use kernel::page::{PageContent, PageMix};
/// use sim_core::rng::SimRng;
///
/// let mix = PageMix::datacenter();
/// let mut rng = SimRng::seed_from(1);
/// let page = mix.sample(&mut rng).generate(&mut rng);
/// assert_eq!(page.len(), 4096);
/// ```
#[derive(Debug, Clone)]
pub struct PageMix {
    entries: Vec<(PageContent, f64)>,
    /// Number of distinct duplicate base pages to draw from.
    dup_universe: u32,
}

impl PageMix {
    /// A datacenter-like mix: mostly compressible anonymous memory with
    /// some zero, random, and duplicated pages.
    pub fn datacenter() -> Self {
        PageMix {
            entries: vec![
                (PageContent::Zero, 0.08),
                (PageContent::Text, 0.35),
                (PageContent::Binary, 0.35),
                (PageContent::Random, 0.12),
                (PageContent::Duplicate { id: 0 }, 0.10),
            ],
            dup_universe: 64,
        }
    }

    /// A VM-heavy mix for the ksm experiments: many duplicated pages
    /// (guest kernels, common libraries).
    pub fn vm_guest() -> Self {
        PageMix {
            entries: vec![
                (PageContent::Zero, 0.05),
                (PageContent::Text, 0.20),
                (PageContent::Binary, 0.30),
                (PageContent::Random, 0.10),
                (PageContent::Duplicate { id: 0 }, 0.35),
            ],
            dup_universe: 128,
        }
    }

    /// Samples a content class.
    pub fn sample(&self, rng: &mut SimRng) -> PageContent {
        let total: f64 = self.entries.iter().map(|&(_, w)| w).sum();
        let mut x = rng.gen_f64() * total;
        for &(content, w) in &self.entries {
            if x < w {
                return match content {
                    PageContent::Duplicate { .. } => PageContent::Duplicate {
                        id: rng.gen_range(u64::from(self.dup_universe)) as u32,
                    },
                    c => c,
                };
            }
            x -= w;
        }
        self.entries.last().expect("non-empty mix").0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accel::lz::CompressedPage;

    #[test]
    fn content_classes_have_expected_compressibility() {
        let mut rng = SimRng::seed_from(2);
        let zero = CompressedPage::from_page(&PageContent::Zero.generate(&mut rng));
        let text = CompressedPage::from_page(&PageContent::Text.generate(&mut rng));
        let binary = CompressedPage::from_page(&PageContent::Binary.generate(&mut rng));
        let random = CompressedPage::from_page(&PageContent::Random.generate(&mut rng));
        assert!(zero.ratio() > 50.0, "zero ratio {}", zero.ratio());
        assert!(text.ratio() > 3.0, "text ratio {}", text.ratio());
        assert!(binary.ratio() > 1.5, "binary ratio {}", binary.ratio());
        assert!(random.ratio() <= 1.0, "random ratio {}", random.ratio());
    }

    #[test]
    fn duplicates_are_bit_identical_across_generators() {
        let mut r1 = SimRng::seed_from(3);
        let mut r2 = SimRng::seed_from(999);
        let a = PageContent::Duplicate { id: 7 }.generate(&mut r1);
        let b = PageContent::Duplicate { id: 7 }.generate(&mut r2);
        assert_eq!(a, b);
        let c = PageContent::Duplicate { id: 8 }.generate(&mut r1);
        assert_ne!(a, c);
    }

    #[test]
    fn mixes_sample_all_classes() {
        let mix = PageMix::datacenter();
        let mut rng = SimRng::seed_from(4);
        let mut saw_dup = false;
        let mut saw_zero = false;
        for _ in 0..500 {
            match mix.sample(&mut rng) {
                PageContent::Duplicate { .. } => saw_dup = true,
                PageContent::Zero => saw_zero = true,
                _ => {}
            }
        }
        assert!(saw_dup && saw_zero);
    }

    #[test]
    fn vm_mix_is_duplicate_heavy() {
        let mix = PageMix::vm_guest();
        let mut rng = SimRng::seed_from(5);
        let dups = (0..1000)
            .filter(|_| matches!(mix.sample(&mut rng), PageContent::Duplicate { .. }))
            .count();
        assert!(
            dups > 250,
            "vm mix should be ~35% duplicates, got {dups}/1000"
        );
    }

    #[test]
    fn pages_are_page_sized() {
        let mut rng = SimRng::seed_from(6);
        for c in [
            PageContent::Zero,
            PageContent::Text,
            PageContent::Binary,
            PageContent::Random,
            PageContent::Duplicate { id: 1 },
        ] {
            assert_eq!(c.generate(&mut rng).len(), PAGE_SIZE);
        }
    }
}
