//! Page comparison up to the first differing byte.
//!
//! `ksm` decides merge candidates and their ordering in the unstable/stable
//! trees by comparing two pages byte-by-byte until the first difference
//! (§VI-B). The comparison result doubles as the tree ordering key.
//! [`common_prefix`] finds that difference eight bytes at a time; the LZ
//! encoder's match extension uses it too.

use core::cmp::Ordering;

/// Result of comparing two pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageCompare {
    /// Pages are byte-identical (merge candidates).
    Identical,
    /// Pages differ first at `index`; `ordering` is the byte-wise order
    /// (the ksm tree-walk direction).
    DiffersAt {
        /// Offset of the first differing byte.
        index: usize,
        /// `Less` if `a[index] < b[index]`.
        ordering: Ordering,
    },
}

impl PageCompare {
    /// True if the pages matched completely.
    pub fn is_identical(self) -> bool {
        matches!(self, PageCompare::Identical)
    }

    /// The tree-walk ordering: `Equal` for identical pages.
    pub fn ordering(self) -> Ordering {
        match self {
            PageCompare::Identical => Ordering::Equal,
            PageCompare::DiffersAt { ordering, .. } => ordering,
        }
    }

    /// The number of bytes the comparator actually examined for pages of
    /// `len` bytes — the early-exit behaviour that makes the average
    /// comparison much cheaper than a full-page scan.
    pub fn bytes_examined(self, len: usize) -> usize {
        match self {
            PageCompare::Identical => len,
            PageCompare::DiffersAt { index, .. } => index + 1,
        }
    }
}

/// The length of the longest common prefix of `a` and `b`: the index of
/// their first differing byte, or the shorter length if one is a prefix of
/// the other.
///
/// Compares one 64-bit word at a time; the lowest set bit of the XOR of
/// two little-endian words is in the first differing byte.
///
/// # Examples
///
/// ```
/// use accel::compare::common_prefix;
///
/// assert_eq!(common_prefix(b"coherent", b"coherence"), 7);
/// assert_eq!(common_prefix(b"bias", b"bias mode"), 4);
/// ```
pub fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut i = 0;
    for (x, y) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        let diff = word(x) ^ word(y);
        if diff != 0 {
            return i + (diff.trailing_zeros() / 8) as usize;
        }
        i += 8;
    }
    i + a[i..]
        .iter()
        .zip(&b[i..])
        .take_while(|(x, y)| x == y)
        .count()
}

fn word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8-byte chunk"))
}

/// Compares two equal-length pages up to the first differing byte.
///
/// # Panics
///
/// Panics if the pages have different lengths (ksm always compares whole
/// 4 KiB pages).
///
/// # Examples
///
/// ```
/// use accel::compare::{compare_pages, PageCompare};
///
/// let a = vec![0u8; 4096];
/// let mut b = a.clone();
/// assert!(compare_pages(&a, &b).is_identical());
/// b[100] = 1;
/// assert_eq!(
///     compare_pages(&a, &b),
///     PageCompare::DiffersAt { index: 100, ordering: std::cmp::Ordering::Less },
/// );
/// ```
pub fn compare_pages(a: &[u8], b: &[u8]) -> PageCompare {
    assert_eq!(a.len(), b.len(), "page comparison requires equal lengths");
    let index = common_prefix(a, b);
    if index == a.len() {
        PageCompare::Identical
    } else {
        PageCompare::DiffersAt {
            index,
            ordering: a[index].cmp(&b[index]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_pages() {
        let a = vec![3u8; 4096];
        let r = compare_pages(&a, &a.clone());
        assert!(r.is_identical());
        assert_eq!(r.ordering(), Ordering::Equal);
        assert_eq!(r.bytes_examined(4096), 4096);
    }

    #[test]
    fn first_difference_located() {
        let a = vec![0u8; 128];
        let mut b = a.clone();
        b[0] = 9;
        assert_eq!(
            compare_pages(&a, &b),
            PageCompare::DiffersAt {
                index: 0,
                ordering: Ordering::Less
            }
        );
        let mut c = a.clone();
        c[127] = 1;
        let r = compare_pages(&c, &a);
        assert_eq!(
            r,
            PageCompare::DiffersAt {
                index: 127,
                ordering: Ordering::Greater
            }
        );
        assert_eq!(r.bytes_examined(128), 128);
    }

    #[test]
    fn ordering_is_antisymmetric() {
        let a = vec![1u8; 64];
        let b = vec![2u8; 64];
        assert_eq!(compare_pages(&a, &b).ordering(), Ordering::Less);
        assert_eq!(compare_pages(&b, &a).ordering(), Ordering::Greater);
    }

    #[test]
    fn early_exit_examines_prefix_only() {
        let a = vec![0u8; 4096];
        let mut b = a.clone();
        b[10] = 1;
        assert_eq!(compare_pages(&a, &b).bytes_examined(4096), 11);
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn unequal_lengths_panic() {
        compare_pages(&[0u8; 4], &[0u8; 5]);
    }
}
