//! Property-based tests for the accelerator data-plane functions.

use accel::compare::{common_prefix, compare_pages};
use accel::lz::{compress, decompress};
use accel::xxhash::{xxh32, xxh64};
use proptest::prelude::*;

/// The byte-at-a-time definition `common_prefix` must agree with.
fn common_prefix_ref(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// compress ∘ decompress = identity, for arbitrary byte strings.
    #[test]
    fn codec_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..8192)) {
        let c = compress(&data);
        let d = decompress(&c, data.len()).expect("decompress");
        prop_assert_eq!(d, data);
    }

    /// Compression of compressible structure actually shrinks: a page made
    /// of a repeated short motif must compress.
    #[test]
    fn repeated_motifs_shrink(motif in proptest::collection::vec(any::<u8>(), 1..16)) {
        let page: Vec<u8> = motif.iter().copied().cycle().take(4096).collect();
        let c = compress(&page);
        prop_assert!(c.len() < page.len() / 2, "motif page -> {} bytes", c.len());
    }

    /// Compressed output never exceeds the documented worst-case bound.
    #[test]
    fn worst_case_expansion_bounded(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let c = compress(&data);
        prop_assert!(c.len() <= data.len() + data.len() / 255 + 16);
    }

    /// Hashes are deterministic and length-sensitive.
    #[test]
    fn hashes_deterministic(data in proptest::collection::vec(any::<u8>(), 0..2048), seed in any::<u32>()) {
        prop_assert_eq!(xxh32(&data, seed), xxh32(&data, seed));
        prop_assert_eq!(xxh64(&data, seed as u64), xxh64(&data, seed as u64));
    }

    /// A single byte flip changes the 32-bit checksum (xxhash is not
    /// cryptographic, but on random inputs collisions at Hamming distance
    /// 1 are vanishingly rare — and ksm tolerates hint collisions anyway).
    #[test]
    fn byte_flip_changes_hash(
        mut data in proptest::collection::vec(any::<u8>(), 1..2048),
        idx in any::<prop::sample::Index>(),
    ) {
        let before = xxh32(&data, 0);
        let i = idx.index(data.len());
        data[i] ^= 0xA5;
        prop_assert_ne!(xxh32(&data, 0), before);
    }

    /// compare_pages agrees with slice equality and lexicographic order.
    #[test]
    fn compare_agrees_with_lexicographic(
        a in proptest::collection::vec(any::<u8>(), 0..512),
        b in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        let r = compare_pages(a, b);
        prop_assert_eq!(r.is_identical(), a == b);
        prop_assert_eq!(r.ordering(), a.cmp(b));
    }

    /// Identical pages hash identically (the ksm fast path is sound).
    #[test]
    fn equal_pages_equal_hashes(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let copy = data.clone();
        prop_assert_eq!(xxh32(&data, 0), xxh32(&copy, 0));
        prop_assert!(compare_pages(&data, &copy).is_identical());
    }

    /// Two slices that share a random-length prefix, then differ in one
    /// byte and continue at independent lengths (most not multiples of 8).
    #[test]
    fn common_prefix_finds_the_first_difference(
        prefix in proptest::collection::vec(any::<u8>(), 0..300),
        a_tail in proptest::collection::vec(any::<u8>(), 0..40),
        b_tail in proptest::collection::vec(any::<u8>(), 0..40),
        flip in 1u8..255,
    ) {
        let mut a = prefix.clone();
        a.extend_from_slice(&a_tail);
        let mut b = prefix.clone();
        b.extend_from_slice(&b_tail);
        if let (Some(x), Some(y)) = (a.get(prefix.len()).copied(), b.get_mut(prefix.len())) {
            *y = x ^ flip;
        }
        let want = common_prefix_ref(&a, &b);
        prop_assert_eq!(want, prefix.len().min(a.len()).min(b.len()));
        prop_assert_eq!(common_prefix(&a, &b), want);
        prop_assert_eq!(common_prefix(&b, &a), want);
    }

    /// Equal slices share their whole length, and an empty slice shares
    /// nothing.
    #[test]
    fn common_prefix_of_equal_and_empty_slices(data in proptest::collection::vec(any::<u8>(), 0..300)) {
        prop_assert_eq!(common_prefix(&data, &data.clone()), data.len());
        prop_assert_eq!(common_prefix(&data, &[]), 0);
        prop_assert_eq!(common_prefix(&[], &data), 0);
    }

    /// Overlapping windows of one buffer, as LZ match extension compares
    /// the input against itself a short distance back.
    #[test]
    fn common_prefix_of_overlapping_windows(
        motif in proptest::collection::vec(any::<u8>(), 1..12),
        noise in proptest::collection::vec(any::<u8>(), 0..64),
        len in 0usize..400,
        start in any::<prop::sample::Index>(),
        back in 1usize..32,
    ) {
        let mut buf: Vec<u8> = motif.iter().copied().cycle().take(len).collect();
        buf.extend_from_slice(&noise);
        let i = start.index(buf.len() + 1);
        let candidate = i.saturating_sub(back);
        let (x, y) = (&buf[candidate..], &buf[i..]);
        prop_assert_eq!(common_prefix(x, y), common_prefix_ref(x, y));
    }
}
