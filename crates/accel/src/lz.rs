//! An LZ4-style block compressor/decompressor.
//!
//! zswap compresses 4 KiB pages with an LZ-class codec before placing them
//! in the zpool; `cxl-zswap` offloads this function to a streaming FPGA IP
//! (§VI-A). This module implements the codec *functionally* — a real
//! dictionary coder in the LZ4 block format family — so zpool contents,
//! compression ratios, and incompressible-page handling are all genuine.
//!
//! Format (per sequence):
//! * token byte: high nibble = literal length (15 ⇒ extension bytes
//!   follow), low nibble = match length − 4 (15 ⇒ extension bytes follow);
//! * literal bytes;
//! * 2-byte little-endian match offset (0 < offset ≤ 65535);
//! * the final sequence carries literals only (low nibble 0, no offset).

use core::fmt;

use crate::compare::common_prefix;

/// Minimum match length worth encoding.
const MIN_MATCH: usize = 4;
/// Hash table size for match finding (log2).
const HASH_BITS: u32 = 12;

/// Error decompressing a corrupt or truncated block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecompressError {
    /// Input ended in the middle of a sequence.
    Truncated,
    /// A match referenced data before the start of the output.
    BadOffset {
        /// The offending offset.
        offset: usize,
        /// Output length when it was encountered.
        position: usize,
    },
    /// Output exceeded the declared size.
    OutputOverflow,
}

impl fmt::Display for DecompressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecompressError::Truncated => f.write_str("compressed block truncated"),
            DecompressError::BadOffset { offset, position } => {
                write!(
                    f,
                    "match offset {offset} exceeds output position {position}"
                )
            }
            DecompressError::OutputOverflow => f.write_str("output exceeds declared size"),
        }
    }
}

impl std::error::Error for DecompressError {}

fn hash4(bytes: &[u8]) -> usize {
    let v = u32::from_le_bytes(bytes[..4].try_into().expect("4-byte window"));
    (v.wrapping_mul(2_654_435_761) >> (32 - HASH_BITS)) as usize
}

fn write_length(out: &mut Vec<u8>, mut len: usize) {
    while len >= 255 {
        out.push(255);
        len -= 255;
    }
    out.push(len as u8);
}

/// Compresses `input` into a self-contained block.
///
/// The output is never catastrophically larger than the input (worst case
/// ≈ input + input/255 + 16 for incompressible data).
///
/// # Examples
///
/// ```
/// use accel::lz::{compress, decompress};
///
/// let page = vec![7u8; 4096];
/// let block = compress(&page);
/// assert!(block.len() < 64, "constant page compresses hard");
/// assert_eq!(decompress(&block, page.len()).unwrap(), page);
/// ```
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    let n = input.len();
    let mut table = [usize::MAX; 1 << HASH_BITS];
    let mut anchor = 0; // start of pending literals
    let mut i = 0;
    // The last MIN_MATCH+1 bytes are always literals (simplifies the
    // decoder's copy loop, mirroring LZ4's end-of-block rule).
    let match_limit = n.saturating_sub(MIN_MATCH + 1);
    while i < match_limit {
        let h = hash4(&input[i..]);
        let candidate = table[h];
        table[h] = i;
        let is_match = candidate != usize::MAX
            && i - candidate <= u16::MAX as usize
            && input[candidate..candidate + MIN_MATCH] == input[i..i + MIN_MATCH];
        if !is_match {
            i += 1;
            continue;
        }
        // Extend the match forward.
        let len =
            MIN_MATCH + common_prefix(&input[candidate + MIN_MATCH..], &input[i + MIN_MATCH..]);
        // Emit sequence: literals [anchor, i) + match (offset, len).
        let lit_len = i - anchor;
        let offset = i - candidate;
        let lit_nibble = lit_len.min(15) as u8;
        let match_nibble = (len - MIN_MATCH).min(15) as u8;
        out.push((lit_nibble << 4) | match_nibble);
        if lit_len >= 15 {
            write_length(&mut out, lit_len - 15);
        }
        out.extend_from_slice(&input[anchor..i]);
        out.extend_from_slice(&(offset as u16).to_le_bytes());
        if len - MIN_MATCH >= 15 {
            write_length(&mut out, len - MIN_MATCH - 15);
        }
        i += len;
        anchor = i;
    }
    // Final literal-only sequence.
    let lit_len = n - anchor;
    let lit_nibble = lit_len.min(15) as u8;
    out.push(lit_nibble << 4);
    if lit_len >= 15 {
        write_length(&mut out, lit_len - 15);
    }
    out.extend_from_slice(&input[anchor..]);
    out
}

fn read_length(input: &[u8], pos: &mut usize, base: usize) -> Result<usize, DecompressError> {
    let mut len = base;
    if base == 15 {
        loop {
            let b = *input.get(*pos).ok_or(DecompressError::Truncated)?;
            *pos += 1;
            len += b as usize;
            if b != 255 {
                break;
            }
        }
    }
    Ok(len)
}

/// Decompresses a block produced by [`compress`] into exactly
/// `expected_len` bytes.
///
/// # Errors
///
/// Returns a [`DecompressError`] if the block is truncated, references an
/// invalid offset, or produces more than `expected_len` bytes.
pub fn decompress(input: &[u8], expected_len: usize) -> Result<Vec<u8>, DecompressError> {
    let mut out: Vec<u8> = Vec::with_capacity(expected_len);
    let mut pos = 0;
    loop {
        let token = *input.get(pos).ok_or(DecompressError::Truncated)?;
        pos += 1;
        let lit_len = read_length(input, &mut pos, (token >> 4) as usize)?;
        if pos + lit_len > input.len() {
            return Err(DecompressError::Truncated);
        }
        if out.len() + lit_len > expected_len {
            return Err(DecompressError::OutputOverflow);
        }
        out.extend_from_slice(&input[pos..pos + lit_len]);
        pos += lit_len;
        if pos == input.len() {
            // Final literal-only sequence.
            return Ok(out);
        }
        if pos + 2 > input.len() {
            return Err(DecompressError::Truncated);
        }
        let offset =
            u16::from_le_bytes(input[pos..pos + 2].try_into().expect("2-byte offset")) as usize;
        pos += 2;
        let match_len = MIN_MATCH + read_length(input, &mut pos, (token & 0x0F) as usize)?;
        if offset == 0 || offset > out.len() {
            return Err(DecompressError::BadOffset {
                offset,
                position: out.len(),
            });
        }
        if out.len() + match_len > expected_len {
            return Err(DecompressError::OutputOverflow);
        }
        // Byte-by-byte copy: overlapping matches (offset < len) replicate.
        let start = out.len() - offset;
        for k in 0..match_len {
            let b = out[start + k];
            out.push(b);
        }
    }
}

/// Compression outcome for one page, as zswap sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompressedPage {
    /// The compressed bytes.
    pub data: Vec<u8>,
    /// Original (uncompressed) length.
    pub original_len: usize,
}

impl CompressedPage {
    /// Compresses a page.
    pub fn from_page(page: &[u8]) -> Self {
        CompressedPage {
            data: compress(page),
            original_len: page.len(),
        }
    }

    /// Compressed size in bytes.
    pub fn compressed_len(&self) -> usize {
        self.data.len()
    }

    /// Compression ratio (original / compressed); > 1 means it shrank.
    pub fn ratio(&self) -> f64 {
        self.original_len as f64 / self.data.len() as f64
    }

    /// True if compression failed to shrink the page (zswap rejects these
    /// from the zpool and sends them straight to the backing device).
    pub fn is_incompressible(&self) -> bool {
        self.data.len() >= self.original_len
    }

    /// Recovers the original page.
    ///
    /// # Errors
    ///
    /// Returns a [`DecompressError`] if the stored block is corrupt.
    pub fn decompress(&self) -> Result<Vec<u8>, DecompressError> {
        decompress(&self.data, self.original_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::rng::SimRng;

    fn roundtrip(data: &[u8]) {
        let c = compress(data);
        let d = decompress(&c, data.len()).expect("roundtrip decompress");
        assert_eq!(d, data, "roundtrip mismatch for len {}", data.len());
    }

    #[test]
    fn roundtrip_edge_sizes() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"abcd");
        roundtrip(b"abcde");
        roundtrip(&[0u8; 15]);
        roundtrip(&[0u8; 16]);
        roundtrip(&[0u8; 17]);
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// The encoder's output is pinned byte for byte, not just round-trip:
    /// zpool sizes and every fig8 figure derive from it.
    #[test]
    fn compressed_bytes_are_pinned() {
        let mut rng = SimRng::seed_from(7);
        let mut random = vec![0u8; 4096];
        rng.fill_bytes(&mut random);
        const WORDS: &[&[u8]] = &[
            b"cxl ",
            b"type-2 ",
            b"device ",
            b"bias ",
            b"coherent ",
            b"the ",
        ];
        let mut text = Vec::new();
        while text.len() < 4096 {
            text.extend_from_slice(WORDS[rng.gen_index(WORDS.len())]);
        }
        text.truncate(4096);
        // 100 KiB whose tail repeats its head more than 65535 bytes back:
        // those candidates are out of offset range and must be skipped.
        let mut long = vec![0u8; 70_000];
        rng.fill_bytes(&mut long);
        long.extend_from_within(..100 * 1024 - 70_000);
        let inputs: [(&str, &[u8]); 4] = [
            ("constant", &[42u8; 4096]),
            ("random", &random),
            ("text", &text),
            ("long", &long),
        ];
        let got: Vec<(&str, u64)> = inputs
            .iter()
            .map(|&(name, input)| (name, fnv1a(&compress(input))))
            .collect();
        assert_eq!(
            got,
            [
                ("constant", 0xb1c7518f63cf167b),
                ("random", 0x34704701060bbc2b),
                ("text", 0x9051bbce0218f98f),
                ("long", 0xaa48289c078bc2f5),
            ]
        );
    }

    #[test]
    fn constant_page_compresses_hard() {
        let page = vec![42u8; 4096];
        let c = compress(&page);
        assert!(c.len() < 40, "constant 4KB -> {} bytes", c.len());
        assert_eq!(decompress(&c, 4096).unwrap(), page);
    }

    #[test]
    fn repetitive_text_compresses() {
        let text: Vec<u8> = b"the quick brown fox jumps over the lazy dog "
            .iter()
            .copied()
            .cycle()
            .take(4096)
            .collect();
        let c = compress(&text);
        assert!(c.len() < text.len() / 4, "text 4KB -> {}", c.len());
        roundtrip(&text);
    }

    #[test]
    fn random_data_is_incompressible_but_roundtrips() {
        let mut rng = SimRng::seed_from(42);
        let mut page = vec![0u8; 4096];
        rng.fill_bytes(&mut page);
        let cp = CompressedPage::from_page(&page);
        assert!(cp.is_incompressible(), "random page should not shrink");
        // Worst-case expansion is bounded.
        assert!(cp.compressed_len() < 4096 + 4096 / 255 + 32);
        assert_eq!(cp.decompress().unwrap(), page);
    }

    #[test]
    fn mixed_content_roundtrips() {
        let mut rng = SimRng::seed_from(7);
        for trial in 0..50 {
            let len = rng.gen_index(8192);
            let mut data = vec![0u8; len];
            // Mix runs, random bytes, and copies.
            let mut i = 0;
            while i < len {
                match rng.gen_range(3) {
                    0 => {
                        let run = rng.gen_index(100).min(len - i);
                        let b = rng.next_u32() as u8;
                        data[i..i + run].fill(b);
                        i += run.max(1);
                    }
                    1 => {
                        let run = rng.gen_index(50).min(len - i);
                        for k in 0..run {
                            data[i + k] = rng.next_u32() as u8;
                        }
                        i += run.max(1);
                    }
                    _ => {
                        if i > 16 {
                            let run = rng.gen_index(64).min(len - i).min(i);
                            data.copy_within(i - run..i, i);
                            i += run.max(1);
                        } else {
                            i += 1;
                        }
                    }
                }
            }
            let _ = trial;
            roundtrip(&data);
        }
    }

    #[test]
    fn overlapping_match_replication() {
        // "ababab..." forces offset-2 matches longer than the offset.
        let data: Vec<u8> = b"ab".iter().copied().cycle().take(1000).collect();
        let c = compress(&data);
        assert!(c.len() < 50);
        assert_eq!(decompress(&c, 1000).unwrap(), data);
    }

    #[test]
    fn truncated_input_rejected() {
        let c = compress(&vec![9u8; 4096]);
        for cut in 1..c.len().min(8) {
            let r = decompress(&c[..c.len() - cut], 4096);
            assert!(
                r.is_err() || r.unwrap().len() < 4096,
                "truncation must not roundtrip"
            );
        }
        assert_eq!(decompress(&[], 10), Err(DecompressError::Truncated));
    }

    #[test]
    fn bad_offset_rejected() {
        // token: 0 literals, match len 4, offset 5 with empty output.
        let bogus = [0x00u8, 0x05, 0x00, 0x10];
        match decompress(&bogus, 100) {
            Err(DecompressError::BadOffset {
                offset: 5,
                position: 0,
            }) => {}
            other => panic!("expected BadOffset, got {other:?}"),
        }
    }

    #[test]
    fn output_overflow_rejected() {
        let page = vec![1u8; 4096];
        let c = compress(&page);
        assert_eq!(decompress(&c, 100), Err(DecompressError::OutputOverflow));
    }

    #[test]
    fn compressed_page_metadata() {
        let page = vec![0u8; 4096];
        let cp = CompressedPage::from_page(&page);
        assert_eq!(cp.original_len, 4096);
        assert!(cp.ratio() > 100.0);
        assert!(!cp.is_incompressible());
    }

    #[test]
    fn long_literal_runs_use_extension_bytes() {
        // 300 random-ish literals then a long run: exercises lit_len >= 15.
        let mut data: Vec<u8> = (0..300u32).map(|i| (i * 7 + i / 3) as u8).collect();
        data.extend(std::iter::repeat_n(5u8, 600));
        roundtrip(&data);
    }
}
