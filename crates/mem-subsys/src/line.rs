//! Cache-line addressing.
//!
//! CXL.cache and CXL.mem operate at 64-byte cache-line granularity;
//! [`LineAddr`] is that unit.

use core::fmt;

/// Bytes per cache line (fixed by the CXL specification).
pub const LINE_BYTES: u64 = 64;

/// A 64-byte-aligned cache-line address (byte address divided by 64).
///
/// # Examples
///
/// ```
/// use mem_subsys::line::LineAddr;
///
/// let a = LineAddr::new(0x40);
/// assert_eq!(a.offset(1).index(), 0x41);
/// assert_eq!(a.to_string(), "line:0x1000");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(u64);

impl LineAddr {
    /// Creates a line address from a line index (byte address / 64).
    pub const fn new(index: u64) -> Self {
        LineAddr(index)
    }

    /// The line index.
    pub const fn index(self) -> u64 {
        self.0
    }

    /// The first byte address of the line.
    pub(crate) const fn byte_addr(self) -> u64 {
        self.0 * LINE_BYTES
    }

    /// The line `n` lines after this one.
    pub const fn offset(self, n: u64) -> LineAddr {
        LineAddr(self.0 + n)
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line:{:#x}", self.byte_addr())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_addr_byte_addresses() {
        assert_eq!(LineAddr::new(0x41).byte_addr(), 0x1040);
        assert_eq!(LineAddr::new(2).byte_addr(), 128);
        assert_eq!(LineAddr::new(0x80).offset(64).byte_addr(), 0x2000 + 4096);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", LineAddr::new(1)), "line:0x40");
    }
}
