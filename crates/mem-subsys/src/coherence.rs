//! MESI coherence states.
//!
//! The paper's Table III describes post-access states of HMC and host LLC
//! lines in MESI terms (Modified/Exclusive/Shared/Invalid, with "no change"
//! rows). This module provides the state type; the cache models drive its
//! transitions.

use core::fmt;

/// A MESI cache-coherence state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MesiState {
    /// Line is dirty and exclusively owned; memory is stale.
    Modified,
    /// Line is clean and exclusively owned.
    Exclusive,
    /// Line is clean and possibly present in other caches.
    Shared,
    /// Line is not present / not valid.
    #[default]
    Invalid,
}

impl MesiState {
    /// True if the line holds valid data.
    pub const fn is_valid(self) -> bool {
        !matches!(self, MesiState::Invalid)
    }

    /// True if the line may be written without an ownership request.
    pub const fn is_writable(self) -> bool {
        matches!(self, MesiState::Modified | MesiState::Exclusive)
    }

    /// True if the line must be written back before eviction or
    /// invalidation.
    pub const fn is_dirty(self) -> bool {
        matches!(self, MesiState::Modified)
    }
}

impl fmt::Display for MesiState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MesiState::Modified => "M",
            MesiState::Exclusive => "E",
            MesiState::Shared => "S",
            MesiState::Invalid => "I",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicates() {
        assert!(MesiState::Modified.is_dirty());
        assert!(!MesiState::Exclusive.is_dirty());
        assert!(MesiState::Exclusive.is_writable());
        assert!(!MesiState::Shared.is_writable());
        assert!(MesiState::Shared.is_valid());
        assert!(!MesiState::Invalid.is_valid());
    }

    #[test]
    fn display() {
        assert_eq!(MesiState::Modified.to_string(), "M");
        assert_eq!(MesiState::Invalid.to_string(), "I");
    }
}
