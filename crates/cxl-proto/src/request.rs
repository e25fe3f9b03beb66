//! Device-side request vocabulary: cache hints, request types, and the
//! RAS metadata riding on completions.
//!
//! §IV-A: a device ACC attaches a *cache hint* to each memory request via
//! the AXI user signals, selecting the DCOH caching state it desires —
//! write-only non-cacheable push (NC-P), non-cacheable (NC), cacheable
//! owned (CO), or read-only cacheable shared (CS). Combined with the access
//! direction this yields the six request types characterized in Figs. 3–5.

use core::fmt;

/// The DCOH caching behaviour requested by the device accelerator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheHint {
    /// Write-only push to host LLC: update HMC, write the line into host
    /// LLC, then invalidate the HMC copy (unique to CXL Type-2).
    NcPush,
    /// Non-cacheable: serve without allocating in device cache.
    Nc,
    /// Cacheable owned: obtain exclusive ownership in device cache.
    CacheableOwned,
    /// Cacheable shared (read-only): allocate in device cache in Shared.
    CacheableShared,
}

impl fmt::Display for CacheHint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CacheHint::NcPush => "NC-P",
            CacheHint::Nc => "NC",
            CacheHint::CacheableOwned => "CO",
            CacheHint::CacheableShared => "CS",
        };
        f.write_str(s)
    }
}

/// Read or write direction of a memory request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A 64 B read.
    Read,
    /// A 64 B write.
    Write,
}

/// One of the six device request types of Table III.
///
/// # Examples
///
/// ```
/// use cxl_proto::request::{AccessKind, CacheHint, RequestType};
///
/// let r = RequestType::CS_RD;
/// assert_eq!(r.hint(), CacheHint::CacheableShared);
/// assert_eq!(r.kind(), AccessKind::Read);
/// assert_eq!(r.to_string(), "CS-rd");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RequestType {
    hint: CacheHint,
    kind: AccessKind,
}

impl RequestType {
    /// Non-cacheable push write to host LLC (write-only hint).
    pub const NC_P: RequestType = RequestType {
        hint: CacheHint::NcPush,
        kind: AccessKind::Write,
    };
    /// Non-cacheable read.
    pub const NC_RD: RequestType = RequestType {
        hint: CacheHint::Nc,
        kind: AccessKind::Read,
    };
    /// Non-cacheable write.
    pub const NC_WR: RequestType = RequestType {
        hint: CacheHint::Nc,
        kind: AccessKind::Write,
    };
    /// Cacheable-owned read.
    pub const CO_RD: RequestType = RequestType {
        hint: CacheHint::CacheableOwned,
        kind: AccessKind::Read,
    };
    /// Cacheable-owned write.
    pub const CO_WR: RequestType = RequestType {
        hint: CacheHint::CacheableOwned,
        kind: AccessKind::Write,
    };
    /// Cacheable-shared read (the hint is read-only).
    pub const CS_RD: RequestType = RequestType {
        hint: CacheHint::CacheableShared,
        kind: AccessKind::Read,
    };

    /// All six request types of Table III, in its row order.
    pub const ALL: [RequestType; 6] = [
        RequestType::NC_P,
        RequestType::NC_RD,
        RequestType::NC_WR,
        RequestType::CO_RD,
        RequestType::CO_WR,
        RequestType::CS_RD,
    ];

    /// The cache hint.
    pub fn hint(self) -> CacheHint {
        self.hint
    }

    /// The access direction.
    pub fn kind(self) -> AccessKind {
        self.kind
    }

    /// True for reads.
    pub fn is_read(self) -> bool {
        self.kind == AccessKind::Read
    }

    /// The equivalent host CPU instruction used for the paper's emulated
    /// baseline: NC-rd↔nt-ld, CS-rd↔ld, NC-wr↔nt-st, CO-wr↔st (§V-A).
    pub fn emulated_host_op(self) -> &'static str {
        match (self.hint, self.kind) {
            (CacheHint::Nc, AccessKind::Read) => "nt-ld",
            (CacheHint::CacheableShared, _) => "ld",
            (CacheHint::Nc, AccessKind::Write) => "nt-st",
            (CacheHint::CacheableOwned, AccessKind::Write) => "st",
            (CacheHint::CacheableOwned, AccessKind::Read) => "ld",
            (CacheHint::NcPush, _) => "nt-st",
        }
    }
}

impl fmt::Display for RequestType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.hint == CacheHint::NcPush {
            return f.write_str("NC-P");
        }
        let dir = match self.kind {
            AccessKind::Read => "rd",
            AccessKind::Write => "wr",
        };
        write!(f, "{}-{dir}", self.hint)
    }
}

/// RAS metadata riding on a completion: the CXL poison bit.
///
/// Poison marks one completion's data as known-corrupt without killing
/// the link.
///
/// # Examples
///
/// ```
/// use cxl_proto::request::RasMeta;
///
/// let meta = RasMeta::CLEAN.with_poison();
/// assert!(meta.poison && !RasMeta::CLEAN.poison);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct RasMeta {
    /// The data carried with this completion is known-corrupt.
    pub poison: bool,
}

impl RasMeta {
    /// The healthy completion: no poison.
    pub const CLEAN: RasMeta = RasMeta { poison: false };

    /// Sets the poison bit.
    pub fn with_poison(mut self) -> Self {
        self.poison = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_six_request_types_have_distinct_names() {
        let names: Vec<String> = RequestType::ALL.iter().map(|r| r.to_string()).collect();
        assert_eq!(
            names,
            vec!["NC-P", "NC-rd", "NC-wr", "CO-rd", "CO-wr", "CS-rd"]
        );
    }

    #[test]
    fn emulated_ops_match_section_v_a() {
        assert_eq!(RequestType::NC_RD.emulated_host_op(), "nt-ld");
        assert_eq!(RequestType::CS_RD.emulated_host_op(), "ld");
        assert_eq!(RequestType::NC_WR.emulated_host_op(), "nt-st");
        assert_eq!(RequestType::CO_WR.emulated_host_op(), "st");
    }

    #[test]
    fn accessors() {
        assert!(RequestType::CS_RD.is_read());
        assert!(!RequestType::CO_WR.is_read());
        assert_eq!(RequestType::CO_WR.hint(), CacheHint::CacheableOwned);
        assert_eq!(RequestType::NC_P.kind(), AccessKind::Write);
    }
}
