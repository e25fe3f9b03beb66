//! Device-side request vocabulary: cache hints, request types, and the
//! CXL.cache opcodes they lower to.
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

    /// Constructs a request type, validating hint/direction compatibility.
    ///
    /// Returns `None` for the combinations the hardware does not offer:
    /// NC-P reads (the hint is write-only) and CS writes (the hint is
    /// read-only).
    pub fn new(hint: CacheHint, kind: AccessKind) -> Option<RequestType> {
        match (hint, kind) {
            (CacheHint::NcPush, AccessKind::Read) => None,
            (CacheHint::CacheableShared, AccessKind::Write) => None,
            _ => Some(RequestType { hint, kind }),
        }
    }

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

    /// The CXL.cache D2H opcode this request lowers to (Fig. 2's read
    /// messages plus the write family).
    pub fn d2h_opcode(self) -> D2hOpcode {
        match (self.hint, self.kind) {
            (CacheHint::NcPush, _) => D2hOpcode::ItoMWr,
            (CacheHint::Nc, AccessKind::Read) => D2hOpcode::RdCurr,
            (CacheHint::Nc, AccessKind::Write) => D2hOpcode::WrCur,
            (CacheHint::CacheableOwned, AccessKind::Read) => D2hOpcode::RdOwn,
            (CacheHint::CacheableOwned, AccessKind::Write) => D2hOpcode::RdOwnNoData,
            (CacheHint::CacheableShared, _) => D2hOpcode::RdShared,
        }
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

/// CXL.cache device-to-host request opcodes (subset used by the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum D2hOpcode {
    /// Read the most current copy without changing coherence state.
    RdCurr,
    /// Read with exclusive ownership.
    RdOwn,
    /// Read with shared state.
    RdShared,
    /// Obtain ownership without data (full-line write).
    RdOwnNoData,
    /// Write the current copy directly to memory (non-allocating).
    WrCur,
    /// Invalidate-to-Modified write: push the line into host LLC.
    ItoMWr,
    /// Evict a clean line.
    CleanEvict,
    /// Evict a dirty line (write-back).
    DirtyEvict,
}

impl fmt::Display for D2hOpcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// RAS metadata riding on a completion: the CXL poison and viral bits.
///
/// Poison marks one completion's data as known-corrupt without killing
/// the link; viral is the containment escalation — the whole device has
/// entered an error state and every subsequent response advertises it.
///
/// # Examples
///
/// ```
/// use cxl_proto::request::RasMeta;
///
/// let meta = RasMeta::CLEAN.with_poison();
/// assert!(meta.poison && !meta.viral && !meta.is_clean());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct RasMeta {
    /// The data carried with this completion is known-corrupt.
    pub poison: bool,
    /// The responder is in viral (global containment) state.
    pub viral: bool,
}

impl RasMeta {
    /// The healthy completion: no poison, no viral.
    pub const CLEAN: RasMeta = RasMeta {
        poison: false,
        viral: false,
    };

    /// Sets the poison bit.
    pub fn with_poison(mut self) -> Self {
        self.poison = true;
        self
    }

    /// True when neither bit is set.
    pub fn is_clean(self) -> bool {
        !self.poison && !self.viral
    }

    /// Merges two metadata words (either side's error sticks).
    pub fn merge(self, other: RasMeta) -> RasMeta {
        RasMeta {
            poison: self.poison || other.poison,
            viral: self.viral || other.viral,
        }
    }
}

/// CXL.cache host-to-device snoop opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum H2dSnoop {
    /// Snoop requesting the data, degrading the owner to Shared.
    SnpData,
    /// Snoop invalidating all device copies.
    SnpInv,
    /// Snoop for the current value without a state change.
    SnpCur,
}

/// CXL.mem master-to-subordinate (host→device memory) opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum M2sOpcode {
    /// Read a line from device memory.
    MemRd,
    /// Write a line to device memory.
    MemWr,
    /// Invalidate device-side cached copies of a device-memory line.
    MemInv,
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
    fn invalid_combinations_rejected() {
        assert!(RequestType::new(CacheHint::NcPush, AccessKind::Read).is_none());
        assert!(RequestType::new(CacheHint::CacheableShared, AccessKind::Write).is_none());
        assert!(RequestType::new(CacheHint::Nc, AccessKind::Read).is_some());
    }

    #[test]
    fn opcode_lowering_matches_fig2() {
        assert_eq!(RequestType::NC_RD.d2h_opcode(), D2hOpcode::RdCurr);
        assert_eq!(RequestType::CO_RD.d2h_opcode(), D2hOpcode::RdOwn);
        assert_eq!(RequestType::CS_RD.d2h_opcode(), D2hOpcode::RdShared);
        assert_eq!(RequestType::NC_P.d2h_opcode(), D2hOpcode::ItoMWr);
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
