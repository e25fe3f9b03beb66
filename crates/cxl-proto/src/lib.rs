//! # cxl-proto
//!
//! CXL protocol vocabulary for the `cxl-t2-sim` reproduction of
//! *"Demystifying a CXL Type-2 Device"* (MICRO 2024): device-type taxonomy
//! (Table I), the six device request types and their CXL.cache opcode
//! lowering (§IV-A, Fig. 2), bias-mode bookkeeping for device-memory
//! regions (§IV-B), and a shared point-to-point [`link`] timing model used
//! for CXL, UPI, and PCIe fabrics.
//!
//! This crate holds *protocol* types only — the DCOH state machine that
//! interprets them lives in the `cxl-type2` crate.
//!
//! # Examples
//!
//! ```
//! use cxl_proto::prelude::*;
//!
//! assert!(DeviceType::Type2.supports_coherent_d2h());
//! assert_eq!(RequestType::CS_RD.d2h_opcode(), D2hOpcode::RdShared);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bias;
pub mod device_type;
pub mod dvsec;
pub mod flit;
pub mod link;
pub mod request;
pub mod retry;

/// Common protocol types in one import.
pub mod prelude {
    pub use crate::bias::{BiasRegion, BiasTable};
    pub use crate::device_type::{DeviceType, Protocol};
    pub use crate::dvsec::{enumerate, CxlDvsec, Enumeration};
    pub use crate::flit::{Flit, FlitError, Slot, FLIT_BYTES};
    pub use crate::link::{cxl_x16, pcie5_x16, pcie5_x32, upi, Link};
    pub use crate::request::{
        AccessKind, CacheHint, D2hOpcode, H2dSnoop, M2sOpcode, RasMeta, RequestType,
    };
    pub use crate::retry::{deliver_stream, ReplayOutcome, RetryConfig, RetryLink};
}

pub use prelude::*;
