//! # cxl-proto
//!
//! CXL protocol vocabulary for the `cxl-t2-sim` reproduction of
//! *"Demystifying a CXL Type-2 Device"* (MICRO 2024): device-type taxonomy
//! (Table I), the six device request types (§IV-A), bias-mode bookkeeping for device-memory
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
//! assert!(RequestType::CS_RD.is_read());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bias;
pub mod device_type;
pub mod flit;
pub mod link;
pub mod request;
pub mod retry;

/// Common protocol types in one import.
pub mod prelude {
    pub use crate::bias::BiasTable;
    pub use crate::device_type::DeviceType;
    pub use crate::flit::{Flit, Slot, FLIT_BYTES};
    pub use crate::link::{cxl_x16, upi, Link};
    pub use crate::request::{AccessKind, CacheHint, D2hOpcode, RasMeta, RequestType};
    pub use crate::retry::{deliver_stream, RetryConfig, RetryLink};
}

pub use prelude::*;
