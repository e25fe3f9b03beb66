//! # cxl-proto
//!
//! CXL protocol vocabulary for the `cxl-t2-sim` reproduction of
//! *"Demystifying a CXL Type-2 Device"* (MICRO 2024): device-type taxonomy
//! (Table I), the six device request types (§IV-A), bias-mode bookkeeping for device-memory
//! regions (§IV-B), a shared point-to-point [`link`] timing model used
//! for CXL, UPI, and PCIe fabrics, and the one link-error model,
//! [`retry::RetryLink`], that wraps it.
//!
//! This crate holds *protocol* types only — the DCOH state machine that
//! interprets them lives in the `cxl-type2` crate.
//!
//! # Examples
//!
//! ```
//! use cxl_proto::device_type::Protocol;
//! use cxl_proto::prelude::*;
//!
//! // Coherent D2H needs CXL.cache, which Type 3 lacks.
//! let d2h: Vec<_> = DeviceType::ALL
//!     .into_iter()
//!     .filter(|t| t.protocols().contains(&Protocol::Cache))
//!     .collect();
//! assert_eq!(d2h, [DeviceType::Type1, DeviceType::Type2]);
//! assert!(RequestType::CS_RD.is_read());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bias;
pub mod device_type;
pub mod link;
pub mod request;
pub mod retry;

/// Common protocol types in one import.
pub mod prelude {
    pub use crate::bias::BiasTable;
    pub use crate::device_type::DeviceType;
    pub use crate::link::{cxl_x16, upi, Link};
    pub use crate::request::{AccessKind, CacheHint, RequestType};
    pub use crate::retry::{RetryConfig, RetryLink};
}

pub use prelude::*;
