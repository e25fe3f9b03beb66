//! # cxl-type2
//!
//! The core contribution of the `cxl-t2-sim` workspace: a cycle-approximate
//! model of a commercial CXL Type-2 device (the paper's Intel Agilex-7),
//! reproducing the architecture of §IV of *"Demystifying a CXL Type-2
//! Device"* (MICRO 2024):
//!
//! * a DCOH slice with split device cache — 4-way 128 KiB **HMC** (host
//!   memory cache) and direct-mapped 32 KiB **DMC** (device memory cache);
//! * the six D2H request types of Table III (NC-P, NC-rd, NC-wr, CO-rd,
//!   CO-wr, CS-rd) with their exact coherence-state effects;
//! * D2D accesses in **host-bias** (hardware coherence) and **device-bias**
//!   (software coherence) modes, with dynamic switching;
//! * the H2D path including the Type-2 DMC coherence check, and a Type-3
//!   configuration of the same card for Fig. 5's comparison;
//! * the CAFU [`lsu`] that drives the §V microbenchmarks.
//!
//! # Examples
//!
//! ```
//! use cxl_type2::prelude::*;
//! use cxl_proto::request::RequestType;
//! use host::socket::Socket;
//! use mem_subsys::coherence::MesiState;
//! use sim_core::time::Time;
//!
//! let mut host = Socket::xeon_6538y();
//! let mut dev = CxlDevice::agilex7();
//!
//! // Insight 4: NC-P pushes a line into host LLC so a later host load
//! // hits locally instead of crossing CXL to device DRAM.
//! let line = device_line(0);
//! let push = dev.d2h_push_from_device(line, Time::ZERO, &mut host);
//! let fast = dev.h2d_load(line, push, &mut host);
//! assert_eq!(fast.llc_hit, Some(true));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod biasmgr;
pub(crate) mod dcoh;
pub mod device;
pub mod fabric;
pub mod lsu;
pub mod occupancy;
pub mod reliability;
pub(crate) mod timing;
pub mod transfer;

/// Common device types in one import.
pub mod prelude {
    pub use crate::addr::{device_line, host_line, DEVICE_MEM_BASE};
    pub use crate::biasmgr::BiasDaemon;
    pub use crate::device::CxlDevice;
    pub use crate::fabric::Fabric;
    pub use crate::lsu::{BurstTarget, Lsu};
    pub use crate::reliability::SliceTimeouts;
}

pub use prelude::*;
