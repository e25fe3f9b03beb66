//! # host
//!
//! Host-platform models for the `cxl-t2-sim` reproduction of *"Demystifying
//! a CXL Type-2 Device"* (MICRO 2024): the Xeon socket's three-level cache
//! [`hierarchy`] with home-agent coherence operations, the dual-socket
//! [`numa`] system that emulates a CXL device over UPI (Fig. 3's baseline),
//! the pipelined [`burst`] issue model shared with the device LSU, and the
//! static Table II [`config`].
//!
//! The central abstraction is [`socket::Socket`]: its *core-side* ops model
//! local `ld`/`st`/`nt-ld`/`nt-st`/`CLFLUSH`/`CLDEMOTE`, and its
//! *home-side* ops serve externally originated coherence requests — the
//! exact operations the CXL Type-2 DCOH invokes over CXL.cache (in the
//! `cxl-type2` crate) and that a remote socket invokes over UPI.
//!
//! # Examples
//!
//! ```
//! use host::prelude::*;
//! use mem_subsys::line::LineAddr;
//! use sim_core::time::Time;
//!
//! // Fig. 3's emulated-D2H baseline: a remote core loads a line that the
//! // home core demoted into its LLC.
//! let mut numa = NumaSystem::xeon_dual_socket();
//! let a = LineAddr::new(0x1);
//! numa.home.load(a, Time::ZERO);
//! numa.home.cldemote(a, Time::ZERO);
//! let acc = numa.remote_load(a, Time::from_nanos(100));
//! assert!(acc.llc_hit);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod burst;
pub mod config;
pub mod hierarchy;
pub mod numa;
pub mod poison;
pub mod socket;
pub(crate) mod timing;

/// Common host types in one import.
pub mod prelude {
    pub use crate::burst::{run_burst, BurstResult};
    pub use crate::hierarchy::{CacheHierarchy, HitLevel};
    pub use crate::numa::NumaSystem;
    pub use crate::poison::PoisonSet;
    pub use crate::socket::{Access, Socket};
}
