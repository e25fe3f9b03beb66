//! # cxl-t2-sim
//!
//! A software-simulated, full-system reproduction of *"Demystifying a CXL
//! Type-2 Device: A Heterogeneous Cooperative Computing Perspective"*
//! (MICRO 2024) in pure Rust.
//!
//! This facade crate re-exports the workspace's layers:
//!
//! * [`sim_core`] — discrete-event time, RNG, statistics;
//! * [`mem_subsys`] — caches, MESI, write queues, DRAM;
//! * [`cxl_proto`] — CXL protocol vocabulary, bias modes, link timing;
//! * [`cxl_type2`] — **the paper's device**: DCOH, HMC/DMC, D2H/D2D/H2D;
//! * [`pcie`] — MMIO/DMA/RDMA/DOCA comparison transports;
//! * [`host`] — Xeon socket, NUMA/UPI emulation, DSA, burst model;
//! * [`accel`] — xxHash, LZ codec, byte-compare + engine timing;
//! * [`kernel`] — zswap, ksm, reclaim, offload backends;
//! * [`kvs`] — Redis/YCSB tail-latency harness (Fig. 8);
//! * [`cxl_bench`] — experiment regeneration for every table and figure.
//!
//! # Examples
//!
//! ```
//! use cxl_t2_sim::prelude::*;
//!
//! let mut host = Socket::xeon_6538y();
//! let mut dev = CxlDevice::agilex7();
//! let acc = dev.d2h(RequestType::CS_RD, host_line(64), Time::ZERO, &mut host);
//! assert!(acc.completion > Time::ZERO);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use accel;
pub use cxl_bench;
pub use cxl_proto;
pub use cxl_type2;
pub use host;
pub use kernel;
pub use kvs;
pub use mem_subsys;
pub use pcie;
pub use sim_core;

/// The most commonly used types across the workspace.
pub mod prelude {
    pub use accel::prelude::*;
    pub use cxl_proto::prelude::*;
    pub use cxl_type2::prelude::*;
    pub use host::prelude::*;
    pub use kernel::prelude::*;
    pub use kvs::prelude::*;
    pub use mem_subsys::{DramTech, LineAddr, MesiState};
    pub use sim_core::prelude::*;
}
