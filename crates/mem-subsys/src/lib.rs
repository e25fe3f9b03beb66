//! # mem-subsys
//!
//! Memory-subsystem building blocks for the `cxl-t2-sim` reproduction of
//! *"Demystifying a CXL Type-2 Device"* (MICRO 2024): cache-line
//! addressing, MESI coherence, one set-associative tag/state cache with
//! true-LRU replacement (a direct-mapped cache is its 1-way instance),
//! bounded memory-controller write queues, and DRAM channel timing for the
//! three technologies in the paper's Table II.
//!
//! These models are shared by the host cache hierarchy (`host` crate), the
//! device DCOH caches (`cxl-type2` crate), and the PCIe device memory
//! (`pcie` crate).
//!
//! # Examples
//!
//! ```
//! use mem_subsys::cache::SetAssocCache;
//! use mem_subsys::coherence::MesiState;
//! use mem_subsys::dram::{DramTech, MemorySystem};
//! use mem_subsys::line::LineAddr;
//! use sim_core::time::Time;
//!
//! // Device-side state: 4-way 128 KiB HMC over 2 channels of DDR4-2400.
//! let mut hmc = SetAssocCache::with_capacity(128 * 1024, 4);
//! let mut dev_mem = MemorySystem::new(DramTech::Ddr4_2400, 2, 32);
//!
//! let addr = LineAddr::new(0x200);
//! if hmc.lookup(addr).is_none() {
//!     let data_at = dev_mem.read(addr, Time::ZERO);
//!     hmc.fill(addr, MesiState::Shared);
//!     assert!(data_at > Time::ZERO);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod coherence;
pub mod dram;
pub mod line;
pub mod write_queue;

pub use cache::{CacheStats, Evicted, SetAssocCache};
pub use coherence::MesiState;
pub use dram::{DramTech, MemorySystem};
pub use line::{LineAddr, LINE_BYTES};
pub use write_queue::WriteQueue;
