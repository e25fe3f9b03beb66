//! # kvs
//!
//! The §VII evaluation harness for the `cxl-t2-sim` reproduction of
//! *"Demystifying a CXL Type-2 Device"* (MICRO 2024): [`ycsb`] workload
//! generators (A–D, uniform keys), a Redis-like single-threaded [`server`]
//! core model, and the [`fig8`] experiment that measures the p99 latency
//! of Redis under cpu-/pcie-rdma-/pcie-dma-/cxl-based zswap and ksm,
//! normalized to a no-feature baseline.
//!
//! # Examples
//!
//! ```
//! use kvs::fig8::{run_zswap, BackendKind, Fig8Config};
//! use kvs::ycsb::YcsbWorkload;
//!
//! let mut cfg = Fig8Config::smoke();
//! cfg.duration = sim_core::time::Duration::from_millis(30);
//! let base = run_zswap(&cfg, YcsbWorkload::C, BackendKind::None);
//! assert!(base.requests > 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fig8;
pub mod fleet;
pub mod server;
pub mod store;
pub mod ycsb;

/// Common harness types in one import.
pub mod prelude {
    pub use crate::fig8::{run_ksm, run_zswap, BackendKind, Fig8Config, TailReport};
    pub use crate::fleet::{run_fleet, FleetReport, FleetSpec, QosConfig, TenantReport};
    pub use crate::server::{merge_jobs, run_core, Job};
    pub use crate::store::KvStore;
    pub use crate::ycsb::{Op, YcsbWorkload};
}
