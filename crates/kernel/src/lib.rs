//! # kernel
//!
//! Simulated Linux memory-optimization features for the `cxl-t2-sim`
//! reproduction of *"Demystifying a CXL Type-2 Device"* (MICRO 2024):
//!
//! * [`zswap`] — the compressed RAM cache for swap, with a real zpool over
//!   a real LZ codec, LRU writeback to a backing NVMe model, and
//!   incompressible-page rejection;
//! * [`ksm`] — kernel samepage merging with xxhash change hints,
//!   stable/unstable content-ordered trees, and CoW breaking;
//! * [`reclaim`] — watermark-driven kswapd with direct and background
//!   paths feeding zswap;
//! * [`offload`] — the four §VII execution backends for the data-plane
//!   functions: `cpu`, `pcie-rdma` (STYX-style BF-3), `pcie-dma`
//!   (Agilex-7 DMA), and `cxl` (the paper's Fig. 7 CXL Type-2 workflow);
//! * [`page`] — page frames with real contents and workload content mixes.
//!
//! # Examples
//!
//! ```
//! use host::socket::Socket;
//! use kernel::offload::CxlBackend;
//! use kernel::zswap::{SwapKey, Zswap, ZswapConfig};
//! use sim_core::time::Time;
//!
//! // cxl-zswap: compression on the device, zpool in device memory.
//! let mut host = Socket::xeon_6538y();
//! let mut z = Zswap::new(ZswapConfig::kernel_default(1 << 30), CxlBackend::agilex7());
//! let page = vec![1u8; 4096];
//! let st = z.store(SwapKey(0), &page, Time::ZERO, &mut host);
//! assert!(st.hit_pool);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ksm;
pub mod offload;
pub mod page;
pub mod reclaim;
pub mod zswap;

/// Common kernel-feature types in one import.
pub mod prelude {
    pub use crate::ksm::{Ksm, KsmPageId};
    pub use crate::offload::{
        CpuBackend, CxlBackend, OffloadBackend, OffloadOutcome, PcieDmaBackend, PcieRdmaBackend,
    };
    pub use crate::page::{PageContent, PageData, PageMix, PAGE_SIZE};
    pub use crate::reclaim::{MemoryZone, ReclaimPath, Watermarks};
    pub use crate::zswap::{SwapKey, Zswap, ZswapConfig, ZswapOp};
}
