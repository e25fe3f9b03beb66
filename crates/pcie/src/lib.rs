//! # pcie
//!
//! PCIe transfer-mechanism models for the `cxl-t2-sim` reproduction of
//! *"Demystifying a CXL Type-2 Device"* (MICRO 2024): [`mmio`] (uncacheable
//! ld/st to BARs with PCIe's strict ordering) and the descriptor-driven
//! copy [`engine`]: one fixed-cost-plus-streaming model with presets for
//! the Agilex multi-channel DMA IP (with the paper's posted-completion
//! quirk), the BlueField-3's RDMA verbs and heavier DOCA-DMA paths, and
//! the host's on-chip DSA.
//!
//! These engines are the comparison points of Fig. 6 (CXL vs PCIe transfer
//! efficiency) and the substrate of the `pcie-rdma-*`/`pcie-dma-*` kernel
//! offload backend in the `kernel` crate. Each engine reports transfer
//! completion times; the host CPU time an offload consumes is charged by
//! the `kernel` backend that drives the engine.
//!
//! # Examples
//!
//! ```
//! use pcie::prelude::*;
//! use sim_core::time::Time;
//!
//! let mut mmio = PcieMmio::pcie5();
//! let mut dma = CopyEngine::agilex_mcdma(CompletionModel::Delivered);
//! // For a 4 KiB page, DMA beats MMIO by an order of magnitude.
//! let t_mmio = mmio.read(Time::ZERO, 4096);
//! let t_dma = dma.transfer(Time::ZERO, 4096);
//! assert!(t_dma < t_mmio);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod mmio;

/// Common PCIe engine types in one import.
pub mod prelude {
    pub use crate::engine::{CompletionModel, CopyEngine};
    pub use crate::mmio::PcieMmio;
}

pub use prelude::*;
