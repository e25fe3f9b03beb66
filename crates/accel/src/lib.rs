//! # accel
//!
//! The offloaded data-plane functions of §VI, implemented functionally and
//! wrapped in engine timing models:
//!
//! * [`xxhash`] — bit-exact xxHash32/64 (ksm's page-change hint),
//!   validated against published test vectors;
//! * [`lz`] — an LZ4-style block codec (zswap's page compressor), with a
//!   real dictionary coder so zpool contents and ratios are genuine;
//! * [`compare`] — page comparison with first-difference reporting (ksm's
//!   merge test and tree ordering), over the word-wise [`common_prefix`]
//!   kernel that the LZ encoder's match extension shares;
//! * [`ip`] — execution-time models for the three engines that run these
//!   functions in the paper's comparison (host Xeon, BF-3 Arm core,
//!   streaming FPGA IP) plus the chunk-level pipelining of Fig. 7.
//!
//! # Examples
//!
//! ```
//! use accel::lz::CompressedPage;
//! use accel::ip::{Engine, Function};
//!
//! let page = vec![0u8; 4096];
//! let cp = CompressedPage::from_page(&page);
//! assert!(cp.ratio() > 10.0);
//! // The FPGA IP compresses the page faster than the host core.
//! let fpga = Engine::FpgaIp.execution_time(Function::Compress, 4096);
//! let hostv = Engine::HostCpu.execution_time(Function::Compress, 4096);
//! assert!(fpga < hostv);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod ip;
pub mod lz;
pub mod xxhash;

/// Common accelerator types in one import.
pub mod prelude {
    pub use crate::compare::{common_prefix, compare_pages, PageCompare};
    pub use crate::ip::{pipeline_time, Engine, Function};
    pub use crate::lz::{compress, decompress, CompressedPage, DecompressError};
    pub use crate::xxhash::{page_checksum, xxh32, xxh64};
}

pub use prelude::*;
