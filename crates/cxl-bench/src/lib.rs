//! # cxl-bench
//!
//! Experiment regeneration for the `cxl-t2-sim` reproduction of
//! *"Demystifying a CXL Type-2 Device"* (MICRO 2024). Each module runs one
//! of the paper's tables/figures on the simulator, returns structured
//! rows and renders them as a report. [`harness::HARNESSES`] registers
//! every module under one name; the `cxl-bench` binary prints a report
//! with `cxl-bench repro <name>` (`all` runs the paper artifacts in
//! order). The simulator's host time is measured by the separate
//! `perfbench` crate, not here.
//!
//! | Paper artifact | Module | `cxl-bench repro` |
//! |---|---|---|
//! | Tables I–II | [`tables`] | `tables` |
//! | Table III | [`tables::run_table3`] | `tables table3` |
//! | Fig. 3 (D2H) | [`fig3`] | `fig3` |
//! | Fig. 4 (D2D bias) | [`fig4`] | `fig4` |
//! | Fig. 5 (H2D) | [`fig5`] | `fig5` |
//! | Fig. 6 (CXL vs PCIe) | [`fig6`] | `fig6` |
//! | Table IV (offload breakdown) | [`tables::run_table4`] | `table4` |
//! | Fig. 8 (tail latency) | `fig8run` | `fig8` |
//! | Design ablations | `ablations` | `ablations` |
//! | Duplex H2D/D2H contention | `duplex` | `duplex` |
//! | Reliability vs link BER | `fault` | `fault` |
//! | Multi-device interleave | `fabric` | `fabric` |
//! | Multi-tenant serving QoS | [`serving`] | `serving` |
//! | Adaptive bias ablation | `bias` | `bias` |
//! | Latency matrix | `mlc` | `mlc` |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod ablations;
pub(crate) mod bias;
pub(crate) mod duplex;
pub(crate) mod fabric;
pub(crate) mod fault;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub(crate) mod fig8run;
pub mod golden;
pub mod harness;
pub(crate) mod mlc;
pub mod serving;
pub mod tables;
pub mod traceopt;
