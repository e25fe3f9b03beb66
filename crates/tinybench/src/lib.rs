//! Dependency-free latency histograms for the workspace.
//!
//! [`hist`] holds the one log-bucketed histogram and tail summary that
//! `sim-core`, `kvs`, `cxl-bench` and `perfbench` all reduce through.

#![forbid(unsafe_code)]

pub mod hist;
