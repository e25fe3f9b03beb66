//! # sim-core
//!
//! Simulation substrate for the `cxl-t2-sim` workspace — the
//! Rust reproduction of *"Demystifying a CXL Type-2 Device"* (MICRO 2024).
//!
//! This crate is hardware-agnostic: it provides picosecond-resolution
//! [`time`] arithmetic and clock domains, a deterministic [`rng`], the
//! closed-form [`port`] scheduler that runs requests through
//! bounded-window ports, and the [`stats`] reductions (medians, p99,
//! bandwidth) that the paper's methodology calls for. Every other crate in
//! the workspace builds its timing models on these primitives.
//!
//! # Examples
//!
//! ```
//! use sim_core::prelude::*;
//!
//! // A 400 MHz device ACC spends 16 cycles per 64B word; measure bandwidth.
//! let elapsed = DEVICE_CLOCK.period() * 16;
//! let gbps = bandwidth_gbps(64, elapsed);
//! assert!(gbps > 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod policy;
pub mod port;
pub mod rng;
pub mod serving;
pub mod stats;
pub mod sweep;
pub mod time;
pub mod topology;
pub mod trace;
pub mod traffic;

/// Convenient glob-import of the most common simulation types.
pub mod prelude {
    pub use crate::fault::{FaultPlan, FaultProcess, Injector};
    pub use crate::policy::{AccessOrigin, BiasPolicy};
    pub use crate::port::{OpOutcome, PortSpec};
    pub use crate::rng::SimRng;
    pub use crate::serving::{weighted_caps, SloAction, SloController, TokenBucket};
    pub use crate::stats::{bandwidth_gbps, Histogram, Samples};
    pub use crate::time::{Duration, Time, DEVICE_CLOCK};
    pub use crate::topology::{DecoderSet, DeviceId};
    pub use crate::trace::{BiasKind, CounterRegistry, FlipCause, TimedEvent, TraceEvent};
    pub use crate::traffic::{Arrival, FlowOp, FlowSpec, FlowStats, TrafficScheduler};
}
