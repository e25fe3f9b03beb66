//! Intel DSA (Data Streaming Accelerator) model.
//!
//! §V-D uses DSA for CXL transfers above ~1 KiB, where the host core's
//! LD/ST queues become the bottleneck: the core submits a descriptor
//! (ENQCMD) and the engine streams data at DMA bandwidth between two host
//! memory regions — CXL device memory qualifies because CXL.mem exposes it
//! as host-visible memory. The model is a fixed submission/completion
//! overhead plus serialized streaming at engine bandwidth.

use sim_core::time::{Duration, Time};

/// A DSA-style streaming copy engine.
///
/// # Examples
///
/// ```
/// use host::dsa::DsaEngine;
/// use sim_core::time::Time;
///
/// let mut dsa = DsaEngine::intel_dsa();
/// let small = dsa.transfer(Time::ZERO, 64);
/// let large = dsa.transfer(small, 1 << 20);
/// assert!(large.duration_since(small) > small.duration_since(Time::ZERO));
/// ```
#[derive(Debug, Clone)]
pub struct DsaEngine {
    /// Descriptor submission cost (ENQCMD + work-queue dispatch).
    submission: Duration,
    /// Completion-record write + detection by the polling core.
    completion: Duration,
    /// Streaming bandwidth in GB/s.
    bandwidth_gbps: f64,
    /// Engine occupancy.
    busy_until: Time,
}

impl DsaEngine {
    /// Creates an engine with explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth_gbps` is not positive.
    pub(crate) fn new(submission: Duration, completion: Duration, bandwidth_gbps: f64) -> Self {
        assert!(bandwidth_gbps > 0.0, "DSA bandwidth must be positive");
        DsaEngine {
            submission,
            completion,
            bandwidth_gbps,
            busy_until: Time::ZERO,
        }
    }

    /// The on-chip DSA of the paper's Xeon, saturating around 30 GB/s
    /// (§V-D: "the H2D-access bandwidth of PCIe-DMA and CXL-DSA saturates
    /// at ~30 GB/s").
    pub fn intel_dsa() -> Self {
        DsaEngine::new(Duration::from_nanos(380), Duration::from_nanos(250), 30.0)
    }

    /// Time to stream `bytes` once the engine starts.
    pub(crate) fn streaming_time(&self, bytes: u64) -> Duration {
        Duration::from_ns_f64(bytes as f64 / self.bandwidth_gbps)
    }

    /// Submits a transfer of `bytes` at `now`; returns the time the
    /// submitting core observes completion.
    pub fn transfer(&mut self, now: Time, bytes: u64) -> Time {
        let submitted = now + self.submission;
        let start = self.busy_until.max(submitted);
        let done = start + self.streaming_time(bytes);
        self.busy_until = done;
        done + self.completion
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::stats::bandwidth_gbps;

    #[test]
    fn small_transfers_dominated_by_fixed_cost() {
        let mut dsa = DsaEngine::intel_dsa();
        let done = dsa.transfer(Time::ZERO, 64);
        let lat = done.duration_since(Time::ZERO);
        let fixed = dsa.submission + dsa.completion;
        assert!(lat < fixed + Duration::from_nanos(10));
        assert!(lat >= fixed);
    }

    #[test]
    fn large_transfers_approach_engine_bandwidth() {
        let mut dsa = DsaEngine::intel_dsa();
        let bytes = 64u64 << 20;
        let done = dsa.transfer(Time::ZERO, bytes);
        let bw = bandwidth_gbps(bytes, done.duration_since(Time::ZERO));
        assert!(bw > 29.0 && bw <= 30.0, "bw {bw}");
    }

    #[test]
    fn engine_serializes_concurrent_transfers() {
        let mut dsa = DsaEngine::intel_dsa();
        let d1 = dsa.transfer(Time::ZERO, 1 << 20);
        let d2 = dsa.transfer(Time::ZERO, 1 << 20);
        assert!(d2.duration_since(d1) >= dsa.streaming_time(1 << 20));
    }
}
