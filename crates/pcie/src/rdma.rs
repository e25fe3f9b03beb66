//! RDMA over PCIe (the BlueField-3 path) and DOCA-DMA.
//!
//! The BF-3 exposes two offload transports used in §V-D and §VII:
//!
//! * **PCIe-RDMA** — kernel-space verbs: the host posts a work request and
//!   rings a doorbell (an MMIO write), the on-board NIC processes the WQE
//!   and moves data; BF-3's ×32 lanes give it up to ~40 GB/s.
//! * **PCIe-DOCA-DMA** — the DOCA DMA library; functionally similar but
//!   with a heavier software path, yielding higher latency and lower
//!   bandwidth than RDMA (per the paper, citing Wei et al. OSDI'23).

use sim_core::time::{Duration, Time};
use sim_core::trace::{self, TraceEvent};

/// Timestamped lifecycle of one RDMA work request, as reported by
/// [`RdmaEngine::submit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RdmaEvents {
    /// WQE built and doorbell rung.
    pub(crate) posted: Time,
    /// NIC finished WQE fetch/processing and began moving data.
    pub(crate) started: Time,
    /// CQE observed by the host (data fully moved).
    pub completed: Time,
}

/// An RDMA queue pair on the BF-3.
///
/// # Examples
///
/// ```
/// use pcie::rdma::RdmaEngine;
/// use sim_core::time::Time;
///
/// let mut rdma = RdmaEngine::bf3();
/// let t = rdma.transfer(Time::ZERO, 4096);
/// assert!(t.duration_since(Time::ZERO).as_micros_f64() < 2.0);
/// ```
#[derive(Debug, Clone)]
pub struct RdmaEngine {
    /// WQE build + doorbell MMIO write.
    post: Duration,
    /// NIC WQE fetch, processing, and completion generation.
    nic_processing: Duration,
    /// Streaming bandwidth in GB/s.
    bandwidth_gbps: f64,
    busy_until: Time,
}

impl RdmaEngine {
    /// BF-3 RDMA defaults: ~700 ns small-transfer latency, 40 GB/s peak
    /// (×32 PCIe 5.0 lanes).
    pub fn bf3() -> Self {
        RdmaEngine {
            post: Duration::from_nanos(180),
            nic_processing: Duration::from_nanos(520),
            bandwidth_gbps: 40.0,
            busy_until: Time::ZERO,
        }
    }

    /// Creates an engine with explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth_gbps` is not positive.
    pub(crate) fn new(post: Duration, nic_processing: Duration, bandwidth_gbps: f64) -> Self {
        assert!(bandwidth_gbps > 0.0, "RDMA bandwidth must be positive");
        RdmaEngine {
            post,
            nic_processing,
            bandwidth_gbps,
            busy_until: Time::ZERO,
        }
    }

    /// Streaming time for `bytes`.
    pub(crate) fn streaming_time(&self, bytes: u64) -> Duration {
        Duration::from_ns_f64(bytes as f64 / self.bandwidth_gbps)
    }

    /// One-sided RDMA read/write of `bytes`; returns completion (CQE
    /// observed).
    pub fn transfer(&mut self, now: Time, bytes: u64) -> Time {
        self.submit(now, bytes).completed
    }

    /// Posts a work request and returns each timestamped stage of its
    /// life — the event-based API behind the [`RdmaEngine::transfer`]
    /// facade.
    pub(crate) fn submit(&mut self, now: Time, bytes: u64) -> RdmaEvents {
        trace::emit(now, TraceEvent::RdmaVerb { bytes });
        let posted = now + self.post;
        let started = self.busy_until.max(posted) + self.nic_processing;
        let completed = started + self.streaming_time(bytes);
        self.busy_until = completed;
        RdmaEvents {
            posted,
            started,
            completed,
        }
    }
}

/// The DOCA-DMA transport: RDMA hardware driven through the heavier DOCA
/// software stack.
///
/// # Examples
///
/// ```
/// use pcie::rdma::{DocaDma, RdmaEngine};
/// use sim_core::time::Time;
///
/// let mut doca = DocaDma::bf3();
/// let mut rdma = RdmaEngine::bf3();
/// let td = doca.transfer(Time::ZERO, 256);
/// let tr = rdma.transfer(Time::ZERO, 256);
/// assert!(td > tr, "DOCA-DMA is slower than RDMA");
/// ```
#[derive(Debug, Clone)]
pub struct DocaDma(RdmaEngine);

impl DocaDma {
    /// BF-3 DOCA-DMA defaults: markedly higher fixed cost and lower peak
    /// bandwidth than raw RDMA.
    pub fn bf3() -> Self {
        DocaDma(RdmaEngine::new(
            Duration::from_nanos(900),
            Duration::from_nanos(1_100),
            26.0,
        ))
    }

    /// Transfer of `bytes`; returns completion.
    pub fn transfer(&mut self, now: Time, bytes: u64) -> Time {
        self.0.transfer(now, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::stats::bandwidth_gbps;

    #[test]
    fn rdma_small_latency_under_1us() {
        let mut r = RdmaEngine::bf3();
        let t = r.transfer(Time::ZERO, 64);
        let us = t.duration_since(Time::ZERO).as_micros_f64();
        assert!((0.5..1.0).contains(&us), "64B RDMA {us}us");
    }

    #[test]
    fn rdma_peaks_at_40gbps() {
        let mut r = RdmaEngine::bf3();
        let bytes = 256u64 << 20;
        let t = r.transfer(Time::ZERO, bytes);
        let bw = bandwidth_gbps(bytes, t.duration_since(Time::ZERO));
        assert!(bw > 39.0 && bw <= 40.0, "bw {bw}");
    }

    #[test]
    fn doca_slower_and_lower_bandwidth_than_rdma() {
        let mut doca = DocaDma::bf3();
        let mut rdma = RdmaEngine::bf3();
        let bytes = 64u64 << 20;
        let td = doca.transfer(Time::ZERO, bytes);
        let tr = rdma.transfer(Time::ZERO, bytes);
        let bwd = bandwidth_gbps(bytes, td.duration_since(Time::ZERO));
        let bwr = bandwidth_gbps(bytes, tr.duration_since(Time::ZERO));
        assert!(bwd < bwr, "DOCA bw {bwd} < RDMA bw {bwr}");
    }

    #[test]
    fn submit_events_match_facade() {
        let mut a = RdmaEngine::bf3();
        let mut b = RdmaEngine::bf3();
        let ev = a.submit(Time::ZERO, 4096);
        assert_eq!(ev.posted, Time::ZERO + Duration::from_nanos(180));
        assert!(ev.started > ev.posted, "NIC processing follows the post");
        assert_eq!(b.transfer(Time::ZERO, 4096), ev.completed);
    }

    #[test]
    fn engine_serializes() {
        let mut r = RdmaEngine::bf3();
        let t1 = r.transfer(Time::ZERO, 1 << 20);
        let t2 = r.transfer(Time::ZERO, 1 << 20);
        assert!(t2 > t1);
    }
}
