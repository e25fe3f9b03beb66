//! Descriptor-driven copy engines: the Agilex-7 multi-channel DMA, the
//! BlueField-3's RDMA verbs and DOCA-DMA paths, and the Xeon's DSA.
//!
//! §V-D and Fig. 6 characterize every one of them the same way: a fixed
//! cost, then streaming at the engine's bandwidth. A transfer pays the
//! software setup (descriptor or WQE build and doorbell), waits for the
//! engine to drain earlier transfers, pays the engine's descriptor fetch
//! and processing, streams, and finally reports completion. For small
//! transfers the fixed cost dominates, which is why fine-grained CHC over
//! PCIe is expensive (§I). DMA and RDMA writes to host memory land in the
//! LLC via DDIO; the model charges only the transfer's timing.

use sim_core::time::{Duration, Time};
use sim_core::trace::{self, TraceEvent};

/// Completion-reporting semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompletionModel {
    /// The producer observes completion when data is delivered.
    Delivered,
    /// The producer treats descriptor submission as completion — the
    /// paper's explanation for D2H PCIe-DMA's "seemingly lowest latency"
    /// (it does not include the transfer time).
    Posted,
}

/// The trace event of a DMA descriptor or an RDMA verb of `bytes`.
const DMA_DESCRIPTOR: Option<fn(u64) -> TraceEvent> =
    Some(|bytes| TraceEvent::DmaDescriptor { bytes });
const RDMA_VERB: Option<fn(u64) -> TraceEvent> = Some(|bytes| TraceEvent::RdmaVerb { bytes });

/// A copy engine: fixed setup, fetch and completion costs around
/// serialized streaming at one bandwidth.
///
/// # Examples
///
/// ```
/// use pcie::engine::{CompletionModel, CopyEngine};
/// use sim_core::time::Time;
///
/// let mut dma = CopyEngine::agilex_mcdma(CompletionModel::Delivered);
/// let small = dma.transfer(Time::ZERO, 64);
/// let big = dma.transfer(small, 1 << 20);
/// assert!(big.duration_since(small) > small.duration_since(Time::ZERO));
///
/// // DOCA-DMA drives the same BF-3 hardware as RDMA through a heavier
/// // software stack.
/// let doca = CopyEngine::bf3_doca().transfer(Time::ZERO, 256);
/// let rdma = CopyEngine::bf3_rdma().transfer(Time::ZERO, 256);
/// assert!(doca > rdma);
/// ```
#[derive(Debug, Clone)]
pub struct CopyEngine {
    /// Software submission: descriptor or WQE build plus doorbell.
    setup: Duration,
    /// Engine-side descriptor fetch and processing once it is free.
    fetch: Duration,
    /// Completion record or CQE delivery and detection.
    completion: Duration,
    /// Streaming bandwidth in GB/s.
    bandwidth_gbps: f64,
    /// Whether the producer observes completion at submission.
    posted: bool,
    /// The trace event each transfer emits, if any.
    event: Option<fn(u64) -> TraceEvent>,
    busy_until: Time,
}

impl CopyEngine {
    fn new(
        [setup, fetch, completion]: [u64; 3],
        bandwidth_gbps: f64,
        event: Option<fn(u64) -> TraceEvent>,
    ) -> Self {
        CopyEngine {
            setup: Duration::from_nanos(setup),
            fetch: Duration::from_nanos(fetch),
            completion: Duration::from_nanos(completion),
            bandwidth_gbps,
            posted: false,
            event,
            busy_until: Time::ZERO,
        }
    }

    /// The Agilex-7 multi-channel DMA over PCIe 5.0 ×16 (~30 GB/s
    /// saturation per §V-D).
    pub fn agilex_mcdma(model: CompletionModel) -> Self {
        CopyEngine {
            posted: model == CompletionModel::Posted,
            ..CopyEngine::new([350, 0, 150], 30.0, DMA_DESCRIPTOR)
        }
    }

    /// A BF-3 RDMA queue pair: ~700 ns small-transfer latency, 40 GB/s
    /// peak (×32 PCIe 5.0 lanes).
    pub fn bf3_rdma() -> Self {
        CopyEngine::new([180, 520, 0], 40.0, RDMA_VERB)
    }

    /// BF-3 DOCA-DMA: the RDMA hardware behind the heavier DOCA software
    /// stack, so a markedly higher fixed cost and lower peak bandwidth
    /// (the paper cites Wei et al., OSDI'23).
    pub fn bf3_doca() -> Self {
        CopyEngine::new([900, 1_100, 0], 26.0, RDMA_VERB)
    }

    /// The on-chip DSA of the paper's Xeon (ENQCMD submission, polled
    /// completion record), saturating around 30 GB/s (§V-D: "the
    /// H2D-access bandwidth of PCIe-DMA and CXL-DSA saturates at ~30
    /// GB/s"). §V-D uses it for CXL transfers above ~1 KiB, where the
    /// core's LD/ST queues become the bottleneck; CXL.mem makes device
    /// memory host-visible, so DSA can target it.
    pub fn intel_dsa() -> Self {
        CopyEngine::new([380, 0, 250], 30.0, None)
    }

    fn streaming_time(&self, bytes: u64) -> Duration {
        Duration::from_ns_f64(bytes as f64 / self.bandwidth_gbps)
    }

    /// Submits a transfer of `bytes` at `now`; returns when the producer
    /// observes completion.
    pub fn transfer(&mut self, now: Time, bytes: u64) -> Time {
        if let Some(event) = self.event {
            trace::emit(now, event(bytes));
        }
        let submitted = now + self.setup;
        let started = self.busy_until.max(submitted) + self.fetch;
        let delivered = started + self.streaming_time(bytes);
        self.busy_until = delivered;
        if self.posted {
            submitted
        } else {
            delivered + self.completion
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use core::ops::Range;
    use sim_core::stats::bandwidth_gbps;

    /// One preset and what it must show.
    struct Row {
        name: &'static str,
        build: fn() -> CopyEngine,
        /// Band of the 64 B latency, ns.
        small_ns: Range<f64>,
        /// Saturation bandwidth, GB/s (peak lies within 1 GB/s below).
        peak_gbps: Option<f64>,
        /// The trace event a 64 B transfer emits.
        emits: Option<TraceEvent>,
    }

    const DMA: Option<TraceEvent> = Some(TraceEvent::DmaDescriptor { bytes: 64 });
    const RDMA: Option<TraceEvent> = Some(TraceEvent::RdmaVerb { bytes: 64 });

    const ROWS: [Row; 5] = [
        Row {
            name: "mcdma",
            build: || CopyEngine::agilex_mcdma(CompletionModel::Delivered),
            small_ns: 400.0..600.0,
            peak_gbps: Some(30.0),
            emits: DMA,
        },
        Row {
            name: "mcdma-posted",
            build: || CopyEngine::agilex_mcdma(CompletionModel::Posted),
            // Posted completion is the setup alone.
            small_ns: 350.0..350.5,
            peak_gbps: None,
            emits: DMA,
        },
        Row {
            name: "rdma",
            build: CopyEngine::bf3_rdma,
            small_ns: 500.0..1_000.0,
            peak_gbps: Some(40.0),
            emits: RDMA,
        },
        Row {
            name: "doca",
            build: CopyEngine::bf3_doca,
            small_ns: 1_000.0..f64::INFINITY,
            peak_gbps: None,
            emits: RDMA,
        },
        Row {
            name: "dsa",
            // Within 10 ns of setup + completion (380 + 250 ns).
            build: CopyEngine::intel_dsa,
            small_ns: 630.0..640.0,
            peak_gbps: Some(30.0),
            emits: None,
        },
    ];

    fn latency(e: &mut CopyEngine, bytes: u64) -> Duration {
        e.transfer(Time::ZERO, bytes).duration_since(Time::ZERO)
    }

    #[test]
    fn every_preset_keeps_its_costs_bandwidth_ordering_and_trace_event() {
        let big = 256u64 << 20;
        let peak = |name: &str| {
            let row = ROWS.iter().find(|r| r.name == name).unwrap();
            bandwidth_gbps(big, latency(&mut (row.build)(), big))
        };
        for row in &ROWS {
            let name = row.name;
            let ns = latency(&mut (row.build)(), 64).as_nanos_f64();
            assert!(row.small_ns.contains(&ns), "{name}: 64 B in {ns} ns");

            if let Some(cap) = row.peak_gbps {
                let bw = peak(name);
                assert!(bw > cap - 1.0 && bw <= cap, "{name}: peak {bw} GB/s");
            }

            // Back-to-back transfers serialize by at least the streaming
            // time.
            let mut e = (row.build)();
            let mb = 1 << 20;
            e.transfer(Time::ZERO, mb);
            let first = e.busy_until;
            e.transfer(Time::ZERO, mb);
            assert!(
                e.busy_until.duration_since(first) >= e.streaming_time(mb),
                "{name}: transfers serialize"
            );

            // Completion is observed after delivery unless posted, when
            // the data is still in flight.
            let mut e = (row.build)();
            let observed = e.transfer(Time::ZERO, mb);
            if e.posted {
                assert_eq!(observed, Time::ZERO + e.setup, "{name}: posted");
                assert!(e.busy_until > observed, "{name}: data still in flight");
            } else {
                assert_eq!(observed, e.busy_until + e.completion, "{name}: observed");
            }

            trace::install(16);
            (row.build)().transfer(Time::ZERO, 64);
            let events: Vec<_> = trace::uninstall().into_iter().map(|t| t.event).collect();
            assert_eq!(events, Vec::from_iter(row.emits), "{name}: trace event");
        }
        let mut mcdma = (ROWS[0].build)();
        let delivered = mcdma.transfer(Time::ZERO, 1 << 20);
        assert_eq!(delivered, mcdma.busy_until + Duration::from_nanos(150));
        assert!(peak("doca") < peak("rdma"), "DOCA below RDMA");
    }
}
