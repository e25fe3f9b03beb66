//! Execution-engine timing for the offloaded data-plane functions.
//!
//! The same functions (compress, decompress, xxhash, byte-compare) run on
//! three engines in the paper's comparison: the host Xeon core (`cpu-*`),
//! the BF-3's Arm cores (`pcie-rdma-*`), and the Agilex-7's streaming FPGA
//! IPs (`pcie-dma-*` and `cxl-*`). §VI-A: the FPGA compression IP is
//! 1.8–2.8× faster than the host CPU for a 4 KiB page. [`pipeline_time`]
//! models the Fig. 7 chunk-level pipelining of transfer/compute/store.

use sim_core::time::Duration;

/// Which engine executes a data-plane function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Engine {
    /// A host Xeon core at 2.2 GHz.
    HostCpu,
    /// A BlueField-3 Arm core.
    ArmCore,
    /// A streaming FPGA IP at 400 MHz.
    FpgaIp,
}

/// The offloadable data-plane functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Function {
    /// LZ-class page compression.
    Compress,
    /// LZ-class page decompression.
    Decompress,
    /// xxHash page checksum.
    Checksum,
    /// Byte-by-byte page comparison.
    Compare,
}

impl Engine {
    /// Sustained throughput of `function` on this engine, in GB/s.
    ///
    /// Calibrated so the FPGA/host compression ratio falls in the paper's
    /// 1.8–2.8× band and the Arm core is the slowest (the reason
    /// pcie-rdma-zswap's step ④ dominates Table IV).
    pub(crate) fn throughput_gbps(self, function: Function) -> f64 {
        match (self, function) {
            (Engine::HostCpu, Function::Compress) => 1.4,
            (Engine::HostCpu, Function::Decompress) => 3.4,
            (Engine::HostCpu, Function::Checksum) => 4.5,
            (Engine::HostCpu, Function::Compare) => 6.0,
            (Engine::ArmCore, Function::Compress) => 1.2,
            (Engine::ArmCore, Function::Decompress) => 1.6,
            (Engine::ArmCore, Function::Checksum) => 2.0,
            (Engine::ArmCore, Function::Compare) => 2.6,
            (Engine::FpgaIp, Function::Compress) => 2.7,
            (Engine::FpgaIp, Function::Decompress) => 5.6,
            (Engine::FpgaIp, Function::Checksum) => 12.0,
            (Engine::FpgaIp, Function::Compare) => 16.0,
        }
    }

    /// Fixed per-invocation overhead (function setup, IP start, etc.).
    pub(crate) fn invocation_overhead(self) -> Duration {
        match self {
            Engine::HostCpu => Duration::from_nanos(60),
            Engine::ArmCore => Duration::from_nanos(120),
            Engine::FpgaIp => Duration::from_nanos(100),
        }
    }

    /// Time for `function` over `bytes` of input on this engine.
    pub fn execution_time(self, function: Function, bytes: u64) -> Duration {
        self.invocation_overhead()
            + Duration::from_ns_f64(bytes as f64 / self.throughput_gbps(function))
    }
}

/// Chunk-level pipelining of sequential stages (the paper pipelines the
/// page transfer ②, the computation ④, and the result store ⑤ because the
/// IPs stream and CXL moves cache-line chunks).
///
/// Each stage's total time is split over `chunks`; the pipeline fills with
/// one chunk through every stage and then drains at the bottleneck stage's
/// rate.
///
/// # Examples
///
/// ```
/// use accel::ip::pipeline_time;
/// use sim_core::time::Duration;
///
/// let stages =
///     [Duration::from_micros(2), Duration::from_micros(4), Duration::from_micros(1)];
/// let pipelined = pipeline_time(&stages, 64);
/// let serial: Duration = stages.iter().copied().sum();
/// assert!(pipelined < serial);
/// assert!(pipelined >= Duration::from_micros(4), "bottleneck bounds the pipeline");
/// ```
///
/// # Panics
///
/// Panics if `stages` is empty or `chunks` is zero.
pub fn pipeline_time(stages: &[Duration], chunks: u64) -> Duration {
    assert!(!stages.is_empty(), "pipeline needs at least one stage");
    assert!(chunks > 0, "pipeline needs at least one chunk");
    let (fill, bottleneck) = stages
        .iter()
        .map(|&s| s / chunks)
        .fold((Duration::ZERO, Duration::ZERO), |(fill, max), c| {
            (fill + c, max.max(c))
        });
    fill + bottleneck * (chunks - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAGE: u64 = 4096;

    #[test]
    fn fpga_compression_within_paper_band() {
        let fpga = Engine::FpgaIp.execution_time(Function::Compress, PAGE);
        let hostv = Engine::HostCpu.execution_time(Function::Compress, PAGE);
        let speedup = hostv.as_nanos_f64() / fpga.as_nanos_f64();
        assert!(
            (1.8..=2.8).contains(&speedup),
            "FPGA compress speedup {speedup}"
        );
    }

    #[test]
    fn arm_is_slowest_engine() {
        for f in [
            Function::Compress,
            Function::Decompress,
            Function::Checksum,
            Function::Compare,
        ] {
            let arm = Engine::ArmCore.execution_time(f, PAGE);
            assert!(arm > Engine::HostCpu.execution_time(f, PAGE));
            assert!(arm > Engine::FpgaIp.execution_time(f, PAGE));
        }
    }

    #[test]
    fn execution_scales_with_size() {
        let small = Engine::FpgaIp.execution_time(Function::Checksum, 64);
        let large = Engine::FpgaIp.execution_time(Function::Checksum, 64 * 1024);
        assert!(large > small * 10);
    }

    #[test]
    fn pipeline_bounded_by_bottleneck_and_sum() {
        let stages = [
            Duration::from_nanos(1_300),
            Duration::from_nanos(1_200),
            Duration::from_nanos(900),
        ];
        let serial: Duration = stages.iter().copied().sum();
        for chunks in [1, 4, 64] {
            let p = pipeline_time(&stages, chunks);
            assert!(p <= serial, "pipelining never slower than serial");
            assert!(
                p >= *stages.iter().max().unwrap(),
                "bottleneck is a lower bound"
            );
        }
        // One chunk = fully serial.
        assert_eq!(pipeline_time(&stages, 1), serial);
    }

    #[test]
    fn deep_pipelines_approach_bottleneck() {
        let stages = [Duration::from_micros(1), Duration::from_micros(3)];
        let p = pipeline_time(&stages, 4096);
        let bottleneck = Duration::from_micros(3);
        let slack = p.as_nanos_f64() / bottleneck.as_nanos_f64();
        assert!(
            slack < 1.01,
            "deep pipeline within 1% of bottleneck: {slack}"
        );
    }
}
