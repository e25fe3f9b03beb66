//! Fig. 6: transfer efficiency of CXL ld/st and DSA vs PCIe MMIO, DMA,
//! RDMA, and DOCA-DMA, across transfer sizes, in both directions.

use std::fmt::Write;

use cxl_type2::addr::{device_line, host_line};
use cxl_type2::device::CxlDevice;
use cxl_type2::transfer::{d2h_push_bytes, d2h_read_bytes, h2d_load_bytes, h2d_store_bytes};
use host::dsa::DsaEngine;
use host::socket::Socket;
use pcie::dma::{CompletionModel, PcieDma};
use pcie::mmio::PcieMmio;
use pcie::rdma::{DocaDma, RdmaEngine};
use sim_core::time::Time;

/// Transfer direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Host CPU → device memory.
    H2d,
    /// Device → host memory.
    D2h,
}

/// A transfer mechanism of Fig. 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mechanism {
    /// MMIO ld/st over PCIe.
    PcieMmio,
    /// Intel multi-channel DMA over PCIe (Agilex-7).
    PcieDma,
    /// RDMA over PCIe (BF-3).
    PcieRdma,
    /// DOCA-DMA over PCIe (BF-3).
    PcieDocaDma,
    /// ld/st over CXL (CXL-LD for reads, CXL-ST/NC-P for writes).
    CxlLdSt,
    /// DSA over CXL.
    CxlDsa,
}

impl Mechanism {
    /// All mechanisms in the figure's legend order.
    pub(crate) const ALL: [Mechanism; 6] = [
        Mechanism::PcieMmio,
        Mechanism::PcieDma,
        Mechanism::PcieRdma,
        Mechanism::PcieDocaDma,
        Mechanism::CxlLdSt,
        Mechanism::CxlDsa,
    ];

    /// Display label.
    pub(crate) fn label(self) -> &'static str {
        match self {
            Mechanism::PcieMmio => "PCIe-MMIO",
            Mechanism::PcieDma => "PCIe-DMA",
            Mechanism::PcieRdma => "PCIe-RDMA",
            Mechanism::PcieDocaDma => "PCIe-DOCA-DMA",
            Mechanism::CxlLdSt => "CXL-LD/ST",
            Mechanism::CxlDsa => "CXL-DSA",
        }
    }

    /// Whether the mechanism appears for the direction in the figure
    /// (D2H PCIe-DMA uses posted completion; CXL-DSA is host-driven only).
    pub(crate) fn applies(self, dir: Direction) -> bool {
        !(self == Mechanism::CxlDsa && dir == Direction::D2h)
    }
}

/// One data point of Fig. 6.
#[derive(Debug, Clone)]
pub struct Fig6Point {
    /// The mechanism.
    pub mechanism: Mechanism,
    /// Transfer size in bytes.
    pub bytes: u64,
    /// Transfer latency, ns.
    pub latency_ns: f64,
}

/// The four plotted series, in report order: direction, write, title.
pub(crate) const SERIES: [(Direction, bool, &str); 4] = [
    (Direction::H2d, true, "H2D writes"),
    (Direction::H2d, false, "H2D reads"),
    (Direction::D2h, false, "D2H reads"),
    (Direction::D2h, true, "D2H writes"),
];

/// The size sweep of Fig. 6.
pub(crate) fn fig6_sizes() -> Vec<u64> {
    vec![
        64,
        256,
        1 << 10,
        4 << 10,
        16 << 10,
        64 << 10,
        256 << 10,
        1 << 20,
    ]
}

fn one_transfer(dir: Direction, write: bool, mech: Mechanism, bytes: u64) -> Option<f64> {
    if !mech.applies(dir) {
        return None;
    }
    let t0 = Time::ZERO;
    let done = match mech {
        Mechanism::PcieMmio => {
            let mut m = PcieMmio::pcie5();
            if write {
                m.write(t0, bytes)
            } else {
                m.read(t0, bytes)
            }
        }
        Mechanism::PcieDma => {
            // D2H DMA reports posted completion (the paper's caveat on the
            // "seemingly lowest" D2H write latency).
            let model = if dir == Direction::D2h && write {
                CompletionModel::Posted
            } else {
                CompletionModel::Delivered
            };
            PcieDma::agilex_mcdma(model).transfer(t0, bytes)
        }
        Mechanism::PcieRdma => RdmaEngine::bf3().transfer(t0, bytes),
        Mechanism::PcieDocaDma => DocaDma::bf3().transfer(t0, bytes),
        Mechanism::CxlLdSt => {
            let mut host = Socket::xeon_6538y();
            let mut dev = CxlDevice::agilex7();
            match (dir, write) {
                (Direction::H2d, true) => {
                    h2d_store_bytes(&mut dev, &mut host, device_line(1 << 10), bytes, t0)
                }
                (Direction::H2d, false) => {
                    h2d_load_bytes(&mut dev, &mut host, device_line(1 << 10), bytes, t0)
                }
                // D2H CXL-ST uses NC-P pushes (DMA/RDMA land in LLC via
                // DDIO, so this is the fair comparison, §V-D).
                (Direction::D2h, true) => {
                    d2h_push_bytes(&mut dev, &mut host, host_line(1 << 20), bytes, t0)
                }
                (Direction::D2h, false) => {
                    d2h_read_bytes(&mut dev, &mut host, host_line(1 << 20), bytes, t0)
                }
            }
        }
        Mechanism::CxlDsa => DsaEngine::intel_dsa().transfer(t0, bytes),
    };
    Some(done.duration_since(t0).as_nanos_f64())
}

/// Runs the Fig. 6 sweep for one direction and op kind, fanning the six
/// mechanism series across `threads` workers. Every transfer builds
/// fresh components, so the series are independent; flattening them in
/// legend order keeps output identical at every thread count.
pub fn run_fig6(threads: usize, dir: Direction, write: bool) -> Vec<Fig6Point> {
    let series = sim_core::sweep::run_with_threads(threads, Mechanism::ALL.len(), |i| {
        let mech = Mechanism::ALL[i];
        fig6_sizes()
            .into_iter()
            .filter_map(|bytes| {
                one_transfer(dir, write, mech, bytes).map(|latency_ns| Fig6Point {
                    mechanism: mech,
                    bytes,
                    latency_ns,
                })
            })
            .collect::<Vec<_>>()
    });
    series.into_iter().flatten().collect()
}

/// Renders one direction's Fig. 6 series.
pub(crate) fn render_fig6(points: &[Fig6Point], title: &str) -> String {
    let mut s = String::new();
    writeln!(s, "Fig. 6 ({title}) — latency (us) by transfer size").unwrap();
    write!(s, "{:<16}", "mechanism").unwrap();
    for &b in &fig6_sizes() {
        write!(s, "{:>10}", human_size(b)).unwrap();
    }
    writeln!(s).unwrap();
    for mech in Mechanism::ALL {
        let series: Vec<&Fig6Point> = points.iter().filter(|p| p.mechanism == mech).collect();
        if series.is_empty() {
            continue;
        }
        write!(s, "{:<16}", mech.label()).unwrap();
        for p in &series {
            write!(s, "{:>10.2}", p.latency_ns / 1_000.0).unwrap();
        }
        writeln!(s).unwrap();
    }
    s
}

fn human_size(b: u64) -> String {
    if b >= 1 << 20 {
        format!("{}MB", b >> 20)
    } else if b >= 1 << 10 {
        format!("{}KB", b >> 10)
    } else {
        format!("{b}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::stats::bandwidth_gbps;
    use sim_core::time::Duration;

    fn point(points: &[Fig6Point], mech: Mechanism, bytes: u64) -> f64 {
        points
            .iter()
            .find(|p| p.mechanism == mech && p.bytes == bytes)
            .unwrap_or_else(|| panic!("{:?} {bytes}", mech))
            .latency_ns
    }

    #[test]
    fn h2d_small_transfers_favor_cxl_ldst() {
        let pts = run_fig6(1, Direction::H2d, true);
        for bytes in [64, 256, 1024] {
            let cxl = point(&pts, Mechanism::CxlLdSt, bytes);
            for mech in [
                Mechanism::PcieMmio,
                Mechanism::PcieDma,
                Mechanism::PcieRdma,
                Mechanism::PcieDocaDma,
            ] {
                assert!(
                    cxl < point(&pts, mech, bytes),
                    "{bytes}B: CXL-ST {cxl} not below {}",
                    mech.label()
                );
            }
        }
        // §V-D: CXL-ST ≥70% lower than PCIe-DMA at 256B.
        let cxl256 = point(&pts, Mechanism::CxlLdSt, 256);
        let dma256 = point(&pts, Mechanism::PcieDma, 256);
        assert!(
            cxl256 / dma256 < 0.45,
            "CXL-ST/PCIe-DMA at 256B = {}",
            cxl256 / dma256
        );
    }

    #[test]
    fn h2d_large_transfers_favor_dsa_over_ldst() {
        let pts = run_fig6(1, Direction::H2d, false);
        for bytes in [64 << 10, 1 << 20] {
            let dsa = point(&pts, Mechanism::CxlDsa, bytes);
            let ldst = point(&pts, Mechanism::CxlLdSt, bytes);
            assert!(dsa < ldst, "{bytes}B: DSA {dsa} vs LD {ldst}");
        }
        // Crossover: at 64B, ld/st wins.
        let dsa64 = point(&pts, Mechanism::CxlDsa, 64);
        let ld64 = point(&pts, Mechanism::CxlLdSt, 64);
        assert!(ld64 < dsa64);
    }

    #[test]
    fn d2h_cxl_ld_beats_rdma_about_3x() {
        let rd = run_fig6(1, Direction::D2h, false);
        for bytes in [64, 256, 1024, 4096] {
            let cxl = point(&rd, Mechanism::CxlLdSt, bytes);
            let rdma = point(&rd, Mechanism::PcieRdma, bytes);
            let ratio = rdma / cxl;
            assert!(ratio > 1.8, "{bytes}B: RDMA/CXL-LD ratio {ratio}");
        }
    }

    #[test]
    fn d2h_posted_dma_appears_fast() {
        let wr = run_fig6(1, Direction::D2h, true);
        let dma = point(&wr, Mechanism::PcieDma, 1 << 20);
        let rdma = point(&wr, Mechanism::PcieRdma, 1 << 20);
        // The posted-completion artifact: DMA "completes" before RDMA even
        // for a megabyte.
        assert!(dma < rdma);
    }

    #[test]
    fn mmio_reads_are_worst() {
        let rd = run_fig6(1, Direction::H2d, false);
        for bytes in [256, 4096] {
            let mmio = point(&rd, Mechanism::PcieMmio, bytes);
            for mech in [Mechanism::PcieDma, Mechanism::PcieRdma, Mechanism::CxlLdSt] {
                assert!(
                    mmio > point(&rd, mech, bytes),
                    "{bytes}: MMIO should be slowest"
                );
            }
        }
    }

    #[test]
    fn dsa_and_dma_saturate_near_30gbps() {
        let pts = run_fig6(1, Direction::H2d, true);
        let dsa = pts
            .iter()
            .find(|p| p.mechanism == Mechanism::CxlDsa && p.bytes == 1 << 20)
            .unwrap();
        let bw = bandwidth_gbps(dsa.bytes, Duration::from_ns_f64(dsa.latency_ns));
        assert!(bw > 25.0 && bw <= 30.5, "DSA bw {bw}");
    }
}
