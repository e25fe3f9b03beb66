//! Fig. 8 regeneration: normalized p99 tables for zswap and ksm across
//! the four backends and YCSB A–D, plus the §VII host-CPU-cycle numbers.

use std::fmt::Write;

use kvs::fig8::{run_ksm, run_zswap, BackendKind, Fig8Config};
use kvs::ycsb::YcsbWorkload;
use sim_core::sweep;

/// One cell of Fig. 8.
#[derive(Debug, Clone)]
pub(crate) struct Fig8Cell {
    /// The YCSB workload.
    pub(crate) workload: YcsbWorkload,
    /// The backend series.
    pub(crate) backend: BackendKind,
    /// p99 latency normalized to the no-feature baseline.
    pub(crate) normalized_p99: f64,
    /// Feature host-CPU fraction (the §VII cycles analysis).
    pub host_cpu_fraction: f64,
}

/// Which kernel feature the experiment exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Feature {
    /// Compressed swap cache.
    Zswap,
    /// Samepage merging.
    Ksm,
}

/// Runs Fig. 8 for one feature across all workloads and backends on a
/// `threads`-worker pool. Every (workload,
/// backend) cell is an independent simulation seeded from `cfg`, so the
/// 20-cell fan-out is deterministic at any thread count; normalization
/// against each workload's no-feature baseline happens after the pool
/// joins.
pub(crate) fn run_fig8_with_threads(
    threads: usize,
    cfg: &Fig8Config,
    feature: Feature,
) -> Vec<Fig8Cell> {
    let points: Vec<(YcsbWorkload, BackendKind)> = YcsbWorkload::ALL
        .into_iter()
        .flat_map(|w| BackendKind::ALL.map(|b| (w, b)))
        .collect();
    let reports = sweep::run_with_threads(threads, points.len(), |i| {
        let (workload, kind) = points[i];
        match feature {
            Feature::Zswap => run_zswap(cfg, workload, kind),
            Feature::Ksm => run_ksm(cfg, workload, kind),
        }
    });
    points
        .iter()
        .zip(&reports)
        .map(|(&(workload, backend), r)| {
            let base_p99 = points
                .iter()
                .zip(&reports)
                .find(|(&(w, b), _)| w == workload && b == BackendKind::None)
                .expect("baseline cell exists")
                .1
                .p99
                .as_micros_f64();
            Fig8Cell {
                workload,
                backend,
                normalized_p99: r.p99.as_micros_f64() / base_p99,
                host_cpu_fraction: r.host_cpu_fraction,
            }
        })
        .collect()
}

/// Renders the normalized-p99 table for one feature.
pub(crate) fn render_fig8(cells: &[Fig8Cell], feature: Feature) -> String {
    let mut s = String::new();
    let name = match feature {
        Feature::Zswap => "zswap",
        Feature::Ksm => "ksm",
    };
    writeln!(
        s,
        "Fig. 8 — p99 latency of Redis + YCSB, normalized to no-{name}"
    )
    .unwrap();
    write!(s, "{:<12}", "backend").unwrap();
    for w in YcsbWorkload::ALL {
        write!(s, "{:>10}", w.name()).unwrap();
    }
    writeln!(s, "{:>12}", "cpu-frac").unwrap();
    for backend in BackendKind::ALL {
        write!(s, "{:<12}", format!("{}-{name}", backend.name())).unwrap();
        let mut frac = 0.0;
        for w in YcsbWorkload::ALL {
            let c = cells
                .iter()
                .find(|c| c.workload == w && c.backend == backend)
                .expect("cell exists");
            write!(s, "{:>9.2}x", c.normalized_p99).unwrap();
            frac = c.host_cpu_fraction.max(frac);
        }
        writeln!(s, "{:>11.1}%", frac * 100.0).unwrap();
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::time::Duration;

    #[test]
    fn fig8_zswap_ordering() {
        let mut cfg = Fig8Config::smoke();
        cfg.duration = Duration::from_millis(60);
        let cells = run_fig8_with_threads(1, &cfg, Feature::Zswap);
        assert_eq!(cells.len(), 20);
        for w in YcsbWorkload::ALL {
            let get = |b: BackendKind| {
                cells
                    .iter()
                    .find(|c| c.workload == w && c.backend == b)
                    .unwrap()
                    .normalized_p99
            };
            assert!((get(BackendKind::None) - 1.0).abs() < 1e-9);
            let cpu = get(BackendKind::Cpu);
            let cxl = get(BackendKind::Cxl);
            assert!(cpu > 2.0, "workload {}: cpu-zswap {cpu}x", w.name());
            assert!(cxl < cpu, "workload {}: cxl {cxl} < cpu {cpu}", w.name());
        }
    }
}
