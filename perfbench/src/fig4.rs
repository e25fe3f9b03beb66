//! `fig4-d2d`: the `cxl_bench::fig4` sweep — D2D latency and bandwidth in
//! host- and device-bias mode for four request types × DMC hit/miss,
//! plus the emulated host baseline.
//!
//! The program's entry point is `run_fig4_with_threads`; it has no
//! single-point function, so the benchmark's harness below re-runs each
//! point through `Lsu::single/concurrent_burst` and the device/socket
//! calls (spans on when tracing) and must reproduce the entry point's row
//! exactly. Per-point host times come from that harness with tracing off.

use cxl_bench::fig4::{fig4_requests, run_fig4_with_threads, Fig4Row};
use cxl_proto::request::RequestType;
use cxl_type2::addr::{device_line, host_line};
use cxl_type2::device::CxlDevice;
use cxl_type2::lsu::{BurstTarget, Lsu};
use host::socket::Socket;
use mem_subsys::coherence::MesiState;
use sim_core::rng::SimRng;
use sim_core::stats::Samples;
use sim_core::sweep;
use sim_core::time::Time;

use crate::span::{count, span, Layer};
use crate::{Shape, Workload};

/// Repetitions per bias mode (`BENCH_sweep.json`'s fig4 scenarios use 40).
const REPS: usize = 40;
/// Lines per LSU burst (`cxl_bench::fig4`'s `BURST`).
const BURST: usize = 16;

/// A Fig. 4 row, compared through `Debug` (the program's `Fig4Row` has no
/// `PartialEq`).
#[derive(Debug, Clone)]
pub struct Row(pub Fig4Row);

impl PartialEq for Row {
    fn eq(&self, other: &Self) -> bool {
        format!("{:?}", self.0) == format!("{:?}", other.0)
    }
}

pub struct Fig4 {
    seed: u64,
    points: Vec<(RequestType, bool)>,
}

impl Fig4 {
    /// The seed-invariant set-up: the point list, plus one warm-up serial
    /// sweep that interns the device counters and allocates the LSU's
    /// reusable burst engine on this thread.
    pub fn setup(seed: u64) -> Self {
        let points = fig4_requests()
            .into_iter()
            .flat_map(|req| [true, false].map(|dmc_hit| (req, dmc_hit)))
            .collect();
        std::hint::black_box(run_fig4_with_threads(1, REPS, seed));
        Fig4 { seed, points }
    }
}

impl Workload for Fig4 {
    type Out = Row;

    fn unit(&self) -> &'static str {
        "D2D transactions"
    }

    fn points(&self) -> usize {
        self.points.len()
    }

    fn point_seeds(&self) -> Vec<u64> {
        (0..self.points.len())
            .map(|i| sweep::point_seed(self.seed, i))
            .collect()
    }

    fn run_point(&self, i: usize, _fails: &mut Vec<String>) -> Row {
        self.harness_point(i, &mut Shape::default())
    }

    fn run_sweep(&self, threads: usize) -> Vec<Row> {
        run_fig4_with_threads(threads, REPS, self.seed)
            .into_iter()
            .map(Row)
            .collect()
    }

    fn run_serial_sweep(&self) -> Option<Vec<Row>> {
        Some(self.run_sweep(1))
    }

    fn harness_point(&self, i: usize, shape: &mut Shape) -> Row {
        let (req, dmc_hit) = self.points[i];
        let mut rng = SimRng::seed_from(sweep::point_seed(self.seed, i));
        let (hb_lat, hb_bw) = measure_bias(req, dmc_hit, false, &mut rng);
        let (db_lat, db_bw) = measure_bias(req, dmc_hit, true, &mut rng);
        let emu = measure_emulated(req, dmc_hit, &mut rng);
        shape.add("d2d_lines", (2 * REPS * (1 + BURST)) as u64);
        shape.add("emulated_host_ops", (REPS * (1 + dmc_hit as usize)) as u64);
        Row(Fig4Row {
            request: req.to_string(),
            dmc_hit,
            host_bias_latency_ns: hb_lat,
            device_bias_latency_ns: db_lat,
            host_bias_bw_gbps: hb_bw,
            device_bias_bw_gbps: db_bw,
            emulated_latency_ns: emu,
        })
    }

    fn units(&self, _i: usize, _out: &Row) -> u64 {
        // Per bias mode and rep: one single op plus one burst.
        (2 * REPS * (1 + BURST)) as u64
    }

    fn digest(&self, outs: &[Row]) -> Vec<String> {
        outs.iter()
            .map(|Row(r)| {
                format!(
                    "req={} dmc_hit={} hb_lat_ns={} db_lat_ns={} hb_bw_gbps={} db_bw_gbps={} emu_lat_ns={}",
                    r.request,
                    r.dmc_hit,
                    r.host_bias_latency_ns,
                    r.device_bias_latency_ns,
                    r.host_bias_bw_gbps,
                    r.device_bias_bw_gbps,
                    r.emulated_latency_ns
                )
            })
            .collect()
    }
}

/// `cxl_bench::fig4`'s host-/device-bias measurement of one point.
fn measure_bias(
    req: RequestType,
    dmc_hit: bool,
    device_bias: bool,
    rng: &mut SimRng,
) -> (f64, f64) {
    let mut host = span(Layer::HostSocket, Socket::xeon_6538y);
    let mut dev = span(Layer::Device, CxlDevice::agilex7);
    let lsu = Lsu::new();
    let mut lat = Samples::new();
    let mut bw = Samples::new();
    let mut t = Time::ZERO;
    let mut next: u64 = 1 << 16;
    let mut addrs = Vec::with_capacity(BURST);
    for _ in 0..REPS {
        addrs.clear();
        addrs.extend((0..BURST).map(|_| {
            next += 1 + rng.gen_range(4);
            device_line(next)
        }));
        if device_bias {
            for &a in &addrs {
                t = span(Layer::Device, || dev.enter_device_bias(a, 1, t, &mut host));
            }
            count(Layer::Device, 0, addrs.len() as u64);
        }
        if dmc_hit {
            span(Layer::Device, || {
                for &a in &addrs {
                    dev.stage_dmc(a, MesiState::Shared);
                }
            });
        } else {
            span(Layer::Device, || dev.flush_device_caches(t, &mut host));
        }
        let single = span(Layer::Lsu, || {
            lsu.single(
                &mut dev,
                &mut host,
                req,
                BurstTarget::DeviceMemory,
                addrs[0],
                t,
            )
        });
        lat.record(single.duration_since(t).as_nanos_f64());
        t = single;
        if dmc_hit {
            span(Layer::Device, || dev.stage_dmc(addrs[0], MesiState::Shared));
        }
        let mlp = dev.timing.dcoh_slice_outstanding;
        let burst = span(Layer::Lsu, || {
            lsu.concurrent_burst(
                &mut dev,
                &mut host,
                req,
                BurstTarget::DeviceMemory,
                &addrs,
                t,
                mlp,
            )
        });
        count(Layer::Lsu, 0, 1 + addrs.len() as u64);
        bw.record(burst.bandwidth_gbps(64));
        t = burst.last_completion;
    }
    (lat.median(), bw.median())
}

/// `cxl_bench::fig4`'s emulated baseline: the host against its own
/// hierarchy.
fn measure_emulated(req: RequestType, dmc_hit: bool, rng: &mut SimRng) -> f64 {
    let mut host = span(Layer::HostSocket, Socket::xeon_6538y);
    let mut lat = Samples::new();
    let mut t = Time::ZERO;
    let mut next: u64 = 1 << 18;
    for _ in 0..REPS {
        next += 1 + rng.gen_range(4);
        let a = host_line(next);
        let acc = span(Layer::HostSocket, || {
            if dmc_hit {
                t = host.load(a, t).completion;
            }
            match req.emulated_host_op() {
                "nt-ld" => host.nt_load(a, t),
                "ld" => host.load(a, t),
                "nt-st" => host.nt_store(a, t),
                _ => host.store(a, t),
            }
        });
        lat.record(acc.completion.duration_since(t).as_nanos_f64());
        t = acc.completion;
    }
    lat.median()
}
