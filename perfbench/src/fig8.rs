//! `fig8-zswap` and `fig8-ksm`: the Fig. 8 seed fan-out on the CXL
//! offload backend, smoke-sized cells.
//!
//! The program's entry points are `run_{zswap,ksm}_with_dataset` (one
//! seed) and `run_{zswap,ksm}_seeds_with_threads` (the fan-out). The
//! benchmark's harness below re-runs each seed from the layers' public
//! functions — `MemoryZone`, `Zswap` over a timing shim around
//! `CxlBackend`, `Ksm`, `run_core` — with a span around every call, and
//! must reproduce the entry point's report exactly.

use std::collections::VecDeque;
use std::sync::Arc;

use accel::compare::{compare_pages, PageCompare};
use accel::ip::Engine;
use accel::lz::CompressedPage;
use accel::xxhash::page_checksum;
use host::socket::Socket;
use kernel::ksm::{Ksm, KsmPageId};
use kernel::offload::{CxlBackend, OffloadBackend, OffloadOutcome};
use kernel::page::{PageData, PageMix, PAGE_SIZE};
use kernel::reclaim::{MemoryZone, ReclaimPath, Watermarks};
use kernel::zswap::{SwapKey, Zswap, ZswapConfig};
use kvs::fig8::{
    run_ksm_seeds_with_threads, run_ksm_with_dataset, run_zswap_seeds_with_threads,
    run_zswap_with_dataset, BackendKind, Fig8Config, Fig8Dataset, TailReport,
};
use kvs::server::{merge_jobs, run_core, Job};
use kvs::ycsb::{Op, YcsbWorkload};
use sim_core::rng::SimRng;
use sim_core::stats::Histogram;
use sim_core::sweep;
use sim_core::time::{Duration, Time};
use tinybench::hist::TailSummary;

use crate::span::{count, span, span_with_replay, Layer};
use crate::{Shape, Workload};

/// Which Fig. 8 experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Feature {
    Zswap,
    Ksm,
}

/// Seeds per fan-out (`BENCH_sweep.json`'s fig8 scenarios use 8).
const SEEDS: usize = 8;

/// The fan-out's cell: `Fig8Config::smoke()` at 30 ms of simulated time
/// for zswap, half the committed fig8 bench scenarios' 60 ms, so that a
/// run repeats each seed often enough to take a steady best time on a
/// shared host. A ksm cell costs twice a zswap cell of the same length,
/// so ksm cells are 15 ms.
fn cell_config(feature: Feature, seed: u64) -> Fig8Config {
    let mut cfg = Fig8Config::smoke();
    cfg.duration = Duration::from_millis(match feature {
        Feature::Zswap => 30,
        Feature::Ksm => 15,
    });
    cfg.seed = seed;
    cfg
}

/// The benchmark's copy of the shared page tables. `Fig8Dataset` keeps
/// its pages private, so the harness regenerates them from the same RNG
/// stream in the same order.
struct Pages {
    redis: Vec<PageData>,
    vm: Vec<PageData>,
}

impl Pages {
    fn build(cfg: &Fig8Config) -> Self {
        let mut rng = SimRng::seed_from(cfg.seed ^ 0x00DA_7A5E_7000);
        let mix = PageMix::datacenter();
        let redis = (0..cfg.servers as u64 * cfg.keys_per_server)
            .map(|_| mix.sample(&mut rng).generate(&mut rng))
            .collect();
        let vm_mix = PageMix::vm_guest();
        let vm = (0..cfg.vm_count * cfg.pages_per_vm)
            .map(|_| vm_mix.sample(&mut rng).generate(&mut rng))
            .collect();
        Pages { redis, vm }
    }
}

pub struct Fig8 {
    feature: Feature,
    ycsb: YcsbWorkload,
    cfg: Fig8Config,
    dataset: Arc<Fig8Dataset>,
    pages: Option<Pages>,
}

impl Fig8 {
    /// The seed-invariant set-up: the config and the shared dataset,
    /// plus one no-feature cell that warms the KVS path.
    pub fn setup(feature: Feature, seed: u64) -> Self {
        let ycsb = match feature {
            Feature::Zswap => YcsbWorkload::B,
            Feature::Ksm => YcsbWorkload::A,
        };
        let cfg = cell_config(feature, seed);
        let dataset = Arc::new(Fig8Dataset::build(&cfg));
        std::hint::black_box(run_zswap_with_dataset(
            &cfg,
            ycsb,
            BackendKind::None,
            &dataset,
        ));
        Fig8 {
            feature,
            ycsb,
            cfg,
            dataset,
            pages: None,
        }
    }

    fn point_cfg(&self, i: usize) -> Fig8Config {
        let mut cfg = self.cfg.clone();
        cfg.seed = sweep::point_seed(self.cfg.seed, i);
        cfg
    }
}

/// A Fig. 8 cell report, compared field by field through `Debug` (the
/// program's `TailReport` has no `PartialEq`).
#[derive(Debug, Clone)]
pub struct Cell(pub TailReport);

impl PartialEq for Cell {
    fn eq(&self, other: &Self) -> bool {
        format!("{:?}", self.0) == format!("{:?}", other.0)
    }
}

impl Workload for Fig8 {
    type Out = Cell;

    fn unit(&self) -> &'static str {
        "KVS requests"
    }

    fn points(&self) -> usize {
        SEEDS
    }

    fn point_seeds(&self) -> Vec<u64> {
        (0..SEEDS).map(|i| self.point_cfg(i).seed).collect()
    }

    fn run_point(&self, i: usize, _fails: &mut Vec<String>) -> Cell {
        let cfg = self.point_cfg(i);
        Cell(match self.feature {
            Feature::Zswap => {
                run_zswap_with_dataset(&cfg, self.ycsb, BackendKind::Cxl, &self.dataset)
            }
            Feature::Ksm => run_ksm_with_dataset(&cfg, self.ycsb, BackendKind::Cxl, &self.dataset),
        })
    }

    fn run_sweep(&self, threads: usize) -> Vec<Cell> {
        let run = match self.feature {
            Feature::Zswap => run_zswap_seeds_with_threads,
            Feature::Ksm => run_ksm_seeds_with_threads,
        };
        run(threads, &self.cfg, self.ycsb, BackendKind::Cxl, SEEDS)
            .into_iter()
            .map(Cell)
            .collect()
    }

    fn prepare_harness(&mut self) {
        if self.pages.is_none() {
            self.pages = Some(Pages::build(&self.cfg));
        }
    }

    fn harness_point(&self, i: usize, shape: &mut Shape) -> Cell {
        let pages = self.pages.as_ref().expect("prepare_harness ran");
        let cfg = self.point_cfg(i);
        Cell(match self.feature {
            Feature::Zswap => drive_zswap(&cfg, self.ycsb, pages, shape),
            Feature::Ksm => drive_ksm(&cfg, self.ycsb, pages, shape),
        })
    }

    fn units(&self, _i: usize, out: &Cell) -> u64 {
        out.0.requests
    }

    fn digest(&self, outs: &[Cell]) -> Vec<String> {
        // Normalized p99 per cell: the CXL cell over the no-feature
        // baseline of the same seed, as Fig. 8 plots it.
        (0..outs.len())
            .map(|i| {
                let cfg = self.point_cfg(i);
                let base =
                    run_zswap_with_dataset(&cfg, self.ycsb, BackendKind::None, &self.dataset);
                let r = &outs[i].0;
                format!(
                    "seed={} p99_us={} norm_p99={} host_cpu_frac={}",
                    cfg.seed,
                    r.p99.as_micros_f64(),
                    r.p99.as_micros_f64() / base.p99.as_micros_f64(),
                    r.host_cpu_fraction
                )
            })
            .collect()
    }
}

// ---------------------------------------------------------------------
// The timing shim: an `OffloadBackend` around `CxlBackend` that spans
// every call and replays the accelerator function on the same input.
// ---------------------------------------------------------------------

struct TimedCxl(CxlBackend);

impl OffloadBackend for TimedCxl {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn engine(&self) -> Engine {
        self.0.engine()
    }

    fn zpool_in_device_memory(&self) -> bool {
        self.0.zpool_in_device_memory()
    }

    fn compress(
        &mut self,
        page: &[u8],
        now: Time,
        host: &mut Socket,
    ) -> OffloadOutcome<CompressedPage> {
        count(Layer::OffloadCxl, 0, page.len() as u64);
        count(Layer::Accel, 0, page.len() as u64);
        span_with_replay(
            Layer::OffloadCxl,
            || self.0.compress(page, now, host),
            || {
                std::hint::black_box(CompressedPage::from_page(page));
            },
        )
    }

    fn decompress(
        &mut self,
        cp: &CompressedPage,
        now: Time,
        host: &mut Socket,
    ) -> OffloadOutcome<Vec<u8>> {
        count(Layer::OffloadCxl, 0, cp.compressed_len() as u64);
        count(Layer::Accel, 0, cp.compressed_len() as u64);
        span_with_replay(
            Layer::OffloadCxl,
            || self.0.decompress(cp, now, host),
            || {
                std::hint::black_box(cp.decompress().ok());
            },
        )
    }

    fn checksum(&mut self, page: &[u8], now: Time, host: &mut Socket) -> OffloadOutcome<u32> {
        count(Layer::OffloadCxl, 0, page.len() as u64);
        count(Layer::Accel, 0, page.len() as u64);
        span_with_replay(
            Layer::OffloadCxl,
            || self.0.checksum(page, now, host),
            || {
                std::hint::black_box(page_checksum(page));
            },
        )
    }

    fn compare(
        &mut self,
        a: &[u8],
        b: &[u8],
        now: Time,
        host: &mut Socket,
    ) -> OffloadOutcome<PageCompare> {
        let out = span_with_replay(
            Layer::OffloadCxl,
            || self.0.compare(a, b, now, host),
            || {
                std::hint::black_box(compare_pages(a, b));
            },
        );
        let bytes = 2 * out.value.bytes_examined(a.len()) as u64;
        count(Layer::OffloadCxl, 0, bytes);
        count(Layer::Accel, 0, bytes);
        out
    }
}

// ---------------------------------------------------------------------
// The harness: `kvs::fig8`'s cell loop for the CXL backend, rebuilt from
// public functions with a span around each call into a layer.
// ---------------------------------------------------------------------

const ANTAGONIST_BASE: u64 = 1 << 32;
const INSERT_BASE: u64 = 1 << 30;
/// `BackendKind::Cxl`'s LLC-pollution service inflation.
const CXL_LLC_POLLUTION: f64 = 0.06;

struct Request {
    arrival: Time,
    server: usize,
    op: Op,
    key: u64,
}

fn generate_requests(cfg: &Fig8Config, ycsb: YcsbWorkload, rng: &mut SimRng) -> Vec<Request> {
    let mut events = Vec::new();
    for server in 0..cfg.servers {
        let mut t = Time::ZERO;
        let mut next_insert = cfg.keys_per_server;
        loop {
            t += cfg.mean_interarrival.mul_f64(rng.gen_exp());
            if t.duration_since(Time::ZERO) > cfg.duration {
                break;
            }
            let op = ycsb.sample_op(rng);
            let key = ycsb.sample_key_with(
                op,
                cfg.keys_per_server,
                next_insert,
                cfg.key_distribution,
                rng,
            );
            if op == Op::Insert {
                next_insert += 1;
            }
            events.push(Request {
                arrival: t,
                server,
                op,
                key,
            });
        }
    }
    events.sort_by_key(|e| e.arrival);
    events
}

fn service_for(op: Op, base: Duration) -> Duration {
    match op {
        Op::Read => base,
        Op::Update | Op::Insert => base + base / 6,
    }
}

fn redis_key(server: usize, key: u64, keys_per_server: u64) -> SwapKey {
    if key >= keys_per_server {
        return SwapKey(INSERT_BASE + ((server as u64) << 24) + key);
    }
    SwapKey(server as u64 * keys_per_server + key)
}

fn generate_page(mix: &PageMix, rng: &mut SimRng) -> PageData {
    span(Layer::PageGenerate, || mix.sample(rng).generate(rng))
}

/// Runs each server core's job list and reduces the tails.
fn finish(cfg: &Fig8Config, jobs: Vec<Vec<Job>>, feature_cpu: Duration, faults: u64) -> TailReport {
    let hists: Vec<Histogram> = jobs
        .into_iter()
        .map(|j| {
            count(Layer::RunCore, 0, j.len() as u64);
            span(Layer::RunCore, || run_core(&merge_jobs(vec![j])).0)
        })
        .collect();
    let tail = TailSummary::of_merged(hists.iter().map(Histogram::raw));
    let core_time = cfg.duration.mul_f64(cfg.total_cores as f64);
    TailReport {
        p99: Duration::from_picos(tail.p99),
        p50: Duration::from_picos(tail.p50),
        mean: Duration::from_picos(tail.mean),
        requests: tail.count,
        feature_host_cpu: feature_cpu,
        host_cpu_fraction: feature_cpu.as_nanos_f64() / core_time.as_nanos_f64(),
        faults,
    }
}

type CxlZswap = Zswap<TimedCxl>;

fn drive_zswap(
    cfg: &Fig8Config,
    ycsb: YcsbWorkload,
    pages: &Pages,
    shape: &mut Shape,
) -> TailReport {
    let mut rng = SimRng::seed_from(cfg.seed ^ 0x5A5A);
    let requests = generate_requests(cfg, ycsb, &mut rng);
    let mut host = span(Layer::HostSocket, Socket::xeon_6538y_snc_half);
    let backend = span(Layer::OffloadCxl, CxlBackend::agilex7);
    let mut zswap: CxlZswap = Zswap::new(
        ZswapConfig::kernel_default(cfg.zone_pages * PAGE_SIZE as u64),
        TimedCxl(backend),
    );
    let mut zone = MemoryZone::new(cfg.zone_pages, Watermarks::for_zone(cfg.zone_pages));
    let mix = PageMix::datacenter();
    let mut reclaimed = 0u64;

    for server in 0..cfg.servers {
        for key in 0..cfg.keys_per_server {
            let page = pages.redis[server * cfg.keys_per_server as usize + key as usize].clone();
            let k = redis_key(server, key, cfg.keys_per_server);
            let o = span(Layer::Reclaim, || {
                zone.allocate(k, page, Time::ZERO, &mut zswap, &mut host)
            });
            reclaimed += o.reclaimed;
            span(Layer::Reclaim, || zone.touch(k));
        }
    }

    let mut jobs: Vec<Vec<Job>> = vec![Vec::new(); cfg.servers];
    let mut feature_cpu = Duration::ZERO;
    let mut faults = 0u64;
    let kernel_share = 1.2 / cfg.total_cores as f64;
    let mut pending_slice = Duration::ZERO;
    let flush_period = cfg.antagonist_period;
    let mut next_flush = Time::ZERO + flush_period;
    let mut next_burst = Time::ZERO + cfg.antagonist_period;
    let mut burst_id = 0u64;
    let mut live: VecDeque<u64> = VecDeque::new();
    let mut pollution_until = Time::ZERO;
    let mut req_iter = requests.into_iter().peekable();

    loop {
        let next_req_at = req_iter.peek().map(|r| r.arrival);
        let burst_due = next_burst.duration_since(Time::ZERO) <= cfg.duration;
        let take_burst = match (next_req_at, burst_due) {
            (None, false) => break,
            (Some(at), true) => next_burst < at,
            (None, true) => true,
            (Some(_), false) => false,
        };
        if take_burst {
            let at = next_burst;
            let mut burst_cpu = Duration::ZERO;
            let id = burst_id;
            burst_id += 1;
            for i in 0..cfg.antagonist_burst {
                let key = SwapKey(ANTAGONIST_BASE + id * cfg.antagonist_burst + i);
                let page = generate_page(&mix, &mut rng);
                let o = span(Layer::Reclaim, || {
                    zone.allocate(key, page, at, &mut zswap, &mut host)
                });
                reclaimed += o.reclaimed;
                burst_cpu += o.host_cpu;
            }
            live.push_back(id);
            if live.len() > cfg.antagonist_live_bursts {
                let old = live.pop_front().expect("non-empty");
                span(Layer::Reclaim, || {
                    for i in 0..cfg.antagonist_burst {
                        let key = SwapKey(ANTAGONIST_BASE + old * cfg.antagonist_burst + i);
                        zone.free(key);
                        zswap.invalidate(key);
                    }
                });
            }
            if zone.below_low() {
                let o = span(Layer::Reclaim, || {
                    zone.reclaim(ReclaimPath::Background, 0, at, &mut zswap, &mut host)
                });
                reclaimed += o.reclaimed;
                burst_cpu += o.host_cpu;
            }
            if !burst_cpu.is_zero() {
                pollution_until = at + cfg.pollution_window;
            }
            feature_cpu += burst_cpu;
            pending_slice += burst_cpu.mul_f64(kernel_share);
            if at >= next_flush {
                if !pending_slice.is_zero() {
                    for server_jobs in jobs.iter_mut() {
                        server_jobs.push(Job {
                            arrival: at,
                            service: pending_slice,
                            is_request: false,
                        });
                    }
                    pending_slice = Duration::ZERO;
                }
                next_flush = at + flush_period;
            }
            next_burst += cfg.antagonist_period;
            continue;
        }
        let r = req_iter.next().expect("peeked");
        let key = redis_key(r.server, r.key, cfg.keys_per_server);
        let mut service = service_for(r.op, cfg.base_service);
        if r.arrival < pollution_until {
            service = service.mul_f64(1.0 + CXL_LLC_POLLUTION);
        }
        if !zone.is_resident(key) {
            let fault = span(Layer::Reclaim, || {
                zone.fault_in(key, r.arrival, &mut zswap, &mut host)
            });
            if let Some((_, done, cpu)) = fault {
                faults += 1;
                service += done.duration_since(r.arrival);
                feature_cpu += cpu;
            } else {
                let page = generate_page(&mix, &mut rng);
                let o = span(Layer::Reclaim, || {
                    zone.allocate(key, page, r.arrival, &mut zswap, &mut host)
                });
                reclaimed += o.reclaimed;
                if o.reclaimed > 0 {
                    service += o.completion.duration_since(r.arrival);
                    feature_cpu += o.host_cpu;
                }
            }
        } else {
            span(Layer::Reclaim, || zone.touch(key));
        }
        jobs[r.server].push(Job {
            arrival: r.arrival,
            service,
            is_request: true,
        });
    }

    count(Layer::Reclaim, 0, reclaimed);
    count(Layer::Reclaim, 1, faults);
    let report = finish(cfg, jobs, feature_cpu, faults);
    shape.add("requests", report.requests);
    shape.add("swap_outs", reclaimed);
    shape.add("swap_ins", faults);
    shape.add("zswap_stored", zswap.stats().stored);
    shape.add("zswap_rejected", zswap.stats().rejected_incompressible);
    shape.add("zswap_writebacks", zswap.stats().writebacks);
    report
}

fn drive_ksm(cfg: &Fig8Config, ycsb: YcsbWorkload, pages: &Pages, shape: &mut Shape) -> TailReport {
    let mut rng = SimRng::seed_from(cfg.seed ^ 0x006B_736D);
    let requests = generate_requests(cfg, ycsb, &mut rng);
    let mut host = span(Layer::HostSocket, Socket::xeon_6538y_snc_half);
    let mut ksm = Ksm::new(TimedCxl(span(Layer::OffloadCxl, CxlBackend::agilex7)));
    let mix = PageMix::vm_guest();

    let mut vm_pages: Vec<Vec<KsmPageId>> = Vec::with_capacity(cfg.vm_count);
    for vm in 0..cfg.vm_count {
        let ids = (0..cfg.pages_per_vm)
            .map(|slot| {
                let page = pages.vm[vm * cfg.pages_per_vm + slot].clone();
                span(Layer::Ksm, || ksm.register(page))
            })
            .collect();
        vm_pages.push(ids);
    }
    let all_ids: Vec<KsmPageId> = vm_pages.iter().flatten().copied().collect();

    let mut jobs: Vec<Vec<Job>> = vec![Vec::new(); cfg.servers];
    let mut feature_cpu = Duration::ZERO;
    let mut t = Time::ZERO;
    let mut core = 0usize;
    let mut cursor = 0usize;
    while t.duration_since(Time::ZERO) < cfg.duration {
        if cursor == 0 {
            for ids in &vm_pages {
                for _ in 0..cfg.ksm_churn_per_cycle {
                    let id = ids[rng.gen_index(ids.len())];
                    let page = generate_page(&mix, &mut rng);
                    span(Layer::Ksm, || ksm.write_page(id, page));
                }
            }
        }
        let end = (cursor + cfg.ksm_batch).min(all_ids.len());
        let mut batch_cpu = Duration::ZERO;
        let mut batch_end = t;
        for &id in &all_ids[cursor..end] {
            let op = span(Layer::Ksm, || ksm.scan_page(id, batch_end, &mut host));
            batch_end = op.completion;
            batch_cpu += op.host_cpu;
        }
        feature_cpu += batch_cpu;
        let batch_wall = batch_end.saturating_duration_since(t).max(batch_cpu);
        if core < cfg.servers && !batch_cpu.is_zero() {
            // Offloaded ksm: host cost arrives as dispatch/poll slivers
            // spread across the batch's wall time.
            let sliver = Duration::from_nanos(1_500);
            let n = (batch_cpu.as_nanos_f64() / sliver.as_nanos_f64())
                .ceil()
                .max(1.0) as u64;
            let spacing = batch_wall / n;
            let per = batch_cpu / n;
            for j in 0..n {
                jobs[core].push(Job {
                    arrival: t + spacing.mul_f64(j as f64),
                    service: per,
                    is_request: false,
                });
            }
        }
        t = batch_end.max(t + batch_cpu);
        core = (core + 1) % cfg.total_cores;
        cursor = if end >= all_ids.len() { 0 } else { end };
    }

    let cow_cost = Duration::from_nanos(2_500);
    let mut request_cow = 0u64;
    for r in requests {
        let mut service = service_for(r.op, cfg.base_service);
        service = service.mul_f64(1.0 + CXL_LLC_POLLUTION / 2.0);
        if r.op == Op::Update {
            let ids = &vm_pages[r.server];
            let id = ids[(r.key as usize) % ids.len()];
            if ksm.is_merged(id) {
                let page = generate_page(&mix, &mut rng);
                span(Layer::Ksm, || ksm.write_page(id, page));
                request_cow += 1;
                service += cow_cost;
            }
        }
        jobs[r.server].push(Job {
            arrival: r.arrival,
            service,
            is_request: true,
        });
    }

    let stats = ksm.stats();
    count(Layer::Ksm, 0, stats.pages_merged);
    count(Layer::Ksm, 1, stats.cow_breaks);
    let report = finish(cfg, jobs, feature_cpu, 0);
    shape.add("requests", report.requests);
    shape.add("ksm_scanned", stats.pages_scanned);
    shape.add("ksm_merges", stats.pages_merged);
    shape.add("ksm_cow_breaks", stats.cow_breaks);
    shape.add("request_cow_breaks", request_cow);
    shape.add("ksm_comparisons", stats.comparisons);
    report
}
