//! The Fig. 8 end-to-end experiment: Redis p99 latency under
//! zswap/ksm interference, for each offload backend.
//!
//! Methodology mirrors §VII: half a socket (16 cores via sub-NUMA
//! clustering), Redis servers pinned to cores, YCSB A–D with uniform keys,
//! and either (a) an antagonist that allocates/frees memory periodically,
//! driving kswapd+zswap, or (b) 16 VMs whose pages ksmd continuously
//! scans. Kernel work that lands on a Redis core delays the requests
//! queued there; page faults on swapped-out keys stall the faulting
//! request for the swap-in latency; the compression/scan engines pollute
//! the LLC, inflating service times during activity windows.

use std::sync::Arc;

use host::socket::Socket;
use kernel::offload::{CpuBackend, CxlBackend, OffloadBackend, PcieDmaBackend, PcieRdmaBackend};
use kernel::page::{PageData, PageMix, PAGE_SIZE};
use kernel::reclaim::{MemoryZone, ReclaimPath, Watermarks};
use kernel::zswap::{SwapKey, Zswap, ZswapConfig};
use sim_core::rng::SimRng;
use sim_core::stats::Histogram;
use sim_core::sweep;
use sim_core::time::{Duration, Time};
use sim_core::trace::{self, CounterRegistry, CounterSlot, KvsStep, TraceEvent};
use tinybench::hist::TailSummary;

/// Interned slots for the per-request KVS counters (bumped inside the
/// request loop — the hot part of each Fig. 8 cell).
static KVS_REQUESTS: CounterSlot = CounterSlot::new("kvs.requests");
static KVS_FAULTS: CounterSlot = CounterSlot::new("kvs.faults");
static KVS_INSERTS: CounterSlot = CounterSlot::new("kvs.inserts");
static KVS_COW_BREAKS: CounterSlot = CounterSlot::new("kvs.cow_breaks");

use crate::server::{merge_jobs, run_core, Job};
use crate::ycsb::{KeyDistribution, Op, YcsbWorkload};

/// Which feature implementation runs (the Fig. 8 series).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// No memory-optimization feature at all (`no-*`, the normalization
    /// baseline).
    None,
    /// Host-CPU feature (`cpu-*`).
    Cpu,
    /// STYX-style BF-3 offload (`pcie-rdma-*`).
    PcieRdma,
    /// Agilex-7 DMA offload (`pcie-dma-*`).
    PcieDma,
    /// The paper's CXL Type-2 offload (`cxl-*`).
    Cxl,
}

impl BackendKind {
    /// The comparison series of Fig. 8, baseline first.
    pub const ALL: [BackendKind; 5] = [
        BackendKind::None,
        BackendKind::Cpu,
        BackendKind::PcieRdma,
        BackendKind::PcieDma,
        BackendKind::Cxl,
    ];

    /// Display name matching the paper's series labels.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::None => "no",
            BackendKind::Cpu => "cpu",
            BackendKind::PcieRdma => "pcie-rdma",
            BackendKind::PcieDma => "pcie-dma",
            BackendKind::Cxl => "cxl",
        }
    }

    fn build(self) -> Option<Box<dyn OffloadBackend>> {
        match self {
            BackendKind::None => None,
            BackendKind::Cpu => Some(Box::new(CpuBackend::new())),
            BackendKind::PcieRdma => Some(Box::new(PcieRdmaBackend::bf3())),
            BackendKind::PcieDma => Some(Box::new(PcieDmaBackend::agilex7())),
            BackendKind::Cxl => Some(Box::new(CxlBackend::agilex7())),
        }
    }

    /// Service-time inflation while the feature's data plane is hot in the
    /// LLC (host-CPU compression walks pages through the cache; offloaded
    /// variants only touch it through DDIO/NC-P).
    fn llc_pollution(self) -> f64 {
        match self {
            BackendKind::None => 0.0,
            BackendKind::Cpu => 0.22,
            BackendKind::PcieRdma | BackendKind::PcieDma | BackendKind::Cxl => 0.06,
        }
    }
}

/// Configuration of the Fig. 8 harness.
#[derive(Debug, Clone)]
pub struct Fig8Config {
    /// RNG seed.
    pub seed: u64,
    /// Virtual experiment duration.
    pub duration: Duration,
    /// Mean request inter-arrival per server (exponential).
    pub mean_interarrival: Duration,
    /// Base service time of a GET.
    pub base_service: Duration,
    /// Number of Redis server cores.
    pub servers: usize,
    /// Total cores kernel work spreads over (the SNC half-socket).
    pub total_cores: usize,
    /// Keys per server (each key pins one page).
    pub keys_per_server: u64,
    /// Zone size in pages (zswap experiment).
    pub zone_pages: u64,
    /// Antagonist burst cadence.
    pub antagonist_period: Duration,
    /// Pages allocated per antagonist burst.
    pub antagonist_burst: u64,
    /// Bursts kept live before being freed.
    pub antagonist_live_bursts: usize,
    /// LLC-pollution window after a kernel activity burst.
    pub pollution_window: Duration,
    /// Candidate pages per VM (ksm experiment).
    pub pages_per_vm: usize,
    /// VMs (ksm experiment).
    pub vm_count: usize,
    /// Pages per ksmd scan batch.
    pub ksm_batch: usize,
    /// Pages rewritten (churned) per VM between scan cycles.
    pub ksm_churn_per_cycle: usize,
    /// How often the scheduler lands the accumulated kernel work on a
    /// Redis core as one contiguous slice (kswapd runs in stretches).
    pub interference_period: Duration,
    /// Key-popularity distribution (the paper uses Uniform).
    pub key_distribution: KeyDistribution,
}

impl Default for Fig8Config {
    fn default() -> Self {
        Fig8Config {
            seed: 42,
            duration: Duration::from_millis(1_000),
            mean_interarrival: Duration::from_micros(60),
            base_service: Duration::from_micros(12),
            servers: 2,
            total_cores: 16,
            keys_per_server: 4_000,
            zone_pages: 15_360,
            antagonist_period: Duration::from_micros(1_000),
            antagonist_burst: 768,
            antagonist_live_bursts: 9,
            pollution_window: Duration::from_micros(1_500),
            pages_per_vm: 256,
            vm_count: 16,
            ksm_batch: 256,
            ksm_churn_per_cycle: 8,
            interference_period: Duration::from_micros(6_000),
            key_distribution: KeyDistribution::Uniform,
        }
    }
}

/// A quick configuration for tests (shorter run, smaller footprint).
impl Fig8Config {
    /// A reduced-scale configuration for unit/integration tests.
    pub fn smoke() -> Self {
        Fig8Config {
            duration: Duration::from_millis(120),
            keys_per_server: 1_000,
            zone_pages: 3_172,
            antagonist_burst: 256,
            antagonist_live_bursts: 4,
            pages_per_vm: 96,
            ..Fig8Config::default()
        }
    }
}

/// The no-feature baseline: pure request queueing, no antagonist, no
/// kernel work.
fn baseline_report(cfg: &Fig8Config, requests: &[RequestEvent]) -> TailReport {
    let mut jobs: Vec<Vec<Job>> = vec![Vec::new(); cfg.servers];
    for r in requests {
        trace::emit(
            r.arrival,
            TraceEvent::Kvs {
                step: KvsStep::Arrival,
                server: r.server as u32,
                key: r.key,
            },
        );
        jobs[r.server].push(Job {
            arrival: r.arrival,
            service: service_for(r.op, cfg.base_service),
            is_request: true,
        });
        trace::emit(
            r.arrival,
            TraceEvent::Kvs {
                step: KvsStep::Enqueued,
                server: r.server as u32,
                key: r.key,
            },
        );
    }
    let hists: Vec<Histogram> = jobs.iter().map(|j| run_core(j).0).collect();
    percentile_report(&hists, Duration::ZERO, cfg, 0)
}

/// Result of one Fig. 8 cell (one workload × one backend).
#[derive(Debug, Clone)]
pub struct TailReport {
    /// p99 request latency.
    pub p99: Duration,
    /// Median request latency.
    pub p50: Duration,
    /// Mean request latency.
    pub mean: Duration,
    /// Number of requests sampled.
    pub requests: u64,
    /// Total host CPU consumed by the kernel feature.
    pub feature_host_cpu: Duration,
    /// Feature host CPU as a fraction of total core-time.
    pub host_cpu_fraction: f64,
    /// Page faults taken by requests (zswap experiment).
    pub faults: u64,
}

fn redis_key(server: usize, key: u64, keys_per_server: u64) -> SwapKey {
    if key >= keys_per_server {
        // An inserted key: its own namespace so the dataset genuinely
        // grows (workload D).
        return SwapKey(INSERT_BASE + ((server as u64) << 24) + key);
    }
    SwapKey(server as u64 * keys_per_server + key)
}

const ANTAGONIST_BASE: u64 = 1 << 32;
const INSERT_BASE: u64 = 1 << 30;

struct RequestEvent {
    arrival: Time,
    server: usize,
    op: Op,
    key: u64,
}

/// Generates the merged, time-sorted request stream for all servers.
fn generate_requests(
    cfg: &Fig8Config,
    workload: YcsbWorkload,
    rng: &mut SimRng,
) -> Vec<RequestEvent> {
    let mut events = Vec::new();
    for server in 0..cfg.servers {
        let mut t = Time::ZERO;
        let mut next_insert = cfg.keys_per_server;
        loop {
            let gap = cfg.mean_interarrival.mul_f64(rng.gen_exp());
            t += gap;
            if t.duration_since(Time::ZERO) > cfg.duration {
                break;
            }
            let op = workload.sample_op(rng);
            let key = workload.sample_key_with(
                op,
                cfg.keys_per_server,
                next_insert,
                cfg.key_distribution,
                rng,
            );
            if op == Op::Insert {
                next_insert += 1;
            }
            events.push(RequestEvent {
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
        // Updates/inserts do an allocation + copy on top of the lookup.
        Op::Update | Op::Insert => base + base / 6,
    }
}

fn percentile_report(
    hists: &[Histogram],
    feature_host_cpu: Duration,
    cfg: &Fig8Config,
    faults: u64,
) -> TailReport {
    // The merge + percentile reduction is the workspace-shared machinery
    // in tinybench::hist (also used by sim_core::traffic flow stats).
    let tail = TailSummary::of_merged(hists.iter().map(Histogram::raw));
    let core_time = cfg.duration.mul_f64(cfg.total_cores as f64);
    TailReport {
        p99: Duration::from_picos(tail.p99),
        p50: Duration::from_picos(tail.p50),
        mean: Duration::from_picos(tail.mean),
        requests: tail.count,
        feature_host_cpu,
        host_cpu_fraction: feature_host_cpu.as_nanos_f64() / core_time.as_nanos_f64(),
        faults,
    }
}

/// The seed-invariant setup of the Fig. 8 experiments: the populated
/// Redis dataset pages (zswap experiment) and the VM candidate pages
/// (ksm experiment).
///
/// Generating a 4 KiB page walks the RNG across the whole page, so
/// regenerating the dataset per seed dominated the seed fan-out's setup
/// time. The tables are immutable once built — seeds differ only in
/// their request streams and per-seed RNG draws — so a sweep builds one
/// dataset from the *base* seed and shares it (`Arc`-cloned) across all
/// points; each point clones individual pages (a memcpy) into its own
/// mutable zone/ksm state.
#[derive(Debug, Clone)]
pub struct Fig8Dataset {
    /// Redis pages, indexed `server * keys_per_server + key`.
    redis_pages: Vec<PageData>,
    /// VM candidate pages, indexed `vm * pages_per_vm + slot`.
    vm_pages: Vec<PageData>,
    keys_per_server: u64,
    pages_per_vm: usize,
}

impl Fig8Dataset {
    /// Generates the immutable page tables from `cfg.seed`. The page
    /// streams are drawn from a dedicated RNG, so they are independent
    /// of every per-seed stream.
    pub fn build(cfg: &Fig8Config) -> Self {
        let mut rng = SimRng::seed_from(cfg.seed ^ 0x00DA_7A5E_7000);
        let mix = PageMix::datacenter();
        let redis_pages = (0..cfg.servers as u64 * cfg.keys_per_server)
            .map(|_| mix.sample(&mut rng).generate(&mut rng))
            .collect();
        let vm_mix = PageMix::vm_guest();
        let vm_pages = (0..cfg.vm_count * cfg.pages_per_vm)
            .map(|_| vm_mix.sample(&mut rng).generate(&mut rng))
            .collect();
        Fig8Dataset {
            redis_pages,
            vm_pages,
            keys_per_server: cfg.keys_per_server,
            pages_per_vm: cfg.pages_per_vm,
        }
    }

    fn redis_page(&self, server: usize, key: u64) -> &PageData {
        &self.redis_pages[server * self.keys_per_server as usize + key as usize]
    }

    fn vm_page(&self, vm: usize, slot: usize) -> &PageData {
        &self.vm_pages[vm * self.pages_per_vm + slot]
    }
}

/// Runs the `*-zswap` experiment of Fig. 8 (left) for one workload and
/// backend, returning the tail report. Normalize against a
/// [`BackendKind::None`] run with the same config/seed.
pub fn run_zswap(cfg: &Fig8Config, workload: YcsbWorkload, kind: BackendKind) -> TailReport {
    run_zswap_with_dataset(cfg, workload, kind, &Fig8Dataset::build(cfg))
}

/// [`run_zswap`] against a pre-built shared dataset (the seed fan-out
/// path: the dataset is built once and reused by every point).
pub fn run_zswap_with_dataset(
    cfg: &Fig8Config,
    workload: YcsbWorkload,
    kind: BackendKind,
    dataset: &Fig8Dataset,
) -> TailReport {
    let mut rng = SimRng::seed_from(cfg.seed ^ 0x5A5A);
    let requests = sweep::profile::scope(sweep::profile::Stage::Setup, || {
        generate_requests(cfg, workload, &mut rng)
    });
    let Some(backend) = kind.build() else {
        return baseline_report(cfg, &requests);
    };

    let mut host = Socket::xeon_6538y_snc_half();
    let mut zswap = Zswap::new(
        ZswapConfig::kernel_default(cfg.zone_pages * PAGE_SIZE as u64),
        backend,
    );
    let mut zone = MemoryZone::new(cfg.zone_pages, Watermarks::for_zone(cfg.zone_pages));
    let mix = PageMix::datacenter();

    // Populate Redis pages and warm them onto the active list (a loaded
    // KVS has referenced its dataset repeatedly before the measurement).
    sweep::profile::scope(sweep::profile::Stage::Setup, || {
        for server in 0..cfg.servers {
            for key in 0..cfg.keys_per_server {
                let page = dataset.redis_page(server, key).clone();
                let k = redis_key(server, key, cfg.keys_per_server);
                zone.allocate(k, page, Time::ZERO, &mut zswap, &mut host);
                zone.touch(k);
            }
        }
    });

    let mut jobs: Vec<Vec<Job>> = vec![Vec::new(); cfg.servers];
    let mut feature_cpu = Duration::ZERO;
    let mut counters = CounterRegistry::new();
    let kernel_share = 1.2 / cfg.total_cores as f64;
    let mut pending_slice = Duration::ZERO;
    // cpu-zswap's host work is kswapd itself computing in scheduling
    // stretches (long contiguous core occupancy); the offloaded backends'
    // host work is interrupt/dispatch slivers that spread thinly.
    let flush_period = if kind == BackendKind::Cpu {
        cfg.interference_period
    } else {
        cfg.antagonist_period
    };
    let mut next_flush = Time::ZERO + flush_period;

    // Event merge: antagonist bursts at fixed cadence interleaved with
    // requests in time order.
    let mut next_burst = Time::ZERO + cfg.antagonist_period;
    let mut burst_id: u64 = 0;
    let mut live: std::collections::VecDeque<u64> = std::collections::VecDeque::new();
    let mut pollution_until = Time::ZERO;
    let mut req_iter = requests.into_iter().peekable();

    loop {
        let next_req_at = req_iter.peek().map(|r| r.arrival);
        let burst_due = next_burst.duration_since(Time::ZERO) <= cfg.duration;
        match (next_req_at, burst_due) {
            (None, false) => break,
            (Some(at), true) if next_burst < at => {
                let burst_cpu = run_antagonist_burst(
                    cfg,
                    &mut rng,
                    &mut zone,
                    &mut zswap,
                    &mut host,
                    next_burst,
                    &mut burst_id,
                    &mut live,
                    &mut pollution_until,
                );
                feature_cpu += burst_cpu;
                pending_slice += burst_cpu.mul_f64(kernel_share);
                if next_burst >= next_flush {
                    flush_kernel_slice(&mut jobs, next_burst, &mut pending_slice);
                    next_flush = next_burst + flush_period;
                }
                next_burst += cfg.antagonist_period;
            }
            (None, true) => {
                let burst_cpu = run_antagonist_burst(
                    cfg,
                    &mut rng,
                    &mut zone,
                    &mut zswap,
                    &mut host,
                    next_burst,
                    &mut burst_id,
                    &mut live,
                    &mut pollution_until,
                );
                feature_cpu += burst_cpu;
                pending_slice += burst_cpu.mul_f64(kernel_share);
                if next_burst >= next_flush {
                    flush_kernel_slice(&mut jobs, next_burst, &mut pending_slice);
                    next_flush = next_burst + flush_period;
                }
                next_burst += cfg.antagonist_period;
            }
            (Some(_), _) => {
                let r = req_iter.next().expect("peeked");
                let server = r.server as u32;
                trace::emit(
                    r.arrival,
                    TraceEvent::Kvs {
                        step: KvsStep::Arrival,
                        server,
                        key: r.key,
                    },
                );
                counters.bump(&KVS_REQUESTS);
                let key = redis_key(r.server, r.key, cfg.keys_per_server);
                let mut service = service_for(r.op, cfg.base_service);
                if r.arrival < pollution_until {
                    service = service.mul_f64(1.0 + kind.llc_pollution());
                }
                if !zone.is_resident(key) {
                    // Page fault: swap the page back in synchronously.
                    if let Some((_, done, cpu)) =
                        zone.fault_in(key, r.arrival, &mut zswap, &mut host)
                    {
                        trace::emit(
                            r.arrival,
                            TraceEvent::Kvs {
                                step: KvsStep::FaultIn,
                                server,
                                key: r.key,
                            },
                        );
                        counters.bump(&KVS_FAULTS);
                        service += done.duration_since(r.arrival);
                        feature_cpu += cpu;
                    } else {
                        // Insert of a brand-new key: allocate its page.
                        trace::emit(
                            r.arrival,
                            TraceEvent::Kvs {
                                step: KvsStep::Insert,
                                server,
                                key: r.key,
                            },
                        );
                        counters.bump(&KVS_INSERTS);
                        let page = mix.sample(&mut rng).generate(&mut rng);
                        let o = zone.allocate(key, page, r.arrival, &mut zswap, &mut host);
                        if o.reclaimed > 0 {
                            // Direct reclaim inside the request.
                            service += o.completion.duration_since(r.arrival);
                            feature_cpu += o.host_cpu;
                        }
                    }
                } else {
                    zone.touch(key);
                }
                jobs[r.server].push(Job {
                    arrival: r.arrival,
                    service,
                    is_request: true,
                });
                trace::emit(
                    r.arrival,
                    TraceEvent::Kvs {
                        step: KvsStep::Enqueued,
                        server,
                        key: r.key,
                    },
                );
            }
        }
    }

    let hists: Vec<Histogram> = jobs
        .into_iter()
        .map(|j| run_core(&merge_jobs(vec![j])).0)
        .collect();
    percentile_report(&hists, feature_cpu, cfg, counters.get("kvs.faults"))
}

/// Delivers the accumulated kernel-work share to every Redis core as one
/// contiguous slice (a kswapd scheduling stretch).
fn flush_kernel_slice(jobs: &mut [Vec<Job>], at: Time, pending: &mut Duration) {
    if pending.is_zero() {
        return;
    }
    for server_jobs in jobs.iter_mut() {
        server_jobs.push(Job {
            arrival: at,
            service: *pending,
            is_request: false,
        });
    }
    *pending = Duration::ZERO;
}

#[allow(clippy::too_many_arguments)]
fn run_antagonist_burst<B: OffloadBackend>(
    cfg: &Fig8Config,
    rng: &mut SimRng,
    zone: &mut MemoryZone,
    zswap: &mut Zswap<B>,
    host: &mut Socket,
    at: Time,
    burst_id: &mut u64,
    live: &mut std::collections::VecDeque<u64>,
    pollution_until: &mut Time,
) -> Duration {
    let mix = PageMix::datacenter();
    let mut burst_cpu = Duration::ZERO;
    let id = *burst_id;
    *burst_id += 1;
    // Allocate the burst.
    for i in 0..cfg.antagonist_burst {
        let key = SwapKey(ANTAGONIST_BASE + id * cfg.antagonist_burst + i);
        let page = mix.sample(rng).generate(rng);
        let o = zone.allocate(key, page, at, zswap, host);
        burst_cpu += o.host_cpu;
    }
    live.push_back(id);
    // Free the oldest burst beyond the live window.
    if live.len() > cfg.antagonist_live_bursts {
        let old = live.pop_front().expect("non-empty");
        for i in 0..cfg.antagonist_burst {
            let key = SwapKey(ANTAGONIST_BASE + old * cfg.antagonist_burst + i);
            zone.free(key);
            zswap.invalidate(key);
        }
    }
    // Background kswapd brings free pages back above the high watermark.
    if zone.below_low() {
        let o = zone.reclaim(ReclaimPath::Background, 0, at, zswap, host);
        burst_cpu += o.host_cpu;
    }
    if !burst_cpu.is_zero() {
        *pollution_until = at + cfg.pollution_window;
    }
    burst_cpu
}

/// Runs the `*-ksm` experiment of Fig. 8 (right) for one workload and
/// backend.
///
/// 16 VMs are pinned one-per-core; the first `cfg.servers` VMs run Redis
/// servers. ksmd continuously scans all VMs' candidate pages in batches,
/// migrating across cores batch-by-batch; a batch scheduled on a Redis
/// core delays that server's queue by the batch's host CPU time.
pub fn run_ksm(cfg: &Fig8Config, workload: YcsbWorkload, kind: BackendKind) -> TailReport {
    run_ksm_with_dataset(cfg, workload, kind, &Fig8Dataset::build(cfg))
}

/// [`run_ksm`] against a pre-built shared dataset (the seed fan-out
/// path: the dataset is built once and reused by every point).
pub fn run_ksm_with_dataset(
    cfg: &Fig8Config,
    workload: YcsbWorkload,
    kind: BackendKind,
    dataset: &Fig8Dataset,
) -> TailReport {
    use kernel::ksm::Ksm;

    let mut rng = SimRng::seed_from(cfg.seed ^ 0x006B_736D);
    let requests = sweep::profile::scope(sweep::profile::Stage::Setup, || {
        generate_requests(cfg, workload, &mut rng)
    });
    let Some(backend) = kind.build() else {
        return baseline_report(cfg, &requests);
    };

    let mut host = Socket::xeon_6538y_snc_half();
    let mut ksm = Ksm::new(backend);
    let mix = PageMix::vm_guest();

    // Register every VM's candidate pages (shared immutable tables;
    // churn below rewrites pages with fresh per-seed generations).
    let mut vm_pages: Vec<Vec<kernel::ksm::KsmPageId>> = Vec::with_capacity(cfg.vm_count);
    sweep::profile::scope(sweep::profile::Stage::Setup, || {
        for vm in 0..cfg.vm_count {
            let ids = (0..cfg.pages_per_vm)
                .map(|slot| ksm.register(dataset.vm_page(vm, slot).clone()))
                .collect();
            vm_pages.push(ids);
        }
    });
    let all_ids: Vec<kernel::ksm::KsmPageId> = vm_pages.iter().flatten().copied().collect();

    // ksmd timeline: continuous batched scanning, round-robin across the
    // half-socket's cores. Batch wall time is the backend completion time
    // (kswapd-style: the daemon sleeps while the device works), so only
    // host CPU lands on the core.
    let mut jobs: Vec<Vec<Job>> = vec![Vec::new(); cfg.servers];
    let mut feature_cpu = Duration::ZERO;
    let mut t = Time::ZERO;
    let mut core = 0usize;
    let mut cursor = 0usize;
    while t.duration_since(Time::ZERO) < cfg.duration {
        if cursor == 0 {
            // New cycle: churn some pages per VM so scanning keeps
            // finding work (VM page turnover), then rebuild the unstable
            // tree implicitly via scan order.
            for ids in &vm_pages {
                for _ in 0..cfg.ksm_churn_per_cycle {
                    let id = ids[rng.gen_index(ids.len())];
                    ksm.write_page(id, mix.sample(&mut rng).generate(&mut rng));
                }
            }
        }
        let end = (cursor + cfg.ksm_batch).min(all_ids.len());
        let batch = &all_ids[cursor..end];
        let mut batch_cpu = Duration::ZERO;
        let mut batch_end = t;
        for &id in batch {
            let op = ksm.scan_page(id, batch_end, &mut host);
            batch_end = op.completion;
            batch_cpu += op.host_cpu;
        }
        feature_cpu += batch_cpu;
        let batch_wall = batch_end.saturating_duration_since(t).max(batch_cpu);
        if core < cfg.servers && !batch_cpu.is_zero() {
            if kind == BackendKind::Cpu {
                // cpu-ksm: ksmd itself computes — one contiguous stretch
                // occupies the core for the whole batch.
                jobs[core].push(Job {
                    arrival: t,
                    service: batch_cpu,
                    is_request: false,
                });
            } else {
                // Offloaded ksm: the daemon sleeps while the device works;
                // the host cost arrives as dispatch/poll slivers spread
                // across the batch's wall time.
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
        }
        // The daemon occupies wall time max(batch_end, host work) before
        // moving to the next batch/core.
        t = batch_end.max(t + batch_cpu);
        core = (core + 1) % cfg.total_cores;
        cursor = if end >= all_ids.len() { 0 } else { end };
    }

    // Request streams: updates on merged pages take CoW breaks.
    let cow_cost = Duration::from_nanos(2_500);
    let mut counters = CounterRegistry::new();
    for r in requests {
        let server = r.server as u32;
        trace::emit(
            r.arrival,
            TraceEvent::Kvs {
                step: KvsStep::Arrival,
                server,
                key: r.key,
            },
        );
        counters.bump(&KVS_REQUESTS);
        let mut service = service_for(r.op, cfg.base_service);
        // ksmd scans continuously, so its cache pollution applies to the
        // whole run.
        service = service.mul_f64(1.0 + kind.llc_pollution() / 2.0);
        if r.op == Op::Update {
            let ids = &vm_pages[r.server];
            let id = ids[(r.key as usize) % ids.len()];
            if ksm.is_merged(id) {
                ksm.write_page(id, mix.sample(&mut rng).generate(&mut rng));
                counters.bump(&KVS_COW_BREAKS);
                service += cow_cost;
            }
        }
        jobs[r.server].push(Job {
            arrival: r.arrival,
            service,
            is_request: true,
        });
        trace::emit(
            r.arrival,
            TraceEvent::Kvs {
                step: KvsStep::Enqueued,
                server,
                key: r.key,
            },
        );
    }

    let hists: Vec<Histogram> = jobs
        .into_iter()
        .map(|j| run_core(&merge_jobs(vec![j])).0)
        .collect();
    percentile_report(&hists, feature_cpu, cfg, 0)
}

/// Runs the zswap experiment once per seed, fanning the independent
/// per-seed simulations across a `threads`-worker pool. Seed `i` is
/// derived from `cfg.seed` via [`sweep::point_seed`], so the series is
/// stable and identical at every thread count.
pub fn run_zswap_seeds_with_threads(
    threads: usize,
    cfg: &Fig8Config,
    workload: YcsbWorkload,
    kind: BackendKind,
    seeds: usize,
) -> Vec<TailReport> {
    // The page tables are seed-invariant: build them once from the base
    // seed and share them across every point instead of regenerating
    // (4 KiB RNG walks per page) inside each seed's run.
    let dataset = sweep::profile::scope(sweep::profile::Stage::Setup, || {
        Arc::new(Fig8Dataset::build(cfg))
    });
    sweep::run_with_threads(threads, seeds, |i| {
        let mut point_cfg = cfg.clone();
        point_cfg.seed = sweep::point_seed(cfg.seed, i);
        run_zswap_with_dataset(&point_cfg, workload, kind, &dataset)
    })
}

/// Runs the ksm experiment once per seed; see
/// [`run_zswap_seeds_with_threads`].
pub fn run_ksm_seeds_with_threads(
    threads: usize,
    cfg: &Fig8Config,
    workload: YcsbWorkload,
    kind: BackendKind,
    seeds: usize,
) -> Vec<TailReport> {
    let dataset = sweep::profile::scope(sweep::profile::Stage::Setup, || {
        Arc::new(Fig8Dataset::build(cfg))
    });
    sweep::run_with_threads(threads, seeds, |i| {
        let mut point_cfg = cfg.clone();
        point_cfg.seed = sweep::point_seed(cfg.seed, i);
        run_ksm_with_dataset(&point_cfg, workload, kind, &dataset)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Fig8Config {
        Fig8Config {
            duration: Duration::from_millis(60),
            keys_per_server: 600,
            zone_pages: 2_230,
            antagonist_burst: 256,
            antagonist_live_bursts: 4,
            pages_per_vm: 48,
            ..Fig8Config::default()
        }
    }

    #[test]
    fn baseline_zswap_has_low_tail() {
        let cfg = tiny();
        let base = run_zswap(&cfg, YcsbWorkload::B, BackendKind::None);
        assert!(base.requests > 500);
        assert!(
            base.p99 < Duration::from_micros(120),
            "baseline p99 {}",
            base.p99
        );
        assert_eq!(base.faults, 0);
        assert_eq!(base.feature_host_cpu, Duration::ZERO);
    }

    #[test]
    fn cpu_zswap_inflates_tail_most() {
        let cfg = tiny();
        let base = run_zswap(&cfg, YcsbWorkload::A, BackendKind::None);
        let cpu = run_zswap(&cfg, YcsbWorkload::A, BackendKind::Cpu);
        let cxl = run_zswap(&cfg, YcsbWorkload::A, BackendKind::Cxl);
        let cpu_x = cpu.p99.as_nanos_f64() / base.p99.as_nanos_f64();
        let cxl_x = cxl.p99.as_nanos_f64() / base.p99.as_nanos_f64();
        assert!(cpu_x > 2.0, "cpu-zswap inflation {cpu_x}");
        assert!(cxl_x < cpu_x / 2.0, "cxl {cxl_x} far below cpu {cpu_x}");
    }

    #[test]
    fn cxl_zswap_uses_least_host_cpu() {
        let cfg = tiny();
        let cpu = run_zswap(&cfg, YcsbWorkload::B, BackendKind::Cpu);
        let rdma = run_zswap(&cfg, YcsbWorkload::B, BackendKind::PcieRdma);
        let cxl = run_zswap(&cfg, YcsbWorkload::B, BackendKind::Cxl);
        assert!(cxl.host_cpu_fraction < rdma.host_cpu_fraction);
        assert!(rdma.host_cpu_fraction < cpu.host_cpu_fraction);
    }

    #[test]
    fn ksm_backends_ordered() {
        let cfg = tiny();
        let base = run_ksm(&cfg, YcsbWorkload::B, BackendKind::None);
        let cpu = run_ksm(&cfg, YcsbWorkload::B, BackendKind::Cpu);
        let cxl = run_ksm(&cfg, YcsbWorkload::B, BackendKind::Cxl);
        let cpu_x = cpu.p99.as_nanos_f64() / base.p99.as_nanos_f64();
        let cxl_x = cxl.p99.as_nanos_f64() / base.p99.as_nanos_f64();
        assert!(cpu_x > 1.5, "cpu-ksm inflation {cpu_x}");
        assert!(cxl_x < cpu_x, "cxl-ksm {cxl_x} below cpu-ksm {cpu_x}");
        assert!(cxl.host_cpu_fraction < cpu.host_cpu_fraction);
    }

    #[test]
    fn deterministic_across_runs() {
        let cfg = tiny();
        let a = run_zswap(&cfg, YcsbWorkload::C, BackendKind::Cxl);
        let b = run_zswap(&cfg, YcsbWorkload::C, BackendKind::Cxl);
        assert_eq!(a.p99, b.p99);
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.faults, b.faults);
    }

    #[test]
    fn seed_fanout_is_thread_invariant() {
        let cfg = tiny();
        let serial = run_zswap_seeds_with_threads(1, &cfg, YcsbWorkload::B, BackendKind::Cxl, 4);
        let parallel = run_zswap_seeds_with_threads(4, &cfg, YcsbWorkload::B, BackendKind::Cxl, 4);
        assert_eq!(serial.len(), 4);
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.p99, b.p99);
            assert_eq!(a.p50, b.p50);
            assert_eq!(a.requests, b.requests);
            assert_eq!(a.faults, b.faults);
        }
        // Distinct seeds genuinely perturb the workload.
        assert!(serial
            .iter()
            .any(|r| r.p99 != serial[0].p99 || r.requests != serial[0].requests));
    }
}
