//! `serving`: the nine rows of `cxl_bench::serving` (isolated, antagonist
//! with and without QoS, the QoS-on BER ladder).
//!
//! The program's entry points are `run_fleet` (one row) and
//! `run_serving_with_threads` (the sweep). The benchmark's harness re-runs
//! each row through `TrafficScheduler::run_with_outcomes` with a backend
//! closure that spans `Fabric::route`, `RetryLink::deliver`,
//! `SharedSliceTables::admit/retire`, the token bucket / SLO loop and the
//! device's H2D calls, and must reproduce the entry point's row exactly.

use std::sync::Mutex;

use cxl_bench::serving::{run_serving_with_threads, serving_points, ServingPoint, ServingRow};
use cxl_proto::link::cxl_x16;
use cxl_proto::retry::{RetryConfig, RetryLink};
use cxl_type2::addr::DEVICE_MEM_BASE;
use cxl_type2::fabric::Fabric;
use cxl_type2::occupancy::SharedSliceTables;
use kvs::fleet::{run_fleet, FleetReport, FleetSpec, QosConfig, TenantReport, FLEET_LINK_POINTS};
use mem_subsys::line::LineAddr;
use sim_core::fault::{FaultPlan, FaultProcess};
use sim_core::port::OpOutcome;
use sim_core::rng::splitmix64;
use sim_core::serving::{weighted_caps, SloAction, SloController, TokenBucket};
use sim_core::time::Duration;
use sim_core::traffic::{self, TrafficScheduler};

use crate::span::{count, span, Layer};
use crate::{Shape, Workload};

/// `kvs::fleet`'s flat admission-reject cost.
const SHED_COST: Duration = Duration::from_nanos(50);
/// `kvs::fleet`'s throttle ceiling (`base * 2^10`).
const MAX_THROTTLE_DOUBLINGS: u64 = 1 << 10;

pub struct Serving {
    seed: u64,
    points: Vec<ServingPoint>,
    specs: Vec<FleetSpec>,
    /// Fleet ops (shed included) per row, filled as rows run.
    ops: Mutex<Vec<u64>>,
}

fn fleet_spec(seed: u64, p: &ServingPoint) -> FleetSpec {
    let mut spec = if p.antagonist {
        FleetSpec::serving_mix(seed)
    } else {
        FleetSpec::isolated(seed)
    };
    spec.qos = if p.qos {
        QosConfig::on()
    } else {
        QosConfig::off()
    };
    spec.ber = p.ber;
    spec
}

/// `cxl_bench::serving`'s row reduction: the worst victim plus fleet totals.
fn row_of(p: &ServingPoint, r: &FleetReport) -> ServingRow {
    let a = r.tenant("fleet.tenantA");
    let b = r.tenant("fleet.tenantB");
    let victim = if a.tail.p999 >= b.tail.p999 {
        a.tail
    } else {
        b.tail
    };
    let antagonist = r
        .tenants
        .iter()
        .find(|t| t.name == "fleet.antagonist")
        .map(|t| t.tail)
        .unwrap_or_default();
    ServingRow {
        scenario: p.scenario,
        ber: p.ber,
        victim,
        antagonist,
        victim_goodput_gbps: a.goodput_gbps + b.goodput_gbps,
        shed: r.tenants.iter().map(|t| t.shed).sum(),
        throttled: r.tenants.iter().map(|t| t.throttled).sum(),
        quota_stalls: r.tenants.iter().map(|t| t.quota_stalls).sum(),
        table_stalls: r.table_stalls,
        link_replays: r.link_replays,
        retried: r.tenants.iter().map(|t| t.retried).sum(),
        failed: r.tenants.iter().map(|t| t.failed).sum(),
    }
}

impl Serving {
    /// The seed-invariant set-up: every row's fleet spec, plus one warm-up
    /// fleet run that interns the lazy `traffic.*`/`device.*` counter
    /// slots (what `run_serving_checked` does before its sweep).
    pub fn setup(seed: u64) -> Self {
        let points = serving_points();
        let specs: Vec<FleetSpec> = points.iter().map(|p| fleet_spec(seed, p)).collect();
        std::hint::black_box(run_fleet(&specs[0]));
        Serving {
            seed,
            ops: Mutex::new(vec![0; points.len()]),
            points,
            specs,
        }
    }

    fn note_ops(&self, i: usize, tenants: &[TenantReport]) {
        self.ops.lock().expect("ops lock")[i] = tenants.iter().map(|t| t.ops).sum();
    }
}

impl Workload for Serving {
    type Out = ServingRow;

    fn unit(&self) -> &'static str {
        "fleet ops"
    }

    fn points(&self) -> usize {
        self.points.len()
    }

    fn point_seeds(&self) -> Vec<u64> {
        vec![self.seed; self.points.len()]
    }

    fn run_point(&self, i: usize, fails: &mut Vec<String>) -> ServingRow {
        let r = run_fleet(&self.specs[i]);
        for t in &r.tenants {
            if t.ops != t.clean + t.retried + t.failed {
                fails.push(format!(
                    "row {i} tenant {}: ops {} != clean {} + retried {} + failed {}",
                    t.name, t.ops, t.clean, t.retried, t.failed
                ));
            }
        }
        let total: u64 = r.tenants.iter().map(|t| t.ops).sum();
        if r.counters.get("traffic.ops") != total {
            fails.push(format!(
                "row {i}: traffic.ops {} != sum of tenant ops {total}",
                r.counters.get("traffic.ops")
            ));
        }
        self.note_ops(i, &r.tenants);
        row_of(&self.points[i], &r)
    }

    fn run_sweep(&self, threads: usize) -> Vec<ServingRow> {
        run_serving_with_threads(threads, self.seed)
    }

    fn harness_point(&self, i: usize, shape: &mut Shape) -> ServingRow {
        let r = drive_fleet(&self.specs[i]);
        self.note_ops(i, &r.tenants);
        let row = row_of(&self.points[i], &r);
        shape.add("fleet_ops", r.tenants.iter().map(|t| t.ops).sum());
        shape.add("fleet_shed", row.shed);
        shape.add("fleet_throttled", row.throttled);
        shape.add("link_replays", row.link_replays);
        shape.add("retried", row.retried);
        row
    }

    fn units(&self, i: usize, _out: &ServingRow) -> u64 {
        self.ops.lock().expect("ops lock")[i]
    }

    fn digest(&self, outs: &[ServingRow]) -> Vec<String> {
        outs.iter()
            .map(|r| {
                format!(
                    "row={} ber={} victim_p999_ps={} victim_p50_ps={} antagonist_p999_ps={} goodput_gbps={}",
                    r.scenario, r.ber, r.victim.p999, r.victim.p50, r.antagonist.p999, r.victim_goodput_gbps
                )
            })
            .collect()
    }
}

/// `kvs::fleet::run_fleet` (adaptive bias off) rebuilt from public
/// functions, with a span around each call into a layer.
fn drive_fleet(spec: &FleetSpec) -> FleetReport {
    let n = spec.tenants.len();
    traffic::preintern_counters();
    let mut fabric = Fabric::symmetric(spec.devices, spec.ways);
    let weights: Vec<u32> = spec.tenants.iter().map(|t| t.weight).collect();
    let caps = if spec.qos.enabled {
        weighted_caps(spec.entries, &weights)
    } else {
        vec![spec.entries; n]
    };
    let mut tables: Vec<SharedSliceTables> = (0..spec.devices)
        .map(|_| SharedSliceTables::new(spec.slices, spec.entries, spec.lookup, caps.clone()))
        .collect();
    let mut plan = FaultPlan::new(spec.seed ^ 0x0005_eedf_1ee7);
    if spec.ber > 0.0 {
        for point in FLEET_LINK_POINTS.iter().take(spec.devices) {
            plan = plan.with(point, FaultProcess::bit_error(spec.ber));
        }
    }
    let mut links: Vec<RetryLink> = (0..spec.devices)
        .map(|d| {
            RetryLink::new(
                cxl_x16(),
                RetryConfig::default(),
                plan.injector(FLEET_LINK_POINTS[d]),
            )
        })
        .collect();
    let mut buckets: Vec<TokenBucket> = spec
        .tenants
        .iter()
        .map(|t| TokenBucket::new(t.admit_interval, t.burst))
        .collect();
    let base_interval: Vec<Duration> = spec.tenants.iter().map(|t| t.admit_interval).collect();
    let mut slos: Vec<SloController> = spec
        .tenants
        .iter()
        .map(|t| SloController::new(t.slo_p999, spec.qos.slo_window))
        .collect();
    let update_thresh: Vec<u64> = spec
        .tenants
        .iter()
        .map(|t| (t.update_fraction.clamp(0.0, 1.0) * u64::MAX as f64) as u64)
        .collect();
    let op_seed: Vec<u64> = (0..n)
        .map(|i| sim_core::sweep::point_seed(spec.seed ^ 0x0fb5_11ce, i))
        .collect();

    let mut sched = TrafficScheduler::new(spec.seed);
    let mut base_line = 0u64;
    for t in &spec.tenants {
        let mut flow = fabric
            .host_store_flow(t.name)
            .over_lines(base_line, t.keys)
            .requests(t.requests);
        flow = if t.flood {
            flow.open_fixed(Duration::ZERO)
        } else {
            flow.open_poisson(t.mean_interarrival)
        };
        if t.theta > 0.0 {
            flow = flow.zipfian(t.theta);
        }
        span(Layer::AddFlow, || sched.add_flow(flow));
        base_line += t.keys;
    }

    let qos = spec.qos;
    let slices = spec.slices;
    let mut shed = vec![0u64; n];
    let mut throttled = vec![0u64; n];
    let report = span(Layer::TrafficRun, || {
        sched.run_with_outcomes(|op, at| {
            let t = op.flow as usize;
            let mut start_at = at;
            if qos.enabled {
                let admitted = span(Layer::Serving, || {
                    let release = buckets[t].would_release(at);
                    if release.duration_since(at) > qos.shed_after {
                        None
                    } else {
                        Some(buckets[t].take(at))
                    }
                });
                match admitted {
                    Some(s) => start_at = s,
                    None => {
                        shed[t] += 1;
                        return (at + SHED_COST, OpOutcome::Failed);
                    }
                }
            }
            let addr = LineAddr::new(DEVICE_MEM_BASE + op.line);
            let (dev, local) = span(Layer::FabricRoute, || fabric.route(addr, start_at))
                .expect("fleet key shards decode inside the HDM windows");
            let d = dev.0 as usize;
            let (arrived, wire) = span(Layer::RetryDeliver, || links[d].deliver(start_at, 64));
            let slice = fabric.devs[d].slice_of(local) % slices;
            let granted = span(Layer::Occupancy, || {
                tables[d].admit(slice, t as u16, arrived)
            });
            let update = splitmix64(op_seed[t] ^ op.seq.wrapping_mul(0x9e37_79b9_7f4a_7c15)).1
                <= update_thresh[t];
            let done = span(Layer::DeviceH2d, || {
                let dev = &mut fabric.devs[d];
                let host = &mut fabric.hosts[0];
                if update {
                    dev.h2d_nt_store(local, granted, host).completion
                } else {
                    dev.h2d_load(local, granted, host).completion
                }
            });
            span(Layer::Occupancy, || tables[d].retire(slice, t as u16, done));
            if qos.enabled {
                span(Layer::Serving, || {
                    if let Some(action) = slos[t].observe(done.duration_since(op.ready)) {
                        let cur = buckets[t].interval();
                        let next = match action {
                            SloAction::Throttle => {
                                (cur * 2).min(base_interval[t] * MAX_THROTTLE_DOUBLINGS)
                            }
                            SloAction::Relax => (cur / 2).max(base_interval[t]),
                        };
                        if next != cur {
                            buckets[t].set_interval(next);
                            if matches!(action, SloAction::Throttle) {
                                throttled[t] += 1;
                            }
                        }
                    }
                });
            }
            (done, wire)
        })
    });

    let tenants: Vec<TenantReport> = report
        .flows
        .iter()
        .enumerate()
        .map(|(i, f)| TenantReport {
            name: spec.tenants[i].name,
            ops: f.ops,
            clean: f.clean,
            retried: f.retried,
            failed: f.failed,
            shed: shed[i],
            throttled: throttled[i],
            quota_stalls: tables.iter().map(|tb| tb.class_stalls(i as u16)).sum(),
            tail: f.tail(),
            goodput_gbps: f.goodput_gbps(),
        })
        .collect();
    let table_stalls = tables.iter().map(|t| t.stalls()).sum();
    let quota_stalls: u64 = tenants.iter().map(|t| t.quota_stalls).sum();
    let link_replays = links.iter().map(|l| l.replays()).sum();
    count(Layer::TrafficRun, 0, tenants.iter().map(|t| t.ops).sum());
    count(Layer::RetryDeliver, 0, link_replays);
    count(Layer::Occupancy, 0, table_stalls);
    count(Layer::Occupancy, 1, quota_stalls);
    count(Layer::Serving, 0, shed.iter().sum());
    count(Layer::Serving, 1, throttled.iter().sum());
    FleetReport {
        tenants,
        table_stalls,
        link_replays,
        bias_flips: 0,
        counters: report.counters,
    }
}
