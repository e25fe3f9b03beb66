//! Multi-tenant serving fleet: N tenant KV instances sharing one CXL
//! fabric, with QoS admission control in front of the shared DCOH-style
//! service tables.
//!
//! Each [`TenantSpec`] describes one tenant: a Zipfian key-popularity
//! curve over a private key shard, an open-loop arrival process (Poisson,
//! or a flood for the antagonist), an op mix (update fraction), and a QoS
//! contract (token-bucket rate + weight + p999 budget). [`run_fleet`]
//! instantiates the fleet over a [`Fabric`], shards every tenant's keys
//! across the interleaved HDM windows, and drives all tenants through one
//! [`sim_core::traffic`] scheduler bound to the host store port.
//!
//! The QoS layer has three cooperating mechanisms, all per tenant:
//!
//! 1. **Token-bucket admission** ([`TokenBucket`]): ops whose bucket
//!    release would lag arrival by more than [`QosConfig::shed_after`]
//!    are shed at admission (completing [`OpOutcome::Failed`] after a
//!    constant reject cost) — excess antagonist load never reaches the
//!    shared tables.
//! 2. **Weighted table quotas** ([`weighted_caps`] over
//!    [`SharedSliceTables`]): per-tenant ceilings on shared service-slot
//!    occupancy, so a tenant that does get past its bucket still cannot
//!    monopolize a slice.
//! 3. **SLO feedback** ([`SloController`]): a windowed p999 check per
//!    tenant; a tenant that blows its own budget gets its bucket interval
//!    doubled (throttle), and earns it back when a whole window meets the
//!    budget (relax).
//!
//! The service tables here model the *serving layer's* per-request slots
//! (request parse + KV lookup + DCOH round), so [`FleetSpec`] carries its
//! own slice/entry/lookup geometry rather than reusing the raw device
//! DCOH numbers — a serving slot is hundreds of nanoseconds, not a 2-cycle
//! snoop-filter probe. Link faults reuse the PR-5 BER ladder: every
//! host↔device hop goes through a [`RetryLink`] fed by a
//! [`FaultPlan`] injector keyed on a per-device point name.
//!
//! All per-tenant counter keys are interned once at fleet build time
//! (never in the op hot path); [`run_fleet_checked`] additionally asserts
//! that the traffic run interns no counter name, which the `cxl-bench`
//! serving harness uses to pin the "no interning in the hot path"
//! contract.

use cxl_proto::link::cxl_x16;
use cxl_proto::retry::{RetryConfig, RetryLink};
use cxl_type2::addr::DEVICE_MEM_BASE;
use cxl_type2::fabric::Fabric;
use cxl_type2::occupancy::SharedSliceTables;
use mem_subsys::line::LineAddr;
use sim_core::fault::{FaultPlan, FaultProcess};
use sim_core::port::OpOutcome;
use sim_core::rng::splitmix64;
use sim_core::serving::{weighted_caps, SloAction, SloController, TokenBucket};
use sim_core::time::Duration;
use sim_core::trace::{self, CounterId, CounterRegistry, TraceEvent};
use sim_core::traffic::{self, TrafficScheduler};
use tinybench::hist::TailSummary;

/// Hard ceiling on tenants per fleet; bounds the static key tables so no
/// per-tenant counter name is ever formatted (and interned) at run time.
pub(crate) const MAX_TENANTS: usize = 8;

/// Hard ceiling on devices per fleet (matches the fault-point table).
pub(crate) const MAX_DEVICES: usize = 8;

static TENANT_OPS_KEYS: [&str; MAX_TENANTS] = [
    "fleet.tenant0.ops",
    "fleet.tenant1.ops",
    "fleet.tenant2.ops",
    "fleet.tenant3.ops",
    "fleet.tenant4.ops",
    "fleet.tenant5.ops",
    "fleet.tenant6.ops",
    "fleet.tenant7.ops",
];

static TENANT_SHED_KEYS: [&str; MAX_TENANTS] = [
    "fleet.tenant0.shed",
    "fleet.tenant1.shed",
    "fleet.tenant2.shed",
    "fleet.tenant3.shed",
    "fleet.tenant4.shed",
    "fleet.tenant5.shed",
    "fleet.tenant6.shed",
    "fleet.tenant7.shed",
];

static TENANT_THROTTLE_KEYS: [&str; MAX_TENANTS] = [
    "fleet.tenant0.throttled",
    "fleet.tenant1.throttled",
    "fleet.tenant2.throttled",
    "fleet.tenant3.throttled",
    "fleet.tenant4.throttled",
    "fleet.tenant5.throttled",
    "fleet.tenant6.throttled",
    "fleet.tenant7.throttled",
];

/// Per-device link fault-point names (the PR-5 ladder injects here).
pub static FLEET_LINK_POINTS: [&str; MAX_DEVICES] = [
    "fleet.link.dev0",
    "fleet.link.dev1",
    "fleet.link.dev2",
    "fleet.link.dev3",
    "fleet.link.dev4",
    "fleet.link.dev5",
    "fleet.link.dev6",
    "fleet.link.dev7",
];

/// Flat cost of rejecting an op at admission (request parse + error
/// reply; never touches the shared tables or the link).
const SHED_COST: Duration = Duration::from_nanos(50);

/// Throttling never raises a bucket interval beyond `base * 2^10`.
const MAX_THROTTLE_DOUBLINGS: u64 = 1 << 10;

/// One tenant KV instance: key shard, arrival process, op mix, and QoS
/// contract.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Flow name (also the report key).
    pub name: &'static str,
    /// Keys in this tenant's shard (one line each, contiguous in HPA).
    pub keys: u64,
    /// Zipfian skew over the shard (0.0 = uniform).
    pub theta: f64,
    /// Mean interarrival of the open Poisson process (ignored when
    /// [`flood`](Self::flood) is set).
    pub mean_interarrival: Duration,
    /// When true the tenant issues as fast as the host port admits
    /// (antagonist behaviour) instead of a Poisson process.
    pub flood: bool,
    /// Total requests this tenant issues.
    pub requests: u64,
    /// Fraction of ops that are updates (stores); the rest are lookups.
    pub update_fraction: f64,
    /// QoS weight for shared-table quota partitioning.
    pub weight: u32,
    /// Token-bucket burst depth.
    pub burst: u32,
    /// Token-bucket sustained interval (one admitted op per interval).
    pub admit_interval: Duration,
    /// p999 sojourn budget for the SLO controller.
    pub slo_p999: Duration,
}

impl TenantSpec {
    /// A well-behaved serving tenant: 1 Mi keys, YCSB-default 0.99 skew,
    /// ~1.7 Mops Poisson offered load, 50/50 read/update mix, and a
    /// bucket with ample headroom over its own offered rate.
    pub(crate) fn standard(name: &'static str) -> Self {
        TenantSpec {
            name,
            keys: 1 << 20,
            theta: 0.99,
            mean_interarrival: Duration::from_nanos(600),
            flood: false,
            requests: 2000,
            update_fraction: 0.5,
            weight: 4,
            burst: 8,
            admit_interval: Duration::from_nanos(150),
            slo_p999: Duration::from_micros(20),
        }
    }

    /// A misbehaving tenant: floods the host port as fast as it admits
    /// (sub-nanosecond issue cadence), all updates, low weight, and a
    /// tight bucket so QoS has something to cut.
    pub(crate) fn antagonist(name: &'static str) -> Self {
        TenantSpec {
            name,
            keys: 1 << 20,
            theta: 0.9,
            mean_interarrival: Duration::ZERO,
            flood: true,
            requests: 8000,
            update_fraction: 1.0,
            weight: 1,
            burst: 4,
            admit_interval: Duration::from_nanos(400),
            slo_p999: Duration::from_micros(5),
        }
    }
}

/// Fleet-wide QoS switches.
#[derive(Debug, Clone, Copy)]
pub struct QosConfig {
    /// Master switch: off = no buckets, no quotas, no SLO loop (every
    /// tenant hits the shared tables raw).
    pub enabled: bool,
    /// Shed an op at admission when its bucket release would lag arrival
    /// by more than this.
    pub shed_after: Duration,
    /// SLO controller window (ops per p999 check).
    pub slo_window: u32,
}

impl QosConfig {
    /// QoS on with the defaults the acceptance gates are tuned against.
    pub fn on() -> Self {
        QosConfig {
            enabled: true,
            shed_after: Duration::from_nanos(400),
            // Small enough that a flooding tenant (most of whose ops are
            // shed before they reach the SLO loop) still completes
            // several windows and visibly self-throttles.
            slo_window: 64,
        }
    }

    /// QoS fully off (raw shared-table contention).
    pub fn off() -> Self {
        QosConfig {
            enabled: false,
            shed_after: Duration::ZERO,
            slo_window: u32::MAX,
        }
    }
}

/// A fleet of tenants over one fabric, plus the serving-layer service
/// table geometry they contend on.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    /// Sweep seed; all per-tenant streams derive from it via
    /// [`sim_core::sweep::point_seed`].
    pub seed: u64,
    /// Devices in the fabric.
    pub devices: usize,
    /// HDM interleave ways.
    pub ways: u8,
    /// Service-table slices per device.
    pub slices: usize,
    /// Service slots per slice.
    pub entries: usize,
    /// Service-slot lookup cadence (per-request serving cost, not the
    /// raw DCOH probe).
    pub lookup: Duration,
    /// Link bit-error rate (0.0 = healthy; PR-5 ladder values).
    pub ber: f64,
    /// QoS switches.
    pub qos: QosConfig,
    /// The tenants, in flow order.
    pub tenants: Vec<TenantSpec>,
}

impl FleetSpec {
    /// An empty fleet over `devices`×`ways` with the serving-layer table
    /// geometry the gates are tuned against.
    pub(crate) fn new(seed: u64, devices: usize, ways: u8) -> Self {
        FleetSpec {
            seed,
            devices,
            ways,
            slices: 2,
            entries: 16,
            lookup: Duration::from_nanos(100),
            ber: 0.0,
            qos: QosConfig::on(),
            tenants: Vec::new(),
        }
    }

    /// Two standard victims and one antagonist on a 2-device, 2-way
    /// fabric — the mix every serving scenario row uses.
    pub fn serving_mix(seed: u64) -> Self {
        let mut spec = FleetSpec::new(seed, 2, 2);
        spec.tenants = vec![
            TenantSpec::standard("fleet.tenantA"),
            {
                let mut t = TenantSpec::standard("fleet.tenantB");
                t.theta = 0.9;
                t
            },
            TenantSpec::antagonist("fleet.antagonist"),
        ];
        spec
    }

    /// The same two victims with no antagonist (isolation baseline).
    pub fn isolated(seed: u64) -> Self {
        let mut spec = FleetSpec::serving_mix(seed);
        spec.tenants.pop();
        spec
    }
}

/// What one tenant saw: volume, outcome mix, QoS actions, and the
/// sojourn tail.
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// Tenant name (the flow name).
    pub name: &'static str,
    /// Ops completed (including shed ops).
    pub ops: u64,
    /// Ops served clean.
    pub clean: u64,
    /// Ops served after link retry.
    pub retried: u64,
    /// Ops failed (shed at admission, or link give-up).
    pub failed: u64,
    /// Ops shed by the token bucket.
    pub shed: u64,
    /// SLO throttle actions applied to this tenant.
    pub throttled: u64,
    /// Shared-table waits charged to this tenant's quota.
    pub quota_stalls: u64,
    /// p50/p99/p999/mean sojourn (ns).
    pub tail: TailSummary,
    /// Goodput over the tenant's active span.
    pub goodput_gbps: f64,
}

/// Fleet-wide results: per-tenant reports plus shared-resource totals.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// One report per tenant, in [`FleetSpec::tenants`] order.
    pub tenants: Vec<TenantReport>,
    /// Global table-full stalls across all devices.
    pub table_stalls: u64,
    /// Link-layer replays across all devices.
    pub link_replays: u64,
    /// Bias transitions across all devices: always 0, since a serving
    /// fleet runs no bias daemon and its bias tables stay static.
    pub bias_flips: u64,
    /// Merged counters (`fleet.tenantN.*`, `traffic.*`, `device.*`).
    pub counters: CounterRegistry,
}

impl FleetReport {
    /// The report for the named tenant (panics when absent).
    pub fn tenant(&self, name: &str) -> &TenantReport {
        self.tenants
            .iter()
            .find(|t| t.name == name)
            .unwrap_or_else(|| panic!("no tenant named {name}"))
    }
}

/// Runs the fleet. See the module docs for the mechanism; see
/// [`run_fleet_checked`] for the interner assertion used by harnesses.
pub fn run_fleet(spec: &FleetSpec) -> FleetReport {
    run_fleet_impl(spec, false)
}

/// [`run_fleet`], plus an assertion that the traffic run interns no
/// counter name on this thread.
///
/// All `fleet.*` keys are interned at build time, but the lazy
/// `traffic.*` / `device.*` counter slots intern on first use per
/// process — so this variant is only meaningful in a process where one
/// fleet has already run (the serving harness runs point 0 as warm-up, then
/// check points 1..N).
pub fn run_fleet_checked(spec: &FleetSpec) -> FleetReport {
    run_fleet_impl(spec, true)
}

fn run_fleet_impl(spec: &FleetSpec, check_interner: bool) -> FleetReport {
    let n = spec.tenants.len();
    assert!(n > 0, "fleet needs at least one tenant");
    assert!(
        n <= MAX_TENANTS,
        "fleet supports at most {MAX_TENANTS} tenants"
    );
    assert!(
        spec.devices > 0 && spec.devices <= MAX_DEVICES,
        "fleet supports 1..={MAX_DEVICES} devices"
    );

    // ---- build: everything that interns or allocates happens here ----
    traffic::preintern_counters();
    let ops_ids: Vec<CounterId> = (0..n)
        .map(|i| CounterId::intern(TENANT_OPS_KEYS[i]))
        .collect();
    let shed_ids: Vec<CounterId> = (0..n)
        .map(|i| CounterId::intern(TENANT_SHED_KEYS[i]))
        .collect();
    let throttle_ids: Vec<CounterId> = (0..n)
        .map(|i| CounterId::intern(TENANT_THROTTLE_KEYS[i]))
        .collect();

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
        .map(|d| RetryLink::new(cxl_x16(), RetryConfig, plan.injector(FLEET_LINK_POINTS[d])))
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
        if t.flood {
            flow = flow.open_fixed(Duration::ZERO);
        } else {
            flow = flow.open_poisson(t.mean_interarrival);
        }
        if t.theta > 0.0 {
            flow = flow.zipfian(t.theta);
        }
        sched.add_flow(flow);
        base_line += t.keys;
    }

    let qos = spec.qos;
    let slices = spec.slices;
    let interned_before = if check_interner {
        Some(trace::interned_on_this_thread())
    } else {
        None
    };

    // ---- run: the backend below is the op hot path; nothing in it
    // interns, formats or allocates ----
    let mut counters = CounterRegistry::new();
    let report = sched.run_with_outcomes(|op, at| {
        let t = op.flow as usize;
        let mut start_at = at;
        if qos.enabled {
            let release = buckets[t].would_release(at);
            if release.duration_since(at) > qos.shed_after {
                counters.add_id(shed_ids[t], 1);
                trace::emit(
                    at,
                    TraceEvent::QosShed {
                        tenant: op.flow,
                        line: op.line,
                    },
                );
                return (at + SHED_COST, OpOutcome::Failed);
            }
            start_at = buckets[t].take(at);
        }
        let addr = LineAddr::new(DEVICE_MEM_BASE + op.line);
        let (dev, local) = fabric
            .route(addr, start_at)
            .expect("fleet key shards decode inside the HDM windows");
        let d = dev.0 as usize;
        let (arrived, wire) = links[d].deliver(start_at, 64);
        let slice = fabric.devs[d].slice_of(local) % slices;
        let granted = tables[d].admit(slice, t as u16, arrived);
        let update = splitmix64(op_seed[t] ^ op.seq.wrapping_mul(0x9e37_79b9_7f4a_7c15)).1
            <= update_thresh[t];
        let [host] = &mut fabric.hosts;
        let done = if update {
            fabric.devs[d].h2d_nt_store(local, granted, host).completion
        } else {
            fabric.devs[d].h2d_load(local, granted, host).completion
        };
        tables[d].retire(slice, t as u16, done);
        counters.add_id(ops_ids[t], 1);
        if qos.enabled {
            if let Some(action) = slos[t].observe(done.duration_since(op.ready)) {
                let cur = buckets[t].interval();
                let next = match action {
                    SloAction::Throttle => (cur * 2).min(base_interval[t] * MAX_THROTTLE_DOUBLINGS),
                    SloAction::Relax => (cur / 2).max(base_interval[t]),
                };
                if next != cur {
                    buckets[t].set_interval(next);
                    if matches!(action, SloAction::Throttle) {
                        counters.add_id(throttle_ids[t], 1);
                    }
                    trace::emit(
                        done,
                        TraceEvent::QosThrottle {
                            tenant: op.flow,
                            interval_ps: next.as_picos(),
                        },
                    );
                }
            }
        }
        (done, wire)
    });

    if let Some(before) = interned_before {
        let after = trace::interned_on_this_thread();
        assert_eq!(
            before, after,
            "this thread's interned-name count grew during the fleet hot path \
             ({before} -> {after}); a counter key is being interned per-op instead \
             of at build time"
        );
    }

    counters.merge(&report.counters);
    let tenants = report
        .flows
        .iter()
        .enumerate()
        .map(|(i, f)| TenantReport {
            name: spec.tenants[i].name,
            ops: f.ops,
            clean: f.clean,
            retried: f.retried,
            failed: f.failed,
            shed: counters.get(TENANT_SHED_KEYS[i]),
            throttled: counters.get(TENANT_THROTTLE_KEYS[i]),
            quota_stalls: tables.iter().map(|tb| tb.class_stalls(i as u16)).sum(),
            tail: f.tail(),
            goodput_gbps: f.goodput_gbps(),
        })
        .collect();

    FleetReport {
        tenants,
        table_stalls: tables.iter().map(|t| t.stalls()).sum(),
        link_replays: links.iter().map(|l| l.replays()).sum(),
        bias_flips: 0,
        counters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `spec` shrunk in keys and requests for fast unit tests.
    fn smoke(mut spec: FleetSpec) -> FleetSpec {
        for t in &mut spec.tenants {
            t.keys >>= 6;
            t.requests >>= 2;
        }
        spec
    }

    fn victim_p999(r: &FleetReport) -> u64 {
        r.tenant("fleet.tenantA")
            .tail
            .p999
            .max(r.tenant("fleet.tenantB").tail.p999)
    }

    #[test]
    fn isolated_fleet_serves_every_victim_op() {
        let r = run_fleet(&smoke(FleetSpec::isolated(7)));
        for t in &r.tenants {
            assert_eq!(t.ops, t.clean + t.retried + t.failed);
            assert!(t.clean > 0, "{} served nothing", t.name);
            assert_eq!(t.shed, 0, "{} shed without an antagonist", t.name);
            assert!(t.tail.p999 > 0);
        }
        assert_eq!(r.link_replays, 0);
    }

    #[test]
    fn antagonist_inflates_victim_tail_and_qos_restores_it() {
        let iso = run_fleet(&smoke(FleetSpec::isolated(7)));
        let mut off = smoke(FleetSpec::serving_mix(7));
        off.qos = QosConfig::off();
        let off_r = run_fleet(&off);
        let on_r = run_fleet(&smoke(FleetSpec::serving_mix(7)));

        let iso_p999 = victim_p999(&iso);
        let off_p999 = victim_p999(&off_r);
        let on_p999 = victim_p999(&on_r);
        assert!(
            off_p999 >= 5 * iso_p999,
            "qos-off victim p999 {off_p999} < 5x isolated {iso_p999}"
        );
        assert!(
            on_p999 <= 2 * iso_p999,
            "qos-on victim p999 {on_p999} > 2x isolated {iso_p999}"
        );
        // The antagonist pays: most of its flood is shed at admission.
        let ant = on_r.tenant("fleet.antagonist");
        assert!(ant.shed > ant.clean, "antagonist should be mostly shed");
    }

    #[test]
    fn per_tenant_counters_and_quota_stalls_are_reported() {
        let r = run_fleet(&smoke(FleetSpec::serving_mix(11)));
        assert_eq!(
            r.counters.get("fleet.tenant0.ops"),
            r.tenant("fleet.tenantA").ops
        );
        let ant = r.tenant("fleet.antagonist");
        assert_eq!(r.counters.get("fleet.tenant2.shed"), ant.shed);
        let total: u64 = r.tenants.iter().map(|t| t.ops).sum();
        assert_eq!(r.counters.get("traffic.ops"), total);
    }

    #[test]
    fn fleet_is_deterministic_per_seed() {
        let a = run_fleet(&smoke(FleetSpec::serving_mix(3)));
        let b = run_fleet(&smoke(FleetSpec::serving_mix(3)));
        assert_eq!(format!("{:?}", a.tenants), format!("{:?}", b.tenants));
        let c = run_fleet(&smoke(FleetSpec::serving_mix(4)));
        assert_ne!(format!("{:?}", a.tenants), format!("{:?}", c.tenants));
    }

    #[test]
    fn ber_ladder_point_reaches_the_fleet_links() {
        let mut spec = smoke(FleetSpec::serving_mix(5));
        spec.ber = 1e-5;
        let r = run_fleet(&spec);
        assert!(r.link_replays > 0, "1e-5 BER produced no replays");
        let retried: u64 = r.tenants.iter().map(|t| t.retried).sum();
        assert!(retried > 0);
    }

    #[test]
    fn checked_variant_passes_after_warmup() {
        let spec = smoke(FleetSpec::isolated(9));
        let _ = run_fleet(&spec); // warm the lazy traffic.* slots
        let r = run_fleet_checked(&spec);
        assert!(r.tenants[0].clean > 0);
    }
}
