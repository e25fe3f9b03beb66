//! Counter/trace parity: the counts the device keeps (read through its
//! [`CounterRegistry`] snapshot) must equal the counts independently
//! derivable from the trace event stream. A counter bumped without its
//! event (or vice versa) is an observability bug this suite catches.

use cxl_t2_sim::prelude::*;
use cxl_type2::addr::{device_line, host_line};
use sim_core::trace::{self, CacheId, Lane, TraceEvent};

/// Drives a mixed D2H / D2D / H2D workload with the tracer installed and
/// returns (registry snapshot, captured events).
fn traced_workload() -> (CounterRegistry, Vec<trace::TimedEvent>) {
    let mut host = Socket::xeon_6538y();
    let mut dev = CxlDevice::agilex7();
    let mut rng = SimRng::seed_from(77);
    trace::install(1 << 18);
    let mut t = Time::ZERO;
    for i in 0..600u64 {
        let req = RequestType::ALL[(rng.next_u64() % 6) as usize];
        let ha = host_line(rng.next_u64() % 4096);
        let da = device_line(rng.next_u64() % 4096);
        let step = Duration::from_nanos(40);
        t += step;
        dev.d2h(req, ha, t, &mut host);
        if req.hint() != CacheHint::NcPush {
            t += step;
            dev.d2d(req, da, t, &mut host);
        }
        t += step;
        match i % 4 {
            0 => dev.h2d_load(da, t, &mut host),
            1 => dev.h2d_store(da, t, &mut host),
            2 => dev.h2d_nt_load(da, t, &mut host),
            _ => dev.h2d_nt_store(da, t, &mut host),
        };
    }
    let events = trace::uninstall();
    (dev.counters(), events)
}

fn count(events: &[trace::TimedEvent], pred: impl Fn(&TraceEvent) -> bool) -> u64 {
    events.iter().filter(|e| pred(&e.event)).count() as u64
}

#[test]
fn device_counters_match_trace_derived_counts() {
    let (counters, events) = traced_workload();
    assert!(
        events.len() < (1 << 18),
        "ring wrapped; enlarge it so parity sees every event"
    );

    let by_lane = |lane: Lane| {
        count(
            &events,
            |e| matches!(e, TraceEvent::Request { lane: l, .. } if *l == lane),
        )
    };
    assert_eq!(counters.get("device.d2h.requests"), by_lane(Lane::D2h));
    assert_eq!(counters.get("device.d2d.requests"), by_lane(Lane::D2d));
    assert_eq!(counters.get("device.h2d.requests"), by_lane(Lane::H2d));

    let wb = |cache: CacheId| {
        count(
            &events,
            |e| matches!(e, TraceEvent::CacheWriteback { cache: c, .. } if *c == cache),
        )
    };
    assert_eq!(counters.get("device.hmc.writebacks"), wb(CacheId::Hmc));
    assert_eq!(counters.get("device.dmc.writebacks"), wb(CacheId::Dmc));

    // The workload genuinely exercised all three lanes.
    assert!(counters.get("device.d2h.requests") >= 600);
    assert!(counters.get("device.d2d.requests") > 0);
    assert!(counters.get("device.h2d.requests") >= 600);
}

#[test]
fn registry_hierarchy_sums_the_device_subtree() {
    let (counters, _) = traced_workload();
    let total = counters.get("device.d2h.requests")
        + counters.get("device.d2d.requests")
        + counters.get("device.h2d.requests")
        + counters.get("device.hmc.writebacks")
        + counters.get("device.dmc.writebacks");
    assert_eq!(counters.sum_prefix("device"), total);
    assert_eq!(
        counters.sum_prefix("device.hmc") + counters.sum_prefix("device.dmc"),
        counters.get("device.hmc.writebacks") + counters.get("device.dmc.writebacks")
    );
}

#[test]
fn kvs_fig8_counters_live_on_the_registry() {
    // The fig8 harness counts the faults it reports; a traced run must
    // show one fault-in event per counted fault.
    use kvs::fig8::{run_zswap, BackendKind, Fig8Config};
    use kvs::ycsb::YcsbWorkload;
    // The dataset (2 servers x 600 keys) exceeds the 1000-page zone, so
    // warm-up pressure swaps some Redis pages out and the run faults.
    let cfg = Fig8Config {
        duration: Duration::from_millis(18),
        keys_per_server: 600,
        zone_pages: 1_000,
        antagonist_burst: 128,
        antagonist_live_bursts: 4,
        ..Fig8Config::default()
    };
    trace::install(1 << 21);
    let report = run_zswap(&cfg, YcsbWorkload::B, BackendKind::Cxl);
    let events = trace::uninstall();
    assert!(events.len() < (1 << 21), "ring wrapped; enlarge it");
    let fault_ins = count(&events, |e| {
        matches!(
            e,
            TraceEvent::Kvs {
                step: trace::KvsStep::FaultIn,
                ..
            }
        )
    });
    assert!(report.faults > 0, "scenario must actually fault");
    assert_eq!(
        report.faults, fault_ins,
        "TailReport::faults counts one per fault-in event"
    );
    let arrivals = count(&events, |e| {
        matches!(
            e,
            TraceEvent::Kvs {
                step: trace::KvsStep::Arrival,
                ..
            }
        )
    });
    assert_eq!(report.requests, arrivals, "one arrival event per request");
}
