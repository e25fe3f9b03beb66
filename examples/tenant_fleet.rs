//! Multi-tenant serving walkthrough: two well-behaved KV tenants share a
//! 2-device interleaved fabric with a flooding antagonist, and the QoS
//! layer (token-bucket admission + weighted table quotas + SLO feedback)
//! keeps the victims' p999 within its contract while the antagonist's
//! excess is shed at admission.
//!
//! Run with: `cargo run --release --example tenant_fleet`

use kvs::fleet::{run_fleet, FleetSpec, QosConfig};

fn p999_ns(report: &kvs::fleet::FleetReport, name: &str) -> f64 {
    report.tenant(name).tail.p999 as f64 / 1e3
}

fn main() {
    let seed = 42;

    // 1. The victims alone: two standard tenants (1 Mi keys each,
    //    Zipfian popularity, open Poisson arrivals) on a 2-device,
    //    2-way-interleaved fabric. This is the isolation baseline.
    let iso = run_fleet(&FleetSpec::isolated(seed));
    println!(
        "isolated:        tenantA p999 {:>8.1} ns",
        p999_ns(&iso, "fleet.tenantA")
    );

    // 2. Add the antagonist with QoS off: it floods the host port as
    //    fast as the store queue admits, and the shared service tables
    //    have no defence — the victims' tail blows up.
    let mut noqos = FleetSpec::serving_mix(seed);
    noqos.qos = QosConfig::off();
    let off = run_fleet(&noqos);
    println!(
        "antagonist, qos off: tenantA p999 {:>8.1} ns  ({:.1}x isolated)",
        p999_ns(&off, "fleet.tenantA"),
        off.tenant("fleet.tenantA").tail.p999 as f64 / iso.tenant("fleet.tenantA").tail.p999 as f64
    );

    // 3. Same fleet with QoS on. The antagonist's token bucket admits
    //    only its contracted rate (the rest is shed at admission for a
    //    flat reject cost), weighted quotas cap what the admitted ops
    //    can hold in the shared tables, and the SLO controller throttles
    //    the antagonist when it blows its own p999 budget.
    let on = run_fleet(&FleetSpec::serving_mix(seed));
    let ant = on.tenant("fleet.antagonist");
    println!(
        "antagonist, qos on:  tenantA p999 {:>8.1} ns  ({:.2}x isolated)",
        p999_ns(&on, "fleet.tenantA"),
        on.tenant("fleet.tenantA").tail.p999 as f64 / iso.tenant("fleet.tenantA").tail.p999 as f64
    );
    println!(
        "antagonist paid:     {} of {} ops shed, throttled {}x, p999 {:>8.1} ns",
        ant.shed,
        ant.ops,
        ant.throttled,
        ant.tail.p999 as f64 / 1e3
    );

    // Per-tenant accounting lives in each tenant's report: an op is
    // either served or shed at admission.
    let a = on.tenant("fleet.tenantA");
    for (what, n) in [
        ("tenantA served", a.ops - a.shed),
        ("antagonist served", ant.ops - ant.shed),
        ("antagonist shed", ant.shed),
    ] {
        println!("{what:<22} = {n}");
    }
}
