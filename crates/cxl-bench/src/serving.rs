//! Multi-tenant serving sweep: per-tenant p999 under an antagonist,
//! with and without QoS, across the PR-5 link-BER ladder.
//!
//! Nine scenario rows, all over the same two-victim fleet
//! ([`FleetSpec::serving_mix`] / [`FleetSpec::isolated`]) with common
//! random numbers (one seed; per-tenant streams keyed by
//! `sweep::point_seed`, so the victims see the *same* arrivals and keys
//! in every row):
//!
//! | row                | antagonist | QoS | BER        |
//! |--------------------|-----------|-----|------------|
//! | `isolated`         | no        | on  | 0          |
//! | `antagonist-noqos` | yes       | off | 0          |
//! | `antagonist-qos`   | yes       | on  | 0          |
//! | `qos-ber1e-9` …    | yes       | on  | BER ladder |
//!
//! The acceptance gates (pinned as tests here): with QoS on, the worst
//! victim p999 under the antagonist stays within 2x of the isolated
//! victim p999; with QoS off it degrades by at least 5x. The sweep is
//! deterministic and byte-identical at every worker-pool size, and
//! `tests/golden/harness/serving.txt` pins all nine rows byte-for-byte.

use std::fmt::Write;

use kvs::fleet::{run_fleet, FleetReport, FleetSpec, QosConfig};
use sim_core::sweep;
use tinybench::hist::TailSummary;

use crate::fault::{ber_label, fault_bers};

/// One scenario of the serving sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServingPoint {
    /// Row label (also the BENCH scenario suffix).
    pub scenario: &'static str,
    /// Antagonist tenant present.
    pub antagonist: bool,
    /// QoS layer enabled.
    pub qos: bool,
    /// Link bit-error rate.
    pub ber: f64,
}

/// The swept scenarios, in row order (see the module table).
pub fn serving_points() -> Vec<ServingPoint> {
    let mut points = vec![
        ServingPoint {
            scenario: "isolated",
            antagonist: false,
            qos: true,
            ber: 0.0,
        },
        ServingPoint {
            scenario: "antagonist-noqos",
            antagonist: true,
            qos: false,
            ber: 0.0,
        },
        ServingPoint {
            scenario: "antagonist-qos",
            antagonist: true,
            qos: true,
            ber: 0.0,
        },
    ];
    for ber in fault_bers().into_iter().filter(|&b| b > 0.0) {
        points.push(ServingPoint {
            scenario: "qos-ber",
            antagonist: true,
            qos: true,
            ber,
        });
    }
    points
}

/// One row of results: the worst victim's tail plus fleet totals.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingRow {
    /// Scenario label (`qos-ber` rows distinguish by [`ber`](Self::ber)).
    pub scenario: &'static str,
    /// Link bit-error rate of this row.
    pub ber: f64,
    /// Worst victim sojourn tail (ps, as recorded by the flow hist).
    pub victim: TailSummary,
    /// Antagonist sojourn tail (zeros when absent).
    pub antagonist: TailSummary,
    /// Summed victim goodput (GB/s).
    pub victim_goodput_gbps: f64,
    /// Ops shed at admission across the fleet.
    pub shed: u64,
    /// SLO throttle actions across the fleet.
    pub throttled: u64,
    /// Shared-table quota waits across the fleet.
    pub quota_stalls: u64,
    /// Global table-full stalls across the fleet.
    pub table_stalls: u64,
    /// Link-layer replays across the fleet.
    pub link_replays: u64,
    /// Ops served after link retry.
    pub retried: u64,
    /// Ops failed (shed + link give-up).
    pub failed: u64,
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
        .unwrap_or(TailSummary {
            p50: 0,
            p99: 0,
            p999: 0,
            mean: 0,
            count: 0,
        });
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

/// Runs the serving sweep on `threads` workers. Rows and any captured
/// trace are identical at every thread count.
pub fn run_serving_with_threads(threads: usize, seed: u64) -> Vec<ServingRow> {
    let points = serving_points();
    sweep::run_with_threads(threads, points.len(), |i| {
        let p = points[i];
        row_of(&p, &run_fleet(&fleet_spec(seed, &p)))
    })
}

/// Renders the sweep as an aligned table (the `cxl-bench repro serving` report).
pub(crate) fn render_serving(rows: &[ServingRow]) -> String {
    let mut s = String::new();
    writeln!(
        s,
        "Multi-tenant serving sweep: victim p999 vs antagonist, QoS, link BER"
    )
    .unwrap();
    writeln!(
        s,
        "{:>18} {:>6} {:>11} {:>11} {:>11} {:>7} {:>7} {:>7} {:>7} {:>7}",
        "scenario",
        "ber",
        "victim-p50",
        "victim-p999",
        "antag-p999",
        "good",
        "shed",
        "thrtl",
        "stalls",
        "replays"
    )
    .unwrap();
    for r in rows {
        writeln!(
            s,
            "{:>18} {:>6} {:>9.1}ns {:>9.1}ns {:>9.1}ns {:>7.3} {:>7} {:>7} {:>7} {:>7}",
            r.scenario,
            ber_label(r.ber),
            r.victim.p50 as f64 / 1e3,
            r.victim.p999 as f64 / 1e3,
            r.antagonist.p999 as f64 / 1e3,
            r.victim_goodput_gbps,
            r.shed,
            r.throttled,
            r.quota_stalls + r.table_stalls,
            r.link_replays,
        )
        .unwrap();
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEED: u64 = 42;

    fn rows() -> Vec<ServingRow> {
        run_serving_with_threads(1, SEED)
    }

    fn find<'a>(rows: &'a [ServingRow], scenario: &str, ber: f64) -> &'a ServingRow {
        rows.iter()
            .find(|r| r.scenario == scenario && r.ber == ber)
            .expect("row present")
    }

    /// The two acceptance gates of the serving subsystem, on the exact
    /// fleet the committed BENCH baseline records.
    #[test]
    fn qos_bounds_victim_p999_and_qos_off_blows_it() {
        let rows = rows();
        let iso = find(&rows, "isolated", 0.0).victim.p999;
        let noqos = find(&rows, "antagonist-noqos", 0.0).victim.p999;
        let qos = find(&rows, "antagonist-qos", 0.0).victim.p999;
        assert!(
            noqos >= 5 * iso,
            "qos-off victim p999 {noqos} < 5x isolated {iso}"
        );
        assert!(
            qos <= 2 * iso,
            "qos-on victim p999 {qos} > 2x isolated {iso}"
        );
    }

    /// The antagonist visibly hurts even with QoS on: the victim tail
    /// under antagonist load is strictly above the isolated tail (QoS
    /// bounds the damage, it does not erase it).
    #[test]
    fn antagonist_tail_sits_strictly_above_isolated_tail() {
        let rows = rows();
        let iso = find(&rows, "isolated", 0.0);
        let qos = find(&rows, "antagonist-qos", 0.0);
        let noqos = find(&rows, "antagonist-noqos", 0.0);
        assert!(qos.victim.p999 > iso.victim.p999);
        assert!(noqos.victim.p999 > iso.victim.p999);
        assert!(qos.shed > 0, "QoS admitted the whole flood");
        assert!(
            qos.throttled > 0,
            "the antagonist blew its p999 budget but was never throttled"
        );
        assert_eq!(iso.shed + iso.throttled + noqos.shed + noqos.throttled, 0);
    }

    /// The BER ladder reaches the fleet links: replays grow with BER and
    /// the worst point still serves the victims within the QoS bound.
    #[test]
    fn ber_ladder_degrades_gracefully_under_qos() {
        let rows = rows();
        let worst = find(&rows, "qos-ber", 1e-4);
        let mild = find(&rows, "qos-ber", 1e-9);
        assert!(worst.link_replays > mild.link_replays);
        assert!(worst.retried > 0);
        let iso = find(&rows, "isolated", 0.0).victim.p999;
        assert!(
            worst.victim.p999 <= 4 * iso,
            "ber 1e-4 victim p999 {} blew past 4x isolated {iso}",
            worst.victim.p999
        );
    }
}
