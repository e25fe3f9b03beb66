//! The `cxl-bench bench` reports and the `cxl-bench check` gate.
//!
//! Each report in [`BENCHES`] measures one harness and returns a
//! [`BenchReport`] (`BENCH_<name>.json` is its committed baseline):
//! wall-clock figures are min-of-N nanoseconds, `*_allocs_per_point`
//! counts heap allocations through the driver's counting allocator, and
//! the simulated figures are deterministic on any machine.
//! `*_speedup_*` entries are unitless ratios, recorded for the speedup
//! gates and never regression-checked. [`check`] compares every fresh
//! report against its baseline with the per-file tolerances in
//! `BENCH_GATES.json` — the only tolerance source.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use criterion::report::BenchReport;
use kvs::fig8::{run_zswap_seeds_with_threads, BackendKind, Fig8Config};
use kvs::ycsb::YcsbWorkload;
use sim_core::event::EventQueue;
use sim_core::time::{Duration, Time};
use sim_core::trace;

use crate::bias::run_bias_with_threads;
use crate::duplex::run_duplex_with_threads;
use crate::fabric::{run_fabric_sweep_with_threads, DEFAULT_LINES};
use crate::fault::{ber_label, run_fault_with_threads};
use crate::fig4::run_fig4_with_threads;
use crate::serving::{run_serving_with_threads, serving_points};

/// Measures one harness into a fresh report.
pub type Measure = fn() -> BenchReport;

/// The `cxl-bench bench <name>` reports, by name.
pub const BENCHES: &[(&str, Measure)] = &[
    ("sweep", sweep),
    ("duplex", duplex),
    ("fault", fault),
    ("fabric", fabric),
    ("serving", serving),
    ("bias", bias),
];

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Records one heap allocation. Called by the counting allocator the
/// `cxl-bench` driver installs; not meant to be called directly.
#[doc(hidden)]
#[inline]
pub fn note_alloc() {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
}

/// Allocation count of one call of `f`, after a warmup call that pays
/// every lazy one-time cost (thread-local rings, grown buckets). Counts
/// only under the `cxl-bench` driver's counting allocator; elsewhere it
/// reports zero.
fn allocs_in(mut f: impl FnMut()) -> u64 {
    f();
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

/// Min wall time of `runs` calls of `f`, in nanoseconds (the
/// least-noise estimator on a shared CI box).
fn time_min(runs: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..runs {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_nanos() as f64);
    }
    best
}

/// Logical cores on this runner, for report metadata.
fn host_cores() -> u64 {
    std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(1)
}

const FIG4_REPS: usize = 40;
const FIG4_SEED: u64 = 11;
const FIG8_SEEDS: usize = 8;
const DUPLEX_REQUESTS: u64 = 1000;
const FAULT_REQUESTS: u64 = 1200;
const BIAS_REQUESTS: u64 = 2000;
const SEED: u64 = 42;

/// An empty report stamped with this runner's cores and `threads`.
fn new_report(threads: u64) -> BenchReport {
    let mut report = BenchReport::new();
    report.set_meta(host_cores(), threads);
    report
}

/// Records `<prefix>_serial`, `<prefix>_4t` and `<prefix>_speedup_4t`:
/// the min wall time of `runs` calls of `sweep` on 1 and on 4 workers.
fn serial_vs_4t(report: &mut BenchReport, prefix: &str, runs: usize, sweep: impl Fn(usize)) {
    let serial = time_min(runs, || sweep(1));
    report.record(&format!("{prefix}_serial"), serial);
    println!("  serial                   {:>12.0} ns", serial);
    let par4 = time_min(runs, || sweep(4));
    report.record(&format!("{prefix}_4t"), par4);
    let speedup = serial / par4;
    report.record(&format!("{prefix}_speedup_4t"), speedup);
    println!("  4 threads                {par4:>12.0} ns   ({speedup:.2}x)");
}

/// Records `<prefix>_allocs_per_point`: heap allocations of one run of
/// `sweep` on 4 workers, per point, with tracing on when `traced`.
fn allocs_per_point(
    report: &mut BenchReport,
    prefix: &str,
    points: f64,
    traced: bool,
    sweep: impl Fn(usize),
) {
    let allocs = allocs_in(|| {
        if traced {
            trace::install(1 << 12);
        }
        sweep(4);
        std::hint::black_box(trace::take_captured());
    });
    let per_point = allocs as f64 / points;
    report.record(&format!("{prefix}_allocs_per_point"), per_point);
    println!("  allocs_per_point (4t)    {per_point:>12.1}");
}

/// Schedule/pop churn through the calendar queue in the port engine's
/// steady-state shape: a bounded set of outstanding transactions (one
/// replacement scheduled per completion popped) with completion times
/// 1–500 ns out, plus a sprinkle of far-future overflow events.
fn event_queue_churn() -> u64 {
    const OUTSTANDING: u64 = 512;
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut acc = 0u64;
    let mut state = 0x9e37_79b9u64;
    let step = |state: &mut u64| {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state
    };
    for i in 0..OUTSTANDING {
        let at = sim_core::time::Duration::from_picos(1 + step(&mut state) % 500_000);
        q.schedule(Time::ZERO + at, i);
    }
    for i in 0..200_000u64 {
        let (t, e) = q.pop().expect("queue stays primed");
        acc = acc.wrapping_add(t.as_picos()).wrapping_add(e);
        let delta = 1 + step(&mut state) % 500_000;
        q.schedule(t + sim_core::time::Duration::from_picos(delta), i);
        if i % 128 == 0 {
            let far = 4_000_000 + step(&mut state) % 4_000_000;
            q.schedule(t + sim_core::time::Duration::from_picos(far), i);
        }
    }
    while let Some((t, e)) = q.pop() {
        acc = acc.wrapping_add(t.as_picos()).wrapping_add(e);
    }
    acc
}

/// Batched drains into a caller-owned reusable buffer (the zero-alloc
/// consumer loop).
fn drain_until_into_reuse() -> usize {
    let mut q: EventQueue<u32> = EventQueue::new();
    let mut buf: Vec<(Time, u32)> = Vec::new();
    let mut total = 0usize;
    for round in 0..200u64 {
        for i in 0..256u32 {
            let at = q.now() + sim_core::time::Duration::from_picos(u64::from(i) * 17 + 1);
            q.schedule(at, i);
        }
        q.drain_until_into(Time::from_picos((round + 1) * 6_000), &mut buf);
        total += buf.len();
    }
    while q.pop().is_some() {
        total += 1;
    }
    total
}

/// Event-queue hot path, the fig4 sweep and the fig8 seed fan-out
/// (`BENCH_sweep.json`).
fn sweep() -> BenchReport {
    let mut report = new_report(4);

    println!("== event-queue hot path ==");
    let churn = time_min(9, || {
        std::hint::black_box(event_queue_churn());
    });
    report.record("event_queue_churn", churn);
    println!("  event_queue_churn        {:>12.0} ns", churn);

    let drain = time_min(9, || {
        std::hint::black_box(drain_until_into_reuse());
    });
    report.record("drain_until_into_reuse", drain);
    println!("  drain_until_into_reuse   {:>12.0} ns", drain);

    // Per-event cost of the steady-state schedule/pop cycle: the churn
    // loop pops (and reschedules) 200k events, so this is the figure a
    // calendar-bucket or allocation change moves directly.
    let ns_per_event = churn / 200_000.0;
    report.record("event_queue_ns_per_event", ns_per_event);
    println!("  event_queue_ns_per_event {:>12.1} ns", ns_per_event);

    println!("== fig4 sweep (8 points, reps = {FIG4_REPS}) ==");
    let fig4 = |threads| {
        std::hint::black_box(run_fig4_with_threads(threads, FIG4_REPS, FIG4_SEED));
    };
    // With tracing on: the zero-copy splice and reused worker scratch
    // hold this flat — every per-point ring regrowth or capture copy
    // would show up here.
    allocs_per_point(&mut report, "fig4_sweep", 8.0, true, fig4);
    serial_vs_4t(&mut report, "fig4_sweep", 5, fig4);

    println!("== fig8 seed fan-out ({FIG8_SEEDS} seeds, cxl-zswap, YCSB-B) ==");
    let cfg = Fig8Config {
        duration: Duration::from_millis(60),
        ..Fig8Config::smoke()
    };
    let fig8 = |threads| {
        std::hint::black_box(run_zswap_seeds_with_threads(
            threads,
            &cfg,
            YcsbWorkload::B,
            BackendKind::Cxl,
            FIG8_SEEDS,
        ));
    };
    serial_vs_4t(&mut report, "fig8_seed_fanout", 2, fig8);
    // Untraced: the shared Arc'd dataset holds this flat — regenerating
    // pages per seed would show up here first.
    allocs_per_point(
        &mut report,
        "fig8_seed_fanout",
        FIG8_SEEDS as f64,
        false,
        fig8,
    );
    report
}

/// The duplex-contention sweep (`BENCH_duplex.json`): wall time serial
/// and on 4 workers, plus allocations per load point.
fn duplex() -> BenchReport {
    let mut report = new_report(4);
    println!("== duplex sweep (6 load points, {DUPLEX_REQUESTS} requests/flow) ==");
    let duplex = |threads| {
        std::hint::black_box(run_duplex_with_threads(
            threads,
            DUPLEX_REQUESTS,
            DUPLEX_REQUESTS,
            SEED,
        ));
    };
    serial_vs_4t(&mut report, "duplex_sweep", 5, duplex);
    // Traced: gates churn regressions in the contended scheduler.
    allocs_per_point(&mut report, "duplex_sweep", 6.0, true, duplex);
    report
}

/// The reliability sweep (`BENCH_fault.json`): wall time, per-BER tail
/// latencies and `ns_per_good_mb` (inverse goodput, so a goodput collapse
/// trips the regression check like a latency blow-up does), plus
/// allocations per BER point.
fn fault() -> BenchReport {
    let mut report = new_report(4);
    println!("== reliability sweep (7 BER points, {FAULT_REQUESTS} requests/workload) ==");
    let fault = |threads| {
        std::hint::black_box(run_fault_with_threads(threads, FAULT_REQUESTS, SEED));
    };
    serial_vs_4t(&mut report, "fault_sweep", 3, fault);

    // Simulated-quality figures: deterministic, so any change is a real
    // model change, not noise.
    let rows = run_fault_with_threads(1, FAULT_REQUESTS, SEED);
    println!("  per-BER quality figures (simulated, deterministic):");
    for r in &rows {
        let label = ber_label(r.ber);
        let chase_p999_ns = r.chase.p999 as f64 / 1e3;
        let fg_p999_ns = r.fg.p999 as f64 / 1e3;
        report.record(&format!("fault_chase_p999_ber{label}"), chase_p999_ns);
        report.record(&format!("fault_fg_p999_ber{label}"), fg_p999_ns);
        if r.goodput_gbps > 0.0 {
            report.record(
                &format!("fault_ns_per_good_mb_ber{label}"),
                1e6 / r.goodput_gbps,
            );
        }
        println!(
            "    ber {label:>5}: chase-p999 {chase_p999_ns:>9.1} ns   fg-p999 {fg_p999_ns:>9.1} ns   goodput {:>7.3} GB/s",
            r.goodput_gbps
        );
    }

    // Traced: gates churn regressions in the injector and retry-link
    // paths (the geometric gap sampler keeps this free of per-flit work).
    allocs_per_point(&mut report, "fault_sweep", 7.0, true, fault);
    report
}
/// The multi-device interleave sweep (`BENCH_fabric.json`): simulated
/// nanoseconds per MiB stored at every grid cell, plus the matched
/// interleave scaling ratios.
fn fabric() -> BenchReport {
    let mut report = new_report(1);
    let points = run_fabric_sweep_with_threads(1, DEFAULT_LINES);
    let mib = (DEFAULT_LINES as f64 * 64.0) / (1024.0 * 1024.0);

    println!("== fabric interleave sweep ({DEFAULT_LINES} lines) ==");
    let mut base_gbps = None;
    for p in &points {
        let name = format!("fabric_ns_per_mib_{}dev_{}way", p.devices, p.ways);
        let ns_per_mib = p.sim_ns / mib;
        report.record(&name, ns_per_mib);
        println!(
            "  {:<28} {:>12.0} ns/MiB   ({:.2} GB/s)",
            name, ns_per_mib, p.gbps
        );
        if p.devices == 1 && p.ways == 1 {
            base_gbps = Some(p.gbps);
        }
    }
    if let Some(base) = base_gbps {
        for p in points
            .iter()
            .filter(|p| p.ways as usize == p.devices && p.devices > 1)
        {
            let name = format!("fabric_speedup_{}dev_{}way", p.devices, p.ways);
            let ratio = p.gbps / base;
            report.record(&name, ratio);
            println!("  {:<28} {:>12.2} x", name, ratio);
        }
    }

    report
}

/// The multi-tenant serving sweep (`BENCH_serving.json`): wall time,
/// victim p999 of every row, the two isolation ratios, the QoS row's
/// `ns_per_good_mb`, plus allocations per sweep point.
fn serving() -> BenchReport {
    let mut report = new_report(4);
    let points = serving_points().len() as f64;
    println!("== multi-tenant serving sweep ({points} scenario rows) ==");
    let serving = |threads| {
        std::hint::black_box(run_serving_with_threads(threads, SEED));
    };
    serial_vs_4t(&mut report, "serving_sweep", 3, serving);
    // Simulated-quality figures: deterministic, so any change is a real
    // model change, not noise.
    let rows = run_serving_with_threads(1, SEED);
    let iso = rows.iter().find(|r| r.scenario == "isolated").unwrap();
    println!("  quality figures (simulated, deterministic):");
    for r in &rows {
        let p999_ns = r.victim.p999 as f64 / 1e3;
        let name = match r.scenario {
            "qos-ber" => format!("serving_victim_p999_ber{}", ber_label(r.ber)),
            s => format!("serving_victim_p999_{s}"),
        };
        report.record(&name, p999_ns);
        println!("    {:<32} {p999_ns:>9.1} ns", name);
    }
    let iso_p999 = iso.victim.p999 as f64;
    let qos = rows
        .iter()
        .find(|r| r.scenario == "antagonist-qos")
        .unwrap();
    let noqos = rows
        .iter()
        .find(|r| r.scenario == "antagonist-noqos")
        .unwrap();
    // The QoS guarantee as a tracked ratio: qos-on damage relative to
    // isolated (gate: <= 2.0 with margin under the default tolerance).
    report.record("serving_qos_p999_ratio", qos.victim.p999 as f64 / iso_p999);
    // And the inverse of the noqos blow-up, so *less* degradation with
    // QoS off (antagonist no longer hurting = model change) also trips.
    report.record(
        "serving_noqos_p999_inverse_ratio",
        iso_p999 / noqos.victim.p999 as f64,
    );
    println!(
        "    qos ratio {:.3}   noqos ratio {:.1}x",
        qos.victim.p999 as f64 / iso_p999,
        noqos.victim.p999 as f64 / iso_p999
    );
    if qos.victim_goodput_gbps > 0.0 {
        report.record("serving_ns_per_good_mb_qos", 1e6 / qos.victim_goodput_gbps);
    }

    // Traced: per-tenant keys are interned at build time, so the fleet
    // op path allocates nothing.
    allocs_per_point(&mut report, "serving_sweep", points, true, serving);
    report
}

/// The adaptive-bias ablation (`BENCH_bias.json`): the adaptive policy's
/// mean ns/op per H2D fraction and on the duplex split, `ns_per_good_mb`
/// on the degraded BER rungs, and the ablation's headline ratios.
fn bias() -> BenchReport {
    let mut report = new_report(1);

    println!("== adaptive-bias ablation ({BIAS_REQUESTS} requests/stream) ==");
    let wall = time_min(2, || {
        std::hint::black_box(run_bias_with_threads(1, BIAS_REQUESTS, SEED));
    });
    println!("  wall (serial, untracked) {:>12.0} ns", wall);

    let ablation = run_bias_with_threads(1, BIAS_REQUESTS, SEED);
    for r in &ablation.crossover {
        let name = format!("bias_adaptive_ns_h2d{:02}", (r.h2d_fraction * 100.0) as u64);
        report.record(&name, r.adaptive.mean_ns);
        println!(
            "  {:<28} {:>9.1} ns/op   (oracle {:>7.1})",
            name,
            r.adaptive.mean_ns,
            r.oracle_ns()
        );
    }
    let duplex = &ablation.duplex[2].out;
    report.record("bias_adaptive_ns_duplex", duplex.mean_ns);
    println!(
        "  {:<28} {:>9.1} ns/op",
        "bias_adaptive_ns_duplex", duplex.mean_ns
    );
    for r in &ablation.ladder {
        if r.ber > 0.0 && r.adaptive.goodput_gbps > 0.0 {
            let name = format!("bias_ns_per_good_mb_ber{}", ber_label(r.ber));
            report.record(&name, 1e6 / r.adaptive.goodput_gbps);
            println!(
                "  {:<28} {:>9.3} GB/s   (degraded {})",
                name, r.adaptive.goodput_gbps, r.adaptive.degraded
            );
        }
    }

    // Headline ablation ratios, gated via `speedup_gates` in
    // BENCH_GATES.json: feedback control must beat committing to the
    // wrong static bias on both sides of the crossover, and fault-aware
    // degradation must out-earn static device bias on a noisy link.
    let first = ablation.crossover.first().unwrap();
    let last = ablation.crossover.last().unwrap();
    report.record(
        "bias_adaptive_speedup_d2d_heavy",
        first.worst_static_ns() / first.adaptive.mean_ns,
    );
    report.record(
        "bias_adaptive_speedup_h2d_heavy",
        last.worst_static_ns() / last.adaptive.mean_ns,
    );
    let rung = ablation
        .ladder
        .iter()
        .find(|r| r.ber == 1e-5)
        .expect("ladder sweeps 1e-5");
    report.record(
        "bias_degraded_goodput_speedup_1e-5",
        rung.adaptive.goodput_gbps / rung.static_device.goodput_gbps,
    );
    for name in [
        "bias_adaptive_speedup_d2d_heavy",
        "bias_adaptive_speedup_h2d_heavy",
        "bias_degraded_goodput_speedup_1e-5",
    ] {
        println!("  {:<34} {:>7.2} x", name, report.get(name).unwrap());
    }

    report
}

/// One baseline-vs-fresh comparison from the gates file.
struct Check {
    baseline: String,
    fresh: String,
    tolerance: f64,
}

/// One minimum-ratio gate on a fresh report.
struct SpeedupGate {
    fresh: String,
    scenario: String,
    min: f64,
}

/// Extracts `"key":value` (string or number operand) from a JSON line.
fn field(line: &str, key: &str) -> Option<String> {
    let (_, rest) = line.split_once(&format!("\"{key}\":"))?;
    let rest = rest.trim_start();
    if let Some(stripped) = rest.strip_prefix('"') {
        stripped.split('"').next().map(str::to_string)
    } else {
        rest.split([',', '}']).next().map(|v| v.trim().to_string())
    }
}

/// Parses the gates config: line-oriented like the bench reports (no
/// serde in this tree). A line with a `"baseline"` field is a check
/// entry; a line with a `"scenario"` field is a speedup gate.
fn parse_gates(text: &str) -> Result<(Vec<Check>, Vec<SpeedupGate>), String> {
    let mut checks = Vec::new();
    let mut gates = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.contains("\"baseline\"") {
            checks.push(Check {
                baseline: field(line, "baseline")
                    .ok_or_else(|| format!("bad check entry: {line}"))?,
                fresh: field(line, "fresh").ok_or_else(|| format!("bad check entry: {line}"))?,
                tolerance: field(line, "tolerance")
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| format!("bad tolerance in: {line}"))?,
            });
        } else if line.contains("\"scenario\"") {
            gates.push(SpeedupGate {
                fresh: field(line, "fresh").ok_or_else(|| format!("bad gate entry: {line}"))?,
                scenario: field(line, "scenario")
                    .ok_or_else(|| format!("bad gate entry: {line}"))?,
                min: field(line, "min")
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| format!("bad min in: {line}"))?,
            });
        }
    }
    Ok((checks, gates))
}

fn load(path: &str) -> BenchReport {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    BenchReport::from_json(&text).unwrap_or_else(|e| panic!("cannot parse {path}: {e}"))
}

/// `cxl-bench check`: walks the gates file's `checks` (baseline, fresh
/// report, per-file tolerance) and `speedup_gates` (fresh report,
/// scenario, minimum ratio) and reports every regression; returns
/// whether the run passes.
///
/// A baseline captured on a different core count than the fresh report
/// is **refused**: its wall-clock figures would gate apples against
/// oranges. A refused pair is skipped with a warning telling the
/// maintainer to re-baseline; `strict` turns refusals into failures.
/// Speedup gates come from the fresh reports only, so they hold
/// regardless of where the baselines were captured — but on a runner
/// with fewer than 2 cores the ratios measure timeslicing, so they are
/// skipped with a warning.
pub fn check(gates_path: &str, strict: bool) -> bool {
    let gates_text = std::fs::read_to_string(gates_path)
        .unwrap_or_else(|e| panic!("cannot read {gates_path}: {e}"));
    let (checks, speedups) = parse_gates(&gates_text).expect("parse gates config");

    let mut failures = 0u32;
    let mut refusals = 0u32;

    for c in &checks {
        let baseline = load(&c.baseline);
        let fresh = load(&c.fresh);
        match fresh.comparable(&baseline) {
            Err(why) => {
                eprintln!("REFUSED {} vs {}: {why}", c.fresh, c.baseline);
                refusals += 1;
            }
            Ok(()) => {
                let regs = fresh.regressions(&baseline, c.tolerance);
                if regs.is_empty() {
                    println!(
                        "ok {} vs {} ({} tracked scenarios within {:.0}%)",
                        c.fresh,
                        c.baseline,
                        baseline
                            .scenarios
                            .iter()
                            .filter(|s| !s.name.contains("speedup"))
                            .count(),
                        c.tolerance * 100.0
                    );
                } else {
                    for r in &regs {
                        eprintln!(
                            "REGRESSION {} ({}): {:.0} -> {:.0} ({:.2}x, tolerance {:.0}%)",
                            r.name,
                            c.baseline,
                            r.baseline_ns,
                            r.current_ns,
                            r.ratio,
                            c.tolerance * 100.0
                        );
                    }
                    failures += regs.len() as u32;
                }
            }
        }
    }

    let cores = host_cores();
    if cores < 2 {
        println!(
            "WARNING: {cores}-core runner; {} speedup gate(s) skipped \
             (ratios reflect timeslicing, not parallelism)",
            speedups.len()
        );
    } else {
        for g in &speedups {
            let fresh = load(&g.fresh);
            match fresh.get(&g.scenario) {
                Some(ratio) if ratio >= g.min => {
                    println!("ok {} = {ratio:.3}x (>= {:.1}x)", g.scenario, g.min);
                }
                Some(ratio) => {
                    eprintln!(
                        "SPEEDUP FAIL {} = {ratio:.3}x < {:.1}x on a {cores}-core runner",
                        g.scenario, g.min
                    );
                    failures += 1;
                }
                None => {
                    eprintln!(
                        "SPEEDUP FAIL {}: scenario missing from {}",
                        g.scenario, g.fresh
                    );
                    failures += 1;
                }
            }
        }
    }

    if refusals > 0 {
        eprintln!(
            "{refusals} baseline(s) refused (core-count mismatch): re-baseline with \
             `cxl-bench bench <name> --out` on this runner class{}",
            if strict {
                ""
            } else {
                " — not failing without --strict"
            }
        );
    }
    failures == 0 && !(strict && refusals > 0)
}
