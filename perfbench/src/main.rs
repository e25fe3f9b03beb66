//! The repository benchmark: host (simulator) wall time of four sweeps,
//! end to end and split across the simulator's layers.
//!
//! ```text
//! perfbench --workload <fig8-zswap|fig8-ksm|serving|fig4-d2d|all>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace
//! 1` runs the benchmark's own harness with a span around every call into
//! a layer and reports the per-layer split. Both check every output and
//! print, last, one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. A failed check exits with status 1. See `README.md`.

mod fig4;
mod fig8;
mod serving;
mod span;

use std::collections::{BTreeMap, HashMap};
use std::fmt::Debug;
use std::sync::Mutex;
use std::time::Instant;

use sim_core::sweep;

use crate::span::{allocs, set_tracing, take_ledger, LAYERS};

#[global_allocator]
static GLOBAL: span::CountingAlloc = span::CountingAlloc;

const WORKLOADS: [&str; 4] = ["fig8-zswap", "fig8-ksm", "serving", "fig4-d2d"];

/// Exact counts of what a sweep exercised (requests, swap-outs, merges,
/// fleet ops, D2D lines …), summed over its points.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Shape(BTreeMap<&'static str, u64>);

impl Shape {
    pub fn add(&mut self, key: &'static str, n: u64) {
        *self.0.entry(key).or_default() += n;
    }
}

/// One benchmark workload: a sweep of points the program can run one by
/// one and as a whole, plus the benchmark's own harness of each point.
pub trait Workload: Sync {
    /// One point's simulated output.
    type Out: Clone + PartialEq + Debug + Send;

    /// The work unit `ops_per_s` counts.
    fn unit(&self) -> &'static str;
    fn points(&self) -> usize;
    /// The seed each point runs with.
    fn point_seeds(&self) -> Vec<u64>;
    /// Point `i` through the program's per-point function; invariant
    /// violations go to `fails`.
    fn run_point(&self, i: usize, fails: &mut Vec<String>) -> Self::Out;
    /// The whole sweep through the program's entry point.
    fn run_sweep(&self, threads: usize) -> Vec<Self::Out>;
    /// The program's serial sweep, for workloads whose per-point function
    /// is the benchmark's harness: throughput and allocations are then
    /// measured on this instead.
    fn run_serial_sweep(&self) -> Option<Vec<Self::Out>> {
        None
    }
    /// Builds whatever the harness needs beyond the program's set-up.
    fn prepare_harness(&mut self) {}
    /// Point `i` through the benchmark's harness (spans recorded when
    /// tracing is on).
    fn harness_point(&self, i: usize, shape: &mut Shape) -> Self::Out;
    /// Work units point `i` completed.
    fn units(&self, i: usize, out: &Self::Out) -> u64;
    /// The simulated figures of a sweep, one line per point.
    fn digest(&self, outs: &[Self::Out]) -> Vec<String>;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.unwrap_or(25.0);
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let seed = args.seed;
    let code = match args.workload.as_str() {
        "all" => run_all(&args),
        "fig8-zswap" => bench(&args, || fig8::Fig8::setup(fig8::Feature::Zswap, seed)),
        "fig8-ksm" => bench(&args, || fig8::Fig8::setup(fig8::Feature::Ksm, seed)),
        "serving" => bench(&args, || serving::Serving::setup(seed)),
        _ => bench(&args, || fig4::Fig4::setup(seed)),
    };
    std::process::exit(code);
}

// ---------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The nearest-rank `q`-th percentile of `v`.
fn percentile(v: &[f64], q: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let k = ((q / 100.0 * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[k - 1]
}

/// The highest percentile (0.1 steps, at least p50) with at least ten
/// samples beyond it.
fn tail_level(n: usize) -> f64 {
    if n < 20 {
        return 50.0;
    }
    ((1000.0 * (n - 10) as f64 / n as f64).floor() / 10.0).max(50.0)
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

// ---------------------------------------------------------------------
// Output checks
// ---------------------------------------------------------------------

/// Checked point results: each point is one attempt, failed when any of
/// its checks failed.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    messages: Vec<String>,
    passed: BTreeMap<&'static str, u64>,
}

impl Checks {
    /// Records one checked point: `violations` of the program's own
    /// invariants plus an equality against `expect`.
    fn point<T: PartialEq + Debug>(
        &mut self,
        what: &'static str,
        i: usize,
        got: &T,
        expect: &T,
        violations: Vec<String>,
    ) {
        let mut bad = violations;
        if got != expect {
            bad.push(format!("{what}: point {i} differs: {got:?} != {expect:?}"));
        }
        self.record(what, bad);
    }

    /// Records one checked point that failed with `bad` (passed if empty).
    fn record(&mut self, what: &'static str, bad: Vec<String>) {
        self.attempted += 1;
        if bad.is_empty() {
            *self.passed.entry(what).or_default() += 1;
        } else {
            self.failed += 1;
            self.messages.extend(bad);
        }
    }

    fn report(&self) {
        if !self.passed.is_empty() {
            let passed: Vec<String> = self
                .passed
                .iter()
                .map(|(k, n)| format!("{k}={n}"))
                .collect();
            println!("checks passed: {}", passed.join(" "));
        }
        for m in self.messages.iter().take(10) {
            eprintln!("CHECK FAILED {m}");
        }
        println!(
            "check_fail_frac {} ({} of {} checked points failed)",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
    }
}

// ---------------------------------------------------------------------
// Result output
// ---------------------------------------------------------------------

struct Metric {
    name: String,
    value: f64,
    unit: String,
}

fn metric(name: impl Into<String>, value: f64, unit: impl Into<String>) -> Metric {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit: unit.into(),
    }
}

fn emit(checks: &Checks, metrics: &[Metric]) -> i32 {
    for m in metrics {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    checks.report();
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    let correct = checks.failed == 0 && checks.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.attempted.max(1),
        checks.failed,
        body.join(", ")
    );
    if correct {
        0
    } else {
        1
    }
}

fn print_meta(args: &Args, w: &impl Workload, threads: usize, rounds: usize) {
    let seeds: Vec<String> = w.point_seeds().iter().map(u64::to_string).collect();
    println!(
        "meta {{\"workload\": \"{}\", \"unit\": \"{}\", \"nproc\": {}, \"worker_threads\": {threads}, \
         \"seed\": {}, \"points\": {}, \"point_seeds\": [{}], \"run_seconds\": {}, \"rounds\": {rounds}, \
         \"commit\": \"{}\", \"tracing\": {}}}",
        args.workload,
        w.unit(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        args.seed,
        w.points(),
        seeds.join(", "),
        args.seconds,
        commit(),
        args.trace
    );
}

fn print_shape(shape: &Shape) {
    let parts: Vec<String> = shape.0.iter().map(|(k, n)| format!("{k}={n}")).collect();
    println!("shape (per sweep) {}", parts.join(" "));
}

// ---------------------------------------------------------------------
// The runs
// ---------------------------------------------------------------------

fn bench<W: Workload>(args: &Args, setup: impl Fn() -> W) -> i32 {
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let t = Instant::now();
    let mut w = setup();
    let setup_s = t.elapsed().as_secs_f64();
    let threads = sweep::max_threads();
    if args.trace {
        traced(args, &mut w, threads)
    } else {
        untraced(args, &mut w, threads, setup_s, setup)
    }
}

/// Runs the harness once over every point (spans off), checking each
/// against `expect`; returns the shape counts.
fn harness_pass<W: Workload>(w: &W, expect: &[W::Out], checks: &mut Checks) -> Shape {
    let mut shape = Shape::default();
    for (i, e) in expect.iter().enumerate() {
        let got = w.harness_point(i, &mut shape);
        checks.point("harness==entry", i, &got, e, Vec::new());
    }
    shape
}

fn print_digest_lines<W: Workload>(w: &W, outs: &[W::Out]) {
    let lines = w.digest(outs);
    let hash = lines.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, l| {
        l.bytes()
            .fold(h, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    });
    println!("digest fnv1a={hash:016x} (simulated outputs, not gated)");
    for l in lines {
        println!("digest {l}");
    }
}

/// Set-ups timed per run: the first, then the rest spread evenly over
/// the timed loop so they sample the host's quiet and busy spells alike.
const SETUP_SAMPLES: usize = 12;

fn untraced<W: Workload>(
    args: &Args,
    w: &mut W,
    threads: usize,
    setup_s: f64,
    setup: impl Fn() -> W,
) -> i32 {
    let p = w.points();
    let mut checks = Checks::default();
    let mut first: Vec<W::Out> = Vec::with_capacity(p);
    let mut setups = vec![setup_s];
    // Host ms of every run of every point, by point.
    let mut point_ms: Vec<Vec<f64>> = vec![Vec::new(); p];
    let mut serial_entry_s = Vec::new();
    let mut pool_s = Vec::new();
    let mut units = 0;
    let (mut counted_allocs, mut counted_sweeps) = (0u64, 0u64);
    let mut serial_rss_mb = 0.0;
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < 2 || start.elapsed().as_secs_f64() < args.seconds {
        let round_start = Instant::now();
        let a0 = allocs();
        for (i, times) in point_ms.iter_mut().enumerate() {
            let mut fails = Vec::new();
            let t = Instant::now();
            let out = w.run_point(i, &mut fails);
            times.push(t.elapsed().as_secs_f64() * 1e3);
            if rounds == 0 {
                units += w.units(i, &out);
                checks.record("invariants", fails);
                first.push(out);
            } else {
                checks.point("same-seed-twice", i, &out, &first[i], fails);
            }
        }
        let mut sweep_allocs = allocs() - a0;
        let a0 = allocs();
        let t = Instant::now();
        if let Some(outs) = w.run_serial_sweep() {
            serial_entry_s.push(t.elapsed().as_secs_f64());
            sweep_allocs = allocs() - a0;
            for (i, o) in outs.iter().enumerate() {
                checks.point("serial-entry==point", i, o, &first[i], Vec::new());
            }
        }
        if rounds == 0 {
            serial_rss_mb = peak_rss_mb();
        } else {
            counted_allocs += sweep_allocs;
            counted_sweeps += 1;
        }
        // Pool sweeps take as long as the serial pass did, at least one. A
        // pool sweep needs every core at once, so its best time depends on
        // catching the whole host quiet and needs as many tries as the
        // serial points get.
        let serial_pass_s = round_start.elapsed().as_secs_f64();
        let mut pooled_s = 0.0;
        while pooled_s < serial_pass_s {
            let t = Instant::now();
            let outs = w.run_sweep(threads);
            let dt = t.elapsed().as_secs_f64();
            pool_s.push(dt);
            pooled_s += dt;
            for (i, o) in outs.iter().enumerate() {
                checks.point("pool==serial", i, o, &first[i], Vec::new());
            }
        }
        rounds += 1;
        let due = setups.len() as f64 * args.seconds / SETUP_SAMPLES as f64;
        if setups.len() < SETUP_SAMPLES && start.elapsed().as_secs_f64() >= due {
            let t = Instant::now();
            drop(setup());
            setups.push(t.elapsed().as_secs_f64());
        }
    }

    w.prepare_harness();
    let shape = harness_pass(w, &first, &mut checks);

    print_meta(args, w, threads, rounds);
    print_shape(&shape);
    print_digest_lines(w, &first);

    // Each point's host time is its best of the run's rounds: on a shared
    // host the slower repetitions measure the neighbours, not the code.
    let best_ms: Vec<f64> = point_ms
        .iter()
        .map(|v| v.iter().copied().fold(f64::INFINITY, f64::min))
        .collect();
    let serial_s = match serial_entry_s.iter().copied().reduce(f64::min) {
        Some(s) => s,
        None => best_ms.iter().sum::<f64>() / 1e3,
    };
    let all_ms: Vec<f64> = point_ms.concat();
    let tail = tail_level(all_ms.len());
    println!(
        "work unit: {}; {units} per sweep; {rounds} rounds of {p} points; {} set-ups",
        w.unit(),
        setups.len()
    );
    println!(
        "point_ms over all {} runs (not gated): p50 {} p{tail} {}",
        all_ms.len(),
        median(&all_ms),
        percentile(&all_ms, tail)
    );
    println!(
        "pool_ms over all {} pool sweeps (not gated): p50 {}",
        pool_s.len(),
        median(&pool_s) * 1e3
    );
    println!(
        "point_ms_max (not gated): {} (the slowest point's best time)",
        best_ms.iter().copied().fold(0.0, f64::max)
    );
    let metrics = [
        metric("setup_s", median(&setups), "s"),
        metric("ops_per_s", units as f64 / serial_s, "1/s"),
        metric(
            "wall_s_pool",
            pool_s.iter().copied().fold(f64::INFINITY, f64::min),
            "s",
        ),
        metric("point_ms_p50", median(&best_ms), "ms"),
        metric(
            "allocs_per_op",
            counted_allocs as f64 / (counted_sweeps * units.max(1)) as f64,
            "count",
        ),
        metric("peak_rss_mb", serial_rss_mb, "MB"),
    ];
    emit(&checks, &metrics)
}

fn traced<W: Workload>(args: &Args, w: &mut W, threads: usize) -> i32 {
    let p = w.points();
    w.prepare_harness();
    let mut checks = Checks::default();
    let mut first: Vec<W::Out> = Vec::with_capacity(p);
    let mut shape = Shape::default();
    let (mut traced_ms, mut plain_ms) = (Vec::new(), Vec::new());
    let (mut busy_ns, mut idle_ns, mut pool_ns, mut traced_ns) = (0u64, 0u64, 0u64, 0u64);
    let mut worker_lines = Vec::new();
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < 2 || start.elapsed().as_secs_f64() < args.seconds {
        // Tracing off, through the program's per-point function: the
        // reference the tracing overhead is measured against.
        let t = Instant::now();
        for i in 0..p {
            let mut fails = Vec::new();
            let out = w.run_point(i, &mut fails);
            if rounds == 0 {
                checks.record("invariants", fails);
                first.push(out);
            } else {
                checks.point("same-seed-twice", i, &out, &first[i], fails);
            }
        }
        plain_ms.push(t.elapsed().as_secs_f64() * 1e3);

        // The same points through the harness, spans on.
        let mut round_shape = Shape::default();
        set_tracing(true);
        let t = Instant::now();
        for (i, e) in first.iter().enumerate() {
            let got = w.harness_point(i, &mut round_shape);
            checks.point("harness==entry", i, &got, e, Vec::new());
        }
        let sweep_ns = t.elapsed().as_nanos() as u64;
        set_tracing(false);
        traced_ms.push(sweep_ns as f64 / 1e6);
        traced_ns += sweep_ns;
        shape = round_shape;

        // The sweep pool, with each worker's busy time.
        let busy: Mutex<HashMap<std::thread::ThreadId, u64>> = Mutex::new(HashMap::new());
        let t = Instant::now();
        let outs = sweep::run_with_threads(threads, p, |i| {
            let t = Instant::now();
            let mut fails = Vec::new();
            let out = w.run_point(i, &mut fails);
            let ns = t.elapsed().as_nanos() as u64;
            *busy
                .lock()
                .expect("busy lock")
                .entry(std::thread::current().id())
                .or_default() += ns;
            (out, fails)
        });
        let wall = t.elapsed().as_nanos() as u64;
        for (i, (o, fails)) in outs.into_iter().enumerate() {
            checks.point("pool==serial", i, &o, &first[i], fails);
        }
        let busy = busy.into_inner().expect("busy lock");
        let workers = threads.clamp(1, p) as u64;
        let total_busy: u64 = busy.values().sum();
        busy_ns += total_busy;
        idle_ns += (wall * workers).saturating_sub(total_busy);
        pool_ns += wall;
        if rounds == 0 {
            worker_lines = busy
                .values()
                .enumerate()
                .map(|(k, b)| format!("w{k}: busy_ns={b} idle_ns={}", wall.saturating_sub(*b)))
                .collect();
        }
        rounds += 1;
    }

    print_meta(args, w, threads, rounds);
    print_shape(&shape);
    print_digest_lines(w, &first);
    println!("sweep pool (first round) {}", worker_lines.join("  "));

    let ledger = take_ledger();
    let harness_ns = traced_ns.saturating_sub(ledger.spanned_ns);
    let r = rounds as f64;
    let per = |x: u64| x as f64 / r;
    let mut metrics = Vec::new();
    let mut top = ("harness", per(harness_ns));
    for ((_, name, extra), s) in LAYERS.iter().zip(ledger.layers.iter()) {
        metrics.push(metric(format!("{name}.calls"), per(s.calls), "count"));
        metrics.push(metric(format!("{name}.self_ns"), per(s.self_ns), "ns"));
        metrics.push(metric(
            format!("{name}.allocs"),
            per(s.self_allocs),
            "count",
        ));
        for (slot, count_name) in extra.iter().enumerate() {
            if !count_name.is_empty() {
                let unit = if *count_name == "bytes" { "B" } else { "count" };
                metrics.push(metric(
                    format!("{name}.{count_name}"),
                    per(s.counts[slot]),
                    unit,
                ));
            }
        }
        if per(s.self_ns) > top.1 {
            top = (name, per(s.self_ns));
        }
    }
    let traced_sweep = median(&traced_ms);
    let plain_sweep = median(&plain_ms);
    let workers = threads.clamp(1, p) as f64;
    metrics.push(metric("harness.self_ns", per(harness_ns), "ns"));
    metrics.push(metric(
        "sim_core.sweep.self_ns",
        per(pool_ns) - per(busy_ns) / workers,
        "ns",
    ));
    metrics.push(metric("sim_core.sweep.busy_ns", per(busy_ns), "ns"));
    metrics.push(metric("sim_core.sweep.idle_ns", per(idle_ns), "ns"));
    metrics.push(metric(
        "sim_core.sweep.efficiency",
        busy_ns as f64 / (workers * pool_ns as f64),
        "ratio",
    ));
    metrics.push(metric("trace.sweep_ms", traced_sweep, "ms"));
    metrics.push(metric(
        "trace.overhead_ms",
        traced_sweep - plain_sweep,
        "ms",
    ));
    metrics.push(metric(
        "trace.overhead_frac",
        (traced_sweep - plain_sweep) / plain_sweep,
        "ratio",
    ));
    println!(
        "per-layer figures are per sweep ({p} points), averaged over {rounds} traced sweeps; \
         top layer: {} ({:.1}% of the traced sweep)",
        top.0,
        100.0 * top.1 / (traced_sweep * 1e6)
    );
    emit(&checks, &metrics)
}

// ---------------------------------------------------------------------
// `--workload all`: every workload in a process of its own
// ---------------------------------------------------------------------

fn run_all(args: &Args) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return 1;
        }
    };
    let mut checks = Checks::default();
    let mut metrics = Vec::new();
    for name in WORKLOADS {
        let out = std::process::Command::new(&exe)
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .stderr(std::process::Stdio::inherit())
            .output();
        let out = match out {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench: cannot run {name}: {e}");
                return 1;
            }
        };
        let text = String::from_utf8_lossy(&out.stdout);
        let lines: Vec<&str> = text.lines().collect();
        for l in &lines[..lines.len().saturating_sub(1)] {
            println!("{l}");
            let mut f = l.split_whitespace();
            if f.next() == Some("metric") {
                if let (Some(n), Some(v), Some(u)) = (f.next(), f.next(), f.next()) {
                    metrics.push(metric(format!("{name}.{n}"), v.parse().unwrap_or(0.0), u));
                }
            }
        }
        let result = lines.last().copied().unwrap_or_default();
        let failed = json_u64(result, "failed");
        checks.attempted += json_u64(result, "attempted");
        checks.failed += failed;
        if !out.status.success() && failed == 0 {
            checks.record(
                "workload-exit",
                vec![format!("{name} exited with {}", out.status)],
            );
        }
        println!();
    }
    println!("perfbench all: {} workloads", WORKLOADS.len());
    emit(&checks, &metrics)
}

/// The whole number after `"key": ` in a result line (0 when absent).
fn json_u64(line: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\": ");
    line.find(&pat)
        .map(|at| &line[at + pat.len()..])
        .and_then(|rest| {
            rest.split(|c: char| !c.is_ascii_digit())
                .next()?
                .parse()
                .ok()
        })
        .unwrap_or(0)
}
