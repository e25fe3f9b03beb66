//! Deterministic parallel sweep execution.
//!
//! Figure sweeps are embarrassingly parallel: every point builds its own
//! [`EventQueue`](crate::event::EventQueue), port engines, and RNG, and
//! the tracer is thread-local. [`run_with_threads`] fans the points of a sweep across
//! a scoped worker pool and reassembles results — values, trace events,
//! and eviction accounting — **in point order**, so the observable output
//! is byte-identical to running the same points serially on one thread.
//!
//! # Determinism
//!
//! Three properties make the parallel path indistinguishable from the
//! serial one:
//!
//! 1. Each point is a pure function of its index (callers derive
//!    per-point RNG streams via [`point_seed`]), so values don't depend
//!    on which worker ran the point or when.
//! 2. Each worker installs **one** private tracer ring of the caller's
//!    capacity and reuses it for every point it claims: between points
//!    `trace::take_point` hands the capture out by ownership transfer
//!    and rewinds the ring in place. After the pool joins, the captures
//!    are `absorbed` into the caller's
//!    ring in point order — adopting chunk buffers instead of copying
//!    events — reproducing the exact retained window, sequence numbers,
//!    and dropped counts of serial execution.
//! 3. Results are collected by index into pre-allocated slots, not in
//!    completion order.
//!
//! Every sweep takes its thread count as an argument; `threads = 1` is
//! the legacy serial path, which runs every point inline on the caller's
//! thread. Only entry points read the `CXL_SIM_THREADS` environment
//! variable (see [`max_threads`]): the `cxl-bench repro` driver sizes
//! every harness from it, and CI's determinism job compares each harness
//! at `CXL_SIM_THREADS=1` and `=4`.
//!
//! # Examples
//!
//! ```
//! use sim_core::sweep;
//!
//! let squares = sweep::run_with_threads(4, 8, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

use crate::rng::splitmix64;
use crate::trace::{self, PointCapture};

/// Opt-in per-stage wall-clock breakdown of sweep execution.
///
/// When enabled (`cxl-bench repro --profile` flips it on),
/// the sweep runner and the harnesses attribute wall time to four
/// stages:
///
/// * **setup** — per-point construction work (sockets, devices,
///   datasets), tagged by harness code via [`scope`](profile::scope);
/// * **events** — the whole point closure, measured by the runner;
///   setup and report tagged *inside* a point are nested within
///   it, so the rendered report also derives an exclusive figure;
/// * **trace-splice** — reassembling worker trace captures in point
///   order after the pool joins;
/// * **report** — report assembly once a point's events have run: the
///   traffic scheduler's per-flow `FlowStats`, and any harness reduction
///   tagged with it.
///
/// Totals are process-wide relaxed atomics: workers add from any
/// thread, and [`take`](profile::take) drains the accumulated report. Disabled, every
/// hook is a single relaxed load — the hot path stays hot. Wall-clock
/// numbers are diagnostics only; nothing simulated depends on them.
pub mod profile {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::time::Instant;

    /// A profiled execution stage.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Stage {
        /// Per-point construction (harness-tagged).
        Setup,
        /// The whole point closure (runner-tagged).
        Events,
        /// Post-join trace capture reassembly (runner-tagged).
        TraceSplice,
        /// Report assembly after a run (library/harness-tagged).
        Report,
    }

    impl Stage {
        /// Stable display names, report order.
        pub(crate) const ALL: [Stage; 4] = [
            Stage::Setup,
            Stage::Events,
            Stage::TraceSplice,
            Stage::Report,
        ];

        /// The stage's report label.
        pub(crate) fn name(self) -> &'static str {
            match self {
                Stage::Setup => "setup",
                Stage::Events => "events",
                Stage::TraceSplice => "trace-splice",
                Stage::Report => "report",
            }
        }
    }

    static ENABLED: AtomicBool = AtomicBool::new(false);
    static TOTALS_NS: [AtomicU64; 4] = [
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
    ];
    static POINTS: AtomicU64 = AtomicU64::new(0);
    /// Wall time of non-`Events` scopes that ran *inside* an `Events`
    /// scope (outermost of their kind only). This — not the global
    /// stage totals — is what must be subtracted to get exclusive
    /// events time: a `Setup` span tagged outside the run closure (a
    /// shared dataset build, say) is not nested and must not be.
    static NESTED_IN_EVENTS_NS: AtomicU64 = AtomicU64::new(0);

    thread_local! {
        /// Depth of live `Events` scopes on this worker thread.
        static EVENTS_DEPTH: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
        /// Depth of live non-`Events` scopes on this worker thread
        /// (so a `Setup` inside a `Setup` is only counted once).
        static NESTED_DEPTH: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
    }

    /// Globally enables or disables stage accounting.
    pub fn set_enabled(on: bool) {
        ENABLED.store(on, Ordering::Relaxed);
    }

    /// True if stage accounting is on.
    #[inline]
    pub fn enabled() -> bool {
        ENABLED.load(Ordering::Relaxed)
    }

    /// Runs `f`, attributing its wall time to `stage` when profiling is
    /// enabled. Nested scopes each record their own full span; a
    /// non-`Events` scope that runs inside an `Events` scope is
    /// additionally tallied into the nested-in-events total the render
    /// subtracts to derive exclusive events time.
    #[inline]
    pub fn scope<T>(stage: Stage, f: impl FnOnce() -> T) -> T {
        if !enabled() {
            return f();
        }
        let in_events = EVENTS_DEPTH.with(|d| d.get() > 0);
        let outermost_nested = if stage == Stage::Events {
            EVENTS_DEPTH.with(|d| d.set(d.get() + 1));
            false
        } else {
            NESTED_DEPTH.with(|d| {
                let depth = d.get();
                d.set(depth + 1);
                depth == 0
            })
        };
        let begin = Instant::now();
        let out = f();
        let elapsed = begin.elapsed().as_nanos() as u64;
        TOTALS_NS[stage as usize].fetch_add(elapsed, Ordering::Relaxed);
        if stage == Stage::Events {
            EVENTS_DEPTH.with(|d| d.set(d.get() - 1));
        } else {
            NESTED_DEPTH.with(|d| d.set(d.get() - 1));
            if outermost_nested && in_events {
                NESTED_IN_EVENTS_NS.fetch_add(elapsed, Ordering::Relaxed);
            }
        }
        out
    }

    /// Counts one completed sweep point (for the ns/point column).
    pub(super) fn note_point() {
        if enabled() {
            POINTS.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A drained snapshot of the accumulated stage totals.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct ProfileReport {
        /// Total ns per stage, indexed like `Stage::ALL`.
        pub(crate) ns: [u64; 4],
        /// Of the non-`Events` totals, the ns spent nested inside
        /// `Events` scopes (outermost of their kind only).
        pub(crate) nested_ns: u64,
        /// Sweep points completed while profiling was enabled.
        pub(crate) points: u64,
    }

    /// Drains the totals accumulated since the last `take` and resets
    /// them to zero.
    pub fn take() -> ProfileReport {
        let mut ns = [0u64; 4];
        for (slot, total) in ns.iter_mut().zip(&TOTALS_NS) {
            *slot = total.swap(0, Ordering::Relaxed);
        }
        ProfileReport {
            ns,
            nested_ns: NESTED_IN_EVENTS_NS.swap(0, Ordering::Relaxed),
            points: POINTS.swap(0, Ordering::Relaxed),
        }
    }

    impl ProfileReport {
        /// Renders the per-stage table: total ns, ns/point, plus the
        /// events figure with the *nested* setup/report time
        /// subtracted out. Only spans that actually ran inside the run
        /// closure count as nested — a `Setup` span tagged outside it
        /// (a shared dataset build, say) leaves exclusive events time
        /// untouched.
        pub fn render(&self) -> String {
            use core::fmt::Write as _;
            let points = self.points.max(1);
            let mut out = String::from("sweep profile (wall clock):\n");
            for stage in Stage::ALL {
                let total = self.ns[stage as usize];
                let _ = writeln!(
                    out,
                    "  {:<14} {:>14} ns  {:>12} ns/point",
                    stage.name(),
                    total,
                    total / points
                );
            }
            let events = self.ns[Stage::Events as usize].saturating_sub(self.nested_ns);
            let _ = writeln!(
                out,
                "  {:<14} {:>14} ns  {:>12} ns/point",
                "events (excl.)",
                events,
                events / points
            );
            let _ = writeln!(out, "  points: {}", self.points);
            out
        }
    }
}

/// Environment variable overriding the worker-pool size.
pub(crate) const THREADS_ENV: &str = "CXL_SIM_THREADS";

/// The sweep worker-pool size: `CXL_SIM_THREADS` if set (values that
/// don't parse as a positive integer force the serial path), otherwise
/// [`std::thread::available_parallelism`].
pub fn max_threads() -> usize {
    match std::env::var(THREADS_ENV) {
        Ok(v) => v
            .trim()
            .parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .unwrap_or(1),
        Err(_) => thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    }
}

/// Derives a statistically independent per-point seed from a sweep seed
/// and a point index, so parallel points never share an RNG stream and
/// the derivation is stable across thread counts.
pub fn point_seed(seed: u64, index: usize) -> u64 {
    splitmix64(seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)).1
}

/// Runs `f(0..points)` across at most `threads` scoped workers and
/// returns the results in point order. With `threads <= 1` (or a single
/// point) every point runs inline on the caller's thread — the legacy
/// serial path, byte-identical by construction.
///
/// If the caller has a tracer installed, each worker runs its points
/// under one reused private ring of the same capacity and the owned
/// captures are absorbed into the caller's ring in point order, so
/// trace exports and eviction counts match serial execution exactly at
/// any thread count.
///
/// # Panics
///
/// A panic inside `f` is propagated to the caller once the pool joins.
pub fn run_with_threads<T, F>(threads: usize, points: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if points == 0 {
        return Vec::new();
    }
    let threads = threads.max(1).min(points);
    if threads == 1 {
        return (0..points)
            .map(|i| {
                let v = profile::scope(profile::Stage::Events, || f(i));
                profile::note_point();
                v
            })
            .collect();
    }

    let capture = trace::installed_capacity();
    let next = AtomicUsize::new(0);
    type Slot<T> = Mutex<Option<(T, PointCapture)>>;
    let slots: Vec<Slot<T>> = (0..points).map(|_| Mutex::new(None)).collect();

    thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                // One ring per worker, reused across every point it
                // claims: `take_point` hands each capture out by
                // ownership and rewinds the ring in place, so there is
                // no per-point ring allocation and no event copy.
                if let Some(cap) = capture {
                    trace::install(cap);
                }
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= points {
                        break;
                    }
                    let value = profile::scope(profile::Stage::Events, || f(i));
                    profile::note_point();
                    let point = if capture.is_some() {
                        trace::take_point()
                    } else {
                        PointCapture::default()
                    };
                    *slots[i].lock().expect("sweep slot lock") = Some((value, point));
                }
            });
        }
    });

    let mut values = Vec::with_capacity(points);
    let mut captures = Vec::with_capacity(if capture.is_some() { points } else { 0 });
    for slot in slots {
        let (value, point) = slot
            .into_inner()
            .expect("sweep slot lock")
            .expect("every sweep point completed");
        values.push(value);
        if capture.is_some() {
            captures.push(point);
        }
    }
    if capture.is_some() {
        profile::scope(profile::Stage::TraceSplice, || {
            trace::splice_owned(captures)
        });
    }
    values
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Time;
    use crate::trace::TraceEvent;

    #[test]
    fn results_come_back_in_point_order() {
        let out = run_with_threads(4, 33, |i| i * 2);
        assert_eq!(out, (0..33).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn zero_points_is_empty_and_single_point_runs_inline() {
        assert_eq!(run_with_threads(8, 0, |i| i), Vec::<usize>::new());
        assert_eq!(run_with_threads(8, 1, |i| i + 7), vec![7]);
    }

    #[test]
    fn max_threads_is_positive() {
        assert!(max_threads() >= 1);
    }

    #[test]
    fn point_seeds_are_distinct_and_stable() {
        let a = point_seed(42, 0);
        assert_eq!(a, point_seed(42, 0));
        let seeds: Vec<u64> = (0..64).map(|i| point_seed(42, i)).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len(), "no seed collisions");
        assert_ne!(point_seed(1, 0), point_seed(2, 0), "seed matters");
    }

    /// A deterministic per-point emission pattern with variable length.
    fn emit_point(i: usize) {
        for k in 0..(i % 5 + 3) {
            trace::emit(
                Time::from_nanos((i as u64) * 100 + k as u64),
                TraceEvent::LlcPush {
                    addr: (i * 10 + k) as u64,
                },
            );
        }
    }

    #[test]
    fn parallel_trace_merge_is_byte_identical_to_serial() {
        // Capacity 32 over ~60 emissions: the serial ring wraps, so this
        // also locks the dropped/seq accounting of splice.
        trace::install(32);
        let _ = run_with_threads(1, 12, |i| {
            emit_point(i);
            i
        });
        let serial = trace::to_jsonl(&trace::uninstall());

        for threads in [2, 4, 7] {
            trace::install(32);
            let _ = run_with_threads(threads, 12, |i| {
                emit_point(i);
                i
            });
            let parallel = trace::to_jsonl(&trace::uninstall());
            assert_eq!(parallel, serial, "threads={threads}");
        }
    }

    #[test]
    fn untraced_sweep_leaves_no_tracer_behind() {
        assert!(!trace::is_active());
        let _ = run_with_threads(4, 8, |i| i);
        assert!(!trace::is_active());
    }

    #[test]
    fn profile_render_subtracts_only_nested_spans() {
        use profile::{scope, Stage};
        use std::time::Duration as WallDuration;

        let sleep = |ms: u64| std::thread::sleep(WallDuration::from_millis(ms));
        profile::set_enabled(true);
        let _ = profile::take(); // drain anything earlier tests recorded

        // A Setup span *outside* any Events scope: a shared dataset
        // build. It must not be subtracted from exclusive events time.
        scope(Stage::Setup, || sleep(40));
        // The run closure, with nested Setup (itself nesting another
        // Setup, which must count only once) and nested Report.
        scope(Stage::Events, || {
            sleep(8);
            scope(Stage::Setup, || {
                sleep(16);
                scope(Stage::Setup, || sleep(8));
            });
            scope(Stage::Report, || sleep(8));
        });

        let report = profile::take();
        profile::set_enabled(false);

        // Nested = the 24 ms outer Setup + 8 ms Report inside the
        // Events scope; the 40 ms outside Setup and the doubly-nested
        // 8 ms are excluded. Bounds are loose against oversleep and
        // other tests' (microsecond-scale) concurrent scopes.
        let nested_ms = report.nested_ns / 1_000_000;
        assert!(
            (28..=60).contains(&nested_ms),
            "nested-in-events was {nested_ms} ms, expected ~32 ms"
        );
        // Exclusive events ~8 ms. The old render subtracted the *global*
        // Setup+Report totals (72 + 8 ms) from the 40 ms events
        // total, double-counting the outside span and saturating to 0.
        let excl_ms =
            report.ns[Stage::Events as usize].saturating_sub(report.nested_ns) / 1_000_000;
        assert!(
            (3..=30).contains(&excl_ms),
            "exclusive events was {excl_ms} ms, expected ~8 ms"
        );
        assert!(report.render().contains("events (excl.)"));
    }
}
