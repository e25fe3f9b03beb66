//! Determinism contract of the parallel sweep runner: every registered
//! harness, and the synthetic sweeps below, must produce byte-identical
//! reports, trace exports and counter snapshots at every thread count,
//! including when the capture ring wraps. `threads = 1` is the reference
//! serial execution the parallel paths are held against.

use cxl_bench::harness::HARNESSES;
use sim_core::sweep;
use sim_core::time::Time;
use sim_core::trace::{self, CounterRegistry, FaultKind, Lane, OpKind, TraceEvent};

const TRACE_CAPACITY: usize = 1 << 14;

/// Runs the registered harness `name` at its smoke arguments. The serial
/// run, traced, prints exactly its recorded report
/// (`tests/golden/harness/<name>.txt`), emits every trace event kind in
/// `kinds`, and its trace survives a JSONL decode and re-encode byte for
/// byte; each of `threads` workers reproduces the serial rows,
/// report, trace export and drop count bit for bit (rows are compared
/// through their `Debug` text, which round-trips every `f64`). Returns
/// the serial run's JSONL trace.
fn check_harness(name: &str, kinds: &[&str], threads: &[usize]) -> String {
    let h = HARNESSES
        .iter()
        .find(|h| h.name == name)
        .unwrap_or_else(|| panic!("harness {name} is registered"));
    let args: Vec<String> = h.smoke.iter().map(|a| a.to_string()).collect();
    let run = |threads: usize| {
        trace::install(TRACE_CAPACITY);
        let run = (h.run)(threads, &args).expect("smoke arguments parse");
        let (events, dropped) = trace::take_captured();
        (run, trace::to_jsonl(&events), dropped)
    };
    let (run1, trace1, dropped1) = run(1);
    let golden = format!(
        "{}/tests/golden/harness/{}.txt",
        env!("CARGO_MANIFEST_DIR"),
        h.name
    );
    let golden = std::fs::read_to_string(&golden).expect("golden report");
    assert_eq!(run1.stdout, golden, "{} report drifted", h.name);
    let decoded = trace::from_jsonl(&trace1).expect("captured trace parses");
    assert_eq!(trace::to_jsonl(&decoded), trace1, "{} trace codec", h.name);
    for kind in kinds {
        assert!(
            trace1.contains(&format!("\"kind\":\"{kind}\"")),
            "{} emits {kind} trace events",
            h.name
        );
    }
    for &threads in threads {
        let (run_n, trace_n, dropped_n) = run(threads);
        assert_eq!(run1, run_n, "{} at {threads} threads", h.name);
        assert_eq!(trace1, trace_n, "{} trace at {threads} threads", h.name);
        assert_eq!(dropped1, dropped_n, "{} drops at {threads} threads", h.name);
    }
    trace1
}

/// The harnesses with a dedicated test below, which adds their trace-kind
/// assertions and a 16-thread run.
const DEDICATED: &[&str] = &["fig4", "duplex", "fault", "bias"];

/// Every other registered harness, at 1/2/4/8 threads.
#[test]
fn every_harness_matches_its_golden_at_every_thread_count() {
    for h in HARNESSES {
        // The quick Fig. 8 config takes ~9 s even in release; its
        // 20-cell fan-out is pinned by
        // `kvs::fig8::seed_fanout_is_thread_invariant`.
        if h.name == "fig8" || DEDICATED.contains(&h.name) {
            continue;
        }
        // One parallel run of the ablations: their offered-load sweep
        // dominates this test's time.
        let threads: &[usize] = if h.name == "ablations" {
            &[4]
        } else {
            &[2, 4, 8]
        };
        check_harness(h.name, &[], threads);
    }
}

/// The Fig. 4 sweep: rows bit-exact, protocol trace identical; the
/// parallel runner must not reorder or re-associate any arithmetic.
#[test]
fn fig4_sweep_is_byte_identical_across_thread_counts() {
    check_harness("fig4", &["request"], &[2, 4, 8, 16]);
}

/// The duplex-contention sweep runs two traffic flows (open-loop H2D
/// stores plus Poisson D2H+D2D ingest) through one port engine per
/// point; its spliced flow-op/protocol trace and every tail statistic
/// must not depend on the thread count.
#[test]
fn duplex_sweep_is_byte_identical_across_thread_counts() {
    check_harness("duplex", &["flow-op"], &[2, 4, 8, 16]);
}

/// The reliability sweep injects faults — link replays, slice-watchdog
/// timeouts, poison surfacing — from per-point injector streams, and
/// every fault event lands in the trace. The fault-event trace (not
/// just the row figures) must be byte-identical at every thread count:
/// injector draws depend only on the plan seed and the point name,
/// never on scheduling. The smoke run also fires every [`FaultKind`]:
/// a fault process that no shipped row drives does not belong in the
/// model.
#[test]
fn fault_sweep_traces_are_byte_identical_across_thread_counts() {
    let trace = check_harness("fault", &["fault-inject", "link-retry"], &[2, 4, 8, 16]);
    for kind in FaultKind::ALL {
        assert!(
            trace.contains(&format!("\"fault\":\"{kind}\"")),
            "the fault smoke run fires no {kind} faults"
        );
    }
}

/// The adaptive-bias ablation embeds a feedback daemon (epoch state,
/// EWMA temperatures, re-entry queues) in every sweep point; its
/// decisions — and therefore every `bias-flip` trace event — must be a
/// pure function of the point, never of scheduling.
#[test]
fn bias_ablation_is_byte_identical_across_thread_counts() {
    check_harness("bias", &["bias-flip"], &[2, 4, 8, 16]);
}

/// The traced `serving` harness holds one `flow-op` event per op of its
/// nine rows and nothing else: no fleet run outside the sweep (a warm-up,
/// say) may add its ops to the trace.
#[test]
fn serving_trace_holds_one_flow_op_per_sweep_op() {
    use cxl_bench::serving::serving_points;
    use kvs::fleet::FleetSpec;

    let h = HARNESSES.iter().find(|h| h.name == "serving").unwrap();
    trace::install(1 << 19);
    (h.run)(2, &[]).expect("the default seed");
    let (events, dropped) = trace::take_captured();
    assert_eq!(dropped, 0, "the ring must hold the whole sweep");
    let flow_ops = events
        .iter()
        .filter(|e| matches!(e.event, TraceEvent::FlowOp { .. }))
        .count() as u64;
    let sweep_ops: u64 = serving_points()
        .iter()
        .map(|p| {
            let spec = if p.antagonist {
                FleetSpec::serving_mix(42)
            } else {
                FleetSpec::isolated(42)
            };
            spec.tenants.iter().map(|t| t.requests).sum::<u64>()
        })
        .sum();
    assert_eq!(sweep_ops, 100_000);
    assert_eq!(flow_ops, sweep_ops);
}

/// Synthetic counter sweep: every point builds its own registry and the
/// merged snapshot (point order) must not depend on the thread count.
fn counter_sweep(threads: usize, points: usize) -> String {
    let snapshots = sweep::run_with_threads(threads, points, |i| {
        let mut counters = CounterRegistry::new();
        for k in 0..=(i % 5) {
            counters.add("sweep.work", (i * 7 + k) as u64);
        }
        counters.incr("sweep.points");
        counters.to_jsonl()
    });
    snapshots.concat()
}

#[test]
fn counter_snapshots_merge_deterministically() {
    let serial = counter_sweep(1, 23);
    for threads in [2, 4, 8, 16] {
        assert_eq!(serial, counter_sweep(threads, 23), "threads={threads}");
    }
}

/// A deliberately tiny ring (every point overflows it): the spliced
/// capture — retained window, drop count, and export bytes — must still
/// match the serial run exactly.
#[test]
fn ring_wraparound_splices_identically() {
    let run = |threads: usize| {
        trace::install(8);
        sweep::run_with_threads(threads, 9, |i| {
            for k in 0..20u64 {
                trace::emit(
                    Time::from_nanos((i as u64) * 1_000 + k),
                    TraceEvent::Request {
                        lane: Lane::D2h,
                        op: OpKind::NcRd,
                        addr: ((i as u64) << 8) | k,
                    },
                );
            }
        });
        let (events, dropped) = trace::take_captured();
        (trace::to_jsonl(&events), dropped)
    };
    let (serial, dropped1) = run(1);
    assert!(dropped1 > 0, "the ring must actually wrap");
    for threads in [2, 4, 8, 16] {
        let (parallel, dropped_n) = run(threads);
        assert_eq!(serial, parallel, "threads={threads}");
        assert_eq!(dropped1, dropped_n, "threads={threads}");
    }
}

/// Wraparound under contention: far more points than workers, a ring so
/// small every point evicts most of its own events, uneven per-point
/// emission (some points silent, some flooding), and thread counts well
/// above the core count so workers fight over the point queue. The
/// owned-chunk splice must still reconstruct the serial ring byte for
/// byte, including the drop count.
#[test]
fn ring_wraparound_under_contention_is_deterministic() {
    let run = |threads: usize| {
        trace::install(6);
        sweep::run_with_threads(threads, 64, |i| {
            // Point sizes 0..=12 events: empties, sub-ring points, and
            // points several times the ring capacity interleave.
            let n = (i * 7) % 13;
            for k in 0..n as u64 {
                trace::emit(
                    Time::from_nanos((i as u64) * 500 + k),
                    TraceEvent::Request {
                        lane: Lane::H2d,
                        op: OpKind::CoWr,
                        addr: ((i as u64) << 16) | k,
                    },
                );
            }
        });
        let (events, dropped) = trace::take_captured();
        (trace::to_jsonl(&events), dropped)
    };
    let (serial, dropped1) = run(1);
    assert!(dropped1 > 0, "the ring must actually wrap");
    for threads in [2, 4, 8, 16] {
        let (parallel, dropped_n) = run(threads);
        assert_eq!(serial, parallel, "threads={threads}");
        assert_eq!(dropped1, dropped_n, "threads={threads}");
    }
}
