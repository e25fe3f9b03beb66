//! Property-based tests for the simulation substrate.

use proptest::prelude::*;
use sim_core::event::EventQueue;
use sim_core::rng::SimRng;
use sim_core::stats::{Histogram, Samples};
use sim_core::time::{Duration, Time};
use sim_core::trace::{CounterId, CounterRegistry, TraceEvent, TraceRing};

proptest! {
    /// Splice-order invariance: however a serial emission stream is cut
    /// into per-point chunks (including empty points and points larger
    /// than the ring), capturing the chunks through one reused worker
    /// ring and absorbing them in order reproduces the serial ring —
    /// retained window, sequence numbers, and eviction count.
    #[test]
    fn owned_splice_is_invariant_to_chunking(
        cap in 1usize..12,
        chunk_lens in proptest::collection::vec(0u64..30, 1..14),
    ) {
        let mut serial = TraceRing::new(cap);
        let mut addr = 0u64;
        for &n in &chunk_lens {
            for _ in 0..n {
                serial.push(Time::from_nanos(addr), TraceEvent::LlcPush { addr });
                addr += 1;
            }
        }

        let mut worker = TraceRing::new(cap);
        let mut captures = Vec::new();
        let mut addr = 0u64;
        for &n in &chunk_lens {
            for _ in 0..n {
                worker.push(Time::from_nanos(addr), TraceEvent::LlcPush { addr });
                addr += 1;
            }
            captures.push(worker.take_point());
        }
        let mut merged = TraceRing::new(cap);
        merged.absorb(captures);

        prop_assert_eq!(merged.to_vec(), serial.to_vec());
        prop_assert_eq!(merged.dropped(), serial.dropped());
    }

    /// Popping the queue always yields non-decreasing timestamps,
    /// regardless of insertion order.
    #[test]
    fn event_queue_is_globally_ordered(offsets in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &off) in offsets.iter().enumerate() {
            q.schedule(Time::from_picos(off), i);
        }
        let mut last = Time::ZERO;
        let mut count = 0;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= last);
            last = t;
            count += 1;
        }
        prop_assert_eq!(count, offsets.len());
    }

    /// Histogram quantiles stay within ~4% relative error of the exact
    /// (all-samples) estimator across arbitrary latency distributions.
    #[test]
    fn histogram_tracks_exact_quantiles(
        mut ns in proptest::collection::vec(1u64..10_000_000, 100..2000),
        p in 1.0f64..100.0,
    ) {
        let mut h = Histogram::new();
        let mut exact = Samples::new();
        for &v in &ns {
            h.record(Duration::from_nanos(v));
            exact.record(v as f64);
        }
        ns.sort_unstable();
        let est = h.percentile(p).as_nanos_f64();
        let want = exact.percentile(p);
        let err = (est - want).abs() / want;
        prop_assert!(err < 0.04, "p{p}: est {est} want {want} err {err}");
    }

    /// Histogram merge is equivalent to recording the union.
    #[test]
    fn histogram_merge_is_union(
        a in proptest::collection::vec(1u64..1_000_000, 1..500),
        b in proptest::collection::vec(1u64..1_000_000, 1..500),
    ) {
        let mut ha = Histogram::new();
        let mut hb = Histogram::new();
        let mut hu = Histogram::new();
        for &v in &a {
            ha.record(Duration::from_nanos(v));
            hu.record(Duration::from_nanos(v));
        }
        for &v in &b {
            hb.record(Duration::from_nanos(v));
            hu.record(Duration::from_nanos(v));
        }
        ha.merge(&hb);
        prop_assert_eq!(ha.count(), hu.count());
        for p in [50.0, 90.0, 99.0] {
            prop_assert_eq!(ha.percentile(p), hu.percentile(p));
        }
        prop_assert_eq!(ha.mean(), hu.mean());
        prop_assert_eq!(ha.max(), hu.max());
    }

    /// gen_range is unbiased enough: over many draws every residue class
    /// of a small modulus is hit.
    #[test]
    fn rng_range_has_full_support(seed in any::<u64>(), bound in 2u64..12) {
        let mut rng = SimRng::seed_from(seed);
        let mut seen = vec![false; bound as usize];
        for _ in 0..2_000 {
            seen[rng.gen_range(bound) as usize] = true;
        }
        prop_assert!(seen.iter().all(|&s| s), "bound {bound}: {seen:?}");
    }

    /// Duration arithmetic is associative/commutative over additions.
    #[test]
    fn duration_addition_laws(a in 0u64..1u64<<40, b in 0u64..1u64<<40, c in 0u64..1u64<<40) {
        let (da, db, dc) =
            (Duration::from_picos(a), Duration::from_picos(b), Duration::from_picos(c));
        prop_assert_eq!(da + db, db + da);
        prop_assert_eq!((da + db) + dc, da + (db + dc));
        prop_assert_eq!((Time::ZERO + da + db).duration_since(Time::ZERO), da + db);
    }
}

// =====================================================================
// Interned counter registry vs the legacy BTreeMap model
// =====================================================================

/// Name pool for counter properties: includes exact-name/prefix
/// collisions (`traffic.ops` vs `traffic.ops.retried`) and lone roots,
/// the cases the `sum_prefix` dot-boundary filter must not conflate.
const COUNTER_NAMES: [&str; 12] = [
    "a",
    "a.b",
    "a.b.c",
    "ab",
    "device.d2h.requests",
    "device.dmc.writebacks",
    "device.hmc.writebacks",
    "fabric.routed",
    "fabric.routed.dev0",
    "traffic.bytes",
    "traffic.ops",
    "traffic.ops.retried",
];

/// The pre-interning implementation, replayed as a model: a string-keyed
/// sorted map bumped per op, rendered lexicographically.
#[derive(Default)]
struct LegacyCounters {
    map: std::collections::BTreeMap<&'static str, u64>,
}

impl LegacyCounters {
    fn add(&mut self, name: &'static str, n: u64) {
        *self.map.entry(name).or_insert(0) += n;
    }

    fn merge(&mut self, other: &LegacyCounters) {
        for (&k, &v) in &other.map {
            self.add(k, v);
        }
    }

    fn sum_prefix(&self, prefix: &str) -> u64 {
        self.map
            .iter()
            .filter(|(k, _)| {
                **k == prefix
                    || (k.len() > prefix.len()
                        && k.starts_with(prefix)
                        && k.as_bytes()[prefix.len()] == b'.')
            })
            .map(|(_, v)| v)
            .sum()
    }

    fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.map {
            out.push_str(&format!("{{\"counter\":\"{k}\",\"value\":{v}}}\n"));
        }
        out
    }

    fn to_human(&self) -> String {
        let width = self.map.keys().map(|k| k.len()).max().unwrap_or(0);
        let mut out = String::new();
        for (k, v) in &self.map {
            out.push_str(&format!("{k:<width$}  {v}\n"));
        }
        out
    }
}

proptest! {
    /// The interned dense-slot registry is observationally identical to
    /// the legacy `BTreeMap` rendering for arbitrary bump interleavings
    /// across two registries: byte-identical `to_jsonl`/`to_human`
    /// (including counters bumped with zero, which must still render),
    /// matching `get`/`len`/`sum_prefix`, and the same bytes again
    /// after an additive `merge`.
    #[test]
    fn interned_registry_matches_btreemap_model(
        ops in proptest::collection::vec(
            (0usize..COUNTER_NAMES.len(), 0u64..5, any::<bool>()),
            0..60,
        ),
        prefix_idx in 0usize..COUNTER_NAMES.len(),
    ) {
        let mut reg = [CounterRegistry::new(), CounterRegistry::new()];
        let mut model = [LegacyCounters::default(), LegacyCounters::default()];
        for &(name_idx, n, second) in &ops {
            let name = COUNTER_NAMES[name_idx];
            let which = usize::from(second);
            // Alternate entry points: the cold per-call interning path
            // and the pre-interned id path must agree.
            if n == 1 {
                reg[which].incr(name);
            } else {
                reg[which].add_id(CounterId::intern(name), n);
            }
            model[which].add(name, n);
        }

        for (r, m) in reg.iter().zip(&model) {
            prop_assert_eq!(r.to_jsonl(), m.to_jsonl());
            prop_assert_eq!(r.to_human(), m.to_human());
            for name in COUNTER_NAMES {
                prop_assert_eq!(r.get(name), m.map.get(name).copied().unwrap_or(0));
            }
            for prefix in ["a", "ab", "a.b", "fabric", "traffic.ops", "device.", "nope"] {
                prop_assert_eq!(r.sum_prefix(prefix), m.sum_prefix(prefix));
            }
            let chosen = COUNTER_NAMES[prefix_idx];
            prop_assert_eq!(r.sum_prefix(chosen), m.sum_prefix(chosen));
        }

        let [mut reg_a, reg_b] = reg;
        let [mut model_a, model_b] = model;
        reg_a.merge(&reg_b);
        model_a.merge(&model_b);
        prop_assert_eq!(reg_a.to_jsonl(), model_a.to_jsonl());
        prop_assert_eq!(reg_a.to_human(), model_a.to_human());
        // Merge is additive: merging an empty registry changes nothing.
        let before = reg_a.to_jsonl();
        reg_a.merge(&CounterRegistry::new());
        prop_assert_eq!(reg_a.to_jsonl(), before);
    }
}
