//! Property-based tests for the simulation substrate.

use proptest::prelude::*;
use sim_core::rng::SimRng;
use sim_core::stats::{Histogram, Samples};
use sim_core::time::{Duration, Time};
use sim_core::trace::{CounterRegistry, TraceEvent, TraceRing};

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
// Counter registry properties
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

/// Builds a registry from `(name index, n)` adds.
fn registry_of(adds: &[(usize, u64)]) -> CounterRegistry {
    let mut c = CounterRegistry::new();
    for &(i, n) in adds {
        c.add(COUNTER_NAMES[i], n);
    }
    c
}

proptest! {
    /// A counter renders once it has been added to, even when every add
    /// was zero, and never otherwise; `to_jsonl` has one line per
    /// rendered counter, in name order.
    #[test]
    fn every_added_counter_renders_even_at_zero(
        adds in proptest::collection::vec((0usize..COUNTER_NAMES.len(), 0u64..3), 0..40),
    ) {
        let c = registry_of(&adds);
        let mut added: Vec<&str> = adds.iter().map(|&(i, _)| COUNTER_NAMES[i]).collect();
        added.sort_unstable();
        added.dedup();
        let rendered: Vec<&str> = c.iter().map(|(k, _)| k).collect();
        prop_assert_eq!(&rendered, &added);
        for (line, (k, v)) in c.to_jsonl().lines().zip(c.iter()) {
            prop_assert_eq!(line.to_string(), format!("{{\"counter\":\"{k}\",\"value\":{v}}}"));
        }
        prop_assert_eq!(c.to_jsonl().lines().count(), rendered.len());
    }

    /// `sum_prefix` equals the sum over the counters whose dot-separated
    /// segments start with the prefix's segments.
    #[test]
    fn sum_prefix_is_a_segment_filtered_sum(
        adds in proptest::collection::vec((0usize..COUNTER_NAMES.len(), 0u64..5), 0..40),
        prefix_idx in 0usize..COUNTER_NAMES.len(),
    ) {
        let c = registry_of(&adds);
        let under = |name: &str, prefix: &str| {
            let (n, p): (Vec<&str>, Vec<&str>) = (name.split('.').collect(), prefix.split('.').collect());
            n.starts_with(&p)
        };
        let chosen = COUNTER_NAMES[prefix_idx];
        for prefix in [chosen, "a", "ab", "a.b", "fabric", "traffic.ops", "device.", "", "nope"] {
            let filtered: u64 = c.iter().filter(|(k, _)| under(k, prefix)).map(|(_, v)| v).sum();
            prop_assert_eq!(c.sum_prefix(prefix), filtered, "prefix {:?}", prefix);
        }
    }

    /// Merge is additive: every counter of the merge is the sum of the
    /// two, its names are the union, and merging an empty registry
    /// changes nothing.
    #[test]
    fn merge_is_additive(
        a in proptest::collection::vec((0usize..COUNTER_NAMES.len(), 0u64..5), 0..30),
        b in proptest::collection::vec((0usize..COUNTER_NAMES.len(), 0u64..5), 0..30),
    ) {
        let (ra, rb) = (registry_of(&a), registry_of(&b));
        let mut merged = ra.clone();
        merged.merge(&rb);
        for name in COUNTER_NAMES {
            prop_assert_eq!(merged.get(name), ra.get(name) + rb.get(name));
        }
        let mut both = a.clone();
        both.extend_from_slice(&b);
        prop_assert_eq!(&merged, &registry_of(&both));
        let before = merged.clone();
        merged.merge(&CounterRegistry::new());
        prop_assert_eq!(merged, before);
    }
}
