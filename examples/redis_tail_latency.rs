//! The §VII headline experiment at example scale: a Redis-like store
//! whose cold values spill through zswap while YCSB traffic measures the
//! p99 — run for every offload backend and printed as the Fig. 8 row.
//!
//! Run with: `cargo run --release --example redis_tail_latency`

use cxl_t2_sim::prelude::*;
use kvs::fig8::{run_zswap, BackendKind, Fig8Config};

fn main() {
    // Functional slice: values really live in the store and really
    // survive a swap cycle.
    let mut kv = KvStore::new();
    let mut rng = SimRng::seed_from(1);
    let mix = PageMix::datacenter();
    let mut host = Socket::xeon_6538y();
    let mut zswap = Zswap::new(ZswapConfig::kernel_default(1 << 30), CxlBackend::agilex7());
    for i in 0..64u64 {
        let value = mix.sample(&mut rng).generate(&mut rng);
        kv.set(format!("key:{i}").into_bytes(), value.clone());
        // Cold value pages get swapped out through cxl-zswap...
        zswap.store(SwapKey(i), &value, Time::ZERO, &mut host);
    }
    // ...and fault back in bit-identical.
    let (page, _) = zswap
        .load(SwapKey(7), Time::from_nanos(1_000_000), &mut host)
        .unwrap();
    assert_eq!(kv.get(b"key:7"), Some(page.as_slice()));
    println!(
        "functional check: 64 values stored ({} KiB), key:7 survived a swap cycle\n",
        kv.data_bytes() / 1024
    );

    // Timing slice: the Fig. 8 row for YCSB-A at example scale. The five
    // backend runs are independent simulations off the same config, so
    // they fan across the sweep worker pool; BackendKind::ALL[0] is the
    // no-zswap baseline the row normalizes against.
    let mut cfg = Fig8Config::smoke();
    cfg.duration = Duration::from_millis(80);
    println!("Redis p99 under zswap, YCSB-A (normalized to no-zswap):");
    let reports = sim_core::sweep::run_with_threads(
        sim_core::sweep::max_threads(),
        BackendKind::ALL.len(),
        |i| run_zswap(&cfg, YcsbWorkload::A, BackendKind::ALL[i]),
    );
    let base_p99 = reports[0].p99.as_nanos_f64();
    for (kind, r) in BackendKind::ALL.into_iter().zip(&reports) {
        println!(
            "  {:<12} p99 = {:>8.1} us  ({:>5.2}x)  host CPU {:>4.1}%",
            format!("{}-zswap", kind.name()),
            r.p99.as_micros_f64(),
            r.p99.as_nanos_f64() / base_p99,
            r.host_cpu_fraction * 100.0,
        );
    }
}
