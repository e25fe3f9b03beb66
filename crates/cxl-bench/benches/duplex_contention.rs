//! Duplex bench: regenerates the background-load sweep (foreground H2D
//! offload latency, isolated vs contended), then times the harness at
//! representative sizes.

use criterion::{criterion_group, criterion_main, Criterion};
use cxl_bench::duplex::{render_duplex, run_duplex, run_duplex_with_threads};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    print!("{}", render_duplex(&run_duplex(4000, 4000, 42)));

    let mut g = c.benchmark_group("duplex_contention");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(3));
    g.bench_function("sweep_1k_requests", |b| {
        b.iter(|| black_box(run_duplex(1000, 1000, 42)));
    });
    g.bench_function("sweep_1k_requests_serial", |b| {
        b.iter(|| black_box(run_duplex_with_threads(1, 1000, 1000, 42)));
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
