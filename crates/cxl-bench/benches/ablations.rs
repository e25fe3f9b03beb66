//! Ablation bench: prints all design-choice sweeps, then times them.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    print!("{}", cxl_bench::ablations::render_ablations());

    let mut g = c.benchmark_group("ablations");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(3));
    g.bench_function("writequeue_sweep", |b| {
        b.iter(|| black_box(cxl_bench::ablations::writequeue_sweep()))
    });
    g.bench_function("ncp_prefetch_sweep", |b| {
        b.iter(|| black_box(cxl_bench::ablations::ncp_prefetch_sweep()))
    });
    g.bench_function("lsu_window_sweep", |b| {
        b.iter(|| black_box(cxl_bench::ablations::lsu_window_sweep()))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
