//! Fig. 8 bench: regenerates the normalized-p99 tables (quick config),
//! then times one zswap harness cell.

use criterion::{criterion_group, criterion_main, Criterion};
use cxl_bench::fig8run::{render_fig8, run_fig8, Feature};
use kvs::fig8::{run_zswap, BackendKind, Fig8Config};
use kvs::ycsb::YcsbWorkload;
use sim_core::time::Duration;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let cfg = Fig8Config::smoke();
    let zswap = run_fig8(&cfg, Feature::Zswap);
    print!("{}", render_fig8(&zswap, Feature::Zswap));
    let ksm = run_fig8(&cfg, Feature::Ksm);
    print!("{}", render_fig8(&ksm, Feature::Ksm));

    let mut g = c.benchmark_group("fig8_tail");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(3));
    let mut tiny = Fig8Config::smoke();
    tiny.duration = Duration::from_millis(25);
    g.bench_function("zswap_cell_cxl_25ms", |b| {
        b.iter(|| black_box(run_zswap(&tiny, YcsbWorkload::B, BackendKind::Cxl)));
    });
    g.bench_function("zswap_cell_cpu_25ms", |b| {
        b.iter(|| black_box(run_zswap(&tiny, YcsbWorkload::B, BackendKind::Cpu)));
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
