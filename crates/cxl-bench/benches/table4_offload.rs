//! Table IV bench: regenerates the offload breakdown, then times each
//! backend's compression offload (which includes the real LZ codec).

use criterion::{criterion_group, criterion_main, Criterion};
use host::socket::Socket;
use kernel::offload::{CpuBackend, CxlBackend, OffloadBackend, PcieDmaBackend, PcieRdmaBackend};
use kernel::page::PageContent;
use sim_core::rng::SimRng;
use sim_core::time::Time;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let rows = cxl_bench::tables::run_table4(42);
    print!("{}", cxl_bench::tables::render_table4(&rows));

    let mut rng = SimRng::seed_from(4);
    let page = PageContent::Binary.generate(&mut rng);
    let mut g = c.benchmark_group("table4_offload");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(3));
    macro_rules! bench_backend {
        ($name:literal, $make:expr) => {
            g.bench_function($name, |b| {
                let mut host = Socket::xeon_6538y();
                let mut backend = $make;
                let mut t = Time::ZERO;
                b.iter(|| {
                    let out = backend.compress(&page, t, &mut host);
                    t = out.completion;
                    black_box(out.value.compressed_len())
                });
            });
        };
    }
    bench_backend!("compress_cpu", CpuBackend::new());
    bench_backend!("compress_pcie_rdma", PcieRdmaBackend::bf3());
    bench_backend!("compress_pcie_dma", PcieDmaBackend::agilex7());
    bench_backend!("compress_cxl", CxlBackend::agilex7());
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
