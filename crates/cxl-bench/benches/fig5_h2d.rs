//! Fig. 5 bench: regenerates the H2D table, then times the T2/T3 paths.

use criterion::{criterion_group, criterion_main, Criterion};
use cxl_type2::addr::device_line;
use cxl_type2::device::CxlDevice;
use host::socket::Socket;
use sim_core::time::Time;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let rows = cxl_bench::fig5::run_fig5(300, 42);
    print!("{}", cxl_bench::fig5::render_fig5(&rows));

    let mut g = c.benchmark_group("fig5_h2d");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(3));
    for (name, t3) in [("h2d_load_t2", false), ("h2d_load_t3", true)] {
        g.bench_function(name, |b| {
            let mut host = Socket::xeon_6538y();
            let mut dev = if t3 {
                CxlDevice::agilex7_type3()
            } else {
                CxlDevice::agilex7()
            };
            let mut t = Time::ZERO;
            let mut i = 0u64;
            b.iter(|| {
                i += 1;
                // Invalidate so every access crosses CXL.
                host.caches.invalidate(device_line(i % 8192));
                let acc = dev.h2d_load(device_line(i % 8192), t, &mut host);
                t = acc.completion;
                black_box(acc.completion)
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
