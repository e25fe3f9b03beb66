//! Fig. 4 bench: regenerates the D2D bias table, then times the bias
//! paths.

use criterion::{criterion_group, criterion_main, Criterion};
use cxl_proto::request::RequestType;
use cxl_type2::addr::device_line;
use cxl_type2::device::CxlDevice;
use host::socket::Socket;
use sim_core::time::Time;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let rows = cxl_bench::fig4::run_fig4(300, 42);
    print!("{}", cxl_bench::fig4::render_fig4(&rows));

    let mut g = c.benchmark_group("fig4_d2d");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(3));
    g.bench_function("d2d_host_bias_write", |b| {
        let mut host = Socket::xeon_6538y();
        let mut dev = CxlDevice::agilex7();
        let mut t = Time::ZERO;
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let acc = dev.d2d(RequestType::CO_WR, device_line(i % 4096), t, &mut host);
            t = acc.completion;
            black_box(acc.completion)
        });
    });
    g.bench_function("d2d_device_bias_write", |b| {
        let mut host = Socket::xeon_6538y();
        let mut dev = CxlDevice::agilex7();
        let t0 = dev.enter_device_bias(device_line(0), 4096, Time::ZERO, &mut host);
        let mut t = t0;
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let acc = dev.d2d(RequestType::CO_WR, device_line(i % 4096), t, &mut host);
            t = acc.completion;
            black_box(acc.completion)
        });
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
