//! Fig. 3 bench: regenerates the D2H table, then times the simulated
//! access paths that produce it.

use criterion::{criterion_group, criterion_main, Criterion};
use cxl_proto::request::RequestType;
use cxl_type2::addr::host_line;
use cxl_type2::device::CxlDevice;
use host::numa::NumaSystem;
use host::socket::Socket;
use sim_core::time::Time;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let rows = cxl_bench::fig3::run_fig3(300, 42);
    print!("{}", cxl_bench::fig3::render_fig3(&rows));

    let mut g = c.benchmark_group("fig3_d2h");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(3));
    g.bench_function("d2h_cs_read_miss", |b| {
        let mut host = Socket::xeon_6538y();
        let mut dev = CxlDevice::agilex7();
        let mut t = Time::ZERO;
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let acc = dev.d2h(RequestType::CS_RD, host_line(i * 7), t, &mut host);
            t = acc.completion;
            black_box(acc.completion)
        });
    });
    g.bench_function("emulated_remote_load", |b| {
        let mut numa = NumaSystem::xeon_dual_socket();
        let mut t = Time::ZERO;
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let acc = numa.remote_load(host_line(i * 7), t);
            t = acc.completion;
            black_box(acc.completion)
        });
    });
    g.bench_function("fig3_full_sweep_20reps", |b| {
        b.iter(|| black_box(cxl_bench::fig3::run_fig3(20, 1)));
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
