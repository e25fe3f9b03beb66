//! Fig. 6 bench: regenerates the transfer-efficiency curves, then times
//! representative sized transfers.

use criterion::{criterion_group, criterion_main, Criterion};
use cxl_bench::fig6::{render_fig6, run_fig6, Direction, SERIES};
use cxl_type2::addr::device_line;
use cxl_type2::device::CxlDevice;
use cxl_type2::transfer::h2d_store_bytes;
use host::socket::Socket;
use sim_core::time::Time;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    for (dir, write, title) in SERIES {
        print!("{}", render_fig6(&run_fig6(dir, write), title));
    }

    let mut g = c.benchmark_group("fig6_transfer");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(3));
    for bytes in [256u64, 4096, 65536] {
        g.bench_function(format!("cxl_st_{bytes}B"), |b| {
            let mut host = Socket::xeon_6538y();
            let mut dev = CxlDevice::agilex7();
            let mut t = Time::ZERO;
            b.iter(|| {
                t = h2d_store_bytes(&mut dev, &mut host, device_line(0), bytes, t);
                black_box(t)
            });
        });
    }
    g.bench_function("fig6_full_sweep", |b| {
        b.iter(|| black_box(run_fig6(Direction::H2d, true)));
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
