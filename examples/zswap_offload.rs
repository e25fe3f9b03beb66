//! The cxl-zswap scenario of §VI-A: swap out a working set of realistic
//! pages through each offload backend and compare wall time, host CPU
//! consumption, and the Table IV-style step breakdown.
//!
//! Run with: `cargo run --example zswap_offload`

use cxl_t2_sim::prelude::*;

fn run_backend(name: &str, mut backend: Box<dyn OffloadBackend>) {
    let mut host = Socket::xeon_6538y();
    let mut rng = SimRng::seed_from(2024);
    let mix = PageMix::datacenter();
    let pages: Vec<PageData> = (0..32)
        .map(|_| mix.sample(&mut rng).generate(&mut rng))
        .collect();

    let mut t = Time::ZERO;
    let mut host_cpu = Duration::ZERO;
    let mut compressed_bytes = 0usize;
    let mut breakdown = None;
    for page in &pages {
        let out = backend.compress(page, t, &mut host);
        t = out.completion;
        host_cpu += out.host_cpu;
        compressed_bytes += out.value.compressed_len();
        breakdown.get_or_insert(out.breakdown);
    }
    let b = breakdown.expect("at least one page");
    println!(
        "{name:<10} 32 pages in {:>9.1} us | host CPU {:>8.1} us | ratio {:>4.2} | \
         (2)={:.2}us (4)={:.2}us (5)={:.2}us total={:.2}us",
        t.duration_since(Time::ZERO).as_micros_f64(),
        host_cpu.as_micros_f64(),
        (32.0 * 4096.0) / compressed_bytes as f64,
        b.transfer_in.as_micros_f64(),
        b.compute.as_micros_f64(),
        b.transfer_out.as_micros_f64(),
        b.total.as_micros_f64(),
    );
    if backend.zpool_in_device_memory() {
        println!(
            "{:<10} (zpool lives in device memory — host DRAM is not consumed)",
            ""
        );
    }
}

fn main() {
    println!("zswap compression offload: 32 × 4 KiB datacenter-mix pages\n");
    run_backend("cpu", Box::new(CpuBackend::new()));
    run_backend("pcie-rdma", Box::new(PcieBackend::bf3_rdma()));
    run_backend("pcie-dma", Box::new(PcieBackend::agilex7_dma()));
    run_backend("cxl", Box::new(CxlBackend::agilex7()));

    println!("\nEnd-to-end zswap store/load through the CXL backend:");
    let mut host = Socket::xeon_6538y();
    let mut z = Zswap::new(ZswapConfig::kernel_default(1 << 30), CxlBackend::agilex7());
    let mut rng = SimRng::seed_from(7);
    let page = PageContent::Text.generate(&mut rng);
    let st = z.store(SwapKey(1), &page, Time::ZERO, &mut host);
    let (restored, ld) = z
        .load(SwapKey(1), st.completion, &mut host)
        .expect("stored");
    assert_eq!(restored, page);
    println!(
        "  store: {:.2} us (pool hit: {})   load: {:.2} us (decompressed via NC-P push)",
        st.completion.duration_since(Time::ZERO).as_micros_f64(),
        st.hit_pool,
        ld.completion.duration_since(st.completion).as_micros_f64(),
    );
}
