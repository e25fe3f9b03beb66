//! The cxl-ksm scenario of §VI-B: deduplicate the pages of a fleet of VMs
//! through each offload backend and compare merge results, scan wall time,
//! and host CPU consumption.
//!
//! Run with: `cargo run --example ksm_offload`

use cxl_t2_sim::prelude::*;

fn run_backend(name: &str, backend: Box<dyn OffloadBackend>) {
    let mut host = Socket::xeon_6538y();
    let mut ksm = Ksm::new(backend);
    let mut rng = SimRng::seed_from(99);
    let mix = PageMix::vm_guest();

    // 8 small VMs, 64 candidate pages each (guest kernels and common
    // libraries produce the Duplicate class).
    let ids: Vec<KsmPageId> = (0..8 * 64)
        .map(|_| ksm.register(mix.sample(&mut rng).generate(&mut rng)))
        .collect();

    let mut t = Time::ZERO;
    let mut cpu = Duration::ZERO;
    for _cycle in 0..3 {
        let (done, c) = ksm.scan_cycle(&ids, t, &mut host);
        t = done;
        cpu += c;
    }
    let s = ksm.stats();
    println!(
        "{name:<10} merged {:>3} of {} pages ({} stable nodes) | scan {:>9.1} us | host CPU {:>9.1} us",
        s.pages_merged,
        ids.len(),
        s.stable_nodes,
        t.duration_since(Time::ZERO).as_micros_f64(),
        cpu.as_micros_f64(),
    );
}

fn main() {
    println!("ksm dedup of 8 VMs x 64 pages (vm-guest mix), 3 scan cycles\n");
    run_backend("cpu", Box::new(CpuBackend::new()));
    run_backend("pcie-rdma", Box::new(PcieBackend::bf3_rdma()));
    run_backend("pcie-dma", Box::new(PcieBackend::agilex7_dma()));
    run_backend("cxl", Box::new(CxlBackend::agilex7()));

    println!("\nCoW semantics: a write to a merged page breaks the sharing:");
    let mut host = Socket::xeon_6538y();
    let mut ksm = Ksm::new(CxlBackend::agilex7());
    let a = ksm.register(vec![7u8; PAGE_SIZE]);
    let b = ksm.register(vec![7u8; PAGE_SIZE]);
    for _ in 0..3 {
        ksm.scan_cycle(&[a, b], Time::ZERO, &mut host);
    }
    assert!(ksm.is_merged(a) && ksm.is_merged(b));
    ksm.write_page(a, vec![8u8; PAGE_SIZE]);
    println!(
        "  after write: a merged = {}, b merged = {}, cow breaks = {}",
        ksm.is_merged(a),
        ksm.is_merged(b),
        ksm.stats().cow_breaks
    );
}
