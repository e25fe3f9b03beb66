//! End-to-end integration: the full stack from workload pages through
//! zswap/ksm, the offload backends, the CXL device, and the host model.

use cxl_t2_sim::prelude::*;

/// The complete cxl-zswap data path: reclaim pressure pushes real pages
/// through the device into a device-memory zpool and faults bring them
/// back bit-identical.
#[test]
fn zswap_cxl_full_path_roundtrip() {
    let mut host = Socket::xeon_6538y();
    let backend = CxlBackend::agilex7();
    let mut zswap = Zswap::new(ZswapConfig::kernel_default(64 << 20), backend);
    let mut zone = MemoryZone::new(512, Watermarks::for_zone(512));
    let mut rng = SimRng::seed_from(11);
    let mix = PageMix::datacenter();

    // Fill well past capacity, remembering contents.
    let mut originals = std::collections::HashMap::new();
    let mut t = Time::ZERO;
    for i in 0..800u64 {
        let page = mix.sample(&mut rng).generate(&mut rng);
        originals.insert(i, page.clone());
        let o = zone.allocate(SwapKey(i), page, t, &mut zswap, &mut host);
        t = o.completion.max(t);
    }
    assert!(
        zone.reclaim_counts().0 > 0,
        "pressure triggered direct reclaim"
    );
    assert!(zswap.stats().stored > 0);

    // Every key is recoverable with its exact contents, resident or not.
    let mut faulted = 0;
    for i in 0..800u64 {
        if !zone.is_resident(SwapKey(i)) {
            let (page, done, _) = zone
                .fault_in(SwapKey(i), t, &mut zswap, &mut host)
                .expect("swapped page loads");
            assert_eq!(
                &page,
                originals.get(&i).expect("original recorded"),
                "key {i}"
            );
            t = done;
            faulted += 1;
        }
    }
    assert!(faulted > 0, "some pages had been swapped out");
    // The device actually carried the traffic.
    let dev_counters = zswap.backend().dev.counters();
    assert!(
        dev_counters.get("device.d2h.requests") > 1000,
        "pages moved over CXL D2H"
    );
}

/// ksm across backends merges exactly the same pages (functional
/// equivalence of the offload), while the CXL path needs less host CPU.
#[test]
fn ksm_backends_functionally_equivalent() {
    let mut rng = SimRng::seed_from(23);
    let mix = PageMix::vm_guest();
    let pages: Vec<PageData> = (0..200)
        .map(|_| mix.sample(&mut rng).generate(&mut rng))
        .collect();

    let run = |backend: Box<dyn OffloadBackend>| {
        let mut host = Socket::xeon_6538y();
        let mut ksm = Ksm::new(backend);
        let ids: Vec<_> = pages.iter().map(|p| ksm.register(p.clone())).collect();
        let mut cpu = Duration::ZERO;
        let mut t = Time::ZERO;
        for _ in 0..3 {
            let (done, c) = ksm.scan_cycle(&ids, t, &mut host);
            t = done;
            cpu += c;
        }
        let merged: Vec<bool> = ids.iter().map(|&id| ksm.is_merged(id)).collect();
        // Contents must be preserved bit-exactly through merging.
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(ksm.read_page(id), pages[i].as_slice(), "page {i} content");
        }
        (merged, ksm.stats().pages_merged, cpu)
    };

    let (m_cpu, n_cpu, cpu_cost) = run(Box::new(CpuBackend::new()));
    let (m_cxl, n_cxl, cxl_cost) = run(Box::new(CxlBackend::agilex7()));
    assert_eq!(m_cpu, m_cxl, "identical merge decisions");
    assert_eq!(n_cpu, n_cxl);
    assert!(n_cpu > 10, "the vm-guest mix produces merges");
    assert!(
        cxl_cost < cpu_cost,
        "cxl host CPU {cxl_cost} < cpu {cpu_cost}"
    );
}

/// The repro runners produce complete, finite tables (artifact smoke
/// test for every figure).
#[test]
fn all_figure_runners_produce_complete_output() {
    let f3 = cxl_bench::fig3::run_fig3_with_threads(1, 10, 1);
    assert_eq!(f3.len(), 8);
    assert!(f3
        .iter()
        .all(|r| r.cxl_latency_ns.is_finite() && r.cxl_bw_gbps > 0.0));

    let f4 = cxl_bench::fig4::run_fig4_with_threads(1, 10, 1);
    assert_eq!(f4.len(), 8);

    let f5 = cxl_bench::fig5::run_fig5_with_threads(1, 10, 1);
    assert_eq!(f5.len(), 24);

    use cxl_bench::fig6::{run_fig6, Direction};
    let f6 = run_fig6(1, Direction::H2d, true);
    assert!(f6.len() >= 6 * 8 - 8);

    let t3 = cxl_bench::tables::run_table3();
    assert_eq!(t3.len(), 18);

    let t4 = cxl_bench::tables::run_table4(1, 1);
    assert_eq!(t4.len(), 3);
}

/// Determinism across the whole stack: identical seeds give identical
/// experiment outputs.
#[test]
fn whole_stack_is_deterministic() {
    let a = cxl_bench::fig3::run_fig3_with_threads(1, 15, 9);
    let b = cxl_bench::fig3::run_fig3_with_threads(1, 15, 9);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.cxl_latency_ns, y.cxl_latency_ns);
        assert_eq!(x.emu_bw_gbps, y.emu_bw_gbps);
    }
    let t4a = cxl_bench::tables::run_table4(1, 5);
    let t4b = cxl_bench::tables::run_table4(1, 5);
    assert_eq!(t4a[2].total_us, t4b[2].total_us);
}

/// The device-memory zpool claim: with the CXL backend, compressed pages
/// live in device memory — host DRAM write traffic stays flat while the
/// device's memory sees the stores.
#[test]
fn cxl_zpool_lands_in_device_memory() {
    let mut host = Socket::xeon_6538y();
    let mut backend = CxlBackend::agilex7();
    let page = {
        let mut rng = SimRng::seed_from(3);
        PageContent::Text.generate(&mut rng)
    };
    let (_, dev_writes_before) = backend.dev.dev_mem.op_counts();
    let out = backend.compress(&page, Time::ZERO, &mut host);
    let (_, dev_writes_after) = backend.dev.dev_mem.op_counts();
    assert!(out.value.compressed_len() < PAGE_SIZE);
    assert!(
        dev_writes_after > dev_writes_before,
        "compressed page stored into device memory"
    );
    assert!(backend.zpool_in_device_memory());
}
