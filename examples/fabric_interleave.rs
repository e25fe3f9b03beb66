//! Two CXL Type-2 cards behind one host, 2-way HDM-interleaved: a
//! contiguous store stream fans out round-robin across the cards and
//! aggregate bandwidth ≈ doubles versus a single card.
//!
//! Run with: `cargo run --release --example fabric_interleave`

use cxl_t2_sim::prelude::*;
use cxl_type2::addr::DEVICE_MEM_BASE;
use sim_core::topology::DeviceId;

const LINES: u64 = 512;

fn drive(mut fab: Fabric, label: &str) -> f64 {
    // Flip the stream into device bias (the accelerator owns it), then
    // fire one NC-write per line with the DCOH slice's full outstanding
    // window; every card's memory channels progress in parallel.
    let base = LineAddr::new(DEVICE_MEM_BASE);
    let t = fab.enter_device_bias(base, LINES, Time::ZERO);
    let addrs: Vec<u64> = (0..LINES).map(|i| DEVICE_MEM_BASE + i).collect();
    let mlp = fab.devs[0].timing.dcoh_slice_outstanding;
    let burst = fab.concurrent_d2d_burst(RequestType::NC_WR, &addrs, t, mlp);
    let gbps = burst.result.bandwidth_gbps(64);
    println!(
        "{label:<22} {gbps:>7.2} GB/s   per-device lines {:?}",
        burst.per_device_lines
    );
    gbps
}

fn main() {
    println!("Fabric interleave — {LINES}-line contiguous NC-WR store stream");

    let single = drive(Fabric::symmetric(1, 1), "1 device");
    // Two cards, 2-way interleave at the default 256 B granularity:
    // granule 0 → dev0, granule 1 → dev1, granule 2 → dev0, …
    let dual = drive(Fabric::symmetric(2, 2), "2 devices, 2-way");
    println!("scaling: {:.2}x", dual / single);

    // The decode is inspectable directly: consecutive 256 B granules
    // alternate between the cards, re-based into each card's local space.
    let fab = Fabric::symmetric(2, 2);
    let cards: Vec<String> = (0..fab.devs.len()).map(|i| format!("dev{i}")).collect();
    println!("topology: (host0,({}))", cards.join(","));
    let dec = fab.decoders();
    for granule in 0..4u64 {
        let hpa = DEVICE_MEM_BASE + granule * 4; // 4 lines per granule
        let d = dec.decode(hpa).expect("inside the HDM window");
        println!(
            "  hpa {hpa:#x} -> dev{} dpa-line {:#x} (way {})",
            d.device.0, d.dpa_line, d.way
        );
    }
    assert_eq!(
        dec.decode(DEVICE_MEM_BASE + 4).map(|d| d.device),
        Some(DeviceId(1)),
        "second granule interleaves to the second card"
    );
}
