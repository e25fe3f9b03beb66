//! Pins the Fig. 3 UPI-vs-CXL crossover shape (§V-A, Insight 1).
//!
//! The figure's signature is a *crossover*: a true CXL Type-2 device is
//! strictly slower than its UPI-emulated stand-in on single-access D2H
//! latency, yet the ranking flips on burst bandwidth — CXL reads beat the
//! emulation (the LSU pipelines past the core's remote-load credits) while
//! writes stay behind it (the remote socket's write queues absorb bursts).
//! Any calibration change that flattens either side of that crossover is a
//! regression against the paper.

use cxl_bench::fig3::{run_fig3_with_threads, Fig3Row};

fn find(rows: &[Fig3Row], request: &str, llc_hit: bool) -> Fig3Row {
    rows.iter()
        .find(|r| r.request == request && r.llc_hit == llc_hit)
        .unwrap_or_else(|| panic!("row {request} llc_hit={llc_hit} missing"))
        .clone()
}

#[test]
fn latency_side_cxl_always_above_upi() {
    let rows = run_fig3_with_threads(1, 40, 7);
    assert_eq!(rows.len(), 8, "four request types x LLC hit/miss");
    for r in &rows {
        let ratio = r.cxl_latency_ns / r.emu_latency_ns;
        // The paper's Insight-1 gap: CXL D2H sits meaningfully above the
        // emulation but within the same order of magnitude.
        assert!(
            (1.1..2.5).contains(&ratio),
            "{} LLC-{}: latency ratio {ratio} outside the Fig. 3 envelope",
            r.request,
            u8::from(r.llc_hit),
        );
    }
}

#[test]
fn bandwidth_side_crosses_over_between_reads_and_writes() {
    let rows = run_fig3_with_threads(1, 40, 7);
    // Reads: true CXL sustains more burst bandwidth than the emulation —
    // the LSU's request window is deeper than the core's remote credits.
    for req in ["NC-rd", "CS-rd"] {
        for llc_hit in [false, true] {
            let r = find(&rows, req, llc_hit);
            assert!(
                r.cxl_bw_gbps > r.emu_bw_gbps,
                "{req} LLC-{}: read bandwidth failed to cross over \
                 (cxl {} <= emu {})",
                u8::from(llc_hit),
                r.cxl_bw_gbps,
                r.emu_bw_gbps,
            );
        }
    }
    // Writes: the emulation stays ahead — the remote socket's 32-entry
    // write queues absorb the burst while CXL writes cross the link.
    for req in ["NC-wr", "CO-wr"] {
        for llc_hit in [false, true] {
            let r = find(&rows, req, llc_hit);
            assert!(
                r.emu_bw_gbps > r.cxl_bw_gbps,
                "{req} LLC-{}: write bandwidth unexpectedly crossed over \
                 (cxl {} >= emu {})",
                u8::from(llc_hit),
                r.cxl_bw_gbps,
                r.emu_bw_gbps,
            );
        }
    }
}

#[test]
fn crossover_is_widest_for_nc_requests() {
    let rows = run_fig3_with_threads(1, 40, 7);
    // NC-rd is the fastest D2H read and NC-wr the fastest D2H write
    // (§V-A picks them for cxl-zswap); each also shows its side of the
    // crossover more strongly than the cacheable-owned flavor.
    let nc_rd = find(&rows, "NC-rd", false);
    let cs_rd = find(&rows, "CS-rd", false);
    assert!(nc_rd.cxl_latency_ns < cs_rd.cxl_latency_ns);
    let nc_wr = find(&rows, "NC-wr", false);
    let co_wr = find(&rows, "CO-wr", false);
    assert!(nc_wr.cxl_latency_ns < co_wr.cxl_latency_ns);
    assert!(nc_wr.cxl_bw_gbps > co_wr.cxl_bw_gbps);
}
