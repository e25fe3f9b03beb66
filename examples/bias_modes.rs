//! Dynamic bias-mode switching (§IV-B): a producer/consumer pipeline that
//! alternates between device-heavy phases (device bias) and host-readback
//! phases (which automatically flip the region to host bias).
//!
//! Run with: `cargo run --example bias_modes`

use cxl_t2_sim::prelude::*;

fn main() {
    let mut host = Socket::xeon_6538y();
    let mut dev = CxlDevice::agilex7();
    let region = device_line(0);
    let lines = 64u64;
    let mut t = Time::ZERO;

    for phase in 0..3 {
        // --- device-heavy phase: the ACC writes the region ---
        // Software obligation before entering device bias: flush the
        // host-cache lines of the region.
        t = dev.enter_device_bias(region, lines, t, &mut host);
        let start = t;
        for i in 0..lines {
            let acc = dev.d2d(RequestType::CO_WR, region.offset(i), t, &mut host);
            t = acc.completion;
        }
        let device_phase = t.duration_since(start);

        // --- host readback phase: first H2D access flips the bias ---
        let start = t;
        for i in 0..lines {
            let acc = dev.h2d_load(region.offset(i), t, &mut host);
            t = acc.completion;
        }
        let host_phase = t.duration_since(start);
        let mode_now = dev.bias.mode_of(0);
        println!(
            "phase {phase}: device writes {:>8.2} us (device-bias), host reads {:>8.2} us, \
             region is now {mode_now}-bias",
            device_phase.as_micros_f64(),
            host_phase.as_micros_f64(),
        );
    }

    let (flips, switches) = dev.bias.transition_counts();
    println!("bias transitions: {switches} explicit switches to device bias, {flips} H2D-triggered flips back");
}
