//! A reduced device-characterization sweep (the §V microbenchmarks):
//! prints compact versions of Figs. 3–5 side by side, the way a user
//! would sanity-check a new device or a modified timing model.
//!
//! Run with: `cargo run --release --example device_characterization`

use cxl_bench::{fig3, fig4, fig5};

fn main() {
    let reps = 200;
    let threads = sim_core::sweep::max_threads();
    println!("Device characterization (reps = {reps}, sweep threads = {threads})\n");

    let rows = fig3::run_fig3_with_threads(threads, reps, 1);
    print!("{}", fig3::render_fig3(&rows));
    println!();

    let rows = fig4::run_fig4_with_threads(threads, reps, 2);
    print!("{}", fig4::render_fig4(&rows));
    println!();

    let rows = fig5::run_fig5_with_threads(threads, reps, 3);
    print!("{}", fig5::render_fig5(&rows));

    println!("\nInsights checked:");
    println!("  1. emulated-NUMA D2H is optimistic on latency, pessimistic on read bandwidth");
    println!("  2. device-bias wins for writes and DMC misses; shared-read hits tie");
    println!("  3. DMC lines should be Shared or flushed before H2D traffic");
    println!("  4. NC-P prefetch turns device-memory loads into LLC hits");
}
