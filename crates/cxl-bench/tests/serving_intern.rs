//! Pins the fleet's build-time-interning contract in a process of its
//! own: integration-test binaries run nothing else, so once the warm-up
//! point has interned the lazy `traffic.*` / `device.*` counter slots,
//! the global interner must stay frozen through every subsequent fleet
//! hot path. (Library unit tests share a process with unrelated tests
//! that intern concurrently, so this assertion can only live here and
//! in the `cxl-bench` driver.)

use cxl_bench::serving::run_serving_checked;
use sim_core::trace;

#[test]
fn counter_interner_is_frozen_across_sweep_points() {
    // Warm-up inside run_serving_checked covers the first point; the
    // sweep then re-runs every point under the growth assertion.
    let rows = run_serving_checked(2, 42);
    assert_eq!(rows.len(), 9);

    // And the whole-sweep view: a second checked sweep (same process,
    // everything warm) must not intern a single new counter name.
    let before = trace::interned_counters();
    let again = run_serving_checked(2, 42);
    assert_eq!(trace::interned_counters(), before);
    assert_eq!(again.len(), rows.len());
}
