//! The CXL offload's per-page transfer path allocates nothing: a 4 KiB D2H
//! pull, a D2D burst and the pipelined-stage timing run once per offloaded
//! page in the fig8 ksm/zswap cells, so a heap allocation there is paid
//! hundreds of thousands of times per sweep.
//!
//! A counting global allocator tallies allocations per thread, so tests
//! running in parallel in this binary do not see each other's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use accel::ip::pipeline_time;
use cxl_proto::request::RequestType;
use cxl_type2::addr::{device_line, host_line};
use cxl_type2::device::CxlDevice;
use cxl_type2::transfer::d2h_read_bytes;
use host::burst::{burst_end, BurstSpec};
use host::socket::Socket;
use sim_core::time::{Duration, Time};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`, which meets the
// `GlobalAlloc` contract. The tally is a const-initialised thread-local
// `Cell` without a destructor, so counting neither allocates nor re-enters
// the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made on this thread while `f` runs.
fn allocs_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

const PAGE: u64 = 4096;

#[test]
fn page_pull_allocates_nothing() {
    let mut host = Socket::xeon_6538y();
    let mut dev = CxlDevice::agilex7();
    let lines = PAGE / 64;
    assert!(
        lines as usize > dev.lsu_port().max_outstanding,
        "the pull must wrap the LSU window"
    );
    let page = host_line(4096);
    // The first pull fills the caches' sets and this thread's window ring.
    let warm = d2h_read_bytes(&mut dev, &mut host, page, PAGE, Time::ZERO);
    let (done, allocs) = allocs_in(|| d2h_read_bytes(&mut dev, &mut host, page, PAGE, warm));
    assert!(done > warm);
    assert_eq!(allocs, 0, "a 4 KiB D2H pull allocated {allocs} times");
}

#[test]
fn d2d_burst_allocates_nothing() {
    let mut host = Socket::xeon_6538y();
    let mut dev = CxlDevice::agilex7();
    let spec = BurstSpec::from_port((PAGE / 64) as usize, &dev.lsu_port());
    let base = device_line(0);
    let mut burst = |now| {
        burst_end(spec, now, |i, t| {
            dev.d2d(RequestType::CS_RD, base.offset(i as u64), t, &mut host)
                .completion
        })
    };
    let warm = burst(Time::ZERO);
    let (done, allocs) = allocs_in(|| burst(warm));
    assert!(done > warm);
    assert_eq!(allocs, 0, "a 4 KiB D2D burst allocated {allocs} times");
}

#[test]
fn pipeline_time_allocates_nothing() {
    let stages = [
        Duration::from_micros(2),
        Duration::from_micros(4),
        Duration::from_micros(1),
    ];
    pipeline_time(&stages, 16);
    let (t, allocs) = allocs_in(|| pipeline_time(&stages, 16));
    // Fill 125 + 250 + 62.5 ns, then 15 chunks at the 250 ns bottleneck.
    assert_eq!(t, Duration::from_picos(4_187_500));
    assert_eq!(allocs, 0, "pipeline_time allocated {allocs} times");
}
