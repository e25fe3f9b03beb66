//! The CXL offload's per-page transfer path allocates nothing: a 4 KiB D2H
//! pull, a D2D burst and the pipelined-stage timing run once per offloaded
//! page in the fig8 ksm/zswap cells, so a heap allocation there is paid
//! hundreds of thousands of times per sweep.
//!
//! Building simulator state per sweep point stays cheap too: a socket
//! costs its caches' set index, not a header per set, the sets it fills
//! share one slab per cache, and a traffic scheduler reuses the buffers
//! the previous one on its thread grew.
//!
//! A counting global allocator tallies allocations and requested bytes
//! per thread, so tests running in parallel in this binary do not see
//! each other's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use accel::ip::pipeline_time;
use cxl_proto::request::RequestType;
use cxl_type2::addr::DEVICE_MEM_BASE;
use cxl_type2::addr::{device_line, host_line};
use cxl_type2::device::CxlDevice;
use cxl_type2::fabric::Fabric;
use cxl_type2::lsu::{BurstTarget, Lsu};
use cxl_type2::transfer::{d2h_push_bytes, d2h_read_bytes};
use host::burst::burst_end;
use host::socket::Socket;
use mem_subsys::coherence::MesiState;
use sim_core::port::PortSpec;
use sim_core::time::{Duration, Time};
use sim_core::traffic::{FlowSpec, TrafficScheduler};

struct Counting;

/// What one thread asked the allocator for.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    /// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`).
    calls: u64,
    /// Bytes requested by those calls (a `realloc` counts its new size).
    bytes: u64,
    /// The largest single request.
    largest: u64,
}

thread_local! {
    static TALLY: Cell<Tally> = const {
        Cell::new(Tally {
            calls: 0,
            bytes: 0,
            largest: 0,
        })
    };
}

fn count(size: usize) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = TALLY.try_with(|t| {
        let mut n = t.get();
        n.calls += 1;
        n.bytes += size as u64;
        n.largest = n.largest.max(size as u64);
        t.set(n);
    });
}

// SAFETY: every call is forwarded unchanged to `System`, which meets the
// `GlobalAlloc` contract. The tally is a const-initialised thread-local
// `Cell` without a destructor, so counting neither allocates nor re-enters
// the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What this thread asked the allocator for while `f` ran.
fn tally_in<T>(f: impl FnOnce() -> T) -> (T, Tally) {
    let before = TALLY.replace(Tally {
        largest: 0,
        ..TALLY.get()
    });
    let out = f();
    let after = TALLY.get();
    let tally = Tally {
        calls: after.calls - before.calls,
        bytes: after.bytes - before.bytes,
        largest: after.largest,
    };
    (out, tally)
}

/// Allocations made on this thread while `f` runs.
fn allocs_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let (out, tally) = tally_in(f);
    (out, tally.calls)
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
    let port = dev.lsu_port();
    let base = device_line(0);
    let mut burst = |now| {
        burst_end((PAGE / 64) as usize, port, now, |i, t| {
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
fn concurrent_burst_allocates_only_its_latencies() {
    // A Fig. 4 repetition: 16 lines on the one-slice card.
    let mut host = Socket::xeon_6538y();
    let mut dev = CxlDevice::agilex7();
    let mlp = dev.timing.dcoh_slice_outstanding;
    let addrs: Vec<_> = (0..16).map(|i| device_line(i * 7)).collect();
    let mut burst = |now| {
        Lsu::new().concurrent_burst(
            &mut dev,
            &mut host,
            RequestType::NC_RD,
            BurstTarget::DeviceMemory,
            &addrs,
            now,
            mlp,
        )
    };
    let warm = burst(Time::ZERO).last_completion;
    let (r, allocs) = allocs_in(|| burst(warm));
    assert_eq!(r.latencies.len(), 16);
    // Driving a per-thread event-driven engine instead made 6: the
    // latencies and the growth of the engine's completion list.
    assert_eq!(
        allocs, 1,
        "a 16-line concurrent burst allocated {allocs} times"
    );
}

#[test]
fn fabric_burst_allocates_its_result() {
    // The fabric harness's store stream over four cards.
    let mut fab = Fabric::symmetric(4, 4);
    let mlp = fab.devs[0].timing.dcoh_slice_outstanding;
    let lines: Vec<u64> = (0..256).map(|i| DEVICE_MEM_BASE + i).collect();
    let warm = fab
        .concurrent_d2d_burst(RequestType::NC_WR, &lines, Time::ZERO, mlp)
        .result
        .last_completion;
    let (b, allocs) = allocs_in(|| fab.concurrent_d2d_burst(RequestType::NC_WR, &lines, warm, mlp));
    assert_eq!(b.per_device_lines, [64; 4]);
    // The latencies and the per-device line counts; a fresh event-driven
    // engine per burst, with its routed-line list, instead made 90.
    assert_eq!(
        allocs, 2,
        "a 4-card concurrent burst allocated {allocs} times"
    );
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

#[test]
fn socket_build_costs_only_its_set_index() {
    // One u32 per set of L1D, L2 and the 81,920-set LLC is 336 KB; the
    // sets themselves allocate on first fill.
    let ((), t) = tally_in(|| drop(Socket::xeon_6538y()));
    assert!(
        t.bytes < 512 * 1024,
        "building and dropping a socket requested {} bytes in {} calls",
        t.bytes,
        t.calls
    );
}

#[test]
fn llc_sets_share_one_slab() {
    // The ksm pattern: NC-P pushes leave one line in each of many LLC
    // sets (a fig8-ksm cell fills ~21 k of the LLC's 81,920). The sets
    // share one entry slab, so their first fills allocate O(log sets)
    // times, not once per set.
    let mut host = Socket::xeon_6538y();
    let mut dev = CxlDevice::agilex7();
    let sets = 20_000;
    let (done, allocs) = allocs_in(|| {
        (0..sets).fold(Time::ZERO, |now, i| {
            d2h_push_bytes(&mut dev, &mut host, host_line(i), 64, now)
        })
    });
    assert!(done > Time::ZERO);
    for i in [0, sets / 2, sets - 1] {
        assert_eq!(
            host.caches.llc_state(host_line(i)),
            Some(MesiState::Modified)
        );
    }
    assert!(
        allocs <= 64,
        "pushing one line into each of {sets} LLC sets allocated {allocs} times"
    );
}

/// A serving-like row: a flooding writer and a Zipfian Poisson reader,
/// 10 k ops over two ports.
fn serving_row() -> TrafficScheduler {
    let mut sched = TrafficScheduler::new(11);
    let port = PortSpec::in_order(16, Duration::ZERO);
    sched.add_flow(
        FlowSpec::bound("flood", port)
            .open_fixed(Duration::ZERO)
            .over_lines(0, 1 << 20)
            .requests(8000),
    );
    sched.add_flow(
        FlowSpec::bound("reader", port)
            .open_poisson(Duration::from_nanos(600))
            .zipfian(0.99)
            .over_lines(1 << 20, 1 << 20)
            .requests(2000),
    );
    sched
}

fn run_row(mut sched: TrafficScheduler) -> u64 {
    let mut bus_free = Time::ZERO;
    let report = sched.run(|_, at| {
        bus_free = bus_free.max(at) + Duration::from_nanos(20);
        bus_free
    });
    report.flows.iter().map(|f| f.ops).sum()
}

#[test]
fn second_scheduler_reuses_the_first_ones_buffers() {
    assert_eq!(run_row(serving_row()), 10_000);
    let (ops, t) = tally_in(|| run_row(serving_row()));
    assert_eq!(ops, 10_000);
    assert!(
        t.largest < 64 * 1024,
        "the second scheduler's largest allocation was {} bytes",
        t.largest
    );
}
