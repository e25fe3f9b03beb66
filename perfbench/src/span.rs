//! Layer spans recorded from the benchmark's own calls into the
//! simulator, a counting allocator, and the per-layer ledger they feed.
//!
//! A span times one call into a layer's public function. Spans nest: a
//! layer's *self* time (and self allocations) is its span minus the spans
//! opened inside it, so the self times of one sweep add up to the sweep's
//! host time. Spans cost one thread-local flag read when tracing is off.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Counts every heap allocation of the process (alloc, alloc_zeroed and
/// realloc, as `cxl_bench::benchkit`'s counting allocator does).
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every call verbatim to `System`; the counter is a
// relaxed atomic that allocates nothing itself.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Allocations made by the whole process so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// The simulator layers the traced run splits host time across.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    PageGenerate,
    Reclaim,
    OffloadCxl,
    Accel,
    Ksm,
    RunCore,
    AddFlow,
    TrafficRun,
    FabricRoute,
    RetryDeliver,
    Occupancy,
    Serving,
    DeviceH2d,
    Lsu,
    Device,
    HostSocket,
}

/// Every layer with its metric name and the names of its extra counts
/// (empty names are unused slots).
pub const LAYERS: [(Layer, &str, [&str; 2]); 16] = [
    (Layer::PageGenerate, "kernel.page.generate", ["", ""]),
    (
        Layer::Reclaim,
        "kernel.reclaim",
        ["pages_reclaimed", "faults"],
    ),
    (Layer::OffloadCxl, "kernel.offload.cxl", ["bytes", ""]),
    (Layer::Accel, "accel", ["bytes", ""]),
    (Layer::Ksm, "kernel.ksm", ["merges", "cow_breaks"]),
    (Layer::RunCore, "kvs.server.run_core", ["jobs", ""]),
    (Layer::AddFlow, "sim_core.traffic.add_flow", ["", ""]),
    (Layer::TrafficRun, "sim_core.traffic.run", ["ops", ""]),
    (Layer::FabricRoute, "cxl_type2.fabric.route", ["", ""]),
    (
        Layer::RetryDeliver,
        "cxl_proto.retry.deliver",
        ["replays", ""],
    ),
    (
        Layer::Occupancy,
        "cxl_type2.occupancy",
        ["table_stalls", "quota_stalls"],
    ),
    (Layer::Serving, "sim_core.serving", ["shed", "throttled"]),
    (Layer::DeviceH2d, "cxl_type2.device.h2d", ["", ""]),
    (Layer::Lsu, "cxl_type2.lsu", ["lines", ""]),
    (Layer::Device, "cxl_type2.device", ["flips", ""]),
    (Layer::HostSocket, "host.socket", ["", ""]),
];

/// What one layer accumulated.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerStat {
    pub calls: u64,
    pub self_ns: u64,
    pub self_allocs: u64,
    pub counts: [u64; 2],
}

/// The per-layer ledger of one thread.
#[derive(Debug, Default)]
pub struct Ledger {
    pub layers: [LayerStat; LAYERS.len()],
    /// Host time spent inside top-level spans (the rest of a traced
    /// sweep is benchmark-harness glue).
    pub spanned_ns: u64,
}

struct Frame {
    layer: Layer,
    start: Instant,
    allocs: u64,
    child_ns: u64,
    child_allocs: u64,
}

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
    static LEDGER: RefCell<Ledger> = RefCell::new(Ledger::default());
}

/// Turns span recording on or off for the calling thread.
pub fn set_tracing(on: bool) {
    ON.with(|c| c.set(on));
}

fn tracing() -> bool {
    ON.with(Cell::get)
}

/// Hands out the calling thread's ledger and starts a fresh one.
pub fn take_ledger() -> Ledger {
    LEDGER.with(|l| std::mem::take(&mut *l.borrow_mut()))
}

/// Adds `n` to extra count `slot` of `layer` (tracing on only).
pub fn count(layer: Layer, slot: usize, n: u64) {
    if tracing() {
        LEDGER.with(|l| l.borrow_mut().layers[layer as usize].counts[slot] += n);
    }
}

fn enter(layer: Layer) {
    STACK.with(|s| {
        s.borrow_mut().push(Frame {
            layer,
            start: Instant::now(),
            allocs: allocs(),
            child_ns: 0,
            child_allocs: 0,
        })
    });
}

/// Closes the innermost span, charging `extra_child_*` as time the span
/// did not spend itself.
fn exit(extra_child_ns: u64, extra_child_allocs: u64) {
    let end = Instant::now();
    let end_allocs = allocs();
    STACK.with(|s| {
        let mut stack = s.borrow_mut();
        let f = stack.pop().expect("span exit without enter");
        let total_ns = end.duration_since(f.start).as_nanos() as u64;
        let total_allocs = end_allocs - f.allocs;
        LEDGER.with(|l| {
            let mut l = l.borrow_mut();
            let st = &mut l.layers[f.layer as usize];
            st.calls += 1;
            st.self_ns += total_ns.saturating_sub(f.child_ns + extra_child_ns);
            st.self_allocs += total_allocs.saturating_sub(f.child_allocs + extra_child_allocs);
            match stack.last_mut() {
                Some(parent) => {
                    parent.child_ns += total_ns;
                    parent.child_allocs += total_allocs;
                }
                None => l.spanned_ns += total_ns,
            }
        });
    })
}

/// Runs `f` inside a span of `layer`.
#[inline]
pub fn span<T>(layer: Layer, f: impl FnOnce() -> T) -> T {
    if !tracing() {
        return f();
    }
    enter(layer);
    let v = f();
    exit(0, 0);
    v
}

/// Runs `f` inside a span of `outer` whose work contains an accelerator
/// function that `replay` re-runs on the same input. The replay's time
/// is charged to [`Layer::Accel`] and deducted from `outer`'s self time
/// (it stands in for the copy of the work inside `f`); the replay itself
/// is tracing overhead and appears in no layer's self time.
pub fn span_with_replay<T>(outer: Layer, f: impl FnOnce() -> T, replay: impl FnOnce()) -> T {
    if !tracing() {
        return f();
    }
    enter(outer);
    let v = f();
    let t = Instant::now();
    let a = allocs();
    replay();
    let r_ns = t.elapsed().as_nanos() as u64;
    let r_allocs = allocs() - a;
    LEDGER.with(|l| {
        let st = &mut l.borrow_mut().layers[Layer::Accel as usize];
        st.calls += 1;
        st.self_ns += r_ns;
        st.self_allocs += r_allocs;
    });
    // Once for the replay that ran inside this span, once for the
    // accelerator work it stands in for.
    exit(2 * r_ns, 2 * r_allocs);
    v
}
