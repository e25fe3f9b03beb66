//! `cxl-bench`: the one driver over the harness table.
//!
//! ```text
//! cxl-bench repro <name>|all [ARGS] [--trace-out PATH] [--profile]
//! cxl-bench bench <sweep|duplex|fault|fabric|serving|bias> [--out PATH]
//! cxl-bench check [--gates PATH] [--strict]
//! cxl-bench list
//! ```
//!
//! `repro` prints a harness report (sweep threads follow
//! `CXL_SIM_THREADS`); `bench` measures one harness into a bench report;
//! `check` gates fresh reports against the committed baselines; `list`
//! prints each harness with its smoke arguments. Any argument the
//! driver does not recognise exits 2 with this usage.

use cxl_bench::traceopt::TraceOut;
use cxl_bench::{benchkit, harness};
use sim_core::sweep;

/// Counts every heap allocation through [`benchkit::note_alloc`], so the
/// bench reports can record allocations per sweep point.
/// Counting only (no sizes): a pooled hot path shows up as the count
/// collapsing. It lives here because the library forbids unsafe code.
struct CountingAlloc;

// SAFETY: delegates allocation verbatim to `System`; the counter is a
// relaxed atomic with no allocation of its own.
unsafe impl std::alloc::GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        benchkit::note_alloc();
        std::alloc::GlobalAlloc::alloc(&std::alloc::System, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: std::alloc::Layout) -> *mut u8 {
        benchkit::note_alloc();
        std::alloc::GlobalAlloc::alloc_zeroed(&std::alloc::System, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new_size: usize) -> *mut u8 {
        benchkit::note_alloc();
        std::alloc::GlobalAlloc::realloc(&std::alloc::System, ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        std::alloc::GlobalAlloc::dealloc(&std::alloc::System, ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Prints `why`, the usage and the harness list to stderr; exits 2.
fn usage(why: &str) -> ! {
    let benches: Vec<&str> = benchkit::BENCHES.iter().map(|(n, _)| *n).collect();
    eprintln!("cxl-bench: {why}");
    eprintln!("usage: cxl-bench repro <name>|all [ARGS] [--trace-out PATH] [--profile]");
    eprintln!(
        "       cxl-bench bench <{}> [--out PATH]",
        benches.join("|")
    );
    eprintln!("       cxl-bench check [--gates PATH] [--strict]");
    eprintln!("       cxl-bench list");
    eprint!("harnesses (name smoke-args):\n{}", harness::list());
    std::process::exit(2);
}

fn repro(args: &[String]) {
    let (args, trace_out) = TraceOut::from_args(args.iter().cloned());
    let threads = sweep::max_threads();
    let report = match args.split_first() {
        None => Err("missing harness name".to_string()),
        Some((name, [])) if name == "all" => Ok(harness::run_all(threads)),
        Some((name, _)) if name == "all" => Err("`all` takes no operands".to_string()),
        Some((name, rest)) => match harness::find(name) {
            Some(h) => (h.run)(threads, rest).map(|run| run.stdout),
            None => Err(format!("unknown harness `{name}`")),
        },
    };
    match report {
        Ok(report) => print!("{report}"),
        Err(why) => usage(&why),
    }
    trace_out.finish();
}

fn bench(args: &[String]) {
    let (name, out) = match args {
        [name] => (name, None),
        [name, flag, path] if flag == "--out" => (name, Some(path)),
        _ => usage("expected `bench <name> [--out PATH]`"),
    };
    let Some((_, measure)) = benchkit::BENCHES.iter().find(|(n, _)| n == name) else {
        usage(&format!("unknown bench `{name}`"))
    };
    let report = measure();
    if let Some(path) = out {
        std::fs::write(path, report.to_json()).expect("write report");
        println!("wrote {path}");
    }
}

fn check(args: &[String]) {
    let mut gates = "BENCH_GATES.json";
    let mut strict = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--gates" => match it.next() {
                Some(path) => gates = path,
                None => usage("--gates needs a path"),
            },
            "--strict" => strict = true,
            _ => usage(&format!("unexpected argument `{arg}`")),
        }
    }
    if !benchkit::check(gates, strict) {
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((cmd, rest)) if cmd == "repro" => repro(rest),
        Some((cmd, rest)) if cmd == "bench" => bench(rest),
        Some((cmd, rest)) if cmd == "check" => check(rest),
        Some((cmd, [])) if cmd == "list" => print!("{}", harness::list()),
        Some((cmd, _)) => usage(&format!("unknown command `{cmd}`")),
        None => usage("missing command"),
    }
}
