//! `cxl-bench`: the one driver over the harness table.
//!
//! ```text
//! cxl-bench repro <name>|all [ARGS] [--trace-out PATH] [--profile]
//! cxl-bench list
//! ```
//!
//! `repro` prints a harness report (sweep threads follow
//! `CXL_SIM_THREADS`); `list` prints each harness with its smoke
//! arguments. Any argument the driver does not recognise exits 2 with
//! this usage.

#![forbid(unsafe_code)]

use cxl_bench::harness;
use cxl_bench::traceopt::TraceOut;
use sim_core::sweep;

/// Prints `why`, the usage and the harness list to stderr; exits 2.
fn usage(why: &str) -> ! {
    eprintln!("cxl-bench: {why}");
    eprintln!("usage: cxl-bench repro <name>|all [ARGS] [--trace-out PATH] [--profile]");
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

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((cmd, rest)) if cmd == "repro" => repro(rest),
        Some((cmd, [])) if cmd == "list" => print!("{}", harness::list()),
        Some((cmd, _)) => usage(&format!("unknown command `{cmd}`")),
        None => usage("missing command"),
    }
}
