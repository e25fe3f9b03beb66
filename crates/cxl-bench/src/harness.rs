//! The harness table: every reproduced artifact as plain data — a name,
//! the small argument set tests and CI run it at, and one function that
//! renders its report on a given worker-pool size.
//!
//! The `cxl-bench` driver (`repro`, `list`) and the table-driven
//! thread-invariance test in `tests/sweep_determinism.rs` both walk
//! [`HARNESSES`], so adding an artifact is adding one entry here.

use std::fmt::Debug;
use std::str::FromStr;

use kvs::fig8::Fig8Config;
use sim_core::time::Duration;

use crate::fig6::Direction;
use crate::fig8run::Feature;
use crate::{
    ablations, bias, duplex, fabric, fault, fig3, fig4, fig5, fig6, fig8run, mlc, serving, tables,
};

/// Seed of every seeded harness (`serving` takes it as its operand).
const SEED: u64 = 42;

/// One harness run: the report and the rows it was rendered from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Run {
    /// The report, exactly as `cxl-bench repro <name>` prints it.
    pub stdout: String,
    /// `format!("{rows:?}")` of the rows behind the report. Rust's float
    /// `Debug` round-trips, so comparing two of these is bit-exact.
    /// Empty for `ablations`, which renders straight from its sweeps.
    pub(crate) rows: String,
}

impl Run {
    fn of(stdout: String, rows: &impl Debug) -> Run {
        Run {
            stdout,
            rows: format!("{rows:?}"),
        }
    }

    fn text(stdout: String) -> Run {
        Run {
            stdout,
            rows: String::new(),
        }
    }
}

/// One registry entry.
#[derive(Debug, Clone, Copy)]
pub struct Harness {
    /// The `cxl-bench repro <name>` name.
    pub name: &'static str,
    /// The small argument set tests and CI run the harness at.
    pub smoke: &'static [&'static str],
    /// Runs the harness on a `threads`-worker sweep pool with the given
    /// operands, or names the operand it rejects. `tables` and `mlc` run
    /// serially.
    pub run: fn(threads: usize, args: &[String]) -> Result<Run, String>,
}

impl Harness {
    const fn new(
        name: &'static str,
        smoke: &'static [&'static str],
        run: fn(usize, &[String]) -> Result<Run, String>,
    ) -> Harness {
        Harness { name, smoke, run }
    }
}

/// Every harness, in paper order, then the extensions.
pub const HARNESSES: &[Harness] = &[
    Harness::new("tables", &["table3"], run_tables),
    Harness::new("fig3", &["50"], run_fig3),
    Harness::new("fig4", &["50"], run_fig4),
    Harness::new("fig5", &["50"], run_fig5),
    Harness::new("fig6", &[], run_fig6),
    Harness::new("table4", &[], run_table4),
    Harness::new("fig8", &["--quick"], run_fig8),
    Harness::new("ablations", &[], run_ablations),
    Harness::new("duplex", &["1000"], run_duplex),
    Harness::new("fault", &["800"], run_fault),
    Harness::new("fabric", &["1024"], run_fabric),
    Harness::new("serving", &[], run_serving),
    Harness::new("bias", &["1000"], run_bias),
    Harness::new("mlc", &[], run_mlc),
];

/// The registry entry called `name`.
pub fn find(name: &str) -> Option<&'static Harness> {
    HARNESSES.iter().find(|h| h.name == name)
}

/// One `name smoke-args` line per harness (the `cxl-bench list` output).
pub fn list() -> String {
    HARNESSES
        .iter()
        .map(|h| [&[h.name], h.smoke].concat().join(" ") + "\n")
        .collect()
}

/// `cxl-bench repro all`: every paper artifact in paper order, with
/// reduced repetition counts (200), two of the four Fig. 6 series and
/// the quick Fig. 8 config — the one-shot artifact run.
pub fn run_all(threads: usize) -> String {
    let report = |name: &str, args: &[&str]| {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        let h = find(name).expect("registered harness");
        (h.run)(threads, &args).expect("valid operands").stdout
    };
    [
        report("tables", &[]),
        report("fig3", &["200"]),
        report("fig4", &["200"]),
        report("fig5", &["200"]),
        fig6::render_fig6(&fig6::run_fig6(threads, Direction::H2d, true), "H2D writes"),
        fig6::render_fig6(&fig6::run_fig6(threads, Direction::D2h, false), "D2H reads"),
        report("table4", &[]),
        report("fig8", &["--quick"]),
        report("ablations", &[]),
    ]
    .join("\n")
}

/// The harness's single optional operand, or `default` when absent.
fn operand<T: FromStr>(args: &[String], default: T) -> Result<T, String> {
    match args {
        [] => Ok(default),
        [a] => a.parse().map_err(|_| format!("cannot parse `{a}`")),
        _ => Err(format!("expected one operand, got `{}`", args.join(" "))),
    }
}

/// An [`operand`] that sizes the run; zero is rejected like garbage.
fn size(args: &[String], default: usize) -> Result<usize, String> {
    match operand(args, default)? {
        0 => Err("size must be positive".to_string()),
        n => Ok(n),
    }
}

/// Rejects every operand of a harness that takes none.
fn no_operand(args: &[String]) -> Result<(), String> {
    match args.first() {
        None => Ok(()),
        Some(a) => Err(format!("unexpected argument `{a}`")),
    }
}

/// Tables I–III: `table1`, `table2`, `table3`, or all three.
fn run_tables(_threads: usize, args: &[String]) -> Result<Run, String> {
    let which: String = operand(args, String::new())?;
    if !matches!(which.as_str(), "" | "table1" | "table2" | "table3") {
        return Err(format!("unknown table `{which}`"));
    }
    let all = which.is_empty();
    let mut out = String::new();
    if all || which == "table1" {
        out += &tables::render_table1();
        out.push('\n');
    }
    if all || which == "table2" {
        out += &tables::render_table2();
        out.push('\n');
    }
    let mut rows = Vec::new();
    if all || which == "table3" {
        rows = tables::run_table3();
        out += &tables::render_table3(&rows);
    }
    Ok(Run::of(out, &rows))
}

fn run_fig3(threads: usize, args: &[String]) -> Result<Run, String> {
    let rows = fig3::run_fig3_with_threads(threads, size(args, 1000)?, SEED);
    Ok(Run::of(fig3::render_fig3(&rows), &rows))
}

fn run_fig4(threads: usize, args: &[String]) -> Result<Run, String> {
    let rows = fig4::run_fig4_with_threads(threads, size(args, 1000)?, SEED);
    Ok(Run::of(fig4::render_fig4(&rows), &rows))
}

fn run_fig5(threads: usize, args: &[String]) -> Result<Run, String> {
    let rows = fig5::run_fig5_with_threads(threads, size(args, 1000)?, SEED);
    Ok(Run::of(fig5::render_fig5(&rows), &rows))
}

/// Fig. 6: all four direction/operation series.
fn run_fig6(threads: usize, args: &[String]) -> Result<Run, String> {
    no_operand(args)?;
    let series =
        fig6::SERIES.map(|(dir, write, title)| (fig6::run_fig6(threads, dir, write), title));
    let out: Vec<String> = series
        .iter()
        .map(|(points, title)| fig6::render_fig6(points, title))
        .collect();
    Ok(Run::of(out.join("\n"), &series))
}

fn run_table4(threads: usize, args: &[String]) -> Result<Run, String> {
    no_operand(args)?;
    let rows = tables::run_table4(threads, SEED);
    Ok(Run::of(tables::render_table4(&rows), &rows))
}

/// Fig. 8: the 400 ms-per-cell experiment (minutes), or the reduced
/// config with `--quick`.
fn run_fig8(threads: usize, args: &[String]) -> Result<Run, String> {
    let cfg = match args {
        [] => Fig8Config {
            duration: Duration::from_millis(400),
            ..Fig8Config::default()
        },
        [a] if a == "--quick" => Fig8Config::smoke(),
        _ => return Err(format!("expected `--quick`, got `{}`", args.join(" "))),
    };
    let zswap = fig8run::run_fig8_with_threads(threads, &cfg, Feature::Zswap);
    let ksm = fig8run::run_fig8_with_threads(threads, &cfg, Feature::Ksm);
    let out = fig8run::render_fig8(&zswap, Feature::Zswap)
        + "\n"
        + &fig8run::render_fig8(&ksm, Feature::Ksm);
    Ok(Run::of(out, &(zswap, ksm)))
}

fn run_ablations(threads: usize, args: &[String]) -> Result<Run, String> {
    no_operand(args)?;
    Ok(Run::text(ablations::render_ablations(threads)))
}

fn run_duplex(threads: usize, args: &[String]) -> Result<Run, String> {
    let requests = size(args, 4000)? as u64;
    let rows = duplex::run_duplex_with_threads(threads, requests, requests, SEED);
    Ok(Run::of(duplex::render_duplex(&rows), &rows))
}

fn run_fault(threads: usize, args: &[String]) -> Result<Run, String> {
    let rows = fault::run_fault_with_threads(threads, size(args, 2000)? as u64, SEED);
    Ok(Run::of(fault::render_fault(&rows), &rows))
}

fn run_fabric(threads: usize, args: &[String]) -> Result<Run, String> {
    let lines = size(args, fabric::DEFAULT_LINES)?;
    let points = fabric::run_fabric_sweep_with_threads(threads, lines);
    Ok(Run::of(fabric::render_fabric(&points), &points))
}

/// The checked serving sweep: after the warm-up point it asserts that
/// the global counter interner does not grow during any fleet hot path.
fn run_serving(threads: usize, args: &[String]) -> Result<Run, String> {
    let rows = serving::run_serving_checked(threads, operand(args, SEED)?);
    Ok(Run::of(serving::render_serving(&rows), &rows))
}

fn run_bias(threads: usize, args: &[String]) -> Result<Run, String> {
    let report = bias::run_bias_with_threads(threads, size(args, 2000)? as u64, SEED);
    Ok(Run::of(bias::render_bias(&report), &report))
}

fn run_mlc(_threads: usize, args: &[String]) -> Result<Run, String> {
    no_operand(args)?;
    let (paths, strides) = (mlc::run_mlc(), mlc::run_mlc_strides());
    Ok(Run::of(
        mlc::render_mlc(&paths, &strides),
        &(paths, strides),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(a: &[&str]) -> Vec<String> {
        a.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn names_are_unique_and_listed() {
        let listed = list();
        for (i, h) in HARNESSES.iter().enumerate() {
            assert!(HARNESSES[..i].iter().all(|o| o.name != h.name));
            assert!(listed.lines().any(|l| l.split(' ').next() == Some(h.name)));
        }
        assert!(listed.contains("tables table3\n"));
        assert!(
            listed.contains("\nfig6\n"),
            "no trailing space without args"
        );
    }

    #[test]
    fn unknown_and_unparsable_operands_are_rejected() {
        let table3 = |a: &[&str]| run_tables(1, &args(a)).map(|_| ());
        assert!(table3(&["table4"]).is_err());
        assert!(table3(&["table3", "table1"]).is_err());
        for bad in [&["abc"][..], &["0"], &["-5"], &["100", "--cycles"]] {
            assert!(size(&args(bad), 7).is_err(), "{bad:?}");
        }
        assert_eq!(size(&args(&[]), 7), Ok(7));
        assert_eq!(size(&args(&["12"]), 7), Ok(12));
        assert!(run_fig8(1, &args(&["--cycles"])).is_err());
        assert!(run_mlc(1, &args(&["--quick"])).is_err());
    }
}
