//! `--trace-out <path>` and `--profile` support for `cxl-bench repro`.
//!
//! Every harness run accepts `--trace-out <path>`: when present, a
//! tracer is installed for the whole run and the captured events are
//! exported as JSON lines to `<path>` on exit. It also accepts
//! `--profile`: the [`sweep::profile`] stage accounting is enabled for
//! the run and the per-stage breakdown is printed to **stderr** on
//! exit. A capture that overflowed the ring keeps only the newest
//! events; one stderr line then says how many were dropped. Both flags
//! (and any bare `--` separators cargo users habitually pass) are
//! stripped before the harness sees its own arguments, and nothing extra
//! is printed to stdout, so the reproduced tables/figures are
//! byte-identical with and without them.

use std::io::Write;
use std::path::PathBuf;

use sim_core::sweep;
use sim_core::trace;

/// Ring capacity for repro runs. At their `cxl-bench list` arguments
/// every harness fits except `fig8 --quick` (~88.6 M events) and
/// `ablations` (~8.5 M); those keep the newest window, and
/// [`TraceOut::finish`] reports the drop count on stderr.
const REPRO_RING_CAPACITY: usize = 1 << 20;

/// The in-flight `--trace-out` capture; call [`TraceOut::finish`] after
/// the run to write the export.
#[must_use = "call .finish() to write the trace file"]
#[derive(Debug)]
pub struct TraceOut {
    path: Option<PathBuf>,
    profile: bool,
}

impl TraceOut {
    /// Strips `--trace-out <path>`, `--profile` and bare `--` tokens from
    /// `args`, installs a tracer if `--trace-out` was given, and returns
    /// the remaining arguments plus the guard.
    ///
    /// Exits with status 2 on a `--trace-out` missing its path operand.
    pub fn from_args(args: impl IntoIterator<Item = String>) -> (Vec<String>, TraceOut) {
        let mut rest = Vec::new();
        let mut path = None;
        let mut profile = false;
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--" => {}
                "--trace-out" => match it.next() {
                    Some(p) => path = Some(PathBuf::from(p)),
                    None => {
                        eprintln!("--trace-out requires a path");
                        std::process::exit(2);
                    }
                },
                "--profile" => profile = true,
                _ => rest.push(a),
            }
        }
        if path.is_some() {
            trace::install(REPRO_RING_CAPACITY);
        }
        if profile {
            sweep::profile::set_enabled(true);
        }
        (rest, TraceOut { path, profile })
    }

    /// Uninstalls the tracer and writes the JSONL export; a no-op when
    /// `--trace-out` was not given. The profile breakdown and the
    /// ring-overflow note go to stderr.
    ///
    /// Exits with status 1 if the file cannot be written.
    pub fn finish(self) {
        self.finish_to(&mut std::io::stderr());
    }

    /// [`finish`](Self::finish), writing its diagnostics to `diag`.
    fn finish_to(self, diag: &mut dyn Write) {
        if self.profile {
            sweep::profile::set_enabled(false);
            let _ = write!(diag, "{}", sweep::profile::take().render());
        }
        let Some(path) = self.path else { return };
        let (events, dropped) = trace::take_captured();
        if dropped > 0 {
            let _ = writeln!(
                diag,
                "trace ring overflowed: dropped the oldest {dropped} of {} events; {} holds the newest {}",
                dropped + events.len() as u64,
                path.display(),
                events.len()
            );
        }
        if let Err(e) = std::fs::write(&path, trace::to_jsonl(&events)) {
            eprintln!("cannot write trace to {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_flag_and_separators() {
        let (rest, t) = TraceOut::from_args(
            ["--", "table3", "--trace-out", "/dev/null", "500"].map(String::from),
        );
        assert_eq!(rest, vec!["table3".to_string(), "500".to_string()]);
        assert!(trace::is_active(), "flag installs the tracer");
        t.finish();
        assert!(!trace::is_active(), "finish uninstalls");
    }

    #[test]
    fn profile_flag_is_stripped_and_enables_accounting() {
        let (rest, t) = TraceOut::from_args(["--profile", "table3"].map(String::from));
        assert_eq!(rest, vec!["table3".to_string()]);
        assert!(sweep::profile::enabled(), "flag enables stage accounting");
        let mut diag = Vec::new();
        t.finish_to(&mut diag);
        assert!(!sweep::profile::enabled(), "finish disables it");
        assert!(!diag.is_empty(), "finish reports the stage breakdown");
    }

    #[test]
    fn absent_flag_changes_nothing() {
        let (rest, t) = TraceOut::from_args(["1000"].map(String::from));
        assert_eq!(rest, vec!["1000".to_string()]);
        assert!(!trace::is_active());
        t.finish();
    }

    #[test]
    fn export_round_trips_through_the_parser() {
        let dir = std::env::temp_dir().join("cxl-t2-sim-traceopt-test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let out = dir.join("t.jsonl");
        let (_, t) = TraceOut::from_args(
            ["--trace-out", out.to_str().expect("utf8 tmp path")].map(String::from),
        );
        trace::emit(
            sim_core::time::Time::ZERO,
            trace::TraceEvent::LlcPush { addr: 42 },
        );
        let mut diag = Vec::new();
        t.finish_to(&mut diag);
        assert!(diag.is_empty(), "a capture that fits prints nothing");
        let text = std::fs::read_to_string(&out).expect("trace written");
        let events = trace::from_jsonl(&text).expect("valid JSONL");
        assert_eq!(events.len(), 1);
        let _ = std::fs::remove_file(&out);
    }

    #[test]
    fn overflow_reports_the_drop_count() {
        let dir = std::env::temp_dir().join("cxl-t2-sim-traceopt-overflow");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let out = dir.join("t.jsonl");
        let (_, t) = TraceOut::from_args(
            ["--trace-out", out.to_str().expect("utf8 tmp path")].map(String::from),
        );
        // A small ring stands in for the repro one, so overflow is cheap.
        trace::install(4);
        for addr in 0..7 {
            trace::emit(
                sim_core::time::Time::ZERO,
                trace::TraceEvent::LlcPush { addr },
            );
        }
        let mut diag = Vec::new();
        t.finish_to(&mut diag);
        let diag = String::from_utf8(diag).expect("utf8 diagnostics");
        assert_eq!(
            diag,
            format!(
                "trace ring overflowed: dropped the oldest 3 of 7 events; {} holds the newest 4\n",
                out.display()
            )
        );
        let text = std::fs::read_to_string(&out).expect("trace written");
        let events = trace::from_jsonl(&text).expect("valid JSONL");
        assert_eq!(events.len(), 4, "the file keeps the newest window");
        assert_eq!(events[0].seq, 3);
        let _ = std::fs::remove_file(&out);
    }
}
