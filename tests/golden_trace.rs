//! Golden-trace conformance: the exact protocol event sequences of the
//! 18 Table III coherence cases and the Fig. 7 cxl-zswap offload are
//! compared, event by event, against checked-in fixtures under
//! `tests/golden/`.
//!
//! Comparison is *structural*: timestamps and sequence numbers are
//! stripped (via [`sim_core::trace::protocol_of`]) so timing-model tuning
//! does not churn the fixtures, but any change to what protocol actions
//! happen — an extra snoop, a missing writeback, a different MESI
//! transition — fails with a report pinpointing the first divergence.
//!
//! To regenerate after an *intended* protocol change:
//!
//! ```text
//! REGEN_GOLDEN=1 cargo test --test golden_trace
//! ```

use cxl_bench::golden;
use cxl_bench::tables::TABLE3_CASES;
use cxl_proto::request::RequestType;
use sim_core::trace::{self, TimedEvent};
use std::fmt::Write as _;
use std::path::PathBuf;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn regenerating() -> bool {
    std::env::var_os("REGEN_GOLDEN").is_some()
}

/// Compares `actual` against the fixture `name`, returning a human
/// mismatch report (or `None` on conformance). In regeneration mode the
/// fixture is rewritten instead and the comparison always passes.
fn conformance_report(name: &str, actual: &[TimedEvent]) -> Option<String> {
    let path = fixture_path(name);
    if regenerating() {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("mkdir golden");
        std::fs::write(&path, trace::to_jsonl(actual)).expect("write fixture");
        return None;
    }
    let raw = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            return Some(format!(
                "missing fixture {} ({e}); run `REGEN_GOLDEN=1 cargo test --test golden_trace`",
                path.display()
            ))
        }
    };
    let expected = match trace::from_jsonl(&raw) {
        Ok(ev) => ev,
        Err(e) => return Some(format!("fixture {} unparsable: {e}", path.display())),
    };
    let want = trace::protocol_of(&expected);
    let got = trace::protocol_of(actual);
    if want == got {
        return None;
    }
    let mut report = format!(
        "golden trace mismatch for {name}: expected {} events, got {}\n",
        want.len(),
        got.len()
    );
    let diverge = want
        .iter()
        .zip(got.iter())
        .position(|(w, g)| w != g)
        .unwrap_or_else(|| want.len().min(got.len()));
    let _ = writeln!(report, "  first divergence at event {diverge}:");
    let _ = writeln!(
        report,
        "    expected: {}",
        want.get(diverge)
            .map_or_else(|| "<end of fixture>".into(), |e| format!("{e:?}"))
    );
    let _ = writeln!(
        report,
        "    actual:   {}",
        got.get(diverge)
            .map_or_else(|| "<end of trace>".into(), |e| format!("{e:?}"))
    );
    let _ = writeln!(
        report,
        "  (if this protocol change is intended: REGEN_GOLDEN=1 cargo test --test golden_trace)"
    );
    Some(report)
}

#[test]
fn table3_all_18_cases_conform() {
    let mut failures = String::new();
    let mut checked = 0;
    for (req, case, events) in golden::table3_traces() {
        assert!(!events.is_empty(), "{req} / {case} emitted no events");
        let name = format!("table3/{}.jsonl", golden::case_slug(req, case));
        if let Some(report) = conformance_report(&name, &events) {
            let _ = writeln!(failures, "{report}");
        }
        checked += 1;
    }
    assert_eq!(checked, 18, "Table III is 6 request types x 3 cases");
    assert!(failures.is_empty(), "\n{failures}");
}

#[test]
fn fig7_cxl_zswap_offload_conforms() {
    let events = golden::fig7_cxl_zswap_trace(11);
    assert!(!events.is_empty(), "fig7 offload emitted no events");
    if let Some(report) = conformance_report("fig7_cxl_zswap_4k.jsonl", &events) {
        panic!("\n{report}");
    }
}

/// The socket and card of the one-card `Fabric` must reproduce the
/// hand-wired platform *byte for byte* — traces with timestamps intact,
/// and every device counter — for all 18 Table III cases: fabric-built
/// construction is the same machine, not a near-miss.
#[test]
fn table3_via_fabric_is_byte_identical() {
    let mut checked = 0;
    for req in RequestType::ALL {
        for case in TABLE3_CASES {
            let legacy = golden::table3_case_trace(req, case);
            let legacy_counters = golden::table3_case_counters(req, case);
            let (fabric_trace, fabric_counters) = golden::table3_case_trace_from_fabric(req, case);
            assert_eq!(
                trace::to_jsonl(&legacy),
                trace::to_jsonl(&fabric_trace),
                "{req} / {case}: 1x1 fabric trace diverged from legacy platform"
            );
            assert_eq!(
                legacy_counters, fabric_counters,
                "{req} / {case}: 1x1 fabric counters diverged from legacy platform"
            );
            // And the fabric-built trace still conforms to the fixture.
            let name = format!("table3/{}.jsonl", golden::case_slug(req, case));
            if let Some(report) = conformance_report(&name, &fabric_trace) {
                panic!("\n{report}");
            }
            checked += 1;
        }
    }
    assert_eq!(checked, 18);
}

/// Same invariance for the Fig. 7 offload: a zswap backend whose socket
/// and device came from the one-card fabric emits the identical event
/// stream.
#[test]
fn fig7_via_fabric_is_byte_identical() {
    let legacy = golden::fig7_cxl_zswap_trace(11);
    let via_fabric = golden::fig7_cxl_zswap_trace_from_fabric(11);
    assert_eq!(
        trace::to_jsonl(&legacy),
        trace::to_jsonl(&via_fabric),
        "1x1 fabric fig7 trace diverged from legacy platform"
    );
    if let Some(report) = conformance_report("fig7_cxl_zswap_4k.jsonl", &via_fabric) {
        panic!("\n{report}");
    }
}

/// A deliberately corrupted sequence must be rejected — this guards the
/// comparator itself (an always-green diff would make the 18 cases above
/// meaningless).
#[test]
fn comparator_rejects_corrupted_transition() {
    if regenerating() {
        return; // comparisons are vacuous while rewriting fixtures
    }
    let req = RequestType::ALL[0];
    let case = TABLE3_CASES[0];
    let mut events = golden::table3_case_trace(req, case);
    // Corrupt one DCOH-visible event: drop the final state transition.
    let removed = events.pop().expect("non-empty trace");
    let name = format!("table3/{}.jsonl", golden::case_slug(req, case));
    let report = conformance_report(&name, &events).expect("corrupted trace must not conform");
    assert!(
        report.contains("divergence"),
        "report explains where: {report}"
    );
    // And restoring the event makes it conform again.
    events.push(removed);
    assert!(conformance_report(&name, &events).is_none());
}
