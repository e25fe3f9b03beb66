//! Golden-trace capture: the exact protocol event sequences that the
//! conformance tests (and fixture regeneration) compare against.
//!
//! Each capture installs a fresh per-thread tracer, stages the scenario,
//! clears the staging noise, runs the access under test, and returns the
//! retained events. Everything is seeded-deterministic: identical inputs
//! produce identical event sequences, so the fixtures under
//! `tests/golden/` are stable across runs and machines.

use cxl_proto::request::RequestType;
use cxl_type2::addr::host_line;
use cxl_type2::device::CxlDevice;
use cxl_type2::fabric::Fabric;
use host::socket::Socket;
use kernel::offload::CxlBackend;
use kernel::page::{PageContent, PAGE_SIZE};
use kernel::zswap::{SwapKey, Zswap, ZswapConfig};
use sim_core::rng::SimRng;
use sim_core::time::Time;
use sim_core::trace::{self, TimedEvent};

use crate::tables::{stage_table3_case, TABLE3_CASES};

/// Fixture-name slug: lowercase, spaces to dashes (`NC-P`/`HMC hit` →
/// `nc-p_hmc-hit`).
pub fn case_slug(req: RequestType, case: &str) -> String {
    let part = |s: &str| s.to_ascii_lowercase().replace(' ', "-");
    format!("{}_{}", part(&req.to_string()), part(case))
}

/// Captures the protocol events of one Table III case: stage the line
/// into the HMC/LLC, discard the staging events, then run the D2H access
/// and return exactly what it emitted.
///
/// Replaces any tracer previously installed on this thread.
pub fn table3_case_trace(req: RequestType, case: &str) -> Vec<TimedEvent> {
    let mut host = Socket::xeon_6538y();
    let mut dev = CxlDevice::agilex7();
    let a = host_line((1u64 << 24) + 64);
    trace::install(4096);
    stage_table3_case(&mut host, &mut dev, a, case);
    trace::clear();
    dev.d2h(req, a, Time::from_nanos(1_000), &mut host);
    trace::uninstall()
}

/// The host socket and card of the one-card fabric, built through
/// [`Fabric::agilex7_testbed`].
fn testbed_from_fabric() -> (Socket, CxlDevice) {
    let fabric = Fabric::agilex7_testbed();
    let [host] = fabric.hosts;
    let mut devs = fabric.devs;
    (host, devs.remove(0))
}

/// [`table3_case_trace`] with the socket and card taken from the
/// one-card fabric instead of the hand-wired constructors. Returns the
/// trace plus the device's counter snapshot, so invariance tests can pin
/// both: the fabric-built path must be *byte-identical* to the
/// hand-wired one.
pub fn table3_case_trace_from_fabric(
    req: RequestType,
    case: &str,
) -> (Vec<TimedEvent>, Vec<(&'static str, u64)>) {
    let (mut host, mut dev) = testbed_from_fabric();
    let a = host_line((1u64 << 24) + 64);
    trace::install(4096);
    stage_table3_case(&mut host, &mut dev, a, case);
    trace::clear();
    dev.d2h(req, a, Time::from_nanos(1_000), &mut host);
    let events = trace::uninstall();
    let counters = dev.counters().iter().collect();
    (events, counters)
}

/// The device counter snapshot of one hand-wired Table III run
/// (the invariance baseline for [`table3_case_trace_from_fabric`]).
pub fn table3_case_counters(req: RequestType, case: &str) -> Vec<(&'static str, u64)> {
    let mut host = Socket::xeon_6538y();
    let mut dev = CxlDevice::agilex7();
    let a = host_line((1u64 << 24) + 64);
    stage_table3_case(&mut host, &mut dev, a, case);
    dev.d2h(req, a, Time::from_nanos(1_000), &mut host);
    dev.counters().iter().collect()
}

/// All 18 Table III (request, case, trace) triples in row order.
pub fn table3_traces() -> Vec<(RequestType, &'static str, Vec<TimedEvent>)> {
    let mut out = Vec::with_capacity(18);
    for req in RequestType::ALL {
        for case in TABLE3_CASES {
            out.push((req, case, table3_case_trace(req, case)));
        }
    }
    out
}

/// Captures the full event sequence of one 4 KiB page compressed and
/// stored through the cxl-zswap backend — the Fig. 7 offload flow
/// (dispatch, NC transfers, accelerator compute, compressed store).
///
/// Replaces any tracer previously installed on this thread.
pub fn fig7_cxl_zswap_trace(seed: u64) -> Vec<TimedEvent> {
    let mut rng = SimRng::seed_from(seed);
    let page = PageContent::Text.generate(&mut rng);
    let mut host = Socket::xeon_6538y();
    let mut zswap = Zswap::new(
        ZswapConfig::kernel_default(64 * PAGE_SIZE as u64),
        CxlBackend::agilex7(),
    );
    trace::install(1 << 16);
    let _ = zswap.store(SwapKey(7), &page, Time::ZERO, &mut host);
    trace::uninstall()
}

/// [`fig7_cxl_zswap_trace`] with the socket and backing device taken
/// from the one-card fabric.
pub fn fig7_cxl_zswap_trace_from_fabric(seed: u64) -> Vec<TimedEvent> {
    let (mut host, dev) = testbed_from_fabric();
    let mut rng = SimRng::seed_from(seed);
    let page = PageContent::Text.generate(&mut rng);
    let mut zswap = Zswap::new(
        ZswapConfig::kernel_default(64 * PAGE_SIZE as u64),
        CxlBackend::with_device(dev),
    );
    trace::install(1 << 16);
    let _ = zswap.store(SwapKey(7), &page, Time::ZERO, &mut host);
    trace::uninstall()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_table3_case_emits_events() {
        for (req, case, events) in table3_traces() {
            assert!(!events.is_empty(), "{req} / {case} emitted nothing");
            // The first captured event is always the D2H request itself.
            let first = trace::protocol_of(&events)[0];
            assert!(
                matches!(
                    first,
                    trace::TraceEvent::Request {
                        lane: trace::Lane::D2h,
                        ..
                    }
                ),
                "{req} / {case} starts with {first:?}"
            );
        }
    }

    #[test]
    fn fig7_trace_is_deterministic_and_nonempty() {
        let a = fig7_cxl_zswap_trace(11);
        let b = fig7_cxl_zswap_trace(11);
        assert!(!a.is_empty());
        assert_eq!(trace::to_jsonl(&a), trace::to_jsonl(&b));
    }

    #[test]
    fn slugs_are_filename_safe() {
        for req in RequestType::ALL {
            for case in TABLE3_CASES {
                let s = case_slug(req, case);
                assert!(s
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-' || c == '_'));
            }
        }
    }
}
