//! The 1×1 fabric is the single-socket, single-card testbed, exactly.
//!
//! `tests/golden/testbed_1x1_ops.jsonl` was recorded from the original
//! hand-wired one-host/one-device coherence glue on a fixed, seeded
//! sequence of mixed host and device operations. Per op it holds one
//! header line (`op`, `call`, `line`, `req`, `done_ps`) followed by the
//! timestamped protocol events that op emitted; the device's counter
//! snapshot closes the file. [`Fabric::agilex7_testbed`] must reproduce
//! it byte for byte: same completion times, same events at the same
//! picoseconds, same counters.

use cxl_t2_sim::prelude::*;
use sim_core::trace;

const FIXTURE: &str = "tests/golden/testbed_1x1_ops.jsonl";
const OPS: usize = 192;
const SEED: u64 = 0x07e5_7bed;
/// Lines per working set: small, so host and device ops keep colliding.
const LINES: u64 = 12;

/// Request types a D2D access may carry (NC-P is D2H-only).
const D2D_REQS: [RequestType; 5] = [
    RequestType::NC_RD,
    RequestType::NC_WR,
    RequestType::CO_RD,
    RequestType::CO_WR,
    RequestType::CS_RD,
];

fn record() -> String {
    let mut fab = Fabric::agilex7_testbed();
    let mut rng = SimRng::seed_from(SEED);
    let mut out = String::new();
    let mut t = Time::ZERO;
    trace::install(1 << 12);
    for op in 0..OPS {
        let host = host_line(rng.gen_range(LINES));
        let dev = device_line(rng.gen_range(LINES));
        let req = RequestType::ALL[rng.gen_index(6)];
        let d2d_req = D2D_REQS[rng.gen_index(D2D_REQS.len())];
        let (call, line, req, done) = match rng.gen_range(12) {
            0 => ("host_load", host, None, fab.host_load(host, t).completion),
            1 => ("host_store", host, None, fab.host_store(host, t).completion),
            2 => (
                "host_nt_store",
                host,
                None,
                fab.host_nt_store(host, t).completion,
            ),
            3 => ("host_clflush", host, None, fab.host_clflush(host, t)),
            4 | 5 => {
                let acc = fab.d2h(DeviceId(0), req, host, t);
                ("d2h", host, Some(req), acc.completion)
            }
            6 => ("host_load", dev, None, fab.host_load(dev, t).completion),
            7 => ("host_store", dev, None, fab.host_store(dev, t).completion),
            8 => ("host_clflush", dev, None, fab.host_clflush(dev, t)),
            9 => (
                "enter_device_bias",
                dev,
                None,
                fab.enter_device_bias(dev, 1, t),
            ),
            _ => {
                let [host] = &mut fab.hosts;
                let acc = fab.devs[0].d2d(d2d_req, dev, t, host);
                ("d2d", dev, Some(d2d_req), acc.completion)
            }
        };
        let req = req.map_or_else(|| "-".to_string(), |r| r.to_string());
        out.push_str(&format!(
            "{{\"op\":{op},\"call\":\"{call}\",\"line\":{},\"req\":\"{req}\",\"done_ps\":{}}}\n",
            line.index(),
            done.as_picos()
        ));
        out.push_str(&trace::to_jsonl(&trace::snapshot()));
        trace::clear();
        t = done;
    }
    trace::uninstall();
    out.push_str(&fab.devs[0].counters().to_jsonl());
    out
}

#[test]
fn one_by_one_fabric_reproduces_the_testbed_fixture() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(FIXTURE);
    let want = std::fs::read_to_string(&path).expect("fixture present");
    let got = record();
    if let Some(i) = want.lines().zip(got.lines()).position(|(w, g)| w != g) {
        panic!(
            "first divergence at fixture line {}:\n  want {}\n  got  {}",
            i + 1,
            want.lines().nth(i).unwrap_or(""),
            got.lines().nth(i).unwrap_or("")
        );
    }
    assert_eq!(want.len(), got.len(), "same lines, different length");
    assert_eq!(want, got);
}
