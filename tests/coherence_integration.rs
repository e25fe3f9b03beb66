//! Cross-crate coherence integration: random interleavings of host and
//! device operations must never violate the single-writer invariant or
//! lose track of a line's state — on the paper's one-card testbed and on
//! a two-card fabric, where device ops come from a randomly chosen card.

use cxl_t2_sim::prelude::*;
use cxl_type2::addr::decode;
use proptest::prelude::*;

/// Operations the fuzzer interleaves. Device ops carry the issuing card
/// (taken modulo the fabric's device count).
#[derive(Debug, Clone, Copy)]
enum FuzzOp {
    HostLoad(u8),
    HostStore(u8),
    HostNtStore(u8),
    HostFlush(u8),
    D2h(u8, u8, u8),
    H2dLoad(u8),
    H2dStore(u8),
    H2dNtStore(u8),
    D2d(u8, u8, u8),
}

fn op_strategy() -> impl Strategy<Value = FuzzOp> {
    prop_oneof![
        any::<u8>().prop_map(FuzzOp::HostLoad),
        any::<u8>().prop_map(FuzzOp::HostStore),
        any::<u8>().prop_map(FuzzOp::HostNtStore),
        any::<u8>().prop_map(FuzzOp::HostFlush),
        (any::<u8>(), any::<u8>(), 0u8..6).prop_map(|(d, a, r)| FuzzOp::D2h(d, a, r)),
        any::<u8>().prop_map(FuzzOp::H2dLoad),
        any::<u8>().prop_map(FuzzOp::H2dStore),
        any::<u8>().prop_map(FuzzOp::H2dNtStore),
        (any::<u8>(), any::<u8>(), 0u8..6).prop_map(|(d, a, r)| FuzzOp::D2d(d, a, r)),
    ]
}

fn request_for(r: u8) -> RequestType {
    RequestType::ALL[(r % 6) as usize]
}

/// After every operation: a host-memory line may be writable (M/E) in
/// at most one of the host LLC and the device HMCs.
fn check_single_writer(fab: &Fabric, addr: LineAddr) {
    let [host] = &fab.hosts;
    let llc = host.caches.llc_state(addr);
    let hmcs: Vec<_> = fab.devs.iter().map(|d| d.hmc_state(addr)).collect();
    let writers = std::iter::once(llc)
        .chain(hmcs.iter().copied())
        .filter(|s| s.is_some_and(|s| s.is_writable()))
        .count();
    assert!(
        writers <= 1,
        "single-writer violated at {addr}: LLC {llc:?} HMCs {hmcs:?}"
    );
}

/// Drives `ops` through `fab`, checking the coherence invariants after
/// each one.
fn fuzz(mut fab: Fabric, ops: &[FuzzOp]) {
    let cards = fab.devs.len();
    let mut t = Time::ZERO;
    for &op in ops {
        match op {
            FuzzOp::HostLoad(a) => {
                let addr = host_line(a as u64);
                t = fab.host_load(addr, t).completion;
                check_single_writer(&fab, addr);
            }
            FuzzOp::HostStore(a) => {
                let addr = host_line(a as u64);
                t = fab.host_store(addr, t).completion;
                check_single_writer(&fab, addr);
                // A host store must hold exclusive ownership.
                for dev in &fab.devs {
                    let hmc = dev.hmc_state(addr);
                    prop_assert!(hmc.is_none(), "HMC kept a copy after host store: {hmc:?}");
                }
            }
            FuzzOp::HostNtStore(a) => {
                let addr = host_line(a as u64);
                t = fab.host_nt_store(addr, t).completion;
                prop_assert!(fab.devs.iter().all(|d| d.hmc_state(addr).is_none()));
            }
            FuzzOp::HostFlush(a) => {
                let addr = host_line(a as u64);
                t = fab.host_clflush(addr, t);
                check_single_writer(&fab, addr);
            }
            FuzzOp::D2h(d, a, r) => {
                let addr = host_line(a as u64);
                let card = DeviceId((d as usize % cards) as u16);
                t = fab.d2h(card, request_for(r), addr, t).completion;
                check_single_writer(&fab, addr);
            }
            FuzzOp::H2dLoad(a) => {
                t = fab.host_load(device_line(a as u64), t).completion;
            }
            FuzzOp::H2dStore(a) => {
                let addr = device_line(a as u64);
                t = fab.host_store(addr, t).completion;
                // After a host store, the owning card's DMC must not
                // claim a writable copy of the same line.
                let (id, local) = decode(fab.decoders(), addr).expect("HDM-mapped");
                let dmc = fab.devs[id.0 as usize].dmc_state(local);
                prop_assert!(
                    !dmc.is_some_and(|s| s.is_writable()),
                    "DMC writable after host store at {addr}"
                );
            }
            FuzzOp::H2dNtStore(a) => {
                t = fab.host_nt_store(device_line(a as u64), t).completion;
            }
            FuzzOp::D2d(d, a, r) => {
                let req = request_for(r);
                if req.hint() != CacheHint::NcPush {
                    // A card's own memory, at its device-local address.
                    let d = d as usize % cards;
                    let addr = device_line(a as u64);
                    let [host] = &mut fab.hosts;
                    t = fab.devs[d].d2d(req, addr, t, host).completion;
                    // A host-bias D2D write must leave no stale host copy.
                    if !req.is_read() {
                        let host_writable =
                            host.caches.llc_state(addr).is_some_and(|s| s.is_writable());
                        prop_assert!(!host_writable, "host kept writable copy at {addr}");
                    }
                }
            }
        }
    }
    // Simulated time only moves forward.
    prop_assert!(t >= Time::ZERO);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_interleavings_preserve_coherence(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        fuzz(Fabric::agilex7_testbed(), &ops);
        fuzz(Fabric::symmetric(2, 2), &ops);
    }

    /// The host-bias D2H state machine agrees with Table III regardless of
    /// the prior LLC state.
    #[test]
    fn d2h_postconditions_hold_from_any_llc_state(
        prior in 0u8..4,
        r in 0u8..6,
        addr_byte in any::<u8>(),
    ) {
        let mut host = Socket::xeon_6538y();
        let mut dev = CxlDevice::agilex7();
        let addr = host_line(1000 + addr_byte as u64);
        // Stage the prior LLC state.
        match prior {
            0 => {} // absent
            1 => {
                host.load(addr, Time::ZERO);
                host.cldemote(addr, Time::ZERO);
                host.caches.degrade_to_shared(addr);
            }
            2 => {
                host.load(addr, Time::ZERO);
                host.cldemote(addr, Time::ZERO);
            }
            _ => {
                host.store(addr, Time::ZERO);
                host.cldemote(addr, Time::ZERO);
            }
        }
        let req = request_for(r);
        dev.d2h(req, addr, Time::from_nanos(10_000), &mut host);
        let hmc = dev.hmc_state(addr);
        let llc = host.caches.llc_state(addr);
        match (req.hint(), req.is_read()) {
            (CacheHint::NcPush, _) => {
                prop_assert_eq!(hmc, None);
                prop_assert_eq!(llc, Some(MesiState::Modified));
            }
            (CacheHint::Nc, false) => {
                prop_assert_eq!(hmc, None);
                prop_assert_eq!(llc, None);
            }
            (CacheHint::CacheableOwned, _) => {
                prop_assert!(hmc.is_some_and(|s| s.is_writable()), "CO leaves ownership: {hmc:?}");
                prop_assert_eq!(llc, None);
            }
            (CacheHint::CacheableShared, _) => {
                prop_assert_eq!(hmc, Some(MesiState::Shared));
                prop_assert!(llc.is_none() || llc == Some(MesiState::Shared));
            }
            (CacheHint::Nc, true) => {
                // NC-read never allocates.
                prop_assert!(hmc.is_none() || prior_had_hmc_is_impossible());
            }
        }
    }
}

fn prior_had_hmc_is_impossible() -> bool {
    // The staging above never fills the HMC, so NC-read must not have
    // allocated one.
    false
}
