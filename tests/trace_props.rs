//! Property tests for the observability layer: ring wrap-around keeps
//! the newest events in emission order, the JSONL codec round-trips
//! every event variant losslessly, and counter-registry merging is
//! additive and commutative.

use proptest::prelude::*;
use sim_core::time::Time;
use sim_core::trace::{
    self, BackendId, BiasKind, CacheId, CounterRegistry, FaultKind, FlipCause, KsmStep, KvsStep,
    Lane, LineState, MemId, OffloadFn, OffloadStep, OpKind, SnoopKind, TimedEvent, TraceEvent,
    TraceRing, ZswapStep,
};

const POINTS: &[&str] = &["link.cxl", "dcoh.slice3", "fleet.link0"];

fn pick<T: Copy + 'static>(opts: &'static [T]) -> impl Strategy<Value = T> {
    any::<u64>().prop_map(move |i| opts[(i % opts.len() as u64) as usize])
}

/// One literal of every [`TraceEvent`] variant — keeps full variant
/// coverage deterministic rather than hoping random sampling hits them all.
fn one_of_each() -> Vec<TraceEvent> {
    vec![
        TraceEvent::Request {
            lane: Lane::D2h,
            op: OpKind::NcP,
            addr: 7,
        },
        TraceEvent::CacheAccess {
            cache: CacheId::Hmc,
            addr: 1,
            hit: true,
        },
        TraceEvent::CacheFill {
            cache: CacheId::Dmc,
            addr: 2,
            state: LineState::Exclusive,
        },
        TraceEvent::CacheState {
            cache: CacheId::HostLlc,
            addr: 3,
            state: LineState::Shared,
        },
        TraceEvent::CacheInvalidate {
            cache: CacheId::HostL1,
            addr: 4,
        },
        TraceEvent::CacheWriteback {
            cache: CacheId::HostL2,
            addr: 5,
        },
        TraceEvent::LlcPush { addr: 6 },
        TraceEvent::Snoop {
            snoop: SnoopKind::BackInvalidate,
            addr: 8,
            hit: true,
            dirty: false,
        },
        TraceEvent::BiasSwitch {
            region_offset: 4096,
            to: BiasKind::DeviceBias,
        },
        TraceEvent::MemRead {
            mem: MemId::HostDram,
            addr: 9,
        },
        TraceEvent::MemWrite {
            mem: MemId::DevDram,
            addr: 10,
        },
        TraceEvent::UpiTransfer {
            bytes: 64,
            write: true,
        },
        TraceEvent::DmaDescriptor { bytes: 4096 },
        TraceEvent::RdmaVerb { bytes: 2048 },
        TraceEvent::LsuBurst {
            lane: Lane::D2d,
            lines: 64,
        },
        TraceEvent::Offload {
            backend: BackendId::Cxl,
            func: OffloadFn::Compress,
            step: OffloadStep::Compute,
            bytes: 4096,
        },
        TraceEvent::Zswap {
            step: ZswapStep::StorePooled,
            key: 11,
            bytes: 1234,
        },
        TraceEvent::Ksm {
            step: KsmStep::MergedStable,
            page: 12,
            aux: 3,
        },
        TraceEvent::Kvs {
            step: KvsStep::FaultIn,
            server: 1,
            key: 13,
        },
        TraceEvent::FlowOp {
            flow: 2,
            line: 14,
            sojourn_ps: 87_500,
        },
        TraceEvent::BiasFlip {
            region: 15,
            to: BiasKind::HostBias,
            reason: FlipCause::Degrade,
        },
        TraceEvent::FaultInject {
            point: "link.cxl",
            fault: FaultKind::FlitCorrupt,
        },
        TraceEvent::LinkRetry {
            point: "link.cxl",
            attempt: 2,
        },
        TraceEvent::PoisonSurface { addr: 16 },
        TraceEvent::Timeout {
            point: "dcoh.slice3",
            attempt: 1,
            backoff_ps: 64_000,
        },
        TraceEvent::FabricRoute {
            device: 2,
            hpa: 18,
            dpa: 19,
            way: 1,
        },
        TraceEvent::QosShed {
            tenant: 4,
            line: 20,
        },
        TraceEvent::QosThrottle {
            tenant: 4,
            interval_ps: 125_000,
        },
    ]
}

/// `one_of_each()` on the wire, key for key: every variant's `kind` name
/// and field order, independent of the codec that writes and reads it.
const ONE_OF_EACH_JSONL: &str = r#"{"seq":0,"at_ps":0,"kind":"request","lane":"d2h","op":"nc-p","addr":7}
{"seq":1,"at_ps":1000,"kind":"cache-access","cache":"hmc","addr":1,"hit":true}
{"seq":2,"at_ps":2000,"kind":"cache-fill","cache":"dmc","addr":2,"state":"E"}
{"seq":3,"at_ps":3000,"kind":"cache-state","cache":"llc","addr":3,"state":"S"}
{"seq":4,"at_ps":4000,"kind":"cache-invalidate","cache":"l1","addr":4}
{"seq":5,"at_ps":5000,"kind":"cache-writeback","cache":"l2","addr":5}
{"seq":6,"at_ps":6000,"kind":"llc-push","addr":6}
{"seq":7,"at_ps":7000,"kind":"snoop","snoop":"back-inv","addr":8,"hit":true,"dirty":false}
{"seq":8,"at_ps":8000,"kind":"bias-switch","region_offset":4096,"to":"device"}
{"seq":9,"at_ps":9000,"kind":"mem-read","mem":"host-dram","addr":9}
{"seq":10,"at_ps":10000,"kind":"mem-write","mem":"dev-dram","addr":10}
{"seq":11,"at_ps":11000,"kind":"upi","bytes":64,"write":true}
{"seq":12,"at_ps":12000,"kind":"dma","bytes":4096}
{"seq":13,"at_ps":13000,"kind":"rdma","bytes":2048}
{"seq":14,"at_ps":14000,"kind":"lsu-burst","lane":"d2d","lines":64}
{"seq":15,"at_ps":15000,"kind":"offload","backend":"cxl","func":"compress","step":"compute","bytes":4096}
{"seq":16,"at_ps":16000,"kind":"zswap","step":"store-pooled","key":11,"bytes":1234}
{"seq":17,"at_ps":17000,"kind":"ksm","step":"merged-stable","page":12,"aux":3}
{"seq":18,"at_ps":18000,"kind":"kvs","step":"fault-in","server":1,"key":13}
{"seq":19,"at_ps":19000,"kind":"flow-op","flow":2,"line":14,"sojourn_ps":87500}
{"seq":20,"at_ps":20000,"kind":"bias-flip","region":15,"to":"host","reason":"degrade"}
{"seq":21,"at_ps":21000,"kind":"fault-inject","point":"link.cxl","fault":"flit-corrupt"}
{"seq":22,"at_ps":22000,"kind":"link-retry","point":"link.cxl","attempt":2}
{"seq":23,"at_ps":23000,"kind":"poison-surface","addr":16}
{"seq":24,"at_ps":24000,"kind":"timeout","point":"dcoh.slice3","attempt":1,"backoff_ps":64000}
{"seq":25,"at_ps":25000,"kind":"fabric-route","device":2,"hpa":18,"dpa":19,"way":1}
{"seq":26,"at_ps":26000,"kind":"qos-shed","tenant":4,"line":20}
{"seq":27,"at_ps":27000,"kind":"qos-throttle","tenant":4,"interval_ps":125000}
"#;

fn event_strategy() -> impl Strategy<Value = TraceEvent> {
    prop_oneof![
        (pick(Lane::ALL), pick(OpKind::ALL), any::<u64>())
            .prop_map(|(lane, op, addr)| TraceEvent::Request { lane, op, addr }),
        (pick(CacheId::ALL), any::<u64>(), any::<bool>())
            .prop_map(|(cache, addr, hit)| TraceEvent::CacheAccess { cache, addr, hit }),
        (pick(CacheId::ALL), any::<u64>(), pick(LineState::ALL))
            .prop_map(|(cache, addr, state)| TraceEvent::CacheFill { cache, addr, state }),
        (pick(CacheId::ALL), any::<u64>(), pick(LineState::ALL))
            .prop_map(|(cache, addr, state)| TraceEvent::CacheState { cache, addr, state }),
        (pick(CacheId::ALL), any::<u64>())
            .prop_map(|(cache, addr)| TraceEvent::CacheInvalidate { cache, addr }),
        (pick(CacheId::ALL), any::<u64>())
            .prop_map(|(cache, addr)| TraceEvent::CacheWriteback { cache, addr }),
        any::<u64>().prop_map(|addr| TraceEvent::LlcPush { addr }),
        (
            pick(SnoopKind::ALL),
            any::<u64>(),
            any::<bool>(),
            any::<bool>()
        )
            .prop_map(|(snoop, addr, hit, dirty)| TraceEvent::Snoop {
                snoop,
                addr,
                hit,
                dirty
            }),
        (any::<u64>(), pick(BiasKind::ALL))
            .prop_map(|(region_offset, to)| TraceEvent::BiasSwitch { region_offset, to }),
        (pick(MemId::ALL), any::<u64>()).prop_map(|(mem, addr)| TraceEvent::MemRead { mem, addr }),
        (pick(MemId::ALL), any::<u64>()).prop_map(|(mem, addr)| TraceEvent::MemWrite { mem, addr }),
        (any::<u64>(), any::<bool>())
            .prop_map(|(bytes, write)| TraceEvent::UpiTransfer { bytes, write }),
        any::<u64>().prop_map(|bytes| TraceEvent::DmaDescriptor { bytes }),
        any::<u64>().prop_map(|bytes| TraceEvent::RdmaVerb { bytes }),
        (pick(Lane::ALL), any::<u64>())
            .prop_map(|(lane, lines)| TraceEvent::LsuBurst { lane, lines }),
        (
            pick(BackendId::ALL),
            pick(OffloadFn::ALL),
            pick(OffloadStep::ALL),
            any::<u64>()
        )
            .prop_map(|(backend, func, step, bytes)| TraceEvent::Offload {
                backend,
                func,
                step,
                bytes
            }),
        (pick(ZswapStep::ALL), any::<u64>(), any::<u64>())
            .prop_map(|(step, key, bytes)| TraceEvent::Zswap { step, key, bytes }),
        (pick(KsmStep::ALL), any::<u64>(), any::<u64>())
            .prop_map(|(step, page, aux)| TraceEvent::Ksm { step, page, aux }),
        (pick(KvsStep::ALL), any::<u32>(), any::<u64>())
            .prop_map(|(step, server, key)| TraceEvent::Kvs { step, server, key }),
        (any::<u32>(), any::<u64>(), any::<u64>()).prop_map(|(flow, line, sojourn_ps)| {
            TraceEvent::FlowOp {
                flow,
                line,
                sojourn_ps,
            }
        }),
        (any::<u32>(), pick(BiasKind::ALL), pick(FlipCause::ALL))
            .prop_map(|(region, to, reason)| TraceEvent::BiasFlip { region, to, reason }),
        (pick(POINTS), pick(FaultKind::ALL))
            .prop_map(|(point, fault)| TraceEvent::FaultInject { point, fault }),
        (pick(POINTS), any::<u32>())
            .prop_map(|(point, attempt)| TraceEvent::LinkRetry { point, attempt }),
        any::<u64>().prop_map(|addr| TraceEvent::PoisonSurface { addr }),
        (pick(POINTS), any::<u32>(), any::<u64>()).prop_map(|(point, attempt, backoff_ps)| {
            TraceEvent::Timeout {
                point,
                attempt,
                backoff_ps,
            }
        }),
        (any::<u16>(), any::<u64>(), any::<u64>(), any::<u8>()).prop_map(
            |(device, hpa, dpa, way)| TraceEvent::FabricRoute {
                device,
                hpa,
                dpa,
                way
            }
        ),
        (any::<u32>(), any::<u64>())
            .prop_map(|(tenant, line)| TraceEvent::QosShed { tenant, line }),
        (any::<u32>(), any::<u64>()).prop_map(|(tenant, interval_ps)| TraceEvent::QosThrottle {
            tenant,
            interval_ps
        }),
    ]
}

#[test]
fn jsonl_round_trips_one_of_every_variant() {
    let timed: Vec<TimedEvent> = one_of_each()
        .into_iter()
        .enumerate()
        .map(|(i, event)| TimedEvent {
            seq: i as u64,
            at: Time::from_picos(1_000 * i as u64),
            event,
        })
        .collect();
    let text = trace::to_jsonl(&timed);
    assert_eq!(text, ONE_OF_EACH_JSONL);
    let parsed = trace::from_jsonl(&text).expect("every variant parses back");
    assert_eq!(parsed, timed);
    // The human rendering covers every variant without panicking.
    assert_eq!(trace::to_human(&timed).lines().count(), timed.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn jsonl_round_trip_is_lossless(
        events in prop::collection::vec(event_strategy(), 0..40),
        base_ps in 0u64..1_000_000_000,
    ) {
        let timed: Vec<TimedEvent> = events
            .iter()
            .enumerate()
            .map(|(i, &event)| TimedEvent {
                seq: i as u64,
                at: Time::from_picos(base_ps + 17 * i as u64),
                event,
            })
            .collect();
        let text = trace::to_jsonl(&timed);
        let parsed = trace::from_jsonl(&text).expect("export parses");
        prop_assert_eq!(parsed, timed);
    }

    #[test]
    fn ring_wrap_keeps_newest_in_emission_order(
        events in prop::collection::vec(event_strategy(), 0..300),
        capacity in 1usize..80,
    ) {
        let mut ring = TraceRing::new(capacity);
        for (i, &event) in events.iter().enumerate() {
            ring.push(Time::from_picos(i as u64), event);
        }
        let kept = ring.to_vec();
        let expect_len = events.len().min(capacity);
        prop_assert_eq!(kept.len(), expect_len);
        prop_assert_eq!(ring.dropped(), events.len().saturating_sub(capacity) as u64);
        // The retained window is exactly the newest events, oldest first,
        // with contiguous sequence numbers.
        let first_kept = events.len() - expect_len;
        for (i, te) in kept.iter().enumerate() {
            prop_assert_eq!(te.seq, (first_kept + i) as u64);
            prop_assert_eq!(te.event, events[first_kept + i]);
        }
    }

    #[test]
    fn registry_merge_is_additive_and_commutative(
        a_incrs in prop::collection::vec((0usize..6, 1u64..1000), 0..30),
        b_incrs in prop::collection::vec((0usize..6, 1u64..1000), 0..30),
    ) {
        const NAMES: [&str; 6] = [
            "device.d2h.requests",
            "device.d2d.requests",
            "device.h2d.requests",
            "device.hmc.writebacks",
            "device.dmc.writebacks",
            "kvs.faults",
        ];
        let build = |incrs: &[(usize, u64)]| {
            let mut c = CounterRegistry::new();
            for &(i, n) in incrs {
                c.add(NAMES[i], n);
            }
            c
        };
        let a = build(&a_incrs);
        let b = build(&b_incrs);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba);
        for name in NAMES {
            prop_assert_eq!(ab.get(name), a.get(name) + b.get(name));
        }
        prop_assert_eq!(ab.sum_prefix("device"), a.sum_prefix("device") + b.sum_prefix("device"));
    }
}
