//! Property-based tests for the HDM decoder: the address-decode layer
//! must be a bijection over each decoder window, partition it evenly
//! across interleave ways, and invert through `encode`.

use proptest::prelude::*;
use sim_core::topology::{DecoderSet, DeviceId};

/// A strategy over well-formed symmetric fabrics: device count ∈
/// {1,2,4,8}, ways dividing it, power-of-two granularity 64 B–4 KiB, and
/// a window of 1–64 interleave sets per decoder.
fn fabrics() -> impl Strategy<Value = (usize, u8, u64, u64, u64)> {
    (0u32..4, 0u32..4, 0u32..7, 1u64..65, 0u64..(1 << 20)).prop_map(
        |(dev_pow, way_pow, gran_pow, sets, base)| {
            let devices = 1usize << dev_pow;
            let ways = 1u8 << way_pow.min(dev_pow);
            let granularity_bytes = 64u64 << gran_pow;
            let g_lines = granularity_bytes / 64;
            // Lines contributed per device: `sets` full interleave rounds.
            let size_lines = sets * g_lines;
            (devices, ways, base, size_lines, granularity_bytes)
        },
    )
}

proptest! {
    /// Every HPA in a decoder window maps to exactly one `(device, dpa)`
    /// and round-trips through `encode`; no two HPAs collide on the same
    /// `(device, dpa)` (checked densely over the first window).
    #[test]
    fn decode_is_a_bijection_over_the_window(
        (devices, ways, base, size_lines, gran) in fabrics(),
    ) {
        let dec = DecoderSet::symmetric(devices, ways, base, size_lines, gran);
        let window = size_lines * ways as u64;
        let probe = window.min(4096);
        let mut seen = std::collections::HashSet::new();
        for line in base..base + probe {
            let d = dec.decode(line).expect("in-window address must decode");
            prop_assert!(seen.insert((d.device, d.dpa_line)), "collision at line {line}");
            prop_assert_eq!(dec.encode(d.device, d.dpa_line), Some(line));
            prop_assert!(d.dpa_line < size_lines, "dpa beyond the per-device share");
        }
        // Just-outside addresses of the *last* decoder don't decode.
        let total = window * (devices as u64 / ways as u64);
        prop_assert!(dec.decode(base + total).is_none());
        prop_assert!(base == 0 || dec.decode(base - 1).is_none());
    }

    /// Interleave partitions each window evenly: every way (device)
    /// receives exactly `size / ways` of the decoder's lines.
    #[test]
    fn ways_partition_the_window_evenly(
        (devices, ways, base, size_lines, gran) in fabrics(),
    ) {
        let dec = DecoderSet::symmetric(devices, ways, base, size_lines, gran);
        let window = size_lines * ways as u64;
        // Count per-device lines over one full decoder window (bounded so
        // the dense walk stays cheap; the window is capped by `fabrics`).
        let mut per_dev = vec![0u64; devices];
        for line in base..base + window.min(8192) {
            let d = dec.decode(line).unwrap();
            per_dev[d.device.0 as usize] += 1;
        }
        let counted: u64 = per_dev.iter().sum();
        let active: Vec<u64> = per_dev.into_iter().filter(|&c| c > 0).collect();
        prop_assert_eq!(active.len() as u64, ways as u64);
        // An even split can only be skewed by the truncated tail granule.
        let g_lines = gran / 64;
        let max = *active.iter().max().unwrap();
        let min = *active.iter().min().unwrap();
        prop_assert!(max - min <= g_lines, "uneven split {min}..{max} (counted {counted})");
    }

    /// `encode` is a partial inverse everywhere: device-local lines
    /// outside any mapped share return `None`, in-share lines return the
    /// unique HPA.
    #[test]
    fn encode_rejects_unmapped_dpa(
        (devices, ways, base, size_lines, gran) in fabrics(),
    ) {
        let dec = DecoderSet::symmetric(devices, ways, base, size_lines, gran);
        for d in 0..devices as u16 {
            prop_assert!(dec.encode(DeviceId(d), size_lines).is_none());
            let hpa = dec.encode(DeviceId(d), 0).unwrap();
            prop_assert_eq!(dec.decode(hpa).unwrap().device, DeviceId(d));
        }
        prop_assert!(dec.encode(DeviceId(devices as u16), 0).is_none());
    }
}
