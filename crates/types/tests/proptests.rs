//! Property-based tests for the shared kernel: codecs, regions, stats,
//! and the deterministic RNG.

use proptest::prelude::*;
use uei_types::codec::{varint_len, Reader, Writer};
use uei_types::stats::{percentile_sorted, Summary, Welford};
use uei_types::{Region, Rng};

proptest! {
    #[test]
    fn varint_roundtrip(values in proptest::collection::vec(any::<u64>(), 0..100)) {
        let mut w = Writer::new();
        for &v in &values {
            w.write_varint(v);
        }
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        for &v in &values {
            let before = r.position();
            prop_assert_eq!(r.read_varint().unwrap(), v);
            prop_assert_eq!(varint_len(v), r.position() - before);
        }
        prop_assert!(r.is_empty());
    }

    #[test]
    fn primitive_roundtrip(
        a in any::<u8>(), b in any::<u16>(), c in any::<u32>(),
        d in any::<u64>(), e in any::<f64>()
    ) {
        let mut w = Writer::new();
        w.write_u8(a);
        w.write_u16(b);
        w.write_u32(c);
        w.write_u64(d);
        w.write_f64(e);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        prop_assert_eq!(r.read_u8().unwrap(), a);
        prop_assert_eq!(r.read_u16().unwrap(), b);
        prop_assert_eq!(r.read_u32().unwrap(), c);
        prop_assert_eq!(r.read_u64().unwrap(), d);
        prop_assert_eq!(r.read_f64().unwrap().to_bits(), e.to_bits());
    }

    #[test]
    fn region_contains_iff_relative_distance_le_one(
        dims_data in (1usize..6).prop_flat_map(|d| (
            proptest::collection::vec(-100.0f64..100.0, d),
            proptest::collection::vec(-3.0f64..3.0, d),
        )),
        scale in 0.01f64..10.0,
    ) {
        let (center, offsets) = dims_data;
        let widths: Vec<f64> = center.iter().map(|c| (c.abs() + 1.0) * scale * 0.1).collect();
        let region = Region::from_center(&center, &widths).unwrap();
        let point: Vec<f64> = center
            .iter()
            .zip(&widths)
            .zip(&offsets)
            .map(|((c, w), o)| c + o * w)
            .collect();
        let d = region.max_relative_distance(&point).unwrap();
        let inside = region.contains(&point).unwrap();
        // Skip exact-boundary points where float rounding can disagree.
        prop_assume!((d - 1.0).abs() > 1e-9);
        prop_assert_eq!(inside, d < 1.0, "d = {}", d);
    }

    #[test]
    fn region_center_always_inside(
        dims_data in (1usize..6).prop_flat_map(|d| (
            proptest::collection::vec(-100.0f64..0.0, d),
            proptest::collection::vec(0.001f64..100.0, d),
        )),
    ) {
        let (lo, width) = dims_data;
        let hi: Vec<f64> = lo.iter().zip(&width).map(|(l, w)| l + w).collect();
        let region = Region::new(lo, hi).unwrap();
        prop_assert!(region.contains(&region.center()).unwrap());
        prop_assert!(region.volume() > 0.0);
    }

    #[test]
    fn bounding_box_contains_all_inputs(
        points in proptest::collection::vec(
            proptest::collection::vec(-1e6f64..1e6, 3), 1..50)
    ) {
        let bb = Region::bounding_box(&points).unwrap();
        for p in &points {
            prop_assert!(bb.contains(p).unwrap());
        }
    }

    #[test]
    fn welford_merge_matches_sequential(
        left in proptest::collection::vec(-1e3f64..1e3, 0..50),
        right in proptest::collection::vec(-1e3f64..1e3, 0..50),
    ) {
        let mut merged = Welford::new();
        for &x in &left { merged.push(x); }
        let mut other = Welford::new();
        for &x in &right { other.push(x); }
        merged.merge(&other);

        let mut sequential = Welford::new();
        for &x in left.iter().chain(&right) { sequential.push(x); }

        prop_assert_eq!(merged.count(), sequential.count());
        prop_assert!((merged.mean() - sequential.mean()).abs() < 1e-6);
        prop_assert!((merged.variance() - sequential.variance()).abs() < 1e-6);
    }

    #[test]
    fn percentiles_are_monotone_and_bounded(
        mut xs in proptest::collection::vec(-1e6f64..1e6, 1..100)
    ) {
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut last = f64::NEG_INFINITY;
        for pct in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 100.0] {
            let p = percentile_sorted(&xs, pct);
            prop_assert!(p >= last);
            prop_assert!(p >= xs[0] && p <= *xs.last().unwrap());
            last = p;
        }
        let s = Summary::of(&xs).unwrap();
        prop_assert!(s.min <= s.median && s.median <= s.p95 && s.p95 <= s.max);
    }

    #[test]
    fn rng_sample_indices_is_valid_sample(n in 0usize..500, k in 0usize..600, seed in any::<u64>()) {
        let mut rng = Rng::new(seed);
        let mut sample = rng.sample_indices(n, k);
        sample.sort_unstable();
        let len_before = sample.len();
        sample.dedup();
        prop_assert_eq!(sample.len(), len_before, "no duplicates");
        prop_assert_eq!(sample.len(), k.min(n));
        prop_assert!(sample.iter().all(|&i| i < n));
    }

    #[test]
    fn rng_below_is_always_in_range(bound in 1u64..u64::MAX, seed in any::<u64>()) {
        let mut rng = Rng::new(seed);
        for _ in 0..16 {
            prop_assert!(rng.below(bound) < bound);
        }
    }

    #[test]
    fn rng_shuffle_is_permutation(len in 0usize..200, seed in any::<u64>()) {
        let mut v: Vec<usize> = (0..len).collect();
        Rng::new(seed).shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..len).collect::<Vec<_>>());
    }
}
