//! Property-based tests for simkit invariants.

use proptest::prelude::*;
use simkit::stats::{percentile, Ewma, Histogram, Quantiles, TimeSeries};
use simkit::{EventQueue, FluidResource, Rng, SimDuration, SimTime};

/// Build a time series from (already sorted) microsecond offsets, with the
/// point's index as its value so stability violations are observable.
fn series_from(times: &[u64], value_base: f64) -> TimeSeries {
    let mut ts = TimeSeries::new();
    for (i, &t) in times.iter().enumerate() {
        ts.record(SimTime::from_micros(t), value_base + i as f64);
    }
    ts
}

proptest! {
    /// Popping an event queue always yields nondecreasing times, regardless
    /// of insertion order.
    #[test]
    fn queue_pops_sorted(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_micros(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut n = 0;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= last);
            last = t;
            n += 1;
        }
        prop_assert_eq!(n, times.len());
    }

    /// Equal-time events pop in insertion order (stability).
    #[test]
    fn queue_is_stable(n in 1usize..100) {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..n {
            q.schedule(t, i);
        }
        for i in 0..n {
            prop_assert_eq!(q.pop().unwrap().1, i);
        }
    }

    /// EWMA stays within the closed hull of its observations.
    #[test]
    fn ewma_bounded_by_samples(
        alpha in 0.01f64..1.0,
        xs in proptest::collection::vec(-1e6f64..1e6, 1..100),
    ) {
        let mut e = Ewma::new(alpha);
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &x in &xs {
            e.observe(x);
            lo = lo.min(x);
            hi = hi.max(x);
            let v = e.get().unwrap();
            prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9, "value {v} outside [{lo},{hi}]");
        }
    }

    /// observe_lower_bound is monotone: it never decreases the estimate.
    #[test]
    fn ewma_lower_bound_monotone(
        alpha in 0.01f64..1.0,
        xs in proptest::collection::vec(0.0f64..1e6, 1..100),
    ) {
        let mut e = Ewma::new(alpha);
        e.observe(500_000.0);
        let mut prev = e.get().unwrap();
        for &x in &xs {
            e.observe_lower_bound(x);
            let v = e.get().unwrap();
            prop_assert!(v >= prev - 1e-9);
            prev = v;
        }
    }

    /// Percentile is monotone in p and bounded by the sample range.
    #[test]
    fn percentile_monotone(
        mut xs in proptest::collection::vec(-1e9f64..1e9, 1..200),
        ps in proptest::collection::vec(0.0f64..=100.0, 2..20),
    ) {
        xs.sort_by(f64::total_cmp);
        let mut sorted_ps = ps.clone();
        sorted_ps.sort_by(f64::total_cmp);
        let mut last = f64::NEG_INFINITY;
        for &p in &sorted_ps {
            let v = percentile(&xs, p);
            prop_assert!(v >= last);
            prop_assert!(v >= xs[0] && v <= *xs.last().unwrap());
            last = v;
        }
    }

    /// Histogram never loses a sample: interior bins + under/overflow = total.
    #[test]
    fn histogram_conserves_samples(
        xs in proptest::collection::vec(-100.0f64..200.0, 0..500),
    ) {
        let mut h = Histogram::linear(0.0, 100.0, 10);
        for &x in &xs { h.observe(x); }
        let interior: u64 = (0..h.num_bins()).map(|i| h.bin_count(i)).sum();
        prop_assert_eq!(interior + h.underflow() + h.overflow(), xs.len() as u64);
    }

    /// Quantiles::fraction_at_most is a valid CDF: monotone, 0..=1.
    #[test]
    fn quantile_fraction_is_cdf(
        xs in proptest::collection::vec(0.0f64..1000.0, 1..200),
        probes in proptest::collection::vec(0.0f64..1000.0, 2..20),
    ) {
        let mut q = Quantiles::new();
        q.extend_from(&xs);
        let mut sorted_probes = probes.clone();
        sorted_probes.sort_by(f64::total_cmp);
        let mut last = 0.0f64;
        for &x in &sorted_probes {
            let f = q.fraction_at_most(x);
            prop_assert!((0.0..=1.0).contains(&f));
            prop_assert!(f >= last);
            last = f;
        }
    }

    /// Fluid resource conserves work: bytes moved over any schedule never
    /// exceeds base_capacity × elapsed time (degradation only reduces it),
    /// and all finite streams eventually complete.
    #[test]
    fn fluid_conserves_and_drains(
        sizes in proptest::collection::vec(1.0f64..1e6, 1..30),
        degradation in 0.0f64..0.5,
        cap in 1e3f64..1e8,
    ) {
        let mut r = FluidResource::new(cap, degradation);
        let mut completed = 0usize;
        for (i, &s) in sizes.iter().enumerate() {
            r.advance(SimTime::ZERO);
            r.add_stream(SimTime::ZERO, s, 1.0, i as u64);
        }
        let mut now = SimTime::ZERO;
        let mut guard = 0;
        while let Some(fin) = r.next_completion() {
            guard += 1;
            prop_assert!(guard < 10_000, "completion loop diverged");
            now = fin;
            completed += r.advance(now).len();
        }
        prop_assert_eq!(completed, sizes.len());
        let total: f64 = sizes.iter().sum();
        prop_assert!((r.bytes_moved() - total).abs() < total * 1e-6 + 1.0);
        // conservation: cannot move bytes faster than base capacity
        let elapsed = now.as_secs_f64();
        prop_assert!(r.bytes_moved() <= cap * elapsed * (1.0 + 1e-6) + 1.0,
            "moved {} in {}s at cap {}", r.bytes_moved(), elapsed, cap);
    }

    /// Fluid: with pure processor sharing (no degradation) and equal weights,
    /// the aggregate rate equals base capacity regardless of concurrency.
    #[test]
    fn fluid_equal_share_full_capacity(n in 1usize..20, cap in 1e3f64..1e6) {
        let mut r = FluidResource::new(cap, 0.0);
        for i in 0..n {
            r.advance(SimTime::ZERO);
            r.add_stream(SimTime::ZERO, 1e9, 1.0, i as u64);
        }
        prop_assert!((r.aggregate_capacity() - cap).abs() < 1e-9);
        let dt = SimTime::from_secs(10);
        r.advance(dt);
        prop_assert!((r.bytes_moved() - cap * 10.0).abs() < cap * 1e-6);
    }

    /// RNG: derive() streams are independent of sibling creation order.
    #[test]
    fn rng_derive_stable(seed in any::<u64>(), stream in any::<u64>()) {
        let root = Rng::new(seed);
        let mut a = root.derive(stream);
        let _ = root.derive(stream.wrapping_add(1)); // creating siblings doesn't disturb
        let mut b = root.derive(stream);
        prop_assert_eq!(a.next_u64(), b.next_u64());
    }

    /// below(n) is always < n.
    #[test]
    fn rng_below_in_range(seed in any::<u64>(), n in 1u64..1_000_000) {
        let mut r = Rng::new(seed);
        for _ in 0..100 {
            prop_assert!(r.below(n) < n);
        }
    }

    /// Water-filling: capped streams never exceed their caps, total
    /// allocation never exceeds aggregate capacity, and when demand
    /// exceeds capacity the resource is fully utilized.
    #[test]
    fn fluid_water_filling_invariants(
        caps in proptest::collection::vec(1.0f64..100.0, 1..12),
        capacity in 10.0f64..500.0,
    ) {
        let mut r = FluidResource::new(capacity, 0.0);
        let ids: Vec<_> = caps
            .iter()
            .enumerate()
            .map(|(i, &c)| r.add_stream_capped(SimTime::ZERO, 1e12, 1.0, c, i as u64))
            .collect();
        let mut total = 0.0;
        for (id, &cap) in ids.iter().zip(&caps) {
            let rate = r.stream_rate(*id).expect("live stream");
            prop_assert!(rate <= cap + 1e-9, "rate {rate} above cap {cap}");
            prop_assert!(rate >= 0.0);
            total += rate;
        }
        prop_assert!(total <= capacity + 1e-6, "allocated {total} > capacity {capacity}");
        let demand: f64 = caps.iter().sum();
        if demand >= capacity {
            prop_assert!(
                (total - capacity).abs() < 1e-6,
                "over-demanded resource must saturate: {total} vs {capacity}"
            );
        } else {
            prop_assert!(
                (total - demand).abs() < 1e-6,
                "under-demanded resource serves all demand: {total} vs {demand}"
            );
        }
    }

    /// Adding one uncapped stream soaks up exactly the residual capacity.
    #[test]
    fn fluid_uncapped_takes_residual(
        caps in proptest::collection::vec(1.0f64..20.0, 0..8),
        capacity in 100.0f64..500.0,
    ) {
        let mut r = FluidResource::new(capacity, 0.0);
        for (i, &c) in caps.iter().enumerate() {
            r.add_stream_capped(SimTime::ZERO, 1e12, 1.0, c, i as u64);
        }
        let free = r.add_stream(SimTime::ZERO, 1e12, 1.0, 999);
        let rate = r.stream_rate(free).expect("live");
        let demand: f64 = caps.iter().sum();
        if demand < capacity {
            // capped streams keep their caps; the uncapped one gets the rest
            // (as long as the fair share exceeds each cap, which holds here
            // only when caps are small — check the weaker invariant instead)
            prop_assert!(rate >= (capacity - demand) / (caps.len() as f64 + 1.0) - 1e-6);
            prop_assert!(rate <= capacity - 0.0 + 1e-6);
        }
    }

    /// Histogram::merge is associative and equivalent to observing the
    /// concatenated sample stream into one histogram.
    #[test]
    fn histogram_merge_associative(
        xs in proptest::collection::vec(-100.0f64..200.0, 0..120),
        ys in proptest::collection::vec(-100.0f64..200.0, 0..120),
        zs in proptest::collection::vec(-100.0f64..200.0, 0..120),
    ) {
        let fill = |samples: &[f64]| {
            let mut h = Histogram::linear(0.0, 100.0, 10);
            for &x in samples { h.observe(x); }
            h
        };
        let (a, b, c) = (fill(&xs), fill(&ys), fill(&zs));
        // (a·b)·c
        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        // a·(b·c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        // sequential observation of the whole stream
        let whole = fill(&[xs.clone(), ys, zs].concat());
        prop_assert_eq!(ab_c.total(), whole.total());
        prop_assert_eq!(a_bc.total(), whole.total());
        for i in 0..whole.num_bins() {
            prop_assert_eq!(ab_c.bin_count(i), whole.bin_count(i));
            prop_assert_eq!(a_bc.bin_count(i), whole.bin_count(i));
        }
        prop_assert_eq!(ab_c.underflow(), whole.underflow());
        prop_assert_eq!(ab_c.overflow(), whole.overflow());
        prop_assert_eq!(a_bc.underflow(), whole.underflow());
        prop_assert_eq!(a_bc.overflow(), whole.overflow());
    }

    /// TimeSeries::merge is associative: the left-priority tie rule makes
    /// grouping irrelevant, point for point.
    #[test]
    fn timeseries_merge_associative(
        mut ta in proptest::collection::vec(0u64..1000, 0..50),
        mut tb in proptest::collection::vec(0u64..1000, 0..50),
        mut tc in proptest::collection::vec(0u64..1000, 0..50),
    ) {
        ta.sort_unstable();
        tb.sort_unstable();
        tc.sort_unstable();
        let a = series_from(&ta, 0.0);
        let b = series_from(&tb, 1000.0);
        let c = series_from(&tc, 2000.0);
        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(ab_c.points(), a_bc.points());
        prop_assert_eq!(ab_c.len(), ta.len() + tb.len() + tc.len());
        // merged output is still a valid series: nondecreasing times
        prop_assert!(ab_c.points().windows(2).all(|w| w[0].0 <= w[1].0));
    }

    /// Merging preserves stability: on equal timestamps every left point
    /// precedes every right point.
    #[test]
    fn timeseries_merge_is_stable(n in 1usize..20, t in 0u64..1000) {
        let left = series_from(&vec![t; n], 0.0);
        let right = series_from(&vec![t; n], 1000.0);
        let mut merged = left.clone();
        merged.merge(&right);
        let values: Vec<f64> = merged.points().iter().map(|&(_, v)| v).collect();
        let expect: Vec<f64> = (0..n).map(|i| i as f64)
            .chain((0..n).map(|i| 1000.0 + i as f64))
            .collect();
        prop_assert_eq!(values, expect);
    }

    /// Empty series: identity for merge, and every query degrades cleanly.
    #[test]
    fn timeseries_empty_edge_cases(
        mut times in proptest::collection::vec(0u64..1000, 0..50),
        probe in 0u64..2000,
    ) {
        times.sort_unstable();
        let s = series_from(&times, 0.0);
        let mut left = s.clone();
        left.merge(&TimeSeries::new());
        prop_assert_eq!(left.points(), s.points());
        let mut right = TimeSeries::new();
        right.merge(&s);
        prop_assert_eq!(right.points(), s.points());

        let empty = TimeSeries::new();
        prop_assert!(empty.is_empty());
        prop_assert_eq!(empty.value_at(SimTime::from_micros(probe)), None);
        prop_assert_eq!(empty.max_value(), None);
        let grid = empty.resample(
            SimTime::ZERO,
            SimTime::from_micros(probe),
            SimDuration::from_micros(100),
            7.0,
        );
        prop_assert!(grid.iter().all(|&(_, v)| v == 7.0));
        prop_assert_eq!(
            empty.time_weighted_mean(SimTime::ZERO, SimTime::from_micros(probe), 3.5),
            3.5
        );
    }

    /// Quantiles::merge equals bulk observation, and the percentile
    /// function stays monotone on the merged collector.
    #[test]
    fn quantiles_merge_matches_bulk(
        xs in proptest::collection::vec(-1e6f64..1e6, 0..100),
        ys in proptest::collection::vec(-1e6f64..1e6, 0..100),
        ps in proptest::collection::vec(0.0f64..=100.0, 2..12),
    ) {
        let mut merged = Quantiles::new();
        merged.extend_from(&xs);
        let mut other = Quantiles::new();
        other.extend_from(&ys);
        merged.merge(&other);
        let mut bulk = Quantiles::new();
        bulk.extend_from(&[xs, ys].concat());
        prop_assert_eq!(merged.count(), bulk.count());
        let mut sorted_ps = ps.clone();
        sorted_ps.sort_by(f64::total_cmp);
        let mut last = f64::NEG_INFINITY;
        for &p in &sorted_ps {
            let v = merged.percentile(p);
            prop_assert_eq!(v, bulk.percentile(p));
            prop_assert!(v >= last, "percentile must be monotone in p");
            last = v;
        }
    }

    /// Time arithmetic: (t + d) - t == d for values away from saturation.
    #[test]
    fn time_add_sub_roundtrip(t in 0u64..u64::MAX / 4, d in 0u64..u64::MAX / 4) {
        let t = SimTime::from_micros(t);
        let d = SimDuration::from_micros(d);
        prop_assert_eq!((t + d) - t, d);
    }
}
