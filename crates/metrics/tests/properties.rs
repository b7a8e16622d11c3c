//! Property-based tests for the statistics plumbing.

use cr_metrics::{Histogram, LatencyRecorder, OnlineStats, ThroughputMeter};
use cr_sim::check::{check, Config};
use cr_sim::Cycle;

/// Welford matches the naive two-pass computation on arbitrary data.
#[test]
fn online_stats_match_naive() {
    check("online_stats_match_naive", Config::default(), |src| {
        let xs = src.vec_with(1..200, |s| s.f64_in(-1e6, 1e6));
        let mut s = OnlineStats::new();
        for &x in &xs {
            s.push(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        assert!((s.mean() - mean).abs() < 1e-6 * mean.abs().max(1.0));
        if xs.len() > 1 {
            let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
            assert!((s.sample_variance() - var).abs() < 1e-4 * var.abs().max(1.0));
        }
        assert_eq!(s.min(), xs.iter().copied().fold(f64::INFINITY, f64::min));
        assert_eq!(s.max(), xs.iter().copied().fold(f64::NEG_INFINITY, f64::max));
    });
}

/// Merging any partition of the stream equals processing it whole.
#[test]
fn merge_is_partition_invariant() {
    check("merge_is_partition_invariant", Config::default(), |src| {
        let xs = src.vec_with(2..100, |s| s.f64_in(-1e3, 1e3));
        let cut = src.usize_in(1..xs.len());
        let mut whole = OnlineStats::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut left = OnlineStats::new();
        let mut right = OnlineStats::new();
        for &x in &xs[..cut] {
            left.push(x);
        }
        for &x in &xs[cut..] {
            right.push(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.sample_variance() - whole.sample_variance()).abs() < 1e-6);
    });
}

/// Histogram percentiles are monotone in the quantile and bound the
/// data.
#[test]
fn histogram_percentiles_are_monotone() {
    check("histogram_percentiles_are_monotone", Config::default(), |src| {
        let values = src.vec_with(1..200, |s| s.u64_in(0..500));
        let mut h = Histogram::new(64, 8); // covers 0..512
        for &v in &values {
            h.record(v);
        }
        assert_eq!(h.count(), values.len() as u64);
        let qs = [0.1, 0.25, 0.5, 0.75, 0.9, 1.0];
        let ps: Vec<u64> = qs.iter().map(|&q| h.percentile(q)).collect();
        for w in ps.windows(2) {
            assert!(w[0] <= w[1], "percentiles not monotone: {ps:?}");
        }
        // The max observation is below the p100 bin edge.
        let max = *values.iter().max().unwrap();
        assert!(ps[5] > max, "p100 edge {} vs max {}", ps[5], max);
    });
}

/// The throughput meter is exactly additive and normalizes correctly.
#[test]
fn throughput_is_additive() {
    check("throughput_is_additive", Config::default(), |src| {
        let deliveries = src.vec_with(0..100, |s| (s.u64_in(0..1000), s.usize_in(1..64)));
        let nodes = src.usize_in(1..128);
        let warmup = src.u64_in(0..500);
        let mut m = ThroughputMeter::new(Cycle::new(warmup), nodes);
        let mut expected = 0u64;
        for &(t, flits) in &deliveries {
            m.record_flits(Cycle::new(t), flits);
            if t >= warmup {
                expected += flits as u64;
            }
        }
        assert_eq!(m.flits(), expected);
        let now = Cycle::new(warmup + 100);
        let rate = m.flits_per_node_cycle(now);
        assert!((rate - expected as f64 / 100.0 / nodes as f64).abs() < 1e-12);
    });
}

/// The latency recorder never counts warmup-created messages and its
/// mean matches a direct computation.
#[test]
fn latency_recorder_filters_and_averages() {
    check("latency_recorder_filters_and_averages", Config::default(), |src| {
        let samples = src.vec_with(1..100, |s| (s.u64_in(0..2000), s.u64_in(0..300)));
        let warmup = src.u64_in(0..1000);
        let mut r = LatencyRecorder::new(Cycle::new(warmup));
        let mut kept = Vec::new();
        for &(created, lat) in &samples {
            r.record(Cycle::new(created), Cycle::new(created + lat));
            if created >= warmup {
                kept.push(lat as f64);
            }
        }
        assert_eq!(r.count(), kept.len() as u64);
        if !kept.is_empty() {
            let mean = kept.iter().sum::<f64>() / kept.len() as f64;
            assert!((r.mean() - mean).abs() < 1e-9);
        }
    });
}
