//! Property-based tests for the memory-behaviour substrate.

use lms_cache::{
    binned_means, count_above, estimate_max_elements, quantile, CacheConfig, CacheHierarchy,
    CacheLevel, Fenwick, LogHistogram, MemoryConfig, NodeLayout, ReuseDistanceAnalyzer,
    StackDistanceModel, COLD,
};
use proptest::prelude::*;

fn arb_trace() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(0u32..32, 1..400)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Fenwick prefix sums always agree with a naive accumulator.
    #[test]
    fn fenwick_matches_naive(
        updates in proptest::collection::vec((0usize..24, -5i64..6), 1..120),
    ) {
        let mut f = Fenwick::new(24);
        let mut naive = [0i64; 24];
        for (i, d) in updates {
            f.add(i, d);
            naive[i] += d;
        }
        for q in 0..24 {
            let expect: i64 = naive[..=q].iter().sum();
            prop_assert_eq!(f.prefix_sum(q), expect);
        }
    }

    /// Streaming and batch reuse-distance analysis agree.
    #[test]
    fn streaming_equals_batch(trace in arb_trace()) {
        let batch = ReuseDistanceAnalyzer::analyze(&trace, 32);
        let mut streaming = ReuseDistanceAnalyzer::new(32, 8); // force growth
        let live: Vec<u64> = trace.iter().map(|&e| streaming.access(e)).collect();
        prop_assert_eq!(batch, live);
    }

    /// Exactly one cold access per distinct element; every non-cold
    /// distance is below the number of distinct elements.
    #[test]
    fn cold_counts_and_distance_bounds(trace in arb_trace()) {
        let d = ReuseDistanceAnalyzer::analyze(&trace, 32);
        let distinct: std::collections::HashSet<u32> = trace.iter().copied().collect();
        let cold = d.iter().filter(|&&x| x == COLD).count();
        prop_assert_eq!(cold, distinct.len());
        for &x in d.iter().filter(|&&x| x != COLD) {
            prop_assert!(x < distinct.len() as u64);
        }
    }

    /// Histogram and quantile bookkeeping are conservative: totals add up
    /// and quantiles are monotone in q.
    #[test]
    fn histogram_and_quantiles(trace in arb_trace()) {
        let d = ReuseDistanceAnalyzer::analyze(&trace, 32);
        let h = LogHistogram::from_distances(&d);
        prop_assert_eq!(h.total as usize, d.len());
        prop_assert_eq!(h.reuses() + h.cold, h.total);
        prop_assert_eq!(
            h.buckets.iter().sum::<u64>(),
            h.reuses()
        );
        if h.reuses() > 0 {
            let q50 = quantile(&d, 0.5).unwrap();
            let q90 = quantile(&d, 0.9).unwrap();
            let q100 = quantile(&d, 1.0).unwrap();
            prop_assert!(q50 <= q90 && q90 <= q100);
            prop_assert_eq!(count_above(&d, q100), 0);
        }
        let means = binned_means(&d, 7);
        prop_assert_eq!(means.len(), 7);
        prop_assert!(means.iter().all(|m| m.is_finite() && *m >= 0.0));
    }

    /// The stack-distance model is monotone: a bigger cache never has more
    /// misses, and miss counts never exceed the access count.
    #[test]
    fn stack_model_monotonicity(trace in arb_trace(), c1 in 1u64..8, grow in 1u64..8) {
        let d = ReuseDistanceAnalyzer::analyze(&trace, 32);
        let small = StackDistanceModel::new(vec![c1]).apply(&d, true);
        let large = StackDistanceModel::new(vec![c1 + grow]).apply(&d, true);
        prop_assert!(large.misses[0] <= small.misses[0]);
        prop_assert!(small.misses[0] <= small.accesses);
    }

    /// estimate_max_elements inverts the model's miss count back to a
    /// value no larger than the true capacity.
    #[test]
    fn capacity_estimation_is_consistent(trace in arb_trace(), cap in 1u64..16) {
        let d = ReuseDistanceAnalyzer::analyze(&trace, 32);
        let misses = StackDistanceModel::new(vec![cap]).apply(&d, false).misses[0];
        let est = estimate_max_elements(&d, misses);
        // the largest distance that fit is ≤ the capacity
        prop_assert!(est <= cap || misses == 0);
    }

    /// Cache counters are conserved at every level, and lookup counts are
    /// monotone outward (L2 only sees L1 misses, etc.).
    #[test]
    fn hierarchy_conservation(trace in arb_trace()) {
        let mut h = CacheHierarchy::new(
            vec![
                CacheConfig { name: "L1", size_bytes: 256, line_bytes: 64, associativity: 2, latency_cycles: 1 },
                CacheConfig { name: "L2", size_bytes: 512, line_bytes: 64, associativity: 4, latency_cycles: 2 },
            ],
            MemoryConfig { latency_cycles: 10 },
            NodeLayout::coords_only(),
        );
        h.run_trace(&trace);
        let stats = h.level_stats();
        for s in &stats {
            prop_assert_eq!(s.hits + s.misses, s.accesses);
        }
        prop_assert_eq!(stats[1].accesses, stats[0].misses);
        prop_assert_eq!(h.memory_accesses(), stats[1].misses);
    }

    /// A direct-mapped cache never beats a fully-associative cache of the
    /// same size on hit count... is NOT generally true (Belady anomalies
    /// exist for direct mapping), but both must agree on total accesses and
    /// cold misses.
    #[test]
    fn associativity_preserves_access_accounting(trace in arb_trace(), ways_pow in 0u32..3) {
        let lines = 8usize;
        let ways = 1usize << ways_pow;
        let mut c = CacheLevel::new(CacheConfig {
            name: "X",
            size_bytes: 64 * lines,
            line_bytes: 64,
            associativity: ways,
            latency_cycles: 1,
        });
        for &e in &trace {
            c.access_line(e as u64);
        }
        let s = c.stats();
        prop_assert_eq!(s.accesses as usize, trace.len());
        let distinct: std::collections::HashSet<u32> = trace.iter().copied().collect();
        prop_assert!(s.misses as usize >= distinct.len().min(trace.len()) / lines.max(1));
    }
}
