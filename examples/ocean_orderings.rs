//! The Figure 1 experiment on the ocean mesh: how RANDOM / ORI / BFS / RDR
//! orderings change reuse distances, simulated cache misses, and measured
//! smoothing time.
//!
//! ```text
//! cargo run --release --example ocean_orderings [scale]
//! ```
//! `scale` defaults to 0.02 (≈8k vertices); 1.0 reproduces paper size.

use lms::apps::{smooth, Backend};
use lms::cache::{binned_means, NodeLayout, ReuseDistanceAnalyzer, ReuseStats};
use lms::mesh::suite;
use lms::order::{compute_ordering, OrderingKind};
use lms::smooth::{SmoothEngine, SmoothParams, VecSink};
use std::time::Instant;

fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().cloned().fold(f64::MIN_POSITIVE, f64::max);
    values.iter().map(|&v| BARS[((v / max) * 7.0).round().clamp(0.0, 7.0) as usize]).collect()
}

fn main() {
    let scale: f64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0.02);
    let spec = suite::find_spec("ocean").unwrap();
    let base = suite::generate(spec, scale);
    println!("ocean mesh @ scale {scale}: {} vertices\n", base.num_vertices());

    for kind in [
        OrderingKind::Random { seed: 0 },
        OrderingKind::Original,
        OrderingKind::Bfs,
        OrderingKind::Rdr,
    ] {
        let mesh = compute_ordering(&base, kind).apply_to_mesh(&base);

        // Reuse-distance profile of the first sweep.
        let engine = SmoothEngine::new(&mesh, SmoothParams::paper().with_max_iters(1));
        let mut sink = VecSink::new();
        engine.smooth_traced(&mut mesh.clone(), &mut sink);
        let distances = ReuseDistanceAnalyzer::analyze(&sink.accesses, mesh.num_vertices());
        let stats = ReuseStats::from_distances(&distances);
        let profile = binned_means(&distances, 60);

        // Simulated L1 behaviour (scaled Westmere hierarchy).
        let mut cache = lms_bench_hierarchy(scale);
        cache.run_trace(&sink.accesses);
        let l1 = cache.stats_of("L1").unwrap();

        // Wall-clock smoothing time.
        let start = Instant::now();
        let report = smooth(&mut mesh.clone(), SmoothParams::paper(), Backend::Serial);
        let wall = start.elapsed();

        println!(
            "{:<8} avg reuse distance {:>9.1}   L1 miss {:>6.2}%   time {:>7.1} ms   ({} iters)",
            kind.name(),
            stats.mean,
            100.0 * l1.miss_rate(),
            wall.as_secs_f64() * 1e3,
            report.num_iterations()
        );
        println!("         profile: {}", sparkline(&profile));
    }
    println!(
        "\npaper Figure 1 (full scale): random 90k / ori 4450 / bfs 2910 average reuse distance."
    );
}

/// A Westmere-EX hierarchy shrunk proportionally to the mesh scale, so the
/// working-set-to-cache ratio matches the paper's.
fn lms_bench_hierarchy(scale: f64) -> lms::cache::CacheHierarchy {
    use lms::cache::{CacheConfig, CacheHierarchy, MemoryConfig};
    let shrink = if scale >= 1.0 { 1 } else { (1.0 / scale).round() as usize };
    let sz = |b: usize, line: usize, assoc: usize| ((b / shrink) / line).max(assoc) * line;
    CacheHierarchy::new(
        vec![
            CacheConfig {
                name: "L1",
                size_bytes: sz(32 << 10, 64, 8),
                line_bytes: 64,
                associativity: 8,
                latency_cycles: 4,
            },
            CacheConfig {
                name: "L2",
                size_bytes: sz(256 << 10, 64, 8),
                line_bytes: 64,
                associativity: 8,
                latency_cycles: 10,
            },
            CacheConfig {
                name: "L3",
                size_bytes: sz(24 << 20, 64, 24),
                line_bytes: 64,
                associativity: 24,
                latency_cycles: 100,
            },
        ],
        MemoryConfig { latency_cycles: 230 },
        NodeLayout::paper_66(),
    )
}
