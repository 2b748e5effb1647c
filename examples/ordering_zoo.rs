//! The ordering zoo: every vertex ordering the reproduction implements,
//! compared on one mesh by layout locality, simulated cache behaviour and
//! actual smoothing wall time.
//!
//! This is the widescreen version of the paper's Figure 1/8 comparison:
//! beyond ORI / RANDOM / BFS / RDR it includes reversed BFS (Munson &
//! Hovland), DFS, (reverse) Cuthill–McKee, Sloan, two space-filling curves,
//! and the two value-sort ablations that isolate why RDR works.
//!
//! ```text
//! cargo run --release --example ordering_zoo
//! ```

use lms::cache::CacheHierarchy;
use lms::cache::NodeLayout;
use lms::mesh::{suite, Adjacency};
use lms::order::{compute_ordering_with, layout_stats_permuted};
use lms::prelude::*;
use lms::smooth::{SmoothEngine, VecSink};

fn main() {
    // the ocean mesh (M6) at 2% scale — the mesh of the paper's Figure 1
    let spec = suite::find_spec("ocean").expect("ocean is in the suite");
    let base = suite::generate(spec, 0.02);
    let adj = Adjacency::build(&base);
    println!(
        "mesh: {} ({} vertices, {} triangles)\n",
        spec.name,
        base.num_vertices(),
        base.num_triangles()
    );
    println!(
        "{:<8} {:>10} {:>9} {:>9} {:>9} {:>10} {:>8}",
        "ordering", "mean span", "L1 miss", "L2 miss", "L3 miss", "smooth ms", "iters"
    );

    for kind in OrderingKind::ALL {
        // reorder, then run one traced first sweep through the simulated
        // Westmere-EX (scaled to the mesh scale)
        let perm = compute_ordering_with(&base, &adj, kind);
        let span = layout_stats_permuted(&base, &adj, &perm).mean_span;
        let mesh = perm.apply_to_mesh(&base);

        let engine = SmoothEngine::new(&mesh, SmoothParams::paper().with_max_iters(1));
        let mut sink = VecSink::default();
        engine.smooth_traced(&mut mesh.clone(), &mut sink);

        let mut hier = scaled_hierarchy(0.02);
        hier.run_trace(&sink.accesses);
        let stats = hier.level_stats();

        // wall time of a real (non-traced) smoothing run
        let mut work = mesh.clone();
        let t0 = std::time::Instant::now();
        let report = smooth(&mut work, SmoothParams::paper().with_max_iters(50), Backend::Serial);
        let wall = t0.elapsed().as_secs_f64() * 1e3;

        println!(
            "{:<8} {:>10.1} {:>8.1}% {:>8.1}% {:>8.1}% {:>10.2} {:>8}",
            kind.name(),
            span,
            stats[0].miss_rate() * 100.0,
            stats[1].miss_rate() * 100.0,
            stats[2].miss_rate() * 100.0,
            wall,
            report.num_iterations()
        );
    }

    println!(
        "\nreading: the value sorts (qsort, degsort) sit near random — sorting by\nquality alone scatters neighbours. RDR's chaining walk is what turns the\nquality signal into locality (compare qsort vs rdr)."
    );
}

/// Westmere-EX shrunk to keep working-set/cache ratios at reduced scale
/// (same rule as the experiment harness).
fn scaled_hierarchy(scale: f64) -> CacheHierarchy {
    use lms::cache::{CacheConfig, MemoryConfig};
    let shrink = (1.0 / scale).round().max(1.0) as usize;
    let sz = |b: usize, assoc: usize| ((b / shrink) / 64).max(assoc) * 64;
    CacheHierarchy::new(
        vec![
            CacheConfig {
                name: "L1",
                size_bytes: sz(32 * 1024, 8),
                line_bytes: 64,
                associativity: 8,
                latency_cycles: 4,
            },
            CacheConfig {
                name: "L2",
                size_bytes: sz(256 * 1024, 8),
                line_bytes: 64,
                associativity: 8,
                latency_cycles: 10,
            },
            CacheConfig {
                name: "L3",
                size_bytes: sz(24 * 1024 * 1024, 24),
                line_bytes: 64,
                associativity: 24,
                latency_cycles: 100,
            },
        ],
        MemoryConfig { latency_cycles: 230 },
        NodeLayout::paper_66(),
    )
}
