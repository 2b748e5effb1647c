//! The §6 conjecture in action: RDR on a tetrahedral mesh.
//!
//! Generates a jittered tetrahedral box, reorders it with each of
//! ORI / RANDOM / BFS / RDR, and reports the reuse distance of the 3D
//! smoothing sweep plus the smoothing outcome — the paper's 2D pipeline
//! transplanted to its most direct "extension of Laplacian mesh smoothing".
//!
//! ```text
//! cargo run --release --example tet_smoothing
//! ```

use lms::apps::{smooth, Backend};
use lms::cache::reuse::{ReuseDistanceAnalyzer, ReuseStats};
use lms::mesh3d::generators::{block_scramble, perturbed_tet_grid};
use lms::mesh3d::{Adjacency3, SmoothParams3};
use lms::order::{compute_ordering, layout_stats, OrderingKind};
use lms_bench::common::first_sweep_trace;

fn main() {
    // 1. A 20×20×20 jittered Kuhn-subdivision box (≈9.3k vertices, 48k
    //    tets), block-scrambled so the "original" numbering has realistic
    //    generator-grade locality.
    let base = block_scramble(perturbed_tet_grid(20, 20, 20, 0.35, 42), 256, 42);
    let adj = Adjacency3::build(&base);
    println!(
        "tet mesh: {} vertices, {} tets, mean degree {:.2}",
        base.num_vertices(),
        base.num_tets(),
        adj.mean_degree()
    );
    println!();
    println!(
        "{:<8} {:>12} {:>12} {:>10} {:>8}",
        "ordering", "mean span", "mean RD", "final q", "iters"
    );

    for kind in [
        OrderingKind::Original,
        OrderingKind::Random { seed: 7 },
        OrderingKind::Bfs,
        OrderingKind::Rdr,
    ] {
        // 2. Renumber and measure the layout.
        let mesh = compute_ordering(&base, kind).apply_to_mesh(&base);
        let span = layout_stats(&mesh, &Adjacency3::build(&mesh)).mean_gap;

        // 3. Reuse distance of one smoothing sweep — the §3.1 mechanism.
        let trace = first_sweep_trace(&mesh);
        let distances = ReuseDistanceAnalyzer::analyze(&trace, mesh.num_vertices());
        let mean_rd = ReuseStats::from_distances(&distances).mean;

        // 4. Smooth to convergence (Equation (1) is dimension-agnostic).
        let mut work = mesh.clone();
        let report = smooth(&mut work, SmoothParams3::paper(), Backend::Serial);

        println!(
            "{:<8} {:>12.1} {:>12.1} {:>10.4} {:>8}",
            kind.name(),
            span,
            mean_rd,
            report.final_quality,
            report.num_iterations()
        );
    }
    println!();
    println!("RDR's walk shrinks the reuse distance in 3D exactly as it does in 2D,");
    println!("while the smoothing outcome (final quality) is unaffected by the numbering.");

    // 5. Render the smoothed surface (quality-coloured) as an SVG.
    let mut smoothed = base.clone();
    smooth(&mut smoothed, SmoothParams3::paper(), Backend::Serial);
    let svg = lms::viz::render_tet_surface(&smoothed, &lms::viz::Mesh3Style::default());
    let path = std::path::Path::new("results/figures/tet_surface.svg");
    match svg.write_to(path) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => println!("(skipping SVG write: {e})"),
    }
}
