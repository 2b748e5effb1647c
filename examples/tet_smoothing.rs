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
use lms::mesh3d::order::{
    apply_permutation3, compute_ordering3, mean_neighbor_span3, sweep_trace3, OrderingKind3,
};
use lms::mesh3d::{Adjacency3, Boundary3, SmoothParams3};

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
        OrderingKind3::Original,
        OrderingKind3::Random { seed: 7 },
        OrderingKind3::Bfs,
        OrderingKind3::Rdr,
    ] {
        // 2. Renumber and measure the layout.
        let perm = compute_ordering3(&base, kind);
        let mesh = apply_permutation3(&perm, &base);
        let adj = Adjacency3::build(&mesh);
        let boundary = Boundary3::detect(&mesh);
        let span = mean_neighbor_span3(&adj);

        // 3. Reuse distance of one smoothing sweep — the §3.1 mechanism.
        let trace = sweep_trace3(&adj, &boundary);
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
