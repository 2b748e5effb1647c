//! Quickstart: generate a mesh, reorder it with RDR, smooth it, and see the
//! quality and locality improvements.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use lms::mesh::{generators, Adjacency};
use lms::order::{layout_stats, rdr_ordering};
use lms::prelude::*;

fn main() {
    // 1. A jittered 100×100 unstructured-ish triangulation of the unit
    //    square (≈10k vertices). The jitter leaves plenty of badly shaped
    //    triangles for the smoother to fix.
    let mesh = generators::perturbed_grid(100, 100, 0.38, 42);
    let adj = Adjacency::build(&mesh);
    println!(
        "mesh: {} vertices, {} triangles, mean degree {:.2}",
        mesh.num_vertices(),
        mesh.num_triangles(),
        adj.mean_degree()
    );

    // 2. The RDR reordering (Algorithm 2 of the paper): renumber the
    //    vertices along the smoother's own worst-quality-first traversal.
    let before = layout_stats(&mesh, &adj);
    let perm = rdr_ordering(&mesh);
    let mesh = perm.apply_to_mesh(&mesh);
    let adj = Adjacency::build(&mesh);
    let after = layout_stats(&mesh, &adj);
    println!(
        "layout locality (mean neighbour span): {:.1} -> {:.1}",
        before.mean_span, after.mean_span
    );

    // 3. Laplacian smoothing with the paper's parameters (edge-length-ratio
    //    quality, 5e-6 convergence tolerance).
    let mut work = mesh.clone();
    let report = smooth(&mut work, SmoothParams::paper(), Backend::Serial);
    println!(
        "smoothing: quality {:.4} -> {:.4} in {} iterations (converged: {})",
        report.initial_quality,
        report.final_quality,
        report.num_iterations(),
        report.converged
    );

    assert!(report.final_quality > report.initial_quality);
    println!("done.");
}
