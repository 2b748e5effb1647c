//! Mesh improvement end to end: tangle a mesh, then repair and polish it
//! with the full application stack — reorder (RDR), untangle, Delaunay
//! swap, smart Laplacian smoothing, and a final optimization-smoothing
//! pass — exactly the workflow the paper's §6 conjectures RDR should
//! accelerate.
//!
//! ```text
//! cargo run --release --example mesh_improvement
//! ```

use lms::apps::optsmooth::OptSmoothOptions;
use lms::apps::swap::SwapOptions;
use lms::apps::untangle::UntangleOptions;
use lms::apps::{count_inverted, is_delaunay, tangle_vertices, worst_vertex_quality};
use lms::mesh::generators;
use lms::mesh::quality::QualityMetric;
use lms::prelude::*;

fn main() {
    // 1. Start from a harshly jittered triangulation and deliberately
    //    tangle it: every 35th interior vertex is thrown across its ring,
    //    inverting triangles — the state meshes reach after aggressive
    //    boundary movement or morphing.
    let mut mesh = generators::perturbed_grid(80, 80, 0.4, 7);
    mesh.orient_ccw();
    let displaced = tangle_vertices(&mut mesh, 35);
    println!(
        "tangled mesh: {} vertices, {} displaced, {} inverted triangles",
        mesh.num_vertices(),
        displaced,
        count_inverted(&mesh)
    );

    // 2. The standard improvement pipeline (reorder → untangle → swap →
    //    smart smooth), then an optimization-smoothing pass to lift the
    //    worst remaining vertices and a final swap to restore Delaunayhood
    //    for the positions the smoothers settled on.
    let pipeline = Pipeline::standard(OrderingKind::Rdr, Backend::Serial)
        .then(Stage::OptSmooth(OptSmoothOptions::default()))
        .then(Stage::Swap(SwapOptions::default()));
    let report = pipeline.run(&mut mesh);

    println!("\nstage            quality before -> after   work");
    for s in &report.stages {
        println!(
            "{:<16} {:.4}        -> {:.4}   {}",
            s.stage, s.quality_before, s.quality_after, s.work
        );
    }
    println!(
        "\ntotal: {:.4} -> {:.4} (+{:.4})",
        report.initial_quality,
        report.final_quality,
        report.total_improvement()
    );

    // 3. Verify the repairs actually happened. (Global Delaunayhood is not
    //    asserted: a mesh recovered from a harsh tangle can retain folded —
    //    all-positive-area but locally non-planar — neighbourhoods where
    //    diagonal flips are legitimately inapplicable; `is_delaunay`
    //    reports whether any flippable edge remains wanted.)
    assert_eq!(count_inverted(&mesh), 0, "pipeline must untangle");
    assert!(report.final_quality > report.initial_quality);
    println!(
        "valid: 0 inverted, locally Delaunay: {}, worst vertex quality {:.4}",
        is_delaunay(&mesh),
        worst_vertex_quality(&mesh, QualityMetric::EdgeLengthRatio)
    );

    // 4. The same repair under the three paper orderings — the §6
    //    conjecture in one table (run `lms-exp apps` for the full suite).
    println!("\nordering  untangle+swap+smooth wall time");
    for kind in OrderingKind::PAPER_TRIO {
        let mut tangled = generators::perturbed_grid(80, 80, 0.4, 7);
        tangled.orient_ccw();
        tangle_vertices(&mut tangled, 35);
        let pipeline = Pipeline::standard(kind, Backend::Serial);
        let t0 = std::time::Instant::now();
        let r = pipeline.run(&mut tangled);
        println!(
            "{:<8}  {:>7.1} ms (quality {:.4} -> {:.4})",
            kind.name(),
            t0.elapsed().as_secs_f64() * 1e3,
            r.initial_quality,
            r.final_quality
        );
    }

    // Swapping and untangling are quality-driven like the smoother, so a
    // SwapOptions/UntangleOptions pair with different knobs slots straight
    // into a custom pipeline:
    let _custom = Pipeline::new()
        .then(Stage::Untangle(UntangleOptions { max_sweeps: 5, ascent_steps: 8 }))
        .then(Stage::Swap(SwapOptions { max_passes: 10, ..SwapOptions::default() }));
    println!("\ndone.");
}
