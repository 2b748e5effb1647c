//! Integration tests for the `lms-apps` applications across the whole
//! stack: orderings drive untangling / swapping / constrained and
//! optimization smoothing, the cache substrate measures their traces, and
//! the pipeline composes everything.

use lms::apps::constrained::{constrained_smooth, ConstrainedOptions};
use lms::apps::optsmooth::{opt_smooth, OptSmoothOptions};
use lms::apps::swap::{is_delaunay, swap_until_stable, SwapCriterion, SwapOptions};
use lms::apps::untangle::{count_inverted, tangle_vertices, untangle, UntangleOptions};
use lms::apps::{EdgeTopology, Pipeline};
use lms::cache::{element_line_trace, NodeLayout, OptComparison};
use lms::mesh::quality::{mesh_quality, QualityMetric};
use lms::mesh::{generators, suite, Adjacency, Boundary};
use lms::order::{compute_ordering, OrderingKind};
use lms::prelude::*;
use lms::smooth::VecSink;

/// The full repair workflow succeeds under every ordering in the zoo.
#[test]
fn repair_workflow_succeeds_under_every_ordering() {
    for kind in OrderingKind::ALL {
        let mut m = generators::perturbed_grid(24, 24, 0.3, 9);
        m.orient_ccw();
        tangle_vertices(&mut m, 30);
        assert!(count_inverted(&m) > 0);
        let report = Pipeline::standard(kind, Backend::Serial).run(&mut m);
        assert_eq!(count_inverted(&m), 0, "{}: untangle failed", kind.name());
        assert!(
            report.final_quality > report.initial_quality,
            "{}: quality regressed",
            kind.name()
        );
    }
}

/// Swapping to the Delaunay criterion on a clean suite mesh reaches the
/// Delaunay fixed point regardless of the edge visit order.
#[test]
fn suite_mesh_swaps_to_delaunay_under_any_visit_order() {
    let spec = suite::find_spec("valve").unwrap();
    let base = suite::generate(spec, 0.004);
    for kind in [OrderingKind::Original, OrderingKind::Rdr, OrderingKind::Random { seed: 3 }] {
        let mut m = base.clone();
        let perm = compute_ordering(&m, kind);
        let report = swap_until_stable(&mut m, SwapOptions::default(), Some(&perm));
        assert!(report.converged, "{}", kind.name());
        assert!(is_delaunay(&m), "{}: not Delaunay", kind.name());
    }
}

/// Quality-criterion swapping: guaranteed to raise the worst triangle
/// before smoothing, and composing it with smoothing stays in the same
/// quality league as smoothing alone (the two attack different defects —
/// connectivity vs positions — so neither strictly dominates per seed).
#[test]
fn quality_swap_composes_with_smoothing() {
    let base = generators::perturbed_grid(20, 20, 0.42, 13);
    let params = SmoothParams::paper().with_max_iters(60);
    let min_tri = |m: &lms::mesh::TriMesh| {
        lms::mesh::quality::triangle_qualities(m, QualityMetric::EdgeLengthRatio)
            .into_iter()
            .fold(f64::INFINITY, f64::min)
    };

    let mut smooth_only = base.clone();
    let r_smooth = smooth(&mut smooth_only, params.clone(), Backend::Serial);

    let mut both = base.clone();
    let floor_before = min_tri(&both);
    swap_until_stable(
        &mut both,
        SwapOptions { criterion: SwapCriterion::quality(), max_passes: 50 },
        None,
    );
    assert!(min_tri(&both) >= floor_before - 1e-12, "quality swap lowered the floor");
    let r_both = smooth(&mut both, params, Backend::Serial);

    assert!(
        r_both.final_quality > 0.9 * r_smooth.final_quality,
        "swap+smooth {} collapsed vs smooth {}",
        r_both.final_quality,
        r_smooth.final_quality
    );
    assert!(r_both.final_quality > r_both.initial_quality);
}

/// Constrained smoothing preserves the domain boundary polyline's bbox and
/// total area while improving quality on a boundary-uneven mesh.
#[test]
fn constrained_smoothing_preserves_domain_and_improves() {
    let mut m = generators::perturbed_grid(20, 20, 0.3, 5);
    // make the boundary spacing uneven so sliding has head-room
    let (lo, hi) = m.bbox();
    for v in 0..m.num_vertices() {
        let p = m.coords()[v];
        let on_x = (p.x - lo.x).abs() < 1e-12 || (p.x - hi.x).abs() < 1e-12;
        let on_y = (p.y - lo.y).abs() < 1e-12 || (p.y - hi.y).abs() < 1e-12;
        let shift = 0.012 * (3.0 * v as f64).sin();
        if on_y && !on_x {
            m.coords_mut()[v].x += shift;
        } else if on_x && !on_y {
            m.coords_mut()[v].y += shift;
        }
    }
    let area_before = m.total_area();
    let report = constrained_smooth(
        &mut m,
        &SmoothParams::paper().with_max_iters(50),
        &ConstrainedOptions::default(),
    );
    assert!(report.final_quality > report.initial_quality);
    let (lo1, hi1) = m.bbox();
    assert!(lo.dist(lo1) < 1e-9 && hi.dist(hi1) < 1e-9, "bbox moved");
    assert!(
        (m.total_area() - area_before).abs() < 1e-6 * area_before,
        "area changed: {} -> {}",
        area_before,
        m.total_area()
    );
}

/// Optimization smoothing lifts the worst vertex above what plain
/// Laplacian reaches, on a harshly graded mesh.
#[test]
fn optsmooth_lifts_the_quality_floor() {
    let base = generators::graded_grid_over(
        24,
        24,
        (lms::mesh::Point2::ZERO, lms::mesh::Point2::new(1.0, 1.0)),
        0.45,
        17,
    );
    let worst = |m: &lms::mesh::TriMesh| {
        let adj = Adjacency::build(m);
        lms::mesh::quality::vertex_qualities(m, &adj, QualityMetric::EdgeLengthRatio)
            .into_iter()
            .fold(f64::INFINITY, f64::min)
    };
    let mut m = base.clone();
    opt_smooth(&mut m, &OptSmoothOptions::default());
    assert!(worst(&m) > worst(&base), "floor must rise: {} vs {}", worst(&m), worst(&base));
}

/// The traced access stream of an RDR-ordered mesh is close to Belady-
/// optimal at L3 (the §5.2.3 quasi-optimality claim, end to end).
#[test]
fn rdr_trace_is_near_belady_optimal_at_l3() {
    let spec = suite::find_spec("carabiner").unwrap();
    let base = suite::generate(spec, 0.004);
    let layout = NodeLayout::paper_66();
    let measure = |kind| {
        let perm = compute_ordering(&base, kind);
        let m = perm.apply_to_mesh(&base);
        let engine = SmoothEngine::new(&m, SmoothParams::paper().with_max_iters(1));
        let mut sink = VecSink::new();
        engine.smooth_traced(&mut m.clone(), &mut sink);
        let lines = element_line_trace(&sink.accesses, &layout, 64);
        // L3 scaled to mesh scale: 24 MiB / 256 ≈ 96 KiB ⇒ 1536 lines
        OptComparison::measure(&lines, 1536)
    };
    let rdr = measure(OrderingKind::Rdr);
    let ori = measure(OrderingKind::Original);
    assert!(
        rdr.lru_over_opt() <= ori.lru_over_opt() + 1e-9,
        "rdr {} must be at least as close to OPT as ori {}",
        rdr.lru_over_opt(),
        ori.lru_over_opt()
    );
    assert!(rdr.lru_over_opt() < 1.05, "rdr should be quasi-optimal, got {}", rdr.lru_over_opt());
}

/// Edge topology stays Euler-consistent through a full pipeline run.
#[test]
fn topology_invariants_survive_the_pipeline() {
    let mut m = generators::perturbed_grid(16, 16, 0.35, 21);
    m.orient_ccw();
    tangle_vertices(&mut m, 25);
    let v_before = m.num_vertices() as i64;
    let f_before = m.num_triangles() as i64;
    Pipeline::standard(OrderingKind::Rdr, Backend::Serial).run(&mut m);
    let topo = EdgeTopology::build(&m).expect("pipeline output must stay manifold");
    assert_eq!(m.num_vertices() as i64, v_before);
    assert_eq!(m.num_triangles() as i64, f_before);
    assert_eq!(v_before - topo.num_edges() as i64 + f_before, 1, "Euler characteristic");
    let boundary = Boundary::detect(&m);
    assert_eq!(topo.boundary_edges().len(), boundary.num_boundary());
}

/// The weighted-Laplacian extensions compose with reordering: quality
/// improves and the permutation itself never changes the geometry.
#[test]
fn weighted_smoothing_composes_with_rdr() {
    use lms::smooth::Weighting;
    let base = generators::perturbed_grid(18, 18, 0.35, 2);
    for weighting in [Weighting::Uniform, Weighting::InverseEdgeLength, Weighting::EdgeLength] {
        let perm = compute_ordering(&base, OrderingKind::Rdr);
        let mut m = perm.apply_to_mesh(&base);
        let adj = Adjacency::build(&m);
        let q0 = mesh_quality(&m, &adj, QualityMetric::EdgeLengthRatio);
        let report = smooth(
            &mut m,
            SmoothParams::paper().with_weighting(weighting).with_max_iters(60),
            Backend::Serial,
        );
        assert!((report.initial_quality - q0).abs() < 1e-12);
        assert!(report.final_quality > q0, "{}", weighting.name());
    }
}

/// Pinned-corner detection: untangle + constrained smoothing never move
/// the four bbox corners of a grid domain.
#[test]
fn domain_corners_are_sacred() {
    let mut m = generators::perturbed_grid(14, 14, 0.3, 8);
    m.orient_ccw();
    let (lo, hi) = m.bbox();
    let corners: Vec<usize> = (0..m.num_vertices())
        .filter(|&v| {
            let p = m.coords()[v];
            ((p.x - lo.x).abs() < 1e-12 || (p.x - hi.x).abs() < 1e-12)
                && ((p.y - lo.y).abs() < 1e-12 || (p.y - hi.y).abs() < 1e-12)
        })
        .collect();
    assert_eq!(corners.len(), 4);
    let before: Vec<_> = corners.iter().map(|&v| m.coords()[v]).collect();

    tangle_vertices(&mut m, 30);
    untangle(&mut m, None, UntangleOptions::default());
    constrained_smooth(
        &mut m,
        &SmoothParams::paper().with_max_iters(20),
        &ConstrainedOptions::default(),
    );
    let after: Vec<_> = corners.iter().map(|&v| m.coords()[v]).collect();
    assert_eq!(before, after);
}
