//! End-to-end integration tests spanning all four crates: generate →
//! analyse → reorder → smooth → measure → export.

use lms::cache::{NodeLayout, ReuseDistanceAnalyzer, ReuseStats};
use lms::mesh::quality::{mesh_quality, QualityMetric};
use lms::mesh::{generators, io, suite, Adjacency, Boundary};
use lms::order::{compute_ordering, OrderingKind};
use lms::prelude::*;
use lms::smooth::VecSink;

#[test]
fn full_pipeline_on_suite_mesh() {
    let spec = suite::find_spec("stress").unwrap();
    let base = suite::generate(spec, 0.004);
    let adj = Adjacency::build(&base);
    let q0 = mesh_quality(&base, &adj, QualityMetric::EdgeLengthRatio);

    // reorder
    let perm = compute_ordering(&base, OrderingKind::Rdr);
    let mesh = perm.apply_to_mesh(&base);
    // permutation preserves quality exactly (same geometry)
    let adj2 = Adjacency::build(&mesh);
    let q1 = mesh_quality(&mesh, &adj2, QualityMetric::EdgeLengthRatio);
    assert!((q0 - q1).abs() < 1e-12, "reordering must not change mesh quality");

    // smooth
    let mut work = mesh.clone();
    let report = smooth(&mut work, SmoothParams::paper(), Backend::Serial);
    assert!(report.final_quality > q1, "smoothing must improve quality");
    assert!(report.converged);

    // trace + reuse analysis on the smoothed topology
    let engine = SmoothEngine::new(&mesh, SmoothParams::paper().with_max_iters(1));
    let mut sink = VecSink::new();
    engine.smooth_traced(&mut mesh.clone(), &mut sink);
    let d = ReuseDistanceAnalyzer::analyze(&sink.accesses, mesh.num_vertices());
    let stats = ReuseStats::from_distances(&d);
    assert!(stats.accesses > mesh.num_vertices());
    assert!(stats.cold as f64 >= 0.9 * mesh.num_vertices() as f64 * 0.9);

    // cache simulation
    let mut cache = CacheHierarchy::westmere_ex(NodeLayout::paper_66());
    cache.run_trace(&sink.accesses);
    assert!(cache.total_cycles() > 0);
    let l1 = cache.stats_of("L1").unwrap();
    assert_eq!(l1.hits + l1.misses, l1.accesses);

    // export + reload
    let dir = std::env::temp_dir().join("lms_integration");
    std::fs::create_dir_all(&dir).unwrap();
    let prefix = dir.join("pipeline");
    io::save_triangle(&work, &prefix).unwrap();
    let back = io::load_triangle(&prefix).unwrap();
    assert_eq!(back, work);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn all_orderings_compose_with_smoothing() {
    let base = generators::perturbed_grid(18, 18, 0.35, 3);
    let kinds = [
        OrderingKind::Original,
        OrderingKind::Random { seed: 5 },
        OrderingKind::Bfs,
        OrderingKind::Dfs,
        OrderingKind::Rcm,
        OrderingKind::Hilbert,
        OrderingKind::Rdr,
    ];
    let mut finals = Vec::new();
    for kind in kinds {
        let mesh = compute_ordering(&base, kind).apply_to_mesh(&base);
        let mut work = mesh.clone();
        let report = smooth(&mut work, SmoothParams::paper(), Backend::Serial);
        assert!(
            report.total_improvement() > 0.0,
            "{}: smoothing must improve quality",
            kind.name()
        );
        finals.push(report.final_quality);
    }
    // all orderings converge to (nearly) the same final quality — the
    // ordering is a performance knob, not an accuracy knob
    let max = finals.iter().cloned().fold(f64::MIN, f64::max);
    let min = finals.iter().cloned().fold(f64::MAX, f64::min);
    assert!(max - min < 0.01, "final qualities spread too far: {finals:?}");
}

#[test]
fn delaunay_pipeline_smooths_cleanly() {
    let mesh = generators::random_delaunay(600, 77);
    let boundary = Boundary::detect(&mesh);
    assert!(boundary.num_interior() > 0);
    let perm = compute_ordering(&mesh, OrderingKind::Rdr);
    let mut work = perm.apply_to_mesh(&mesh);
    let before = work.clone();
    let report = smooth(&mut work, SmoothParams::paper(), Backend::Serial);
    assert!(report.final_quality >= report.initial_quality);
    // boundary stays pinned through the whole pipeline
    let b2 = Boundary::detect(&before);
    for v in b2.boundary_vertices() {
        assert_eq!(work.coords()[v as usize], before.coords()[v as usize]);
    }
}

#[test]
fn parallel_and_serial_agree_through_the_full_stack() {
    let base = suite::generate(suite::find_spec("valve").unwrap(), 0.003);
    let mesh = compute_ordering(&base, OrderingKind::Rdr).apply_to_mesh(&base);
    let params =
        SmoothParams::paper().with_update(lms::smooth::UpdateScheme::Jacobi).with_max_iters(5);
    let engine = SmoothEngine::new(&mesh, params.clone());

    let mut serial = mesh.clone();
    let sr = engine.smooth(&mut serial);
    let mut parallel = mesh.clone();
    let pr = engine.smooth_parallel(&mut parallel, 3);

    assert_eq!(serial.coords(), parallel.coords());
    assert_eq!(sr.num_iterations(), pr.num_iterations());
}

#[test]
fn multicore_sim_consumes_real_traces() {
    use lms::cache::{multicore, MachineConfig};
    let base = suite::generate(suite::find_spec("crake").unwrap(), 0.003);
    let mesh = compute_ordering(&base, OrderingKind::Bfs).apply_to_mesh(&base);
    let engine = SmoothEngine::new(&mesh, SmoothParams::paper());
    let machine = MachineConfig::westmere_scaled(NodeLayout::paper_66(), 300);

    let mut walls = Vec::new();
    for p in [1usize, 4, 16] {
        let traces =
            lms::smooth::trace::chunked_sweep_traces(engine.adjacency(), engine.boundary(), p);
        let r = multicore::simulate(&machine, &traces);
        assert_eq!(r.num_threads, p);
        walls.push(r.wall_cycles());
    }
    assert!(walls[0] > walls[1], "4 cores must beat 1");
    assert!(walls[1] > walls[2], "16 cores must beat 4");
}

#[test]
fn quality_metrics_agree_on_ranking_after_smoothing() {
    let base = generators::perturbed_grid(15, 15, 0.38, 11);
    for metric in
        [QualityMetric::EdgeLengthRatio, QualityMetric::MinAngle, QualityMetric::RadiusRatio]
    {
        let mut work = base.clone();
        let report = smooth(&mut work, SmoothParams::paper().with_metric(metric), Backend::Serial);
        assert!(
            report.final_quality > report.initial_quality,
            "{metric:?} must register improvement"
        );
    }
}
