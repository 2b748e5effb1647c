//! Cross-crate integration tests for the tetrahedral (§6) extension:
//! lms-mesh3d driving lms-order's generic cores and lms-cache's analysis.

use lms::apps::{smooth, Backend};
use lms::cache::hierarchy::CacheHierarchy;
use lms::cache::reuse::{ReuseDistanceAnalyzer, ReuseStats};
use lms::cache::NodeLayout;
use lms::mesh3d::generators::{block_scramble, generate3, perturbed_tet_grid, SUITE3};
use lms::mesh3d::{Adjacency3, Boundary3, SmoothParams3, UpdateScheme3};
use lms::order::{compute_ordering, OrderingKind};
use lms_bench::common::first_sweep_trace;

fn scrambled_box(n: usize, seed: u64) -> lms::mesh3d::TetMesh {
    block_scramble(perturbed_tet_grid(n, n, n, 0.35, seed), 128, seed)
}

#[test]
fn full_3d_pipeline_reorder_smooth_analyze() {
    let base = scrambled_box(10, 3);

    // reorder with RDR via the graph-generic Algorithm 2
    let mesh = compute_ordering(&base, OrderingKind::Rdr).apply_to_mesh(&base);

    // smooth to convergence
    let mut work = mesh.clone();
    let report = smooth(&mut work, SmoothParams3::paper(), Backend::Serial);
    assert!(report.converged);
    assert!(report.final_quality > report.initial_quality);

    // feed the sweep trace through the full cache hierarchy
    let trace = first_sweep_trace(&mesh);
    let mut h = CacheHierarchy::westmere_ex(NodeLayout::paper_66());
    h.run_trace(&trace);
    let stats = h.level_stats();
    assert!(stats[0].accesses > 0);
    assert!(stats[0].hits > stats[0].misses, "RDR-ordered sweep must be L1-friendly");
}

#[test]
fn paper_ranking_holds_on_the_3d_suite() {
    // mean reuse distance: RANDOM >> ORI and RDR < ORI on every suite mesh
    for spec in &SUITE3 {
        let base = generate3(spec, 0.3);
        let mean_rd = |kind| {
            let m = compute_ordering(&base, kind).apply_to_mesh(&base);
            let d = ReuseDistanceAnalyzer::analyze(&first_sweep_trace(&m), m.num_vertices());
            ReuseStats::from_distances(&d).mean
        };
        let ori = mean_rd(OrderingKind::Original);
        let rnd = mean_rd(OrderingKind::Random { seed: 5 });
        let rdr = mean_rd(OrderingKind::Rdr);
        assert!(rnd > 2.0 * ori, "{}: random {rnd} vs ori {ori}", spec.name);
        assert!(rdr < ori, "{}: rdr {rdr} vs ori {ori}", spec.name);
    }
}

#[test]
fn jacobi_smoothing_is_ordering_invariant_in_3d() {
    // The paper notes its orderings did not change the iteration count; for
    // Jacobi updates the guarantee is exact: identical quality trajectory
    // under any renumbering.
    let base = scrambled_box(8, 9);
    let params = SmoothParams3::paper().with_update(UpdateScheme3::Jacobi).with_max_iters(30);
    let reports: Vec<_> = [OrderingKind::Original, OrderingKind::Bfs, OrderingKind::Rdr]
        .into_iter()
        .map(|kind| {
            let mut m = compute_ordering(&base, kind).apply_to_mesh(&base);
            smooth(&mut m, params.clone(), Backend::Serial)
        })
        .collect();
    for r in &reports[1..] {
        assert_eq!(r.num_iterations(), reports[0].num_iterations());
        assert!((r.final_quality - reports[0].final_quality).abs() < 1e-12);
    }
}

#[test]
fn parallel_3d_smoothing_matches_serial() {
    use lms::mesh3d::{ResidentEngine3, SmoothEngine3};
    use lms::part::PartitionMethod;
    let base = scrambled_box(8, 4);
    let params = SmoothParams3::paper().with_smart(true).with_tol(-1.0).with_max_iters(4);
    let (parts, method) = (4, PartitionMethod::Rcb);
    let mut par = base.clone();
    smooth(&mut par, params.clone(), Backend::Resident { parts, method, threads: 3 });
    let part_major =
        ResidentEngine3::by_method(&base, params.clone(), parts, method).part_major_visit_order();
    let mut serial = base.clone();
    SmoothEngine3::new(&base, params).with_visit_order(part_major).smooth(&mut serial);
    assert_eq!(serial.coords(), par.coords());
}

/// The analysed sweep trace is the serial engine's own access stream: one
/// traced Gauss–Seidel sweep records each interior vertex in storage
/// order, then its neighbours — for every ordering of the mesh.
#[test]
fn sweep_trace_is_the_engine_stream() {
    let base = scrambled_box(7, 4);
    for kind in OrderingKind::PAPER_TRIO {
        let mesh = compute_ordering(&base, kind).apply_to_mesh(&base);
        let adj = Adjacency3::build(&mesh);
        let boundary = Boundary3::detect(&mesh);
        let mut reference = Vec::new();
        for v in boundary.interior_vertices() {
            reference.push(v);
            reference.extend_from_slice(adj.neighbors(v));
        }
        assert_eq!(first_sweep_trace(&mesh), reference, "{}", kind.name());
    }
}
