//! Cross-crate integration tests for the tetrahedral (§6) extension:
//! lms-mesh3d driving lms-order's generic cores and lms-cache's analysis.

use lms::apps::{smooth, Backend};
use lms::cache::hierarchy::CacheHierarchy;
use lms::cache::reuse::{ReuseDistanceAnalyzer, ReuseStats};
use lms::cache::NodeLayout;
use lms::mesh3d::generators::{block_scramble, generate3, perturbed_tet_grid, SUITE3};
use lms::mesh3d::order::{apply_permutation3, compute_ordering3, sweep_trace3, OrderingKind3};
use lms::mesh3d::{Adjacency3, Boundary3, SmoothParams3, UpdateScheme3};

fn scrambled_box(n: usize, seed: u64) -> lms::mesh3d::TetMesh {
    block_scramble(perturbed_tet_grid(n, n, n, 0.35, seed), 128, seed)
}

#[test]
fn full_3d_pipeline_reorder_smooth_analyze() {
    let base = scrambled_box(10, 3);

    // reorder with RDR via the graph-generic Algorithm 2
    let perm = compute_ordering3(&base, OrderingKind3::Rdr);
    let mesh = apply_permutation3(&perm, &base);

    // smooth to convergence
    let mut work = mesh.clone();
    let report = smooth(&mut work, SmoothParams3::paper(), Backend::Serial);
    assert!(report.converged);
    assert!(report.final_quality > report.initial_quality);

    // feed the sweep trace through the full cache hierarchy
    let adj = Adjacency3::build(&mesh);
    let boundary = Boundary3::detect(&mesh);
    let trace = sweep_trace3(&adj, &boundary);
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
            let perm = compute_ordering3(&base, kind);
            let m = apply_permutation3(&perm, &base);
            let adj = Adjacency3::build(&m);
            let b = Boundary3::detect(&m);
            let trace = sweep_trace3(&adj, &b);
            let d = ReuseDistanceAnalyzer::analyze(&trace, m.num_vertices());
            ReuseStats::from_distances(&d).mean
        };
        let ori = mean_rd(OrderingKind3::Original);
        let rnd = mean_rd(OrderingKind3::Random { seed: 5 });
        let rdr = mean_rd(OrderingKind3::Rdr);
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
    let reports: Vec<_> = [OrderingKind3::Original, OrderingKind3::Bfs, OrderingKind3::Rdr]
        .into_iter()
        .map(|kind| {
            let perm = compute_ordering3(&base, kind);
            let mut m = apply_permutation3(&perm, &base);
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
    use lms::mesh3d::SmoothEngine3;
    let base = scrambled_box(8, 4);
    let params = SmoothParams3::paper().with_update(UpdateScheme3::Jacobi).with_max_iters(6);
    let mut serial = base.clone();
    SmoothEngine3::new(&base, params.clone()).smooth(&mut serial);
    let mut par = base.clone();
    SmoothEngine3::new(&base, params).smooth_parallel(&mut par, 4);
    assert_eq!(serial.coords(), par.coords());
}
