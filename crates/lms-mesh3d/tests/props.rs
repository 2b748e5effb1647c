//! Property-based invariants for the tetrahedral substrate.

use lms_mesh3d::generators::{block_scramble, perturbed_tet_grid, tet_grid};
use lms_mesh3d::order::{
    apply_permutation3, compute_ordering3, mean_neighbor_span3, OrderingKind3,
};
use lms_mesh3d::quality::{mesh_quality, vertex_qualities, TetQualityMetric};
use lms_mesh3d::{Adjacency3, Boundary3, SmoothEngine3, SmoothParams3, TetMesh, UpdateScheme3};
use lms_smooth::checks;
use proptest::prelude::*;

/// Strategy: a small perturbed tet grid (2–6 cells per axis).
fn small_mesh() -> impl Strategy<Value = TetMesh> {
    (2usize..=6, 2usize..=6, 2usize..=6, 0u64..1000, 0.0..0.42f64)
        .prop_map(|(nx, ny, nz, seed, jitter)| perturbed_tet_grid(nx, ny, nz, jitter, seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn grids_are_valid_and_positively_oriented(m in small_mesh()) {
        prop_assert!(m.is_positively_oriented());
        // rebuilding through the validating constructor must succeed
        let (coords, tets) = m.clone().into_parts();
        prop_assert!(TetMesh::new(coords, tets).is_ok());
    }

    #[test]
    fn adjacency_is_symmetric_and_loop_free(m in small_mesh()) {
        let adj = Adjacency3::build(&m);
        for v in 0..adj.num_vertices() as u32 {
            let ns = adj.neighbors(v);
            prop_assert!(ns.windows(2).all(|w| w[0] < w[1]));
            prop_assert!(!ns.contains(&v));
            for &w in ns {
                prop_assert!(adj.are_adjacent(w, v));
            }
        }
    }

    #[test]
    fn all_orderings_are_bijections(m in small_mesh()) {
        for kind in OrderingKind3::ALL {
            let p = compute_ordering3(&m, kind);
            let mut ids = p.new_to_old().to_vec();
            ids.sort_unstable();
            prop_assert!(ids.iter().enumerate().all(|(i, &v)| i as u32 == v),
                "{} not a bijection", kind.name());
        }
    }

    #[test]
    fn reordering_preserves_volume_edges_boundary(m in small_mesh()) {
        let p = compute_ordering3(&m, OrderingKind3::Rdr);
        let rm = apply_permutation3(&p, &m);
        prop_assert!((rm.total_volume() - m.total_volume()).abs() < 1e-9);
        prop_assert_eq!(rm.edges().len(), m.edges().len());
        let b = Boundary3::detect(&m);
        let rb = Boundary3::detect(&rm);
        prop_assert_eq!(b.num_boundary(), rb.num_boundary());
        prop_assert_eq!(b.num_boundary_faces(), rb.num_boundary_faces());
    }

    #[test]
    fn qualities_are_in_unit_interval(m in small_mesh()) {
        let adj = Adjacency3::build(&m);
        for metric in [
            TetQualityMetric::EdgeLengthRatio,
            TetQualityMetric::RadiusRatio,
            TetQualityMetric::MeanRatio,
        ] {
            for q in vertex_qualities(&m, &adj, metric) {
                prop_assert!((0.0..=1.0).contains(&q), "{}: {q}", metric.name());
            }
        }
    }

    #[test]
    fn smoothing_never_moves_boundary_and_never_decreases_quality_much(m in small_mesh()) {
        let mut sm = m.clone();
        let report = SmoothEngine3::new(&sm, SmoothParams3::paper().with_max_iters(20)).smooth(&mut sm);
        let b = Boundary3::detect(&m);
        for &v in &b.boundary_vertices() {
            prop_assert_eq!(sm.coords()[v as usize], m.coords()[v as usize]);
        }
        // plain Laplacian can dip transiently but the run must not end much
        // below where it started on these convex grids
        prop_assert!(report.final_quality > report.initial_quality - 0.02);
    }

    /// The 3D serial engine's incremental kernel against its reference
    /// sweep — bit-equal coordinates, equal sweep counts, `final_quality`
    /// bit-equal to a from-scratch `mesh_quality` — over GS/Jacobi ×
    /// smart/plain × both scoring paths, the same check as `lms-smooth`'s
    /// `incremental_matches_full_recompute`.
    #[test]
    fn incremental3_matches_full_recompute(
        m in small_mesh(), smart in any::<bool>(), jacobi in any::<bool>(),
        scalar_scoring in any::<bool>(), iters in 1usize..6,
    ) {
        let update = if jacobi { UpdateScheme3::Jacobi } else { UpdateScheme3::GaussSeidel };
        let params = SmoothParams3::paper()
            .with_smart(smart)
            .with_update(update)
            .with_scalar_scoring(scalar_scoring)
            .with_max_iters(iters)
            .with_tol(-1.0);
        let metric = params.metric;
        checks::incremental_matches_full_recompute(&m, params, |m: &TetMesh| {
            mesh_quality(m, &Adjacency3::build(m), metric)
        });
    }

    #[test]
    fn scramble_then_rdr_beats_random_locality(
        (nx, seed) in (4usize..=7, 0u64..500)
    ) {
        let m = block_scramble(perturbed_tet_grid(nx, nx, nx, 0.35, seed), 32, seed);
        let span = |mesh: &TetMesh| mean_neighbor_span3(&Adjacency3::build(mesh));
        let rdr_perm = compute_ordering3(&m, OrderingKind3::Rdr);
        let rdr = span(&apply_permutation3(&rdr_perm, &m));
        let rnd_perm = compute_ordering3(&m, OrderingKind3::Random { seed });
        let rnd = span(&apply_permutation3(&rnd_perm, &m));
        // the walk must land far from the random regime on every input
        prop_assert!(rdr < rnd * 0.75, "rdr span {rdr} too close to random {rnd}");
    }
}

#[test]
fn kuhn_grid_volume_is_exact_for_many_sizes() {
    for (nx, ny, nz) in [(1, 1, 1), (2, 3, 4), (5, 2, 2), (3, 3, 3)] {
        let m = tet_grid(nx, ny, nz);
        assert!((m.total_volume() - 1.0).abs() < 1e-12, "{nx}x{ny}x{nz}");
        assert_eq!(m.num_tets(), 6 * nx * ny * nz);
    }
}
