//! Cross-crate property-based tests (proptest): structural invariants that
//! must hold for *any* mesh, ordering, or access trace.

use lms::cache::{ReuseDistanceAnalyzer, COLD};
use lms::mesh::quality::{mesh_quality, QualityMetric};
use lms::mesh::{generators, Adjacency, Boundary, TriMesh};
use lms::order::{compute_ordering, OrderingKind, Permutation};
use lms::prelude::*;
use proptest::prelude::*;

/// Strategy: a valid perturbed-grid mesh of arbitrary small shape.
fn arb_mesh() -> impl Strategy<Value = TriMesh> {
    (3usize..12, 3usize..12, 0u64..1000, 0..35u32).prop_map(|(nx, ny, seed, jit)| {
        generators::perturbed_grid(nx, ny, jit as f64 / 100.0, seed)
    })
}

/// Strategy: any ordering kind.
fn arb_kind() -> impl Strategy<Value = OrderingKind> {
    prop_oneof![
        Just(OrderingKind::Original),
        any::<u64>().prop_map(|seed| OrderingKind::Random { seed }),
        Just(OrderingKind::Bfs),
        Just(OrderingKind::Dfs),
        Just(OrderingKind::Rcm),
        Just(OrderingKind::Hilbert),
        Just(OrderingKind::Rdr),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every ordering of every mesh is a bijection (Theorem 1 for RDR).
    #[test]
    fn orderings_are_bijections(mesh in arb_mesh(), kind in arb_kind()) {
        let p = compute_ordering(&mesh, kind);
        prop_assert_eq!(p.len(), mesh.num_vertices());
        let mut seen = p.new_to_old().to_vec();
        seen.sort_unstable();
        for (i, v) in seen.into_iter().enumerate() {
            prop_assert_eq!(v as usize, i);
        }
    }

    /// Applying a permutation then its inverse restores the mesh: the
    /// coordinates bit for bit, the triangles as a multiset (renumbering
    /// moves elements into first-touch order), and that element order is a
    /// fixed point of the identity.
    #[test]
    fn permutation_inverse_roundtrip(mesh in arb_mesh(), kind in arb_kind()) {
        let p = compute_ordering(&mesh, kind);
        let there = p.apply_to_mesh(&mesh);
        let back = p.inverse().apply_to_mesh(&there);
        prop_assert_eq!(back.coords(), mesh.coords());
        let multiset = |m: &TriMesh| {
            let mut tris = m.triangles().to_vec();
            tris.sort_unstable();
            tris
        };
        prop_assert_eq!(multiset(&back), multiset(&mesh));
        prop_assert_eq!(Permutation::identity(mesh.num_vertices()).apply_to_mesh(&back), back);
    }

    /// Renumbering never changes geometric invariants: total area, edge
    /// count, Euler characteristic, global quality.
    #[test]
    fn renumbering_preserves_geometry(mesh in arb_mesh(), kind in arb_kind()) {
        let rm = compute_ordering(&mesh, kind).apply_to_mesh(&mesh);
        prop_assert!((rm.total_area() - mesh.total_area()).abs() < 1e-9);
        prop_assert_eq!(rm.edges().len(), mesh.edges().len());
        prop_assert_eq!(rm.euler_characteristic(), mesh.euler_characteristic());
        let qa = mesh_quality(&mesh, &Adjacency::build(&mesh), QualityMetric::EdgeLengthRatio);
        let qb = mesh_quality(&rm, &Adjacency::build(&rm), QualityMetric::EdgeLengthRatio);
        prop_assert!((qa - qb).abs() < 1e-9);
    }

    /// Control-loop invariants of the smoother: the reported final quality
    /// matches the output mesh; every iteration before the last improved by
    /// at least `tol` (that is what kept the loop running); and the
    /// boundary never moves. (Plain Laplacian smoothing does NOT guarantee
    /// monotone improvement on adversarial meshes — that is why "smart"
    /// variants exist — so monotonicity is deliberately not asserted.)
    #[test]
    fn smoothing_loop_invariants(mesh in arb_mesh()) {
        let boundary = Boundary::detect(&mesh);
        let params = SmoothParams::paper().with_max_iters(20);
        let mut work = mesh.clone();
        let report = smooth(&mut work, params.clone(), Backend::Serial);
        let adj = Adjacency::build(&work);
        let recomputed = mesh_quality(&work, &adj, QualityMetric::EdgeLengthRatio);
        prop_assert!((report.final_quality - recomputed).abs() < 1e-12);
        for w in report.iterations.windows(2) {
            prop_assert!(
                w[0].improvement >= params.tol,
                "loop continued after sub-tolerance improvement {}",
                w[0].improvement
            );
        }
        for v in boundary.boundary_vertices() {
            prop_assert_eq!(work.coords()[v as usize], mesh.coords()[v as usize]);
        }
    }

    /// Element-level reuse distances are invariant under renaming of the
    /// elements (the identity that separates iteration order from layout).
    #[test]
    fn reuse_distance_is_rename_invariant(
        trace in proptest::collection::vec(0u32..12, 1..200),
        perm_seed in 0u64..100,
    ) {
        let n = 12usize;
        let renames = lms::order::random_ordering(n, perm_seed);
        let pos = renames.old_to_new();
        let renamed: Vec<u32> = trace.iter().map(|&e| pos[e as usize]).collect();
        let a = ReuseDistanceAnalyzer::analyze(&trace, n);
        let b = ReuseDistanceAnalyzer::analyze(&renamed, n);
        prop_assert_eq!(a, b);
    }

    /// A fully-associative single-level LRU simulator agrees exactly with
    /// the stack-distance model: an access misses iff its reuse distance
    /// (in cache lines) is at least the capacity, or it is cold.
    #[test]
    fn lru_simulator_matches_stack_distance_model(
        trace in proptest::collection::vec(0u32..64, 1..300),
        capacity_lines in 1usize..32,
    ) {
        use lms::cache::{CacheConfig, CacheLevel};
        let mut cache = CacheLevel::new(CacheConfig {
            name: "FA",
            size_bytes: 64 * capacity_lines,
            line_bytes: 64,
            associativity: capacity_lines, // fully associative
            latency_cycles: 1,
        });
        // one line per element: line address = element id
        let distances = ReuseDistanceAnalyzer::analyze(&trace, 64);
        for (&e, &d) in trace.iter().zip(&distances) {
            let hit = cache.access_line(e as u64);
            let model_hit = d != COLD && (d as usize) < capacity_lines;
            prop_assert_eq!(
                hit, model_hit,
                "element {} with distance {} under capacity {}",
                e, d, capacity_lines
            );
        }
    }

    /// Jacobi smoothing is schedule-independent: any thread count yields
    /// bit-identical coordinates.
    #[test]
    fn jacobi_parallel_determinism(mesh in arb_mesh(), threads in 1usize..5) {
        let params = SmoothParams::paper()
            .with_update(lms::smooth::UpdateScheme::Jacobi)
            .with_max_iters(3);
        let engine = SmoothEngine::new(&mesh, params);
        let mut a = mesh.clone();
        engine.smooth_parallel(&mut a, 1);
        let mut b = mesh.clone();
        engine.smooth_parallel(&mut b, threads);
        prop_assert_eq!(a.coords(), b.coords());
    }

    /// Quality metrics stay within [0, 1] on arbitrary (even degenerate)
    /// triangles.
    #[test]
    fn quality_metrics_bounded(
        ax in -10.0..10.0f64, ay in -10.0..10.0f64,
        bx in -10.0..10.0f64, by in -10.0..10.0f64,
        cx in -10.0..10.0f64, cy in -10.0..10.0f64,
    ) {
        use lms::mesh::Point2;
        let (a, b, c) = (Point2::new(ax, ay), Point2::new(bx, by), Point2::new(cx, cy));
        for m in [QualityMetric::EdgeLengthRatio, QualityMetric::MinAngle, QualityMetric::RadiusRatio] {
            let q = m.triangle_quality(a, b, c);
            prop_assert!((0.0..=1.0).contains(&q), "{:?} gave {}", m, q);
        }
    }

    /// Permutation composition is associative and the identity is neutral.
    #[test]
    fn permutation_algebra(seed1 in 0u64..50, seed2 in 0u64..50, n in 1usize..40) {
        let p = lms::order::random_ordering(n, seed1);
        let q = lms::order::random_ordering(n, seed2);
        let id = Permutation::identity(n);
        prop_assert_eq!(p.compose(&id).unwrap(), p.clone());
        prop_assert_eq!(id.compose(&p).unwrap(), p.clone());
        let values: Vec<u32> = (0..n as u32).map(|x| x * 7 + 1).collect();
        let composed = q.compose(&p).unwrap().apply_to_values(&values).unwrap();
        let stepwise = q.apply_to_values(&p.apply_to_values(&values).unwrap()).unwrap();
        prop_assert_eq!(composed, stepwise);
    }
}
