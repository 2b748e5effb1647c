//! Property tests for the incremental-quality hot path: bitwise
//! equivalence with the full-recompute reference engine, and
//! `DomainQualityCache` coherence across randomized vertex moves.

use lms_mesh::geometry::signed_area;
use lms_mesh::quality::mesh_quality;
use lms_mesh::{Adjacency, Boundary, TriMesh};
use lms_smooth::checks;
use lms_smooth::{
    DomainQualityCache, SmoothDomain, SmoothEngine, SmoothParams, TriDomain, UpdateScheme,
};
use proptest::prelude::*;

fn arb_mesh() -> impl Strategy<Value = TriMesh> {
    (4usize..14, 4usize..14, 0u64..1000, 0..40u32).prop_map(|(nx, ny, seed, jit)| {
        lms_mesh::generators::perturbed_grid(nx, ny, jit as f64 / 100.0, seed)
    })
}

fn arb_params() -> impl Strategy<Value = SmoothParams> {
    (any::<bool>(), any::<bool>(), any::<bool>(), 1usize..8).prop_map(
        |(smart, jacobi, scalar_scoring, iters)| {
            let update = if jacobi { UpdateScheme::Jacobi } else { UpdateScheme::GaussSeidel };
            // tol disabled: the incremental path's convergence test reads the
            // compensated running sum, which can in principle differ from the
            // reference's exact per-iteration quality by ulps right at the
            // tolerance boundary and stop one sweep apart. With a fixed sweep
            // count the two paths must agree bit for bit.
            SmoothParams::paper()
                .with_smart(smart)
                .with_update(update)
                .with_scalar_scoring(scalar_scoring)
                .with_max_iters(iters)
                .with_tol(-1.0)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The incremental path produces bit-identical coordinates to the
    /// full-recompute reference for every update scheme × smart flag ×
    /// scoring path, and its reported final quality matches a
    /// from-scratch recompute bit for bit (the 3D instance of the same
    /// check is `lms-mesh3d`'s `tests/props.rs`).
    #[test]
    fn incremental_matches_full_recompute(mesh in arb_mesh(), params in arb_params()) {
        let metric = params.metric;
        checks::incremental_matches_full_recompute(&mesh, params, |m: &TriMesh| {
            mesh_quality(m, &Adjacency::build(m), metric)
        });
    }

    /// The quality cache stays bit-identical to a from-scratch recompute
    /// across a randomized sequence of vertex moves with mixed immediate
    /// (star) / dirty-flush updates.
    #[test]
    fn quality_cache_coherent_under_random_moves(
        mesh in arb_mesh(),
        moves in proptest::collection::vec((0u64..1 << 32, -20i64..21, -20i64..21, any::<bool>()), 1..60),
    ) {
        let mut mesh = mesh;
        let adj = Adjacency::build(&mesh);
        let boundary = Boundary::from_adjacency(&adj);
        let metric = lms_mesh::quality::QualityMetric::EdgeLengthRatio;
        let triangles: Vec<[u32; 3]> = mesh.triangles().to_vec();
        let dom = TriDomain::new(&adj, &boundary, &triangles, metric);
        let mut cache = DomainQualityCache::build(&dom, mesh.coords());
        let n = mesh.num_vertices();

        for (pick, dx, dy, immediate) in moves {
            let v = (pick % n as u64) as u32;
            let p = mesh.coords()[v as usize];
            mesh.coords_mut()[v as usize] =
                lms_mesh::Point2::new(p.x + dx as f64 / 97.0, p.y + dy as f64 / 89.0);
            let star = adj.triangles_of(v);
            if immediate {
                let scores: Vec<(f64, bool)> =
                    star.iter().map(|&t| dom.score(mesh.coords(), triangles[t as usize])).collect();
                cache.set_star(star, &scores);
            } else {
                for &t in star {
                    cache.mark_dirty(t);
                }
            }
        }
        if cache.has_dirty() {
            cache.flush_dirty(&dom, mesh.coords());
        }

        let fresh = mesh_quality(&mesh, &adj, metric);
        prop_assert_eq!(
            cache.quality_exact(&dom).to_bits(), fresh.to_bits(),
            "exact cache quality diverged from scratch recompute"
        );
        prop_assert!(
            (cache.quality_running() - fresh).abs() < 1e-12,
            "running sum drifted: {} vs {}", cache.quality_running(), fresh
        );

        // per-triangle values are exactly the fresh scores
        for (t, tri) in triangles.iter().enumerate() {
            let [a, b, c] = tri.map(|c| mesh.coords()[c as usize]);
            let q = metric.triangle_quality(a, b, c);
            prop_assert_eq!(cache.elem_quality(t as u32).to_bits(), q.to_bits());
            prop_assert_eq!(cache.elem_is_positive(t as u32), signed_area(a, b, c) > 0.0);
        }
    }

    /// Smart smoothing through the incremental path never regresses the
    /// reported quality (the guard property, now evaluated from the cache).
    /// Restricted to untangled inputs: the guard compares orientation-aware
    /// local means, while the global statistic is orientation-blind, so on
    /// folded meshes monotonicity is not guaranteed by either path.
    #[test]
    fn incremental_smart_is_monotone(
        (nx, ny, seed, jit) in (4usize..14, 4usize..14, 0u64..1000, 0..23u32),
    ) {
        let mesh = lms_mesh::generators::perturbed_grid(nx, ny, jit as f64 / 100.0, seed);
        prop_assume!(mesh.is_ccw());
        let params = SmoothParams::paper().with_smart(true).with_max_iters(12);
        let mut m = mesh;
        let report = SmoothEngine::new(&m, params).smooth(&mut m);
        for w in report.iterations.windows(2) {
            prop_assert!(
                w[1].quality >= w[0].quality - 1e-12,
                "smart smoothing regressed: {:?}", report.iterations
            );
        }
    }
}
