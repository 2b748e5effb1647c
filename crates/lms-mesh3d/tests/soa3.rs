//! 3D half of the lane-batched bit-identity gate: `score_star` on
//! `TetDomain` equals the per-element scalar `score` per id, bit for bit,
//! for every `TetQualityMetric` and every block-tail length, and full 3D
//! runs with the default lane-batched kernel match the forced
//! per-element scalar path (`SmoothParams3::with_scalar_scoring(true)`)
//! exactly — coordinates and reports — across threads and part counts,
//! also on a mesh with
//! stars above the serial kernel's stack scratch that are not a whole
//! number of lane blocks.

use lms_mesh3d::{
    Adjacency3, Boundary3, SmoothParams3, TetDomain, TetMesh, TetQualityMetric, UpdateScheme3,
};
use lms_smooth::checks;
use proptest::prelude::*;

const METRICS: [TetQualityMetric; 3] =
    [TetQualityMetric::EdgeLengthRatio, TetQualityMetric::RadiusRatio, TetQualityMetric::MeanRatio];

#[test]
fn score_star_matches_scalar_per_id_for_every_tet_metric() {
    // ragged sizes: tet counts exercise every 4-lane tail length
    for (nx, ny, nz, seed) in [(4, 5, 4, 1), (6, 4, 5, 5), (5, 5, 5, 9)] {
        let mesh = lms_mesh3d::generators::perturbed_tet_grid(nx, ny, nz, 0.3, seed);
        let adj = Adjacency3::build(&mesh);
        let boundary = Boundary3::detect(&mesh);
        for metric in METRICS {
            let dom = TetDomain::new(&adj, &boundary, mesh.tets(), metric);
            checks::score_star_equals_per_id(&dom, mesh.coords(), metric);
        }
    }
}

/// A perturbed Kuhn grid (every interior star has 24 tets) with two tets
/// split at their centroids: the split tets' corners end up in 26 tets —
/// above the serial kernel's 16 stack slots and two past a whole number of
/// lane blocks — and the new vertices in 4.
fn ragged_mesh(seed: u64) -> TetMesh {
    let (mut coords, mut tets) =
        lms_mesh3d::generators::perturbed_tet_grid(5, 5, 5, 0.25, seed).into_parts();
    for t in [150, 201] {
        let [a, b, c, d] = tets[t];
        let p = coords.len() as u32;
        let [pa, pb, pc, pd] = [a, b, c, d].map(|v| coords[v as usize]);
        coords.push((pa + pb + pc + pd) / 4.0);
        // replace each corner in turn by the centroid: orientation kept
        tets[t] = [p, b, c, d];
        tets.extend([[a, p, c, d], [a, b, p, d], [a, b, c, p]]);
    }
    TetMesh::new(coords, tets).expect("split keeps the mesh valid")
}

/// Default scoring == `scalar_scoring`, coordinates and reports, on the
/// 26-tet stars of [`ragged_mesh`]: the serial engine (Gauss–Seidel and
/// Jacobi) and resident.
#[test]
fn ragged_stars_batched_equals_scalar_on_every_engine3() {
    for seed in [2u64, 11] {
        let mesh = ragged_mesh(seed);
        let adj = Adjacency3::build(&mesh);
        let boundary = Boundary3::detect(&mesh);
        assert!(
            boundary
                .interior_vertices()
                .iter()
                .map(|&v| adj.tets_of(v).len())
                .any(|k| k > 16 && !k.is_multiple_of(4)),
            "no interior star above 16 that is not a multiple of 4"
        );
        let params = SmoothParams3::paper().with_smart(true).with_max_iters(3).with_tol(-1.0);
        let scalar = params.clone().with_scalar_scoring(true);
        for update in [UpdateScheme3::GaussSeidel, UpdateScheme3::Jacobi] {
            let (p, s) = (params.clone().with_update(update), scalar.clone().with_update(update));
            checks::serial_batched_equals_scalar(&mesh, p, s);
        }
        checks::resident_batched_equals_scalar(&mesh, params, scalar, 3, 2);
    }
}

/// Every tet weight formed from the per-vertex inverse degrees equals the
/// per-element table the weights were once stored as, bit for bit, on a
/// Kuhn grid and on [`ragged_mesh`]'s split cells — meshes whose tets
/// hold corner sums that change bits when reordered, so a reordered sum
/// fails here.
#[test]
fn formed_weights_equal_the_element_weight_oracle3() {
    let grid = lms_mesh3d::generators::perturbed_tet_grid(5, 4, 6, 0.25, 3);
    for mesh in [grid, ragged_mesh(2), ragged_mesh(11)] {
        let adj = Adjacency3::build(&mesh);
        let boundary = Boundary3::detect(&mesh);
        let dom = TetDomain::new(&adj, &boundary, mesh.tets(), TetQualityMetric::EdgeLengthRatio);
        let order_sensitive = checks::formed_weights_equal_the_oracle(&dom);
        assert!(order_sensitive > 0, "no tet whose corner sum depends on the order");
    }
}

/// The element-order scatter of `domain_quality` equals the CSR
/// reduction it replaced, bit for bit, on a Kuhn grid and on
/// [`ragged_mesh`]'s split cells.
#[test]
fn scatter_quality_equals_the_csr_oracle3() {
    let grid = lms_mesh3d::generators::perturbed_tet_grid(5, 4, 6, 0.3, 8);
    for mesh in [grid, ragged_mesh(2), ragged_mesh(11)] {
        let adj = Adjacency3::build(&mesh);
        let boundary = Boundary3::detect(&mesh);
        let dom = TetDomain::new(&adj, &boundary, mesh.tets(), TetQualityMetric::EdgeLengthRatio);
        checks::domain_quality_equals_the_csr_oracle(&dom, mesh.coords());
    }
}

fn arb_mesh() -> impl Strategy<Value = TetMesh> {
    (4usize..7, 4usize..7, 4usize..7, 0u64..1000).prop_map(|(nx, ny, nz, seed)| {
        lms_mesh3d::generators::perturbed_tet_grid(nx, ny, nz, 0.3, seed)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// 3D resident runs: lane-batched scoring == forced scalar scoring,
    /// bit for bit, across threads {1, 2, 4} × parts {2, 4, 8} ×
    /// smart/plain.
    #[test]
    fn resident3_batched_equals_scalar_oracle(
        mesh in arb_mesh(), smart in any::<bool>(),
        k_ix in 0usize..3, threads_ix in 0usize..3,
    ) {
        let parts = [2usize, 4, 8][k_ix];
        let threads = [1usize, 2, 4][threads_ix];
        let params = SmoothParams3::paper().with_smart(smart).with_max_iters(2).with_tol(-1.0);
        let scalar = params.clone().with_scalar_scoring(true);
        checks::resident_batched_equals_scalar(&mesh, params, scalar, parts, threads);
    }

    /// The serial 3D engine under the same toggle.
    #[test]
    fn serial3_batched_equals_scalar(mesh in arb_mesh(), smart in any::<bool>()) {
        let params = SmoothParams3::paper().with_smart(smart).with_max_iters(2).with_tol(-1.0);
        let scalar = params.clone().with_scalar_scoring(true);
        checks::serial_batched_equals_scalar(&mesh, params, scalar);
    }
}
