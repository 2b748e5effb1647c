//! 3D half of the SoA bit-identity gate: `score_star` on `TetDomain`
//! equals the per-element scalar `score_soa` per id, bit for bit, for
//! every `TetQualityMetric` and every block-tail length, and full 3D runs
//! with the default lane-batched kernel match the forced pre-SoA scalar
//! path (`SmoothParams3::with_scalar_scoring(true)`) exactly — coordinates
//! and reports — across threads and part counts, also on a mesh with
//! stars above the serial kernel's stack scratch that are not a whole
//! number of lane blocks.

use lms_mesh3d::{
    Adjacency3, Boundary3, ResidentEngine3, SmoothEngine3, SmoothParams3, TetDomain, TetMesh,
    TetQualityMetric, UpdateScheme3,
};
use lms_part::PartitionMethod;
use lms_smooth::domain::SmoothDomain;
use lms_smooth::kernel::SerialKernel;
use lms_smooth::{SoaCoords, SoaLike};
use proptest::prelude::*;

const METRICS: [TetQualityMetric; 3] =
    [TetQualityMetric::EdgeLengthRatio, TetQualityMetric::RadiusRatio, TetQualityMetric::MeanRatio];

/// The id lists of `lms-smooth/tests/soa.rs`: lengths 0..=9, 24 and 25,
/// each ascending up to the last row of an `n`-row corner table,
/// descending from it, and cycling over three ids.
fn id_lists(n: u32) -> Vec<Vec<u32>> {
    let mut lists = Vec::new();
    for len in (0..=9).chain([24, 25]) {
        lists.push((n - len..n).collect());
        lists.push((n - len..n).rev().collect());
        lists.push((0..len).map(|i| [n - 1, 0, n / 2][i as usize % 3]).collect());
    }
    lists
}

/// `score_star` == one `score_soa` per id on every list of [`id_lists`]
/// plus the whole table in order; the corner table is cut three rows
/// short of the mesh's, so reading past the last id given would panic.
fn star_equals_per_id_on(mesh: &TetMesh, metric: TetQualityMetric) {
    let adj = Adjacency3::build(mesh);
    let boundary = Boundary3::detect(mesh);
    let dom = TetDomain::new(&adj, &boundary, mesh.tets(), metric);
    let mut soa = SoaCoords::<3>::with_len(mesh.num_vertices());
    soa.gather_from(mesh.coords());
    let corners = &dom.elements()[..dom.num_elements() - 3];
    let n = corners.len() as u32;
    for ids in id_lists(n).into_iter().chain([(0..n).collect()]) {
        let mut out = vec![(f64::NAN, false); ids.len()];
        dom.score_star(&soa, corners, &ids, &mut out);
        for (i, &t) in ids.iter().enumerate() {
            let (q, pos) = dom.score_soa(&soa, corners[t as usize]);
            assert_eq!(q.to_bits(), out[i].0.to_bits(), "{metric:?}, ids {ids:?}, slot {i}");
            assert_eq!(pos, out[i].1, "{metric:?}, ids {ids:?}, slot {i}");
            let (qp, pp) = dom.score(mesh.coords(), corners[t as usize]);
            assert_eq!((q.to_bits(), pos), (qp.to_bits(), pp));
        }
    }
}

#[test]
fn score_star_matches_scalar_per_id_for_every_tet_metric() {
    // ragged sizes: tet counts exercise every 4-lane tail length
    for (nx, ny, nz, seed) in [(4, 5, 4, 1), (6, 4, 5, 5), (5, 5, 5, 9)] {
        let mesh = lms_mesh3d::generators::perturbed_tet_grid(nx, ny, nz, 0.3, seed);
        for metric in METRICS {
            star_equals_per_id_on(&mesh, metric);
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
/// 26-tet stars of [`ragged_mesh`]: the serial kernel (Gauss–Seidel and
/// Jacobi — `SmoothEngine3::smooth` runs the reference path, so the
/// kernel is driven directly) and resident.
#[test]
fn ragged_stars_batched_equals_scalar_on_every_engine3() {
    for seed in [2u64, 11] {
        let mesh = ragged_mesh(seed);
        let adj = Adjacency3::build(&mesh);
        let boundary = Boundary3::detect(&mesh);
        let visit = boundary.interior_vertices();
        assert!(
            visit.iter().map(|&v| adj.tets_of(v).len()).any(|k| k > 16 && !k.is_multiple_of(4)),
            "no interior star above 16 that is not a multiple of 4"
        );
        let params = SmoothParams3::paper().with_smart(true).with_max_iters(3).with_tol(-1.0);
        let dom = TetDomain::new(&adj, &boundary, mesh.tets(), params.metric);
        for update in [UpdateScheme3::GaussSeidel, UpdateScheme3::Jacobi] {
            let run = |scalar_scoring: bool| {
                let mut coords = mesh.coords().to_vec();
                let kernel = SerialKernel {
                    dom: &dom,
                    cfg: params.clone().with_update(update).domain_config(),
                    visit: &visit,
                    star: None,
                    scalar_scoring,
                };
                let report = kernel.run(&mut coords);
                (coords, report)
            };
            assert_eq!(run(false), run(true), "serial kernel {update:?}, seed {seed}");
        }

        let scalar = params.clone().with_scalar_scoring(true);
        let run = |p: &SmoothParams3| {
            let mut m = mesh.clone();
            let report = ResidentEngine3::by_method(&mesh, p.clone(), 3, PartitionMethod::Rcb)
                .smooth(&mut m, 2);
            (m, report)
        };
        assert_eq!(run(&params), run(&scalar), "resident, seed {seed}");
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
        let batched = ResidentEngine3::by_method(&mesh, params.clone(), parts, PartitionMethod::Rcb);
        let scalar = ResidentEngine3::by_method(
            &mesh, params.with_scalar_scoring(true), parts, PartitionMethod::Rcb,
        );
        let mut a = mesh.clone();
        let ra = batched.smooth(&mut a, threads);
        let mut b = mesh.clone();
        let rb = scalar.smooth(&mut b, threads);
        prop_assert_eq!(a.coords(), b.coords());
        prop_assert_eq!(ra, rb);
    }

    /// The serial 3D engine under the same toggle.
    #[test]
    fn serial3_batched_equals_scalar(mesh in arb_mesh(), smart in any::<bool>()) {
        let params = SmoothParams3::paper().with_smart(smart).with_max_iters(2).with_tol(-1.0);
        let mut a = mesh.clone();
        let ra = SmoothEngine3::new(&mesh, params.clone()).smooth(&mut a);
        let mut b = mesh.clone();
        let rb = SmoothEngine3::new(&mesh, params.with_scalar_scoring(true)).smooth(&mut b);
        prop_assert_eq!(a.coords(), b.coords());
        prop_assert_eq!(ra, rb);
    }
}
