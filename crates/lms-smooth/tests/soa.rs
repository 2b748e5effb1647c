//! The lane-batched scoring acceptance suite — the bit-identity gate of
//! the batched kernels, which gather corners from the point slice:
//!
//! * `score_star` equals the per-element `score` per id, bit for bit,
//!   for every 2D `QualityMetric` over id lists of every block-tail length
//!   — repeated, descending, ending on the last row of the corner table
//!   (each lane runs the identical scalar IEEE op sequence, so this is
//!   equality of `to_bits`, not approximate);
//! * full resident runs with the default lane-batched kernel are
//!   bit-identical — coordinates AND reports — to the forced per-element
//!   scalar path (`with_scalar_scoring(true)`) across threads {1, 2, 4}
//!   × parts {2, 4, 8} × smart/plain, and so are serial engine runs —
//!   also on a mesh whose stars have 1, 2, 3, 5 and 7
//!   triangles, so every short last block is swept, and on one with
//!   stars of 17..=254 and of more than 255 triangles.

mod common;

use lms_mesh::quality::QualityMetric;
use lms_mesh::{generators, Adjacency, Boundary, TriMesh};
use lms_smooth::domain::{DomainConfig, TriDomain};
use lms_smooth::kernel::SerialKernel;
use lms_smooth::{checks, SmoothParams, UpdateScheme};
use proptest::prelude::*;

const METRICS: [QualityMetric; 3] =
    [QualityMetric::EdgeLengthRatio, QualityMetric::MinAngle, QualityMetric::RadiusRatio];

#[test]
fn score_star_matches_scalar_per_id_for_every_metric() {
    // ragged sizes so the whole-table list leaves every tail length
    for (nx, ny, seed) in [(9, 7, 1), (12, 12, 5), (10, 13, 9)] {
        let mesh = generators::perturbed_grid(nx, ny, 0.4, seed);
        let adj = Adjacency::build(&mesh);
        let boundary = Boundary::detect(&mesh);
        for metric in METRICS {
            let dom = TriDomain::new(&adj, &boundary, mesh.triangles(), metric);
            checks::score_star_equals_per_id(&dom, mesh.coords(), metric);
        }
    }
}

/// A perturbed grid (randomised diagonals: interior stars of 4..=8, hull
/// stars of 1..=4) with two triangles split at their centroids, which adds
/// interior stars of 3.
fn ragged_mesh(seed: u64) -> TriMesh {
    let (mut coords, mut tris) = generators::perturbed_grid(9, 9, 0.3, seed).into_parts();
    for t in [40, 77] {
        let [a, b, c] = tris[t];
        let p = coords.len() as u32;
        let [pa, pb, pc] = [a, b, c].map(|v| coords[v as usize]);
        coords.push((pa + pb + pc) / 3.0);
        tris[t] = [a, b, p];
        tris.extend([[b, c, p], [c, a, p]]);
    }
    TriMesh::new(coords, tris).expect("split keeps the mesh valid")
}

/// Default scoring == `scalar_scoring` on every engine — coordinates and
/// reports. The ragged meshes hold stars of 1, 2, 3, 5 and 7 triangles
/// (among others): serial Gauss–Seidel and Jacobi, partitioned and
/// resident sweep the interior stars (3..=8); the serial kernel run over
/// *all* vertices adds the hull's 1 and 2. The hub mesh adds stars of
/// 17..=254 and of more than 255 triangles.
#[test]
fn ragged_stars_batched_equals_scalar_on_every_engine() {
    for seed in [1u64, 6] {
        let mesh = ragged_mesh(seed);
        let adj = Adjacency::build(&mesh);
        let boundary = Boundary::detect(&mesh);
        let star = |v: u32| adj.triangles_of(v).len();
        let all: Vec<u32> = (0..mesh.num_vertices() as u32).collect();
        for k in [3, 5, 7] {
            assert!(all.iter().any(|&v| boundary.is_interior(v) && star(v) == k), "no {k}-star");
        }
        for k in [1, 2] {
            assert!(all.iter().any(|&v| star(v) == k), "no {k}-star");
        }
        batched_equals_scalar_on_every_engine(&mesh, &format!("seed {seed}"));
    }
    batched_equals_scalar_on_every_engine(&common::hub_mesh(), "hub mesh");
}

fn batched_equals_scalar_on_every_engine(mesh: &TriMesh, label: &str) {
    let adj = Adjacency::build(mesh);
    let boundary = Boundary::detect(mesh);
    let all: Vec<u32> = (0..mesh.num_vertices() as u32).collect();
    for update in [UpdateScheme::GaussSeidel, UpdateScheme::Jacobi] {
        let params = SmoothParams::paper()
            .with_smart(true)
            .with_update(update)
            .with_max_iters(4)
            .with_tol(-1.0);
        let scalar = params.clone().with_scalar_scoring(true);
        checks::serial_batched_equals_scalar(mesh, params.clone(), scalar.clone());

        let dom = TriDomain::new(&adj, &boundary, mesh.triangles(), params.metric);
        let run = |p: &SmoothParams| {
            let mut coords = mesh.coords().to_vec();
            let kernel = SerialKernel { dom: &dom, cfg: DomainConfig::from(p), visit: &all };
            let report = kernel.run(&mut coords);
            (coords, report)
        };
        assert_eq!(run(&params), run(&scalar), "all-vertex kernel {update:?}, {label}");
    }

    let params = SmoothParams::paper().with_smart(true).with_max_iters(4).with_tol(-1.0);
    let scalar = params.clone().with_scalar_scoring(true);
    checks::resident_batched_equals_scalar(mesh, params, scalar, 3, 2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Resident runs: lane-batched scoring == forced scalar scoring, bit
    /// for bit (coords and reports), across the acceptance grid.
    #[test]
    fn resident_batched_equals_scalar_oracle(
        nx in 6usize..11, ny in 6usize..11, seed in 0u64..1000,
        smart in any::<bool>(), k_ix in 0usize..3, threads_ix in 0usize..3,
    ) {
        let parts = [2usize, 4, 8][k_ix];
        let threads = [1usize, 2, 4][threads_ix];
        let mesh = generators::perturbed_grid(nx, ny, 0.35, seed);
        let params = SmoothParams::paper().with_smart(smart).with_max_iters(3).with_tol(-1.0);
        let scalar = params.clone().with_scalar_scoring(true);
        checks::resident_batched_equals_scalar(&mesh, params, scalar, parts, threads);
    }

    /// The serial engine under the same toggle: the batched kernel must
    /// not change a single bit anywhere in the engine ladder.
    #[test]
    fn serial_batched_equals_scalar(
        nx in 6usize..11, ny in 6usize..11, seed in 0u64..1000, smart in any::<bool>(),
    ) {
        let mesh = generators::perturbed_grid(nx, ny, 0.35, seed);
        let params = SmoothParams::paper().with_smart(smart).with_max_iters(3).with_tol(-1.0);
        let scalar = params.clone().with_scalar_scoring(true);
        checks::serial_batched_equals_scalar(&mesh, params, scalar);
    }
}
