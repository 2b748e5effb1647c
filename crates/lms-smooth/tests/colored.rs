//! Property tests for the colored deterministic parallel Gauss–Seidel
//! engine: bitwise determinism across thread counts, exact equivalence
//! with serial Gauss–Seidel under the class-major order, proper colorings
//! on the generator suite, and fixed-point agreement with storage-order
//! Gauss–Seidel.

use lms_mesh::{Adjacency, TriMesh};
use lms_order::coloring::greedy_coloring;
use lms_smooth::{checks, SmoothEngine, SmoothParams};
use proptest::prelude::*;

fn arb_mesh() -> impl Strategy<Value = TriMesh> {
    (4usize..14, 4usize..14, 0u64..1000, 0..40u32).prop_map(|(nx, ny, seed, jit)| {
        lms_mesh::generators::perturbed_grid(nx, ny, jit as f64 / 100.0, seed)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Bitwise determinism: 1, 2 and 8 threads produce identical
    /// coordinates and identical reports, smart and plain alike.
    #[test]
    fn colored_is_bitwise_deterministic_across_threads(
        mesh in arb_mesh(), smart in any::<bool>(), iters in 1usize..6,
    ) {
        let params = SmoothParams::paper().with_smart(smart).with_max_iters(iters);
        checks::colored_is_deterministic_across_threads(&mesh, params);
    }

    /// The colored parallel sweep is *exactly* serial Gauss–Seidel under
    /// the class-major visit order — coordinates match bit for bit.
    #[test]
    fn colored_equals_serial_class_major_order(
        mesh in arb_mesh(), smart in any::<bool>(), iters in 1usize..6,
    ) {
        let params = SmoothParams::paper().with_smart(smart).with_max_iters(iters);
        checks::colored_equals_serial_class_major_order(&mesh, params);
    }

    /// Greedy colorings of arbitrary perturbed grids are proper and use
    /// at most max_degree + 1 colors.
    #[test]
    fn colorings_are_proper(mesh in arb_mesh()) {
        let adj = Adjacency::build(&mesh);
        let coloring = greedy_coloring(&adj);
        prop_assert!(coloring.is_proper(&adj));
        prop_assert!(coloring.num_colors() as usize <= adj.max_degree() + 1);
    }
}

/// Colorings on the nine-mesh evaluation suite (scaled down) are proper.
#[test]
fn colorings_proper_on_generator_suite() {
    for spec in lms_mesh::suite::SUITE.iter() {
        let mesh = lms_mesh::suite::generate(spec, 0.01);
        let adj = Adjacency::build(&mesh);
        let coloring = greedy_coloring(&adj);
        assert!(coloring.is_proper(&adj), "{}: improper coloring", spec.name);
        assert!(
            coloring.num_colors() as usize <= adj.max_degree() + 1,
            "{}: {} colors for max degree {}",
            spec.name,
            coloring.num_colors(),
            adj.max_degree()
        );
    }
}

/// Plain uniform Gauss–Seidel has a unique fixed point (each interior
/// vertex at its neighbours' mean), so colored and storage-order sweeps
/// driven to tight convergence agree to 1e-12 in quality — across the
/// generator suite.
#[test]
fn colored_quality_matches_serial_gauss_seidel_at_convergence() {
    for spec in lms_mesh::suite::SUITE.iter().take(4) {
        let mesh = lms_mesh::suite::generate(spec, 0.004);
        // run to the floating-point fixed point (no early stop): quality
        // stalls well before the coordinates meet, so a tolerance-based
        // stop would freeze the two sweeps at different points
        let params = SmoothParams::paper().with_tol(-1.0).with_max_iters(8000);
        let engine = SmoothEngine::new(&mesh, params);

        let mut serial = mesh.clone();
        let rs = engine.smooth(&mut serial);

        let mut colored = mesh.clone();
        let rc = engine.smooth_parallel_colored(&mut colored, 3);

        assert!(
            (rs.final_quality - rc.final_quality).abs() < 1e-12,
            "{}: serial {} vs colored {} (diff {:.3e})",
            spec.name,
            rs.final_quality,
            rc.final_quality,
            (rs.final_quality - rc.final_quality).abs()
        );
    }
}
