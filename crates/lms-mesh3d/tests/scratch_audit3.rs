//! The 3D case of `lms-smooth`'s sweep scratch-reuse audit
//! (`tests/scratch_audit.rs` there): every interior vertex of the Kuhn tet
//! grid has 24 incident tets, above the serial kernel's 16 stack score
//! slots, so every smart visit scores into the heap spill — which must
//! grow once, on the first visit, and never be refilled or reallocated
//! again.
//!
//! The counter is process-global, so this file holds this single test.

use lms_mesh3d::{SmoothEngine3, SmoothParams3};
use lms_smooth::scratch_grow_count;

#[test]
fn serial_tet_sweeps_grow_their_scratch_once() {
    let mesh = lms_mesh3d::generators::perturbed_tet_grid(7, 7, 7, 0.3, 42);
    let params = SmoothParams3::paper().with_smart(true).with_tol(-1.0);
    let growth_of = |sweeps: usize| {
        let engine = SmoothEngine3::new(&mesh, params.clone().with_max_iters(sweeps));
        let adj = engine.adjacency();
        assert!(
            engine.visit_order().iter().all(|&v| adj.tets_of(v).len() == 24),
            "expected the Kuhn grid's stars"
        );
        let before = scratch_grow_count();
        engine.smooth(&mut mesh.clone());
        scratch_grow_count() - before
    };
    let (setup, short, long) = (growth_of(0), growth_of(2), growth_of(9));
    assert_eq!(
        short, long,
        "serial tet kernel scratch grew with sweep count: {short} grows in 2 sweeps vs {long} in 9"
    );
    assert_eq!(short, setup + 1, "the sweeps of a run grow the score spill once and nothing else");
}
