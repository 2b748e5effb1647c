//! The 3D case of `lms-smooth`'s sweep scratch-reuse audit
//! (`tests/scratch_audit.rs` there): every interior vertex of the Kuhn tet
//! grid has 24 incident tets, above the serial kernel's 16 stack score
//! slots, so every smart visit scores into the heap spill — which must
//! grow once, on the first visit, and never be refilled or reallocated
//! again.
//!
//! The counter is process-global, so this file holds this single test.

use lms_mesh3d::{Adjacency3, Boundary3, SmoothParams3, TetDomain};
use lms_smooth::kernel::SerialKernel;
use lms_smooth::scratch_grow_count;

#[test]
fn serial_tet_sweeps_grow_their_scratch_once() {
    let mesh = lms_mesh3d::generators::perturbed_tet_grid(7, 7, 7, 0.3, 42);
    let adj = Adjacency3::build(&mesh);
    let boundary = Boundary3::detect(&mesh);
    let visit = boundary.interior_vertices();
    assert!(visit.iter().all(|&v| adj.tets_of(v).len() == 24), "expected the Kuhn grid's stars");
    let params = SmoothParams3::paper().with_smart(true).with_tol(-1.0);
    let dom = TetDomain::new(&adj, &boundary, mesh.tets(), params.metric);
    let growth_of = |sweeps: usize| {
        let before = scratch_grow_count();
        let kernel = SerialKernel {
            dom: &dom,
            cfg: params.clone().with_max_iters(sweeps).domain_config(),
            visit: &visit,
            star: None,
            scalar_scoring: false,
        };
        kernel.run(&mut mesh.coords().to_vec());
        scratch_grow_count() - before
    };
    let (setup, short, long) = (growth_of(0), growth_of(2), growth_of(9));
    assert_eq!(
        short, long,
        "serial tet kernel scratch grew with sweep count: {short} grows in 2 sweeps vs {long} in 9"
    );
    assert_eq!(short, setup + 1, "the sweeps of a run grow the score spill once and nothing else");
}
