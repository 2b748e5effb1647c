//! The tetrahedral twin of `lms-smooth/tests/construction_peak.rs`:
//! building a resident engine never holds the adjacency it is handed and
//! the finished engine at once. The counting allocator sees every
//! allocation of the process, so this file holds this one test.

use lms_mesh3d::generators::perturbed_tet_grid;
use lms_mesh3d::SmoothParams3;
use lms_smooth::checks;
use lms_trace::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

#[test]
fn construction_never_holds_the_adjacency_and_the_engine() {
    let mesh = perturbed_tet_grid(20, 20, 20, 0.3, 42);
    let params = SmoothParams3::paper().with_smart(true).with_max_iters(2).with_tol(-1.0);
    let (peak, engine) =
        checks::construction_never_holds_the_adjacency_and_the_engine(&mesh, params, 4, &ALLOC);
    eprintln!("construction peak {peak} B over its inputs; the engine adds {engine} B");
}
