//! Building a resident engine never holds the adjacency it is handed and
//! the finished engine at once: the adjacency is dropped after the blocks'
//! topology rows are copied and before their element tables are built.
//! The counting allocator sees every allocation of the process, so this
//! file holds this one test.

use lms_mesh::generators;
use lms_smooth::{checks, SmoothParams};
use lms_trace::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

#[test]
fn construction_never_holds_the_adjacency_and_the_engine() {
    let mesh = generators::perturbed_grid(128, 128, 0.35, 42);
    let params = SmoothParams::paper().with_smart(true).with_max_iters(2).with_tol(-1.0);
    let (peak, engine) =
        checks::construction_never_holds_the_adjacency_and_the_engine(&mesh, params, 4, &ALLOC);
    eprintln!("construction peak {peak} B over its inputs; the engine adds {engine} B");
}
