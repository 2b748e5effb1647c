//! How the engines are put together, not how they sweep:
//!
//! * `by_method` (which builds one adjacency and hands it down) yields
//!   the engine `new` yields over the same decomposition, structure for
//!   structure, for every partition method;
//! * `with_adjacency` uses the adjacency it is handed and derives nothing
//!   topological from the mesh, and rejects one of another size by name;
//! * every resident block's element list — dealt out in one pass over the
//!   elements, never sorted — equals the `collect → sort → dedup` it
//!   replaced and is strictly ascending, on decompositions with more parts
//!   than vertices, empty parts, an all-boundary part and a single part;
//! * every resident block vector is allocated at its final length, and
//!   the resident ledger is its partition, schedule, classes, blocks and
//!   inverse degrees — no topology;
//! * every stat weight a block forms from its ownership bit and its local
//!   inverse degrees equals the per-element weight table it replaced, bit
//!   for bit, and every changeable triangle has exactly one stat owner;
//! * the mesh, its clones and every engine built from it share one
//!   triangle table, and `orient_ccw` on a clone copies the clone's.

mod common;

use lms_mesh::{generators, Adjacency, Boundary, TriMesh};
use lms_smooth::{checks, SmoothParams};
use proptest::prelude::*;

fn params() -> SmoothParams {
    SmoothParams::paper().with_smart(true).with_max_iters(2).with_tol(-1.0)
}

#[test]
fn by_method_equals_new_over_the_same_partition() {
    let mesh = generators::perturbed_grid(13, 11, 0.3, 7);
    checks::by_method_equals_new_over_the_same_partition(&mesh, params(), 5);
}

/// Given the adjacency of `cut` (the same vertices, the last triangles
/// missing) together with the full mesh, every engine builds on `cut`'s
/// topology, not the mesh's: the serial engine holds it, the resident
/// engine holds the blocks a serial engine over it builds.
#[test]
fn with_adjacency_uses_the_adjacency_it_is_handed() {
    let mesh = generators::perturbed_grid(10, 14, 0.3, 3);
    let (coords, mut triangles) = mesh.clone().into_parts();
    triangles.truncate(triangles.len() - 20);
    let handed = Adjacency::build(&TriMesh::new(coords, triangles).unwrap());
    checks::with_adjacency_uses_the_adjacency_it_is_handed(&mesh, handed, params());
}

#[test]
fn resident_blocks_are_exact_size() {
    let mesh = generators::perturbed_grid(17, 13, 0.3, 6);
    checks::resident_blocks_are_exact_size(&mesh, params(), 4);
}

#[test]
fn resident_ledger_is_its_parts() {
    let mesh = generators::perturbed_grid(17, 13, 0.3, 6);
    checks::resident_ledger_is_its_parts(&mesh, params(), 4);
}

/// On a jittered grid and on the hub mesh, whose two fanned-out stars
/// give corner sums of very different inverse degrees.
#[test]
fn stat_weights_equal_the_table_oracle() {
    let grid = generators::perturbed_grid(17, 13, 0.3, 6);
    checks::stat_weights_equal_the_table_oracle(&grid, params(), 4);
    checks::stat_weights_equal_the_table_oracle(&common::hub_mesh(), params(), 3);
}

#[test]
fn with_adjacency_rejects_an_adjacency_of_another_size() {
    let mesh = generators::perturbed_grid(6, 6, 0.2, 1);
    let small = Adjacency::build(&generators::perturbed_grid(5, 5, 0.2, 1));
    checks::with_adjacency_rejects_an_adjacency_of_another_size(&mesh, small, params());
}

#[test]
fn engines_share_the_mesh_triangle_table() {
    let mesh = generators::perturbed_grid(9, 7, 0.3, 4);
    checks::engines_share_the_mesh_element_table(&mesh, params());
}

#[test]
fn orient_ccw_on_a_clone_leaves_the_original_untouched() {
    let (coords, mut triangles) = generators::perturbed_grid(8, 8, 0.3, 5).into_parts();
    for tri in triangles.iter_mut().step_by(3) {
        tri.swap(1, 2);
    }
    let mesh = TriMesh::new(coords, triangles).unwrap();
    checks::orienting_a_clone_leaves_the_original_untouched(&mesh, params(), TriMesh::orient_ccw);
}

#[test]
fn dealt_element_lists_match_the_sort_on_degenerate_decompositions() {
    let mesh = generators::perturbed_grid(5, 4, 0.3, 2);
    checks::resident_blocks_on_degenerate_decompositions(&mesh, params());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary assignments — scattered, with empty parts, up to several
    /// parts per vertex — optionally with the whole boundary in part 0.
    #[test]
    fn dealt_element_lists_match_the_sort_on_arbitrary_decompositions(
        nx in 3usize..8, ny in 3usize..8, seed in 0u64..1000, num_parts in 1u32..40,
        raw in proptest::collection::vec(0u32..1000, 64..65), boundary_apart in any::<bool>(),
    ) {
        let mesh = generators::perturbed_grid(nx, ny, 0.3, seed);
        let boundary = Boundary::detect(&mesh);
        let assignment = (0..mesh.num_vertices() as u32)
            .map(|v| {
                if boundary_apart && boundary.is_boundary(v) {
                    0
                } else {
                    raw[v as usize % raw.len()] % num_parts
                }
            })
            .collect();
        checks::resident_blocks_deal_sorted_element_lists(&mesh, params(), assignment, num_parts);
    }
}
