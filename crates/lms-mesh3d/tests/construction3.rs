//! How the 3D engines are put together — the tetrahedral twin of
//! `lms-smooth/tests/construction.rs`, through the same
//! `lms_smooth::checks`:
//!
//! * `by_method` yields the engine `new` yields over the same
//!   decomposition, structure for structure, for every partition method;
//! * `with_adjacency` uses the adjacency it is handed and rejects one of
//!   another size by name;
//! * every resident block's element list equals the
//!   `collect → sort → dedup` it replaced and is strictly ascending, on
//!   degenerate and arbitrary decompositions;
//! * vertices in no tetrahedron are pinned: they stay out of every sweep
//!   list and a run leaves them, and everything else, as it would without
//!   them;
//! * every resident block vector is allocated at its final length, and
//!   the resident ledger is its partition, schedule, classes, blocks and
//!   inverse degrees — no topology;
//! * every stat weight a block forms equals the per-element weight table
//!   it replaced, bit for bit, and every changeable tet has exactly one
//!   stat owner;
//! * the mesh, its clones and every engine built from it share one
//!   tetrahedron table, and `orient_positive` on a clone copies the
//!   clone's.

use lms_mesh3d::generators::{perturbed_tet_grid, tet_grid};
use lms_mesh3d::{
    Adjacency3, Boundary3, Point3, ResidentEngine3, SmoothEngine3, SmoothParams3, TetMesh,
};
use lms_part::{Partition, PartitionMethod};
use lms_smooth::checks;
use proptest::prelude::*;

fn params() -> SmoothParams3 {
    SmoothParams3::paper().with_smart(true).with_max_iters(2).with_tol(-1.0)
}

#[test]
fn by_method_equals_new_over_the_same_partition() {
    let mesh = perturbed_tet_grid(6, 5, 4, 0.3, 7);
    checks::by_method_equals_new_over_the_same_partition(&mesh, params(), 5);
}

/// Given the adjacency of `cut` (the same vertices, the last tets missing)
/// together with the full mesh, every engine builds on `cut`'s adjacency,
/// not the mesh's: the serial engine holds it, the resident engine holds
/// the blocks a serial engine over it builds.
#[test]
fn with_adjacency_uses_the_adjacency_it_is_handed() {
    let mesh = perturbed_tet_grid(5, 4, 6, 0.3, 3);
    let (coords, mut tets) = mesh.clone().into_parts();
    tets.truncate(tets.len() - 20);
    let handed = Adjacency3::build(&TetMesh::new(coords, tets).unwrap());
    checks::with_adjacency_uses_the_adjacency_it_is_handed(&mesh, handed, params());
}

#[test]
fn resident_blocks_are_exact_size() {
    let mesh = perturbed_tet_grid(6, 5, 5, 0.3, 6);
    checks::resident_blocks_are_exact_size(&mesh, params(), 4);
}

#[test]
fn resident_ledger_is_its_parts() {
    let mesh = perturbed_tet_grid(6, 5, 5, 0.3, 6);
    checks::resident_ledger_is_its_parts(&mesh, params(), 4);
}

#[test]
fn stat_weights_equal_the_table_oracle() {
    let mesh = perturbed_tet_grid(6, 5, 5, 0.3, 6);
    checks::stat_weights_equal_the_table_oracle(&mesh, params(), 4);
}

#[test]
fn with_adjacency_rejects_an_adjacency_of_another_size() {
    let small = Adjacency3::build(&tet_grid(2, 2, 2));
    checks::with_adjacency_rejects_an_adjacency_of_another_size(
        &tet_grid(3, 3, 3),
        small,
        params(),
    );
}

#[test]
fn engines_share_the_mesh_tet_table() {
    let mesh = perturbed_tet_grid(5, 4, 4, 0.3, 4);
    checks::engines_share_the_mesh_element_table(&mesh, params());
}

#[test]
fn orient_positive_on_a_clone_leaves_the_original_untouched() {
    let (coords, mut tets) = perturbed_tet_grid(4, 4, 4, 0.3, 5).into_parts();
    for tet in tets.iter_mut().step_by(3) {
        tet.swap(2, 3);
    }
    let mesh = TetMesh::new(coords, tets).unwrap();
    checks::orienting_a_clone_leaves_the_original_untouched(
        &mesh,
        params(),
        TetMesh::orient_positive,
    );
}

#[test]
fn dealt_element_lists_match_the_sort_on_degenerate_decompositions() {
    let mesh = perturbed_tet_grid(3, 4, 3, 0.3, 2);
    checks::resident_blocks_on_degenerate_decompositions(&mesh, params());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arbitrary assignments — scattered, with empty parts, up to several
    /// parts per vertex — optionally with the whole boundary in part 0.
    #[test]
    fn dealt_element_lists_match_the_sort_on_arbitrary_decompositions(
        nx in 2usize..5, ny in 2usize..5, nz in 2usize..5, seed in 0u64..1000,
        num_parts in 1u32..40,
        raw in proptest::collection::vec(0u32..1000, 64..65), boundary_apart in any::<bool>(),
    ) {
        let mesh = perturbed_tet_grid(nx, ny, nz, 0.3, seed);
        let boundary = Boundary3::detect(&mesh);
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

/// Two vertices in no tet — one far away, one inside the grid — change
/// nothing: they are in no visit order or block, a run leaves them bit for
/// bit where they were and moves every other vertex exactly as it does on
/// the mesh without them. (The reported qualities are means over *all*
/// vertices, so with two more vertices scoring 0 they are the same numbers
/// scaled by `n / (n + 2)`, not the same bits.)
#[test]
fn vertices_in_no_tet_are_pinned_and_change_nothing() {
    let grid = perturbed_tet_grid(5, 4, 5, 0.3, 11);
    let n = grid.num_vertices();
    let (mut coords, tets) = grid.clone().into_parts();
    let strays = [Point3::new(9.0, 9.0, 9.0), Point3::new(0.5, 0.5, 0.5)];
    coords.extend(strays);
    let with_strays = TetMesh::new(coords, tets).unwrap();
    let scale = n as f64 / (n + 2) as f64;

    let plain = SmoothEngine3::new(&grid, params());
    let engine = SmoothEngine3::new(&with_strays, params());
    assert_eq!(engine.boundary().num_interior(), plain.boundary().num_interior());
    assert_eq!(engine.boundary().interior_flags()[n..], [false, false]);
    assert_eq!(engine.visit_order(), plain.visit_order());
    assert_eq!(engine.interior_color_classes(), plain.interior_color_classes());

    let (mut expect, mut got) = (grid.clone(), with_strays.clone());
    let expect_report = plain.smooth(&mut expect);
    let report = engine.smooth(&mut got);
    assert_eq!(got.coords()[..n], expect.coords()[..]);
    assert_eq!(got.coords()[n..], strays);
    assert_eq!(report.num_iterations(), expect_report.num_iterations());
    assert!((report.final_quality - scale * expect_report.final_quality).abs() < 1e-12);

    // the same decomposition on both meshes, the strays in part 0
    let without = ResidentEngine3::by_method(&grid, params(), 3, PartitionMethod::Rcb);
    let mut assignment = without.partition().assignment().to_vec();
    assignment.extend([0, 0]);
    let adj = Adjacency3::build(&with_strays);
    let partition = Partition::from_assignment(&adj, assignment, 3);
    let resident = ResidentEngine3::with_adjacency(&with_strays, adj, params(), partition);
    assert_eq!(resident.part_major_visit_order(), without.part_major_visit_order());
    let (mut expect, mut got) = (grid.clone(), with_strays.clone());
    let expect_report = without.smooth(&mut expect, 2);
    let report = resident.smooth(&mut got, 2);
    assert_eq!(got.coords()[..n], expect.coords()[..]);
    assert_eq!(got.coords()[n..], strays);
    assert_eq!(report.num_iterations(), expect_report.num_iterations());
    assert!((report.final_quality - scale * expect_report.final_quality).abs() < 1e-12);
}
