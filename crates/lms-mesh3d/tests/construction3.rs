//! How the 3D engines are put together — the tetrahedral twin of
//! `lms-smooth/tests/construction.rs`:
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
//!   them.

use lms_mesh3d::generators::{perturbed_tet_grid, tet_grid};
use lms_mesh3d::{
    partition_tet_mesh, Adjacency3, Boundary3, Point3, ResidentEngine3, SmoothEngine3,
    SmoothParams3, TetMesh,
};
use lms_part::{Partition, PartitionMethod};
use lms_smooth::SmoothDomain;
use proptest::prelude::*;

fn params() -> SmoothParams3 {
    SmoothParams3::paper().with_smart(true).with_max_iters(2).with_tol(-1.0)
}

#[test]
fn by_method_equals_new_over_the_same_partition() {
    let mesh = perturbed_tet_grid(6, 5, 4, 0.3, 7);
    let adj = Adjacency3::build(&mesh);
    for method in PartitionMethod::ALL {
        let partition = partition_tet_mesh(&mesh, &adj, 5, method);

        let by_method = ResidentEngine3::by_method(&mesh, params(), 5, method);
        let new = ResidentEngine3::new(&mesh, params(), partition.clone());
        assert_eq!(by_method.partition(), &partition, "{}", method.name());
        assert_eq!(by_method.engine().adjacency(), &adj);
        assert_eq!(by_method.blocks(), new.blocks(), "{}", method.name());
        assert_eq!(by_method.elem_weights(), new.elem_weights());
        assert_eq!(by_method.interface_classes(), new.interface_classes());
        assert_eq!(by_method.part_major_visit_order(), new.part_major_visit_order());
    }
}

/// Given the adjacency of `cut` (the same vertices, the last tets missing)
/// together with the full mesh, every engine holds `cut`'s adjacency, not
/// the mesh's.
#[test]
fn with_adjacency_uses_the_adjacency_it_is_handed() {
    let mesh = perturbed_tet_grid(5, 4, 6, 0.3, 3);
    let (coords, mut tets) = mesh.clone().into_parts();
    tets.truncate(tets.len() - 20);
    let handed = Adjacency3::build(&TetMesh::new(coords, tets).unwrap());
    assert_ne!(handed, Adjacency3::build(&mesh));

    let serial = SmoothEngine3::with_adjacency(&mesh, handed.clone(), params());
    assert_eq!(serial.adjacency(), &handed);

    let partition = partition_tet_mesh(&mesh, &handed, 3, PartitionMethod::Rcb);
    let resident = ResidentEngine3::with_adjacency(&mesh, handed.clone(), params(), partition);
    assert_eq!(resident.engine().adjacency(), &handed);
}

#[test]
fn with_adjacency_rejects_an_adjacency_of_another_size() {
    let mesh = tet_grid(3, 3, 3);
    let small = Adjacency3::build(&tet_grid(2, 2, 2));
    let partition = partition_tet_mesh(&mesh, &Adjacency3::build(&mesh), 2, PartitionMethod::Rcb);
    let builds: [Box<dyn Fn()>; 2] = [
        Box::new(|| drop(SmoothEngine3::with_adjacency(&mesh, small.clone(), params()))),
        Box::new(|| {
            let partition = partition.clone();
            drop(ResidentEngine3::with_adjacency(&mesh, small.clone(), params(), partition))
        }),
    ];
    for build in builds {
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(build)).unwrap_err();
        let message = panic.downcast_ref::<String>().expect("formatted panic message");
        assert!(
            message.contains("adjacency was built for 27 vertices, the mesh has 64"),
            "{message}"
        );
    }
}

/// The oracle: part `p`'s element list as `build_resident_block` computed
/// it before the lists were dealt out — the incident elements of every
/// sweep vertex, collected, sorted, deduplicated.
fn elements_by_sort_and_dedup(engine: &ResidentEngine3, p: usize) -> Vec<u32> {
    let dom = engine.engine().domain();
    let interface = engine.interface_classes().iter().flatten().copied();
    let mut elements: Vec<u32> = engine.blocks()[p]
        .interior_globals()
        .chain(interface.filter(|&v| engine.partition().part_of(v) as usize == p))
        .flat_map(|v| dom.elements_of(v).iter().copied())
        .collect();
    elements.sort_unstable();
    elements.dedup();
    elements
}

/// Build the resident engine over an explicit assignment, check every
/// block's element list against the oracle, and check that the engine
/// still is serial part-major Gauss–Seidel.
fn check_decomposition(mesh: &TetMesh, assignment: Vec<u32>, num_parts: u32) {
    let adj = Adjacency3::build(mesh);
    let partition = Partition::from_assignment(&adj, assignment, num_parts);
    let engine = ResidentEngine3::with_adjacency(mesh, adj, params(), partition);
    assert_eq!(engine.blocks().len(), num_parts as usize);
    for (p, block) in engine.blocks().iter().enumerate() {
        let elements = block.elem_globals();
        assert_eq!(elements, &elements_by_sort_and_dedup(&engine, p)[..], "part {p}");
        assert!(elements.windows(2).all(|w| w[0] < w[1]), "part {p} not strictly ascending");
    }
    let mut resident = mesh.clone();
    engine.smooth(&mut resident, 2);
    let mut serial = mesh.clone();
    SmoothEngine3::new(mesh, params())
        .with_visit_order(engine.part_major_visit_order())
        .smooth(&mut serial);
    assert_eq!(resident.coords(), serial.coords());
}

#[test]
fn dealt_element_lists_match_the_sort_on_degenerate_decompositions() {
    let mesh = perturbed_tet_grid(3, 4, 3, 0.3, 2);
    let n = mesh.num_vertices() as u32;
    let boundary = Boundary3::detect(&mesh);
    // one part
    check_decomposition(&mesh, vec![0; n as usize], 1);
    // more parts than vertices: a part per vertex and three empty ones
    check_decomposition(&mesh, (0..n).collect(), n + 3);
    // part 0 all boundary, part 1 empty, the interior in part 2
    let split = (0..n).map(|v| if boundary.is_boundary(v) { 0 } else { 2 }).collect();
    check_decomposition(&mesh, split, 3);
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
        check_decomposition(&mesh, assignment, num_parts);
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
