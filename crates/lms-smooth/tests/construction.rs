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
//!   than vertices, empty parts, an all-boundary part and a single part.

use lms_mesh::{generators, Adjacency, Boundary, TriMesh};
use lms_part::{partition_mesh, Partition, PartitionMethod};
use lms_smooth::{ResidentEngine, SmoothDomain, SmoothEngine, SmoothParams};
use proptest::prelude::*;

fn params() -> SmoothParams {
    SmoothParams::paper().with_smart(true).with_max_iters(2).with_tol(-1.0)
}

#[test]
fn by_method_equals_new_over_the_same_partition() {
    let mesh = generators::perturbed_grid(13, 11, 0.3, 7);
    let adj = Adjacency::build(&mesh);
    for method in PartitionMethod::ALL {
        let partition = partition_mesh(&mesh, &adj, 5, method);

        let by_method = ResidentEngine::by_method(&mesh, params(), 5, method);
        let new = ResidentEngine::new(&mesh, params(), partition.clone());
        assert_eq!(by_method.partition(), &partition, "{}", method.name());
        assert_eq!(by_method.engine().adjacency(), &adj);
        assert_eq!(by_method.blocks(), new.blocks(), "{}", method.name());
        assert_eq!(by_method.elem_weights(), new.elem_weights());
        assert_eq!(by_method.interface_classes(), new.interface_classes());
        assert_eq!(by_method.part_major_visit_order(), new.part_major_visit_order());
    }
}

/// Given the adjacency of `cut` (the same vertices, the last triangles
/// missing) together with the full mesh, every engine holds `cut`'s
/// topology, not the mesh's.
#[test]
fn with_adjacency_uses_the_adjacency_it_is_handed() {
    let mesh = generators::perturbed_grid(10, 14, 0.3, 3);
    let (coords, mut triangles) = mesh.clone().into_parts();
    triangles.truncate(triangles.len() - 20);
    let handed = Adjacency::build(&TriMesh::new(coords, triangles).unwrap());
    assert_ne!(handed, Adjacency::build(&mesh));

    let serial = SmoothEngine::with_adjacency(&mesh, handed.clone(), params());
    assert_eq!(serial.adjacency(), &handed);
    assert_eq!(serial.boundary(), &Boundary::from_adjacency(&handed));

    let partition = partition_mesh(&mesh, &handed, 3, PartitionMethod::Rcb);
    let resident = ResidentEngine::with_adjacency(&mesh, handed.clone(), params(), partition);
    assert_eq!(resident.engine().adjacency(), &handed);
}

#[test]
fn with_adjacency_rejects_an_adjacency_of_another_size() {
    let mesh = generators::perturbed_grid(6, 6, 0.2, 1);
    let small = Adjacency::build(&generators::perturbed_grid(5, 5, 0.2, 1));
    let partition = partition_mesh(&mesh, &Adjacency::build(&mesh), 2, PartitionMethod::Rcb);
    let builds: [Box<dyn Fn()>; 2] = [
        Box::new(|| drop(SmoothEngine::with_adjacency(&mesh, small.clone(), params()))),
        Box::new(|| {
            drop(ResidentEngine::with_adjacency(&mesh, small.clone(), params(), partition.clone()))
        }),
    ];
    for build in builds {
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(build)).unwrap_err();
        let message = panic.downcast_ref::<String>().expect("formatted panic message");
        assert!(
            message.contains("adjacency was built for 25 vertices, the mesh has 36"),
            "{message}"
        );
    }
}

/// The oracle: part `p`'s element list as `build_resident_block` computed
/// it before the lists were dealt out — the incident elements of every
/// sweep vertex, collected, sorted, deduplicated.
fn elements_by_sort_and_dedup(engine: &ResidentEngine, p: usize) -> Vec<u32> {
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
fn check_decomposition(mesh: &TriMesh, assignment: Vec<u32>, num_parts: u32) {
    let adj = Adjacency::build(mesh);
    let partition = Partition::from_assignment(&adj, assignment, num_parts);
    let engine = ResidentEngine::with_adjacency(mesh, adj, params(), partition);
    assert_eq!(engine.blocks().len(), num_parts as usize);
    for (p, block) in engine.blocks().iter().enumerate() {
        let elements = block.elem_globals();
        assert_eq!(elements, &elements_by_sort_and_dedup(&engine, p)[..], "part {p}");
        assert!(elements.windows(2).all(|w| w[0] < w[1]), "part {p} not strictly ascending");
    }
    let mut resident = mesh.clone();
    engine.smooth(&mut resident, 2);
    let mut serial = mesh.clone();
    SmoothEngine::new(mesh, params())
        .with_visit_order(engine.part_major_visit_order())
        .smooth(&mut serial);
    assert_eq!(resident.coords(), serial.coords());
}

#[test]
fn dealt_element_lists_match_the_sort_on_degenerate_decompositions() {
    let mesh = generators::perturbed_grid(5, 4, 0.3, 2);
    let n = mesh.num_vertices() as u32;
    let boundary = Boundary::detect(&mesh);
    // one part
    check_decomposition(&mesh, vec![0; n as usize], 1);
    // more parts than vertices: a part per vertex and three empty ones
    check_decomposition(&mesh, (0..n).collect(), n + 3);
    // part 0 all boundary, part 1 empty, the interior in part 2
    let split = (0..n).map(|v| if boundary.is_boundary(v) { 0 } else { 2 }).collect();
    check_decomposition(&mesh, split, 3);
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
        check_decomposition(&mesh, assignment, num_parts);
    }
}
