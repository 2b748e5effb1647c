//! Engine properties written once over [`SmoothMesh`], so the triangle
//! suites of this crate and the tetrahedral suites of `lms-mesh3d` assert
//! the same things with the same code. Each check builds its engines from
//! the mesh and parameters the caller picks for its dimension and panics
//! on a violation; the `#[test]` functions that call them stay beside the
//! code they test.

use crate::config::UpdateScheme;
use crate::dcache::{element_weight, inverse_degrees};
use crate::domain::{domain_quality, ScoringDomain, SmoothDomain};
use crate::engine::{SmoothEngineOn, SmoothMesh};
use crate::kernel::SerialKernel;
use crate::resident::{build_resident_blocks, interface_classes, ResidentEngineOn};
use crate::trace::{CountSink, VecSink};
use lms_mesh::adjacency::{vertex_rows, VertexRows};
use lms_mesh::vec_bytes;
use lms_order::Graph;
use lms_part::{partition_mesh, ExchangeSchedule, Partition, PartitionMethod};

/// Smoothing never moves a vertex on the boundary.
pub fn boundary_vertices_never_move<const C: usize, const D: usize, M: SmoothMesh<C, D> + Clone>(
    mesh: &M,
    params: M::Params,
) {
    let engine = SmoothEngineOn::new(mesh, params);
    let mut m = mesh.clone();
    engine.smooth(&mut m);
    assert_boundary_pinned(&engine.domain(), mesh, &m);
}

/// Every vertex `dom` does not move has the same coordinates in `before`
/// and `after`.
fn assert_boundary_pinned<const C: usize, const D: usize, M: SmoothMesh<C, D>>(
    dom: &impl SmoothDomain<C>,
    before: &M,
    after: &M,
) {
    for v in (0..dom.num_vertices() as u32).filter(|&v| !dom.is_interior(v)) {
        let v = v as usize;
        assert_eq!(after.coords()[v], before.coords()[v], "boundary vertex {v} moved");
    }
}

/// A traced run reports every visited vertex once plus its degree per
/// sweep, and one iteration end per sweep.
pub fn trace_counts_match_topology<const C: usize, const D: usize, M: SmoothMesh<C, D> + Clone>(
    mesh: &M,
    params: M::Params,
) {
    let engine = SmoothEngineOn::new(mesh, params);
    let dom = engine.domain();
    let expected_per_iter: u64 =
        engine.visit_order().iter().map(|&v| 1 + dom.neighbors(v).len() as u64).sum();
    let mut sink = CountSink::default();
    let report = engine.smooth_traced(&mut mesh.clone(), &mut sink);
    assert_eq!(sink.iterations as usize, report.num_iterations());
    assert_eq!(sink.count, expected_per_iter * report.num_iterations() as u64);
}

/// The first traced event is the first visited vertex, and the next
/// `deg(v)` events are exactly its neighbours.
pub fn trace_structure_vertex_then_neighbours<const C: usize, const D: usize, M>(
    mesh: &M,
    params: M::Params,
) where
    M: SmoothMesh<C, D> + Clone,
{
    let engine = SmoothEngineOn::new(mesh, params);
    let mut sink = VecSink::new();
    engine.smooth_traced(&mut mesh.clone(), &mut sink);
    let v0 = engine.visit_order()[0];
    assert_eq!(sink.accesses[0], v0);
    let ns = engine.domain().neighbors(v0).to_vec();
    let mut nbrs: Vec<u32> = sink.accesses[1..=ns.len()].to_vec();
    nbrs.sort_unstable();
    assert_eq!(nbrs, ns);
}

/// Under a tolerance that no improvement can fall below (`params.tol <
/// 0`), a run takes exactly `max_iters` sweeps and reports no
/// convergence.
pub fn zero_tolerance_runs_to_max_iters<const C: usize, const D: usize, M>(
    mesh: &M,
    params: M::Params,
) where
    M: SmoothMesh<C, D> + Clone,
{
    let engine = SmoothEngineOn::new(mesh, params);
    let report = engine.smooth(&mut mesh.clone());
    assert_eq!(report.num_iterations(), engine.domain_config().max_iters);
    assert!(!report.converged);
}

/// An engine refuses to smooth a mesh with a different vertex count.
pub fn engine_rejects_mismatched_mesh<const C: usize, const D: usize, M: SmoothMesh<C, D>>(
    mesh: &M,
    mut other: M,
    params: M::Params,
) {
    let engine = SmoothEngineOn::new(mesh, params);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        engine.smooth(&mut other);
    }));
    assert!(result.is_err());
}

/// Thread-pool reuse: after a first call of `run` (the engine's one-time
/// pool spawn), repeat calls spawn no further OS threads from the calling
/// thread.
pub fn spawns_threads_once(run: impl Fn()) {
    run();
    let after_first = rayon::spawned_thread_count();
    for _ in 0..4 {
        run();
    }
    assert_eq!(
        rayon::spawned_thread_count(),
        after_first,
        "repeat runs must reuse the engine's parked workers"
    );
}

/// The incremental kernel ([`SmoothEngineOn::smooth`]) against the
/// reference sweep ([`SmoothEngineOn::smooth_full_recompute`]): equal
/// coordinates bit for bit, equal sweep counts, and a `final_quality`
/// bit-equal to `fresh_quality` — the dimension's from-scratch
/// `mesh_quality` — on the output. Pin the sweep count (`tol < 0`): the
/// kernel's convergence test reads a compensated running sum.
pub fn incremental_matches_full_recompute<const C: usize, const D: usize, M>(
    mesh: &M,
    params: M::Params,
    fresh_quality: impl Fn(&M) -> f64,
) where
    M: SmoothMesh<C, D> + Clone,
{
    let engine = SmoothEngineOn::new(mesh, params);
    let mut fast = mesh.clone();
    let fast_report = engine.smooth(&mut fast);
    let mut reference = mesh.clone();
    let ref_report = engine.smooth_full_recompute(&mut reference);
    assert_eq!(fast.coords(), reference.coords());
    assert_eq!(fast_report.num_iterations(), ref_report.num_iterations());
    assert_eq!(
        fast_report.final_quality.to_bits(),
        fresh_quality(&fast).to_bits(),
        "final_quality must equal the from-scratch recompute bitwise"
    );
}

/// The resident engine gathers once, scatters once, and produces the
/// same coordinates and the same report (exchange accounting included)
/// at 1, 2 and 4 threads.
pub fn resident_is_deterministic_across_threads<const C: usize, const D: usize, M>(
    mesh: &M,
    params: M::Params,
    num_parts: usize,
    method: PartitionMethod,
) where
    M: SmoothMesh<C, D> + Clone,
{
    let engine = ResidentEngineOn::by_method(mesh, params, num_parts, method);
    let mut one = mesh.clone();
    let r1 = engine.smooth(&mut one, 1);
    let volume = r1.exchange.expect("resident runs report exchange accounting");
    assert_eq!((volume.full_gathers, volume.full_scatters), (1, 1));
    for threads in [2usize, 4] {
        let mut multi = mesh.clone();
        let rt = engine.smooth(&mut multi, threads);
        assert_eq!(one.coords(), multi.coords(), "threads={threads}");
        assert_eq!(r1, rt, "threads={threads}");
    }
}

/// The interior color classes partition the interior vertices: each
/// interior vertex sits in exactly one class, no boundary vertex in any,
/// each class is ascending, and no two vertices of one class are
/// adjacent.
pub fn interior_color_classes_are_proper<const C: usize, const D: usize, M: SmoothMesh<C, D>>(
    mesh: &M,
    params: M::Params,
) {
    let engine = SmoothEngineOn::new(mesh, params);
    let dom = engine.domain();
    let mut class_of = vec![None; dom.num_vertices()];
    for (c, class) in engine.interior_color_classes().iter().enumerate() {
        assert!(class.windows(2).all(|w| w[0] < w[1]), "class {c} not strictly ascending");
        for &v in class {
            assert!(dom.is_interior(v), "class {c} holds non-interior vertex {v}");
            assert_eq!(class_of[v as usize].replace(c), None, "vertex {v} in two classes");
        }
    }
    for v in 0..dom.num_vertices() as u32 {
        let Some(c) = class_of[v as usize] else {
            assert!(!dom.is_interior(v), "interior vertex {v} in no class");
            continue;
        };
        for &w in dom.neighbors(v) {
            assert_ne!(class_of[w as usize], Some(c), "neighbours {v} and {w} share class {c}");
        }
    }
}

/// Lane-batched scoring (`params`) and the forced scalar path (`scalar`,
/// the same parameters otherwise) give the same coordinates and reports
/// on the serial engine.
pub fn serial_batched_equals_scalar<const C: usize, const D: usize, M: SmoothMesh<C, D> + Clone>(
    mesh: &M,
    params: M::Params,
    scalar: M::Params,
) {
    let run = |p: M::Params| {
        let mut m = mesh.clone();
        let report = SmoothEngineOn::new(mesh, p).smooth(&mut m);
        (m.coords().to_vec(), report)
    };
    assert_eq!(run(params), run(scalar));
}

/// [`serial_batched_equals_scalar`] on the resident engine over
/// `num_parts` RCB parts at `threads` threads.
pub fn resident_batched_equals_scalar<const C: usize, const D: usize, M>(
    mesh: &M,
    params: M::Params,
    scalar: M::Params,
    num_parts: usize,
    threads: usize,
) where
    M: SmoothMesh<C, D> + Clone,
{
    let run = |p: M::Params| {
        let engine = ResidentEngineOn::by_method(mesh, p, num_parts, PartitionMethod::Rcb);
        let mut m = mesh.clone();
        let report = engine.smooth(&mut m, threads);
        (m.coords().to_vec(), report)
    };
    assert_eq!(run(params), run(scalar));
}

/// The blocks, inverse degrees and interface classes a resident engine
/// over `partition` must hold when built around `adj`: those of a serial
/// engine over `adj`, run through the public block builder.
fn expected_resident_parts<const C: usize, const D: usize, M: SmoothMesh<C, D>>(
    mesh: &M,
    adj: M::Adjacency,
    params: M::Params,
    partition: &Partition,
) -> (Vec<crate::resident::ResidentBlock<C>>, Vec<f64>, Vec<Vec<u32>>) {
    let serial = SmoothEngineOn::with_adjacency(mesh, adj, params);
    let classes = interface_classes(serial.interior_color_classes(), partition);
    let (blocks, inv_deg) = build_resident_blocks(&serial.domain(), partition, &classes);
    (blocks, inv_deg, classes)
}

/// `by_method` (which builds one adjacency and hands it down) yields the
/// engine `new` yields over the same decomposition, structure for
/// structure, for every partition method — and both hold the blocks a
/// serial engine over that adjacency builds.
pub fn by_method_equals_new_over_the_same_partition<const C: usize, const D: usize, M>(
    mesh: &M,
    params: M::Params,
    num_parts: usize,
) where
    M: SmoothMesh<C, D>,
{
    let adj = mesh.build_adjacency();
    for method in PartitionMethod::ALL {
        let partition = partition_mesh(mesh, &adj, num_parts, method);
        let by_method = ResidentEngineOn::by_method(mesh, params.clone(), num_parts, method);
        let new = ResidentEngineOn::new(mesh, params.clone(), partition.clone());
        assert_eq!(by_method.partition(), &partition, "{}", method.name());
        let (blocks, inv_deg, classes) =
            expected_resident_parts(mesh, adj.clone(), params.clone(), &partition);
        assert_eq!(by_method.blocks(), &blocks[..], "{}", method.name());
        assert_eq!(by_method.blocks(), new.blocks(), "{}", method.name());
        assert_eq!(by_method.inv_degrees(), &inv_deg[..]);
        assert_eq!(by_method.inv_degrees(), new.inv_degrees());
        assert_eq!(by_method.interface_classes(), &classes[..]);
        assert_eq!(by_method.interface_classes(), new.interface_classes());
        assert_eq!(by_method.part_major_visit_order(), new.part_major_visit_order());
    }
}

/// The mesh, a clone of it, a serial engine, a clone of that engine and a
/// resident engine built from the mesh all read one element table:
/// nothing along the way copies it.
pub fn engines_share_the_mesh_element_table<const C: usize, const D: usize, M>(
    mesh: &M,
    params: M::Params,
) where
    M: SmoothMesh<C, D> + Clone,
{
    let table = mesh.elements().as_ptr();
    assert_eq!(mesh.clone().elements().as_ptr(), table, "a mesh clone copied the table");
    let serial = SmoothEngineOn::new(mesh, params.clone());
    assert_eq!(serial.domain().elements().as_ptr(), table, "the serial engine copied the table");
    let cloned = serial.clone();
    assert_eq!(cloned.domain().elements().as_ptr(), table, "an engine clone copied the table");
    let resident = ResidentEngineOn::by_method(mesh, params, 3, PartitionMethod::Rcb);
    let scoring = resident.scoring().elements().as_ptr();
    assert_eq!(scoring, table, "the resident engine copied the table");
}

/// `orient` (the mesh type's in-place orientation fix) applied to a clone
/// copies the clone's table at the first flip: the original mesh and an
/// engine built from it keep their table, bit for bit and at the same
/// address. `mesh` must hold an element `orient` flips.
pub fn orienting_a_clone_leaves_the_original_untouched<const C: usize, const D: usize, M>(
    mesh: &M,
    params: M::Params,
    orient: impl FnOnce(&mut M),
) where
    M: SmoothMesh<C, D> + Clone,
{
    let before = mesh.elements().to_vec();
    let engine = SmoothEngineOn::new(mesh, params);
    let mut clone = mesh.clone();
    orient(&mut clone);
    assert_ne!(clone.elements(), &before[..], "`orient` flipped nothing");
    assert_ne!(clone.elements().as_ptr(), mesh.elements().as_ptr(), "the clone wrote in place");
    assert_eq!(mesh.elements(), &before[..], "the original's table changed");
    assert_eq!(engine.domain().elements().as_ptr(), mesh.elements().as_ptr());
}

/// The quality cache a smart Gauss–Seidel run of `mesh` ends with holds
/// one quality (8 B) and one orientation bit per element and one inverse
/// degree (8 B) per vertex, and nothing else: the sweep never queues an
/// element, so the dirty-set stamps are never allocated.
pub fn smart_gauss_seidel_cache_is_one_value_and_one_bit_per_element<
    const C: usize,
    const D: usize,
    M,
>(
    mesh: &M,
    params: M::Params,
) where
    M: SmoothMesh<C, D> + Clone,
{
    let engine = SmoothEngineOn::new(mesh, params);
    let cfg = engine.domain_config();
    assert!(cfg.smart && cfg.update == UpdateScheme::GaussSeidel && !cfg.scalar_scoring);
    let dom = engine.domain();
    let kernel = SerialKernel { dom: &dom, cfg, visit: engine.visit_order() };
    let (report, cache) = kernel.run_keeping_cache(mesh.clone().coords_mut());
    assert!(report.num_iterations() > 0);
    assert!(!cache.has_dirty());
    let (t, n) = (dom.num_elements(), dom.num_vertices());
    assert_eq!(cache.heap_bytes(), 8 * t + 8 * t.div_ceil(64) + 8 * n);
}

/// The per-element weight table `w_t = Σ_{v ∈ t} 1/deg_t(v)` as it was
/// once stored: summed per element from a per-vertex inverse-degree
/// table, corners in order — the oracle every formed weight is pinned to.
pub fn element_weights<const C: usize, D: SmoothDomain<C>>(dom: &D) -> Vec<f64> {
    let inv_deg: Vec<f64> =
        (0..dom.num_vertices() as u32).map(|v| 1.0 / dom.elements_of(v).len() as f64).collect();
    dom.elements().iter().map(|e| e.iter().map(|&v| inv_deg[v as usize]).sum()).collect()
}

/// Every element weight formed from the per-vertex inverse degrees (what
/// the quality cache, the resident blocks and the resident drive loop
/// use) equals the [`element_weights`] oracle bit for bit. Returns how
/// many elements have a corner sum whose bits change when the corners
/// are rotated — the cases in which a reordered sum would fail this
/// check, which a caller's corpus must contain.
pub fn formed_weights_equal_the_oracle<const C: usize, D: SmoothDomain<C>>(dom: &D) -> usize {
    let oracle = element_weights(dom);
    let inv_deg = inverse_degrees(dom);
    let mut order_sensitive = 0;
    for (t, corners) in dom.elements().iter().enumerate() {
        let w = element_weight(&inv_deg, corners);
        assert_eq!(w.to_bits(), oracle[t].to_bits(), "weight of element {t}");
        let order_matters = (1..C).any(|r| {
            let rotated: f64 = (0..C).map(|k| inv_deg[corners[(k + r) % C] as usize]).sum();
            rotated.to_bits() != w.to_bits()
        });
        order_sensitive += usize::from(order_matters);
    }
    order_sensitive
}

/// Every stat weight a resident block forms equals the rule of the
/// per-element weight table the blocks once stored, bit for bit: for
/// local element `i` of part `p` over global element `t`, the
/// [`element_weights`] oracle's `w_t` when `p` owns `t`'s smallest
/// movable corner, `0.0` otherwise — over `num_parts` parts of every
/// partition method. And every element with a movable corner is
/// stat-owned by exactly one part, every other element by none.
pub fn stat_weights_equal_the_table_oracle<const C: usize, const D: usize, M>(
    mesh: &M,
    params: M::Params,
    num_parts: usize,
) where
    M: SmoothMesh<C, D>,
{
    let serial = SmoothEngineOn::new(mesh, params.clone());
    let dom = serial.domain();
    let table = element_weights(&dom);
    for method in PartitionMethod::ALL {
        let name = method.name();
        let engine = ResidentEngineOn::by_method(mesh, params.clone(), num_parts, method);
        let partition = engine.partition();
        let mut owners = vec![0u32; table.len()];
        for (p, block) in engine.blocks().iter().enumerate() {
            for (i, &t) in block.elem_globals().iter().enumerate() {
                let corners = &dom.elements()[t as usize];
                let smallest = corners.iter().copied().filter(|&c| dom.is_interior(c)).min();
                let owned = smallest.map(|v| partition.part_of(v)) == Some(p as u32);
                let expected = if owned { table[t as usize] } else { 0.0 };
                let formed = block.stat_weights().get(i);
                assert_eq!(formed.to_bits(), expected.to_bits(), "{name}: part {p}, element {t}");
                owners[t as usize] += u32::from(block.stat_weights().owns(i));
            }
        }
        for (t, corners) in dom.elements().iter().enumerate() {
            let movable = corners.iter().any(|&c| dom.is_interior(c));
            let count = owners[t];
            assert_eq!(count, u32::from(movable), "{name}: element {t} has {count} owners");
        }
    }
}

/// Handed the adjacency of a cut-down mesh over the same vertices, every
/// engine builds on that adjacency — and the boundary derived from it —
/// not the mesh's: the serial engine holds it, and the resident engine
/// holds the blocks a serial engine over it builds.
pub fn with_adjacency_uses_the_adjacency_it_is_handed<const C: usize, const D: usize, M>(
    mesh: &M,
    handed: M::Adjacency,
    params: M::Params,
) where
    M: SmoothMesh<C, D>,
    M::Adjacency: PartialEq,
    M::Boundary: PartialEq,
{
    assert_ne!(handed, mesh.build_adjacency(), "the handed adjacency must differ");
    let serial = SmoothEngineOn::with_adjacency(mesh, handed.clone(), params.clone());
    assert_eq!(serial.adjacency(), &handed);
    assert_eq!(serial.boundary(), &mesh.boundary(&handed));
    let partition = partition_mesh(mesh, &handed, 3, PartitionMethod::Rcb);
    let resident =
        ResidentEngineOn::with_adjacency(mesh, handed.clone(), params.clone(), partition.clone());
    let (blocks, inv_deg, classes) =
        expected_resident_parts(mesh, handed, params.clone(), &partition);
    assert_eq!(resident.blocks(), &blocks[..]);
    assert_eq!(resident.inv_degrees(), &inv_deg[..]);
    assert_eq!(resident.interface_classes(), &classes[..]);
}

/// Both engines reject an adjacency built for another vertex count, and
/// say so by name.
pub fn with_adjacency_rejects_an_adjacency_of_another_size<const C: usize, const D: usize, M>(
    mesh: &M,
    small: M::Adjacency,
    params: M::Params,
) where
    M: SmoothMesh<C, D>,
{
    let expected = format!(
        "adjacency was built for {} vertices, the mesh has {}",
        small.num_vertices(),
        mesh.coords().len()
    );
    let partition = partition_mesh(mesh, &mesh.build_adjacency(), 2, PartitionMethod::Rcb);
    let builds: [Box<dyn Fn()>; 2] = [
        Box::new(|| drop(SmoothEngineOn::with_adjacency(mesh, small.clone(), params.clone()))),
        Box::new(|| {
            let (adj, partition) = (small.clone(), partition.clone());
            drop(ResidentEngineOn::with_adjacency(mesh, adj, params.clone(), partition))
        }),
    ];
    for build in builds {
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(build)).unwrap_err();
        let message = panic.downcast_ref::<String>().expect("formatted panic message");
        assert!(message.contains(&expected), "{message}");
    }
}

/// The resident engine over an explicit `assignment`: every block's
/// element list — dealt out in one pass over the elements, never sorted —
/// equals the `collect → sort → dedup` of its sweep vertices' stars and
/// is strictly ascending, and the engine still is serial part-major
/// Gauss–Seidel.
pub fn resident_blocks_deal_sorted_element_lists<const C: usize, const D: usize, M>(
    mesh: &M,
    params: M::Params,
    assignment: Vec<u32>,
    num_parts: u32,
) where
    M: SmoothMesh<C, D> + Clone,
{
    let adj = mesh.build_adjacency();
    let partition = Partition::from_assignment(&adj, assignment, num_parts);
    let serial = SmoothEngineOn::with_adjacency(mesh, adj.clone(), params.clone());
    let engine = ResidentEngineOn::with_adjacency(mesh, adj, params.clone(), partition);
    assert_eq!(engine.blocks().len(), num_parts as usize);
    let dom = serial.domain();
    for (p, block) in engine.blocks().iter().enumerate() {
        let interface = engine.interface_classes().iter().flatten().copied();
        let mut sorted: Vec<u32> = block
            .interior_globals()
            .chain(interface.filter(|&v| engine.partition().part_of(v) as usize == p))
            .flat_map(|v| dom.elements_of(v).iter().copied())
            .collect();
        sorted.sort_unstable();
        sorted.dedup();
        let elements = block.elem_globals();
        assert_eq!(elements, &sorted[..], "part {p}");
        assert!(elements.windows(2).all(|w| w[0] < w[1]), "part {p} not strictly ascending");
    }
    let mut resident = mesh.clone();
    engine.smooth(&mut resident, 2);
    let mut serial = mesh.clone();
    SmoothEngineOn::new(mesh, params)
        .with_visit_order(engine.part_major_visit_order())
        .smooth(&mut serial);
    assert_eq!(resident.coords(), serial.coords());
}

/// [`resident_blocks_deal_sorted_element_lists`] on the degenerate
/// decompositions: one part; more parts than vertices (a part per vertex
/// and three empty ones); the boundary in part 0, part 1 empty, the
/// interior in part 2.
pub fn resident_blocks_on_degenerate_decompositions<const C: usize, const D: usize, M>(
    mesh: &M,
    params: M::Params,
) where
    M: SmoothMesh<C, D> + Clone,
{
    let n = mesh.coords().len() as u32;
    let split = {
        let engine = SmoothEngineOn::new(mesh, params.clone());
        let dom = engine.domain();
        (0..n).map(|v| if dom.is_interior(v) { 2 } else { 0 }).collect()
    };
    resident_blocks_deal_sorted_element_lists(mesh, params.clone(), vec![0; n as usize], 1);
    resident_blocks_deal_sorted_element_lists(mesh, params.clone(), (0..n).collect(), n + 3);
    resident_blocks_deal_sorted_element_lists(mesh, params, split, 3);
}

/// `score_star` == one `score` per id, bit for bit, for `dom` (scoring
/// under `metric`) on the point slice `coords`. The id lists have lengths 0..=9, 24 and 25 (every fill of
/// the last lane block, stars up to the tet grid's 24 and one past it),
/// each ascending up to the last row, descending from it, and cycling
/// over three ids, plus the whole table in order. The corner table handed
/// in is cut three rows short of the domain's, so a kernel that read a
/// row past the last id it was given would index out of bounds and panic.
pub fn score_star_equals_per_id<const C: usize, D: SmoothDomain<C>>(
    dom: &D,
    coords: &[D::Point],
    metric: impl std::fmt::Debug,
) {
    let corners = &dom.elements()[..dom.num_elements() - 3];
    let n = corners.len() as u32;
    let mut lists: Vec<Vec<u32>> = vec![(0..n).collect()];
    for len in (0..=9).chain([24, 25]) {
        lists.push((n - len..n).collect());
        lists.push((n - len..n).rev().collect());
        lists.push((0..len).map(|i| [n - 1, 0, n / 2][i as usize % 3]).collect());
    }
    for ids in lists {
        let mut out = vec![(f64::NAN, false); ids.len()];
        dom.score_star(coords, corners, &ids, &mut out);
        for (i, &t) in ids.iter().enumerate() {
            let (q, pos) = dom.score(coords, corners[t as usize]);
            assert_eq!(q.to_bits(), out[i].0.to_bits(), "{metric:?}, ids {ids:?}, slot {i}");
            assert_eq!(pos, out[i].1, "{metric:?}, ids {ids:?}, slot {i}");
        }
    }
}

/// The resident sweep at `threads` threads is *exactly* serial
/// Gauss–Seidel under the part-major visit order — coordinates match bit
/// for bit. Pin the sweep count (`tol < 0`): the two engines fold their
/// running quality sums in different orders.
pub fn resident_equals_serial_part_major_order<const C: usize, const D: usize, M>(
    mesh: &M,
    params: M::Params,
    num_parts: usize,
    method: PartitionMethod,
    threads: usize,
) where
    M: SmoothMesh<C, D> + Clone,
{
    let engine = ResidentEngineOn::by_method(mesh, params.clone(), num_parts, method);
    let mut par = mesh.clone();
    engine.smooth(&mut par, threads);
    let serial =
        SmoothEngineOn::new(mesh, params).with_visit_order(engine.part_major_visit_order());
    let mut ser = mesh.clone();
    serial.smooth(&mut ser);
    assert_eq!(par.coords(), ser.coords());
}

/// The residency invariant over `num_parts` RCB parts: one full gather,
/// one full scatter, one exchange round per color step per sweep, and
/// per-round traffic within the static schedule.
pub fn residency_invariant_holds<const C: usize, const D: usize, M: SmoothMesh<C, D> + Clone>(
    mesh: &M,
    params: M::Params,
    num_parts: usize,
) {
    let engine = ResidentEngineOn::by_method(mesh, params, num_parts, PartitionMethod::Rcb);
    let report = engine.smooth(&mut mesh.clone(), 2);
    let volume = report.exchange.expect("resident runs report exchange accounting");
    assert_eq!((volume.full_gathers, volume.full_scatters), (1, 1));
    let sweeps = engine.domain_config().max_iters;
    assert_eq!(volume.exchange_rounds, sweeps * engine.interface_classes().len());
    let entries = engine.exchange_schedule().num_entries();
    assert!(
        volume.halo_entries_sent <= volume.exchange_rounds * entries,
        "{} entries over {} rounds exceeds the static schedule ({entries})",
        volume.halo_entries_sent,
        volume.exchange_rounds,
    );
}

/// A resident run over `num_parts` RCB parts improves quality and leaves
/// the boundary where it was.
pub fn resident_improves_quality_and_pins_boundary<const C: usize, const D: usize, M>(
    mesh: &M,
    params: M::Params,
    num_parts: usize,
) where
    M: SmoothMesh<C, D> + Clone,
{
    let engine = ResidentEngineOn::by_method(mesh, params.clone(), num_parts, PartitionMethod::Rcb);
    let mut m = mesh.clone();
    let report = engine.smooth(&mut m, 2);
    assert!(report.final_quality > report.initial_quality + 0.01);
    assert_boundary_pinned(&SmoothEngineOn::new(mesh, params).domain(), mesh, &m);
}

/// One part has no interface: the resident run equals serial
/// storage-order Gauss–Seidel, gathers and scatters once and exchanges
/// nothing.
pub fn resident_single_part_equals_serial_storage_order<const C: usize, const D: usize, M>(
    mesh: &M,
    params: M::Params,
) where
    M: SmoothMesh<C, D> + Clone,
{
    let engine = ResidentEngineOn::by_method(mesh, params.clone(), 1, PartitionMethod::Rcb);
    assert!(engine.interface_classes().is_empty());
    let mut a = mesh.clone();
    let report = engine.smooth(&mut a, 3);
    let mut b = mesh.clone();
    SmoothEngineOn::new(mesh, params).smooth(&mut b);
    assert_eq!(a.coords(), b.coords());
    let volume = report.exchange.unwrap();
    assert_eq!((volume.full_gathers, volume.full_scatters), (1, 1));
    assert_eq!(volume.halo_entries_sent, 0, "one part has nothing to exchange");
    assert_eq!(volume.halo_messages_sent, 0);
    assert_eq!(volume.halo_bytes_sent, 0);
}

/// The resident engine refuses Jacobi parameters.
pub fn resident_rejects_jacobi_params<const C: usize, const D: usize, M: SmoothMesh<C, D>>(
    mesh: &M,
    jacobi: M::Params,
) {
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        ResidentEngineOn::by_method(mesh, jacobi, 2, PartitionMethod::Rcb)
    }));
    assert!(r.is_err());
}

/// The part-major visit order lists every interior vertex exactly once.
pub fn part_major_order_covers_interior_once<const C: usize, const D: usize, M>(
    mesh: &M,
    params: M::Params,
    num_parts: usize,
) where
    M: SmoothMesh<C, D>,
{
    let engine =
        ResidentEngineOn::by_method(mesh, params.clone(), num_parts, PartitionMethod::Hilbert);
    let serial = SmoothEngineOn::new(mesh, params);
    let dom = serial.domain();
    let order = engine.part_major_visit_order();
    let num_interior = (0..dom.num_vertices() as u32).filter(|&v| dom.is_interior(v)).count();
    assert_eq!(order.len(), num_interior);
    let mut seen = vec![false; dom.num_vertices()];
    for &v in &order {
        assert!(dom.is_interior(v));
        assert!(!seen[v as usize], "vertex {v} visited twice");
        seen[v as usize] = true;
    }
}

/// Every vector of every resident block over `num_parts` RCB parts holds
/// exactly its length: the block build reserves each one from counts
/// taken before the fill, so no block carries growth slack through a run.
/// The per-element and per-local-vertex vectors have their closed-form
/// lengths: one corner row per local element, one stat-ownership bit per
/// local element packed 64 to a word, one inverse degree per owned or
/// halo vertex.
pub fn resident_blocks_are_exact_size<const C: usize, const D: usize, M: SmoothMesh<C, D>>(
    mesh: &M,
    params: M::Params,
    num_parts: usize,
) {
    let engine = ResidentEngineOn::by_method(mesh, params, num_parts, PartitionMethod::Rcb);
    for (p, block) in engine.blocks().iter().enumerate() {
        let shapes = block.vec_shapes();
        for &(field, len, capacity) in &shapes {
            assert_eq!(capacity, len, "part {p}: `{field}` has {len} entries in {capacity} slots");
        }
        let len_of = |name: &str| shapes.iter().find(|s| s.0 == name).expect("a block field").1;
        let elems = block.elem_globals().len();
        assert_eq!(len_of("elem_corners"), elems, "part {p}");
        assert_eq!(len_of("stat_owned"), elems.div_ceil(64), "part {p}");
        assert_eq!(len_of("inv_deg"), block.owned().len() + block.halo().len(), "part {p}");
    }
}

/// Building a resident engine never holds the adjacency it is handed and
/// the finished engine at once. Measured with `alloc`, which must be the
/// binary's global allocator: the most bytes the build holds at once
/// over what was live before it (the mesh, the adjacency, the partition)
/// stays below what the finished engine adds to the partition — which it
/// would reach, and pass, if the adjacency lived on while the last of the
/// blocks were allocated. Returns `(peak over before, engine bytes)`.
pub fn construction_never_holds_the_adjacency_and_the_engine<const C: usize, const D: usize, M>(
    mesh: &M,
    params: M::Params,
    num_parts: usize,
    alloc: &lms_trace::CountingAlloc,
) -> (usize, usize)
where
    M: SmoothMesh<C, D>,
{
    let adj = mesh.build_adjacency();
    let partition = partition_mesh(mesh, &adj, num_parts, PartitionMethod::Rcb);
    let (engine, peak) =
        alloc.peak_over(|| ResidentEngineOn::with_adjacency(mesh, adj, params, partition));
    let added = engine.heap_bytes() - engine.partition().heap_bytes();
    assert!(peak < added, "the build peaked {peak} B over its inputs; the engine adds {added} B");
    (peak, added)
}

/// A resident engine's heap ledger is its parts and nothing else: the
/// partition, the exchange schedule, the interface classes, the blocks
/// and one inverse degree per vertex — no adjacency, boundary, visit
/// order or color-class term, and no element table. A block's bytes are
/// its `u32` rows, its corner table, its stat-ownership words and its
/// local inverse degrees — no per-element weight table.
pub fn resident_ledger_is_its_parts<const C: usize, const D: usize, M: SmoothMesh<C, D>>(
    mesh: &M,
    params: M::Params,
    num_parts: usize,
) {
    let engine = ResidentEngineOn::by_method(mesh, params, num_parts, PartitionMethod::Rcb);
    let partition = engine.partition();
    let schedule = ExchangeSchedule::build(partition);
    assert_eq!(engine.exchange_schedule(), &schedule);
    let classes = engine.interface_classes();
    let class_bytes = std::mem::size_of_val(classes) + classes.iter().map(vec_bytes).sum::<usize>();
    let blocks = engine.blocks();
    for (p, block) in blocks.iter().enumerate() {
        // u32 rows, C-corner rows, 64-bit ownership words, f64 inverse
        // degrees: nothing else
        let bytes: usize = block
            .vec_shapes()
            .into_iter()
            .map(|(field, len, _)| match field {
                "elem_corners" => 4 * C * len,
                "stat_owned" | "inv_deg" => 8 * len,
                _ => 4 * len,
            })
            .sum();
        assert_eq!(block.heap_bytes(), bytes, "part {p}");
    }
    let block_bytes = std::mem::size_of_val(blocks)
        + blocks.iter().map(crate::resident::ResidentBlock::heap_bytes).sum::<usize>();
    let inv_deg_bytes = 8 * mesh.coords().len();
    assert_eq!(engine.inv_degrees().len(), mesh.coords().len());
    assert_eq!(
        engine.heap_bytes(),
        partition.heap_bytes() + schedule.heap_bytes() + class_bytes + block_bytes + inv_deg_bytes
    );
}

/// The CSR quality reduction the quality read-outs once ran: per vertex,
/// the incident element qualities summed along its `elements_of` row,
/// over the row length (0 for an empty row), summed in vertex order, over
/// the vertex count — from one score table. The oracle
/// [`crate::domain_quality`]'s element-order scatter is pinned to.
pub fn domain_quality_csr<const C: usize, D: SmoothDomain<C>>(dom: &D, coords: &[D::Point]) -> f64 {
    let elem_q: Vec<f64> = dom.elements().iter().map(|&e| dom.score(coords, e).0).collect();
    let n = dom.num_vertices();
    if n == 0 {
        return 0.0;
    }
    let mut total = 0.0;
    for v in 0..n as u32 {
        let ts = dom.elements_of(v);
        total += if ts.is_empty() {
            0.0
        } else {
            ts.iter().map(|&t| elem_q[t as usize]).sum::<f64>() / ts.len() as f64
        };
    }
    total / n as f64
}

/// [`crate::domain_quality`] equals the [`domain_quality_csr`] oracle bit
/// for bit on `dom` at `coords` — except that two NaN results count as
/// equal, since which operand's payload a NaN sum carries is the
/// compiler's choice (it may commute an addition).
pub fn domain_quality_equals_the_csr_oracle<const C: usize, D: SmoothDomain<C>>(
    dom: &D,
    coords: &[D::Point],
) {
    let scatter = domain_quality(dom, coords);
    let csr = domain_quality_csr(dom, coords);
    let same = scatter.to_bits() == csr.to_bits() || (scatter.is_nan() && csr.is_nan());
    assert!(same, "scatter {scatter:?} vs CSR {csr:?}");
}

/// A test domain over an explicit element list (any corners: repeats,
/// vertices in no element) with [`vertex_rows`] tables. Points are
/// `[f64; 1]`, and an element scores the value of its first corner, so
/// any score — `-0.0` and NaN included — is one coordinate away. Every
/// vertex is interior.
pub struct ValueDomain<const C: usize> {
    elements: Vec<[u32; C]>,
    rows: VertexRows,
}

impl<const C: usize> ValueDomain<C> {
    /// The domain of `elements` over `num_vertices` vertices.
    pub fn new(num_vertices: usize, elements: Vec<[u32; C]>) -> Self {
        let rows = vertex_rows(num_vertices, &elements, |_, _| {});
        ValueDomain { elements, rows }
    }
}

impl<const C: usize> ScoringDomain<C> for ValueDomain<C> {
    type Point = [f64; 1];

    fn num_vertices(&self) -> usize {
        self.rows.ve_offsets.len() - 1
    }

    fn elements(&self) -> &[[u32; C]] {
        &self.elements
    }

    fn score_points(&self, pts: [[f64; 1]; C]) -> (f64, bool) {
        (pts[0][0], true)
    }
}

impl<const C: usize> SmoothDomain<C> for ValueDomain<C> {
    fn neighbors(&self, v: u32) -> &[u32] {
        let o = &self.rows.vv_offsets;
        &self.rows.vv_neighbors[o[v as usize] as usize..o[v as usize + 1] as usize]
    }

    fn elements_of(&self, v: u32) -> &[u32] {
        let o = &self.rows.ve_offsets;
        &self.rows.ve_elements[o[v as usize] as usize..o[v as usize + 1] as usize]
    }

    fn is_interior(&self, _v: u32) -> bool {
        true
    }
}
