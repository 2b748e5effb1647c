//! Partitioned and resident (halo-exchange) smoothing of tetrahedral
//! meshes — the 3D instantiation of `lms-smooth`'s dimension-generic
//! domain-decomposition engines.
//!
//! Nothing here sweeps: [`PartitionedEngine3`] and [`ResidentEngine3`]
//! bundle a [`TetDomain`](crate::domain::TetDomain) with an
//! [`lms_part::Partition`] built by [`crate::domain::partition_tet_mesh`]
//! and run the **same** generic block builders and drivers as the 2D
//! [`lms_smooth::PartitionedEngine`] / [`lms_smooth::ResidentEngine`].
//! The resident protocol — one full gather, moved-only halo-delta routing
//! per interface color step along the [`lms_part::ExchangeSchedule`], one
//! parallel disjoint scatter, [`lms_smooth::ExchangeVolume`] accounting —
//! therefore lands in 3D for free, and the determinism/serial-equivalence
//! guarantees carry over verbatim (property-tested in
//! `tests/resident3.rs` against serial part-major 3D Gauss–Seidel across
//! thread counts and part counts).

use crate::adjacency::Adjacency3;
use crate::domain::partition_tet_mesh;
use crate::mesh::TetMesh;
use crate::smooth::{SmoothEngine3, SmoothParams3, UpdateScheme3};
use lms_part::{ExchangeSchedule, Partition, PartitionMethod};
use lms_smooth::partitioned::{
    build_part_blocks, interface_classes, part_major_order, smooth_partitioned_on, PartBlock,
};
use lms_smooth::resident::{
    build_resident_blocks, resident_part_major_order, smooth_resident_on,
    smooth_resident_profiled_on, ResidentBlock,
};
use lms_smooth::SmoothReport;

/// Domain-decomposed deterministic Gauss–Seidel smoothing of tetrahedral
/// meshes: part interiors sweep as cache-resident local blocks fully in
/// parallel, interface vertices run through the colored schedule — the 3D
/// twin of [`lms_smooth::PartitionedEngine`], sharing its generic sweeps.
#[derive(Debug, Clone)]
pub struct PartitionedEngine3 {
    engine: SmoothEngine3,
    partition: Partition,
    blocks: Vec<PartBlock<4>>,
    interface_classes: Vec<Vec<u32>>,
}

impl PartitionedEngine3 {
    /// Build a partitioned 3D engine for `mesh` under `params` and an
    /// existing decomposition (Gauss–Seidel parameters only): builds the
    /// adjacency and hands it to [`with_adjacency`](Self::with_adjacency).
    pub fn new(mesh: &TetMesh, params: SmoothParams3, partition: Partition) -> Self {
        Self::with_adjacency(mesh, Adjacency3::build(mesh), params, partition)
    }

    /// Build a partitioned 3D engine around an adjacency the caller
    /// already holds (typically the one the partition was computed from)
    /// — *the* constructor; [`by_method`](Self::by_method) and
    /// [`new`](Self::new) both end here.
    ///
    /// # Panics
    /// When `adj` or `partition` was built for a different number of
    /// vertices, or `params` asks for Jacobi updates.
    pub fn with_adjacency(
        mesh: &TetMesh,
        adj: Adjacency3,
        params: SmoothParams3,
        partition: Partition,
    ) -> Self {
        assert_eq!(
            partition.len(),
            mesh.num_vertices(),
            "partition was built for a different mesh"
        );
        assert_eq!(
            params.update,
            UpdateScheme3::GaussSeidel,
            "partitioned smoothing is an in-place (Gauss-Seidel) schedule; \
             use smooth_parallel for deterministic Jacobi"
        );
        let engine = SmoothEngine3::with_adjacency(mesh, adj, params);
        let interface_classes = interface_classes(engine.interior_color_classes(), &partition);
        let blocks = build_part_blocks(&engine.domain(), &partition);
        PartitionedEngine3 { engine, partition, blocks, interface_classes }
    }

    /// Convenience: decompose `mesh` into `num_parts` with `method`, then
    /// build the engine.
    pub fn by_method(
        mesh: &TetMesh,
        params: SmoothParams3,
        num_parts: usize,
        method: PartitionMethod,
    ) -> Self {
        let adj = Adjacency3::build(mesh);
        let partition = partition_tet_mesh(mesh, &adj, num_parts, method);
        PartitionedEngine3::with_adjacency(mesh, adj, params, partition)
    }

    /// The underlying serial engine (adjacency, boundary, parameters).
    pub fn engine(&self) -> &SmoothEngine3 {
        &self.engine
    }

    /// The decomposition the engine runs on.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// The interface color classes the coordination phase sweeps.
    pub fn interface_classes(&self) -> &[Vec<u32>] {
        &self.interface_classes
    }

    /// The serial visit order this engine's sweep is exactly equal to
    /// (feed it to [`SmoothEngine3::with_visit_order`]).
    pub fn part_major_visit_order(&self) -> Vec<u32> {
        part_major_order(&self.blocks, &self.interface_classes)
    }

    /// Partitioned in-place 3D Gauss–Seidel smoothing: race-free,
    /// bitwise-deterministic for any `num_threads`, exactly serial
    /// Gauss–Seidel under
    /// [`part_major_visit_order`](Self::part_major_visit_order).
    pub fn smooth(&self, mesh: &mut TetMesh, num_threads: usize) -> SmoothReport {
        assert!(num_threads >= 1, "need at least one thread");
        assert_eq!(
            mesh.num_vertices(),
            self.engine.adjacency().num_vertices(),
            "engine was built for a different mesh"
        );
        let pool = self.engine.pool.get(num_threads);
        let dom = self.engine.domain();
        smooth_partitioned_on(
            &dom,
            &self.engine.params().domain_config(),
            &self.blocks,
            &self.interface_classes,
            mesh.coords_mut(),
            &pool,
        )
    }
}

/// Resident-block halo-exchange smoothing of tetrahedral meshes: blocks
/// stay resident for the whole run, only moved halo deltas travel between
/// interface color steps, one disjoint scatter at the end — the 3D twin
/// of [`lms_smooth::ResidentEngine`], sharing its generic protocol and
/// [`lms_smooth::ExchangeVolume`] accounting
/// (`full_gathers == 1 && full_scatters == 1`).
#[derive(Debug, Clone)]
pub struct ResidentEngine3 {
    engine: SmoothEngine3,
    partition: Partition,
    schedule: ExchangeSchedule,
    blocks: Vec<ResidentBlock<4>>,
    interface_classes: Vec<Vec<u32>>,
    /// Constant global element weights `w_t` of the quality functional.
    elem_w: Vec<f64>,
}

impl ResidentEngine3 {
    /// Build a resident 3D engine for `mesh` under `params` and an
    /// existing decomposition (Gauss–Seidel parameters only): builds the
    /// adjacency and hands it to [`with_adjacency`](Self::with_adjacency).
    pub fn new(mesh: &TetMesh, params: SmoothParams3, partition: Partition) -> Self {
        Self::with_adjacency(mesh, Adjacency3::build(mesh), params, partition)
    }

    /// Build a resident 3D engine around an adjacency the caller
    /// already holds (typically the one the partition was computed from)
    /// — *the* constructor; [`by_method`](Self::by_method) and
    /// [`new`](Self::new) both end here.
    ///
    /// # Panics
    /// When `adj` or `partition` was built for a different number of
    /// vertices, or `params` asks for Jacobi updates.
    pub fn with_adjacency(
        mesh: &TetMesh,
        adj: Adjacency3,
        params: SmoothParams3,
        partition: Partition,
    ) -> Self {
        assert_eq!(
            partition.len(),
            mesh.num_vertices(),
            "partition was built for a different mesh"
        );
        assert_eq!(
            params.update,
            UpdateScheme3::GaussSeidel,
            "resident smoothing is an in-place (Gauss-Seidel) schedule; \
             use smooth_parallel for deterministic Jacobi"
        );
        let engine = SmoothEngine3::with_adjacency(mesh, adj, params);
        let interface_classes = interface_classes(engine.interior_color_classes(), &partition);
        let schedule = ExchangeSchedule::build(&partition);
        let (blocks, elem_w) =
            build_resident_blocks(&engine.domain(), &partition, &interface_classes);
        ResidentEngine3 { engine, partition, schedule, blocks, interface_classes, elem_w }
    }

    /// Convenience: decompose `mesh` into `num_parts` with `method`, then
    /// build the engine.
    pub fn by_method(
        mesh: &TetMesh,
        params: SmoothParams3,
        num_parts: usize,
        method: PartitionMethod,
    ) -> Self {
        let adj = Adjacency3::build(mesh);
        let partition = partition_tet_mesh(mesh, &adj, num_parts, method);
        ResidentEngine3::with_adjacency(mesh, adj, params, partition)
    }

    /// The underlying serial engine (adjacency, boundary, parameters).
    pub fn engine(&self) -> &SmoothEngine3 {
        &self.engine
    }

    /// The decomposition the engine runs on.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// The static halo-exchange pattern the runs route moved deltas along.
    pub fn exchange_schedule(&self) -> &ExchangeSchedule {
        &self.schedule
    }

    /// The global interface color classes the interface phase steps
    /// through.
    pub fn interface_classes(&self) -> &[Vec<u32>] {
        &self.interface_classes
    }

    /// The per-part resident topologies — one block per part, the
    /// per-rank state of a distributed backend.
    pub fn blocks(&self) -> &[ResidentBlock<4>] {
        &self.blocks
    }

    /// The constant global element weights `w_t` of the quality
    /// functional.
    pub fn elem_weights(&self) -> &[f64] {
        &self.elem_w
    }

    /// The serial visit order this engine's sweep is exactly equal to —
    /// identical to [`PartitionedEngine3`]'s over the same decomposition.
    pub fn part_major_visit_order(&self) -> Vec<u32> {
        resident_part_major_order(&self.blocks, &self.interface_classes)
    }

    /// Resident in-place 3D Gauss–Seidel smoothing: one full gather,
    /// halo-delta exchange between color steps, one parallel disjoint
    /// scatter. Race-free, bitwise-deterministic for any `num_threads`,
    /// exactly serial Gauss–Seidel under
    /// [`part_major_visit_order`](Self::part_major_visit_order); the
    /// report carries the [`lms_smooth::ExchangeVolume`] counters.
    pub fn smooth(&self, mesh: &mut TetMesh, num_threads: usize) -> SmoothReport {
        assert!(num_threads >= 1, "need at least one thread");
        assert_eq!(
            mesh.num_vertices(),
            self.engine.adjacency().num_vertices(),
            "engine was built for a different mesh"
        );
        let pool = self.engine.pool.get(num_threads);
        let dom = self.engine.domain();
        smooth_resident_on(
            &dom,
            &self.engine.params().domain_config(),
            &self.blocks,
            &self.elem_w,
            &self.interface_classes,
            &self.schedule,
            mesh.coords_mut(),
            &pool,
        )
    }

    /// [`smooth`](Self::smooth) with phase profiling: the driver records
    /// its spans into the returned [`lms_trace::Recorder`] and the report
    /// comes back with `phase_breakdown` populated — coordinates and all
    /// other report fields bit-identical to the unprofiled run. The 3D
    /// twin of [`lms_smooth::ResidentEngine::smooth_profiled`].
    pub fn smooth_profiled(
        &self,
        mesh: &mut TetMesh,
        num_threads: usize,
    ) -> (SmoothReport, lms_trace::Recorder) {
        assert!(num_threads >= 1, "need at least one thread");
        assert_eq!(
            mesh.num_vertices(),
            self.engine.adjacency().num_vertices(),
            "engine was built for a different mesh"
        );
        let pool = self.engine.pool.get(num_threads);
        let dom = self.engine.domain();
        smooth_resident_profiled_on(
            &dom,
            &self.engine.params().domain_config(),
            &self.blocks,
            &self.elem_w,
            &self.interface_classes,
            &self.schedule,
            mesh.coords_mut(),
            &pool,
        )
    }
}

/// Convenience: decompose, build the partitioned 3D engine and run it in
/// one call. Parameters are moved, never cloned.
pub fn smooth_partitioned3(
    mesh: &mut TetMesh,
    params: SmoothParams3,
    num_parts: usize,
    method: PartitionMethod,
    num_threads: usize,
) -> SmoothReport {
    PartitionedEngine3::by_method(mesh, params, num_parts, method).smooth(mesh, num_threads)
}

/// Convenience: decompose, build the resident 3D engine and run it in one
/// call. Parameters are moved, never cloned.
pub fn smooth_resident3(
    mesh: &mut TetMesh,
    params: SmoothParams3,
    num_parts: usize,
    method: PartitionMethod,
    num_threads: usize,
) -> SmoothReport {
    ResidentEngine3::by_method(mesh, params, num_parts, method).smooth(mesh, num_threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::perturbed_tet_grid;

    #[test]
    fn improves_quality_and_pins_boundary() {
        let mut m = perturbed_tet_grid(8, 8, 8, 0.4, 1);
        let before = m.coords().to_vec();
        let engine =
            ResidentEngine3::by_method(&m, SmoothParams3::paper(), 4, PartitionMethod::Rcb);
        let report = engine.smooth(&mut m, 2);
        assert!(report.final_quality > report.initial_quality + 0.01);
        for v in engine.engine().boundary().boundary_vertices() {
            assert_eq!(m.coords()[v as usize], before[v as usize], "boundary vertex {v} moved");
        }
    }

    #[test]
    fn single_part_equals_serial_storage_order() {
        let m = perturbed_tet_grid(6, 5, 6, 0.35, 3);
        let params = SmoothParams3::paper().with_smart(true).with_max_iters(4).with_tol(-1.0);
        let engine = ResidentEngine3::by_method(&m, params.clone(), 1, PartitionMethod::Rcb);
        assert!(engine.interface_classes().is_empty());
        let mut a = m.clone();
        let report = engine.smooth(&mut a, 3);
        let mut b = m.clone();
        SmoothEngine3::new(&m, params).smooth(&mut b);
        assert_eq!(a.coords(), b.coords());
        let volume = report.exchange.unwrap();
        assert_eq!(volume.full_gathers, 1);
        assert_eq!(volume.full_scatters, 1);
        assert_eq!(volume.halo_entries_sent, 0, "one part has nothing to exchange");
    }

    #[test]
    fn partitioned_and_resident_agree_bitwise() {
        let m = perturbed_tet_grid(6, 6, 6, 0.35, 5);
        let params = SmoothParams3::paper().with_smart(true).with_max_iters(3).with_tol(-1.0);
        let partitioned =
            PartitionedEngine3::by_method(&m, params.clone(), 4, PartitionMethod::Rcb);
        let resident = ResidentEngine3::by_method(&m, params, 4, PartitionMethod::Rcb);
        let mut a = m.clone();
        partitioned.smooth(&mut a, 2);
        let mut b = m.clone();
        resident.smooth(&mut b, 2);
        assert_eq!(a.coords(), b.coords());
        assert_eq!(
            partitioned.part_major_visit_order(),
            resident.part_major_visit_order(),
            "both engines must expose one serial-equivalence order"
        );
    }

    #[test]
    fn rejects_jacobi_params() {
        let m = perturbed_tet_grid(4, 4, 4, 0.2, 1);
        let params = SmoothParams3::paper().with_update(UpdateScheme3::Jacobi);
        for build in [
            (|m: &TetMesh, p: SmoothParams3| {
                PartitionedEngine3::by_method(m, p, 2, PartitionMethod::Rcb);
            }) as fn(&TetMesh, SmoothParams3),
            |m, p| {
                ResidentEngine3::by_method(m, p, 2, PartitionMethod::Rcb);
            },
        ] {
            let params = params.clone();
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                build(&m, params);
            }));
            assert!(r.is_err());
        }
    }

    #[test]
    fn convenience_wrappers_run() {
        let mut m = perturbed_tet_grid(6, 6, 5, 0.35, 2);
        let report = smooth_partitioned3(
            &mut m,
            SmoothParams3::paper().with_max_iters(8),
            3,
            PartitionMethod::Morton,
            2,
        );
        assert!(report.final_quality > report.initial_quality);
        let mut m = perturbed_tet_grid(6, 6, 5, 0.35, 2);
        let report = smooth_resident3(
            &mut m,
            SmoothParams3::paper().with_max_iters(8),
            3,
            PartitionMethod::Hilbert,
            2,
        );
        assert!(report.final_quality > report.initial_quality);
    }

    #[test]
    fn part_major_order_covers_interior_once() {
        let m = perturbed_tet_grid(6, 7, 5, 0.3, 9);
        let engine =
            ResidentEngine3::by_method(&m, SmoothParams3::paper(), 5, PartitionMethod::Hilbert);
        let order = engine.part_major_visit_order();
        assert_eq!(order.len(), engine.engine().boundary().num_interior());
        let mut seen = vec![false; m.num_vertices()];
        for &v in &order {
            assert!(engine.engine().boundary().is_interior(v));
            assert!(!seen[v as usize], "vertex {v} visited twice");
            seen[v as usize] = true;
        }
    }
}
