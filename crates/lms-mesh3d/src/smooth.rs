//! Laplacian smoothing of tetrahedral meshes (the paper's Algorithm 1 in
//! 3D — §6 "extensions of Laplacian mesh smoothing").
//!
//! Equation (1) is dimension-agnostic: each interior vertex moves to the
//! arithmetic mean of its neighbours' positions. So is the engine:
//! [`SmoothEngine3`] is `lms-smooth`'s one serial engine,
//! [`lms_smooth::SmoothEngineOn`], over [`TetMesh`] — serial runs on the
//! incremental kernel, full-recompute and traced runs on the reference
//! sweep, the static-chunk Jacobi and colored Gauss–Seidel parallel runs,
//! all from the same generic bodies as the 2D engine. What this file adds
//! is what differs in 3D: the parameter set and the [`SmoothMesh`] impl
//! that plugs `TetMesh` in ([`Adjacency3`], [`Boundary3::detect`],
//! [`TetDomain`], [`partition_tet_mesh`], storage-order visits).
//!
//! Resident (halo-exchange) smoothing over a tet-mesh decomposition is
//! [`crate::part3::ResidentEngine3`], the same struct's resident twin.

use crate::adjacency::Adjacency3;
use crate::boundary::Boundary3;
use crate::domain::{partition_tet_mesh, TetDomain};
use crate::geometry::Point3;
use crate::mesh::TetMesh;
use crate::quality::TetQualityMetric;
use lms_part::{Partition, PartitionMethod};
use lms_smooth::domain::DomainConfig;
use lms_smooth::{SmoothEngineOn, SmoothMesh, Weighting};

/// Update scheme for the 3D sweep — the 2D engine's, under its 3D name.
pub use lms_smooth::UpdateScheme as UpdateScheme3;

/// Parameters of a 3D smoothing run.
#[derive(Debug, Clone, PartialEq)]
pub struct SmoothParams3 {
    /// Quality metric for convergence tracking (and the smart guard).
    pub metric: TetQualityMetric,
    /// Stop when one sweep improves global quality by less than this
    /// (the paper uses `5e-6`).
    pub tol: f64,
    /// Hard sweep cap (Algorithm 1's maximum iteration count).
    pub max_iters: usize,
    /// Update scheme.
    pub update: UpdateScheme3,
    /// Smart commit: reject moves that lower the local mean quality or
    /// invert a currently valid vertex star.
    pub smart: bool,
    /// Force the pre-SoA per-element scalar scoring path (bench/oracle
    /// baseline; bit-identical to the default lane-batched scoring).
    pub scalar_scoring: bool,
}

impl SmoothParams3 {
    /// The paper's configuration transplanted to 3D: edge-length-ratio
    /// metric, `tol = 5e-6`, 200-sweep cap, plain Gauss–Seidel.
    pub fn paper() -> Self {
        SmoothParams3 {
            metric: TetQualityMetric::EdgeLengthRatio,
            tol: 5e-6,
            max_iters: 200,
            update: UpdateScheme3::GaussSeidel,
            smart: false,
            scalar_scoring: false,
        }
    }

    /// Replace the quality metric.
    pub fn with_metric(mut self, metric: TetQualityMetric) -> Self {
        self.metric = metric;
        self
    }

    /// Replace the convergence tolerance.
    pub fn with_tol(mut self, tol: f64) -> Self {
        self.tol = tol;
        self
    }

    /// Replace the sweep cap.
    pub fn with_max_iters(mut self, max_iters: usize) -> Self {
        self.max_iters = max_iters;
        self
    }

    /// Replace the update scheme.
    pub fn with_update(mut self, update: UpdateScheme3) -> Self {
        self.update = update;
        self
    }

    /// Toggle the smart commit rule.
    pub fn with_smart(mut self, smart: bool) -> Self {
        self.smart = smart;
        self
    }

    /// Toggle the scalar-scoring baseline path.
    pub fn with_scalar_scoring(mut self, scalar_scoring: bool) -> Self {
        self.scalar_scoring = scalar_scoring;
        self
    }
}

/// Serial smoothing of tetrahedral meshes.
pub type SmoothEngine3 = SmoothEngineOn<4, TetMesh>;

impl SmoothMesh<4> for TetMesh {
    type Point = Point3;
    type Adjacency = Adjacency3;
    type Boundary = Boundary3;
    type Params = SmoothParams3;
    type Domain<'a> = TetDomain<'a>;

    fn build_adjacency(&self) -> Adjacency3 {
        Adjacency3::build(self)
    }

    /// Face based, so the adjacency cannot supply it.
    fn boundary(&self, _adj: &Adjacency3) -> Boundary3 {
        Boundary3::detect(self)
    }

    fn elements(&self) -> &[[u32; 4]] {
        self.tets()
    }

    fn coords(&self) -> &[Point3] {
        TetMesh::coords(self)
    }

    fn coords_mut(&mut self) -> &mut [Point3] {
        TetMesh::coords_mut(self)
    }

    fn partition(&self, adj: &Adjacency3, num_parts: usize, method: PartitionMethod) -> Partition {
        partition_tet_mesh(self, adj, num_parts, method)
    }

    fn domain<'a>(
        adj: &'a Adjacency3,
        boundary: &'a Boundary3,
        elements: &'a [[u32; 4]],
        params: &SmoothParams3,
    ) -> TetDomain<'a> {
        TetDomain::new(adj, boundary, elements, params.metric)
    }

    /// 3D smoothing is always uniform-weighted — Equation (1).
    fn domain_config(params: &SmoothParams3) -> DomainConfig {
        DomainConfig {
            tol: params.tol,
            max_iters: params.max_iters,
            update: params.update,
            smart: params.smart,
            weighting: Weighting::Uniform,
            scalar_scoring: params.scalar_scoring,
        }
    }

    /// Storage order: 3D has no visit-policy setting.
    fn visit_order(&self, _adj: &Adjacency3, boundary: &Boundary3, _: &SmoothParams3) -> Vec<u32> {
        boundary.interior_vertices()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::perturbed_tet_grid;
    use lms_smooth::checks;

    #[test]
    fn colored_is_bitwise_deterministic_across_threads_3d() {
        for smart in [false, true] {
            let m0 = perturbed_tet_grid(6, 5, 6, 0.35, 9);
            let params = SmoothParams3::paper().with_smart(smart).with_max_iters(4);
            checks::colored_is_deterministic_across_threads(&m0, params);
        }
    }

    #[test]
    fn colored_improves_quality_and_pins_boundary_3d() {
        let m0 = perturbed_tet_grid(7, 7, 7, 0.35, 4);
        let engine = SmoothEngine3::new(&m0, SmoothParams3::paper());
        let mut m = m0.clone();
        let report = engine.smooth_parallel_colored(&mut m, 3);
        assert!(report.total_improvement() > 0.01);
        for v in engine.boundary().boundary_vertices() {
            assert_eq!(m.coords()[v as usize], m0.coords()[v as usize]);
        }
        let classes = engine.interior_color_classes();
        let total: usize = classes.iter().map(|c| c.len()).sum();
        assert_eq!(total, engine.boundary().num_interior());
    }

    #[test]
    fn colored_equals_serial_class_major_order_3d() {
        // the 2D bit-identity property, holding in 3D through the same
        // generic sweep bodies
        for smart in [false, true] {
            let m0 = perturbed_tet_grid(6, 6, 5, 0.35, 7);
            let params = SmoothParams3::paper().with_smart(smart).with_max_iters(3).with_tol(-1.0);
            checks::colored_equals_serial_class_major_order(&m0, params);
        }
    }

    #[test]
    fn smoothing_improves_quality() {
        let mut m = perturbed_tet_grid(8, 8, 8, 0.4, 1);
        let report = SmoothEngine3::new(&m, SmoothParams3::paper()).smooth(&mut m);
        assert!(
            report.final_quality > report.initial_quality + 0.01,
            "{} -> {}",
            report.initial_quality,
            report.final_quality
        );
        assert!(report.converged);
    }

    #[test]
    fn boundary_vertices_never_move() {
        let m = perturbed_tet_grid(6, 6, 6, 0.35, 2);
        checks::boundary_vertices_never_move(&m, SmoothParams3::paper());
    }

    #[test]
    fn interior_vertex_moves_to_neighbour_mean() {
        // One sweep on a tiny grid: the first visited interior vertex of a
        // Jacobi sweep lands exactly on its neighbours' initial mean.
        let m0 = perturbed_tet_grid(3, 3, 3, 0.3, 5);
        let mut m = m0.clone();
        let engine = SmoothEngine3::new(
            &m,
            SmoothParams3::paper().with_update(UpdateScheme3::Jacobi).with_max_iters(1),
        );
        engine.smooth(&mut m);
        let v = engine.visit_order()[0];
        let ns = engine.adjacency().neighbors(v);
        let mut sum = Point3::ZERO;
        for &w in ns {
            sum += m0.coords()[w as usize];
        }
        let expect = sum / ns.len() as f64;
        let got = m.coords()[v as usize];
        assert!(got.dist(expect) < 1e-14);
    }

    #[test]
    fn trace_counts_match_topology() {
        let m = perturbed_tet_grid(5, 5, 5, 0.3, 7);
        checks::trace_counts_match_topology(&m, SmoothParams3::paper().with_max_iters(3));
    }

    #[test]
    fn trace_structure_vertex_then_neighbours() {
        let m = perturbed_tet_grid(4, 4, 4, 0.25, 8);
        checks::trace_structure_vertex_then_neighbours(
            &m,
            SmoothParams3::paper().with_max_iters(1),
        );
    }

    #[test]
    fn parallel_jacobi_matches_serial_jacobi_exactly() {
        let m0 = perturbed_tet_grid(7, 7, 7, 0.35, 11);
        let params = SmoothParams3::paper().with_update(UpdateScheme3::Jacobi).with_max_iters(5);
        checks::parallel_jacobi_matches_serial_jacobi_exactly(&m0, params);
    }

    #[test]
    fn parallel_is_deterministic_across_thread_counts() {
        let m0 = perturbed_tet_grid(6, 6, 6, 0.3, 2);
        checks::parallel_is_deterministic_across_thread_counts(
            &m0,
            SmoothParams3::paper().with_max_iters(4),
        );
    }

    #[test]
    fn parallel_engines_spawn_threads_once_per_engine() {
        let m = perturbed_tet_grid(5, 5, 5, 0.3, 3);
        let params = SmoothParams3::paper().with_max_iters(2).with_tol(-1.0);
        let engine = SmoothEngine3::new(&m, params);
        checks::spawns_threads_once(|| {
            engine.smooth_parallel(&mut m.clone(), 3);
            engine.smooth_parallel_colored(&mut m.clone(), 3);
        });
    }

    #[test]
    fn smart_smoothing_is_monotone_and_inversion_free() {
        for seed in [1u64, 9, 23] {
            let mut m = perturbed_tet_grid(6, 6, 6, 0.42, seed);
            m.orient_positive();
            assert!(m.is_positively_oriented());
            let report =
                SmoothEngine3::new(&m, SmoothParams3::paper().with_smart(true).with_max_iters(15))
                    .smooth(&mut m);
            for w in report.iterations.windows(2) {
                assert!(w[1].quality >= w[0].quality - 1e-12, "seed {seed} regressed");
            }
            assert!(m.is_positively_oriented(), "seed {seed}: smart smoothing inverted a tet");
        }
    }

    #[test]
    fn zero_tolerance_runs_to_max_iters() {
        let m = perturbed_tet_grid(4, 4, 4, 0.3, 3);
        checks::zero_tolerance_runs_to_max_iters(
            &m,
            SmoothParams3::paper().with_tol(-1.0).with_max_iters(5),
        );
    }

    #[test]
    fn engine_rejects_mismatched_mesh() {
        checks::engine_rejects_mismatched_mesh(
            &perturbed_tet_grid(4, 4, 4, 0.2, 1),
            perturbed_tet_grid(5, 5, 5, 0.2, 1),
            SmoothParams3::paper(),
        );
    }
}
