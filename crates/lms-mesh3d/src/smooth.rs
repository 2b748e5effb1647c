//! Laplacian smoothing of tetrahedral meshes (the paper's Algorithm 1 in
//! 3D — §6 "extensions of Laplacian mesh smoothing").
//!
//! Equation (1) is dimension-agnostic: each interior vertex moves to the
//! arithmetic mean of its neighbours' positions. Since PR 4 the engine *is*
//! the 2D engine: [`SmoothEngine3`] is a thin wrapper that bundles the tet
//! mesh's topology into a [`TetDomain`](crate::domain::TetDomain) and runs
//! `lms-smooth`'s **dimension-generic** sweep bodies — the traced reference
//! path ([`lms_smooth::smooth_reference_on`]) for serial runs and the
//! colored deterministic Gauss–Seidel driver
//! ([`lms_smooth::colored::smooth_colored_on`]) for parallel ones. The
//! copy-pasted serial/colored sweep bodies this file used to carry are
//! gone; only the 3D-specific pieces (parameters, the static-chunk Jacobi
//! engine, the colored class computation) remain.
//!
//! Resident (halo-exchange) smoothing over a tet-mesh decomposition is
//! [`crate::part3::ResidentEngine3`]: the generic resident engine hosted
//! by this engine through its [`lms_smooth::SerialHost`] impl.

use crate::adjacency::Adjacency3;
use crate::boundary::Boundary3;
use crate::geometry::Point3;
use crate::mesh::TetMesh;
use crate::quality::{mesh_quality, TetQualityMetric};
use lms_smooth::domain::DomainConfig;
use lms_smooth::stats::{IterationStats, SmoothReport};
use lms_smooth::trace::{AccessSink, NullSink};
use lms_smooth::Weighting;
use rayon::prelude::*;

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

    /// Build a [`SmoothEngine3`] for `mesh` and run it.
    pub fn smooth(&self, mesh: &mut TetMesh) -> SmoothReport {
        SmoothEngine3::new(mesh, self.clone()).smooth(mesh)
    }

    /// The dimension-free parameter slice the generic engines consume
    /// (3D smoothing is always uniform-weighted — Equation (1)).
    pub fn domain_config(&self) -> DomainConfig {
        DomainConfig {
            tol: self.tol,
            max_iters: self.max_iters,
            update: self.update,
            smart: self.smart,
            weighting: Weighting::Uniform,
            scalar_scoring: self.scalar_scoring,
        }
    }
}

/// A 3D smoothing engine bound to one mesh topology — a thin wrapper over
/// the dimension-generic engines of `lms-smooth`.
#[derive(Debug, Clone)]
pub struct SmoothEngine3 {
    params: SmoothParams3,
    adj: Adjacency3,
    boundary: Boundary3,
    /// Interior vertices in sweep (storage) order.
    visit: Vec<u32>,
    tets: Vec<[u32; 4]>,
    /// Lazily-computed interior color classes for the colored parallel
    /// engine (topology-only, so one computation serves every run).
    colored_classes: std::sync::OnceLock<Vec<Vec<u32>>>,
    /// Cached persistent worker pool: the parallel engines spawn OS
    /// threads once per engine lifetime, not once per `smooth()` call.
    pool: lms_smooth::PoolCache,
}

impl SmoothEngine3 {
    /// Build an engine for `mesh` under `params`: builds the adjacency and
    /// hands it to [`with_adjacency`](Self::with_adjacency).
    pub fn new(mesh: &TetMesh, params: SmoothParams3) -> Self {
        Self::with_adjacency(mesh, Adjacency3::build(mesh), params)
    }

    /// Build an engine for `mesh` under `params` around an adjacency the
    /// caller already holds — *the* constructor; the boundary is the one
    /// piece of topology it still derives ([`Boundary3::detect`]: face
    /// based, so the adjacency cannot supply it).
    ///
    /// # Panics
    /// When `adj` was built for a different number of vertices.
    pub fn with_adjacency(mesh: &TetMesh, adj: Adjacency3, params: SmoothParams3) -> Self {
        assert_eq!(
            adj.num_vertices(),
            mesh.num_vertices(),
            "adjacency was built for {} vertices, the mesh has {}",
            adj.num_vertices(),
            mesh.num_vertices()
        );
        let boundary = Boundary3::detect(mesh);
        let visit = boundary.interior_vertices();
        SmoothEngine3 {
            params,
            adj,
            boundary,
            visit,
            tets: mesh.tets().to_vec(),
            colored_classes: std::sync::OnceLock::new(),
            pool: lms_smooth::PoolCache::new(),
        }
    }

    /// The engine's parameters.
    pub fn params(&self) -> &SmoothParams3 {
        &self.params
    }

    /// The precomputed adjacency.
    pub fn adjacency(&self) -> &Adjacency3 {
        &self.adj
    }

    /// The precomputed boundary classification.
    pub fn boundary(&self) -> &Boundary3 {
        &self.boundary
    }

    /// The sweep visit order (interior vertices in storage order).
    pub fn visit_order(&self) -> &[u32] {
        &self.visit
    }

    /// The engine's [`TetDomain`](crate::domain::TetDomain) view — the
    /// bundle the generic sweeps run against.
    pub fn domain(&self) -> crate::domain::TetDomain<'_> {
        crate::domain::TetDomain::new(&self.adj, &self.boundary, &self.tets, self.params.metric)
    }

    /// Replace the sweep visit order (the 3D twin of the 2D engine's
    /// iteration-reordering hook, and the serial-equivalence oracle for
    /// the resident 3D engine). Non-interior vertices in
    /// `order` are dropped; each interior vertex must appear exactly once.
    pub fn with_visit_order(mut self, order: Vec<u32>) -> Self {
        let filtered: Vec<u32> =
            order.into_iter().filter(|&v| self.boundary.is_interior(v)).collect();
        assert_eq!(
            filtered.len(),
            self.boundary.num_interior(),
            "visit order must cover every interior vertex exactly once"
        );
        let mut seen = vec![false; self.adj.num_vertices()];
        for &v in &filtered {
            assert!(!seen[v as usize], "vertex {v} visited twice");
            seen[v as usize] = true;
        }
        self.visit = filtered;
        self
    }

    /// Smooth `mesh` in place until convergence or `max_iters`.
    pub fn smooth(&self, mesh: &mut TetMesh) -> SmoothReport {
        self.smooth_traced(mesh, &mut NullSink)
    }

    /// [`smooth`](Self::smooth) while reporting every vertex-record access
    /// to `sink` (one event for the smoothed vertex, one per gathered
    /// neighbour — the same stream shape the 2D engine emits, so the whole
    /// `lms-cache` pipeline applies unchanged). Runs the generic reference
    /// path ([`lms_smooth::smooth_reference_on`]) over the engine's
    /// [`TetDomain`](crate::domain::TetDomain).
    pub fn smooth_traced(&self, mesh: &mut TetMesh, sink: &mut impl AccessSink) -> SmoothReport {
        assert_eq!(
            mesh.num_vertices(),
            self.adj.num_vertices(),
            "engine was built for a different mesh"
        );
        let dom = self.domain();
        lms_smooth::smooth_reference_on(
            &dom,
            &self.params.domain_config(),
            &self.visit,
            mesh.coords_mut(),
            sink,
        )
    }

    /// Deterministic parallel smoothing: static contiguous vertex chunks,
    /// Jacobi (double-buffered) updates — the 3D twin of
    /// [`lms_smooth::SmoothEngine::smooth_parallel`]. Results are
    /// bit-identical for any `num_threads`. Workers come from the
    /// engine-cached persistent pool (spawned once per engine lifetime).
    pub fn smooth_parallel(&self, mesh: &mut TetMesh, num_threads: usize) -> SmoothReport {
        assert!(num_threads >= 1, "need at least one thread");
        let n = mesh.num_vertices();
        assert_eq!(n, self.adj.num_vertices(), "engine was built for a different mesh");
        let pool = self.pool.get(num_threads);

        let params = &self.params;
        let adj = &self.adj;
        let boundary = &self.boundary;

        let initial_quality = mesh_quality(mesh, adj, params.metric);
        let mut report = SmoothReport::starting(initial_quality);
        let mut quality = initial_quality;

        let mut prev: Vec<Point3> = mesh.coords().to_vec();
        let mut next: Vec<Point3> = prev.clone();
        let chunk = n.div_ceil(num_threads).max(1);

        for iter in 1..=params.max_iters {
            pool.install(|| {
                let prev_ref: &[Point3] = &prev;
                next.par_chunks_mut(chunk).enumerate().for_each(|(ci, out)| {
                    let base = ci * chunk;
                    for (off, slot) in out.iter_mut().enumerate() {
                        let v = (base + off) as u32;
                        if !boundary.is_interior(v) {
                            continue;
                        }
                        let ns = adj.neighbors(v);
                        if ns.is_empty() {
                            continue;
                        }
                        let mut sum = Point3::ZERO;
                        for &w in ns {
                            sum += prev_ref[w as usize];
                        }
                        *slot = sum / ns.len() as f64;
                    }
                });
            });
            std::mem::swap(&mut prev, &mut next);

            mesh.coords_mut().copy_from_slice(&prev);
            let new_quality = mesh_quality(mesh, adj, params.metric);
            let improvement = new_quality - quality;
            report.iterations.push(IterationStats { iter, quality: new_quality, improvement });
            quality = new_quality;
            if improvement < params.tol {
                report.converged = true;
                break;
            }
        }
        mesh.coords_mut().copy_from_slice(&prev);
        report.final_quality = quality;
        report
    }

    /// Interior vertices of each color class, ascending within a class.
    /// Computed once per engine (topology-only) and cached.
    pub fn interior_color_classes(&self) -> &[Vec<u32>] {
        self.colored_classes.get_or_init(|| {
            let coloring = lms_order::coloring::greedy_coloring_on(&self.adj);
            coloring
                .classes()
                .map(|class| {
                    class.iter().copied().filter(|&v| self.boundary.is_interior(v)).collect()
                })
                .collect()
        })
    }

    /// The class-major visit order: interior vertices grouped by color,
    /// ascending within each class — the serial order
    /// [`smooth_parallel_colored`](Self::smooth_parallel_colored) is
    /// exactly equal to (feed it to
    /// [`with_visit_order`](Self::with_visit_order)).
    pub fn colored_visit_order(&self) -> Vec<u32> {
        self.interior_color_classes().iter().flatten().copied().collect()
    }

    /// Colored deterministic parallel Gauss–Seidel (3D): the generic
    /// colored driver ([`lms_smooth::colored::smooth_colored_on`]) over
    /// the engine's domain view. All four corners of a tet are mutually
    /// adjacent, so same-class vertices share neither an edge nor a tet —
    /// in-place semantics are race-free and the result is
    /// bitwise-deterministic for any thread count. Honours `params.smart`
    /// through the same incremental quality-cache protocol as the 2D
    /// engine; rejects the Jacobi update scheme (use
    /// [`smooth_parallel`](Self::smooth_parallel), already deterministic).
    pub fn smooth_parallel_colored(&self, mesh: &mut TetMesh, num_threads: usize) -> SmoothReport {
        assert!(num_threads >= 1, "need at least one thread");
        let n = mesh.num_vertices();
        assert_eq!(n, self.adj.num_vertices(), "engine was built for a different mesh");
        assert_eq!(
            self.params.update,
            UpdateScheme3::GaussSeidel,
            "colored smoothing is an in-place (Gauss-Seidel) schedule"
        );
        let pool = self.pool.get(num_threads);
        let classes = self.interior_color_classes();
        let dom = self.domain();
        lms_smooth::colored::smooth_colored_on(
            &dom,
            &self.params.domain_config(),
            classes,
            mesh.coords_mut(),
            &pool,
        )
    }
}

impl lms_smooth::SerialHost<4> for SmoothEngine3 {
    type Mesh = TetMesh;
    type Adjacency = Adjacency3;
    type Params = SmoothParams3;
    type Point = Point3;
    type Domain<'a> = crate::domain::TetDomain<'a>;

    fn build_adjacency(mesh: &TetMesh) -> Adjacency3 {
        Adjacency3::build(mesh)
    }

    fn partition(
        mesh: &TetMesh,
        adj: &Adjacency3,
        num_parts: usize,
        method: lms_part::PartitionMethod,
    ) -> lms_part::Partition {
        crate::domain::partition_tet_mesh(mesh, adj, num_parts, method)
    }

    fn with_adjacency(mesh: &TetMesh, adj: Adjacency3, params: SmoothParams3) -> Self {
        SmoothEngine3::with_adjacency(mesh, adj, params)
    }

    fn coords_mut(mesh: &mut TetMesh) -> &mut [Point3] {
        mesh.coords_mut()
    }

    fn domain(&self) -> crate::domain::TetDomain<'_> {
        self.domain()
    }

    fn domain_config(&self) -> DomainConfig {
        self.params.domain_config()
    }

    fn interior_color_classes(&self) -> &[Vec<u32>] {
        self.interior_color_classes()
    }

    fn pool(&self) -> &lms_smooth::PoolCache {
        &self.pool
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::perturbed_tet_grid;

    #[test]
    fn colored_is_bitwise_deterministic_across_threads_3d() {
        for smart in [false, true] {
            let m0 = perturbed_tet_grid(6, 5, 6, 0.35, 9);
            let params = SmoothParams3::paper().with_smart(smart).with_max_iters(4);
            let engine = SmoothEngine3::new(&m0, params);
            let mut one = m0.clone();
            let r1 = engine.smooth_parallel_colored(&mut one, 1);
            for threads in [2usize, 8] {
                let mut multi = m0.clone();
                let rt = engine.smooth_parallel_colored(&mut multi, threads);
                assert_eq!(one.coords(), multi.coords(), "smart={smart} threads={threads}");
                assert_eq!(r1, rt, "smart={smart} threads={threads}");
            }
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
        // the colored engine is exactly serial Gauss–Seidel under the
        // class-major visit order — the 2D bit-identity property, now
        // holding in 3D through the same generic sweep body
        for smart in [false, true] {
            let m0 = perturbed_tet_grid(6, 6, 5, 0.35, 7);
            let params = SmoothParams3::paper().with_smart(smart).with_max_iters(3).with_tol(-1.0);
            let engine = SmoothEngine3::new(&m0, params.clone());
            let mut colored = m0.clone();
            engine.smooth_parallel_colored(&mut colored, 3);
            let serial =
                SmoothEngine3::new(&m0, params).with_visit_order(engine.colored_visit_order());
            let mut ser = m0.clone();
            serial.smooth(&mut ser);
            assert_eq!(colored.coords(), ser.coords(), "smart={smart}");
        }
    }

    use lms_smooth::trace::{CountSink, VecSink};

    #[test]
    fn smoothing_improves_quality() {
        let mut m = perturbed_tet_grid(8, 8, 8, 0.4, 1);
        let report = SmoothParams3::paper().smooth(&mut m);
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
        let mut m = perturbed_tet_grid(6, 6, 6, 0.35, 2);
        let before = m.coords().to_vec();
        let engine = SmoothEngine3::new(&m, SmoothParams3::paper());
        engine.smooth(&mut m);
        for v in engine.boundary().boundary_vertices() {
            assert_eq!(m.coords()[v as usize], before[v as usize], "boundary vertex {v} moved");
        }
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
        let mut m = perturbed_tet_grid(5, 5, 5, 0.3, 7);
        let engine = SmoothEngine3::new(&m, SmoothParams3::paper().with_max_iters(3));
        let expected_per_iter: u64 =
            engine.visit_order().iter().map(|&v| 1 + engine.adjacency().degree(v) as u64).sum();
        let mut sink = CountSink::default();
        let report = engine.smooth_traced(&mut m, &mut sink);
        assert_eq!(sink.iterations as usize, report.num_iterations());
        assert_eq!(sink.count, expected_per_iter * report.num_iterations() as u64);
    }

    #[test]
    fn trace_structure_vertex_then_neighbours() {
        let mut m = perturbed_tet_grid(4, 4, 4, 0.25, 8);
        let engine = SmoothEngine3::new(&m, SmoothParams3::paper().with_max_iters(1));
        let mut sink = VecSink::new();
        engine.smooth_traced(&mut m, &mut sink);
        let v0 = engine.visit_order()[0];
        assert_eq!(sink.accesses[0], v0);
        let deg = engine.adjacency().degree(v0);
        let mut nbrs: Vec<u32> = sink.accesses[1..=deg].to_vec();
        nbrs.sort_unstable();
        assert_eq!(&nbrs[..], engine.adjacency().neighbors(v0));
    }

    #[test]
    fn parallel_jacobi_matches_serial_jacobi_exactly() {
        let m0 = perturbed_tet_grid(7, 7, 7, 0.35, 11);
        let params = SmoothParams3::paper().with_update(UpdateScheme3::Jacobi).with_max_iters(5);
        let mut serial = m0.clone();
        let sr = SmoothEngine3::new(&m0, params.clone()).smooth(&mut serial);
        let mut par = m0.clone();
        let pr = SmoothEngine3::new(&m0, params).smooth_parallel(&mut par, 4);
        assert_eq!(serial.coords(), par.coords(), "Jacobi must be schedule-independent");
        assert_eq!(sr.num_iterations(), pr.num_iterations());
    }

    #[test]
    fn parallel_is_deterministic_across_thread_counts() {
        let m0 = perturbed_tet_grid(6, 6, 6, 0.3, 2);
        let params = SmoothParams3::paper().with_max_iters(4);
        let mut a = m0.clone();
        let mut b = m0.clone();
        SmoothEngine3::new(&m0, params.clone()).smooth_parallel(&mut a, 1);
        SmoothEngine3::new(&m0, params).smooth_parallel(&mut b, 3);
        assert_eq!(a.coords(), b.coords());
    }

    #[test]
    fn parallel_engines_spawn_threads_once_per_engine() {
        // thread-pool reuse: repeated smooths on one engine must not grow
        // the calling thread's spawned-thread counter after the first run
        let m = perturbed_tet_grid(5, 5, 5, 0.3, 3);
        let params = SmoothParams3::paper().with_max_iters(2).with_tol(-1.0);
        let engine = SmoothEngine3::new(&m, params);
        engine.smooth_parallel(&mut m.clone(), 3);
        engine.smooth_parallel_colored(&mut m.clone(), 3);
        let after_first = rayon::spawned_thread_count();
        for _ in 0..4 {
            engine.smooth_parallel(&mut m.clone(), 3);
            engine.smooth_parallel_colored(&mut m.clone(), 3);
        }
        assert_eq!(
            rayon::spawned_thread_count(),
            after_first,
            "repeat runs must reuse the engine's parked workers"
        );
    }

    #[test]
    fn smart_smoothing_is_monotone_and_inversion_free() {
        for seed in [1u64, 9, 23] {
            let mut m = perturbed_tet_grid(6, 6, 6, 0.42, seed);
            m.orient_positive();
            assert!(m.is_positively_oriented());
            let report = SmoothParams3::paper().with_smart(true).with_max_iters(15).smooth(&mut m);
            for w in report.iterations.windows(2) {
                assert!(w[1].quality >= w[0].quality - 1e-12, "seed {seed} regressed");
            }
            assert!(m.is_positively_oriented(), "seed {seed}: smart smoothing inverted a tet");
        }
    }

    #[test]
    fn zero_tolerance_runs_to_max_iters() {
        let mut m = perturbed_tet_grid(4, 4, 4, 0.3, 3);
        let report = SmoothParams3::paper().with_tol(-1.0).with_max_iters(5).smooth(&mut m);
        assert_eq!(report.num_iterations(), 5);
        assert!(!report.converged);
    }

    #[test]
    fn engine_rejects_mismatched_mesh() {
        let m1 = perturbed_tet_grid(4, 4, 4, 0.2, 1);
        let mut m2 = perturbed_tet_grid(5, 5, 5, 0.2, 1);
        let engine = SmoothEngine3::new(&m1, SmoothParams3::paper());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.smooth(&mut m2);
        }));
        assert!(result.is_err());
    }
}
