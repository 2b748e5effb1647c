//! The serial smoothing engine (Algorithm 1), written once for every mesh
//! dimension.
//!
//! [`SmoothEngineOn`] binds one mesh topology — adjacency, boundary flags,
//! element connectivity, sweep visit order — and runs every serial path
//! over its [`SmoothDomain`] view: [`smooth`](SmoothEngineOn::smooth) on
//! the incremental [`SerialKernel`], the full-recompute and traced runs on
//! the reference sweep `smooth_reference_on`. A dimension enters only
//! through [`SmoothMesh`]: `TriMesh` implements it here (`C = 3`,
//! [`SmoothEngine`]), `lms_mesh3d::TetMesh` in its own crate (`C = 4`,
//! `lms_mesh3d::SmoothEngine3`). The parallel runs on the same struct live
//! in [`crate::parallel`] and [`crate::colored`], the decomposed engines
//! built on top of it in [`crate::resident`].

use crate::config::{IterationPolicy, SmoothParams};
use crate::domain::{
    build_star_layout_on, smooth_reference_on, DomainConfig, DomainPoint, SmoothDomain, TriDomain,
};
use crate::greedy::greedy_visit_order;
use crate::kernel::SerialKernel;
use crate::pool::PoolCache;
use crate::stats::SmoothReport;
use crate::trace::{AccessSink, NullSink};
use lms_mesh::geometry::Point2;
use lms_mesh::quality::vertex_qualities;
use lms_mesh::{Adjacency, Boundary, TriMesh};
use lms_order::Graph;
use lms_part::{Partition, PartitionMethod};
use std::sync::{Arc, OnceLock};

/// One mesh dimension, as every engine of this crate sees it: the mesh
/// type implements it, and only what truly differs between dimensions
/// lives here — the point, adjacency, boundary and parameter types, how
/// the topology and the partition are built, the [`SmoothDomain`] view,
/// and the initial visit order. `C` is the element corner count.
pub trait SmoothMesh<const C: usize>: Sized {
    /// Coordinate type of the mesh.
    type Point: DomainPoint;
    /// The CSR vertex adjacency (also the graph the color classes come
    /// from).
    type Adjacency: Graph + Clone + std::fmt::Debug;
    /// The boundary (fixed-vertex) classification.
    type Boundary: Clone + std::fmt::Debug;
    /// The smoothing parameter set of this dimension.
    type Params: Clone + std::fmt::Debug;
    /// The borrowed [`SmoothDomain`] view the generic sweeps run against.
    type Domain<'a>: SmoothDomain<C, Point = Self::Point>
    where
        Self: 'a;

    /// Build the vertex adjacency.
    fn build_adjacency(&self) -> Self::Adjacency;

    /// Classify the boundary, given the adjacency built for this mesh.
    fn boundary(&self, adj: &Self::Adjacency) -> Self::Boundary;

    /// Element→vertex incidence.
    fn elements(&self) -> &[[u32; C]];

    /// The coordinate array.
    fn coords(&self) -> &[Self::Point];

    /// The coordinate array, mutably.
    fn coords_mut(&mut self) -> &mut [Self::Point];

    /// Decompose the mesh into `num_parts` parts with `method`.
    fn partition(
        &self,
        adj: &Self::Adjacency,
        num_parts: usize,
        method: PartitionMethod,
    ) -> Partition;

    /// Bundle precomputed topology into the domain view.
    fn domain<'a>(
        adj: &'a Self::Adjacency,
        boundary: &'a Self::Boundary,
        elements: &'a [[u32; C]],
        params: &Self::Params,
    ) -> Self::Domain<'a>;

    /// The dimension-free slice of `params`.
    fn domain_config(params: &Self::Params) -> DomainConfig;

    /// The interior vertices in the sweep order `params` asks for.
    fn visit_order(
        &self,
        adj: &Self::Adjacency,
        boundary: &Self::Boundary,
        params: &Self::Params,
    ) -> Vec<u32>;
}

impl SmoothMesh<3> for TriMesh {
    type Point = Point2;
    type Adjacency = Adjacency;
    type Boundary = Boundary;
    type Params = SmoothParams;
    type Domain<'a> = TriDomain<'a>;

    fn build_adjacency(&self) -> Adjacency {
        Adjacency::build(self)
    }

    fn boundary(&self, adj: &Adjacency) -> Boundary {
        Boundary::from_adjacency(adj)
    }

    fn elements(&self) -> &[[u32; 3]] {
        self.triangles()
    }

    fn coords(&self) -> &[Point2] {
        TriMesh::coords(self)
    }

    fn coords_mut(&mut self) -> &mut [Point2] {
        TriMesh::coords_mut(self)
    }

    fn partition(&self, adj: &Adjacency, num_parts: usize, method: PartitionMethod) -> Partition {
        lms_part::partition_mesh(self, adj, num_parts, method)
    }

    fn domain<'a>(
        adj: &'a Adjacency,
        boundary: &'a Boundary,
        elements: &'a [[u32; 3]],
        params: &SmoothParams,
    ) -> TriDomain<'a> {
        TriDomain::new(adj, boundary, elements, params.metric)
    }

    fn domain_config(params: &SmoothParams) -> DomainConfig {
        params.into()
    }

    /// Storage order, or the §4.2 greedy quality-driven order.
    fn visit_order(&self, adj: &Adjacency, boundary: &Boundary, params: &SmoothParams) -> Vec<u32> {
        match params.policy {
            IterationPolicy::StorageOrder => boundary.interior_vertices(),
            IterationPolicy::GreedyQuality => {
                let q = vertex_qualities(self, adj, params.metric);
                greedy_visit_order(adj, boundary, &q)
            }
        }
    }
}

/// A smoothing engine bound to one mesh topology, for any [`SmoothMesh`].
///
/// Construction precomputes the adjacency, the boundary flags and the
/// sweep visit order; every run can then smooth the mesh (or any mesh with
/// identical connectivity — e.g. a re-smoothing after further
/// perturbation) without re-deriving topology. The element connectivity
/// is held behind an [`Arc`]: cloning the engine shares one allocation.
#[derive(Debug, Clone)]
pub struct SmoothEngineOn<const C: usize, M: SmoothMesh<C>> {
    pub(crate) params: M::Params,
    pub(crate) adj: M::Adjacency,
    pub(crate) boundary: M::Boundary,
    /// Interior vertices in sweep order.
    pub(crate) visit: Vec<u32>,
    pub(crate) elements: Arc<[[u32; C]]>,
    /// Star layout (see [`build_star_layout_on`]): lets the scalar-scoring
    /// smart sweeps score a candidate star from a gathered ring buffer.
    /// Built only for `smart && scalar_scoring`, and `None` when a vertex
    /// degree exceeds `u8` encoding (the sweeps then index directly).
    pub(crate) star: Option<Arc<[[u8; C]]>>,
    /// Lazily-computed interior color classes for the colored parallel
    /// engine (topology-only, so one computation serves every run).
    pub(crate) colored_classes: OnceLock<Vec<Vec<u32>>>,
    /// Cached persistent worker pool: the parallel engines spawn OS
    /// threads once per engine lifetime, not once per `smooth()` call.
    pub(crate) pool: PoolCache,
}

/// Serial smoothing of triangle meshes.
pub type SmoothEngine = SmoothEngineOn<3, TriMesh>;

impl<const C: usize, M: SmoothMesh<C>> SmoothEngineOn<C, M> {
    /// Build an engine for `mesh` under `params`: builds the adjacency and
    /// hands it to [`with_adjacency`](Self::with_adjacency).
    pub fn new(mesh: &M, params: M::Params) -> Self {
        Self::with_adjacency(mesh, mesh.build_adjacency(), params)
    }

    /// Build an engine for `mesh` under `params` around an adjacency the
    /// caller already holds — *the* constructor; nothing topological is
    /// derived twice.
    ///
    /// # Panics
    /// When `adj` was built for a different number of vertices.
    pub fn with_adjacency(mesh: &M, adj: M::Adjacency, params: M::Params) -> Self {
        assert_eq!(
            adj.num_vertices(),
            mesh.coords().len(),
            "adjacency was built for {} vertices, the mesh has {}",
            adj.num_vertices(),
            mesh.coords().len()
        );
        let boundary = mesh.boundary(&adj);
        let visit = mesh.visit_order(&adj, &boundary, &params);
        // only the smart scalar-scoring sweeps read the star layout; skip
        // the O(C·T) binary-search construction for every other engine
        let cfg = M::domain_config(&params);
        let star = if cfg.smart && cfg.scalar_scoring {
            let dom = M::domain(&adj, &boundary, mesh.elements(), &params);
            build_star_layout_on(&dom).map(Into::into)
        } else {
            None
        };
        SmoothEngineOn {
            params,
            adj,
            boundary,
            visit,
            elements: mesh.elements().into(),
            star,
            colored_classes: OnceLock::new(),
            pool: PoolCache::new(),
        }
    }

    /// The engine's [`SmoothDomain`] view: the borrowed (adjacency,
    /// boundary, connectivity, metric) bundle every generic sweep in
    /// [`crate::kernel`] / [`crate::colored`] / [`crate::resident`] runs
    /// against.
    pub fn domain(&self) -> M::Domain<'_> {
        M::domain(&self.adj, &self.boundary, &self.elements, &self.params)
    }

    /// The dimension-free slice of the engine's parameters.
    pub fn domain_config(&self) -> DomainConfig {
        M::domain_config(&self.params)
    }

    /// Replace the sweep visit order — the *iteration reordering* of
    /// Strout & Hovland \[18\], decoupled from the data layout, and the
    /// serial-equivalence oracle of the colored and resident engines.
    ///
    /// Renumbering a mesh (the paper's approach) changes layout and
    /// iteration together, because the sweep walks the vertex array in
    /// storage order. This override changes only the iteration: the data
    /// stays where it is and the sweep visits `order` instead. The
    /// `iter-reorder` experiment uses it to separate the two effects.
    ///
    /// Non-interior vertices in `order` are dropped; each interior vertex
    /// must appear exactly once.
    pub fn with_visit_order(mut self, order: Vec<u32>) -> Self {
        let (filtered, num_interior) = {
            let dom = self.domain();
            let filtered: Vec<u32> = order.into_iter().filter(|&v| dom.is_interior(v)).collect();
            let n = dom.num_vertices() as u32;
            (filtered, (0..n).filter(|&v| dom.is_interior(v)).count())
        };
        assert_eq!(
            filtered.len(),
            num_interior,
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

    /// The engine's parameters.
    pub fn params(&self) -> &M::Params {
        &self.params
    }

    /// The precomputed adjacency.
    pub fn adjacency(&self) -> &M::Adjacency {
        &self.adj
    }

    /// The precomputed boundary classification.
    pub fn boundary(&self) -> &M::Boundary {
        &self.boundary
    }

    /// The sweep visit order (interior vertices).
    pub fn visit_order(&self) -> &[u32] {
        &self.visit
    }

    /// Smooth `mesh` in place until convergence or `max_iters`.
    ///
    /// Runs the incremental-quality hot path ([`SerialKernel`]): the
    /// per-iteration convergence statistics and the smart-commit "before"
    /// qualities come from a [`crate::DomainQualityCache`] that re-scores
    /// only the elements a move touched, instead of recomputing the whole
    /// mesh quality every sweep. Produces bit-identical coordinates to
    /// [`smooth_full_recompute`](Self::smooth_full_recompute) for any
    /// fixed sweep count (see [`crate::kernel`] for the one ulp-level
    /// caveat around the convergence tolerance).
    pub fn smooth(&self, mesh: &mut M) -> SmoothReport {
        let dom = self.domain();
        let cfg = self.domain_config();
        let kernel = SerialKernel {
            dom: &dom,
            cfg,
            visit: &self.visit,
            star: self.star.as_deref(),
            scalar_scoring: cfg.scalar_scoring,
        };
        kernel.run(mesh.coords_mut())
    }

    /// The reference path (`smooth_reference_on`): recomputes the full
    /// mesh quality from scratch every iteration and re-evaluates both
    /// sides of every smart-commit test. Kept as the oracle for property
    /// tests and as the baseline the `bench_smooth_hot` bench measures the
    /// incremental path against.
    pub fn smooth_full_recompute(&self, mesh: &mut M) -> SmoothReport {
        self.smooth_reference(mesh, &mut NullSink, false)
    }

    /// The reference path while reporting every vertex-record access to
    /// `sink` (one event for the smoothed vertex, one per gathered
    /// neighbour — the stream analysed in §5.2.3, the same shape in every
    /// dimension, so the whole `lms-cache` pipeline applies unchanged).
    pub fn smooth_traced(&self, mesh: &mut M, sink: &mut impl AccessSink) -> SmoothReport {
        self.smooth_reference(mesh, sink, false)
    }

    /// [`smooth_traced`](Self::smooth_traced) that additionally reports the
    /// per-vertex **quality update** (Algorithm 1, line 13): after moving a
    /// vertex, the smoother re-evaluates the quality of its incident
    /// elements, streaming the element records through the cache. Those
    /// accesses are reported as ids `num_vertices + t` for element `t`, so
    /// the combined stream spans `num_vertices + num_elements` ids.
    /// Including them reproduces the shared-L3 pressure of the paper's
    /// full application.
    pub fn smooth_traced_with_quality(
        &self,
        mesh: &mut M,
        sink: &mut impl AccessSink,
    ) -> SmoothReport {
        self.smooth_reference(mesh, sink, true)
    }

    fn smooth_reference(
        &self,
        mesh: &mut M,
        sink: &mut impl AccessSink,
        trace_elements: bool,
    ) -> SmoothReport {
        let dom = self.domain();
        let cfg = self.domain_config();
        smooth_reference_on(&dom, &cfg, &self.visit, mesh.coords_mut(), sink, trace_elements)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checks;
    use crate::config::UpdateScheme;
    use crate::trace::VecSink;
    use lms_mesh::generators;

    #[test]
    fn smoothing_improves_quality() {
        let mut m = generators::perturbed_grid(20, 20, 0.4, 1);
        let report = SmoothEngine::new(&m, SmoothParams::paper()).smooth(&mut m);
        assert!(report.final_quality > report.initial_quality + 0.01);
        assert!(report.converged, "small mesh should converge well before 200 sweeps");
    }

    #[test]
    fn boundary_vertices_never_move() {
        let m = generators::perturbed_grid(14, 14, 0.35, 2);
        checks::boundary_vertices_never_move(&m, SmoothParams::paper());
    }

    #[test]
    fn wheel_center_converges_to_centroid() {
        // One interior vertex surrounded by a regular hexagon: Laplacian
        // smoothing must move it to the hexagon centroid in a single sweep.
        let mut coords = vec![Point2::new(0.4, 0.2)]; // off-centre
        for k in 0..6 {
            let th = std::f64::consts::FRAC_PI_3 * k as f64;
            coords.push(Point2::new(th.cos(), th.sin()));
        }
        let tris = (0..6).map(|k| [0u32, 1 + k as u32, 1 + ((k + 1) % 6) as u32]).collect();
        let mut m = TriMesh::new(coords, tris).unwrap();
        SmoothEngine::new(&m, SmoothParams::paper().with_max_iters(1)).smooth(&mut m);
        let c = m.coords()[0];
        assert!(c.norm() < 1e-12, "centre at {c:?}, expected origin");
    }

    #[test]
    fn smoothing_rarely_inverts_elements() {
        // Plain Laplacian smoothing is not inversion-free in general (that
        // is why "smart" variants exist); on a jittered convex grid the
        // inverted fraction must nevertheless be negligible.
        let mut m = generators::perturbed_grid(25, 25, 0.38, 9);
        SmoothEngine::new(&m, SmoothParams::paper()).smooth(&mut m);
        let inverted = (0..m.num_triangles())
            .filter(|&t| {
                let [a, b, c] = m.tri_coords(t);
                lms_mesh::geometry::orient2d(a, b, c) <= 0.0
            })
            .count();
        assert!(
            inverted * 100 < m.num_triangles(),
            "{inverted}/{} triangles inverted",
            m.num_triangles()
        );
    }

    #[test]
    fn jacobi_and_gauss_seidel_converge_to_similar_quality() {
        let m0 = generators::perturbed_grid(16, 16, 0.35, 4);
        let mut gs = m0.clone();
        let mut jc = m0.clone();
        let rg = SmoothEngine::new(&gs, SmoothParams::paper()).smooth(&mut gs);
        let rj = SmoothEngine::new(&jc, SmoothParams::paper().with_update(UpdateScheme::Jacobi))
            .smooth(&mut jc);
        assert!((rg.final_quality - rj.final_quality).abs() < 0.02);
    }

    #[test]
    fn greedy_policy_visits_interior_only_and_improves() {
        let mut m = generators::perturbed_grid(15, 15, 0.35, 6);
        let params = SmoothParams::paper().with_policy(IterationPolicy::GreedyQuality);
        let engine = SmoothEngine::new(&m, params);
        assert_eq!(engine.visit_order().len(), engine.boundary().num_interior());
        let report = engine.smooth(&mut m);
        assert!(report.total_improvement() > 0.0);
    }

    #[test]
    fn trace_counts_match_topology() {
        // Each sweep accesses every interior vertex once plus its degree.
        let m = generators::perturbed_grid(10, 10, 0.3, 7);
        checks::trace_counts_match_topology(&m, SmoothParams::paper().with_max_iters(3));
    }

    #[test]
    fn trace_structure_vertex_then_neighbours() {
        let m = generators::perturbed_grid(6, 6, 0.2, 8);
        checks::trace_structure_vertex_then_neighbours(&m, SmoothParams::paper().with_max_iters(1));
    }

    #[test]
    fn traced_with_quality_stream_is_vertex_neighbours_then_star() {
        // the exact stream, two sweeps: per visit the vertex, its CSR
        // neighbours, then its incident triangles as `n + t`
        let mut m = generators::perturbed_grid(5, 4, 0.2, 3);
        let engine = SmoothEngine::new(&m, SmoothParams::paper().with_max_iters(2).with_tol(-1.0));
        let (adj, n) = (engine.adjacency(), m.num_vertices() as u32);
        let mut sweep = Vec::new();
        for &v in engine.visit_order() {
            sweep.push(v);
            sweep.extend_from_slice(adj.neighbors(v));
            sweep.extend(adj.triangles_of(v).iter().map(|&t| n + t));
        }
        let mut sink = VecSink::new();
        engine.smooth_traced_with_quality(&mut m, &mut sink);
        assert_eq!(sink.accesses, [sweep.clone(), sweep.clone()].concat());
        assert_eq!(sink.iteration_ends, [sweep.len(), 2 * sweep.len()]);
    }

    #[test]
    fn smart_smoothing_never_decreases_quality() {
        use lms_mesh::quality::mesh_quality;
        // Smart Laplacian rejects quality-decreasing moves, so global
        // quality is monotone over sweeps — even on meshes where plain
        // Laplacian would regress.
        for seed in [1u64, 9, 23, 41] {
            let mut m = generators::perturbed_grid(12, 12, 0.42, seed);
            let params = SmoothParams::paper().with_smart(true).with_max_iters(15);
            let report = SmoothEngine::new(&m, params).smooth(&mut m);
            for w in report.iterations.windows(2) {
                assert!(
                    w[1].quality >= w[0].quality - 1e-12,
                    "seed {seed}: smart smoothing regressed: {:?}",
                    report.iterations
                );
            }
            let adj = Adjacency::build(&m);
            let q = mesh_quality(&m, &adj, report_metric());
            assert!((q - report.final_quality).abs() < 1e-12);
        }
    }

    fn report_metric() -> lms_mesh::quality::QualityMetric {
        SmoothParams::paper().metric
    }

    #[test]
    fn smart_jacobi_also_monotone() {
        let mut m = generators::perturbed_grid(10, 10, 0.4, 7);
        let params = SmoothParams::paper()
            .with_smart(true)
            .with_update(UpdateScheme::Jacobi)
            .with_max_iters(10);
        let report = SmoothEngine::new(&m, params).smooth(&mut m);
        for w in report.iterations.windows(2) {
            assert!(w[1].quality >= w[0].quality - 1e-12);
        }
    }

    #[test]
    fn smart_reaches_comparable_quality_to_plain() {
        // Rejecting the occasional regressive move must not prevent smart
        // smoothing from reaching essentially the same final quality. (The
        // coordinates themselves can differ: one rejected in-place move
        // shifts every downstream Gauss–Seidel update.)
        let base = generators::perturbed_grid(12, 12, 0.3, 3);
        let rp = SmoothEngine::new(&base, SmoothParams::paper()).smooth(&mut base.clone());
        let rs = SmoothEngine::new(&base, SmoothParams::paper().with_smart(true))
            .smooth(&mut base.clone());
        assert!((rp.final_quality - rs.final_quality).abs() < 0.02);
        assert!(rs.total_improvement() > 0.0);
    }

    #[test]
    fn weighted_variants_converge_and_improve_quality() {
        use crate::config::Weighting;
        for weighting in [Weighting::InverseEdgeLength, Weighting::EdgeLength] {
            let mut m = generators::perturbed_grid(16, 16, 0.35, 4);
            let report = SmoothEngine::new(
                &m,
                SmoothParams::paper().with_weighting(weighting).with_max_iters(100),
            )
            .smooth(&mut m);
            assert!(
                report.final_quality > report.initial_quality + 0.01,
                "{}: {} -> {}",
                weighting.name(),
                report.initial_quality,
                report.final_quality
            );
        }
    }

    #[test]
    fn uniform_weighting_is_the_default_and_changes_nothing() {
        use crate::config::Weighting;
        let base = generators::perturbed_grid(12, 12, 0.3, 9);
        let mut a = base.clone();
        let mut b = base.clone();
        let ra = SmoothEngine::new(&a, SmoothParams::paper()).smooth(&mut a);
        let rb = SmoothEngine::new(&b, SmoothParams::paper().with_weighting(Weighting::Uniform))
            .smooth(&mut b);
        assert_eq!(a.coords(), b.coords());
        assert_eq!(ra.num_iterations(), rb.num_iterations());
    }

    #[test]
    fn weighted_variants_produce_distinct_geometry() {
        use crate::config::Weighting;
        let base = generators::perturbed_grid(12, 12, 0.35, 6);
        let run = |w: Weighting| {
            let mut m = base.clone();
            SmoothEngine::new(&m, SmoothParams::paper().with_weighting(w).with_max_iters(5))
                .smooth(&mut m);
            m
        };
        let uni = run(Weighting::Uniform);
        let inv = run(Weighting::InverseEdgeLength);
        let len = run(Weighting::EdgeLength);
        assert_ne!(uni.coords(), inv.coords());
        assert_ne!(uni.coords(), len.coords());
        assert_ne!(inv.coords(), len.coords());
    }

    #[test]
    fn smart_smoothing_never_inverts_valid_meshes() {
        // the mean-quality guard alone can invert a triangle while raising
        // the mean; the validity rule must prevent it (regression test for
        // the mesh-improvement pipeline)
        use lms_mesh::geometry::signed_area;
        let count_inverted = |m: &lms_mesh::TriMesh| {
            m.triangles()
                .iter()
                .filter(|t| {
                    let [a, b, c] = **t;
                    signed_area(
                        m.coords()[a as usize],
                        m.coords()[b as usize],
                        m.coords()[c as usize],
                    ) <= 0.0
                })
                .count()
        };
        for seed in [3, 7, 11] {
            let mut m = generators::perturbed_grid(40, 40, 0.42, seed);
            m.orient_ccw();
            assert_eq!(count_inverted(&m), 0);
            SmoothEngine::new(&m, SmoothParams::paper().with_smart(true).with_max_iters(40))
                .smooth(&mut m);
            assert_eq!(count_inverted(&m), 0, "seed {seed}: smart smoothing inverted");
        }
    }

    #[test]
    fn zero_tolerance_runs_to_max_iters() {
        let m = generators::perturbed_grid(8, 8, 0.3, 3);
        checks::zero_tolerance_runs_to_max_iters(
            &m,
            SmoothParams::paper().with_tol(-1.0).with_max_iters(5),
        );
    }

    #[test]
    fn custom_visit_order_changes_the_trace_not_the_outcome() {
        let m = generators::perturbed_grid(10, 10, 0.3, 5);
        let params = SmoothParams::paper().with_update(UpdateScheme::Jacobi).with_max_iters(3);
        let engine = SmoothEngine::new(&m, params.clone());
        let reversed: Vec<u32> = engine.visit_order().iter().rev().copied().collect();
        let engine_rev = SmoothEngine::new(&m, params).with_visit_order(reversed.clone());
        assert_eq!(engine_rev.visit_order(), &reversed[..]);

        // Jacobi: visit order cannot change the result, only the trace.
        let mut a = m.clone();
        let mut b = m.clone();
        let mut ta = VecSink::new();
        let mut tb = VecSink::new();
        engine.smooth_traced(&mut a, &mut ta);
        engine_rev.smooth_traced(&mut b, &mut tb);
        assert_eq!(a.coords(), b.coords());
        assert_ne!(ta.accesses, tb.accesses, "the access stream must differ");
    }

    #[test]
    fn visit_order_drops_boundary_and_validates_coverage() {
        let m = generators::perturbed_grid(6, 6, 0.2, 1);
        let engine = SmoothEngine::new(&m, SmoothParams::paper());
        // all vertices (boundary included): boundary entries are filtered
        let all: Vec<u32> = (0..m.num_vertices() as u32).collect();
        let e = engine.clone().with_visit_order(all);
        assert_eq!(e.visit_order().len(), e.boundary().num_interior());
        // missing an interior vertex must panic
        let short: Vec<u32> = e.visit_order()[1..].to_vec();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.clone().with_visit_order(short);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn engine_rejects_mismatched_mesh() {
        checks::engine_rejects_mismatched_mesh(
            &generators::perturbed_grid(6, 6, 0.2, 1),
            generators::perturbed_grid(7, 7, 0.2, 1),
            SmoothParams::paper(),
        );
    }
}
