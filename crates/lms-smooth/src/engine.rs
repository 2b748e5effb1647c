//! The serial smoothing engine (Algorithm 1).

use crate::config::{IterationPolicy, SmoothParams, UpdateScheme};
use crate::greedy::greedy_visit_order;
use crate::stats::{IterationStats, SmoothReport};
use crate::trace::{AccessSink, NullSink};
use crate::weighting::weighted_candidate;
use lms_mesh::geometry::Point2;
use lms_mesh::quality::{mesh_quality, vertex_qualities};
use lms_mesh::{Adjacency, Boundary, TriMesh};

/// A smoothing engine bound to one mesh topology.
///
/// Construction precomputes the CSR adjacency, the boundary flags and the
/// sweep visit order; [`smooth`](SmoothEngine::smooth) can then be run on
/// the mesh (or any mesh with identical connectivity — e.g. a re-smoothing
/// after further perturbation) without re-deriving topology.
///
/// The triangle connectivity is held behind an [`std::sync::Arc`]:
/// cloning the engine shares one allocation instead of copying the array
/// per engine.
#[derive(Debug, Clone)]
pub struct SmoothEngine {
    pub(crate) params: SmoothParams,
    pub(crate) adj: Adjacency,
    pub(crate) boundary: Boundary,
    /// Interior vertices in sweep order.
    pub(crate) visit: Vec<u32>,
    /// Shared triangle connectivity (smart smoothing's local quality
    /// checks and the quality cache score against it).
    pub(crate) triangles: std::sync::Arc<[[u32; 3]]>,
    /// Star layout: for every vertex→triangle incidence (aligned with the
    /// flat CSR slice order, base [`Adjacency::triangles_offset`]), the
    /// three stored corners encoded as ring positions — the index of the
    /// corner in `neighbors(v)`, or [`SELF_CORNER`] for `v` itself. Lets
    /// the smart sweeps score a candidate star from a gathered ring buffer
    /// instead of scattered coordinate loads. `None` when a vertex degree
    /// exceeds `u8` encoding (fall back to direct indexing).
    pub(crate) star: Option<std::sync::Arc<[[u8; 3]]>>,
    /// Lazily-computed interior color classes for the colored parallel
    /// engine (topology-only, so one computation serves every run).
    pub(crate) colored_classes: std::sync::OnceLock<Vec<Vec<u32>>>,
    /// Cached persistent worker pool: the parallel engines spawn OS
    /// threads once per engine lifetime, not once per `smooth()` call.
    pub(crate) pool: crate::pool::PoolCache,
}

impl SmoothEngine {
    /// Build an engine for `mesh` under `params`: builds the adjacency and
    /// hands it to [`with_adjacency`](Self::with_adjacency).
    pub fn new(mesh: &TriMesh, params: SmoothParams) -> Self {
        Self::with_adjacency(mesh, Adjacency::build(mesh), params)
    }

    /// Build an engine for `mesh` under `params` around an adjacency the
    /// caller already holds — *the* constructor; nothing topological is
    /// derived twice.
    ///
    /// # Panics
    /// When `adj` was built for a different number of vertices.
    pub fn with_adjacency(mesh: &TriMesh, adj: Adjacency, params: SmoothParams) -> Self {
        assert_eq!(
            adj.num_vertices(),
            mesh.num_vertices(),
            "adjacency was built for {} vertices, the mesh has {}",
            adj.num_vertices(),
            mesh.num_vertices()
        );
        let boundary = Boundary::from_adjacency(&adj);
        let visit = match params.policy {
            IterationPolicy::StorageOrder => boundary.interior_vertices(),
            IterationPolicy::GreedyQuality => {
                let q = vertex_qualities(mesh, &adj, params.metric);
                greedy_visit_order(&adj, &boundary, &q)
            }
        };
        // only the smart scalar-scoring sweeps read the star layout; skip
        // the O(3T) binary-search construction for every other engine
        let star = if params.smart && params.scalar_scoring {
            let dom =
                crate::domain::TriDomain::new(&adj, &boundary, mesh.triangles(), params.metric);
            crate::domain::build_star_layout_on(&dom).map(Into::into)
        } else {
            None
        };
        SmoothEngine {
            params,
            adj,
            boundary,
            visit,
            triangles: mesh.triangles().into(),
            star,
            colored_classes: std::sync::OnceLock::new(),
            pool: crate::pool::PoolCache::new(),
        }
    }

    /// The engine's [`crate::domain::SmoothDomain`] view: the borrowed
    /// (adjacency, boundary, connectivity, metric) bundle every generic
    /// sweep in [`crate::kernel`] / [`crate::colored`] /
    /// [`crate::resident`] runs against.
    pub fn domain(&self) -> crate::domain::TriDomain<'_> {
        crate::domain::TriDomain::new(
            &self.adj,
            &self.boundary,
            &self.triangles,
            self.params.metric,
        )
    }

    /// The shared triangle connectivity the engine was built for.
    pub fn triangles(&self) -> &[[u32; 3]] {
        &self.triangles
    }

    /// Mean quality of the triangles incident to `v`, evaluated on
    /// `coords`.
    fn local_quality(&self, coords: &[Point2], v: u32) -> f64 {
        self.local_quality_with(coords, v, coords[v as usize])
    }

    /// [`local_quality`](Self::local_quality) with `v`'s position
    /// overridden by `pos_v` (no buffer copy).
    ///
    /// Orientation-aware: a triangle whose stored vertex order turns
    /// non-positive in area scores 0 — shape metrics like edge-length
    /// ratio are blind to inversion, and guarding against inversions is
    /// the point of Freitag's smart variant. (Assumes a consistently CCW
    /// mesh, which every generator in `lms-mesh` produces.)
    fn local_quality_with(&self, coords: &[Point2], v: u32, pos_v: Point2) -> f64 {
        let ts = self.adj.triangles_of(v);
        if ts.is_empty() {
            return 0.0;
        }
        let at = |u: u32| if u == v { pos_v } else { coords[u as usize] };
        ts.iter()
            .map(|&t| {
                let [a, b, c] = self.triangles[t as usize];
                let (pa, pb, pc) = (at(a), at(b), at(c));
                if lms_mesh::geometry::signed_area(pa, pb, pc) <= 0.0 {
                    0.0
                } else {
                    self.params.metric.triangle_quality(pa, pb, pc)
                }
            })
            .sum::<f64>()
            / ts.len() as f64
    }

    /// Replace the sweep visit order — the *iteration reordering* of
    /// Strout & Hovland \[18\], decoupled from the data layout.
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

    /// The engine's parameters.
    pub fn params(&self) -> &SmoothParams {
        &self.params
    }

    /// The precomputed adjacency.
    pub fn adjacency(&self) -> &Adjacency {
        &self.adj
    }

    /// The precomputed boundary classification.
    pub fn boundary(&self) -> &Boundary {
        &self.boundary
    }

    /// The sweep visit order (interior vertices).
    pub fn visit_order(&self) -> &[u32] {
        &self.visit
    }

    /// Smooth `mesh` in place until convergence or `max_iters`.
    ///
    /// Runs the incremental-quality hot path (see [`crate::kernel`]): the
    /// per-iteration convergence statistics and the smart-commit "before"
    /// qualities come from a [`crate::DomainQualityCache`] that re-scores
    /// only the triangles a move touched, instead of recomputing the whole
    /// mesh quality every sweep. Produces bit-identical coordinates to
    /// [`smooth_full_recompute`](Self::smooth_full_recompute) for any
    /// fixed sweep count (see [`crate::kernel`] for the one ulp-level
    /// caveat around the convergence tolerance).
    pub fn smooth(&self, mesh: &mut TriMesh) -> SmoothReport {
        self.smooth_incremental(mesh)
    }

    /// The pre-incremental reference path: recomputes the full mesh
    /// quality from scratch every iteration and re-evaluates both sides of
    /// every smart-commit test. Kept as the oracle for property tests and
    /// as the baseline the `bench_smooth_hot` bench measures the
    /// incremental path against.
    pub fn smooth_full_recompute(&self, mesh: &mut TriMesh) -> SmoothReport {
        self.smooth_traced_opts(mesh, &mut NullSink, false)
    }

    /// [`smooth`](Self::smooth) while reporting every vertex-record access
    /// to `sink` (one event for the smoothed vertex, one per gathered
    /// neighbour — the stream analysed in §5.2.3).
    pub fn smooth_traced(&self, mesh: &mut TriMesh, sink: &mut impl AccessSink) -> SmoothReport {
        self.smooth_traced_opts(mesh, sink, false)
    }

    /// [`smooth_traced`](Self::smooth_traced) that additionally reports the
    /// per-vertex **quality update** (Algorithm 1, line 13): after moving a
    /// vertex, the smoother re-evaluates the quality of its incident
    /// triangles, streaming the triangle records through the cache. Those
    /// accesses are reported as element ids `num_vertices + t` for triangle
    /// `t`, so the combined stream spans `num_vertices + num_triangles`
    /// element ids. Including them reproduces the shared-L3 pressure of the
    /// paper's full application.
    pub fn smooth_traced_with_quality(
        &self,
        mesh: &mut TriMesh,
        sink: &mut impl AccessSink,
    ) -> SmoothReport {
        self.smooth_traced_opts(mesh, sink, true)
    }

    fn smooth_traced_opts(
        &self,
        mesh: &mut TriMesh,
        sink: &mut impl AccessSink,
        trace_quality: bool,
    ) -> SmoothReport {
        assert_eq!(
            mesh.num_vertices(),
            self.adj.num_vertices(),
            "engine was built for a different mesh"
        );
        let initial_quality = mesh_quality(mesh, &self.adj, self.params.metric);
        let mut report = SmoothReport::starting(initial_quality);
        let mut quality = initial_quality;
        let mut scratch: Vec<Point2> = Vec::new();

        let tri_base = if trace_quality { Some(mesh.num_vertices() as u32) } else { None };
        for iter in 1..=self.params.max_iters {
            match self.params.update {
                UpdateScheme::GaussSeidel => {
                    self.sweep_gauss_seidel(mesh.coords_mut(), sink, tri_base)
                }
                UpdateScheme::Jacobi => {
                    scratch.clear();
                    scratch.extend_from_slice(mesh.coords());
                    self.sweep_jacobi(&scratch, mesh.coords_mut(), sink, tri_base);
                }
            }
            sink.end_iteration();

            let new_quality = mesh_quality(mesh, &self.adj, self.params.metric);
            let improvement = new_quality - quality;
            report.iterations.push(IterationStats { iter, quality: new_quality, improvement });
            quality = new_quality;
            if improvement < self.params.tol {
                report.converged = true;
                break;
            }
        }
        report.final_quality = quality;
        report
    }

    /// Smart-commit validity rule: a move may never turn a currently
    /// valid vertex star (all incident triangles positively oriented)
    /// into an invalid one. The mean-quality test alone cannot guarantee
    /// this — a move can invert one incident triangle (scoring 0) yet
    /// still raise the mean.
    fn commit_keeps_validity(&self, coords: &[Point2], v: u32, candidate: Point2) -> bool {
        let at = |u: u32, pos_v: Point2| if u == v { pos_v } else { coords[u as usize] };
        let min_area = |pos_v: Point2| {
            self.adj
                .triangles_of(v)
                .iter()
                .map(|&t| {
                    let [a, b, c] = self.triangles[t as usize];
                    lms_mesh::geometry::signed_area(at(a, pos_v), at(b, pos_v), at(c, pos_v))
                })
                .fold(f64::INFINITY, f64::min)
        };
        min_area(candidate) > 0.0 || min_area(coords[v as usize]) <= 0.0
    }

    /// Emit the quality-update accesses of vertex `v` (its incident
    /// triangle records, in the `tri_base + t` id range).
    #[inline]
    fn trace_quality_update(&self, v: u32, tri_base: Option<u32>, sink: &mut impl AccessSink) {
        if let Some(base) = tri_base {
            for &t in self.adj.triangles_of(v) {
                sink.access(base + t);
            }
        }
    }

    /// One in-place sweep: each visited vertex moves to the mean of its
    /// neighbours' *current* positions (Equation (1)).
    fn sweep_gauss_seidel(
        &self,
        coords: &mut [Point2],
        sink: &mut impl AccessSink,
        tri_base: Option<u32>,
    ) {
        for &v in &self.visit {
            let ns = self.adj.neighbors(v);
            if ns.is_empty() {
                continue;
            }
            sink.access(v);
            let pv = coords[v as usize];
            let gathered = ns.iter().map(|&w| {
                sink.access(w);
                coords[w as usize]
            });
            let Some(candidate) = weighted_candidate(self.params.weighting, pv, gathered) else {
                continue;
            };
            if self.params.smart {
                let before = self.local_quality(coords, v);
                if self.local_quality_with(coords, v, candidate) >= before
                    && self.commit_keeps_validity(coords, v, candidate)
                {
                    coords[v as usize] = candidate;
                }
            } else {
                coords[v as usize] = candidate;
            }
            self.trace_quality_update(v, tri_base, sink);
        }
    }

    /// One double-buffered sweep: reads `prev`, writes `next`.
    fn sweep_jacobi(
        &self,
        prev: &[Point2],
        next: &mut [Point2],
        sink: &mut impl AccessSink,
        tri_base: Option<u32>,
    ) {
        for &v in &self.visit {
            let ns = self.adj.neighbors(v);
            if ns.is_empty() {
                continue;
            }
            sink.access(v);
            let pv = prev[v as usize];
            let gathered = ns.iter().map(|&w| {
                sink.access(w);
                prev[w as usize]
            });
            let Some(candidate) = weighted_candidate(self.params.weighting, pv, gathered) else {
                continue;
            };
            if self.params.smart {
                // evaluate against the previous sweep's neighbourhood
                let before = self.local_quality(prev, v);
                if self.local_quality_with(prev, v, candidate) >= before
                    && self.commit_keeps_validity(prev, v, candidate)
                {
                    next[v as usize] = candidate;
                }
            } else {
                next[v as usize] = candidate;
            }
            self.trace_quality_update(v, tri_base, sink);
        }
    }
}

impl crate::resident::SerialHost<3> for SmoothEngine {
    type Mesh = TriMesh;
    type Adjacency = Adjacency;
    type Params = SmoothParams;
    type Point = Point2;
    type Domain<'a> = crate::domain::TriDomain<'a>;

    fn build_adjacency(mesh: &TriMesh) -> Adjacency {
        Adjacency::build(mesh)
    }

    fn partition(
        mesh: &TriMesh,
        adj: &Adjacency,
        num_parts: usize,
        method: lms_part::PartitionMethod,
    ) -> lms_part::Partition {
        lms_part::partition_mesh(mesh, adj, num_parts, method)
    }

    fn with_adjacency(mesh: &TriMesh, adj: Adjacency, params: SmoothParams) -> Self {
        SmoothEngine::with_adjacency(mesh, adj, params)
    }

    fn coords_mut(mesh: &mut TriMesh) -> &mut [Point2] {
        mesh.coords_mut()
    }

    fn domain(&self) -> crate::domain::TriDomain<'_> {
        self.domain()
    }

    fn domain_config(&self) -> crate::domain::DomainConfig {
        (&self.params).into()
    }

    fn interior_color_classes(&self) -> &[Vec<u32>] {
        self.interior_color_classes()
    }

    fn pool(&self) -> &crate::pool::PoolCache {
        &self.pool
    }
}

/// Convenience: smooth with default construction in one call.
impl SmoothParams {
    /// Build a [`SmoothEngine`] for `mesh` and run it.
    pub fn smooth(&self, mesh: &mut TriMesh) -> SmoothReport {
        SmoothEngine::new(mesh, self.clone()).smooth(mesh)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{CountSink, VecSink};
    use lms_mesh::generators;

    #[test]
    fn smoothing_improves_quality() {
        let mut m = generators::perturbed_grid(20, 20, 0.4, 1);
        let report = SmoothParams::paper().smooth(&mut m);
        assert!(report.final_quality > report.initial_quality + 0.01);
        assert!(report.converged, "small mesh should converge well before 200 sweeps");
    }

    #[test]
    fn boundary_vertices_never_move() {
        let mut m = generators::perturbed_grid(14, 14, 0.35, 2);
        let before = m.coords().to_vec();
        let engine = SmoothEngine::new(&m, SmoothParams::paper());
        engine.smooth(&mut m);
        for v in engine.boundary().boundary_vertices() {
            assert_eq!(m.coords()[v as usize], before[v as usize], "boundary vertex {v} moved");
        }
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
        SmoothParams::paper().with_max_iters(1).smooth(&mut m);
        let c = m.coords()[0];
        assert!(c.norm() < 1e-12, "centre at {c:?}, expected origin");
    }

    #[test]
    fn smoothing_rarely_inverts_elements() {
        // Plain Laplacian smoothing is not inversion-free in general (that
        // is why "smart" variants exist); on a jittered convex grid the
        // inverted fraction must nevertheless be negligible.
        let mut m = generators::perturbed_grid(25, 25, 0.38, 9);
        SmoothParams::paper().smooth(&mut m);
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
        let rg = SmoothParams::paper().smooth(&mut gs);
        let rj = SmoothParams::paper().with_update(UpdateScheme::Jacobi).smooth(&mut jc);
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
        let mut m = generators::perturbed_grid(10, 10, 0.3, 7);
        let engine = SmoothEngine::new(&m, SmoothParams::paper().with_max_iters(3));
        let expected_per_iter: u64 =
            engine.visit_order().iter().map(|&v| 1 + engine.adjacency().degree(v) as u64).sum();
        let mut sink = CountSink::default();
        let report = engine.smooth_traced(&mut m, &mut sink);
        assert_eq!(sink.iterations as usize, report.num_iterations());
        assert_eq!(sink.count, expected_per_iter * report.num_iterations() as u64);
    }

    #[test]
    fn trace_structure_vertex_then_neighbours() {
        let mut m = generators::perturbed_grid(6, 6, 0.2, 8);
        let engine = SmoothEngine::new(&m, SmoothParams::paper().with_max_iters(1));
        let mut sink = VecSink::new();
        engine.smooth_traced(&mut m, &mut sink);
        // First event is the first visited vertex; following deg(v) events
        // are exactly its neighbours.
        let v0 = engine.visit_order()[0];
        assert_eq!(sink.accesses[0], v0);
        let deg = engine.adjacency().degree(v0);
        let mut nbrs: Vec<u32> = sink.accesses[1..=deg].to_vec();
        nbrs.sort_unstable();
        assert_eq!(&nbrs[..], engine.adjacency().neighbors(v0));
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
            let report = params.smooth(&mut m);
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
        let report = params.smooth(&mut m);
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
        let rp = SmoothParams::paper().smooth(&mut base.clone());
        let rs = SmoothParams::paper().with_smart(true).smooth(&mut base.clone());
        assert!((rp.final_quality - rs.final_quality).abs() < 0.02);
        assert!(rs.total_improvement() > 0.0);
    }

    #[test]
    fn weighted_variants_converge_and_improve_quality() {
        use crate::config::Weighting;
        for weighting in [Weighting::InverseEdgeLength, Weighting::EdgeLength] {
            let mut m = generators::perturbed_grid(16, 16, 0.35, 4);
            let report =
                SmoothParams::paper().with_weighting(weighting).with_max_iters(100).smooth(&mut m);
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
        let ra = SmoothParams::paper().smooth(&mut a);
        let rb = SmoothParams::paper().with_weighting(Weighting::Uniform).smooth(&mut b);
        assert_eq!(a.coords(), b.coords());
        assert_eq!(ra.num_iterations(), rb.num_iterations());
    }

    #[test]
    fn weighted_variants_produce_distinct_geometry() {
        use crate::config::Weighting;
        let base = generators::perturbed_grid(12, 12, 0.35, 6);
        let run = |w: Weighting| {
            let mut m = base.clone();
            SmoothParams::paper().with_weighting(w).with_max_iters(5).smooth(&mut m);
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
            SmoothParams::paper().with_smart(true).with_max_iters(40).smooth(&mut m);
            assert_eq!(count_inverted(&m), 0, "seed {seed}: smart smoothing inverted");
        }
    }

    #[test]
    fn zero_tolerance_runs_to_max_iters() {
        let mut m = generators::perturbed_grid(8, 8, 0.3, 3);
        let report = SmoothParams::paper().with_tol(-1.0).with_max_iters(5).smooth(&mut m);
        assert_eq!(report.num_iterations(), 5);
        assert!(!report.converged);
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
        let m1 = generators::perturbed_grid(6, 6, 0.2, 1);
        let mut m2 = generators::perturbed_grid(7, 7, 0.2, 1);
        let engine = SmoothEngine::new(&m1, SmoothParams::paper());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.smooth(&mut m2);
        }));
        assert!(result.is_err());
    }
}
