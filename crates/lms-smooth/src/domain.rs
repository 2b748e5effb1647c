//! The dimension-generic smoothing domain — one engine stack for
//! triangle and tetrahedral meshes.
//!
//! What the engines read from a mesh comes in two traits, const-generic
//! in the element corner count `C` (3 for triangles, 4 for tetrahedra):
//!
//! * [`ScoringDomain`] — coordinates it can average ([`DomainPoint`]),
//!   the vertex count, element→vertex incidence and per-element quality
//!   scoring (the incremental [`crate::dcache::DomainQualityCache`]
//!   protocol and the lane-batched `score_star`). This is all a resident
//!   run reads once its blocks are built: the drive loop, both
//!   transports, the rank workers and the quality read-out
//!   [`domain_quality`] take only this bound.
//! * [`SmoothDomain`] — the scoring half plus the global topology: CSR
//!   adjacency and the boundary/fixed mask, which the serial incremental
//!   kernel ([`crate::kernel`]) and the resident block build
//!   ([`crate::resident`]) read. Each engine has **one** generic sweep
//!   body instead of a per-dimension copy.
//!
//! The canonical coordinate type of the layer is the const-generic array
//! `[f64; D]` (a blanket [`DomainPoint`] impl covers every `D`);
//! [`lms_mesh::Point2`] implements the same trait by delegating to its
//! operators, so the generic arithmetic is expression-for-expression the
//! arithmetic the pre-refactor 2D engines ran — coordinates stay
//! **bit-identical**, which the property suites pin.
//! `lms-mesh3d` implements the traits for `Point3`/`TetMesh`, which is how
//! the resident engine (and its `ExchangeSchedule` counters) lands in 3D
//! without a second copy of any sweep.
//!
//! Concretely, each dimension has two borrowed views: a topology-free
//! scoring view of (vertex count, element connectivity, quality metric) —
//! [`TriScoring`] here, `TetScoring` in `lms-mesh3d` — and a full domain
//! view that wraps it with (adjacency, boundary) — [`TriDomain`] here,
//! `TetDomain` in `lms-mesh3d`. Views are cheap to construct per call and
//! `Sync`, so a parallel run shares them across workers.

use crate::config::{SmoothParams, UpdateScheme, Weighting};
use crate::for_lane_blocks;
use crate::soa::{score_elements_batched, LANES};
use crate::stats::{IterationStats, SmoothReport};
use crate::trace::AccessSink;
use lms_mesh::geometry::signed_area;
use lms_mesh::quality::QualityMetric;
use lms_mesh::{Adjacency, Boundary, Point2};

/// A coordinate usable by the generic smoothing kernels: componentwise
/// `f64` vector arithmetic plus the Euclidean distance the weighted
/// Laplacian variants need.
///
/// Implementations must be exact componentwise IEEE arithmetic — the
/// engines' bit-identity guarantees ride on `padd`/`pdiv` matching the
/// concrete point types' operators expression for expression.
pub trait DomainPoint: Copy + Clone + Send + Sync + PartialEq + std::fmt::Debug + 'static {
    /// The additive identity (the origin).
    const ZERO: Self;

    /// Number of `f64` components (2 for the plane, 3 for space) — the
    /// `dim` a wire transport declares in its handshake.
    const DIM: usize;

    /// Append the components to a flat buffer (wire encoding order).
    fn push_components(self, out: &mut Vec<f64>);

    /// Rebuild the point from [`Self::DIM`] components — the exact bit
    /// patterns pushed, so transported coordinates stay bit-identical.
    fn from_components(comps: &[f64]) -> Self;

    /// Componentwise sum.
    fn padd(self, other: Self) -> Self;

    /// Componentwise scale by `s`.
    fn pscale(self, s: f64) -> Self;

    /// Componentwise division by `s`.
    fn pdiv(self, s: f64) -> Self;

    /// Euclidean distance to `other`.
    fn pdist(self, other: Self) -> f64;
}

impl DomainPoint for Point2 {
    const ZERO: Self = Point2::ZERO;
    const DIM: usize = 2;

    #[inline]
    fn push_components(self, out: &mut Vec<f64>) {
        out.push(self.x);
        out.push(self.y);
    }

    #[inline]
    fn from_components(comps: &[f64]) -> Self {
        Point2::new(comps[0], comps[1])
    }

    #[inline]
    fn padd(self, other: Self) -> Self {
        self + other
    }

    #[inline]
    fn pscale(self, s: f64) -> Self {
        self * s
    }

    #[inline]
    fn pdiv(self, s: f64) -> Self {
        self / s
    }

    #[inline]
    fn pdist(self, other: Self) -> f64 {
        self.dist(other)
    }
}

/// The layer's canonical coordinate type: a `D`-component array. Lets
/// point-set consumers (partitioners, tests) run the generic machinery
/// without a mesh crate in sight.
impl<const D: usize> DomainPoint for [f64; D] {
    const ZERO: Self = [0.0; D];
    const DIM: usize = D;

    #[inline]
    fn push_components(self, out: &mut Vec<f64>) {
        out.extend_from_slice(&self);
    }

    #[inline]
    fn from_components(comps: &[f64]) -> Self {
        std::array::from_fn(|i| comps[i])
    }

    #[inline]
    fn padd(self, other: Self) -> Self {
        std::array::from_fn(|i| self[i] + other[i])
    }

    #[inline]
    fn pscale(self, s: f64) -> Self {
        std::array::from_fn(|i| self[i] * s)
    }

    #[inline]
    fn pdiv(self, s: f64) -> Self {
        std::array::from_fn(|i| self[i] / s)
    }

    #[inline]
    fn pdist(self, other: Self) -> f64 {
        let mut acc = 0.0;
        for i in 0..D {
            let d = self[i] - other[i];
            acc += d * d;
        }
        acc.sqrt()
    }
}

/// The scoring half of a smoothing domain: coordinates, element→vertex
/// incidence and per-element quality scoring — everything a run needs
/// once its sweeps read part-local blocks instead of the global topology
/// (the resident drive loop, the transports, the quality read-outs). `C`
/// is the corner count of one element (3 = triangle, 4 = tetrahedron).
///
/// The scoring contract: `score_points` returns `(quality, positively
/// oriented)` for one element's corner coordinates, with quality exactly
/// the value the domain's canonical `mesh_quality` sums — the incremental
/// cache and the exact reductions are built on it.
pub trait ScoringDomain<const C: usize>: Sync {
    /// Coordinate type of the domain.
    type Point: DomainPoint;

    /// Number of vertices.
    fn num_vertices(&self) -> usize;

    /// Element→vertex incidence: corner ids of every element.
    fn elements(&self) -> &[[u32; C]];

    /// Score one element from its corner coordinates:
    /// `(quality, positively_oriented)`.
    fn score_points(&self, pts: [Self::Point; C]) -> (f64, bool);

    /// Number of elements.
    #[inline]
    fn num_elements(&self) -> usize {
        self.elements().len()
    }

    /// Score element `corners` on `coords` (any coordinate array indexed
    /// by the corner ids — the global mesh or a part-local block).
    #[inline]
    fn score(&self, coords: &[Self::Point], corners: [u32; C]) -> (f64, bool) {
        self.score_points(corners.map(|c| coords[c as usize]))
    }

    /// [`score`](Self::score) with vertex `v`'s position overridden by
    /// `pos_v` — candidate evaluation without touching the buffer.
    #[inline]
    fn score_with(
        &self,
        coords: &[Self::Point],
        corners: [u32; C],
        v: u32,
        pos_v: Self::Point,
    ) -> (f64, bool) {
        self.score_points(corners.map(|c| if c == v { pos_v } else { coords[c as usize] }))
    }

    /// Batched element scoring by id: score element `corners[ids[i]]`
    /// (corner ids into the point slice `coords`) into `out[i]` — a vertex star, a
    /// dirty queue, any id list, in list order; ids may repeat.
    /// Implementations process fixed-width [`LANES`]-wide blocks where
    /// every lane runs the **identical** scalar operation sequence on its
    /// own element, so the results are bit-identical to
    /// [`score_star_per_id`] — the default is exactly that, and the
    /// property suites pin the overrides against it. Every slot of `out`
    /// is written before the call returns.
    fn score_star(
        &self,
        coords: &[Self::Point],
        corners: &[[u32; C]],
        ids: &[u32],
        out: &mut [(f64, bool)],
    ) {
        score_star_per_id(self, coords, corners, ids, out);
    }
}

/// A smoothing domain: the [`ScoringDomain`] plus the global topology the
/// serial sweeps and the resident block build read — CSR
/// adjacency and the boundary (fixed-vertex) mask.
pub trait SmoothDomain<const C: usize>: ScoringDomain<C> {
    /// Sorted neighbour vertices of `v` (CSR row).
    fn neighbors(&self, v: u32) -> &[u32];

    /// Sorted incident elements of `v` (CSR row).
    fn elements_of(&self, v: u32) -> &[u32];

    /// True when `v` may move (not on the fixed boundary).
    fn is_interior(&self, v: u32) -> bool;
}

/// [`ScoringDomain::score_star`] as one [`ScoringDomain::score`] per id
/// — the trait default, the ablation metrics' path, and what every sweep
/// scores through under [`DomainConfig::scalar_scoring`], the oracle of
/// the lane-batched kernels.
#[inline]
pub fn score_star_per_id<const C: usize, D: ScoringDomain<C> + ?Sized>(
    dom: &D,
    coords: &[D::Point],
    corners: &[[u32; C]],
    ids: &[u32],
    out: &mut [(f64, bool)],
) {
    debug_assert_eq!(ids.len(), out.len());
    for (slot, &t) in out.iter_mut().zip(ids) {
        *slot = dom.score(coords, corners[t as usize]);
    }
}

/// The 2D topology-free scoring view: vertex count + borrowed
/// connectivity + metric — what a resident run scores through once the
/// global adjacency and boundary are gone.
#[derive(Debug, Clone, Copy)]
pub struct TriScoring<'a> {
    num_vertices: usize,
    triangles: &'a [[u32; 3]],
    metric: QualityMetric,
}

impl<'a> TriScoring<'a> {
    /// Bundle a triangle mesh's vertex count, connectivity and metric.
    pub fn new(num_vertices: usize, triangles: &'a [[u32; 3]], metric: QualityMetric) -> Self {
        TriScoring { num_vertices, triangles, metric }
    }
}

impl ScoringDomain<3> for TriScoring<'_> {
    type Point = Point2;

    #[inline]
    fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    #[inline]
    fn elements(&self) -> &[[u32; 3]] {
        self.triangles
    }

    #[inline]
    fn score_points(&self, p: [Point2; 3]) -> (f64, bool) {
        (self.metric.triangle_quality(p[0], p[1], p[2]), signed_area(p[0], p[1], p[2]) > 0.0)
    }

    #[inline]
    fn score_star(
        &self,
        coords: &[Point2],
        corners: &[[u32; 3]],
        ids: &[u32],
        out: &mut [(f64, bool)],
    ) {
        match self.metric {
            QualityMetric::EdgeLengthRatio => tri_elr_star(coords, corners, ids, out),
            // the ablation metrics stay on the per-element scalar sequence
            _ => score_star_per_id(self, coords, corners, ids, out),
        }
    }
}

/// The 2D triangle-mesh domain view: borrowed adjacency + boundary around
/// the [`TriScoring`] view. [`crate::SmoothEngine`] builds one per call.
#[derive(Debug, Clone, Copy)]
pub struct TriDomain<'a> {
    adj: &'a Adjacency,
    boundary: &'a Boundary,
    scoring: TriScoring<'a>,
}

impl<'a> TriDomain<'a> {
    /// Bundle a triangle mesh's precomputed topology into a domain view.
    pub fn new(
        adj: &'a Adjacency,
        boundary: &'a Boundary,
        triangles: &'a [[u32; 3]],
        metric: QualityMetric,
    ) -> Self {
        TriDomain { adj, boundary, scoring: TriScoring::new(adj.num_vertices(), triangles, metric) }
    }
}

impl ScoringDomain<3> for TriDomain<'_> {
    type Point = Point2;

    #[inline]
    fn num_vertices(&self) -> usize {
        self.scoring.num_vertices()
    }

    #[inline]
    fn elements(&self) -> &[[u32; 3]] {
        self.scoring.elements()
    }

    #[inline]
    fn score_points(&self, p: [Point2; 3]) -> (f64, bool) {
        self.scoring.score_points(p)
    }

    #[inline]
    fn score_star(
        &self,
        coords: &[Point2],
        corners: &[[u32; 3]],
        ids: &[u32],
        out: &mut [(f64, bool)],
    ) {
        self.scoring.score_star(coords, corners, ids, out);
    }
}

impl SmoothDomain<3> for TriDomain<'_> {
    #[inline]
    fn neighbors(&self, v: u32) -> &[u32] {
        self.adj.neighbors(v)
    }

    #[inline]
    fn elements_of(&self, v: u32) -> &[u32] {
        self.adj.triangles_of(v)
    }

    #[inline]
    fn is_interior(&self, v: u32) -> bool {
        self.boundary.is_interior(v)
    }
}

/// Gather one lane block's corner coordinates into per-corner lane
/// columns `[ax, ay, bx, by, cx, cy]` — the indexed loads are inherently
/// scalar (the corner ids are data-dependent), so they are kept apart
/// from the arithmetic, which then runs on fixed-size columns with no
/// loads, no branches and no cross-lane flow.
#[inline(always)]
fn tri_columns(pts: &[Point2], corners: &[[u32; 3]], block: &[u32; LANES]) -> [[f64; LANES]; 6] {
    let mut cols = [[0.0f64; LANES]; 6];
    for l in 0..LANES {
        for (k, &i) in corners[block[l] as usize].iter().enumerate() {
            let p = pts[i as usize];
            cols[2 * k][l] = p.x;
            cols[2 * k + 1][l] = p.y;
        }
    }
    cols
}

/// Lane-batched edge-length-ratio scoring of the triangles `ids` names,
/// one [`LANES`]-wide block at a time ([`for_lane_blocks!`]): explicit
/// AVX arithmetic where the host has it ([`tri_elr_star_avx`]), portable
/// lane loops otherwise ([`tri_elr_star_portable`]).
///
/// Every lane runs the exact scalar sequence of
/// `QualityMetric::triangle_quality` — `dist_sq` expression order, the
/// shared `edge_length_ratio_from_sq` core (`max`/`min` on squared
/// lengths, two square roots, degenerate select), and the
/// `signed_area > 0` orientation test with its `0.5 *` factor kept (the
/// factor can flip the sign test for subnormal areas, so dropping it
/// would not be bit-identical). Packed IEEE sqrt/divide/multiply round
/// exactly like their scalar forms, so results are bit-identical to the
/// per-element path by construction.
#[inline]
fn tri_elr_star(pts: &[Point2], corners: &[[u32; 3]], ids: &[u32], out: &mut [(f64, bool)]) {
    // One runtime-cached feature test per *call*, and one
    // `#[target_feature]` call covering the whole id list: dispatching per
    // 4-lane block instead costs a call + `vzeroupper` + AVX↔SSE
    // transition every 4 elements, which measures slower than scalar.
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx") {
        // SAFETY: AVX support verified above (cached runtime check) — the
        // function's only requirement.
        unsafe { tri_elr_star_avx(pts, corners, ids, out) };
        return;
    }
    tri_elr_star_portable(pts, corners, ids, out);
}

/// The portable lanes of [`tri_elr_star`]: pure element-wise math over
/// the [`tri_columns`], which the auto-vectorizer turns into packed 2×f64
/// ops, while the square-root/divide phase (the expensive instructions of
/// this metric, which LLVM declines to vectorize on its own) goes through
/// the explicit-SIMD [`crate::soa::sqrt_div_lanes`].
#[inline]
fn tri_elr_star_portable(
    pts: &[Point2],
    corners: &[[u32; 3]],
    ids: &[u32],
    out: &mut [(f64, bool)],
) {
    for_lane_blocks!((ids, out) => |block, slots| {
        let [ax, ay, bx, by, cx, cy] = tri_columns(pts, corners, block);
        let mut min_sq = [0.0f64; LANES];
        let mut max_sq = [0.0f64; LANES];
        let mut area2 = [0.0f64; LANES];
        for l in 0..LANES {
            let e0x = ax[l] - bx[l];
            let e0y = ay[l] - by[l];
            let d0 = e0x * e0x + e0y * e0y;
            let e1x = bx[l] - cx[l];
            let e1y = by[l] - cy[l];
            let d1 = e1x * e1x + e1y * e1y;
            let e2x = cx[l] - ax[l];
            let e2y = cy[l] - ay[l];
            let d2 = e2x * e2x + e2y * e2y;
            max_sq[l] = d0.max(d1).max(d2);
            min_sq[l] = d0.min(d1).min(d2);
            area2[l] = (bx[l] - ax[l]) * (cy[l] - ay[l]) - (by[l] - ay[l]) * (cx[l] - ax[l]);
        }
        let mut q = [0.0f64; LANES];
        crate::soa::sqrt_div_lanes(&min_sq, &max_sq, &mut q);
        for (l, slot) in slots.iter_mut().enumerate() {
            *slot = (if max_sq[l] <= 0.0 { 0.0 } else { q[l] }, 0.5 * area2[l] > 0.0);
        }
    });
}

/// [`tri_elr_star_portable`] in explicit AVX — the same value sequence
/// spelled out in 256-bit ops because LLVM auto-vectorizes neither the
/// square roots nor the `maxnum`/`minnum` chains at the SSE2 baseline.
///
/// Bit-identity notes (each packed op is matched to its scalar twin):
/// - `sub`/`mul`/`add`/`sqrt`/`div` are IEEE correctly rounded in both
///   scalar and packed form — identical bits, subnormals included, and
///   Rust emits no FMA contraction to differ from.
/// - `f64::max`/`f64::min` are IEEE `maxNum`/`minNum`, but `maxpd` picks
///   the *second* operand when either input is NaN, so the raw packed
///   op is followed by a blend that restores the first operand when the
///   second is NaN. The ±0 ambiguity is moot: squared edge lengths are
///   sums of products of identical factors, which are never `-0.0`.
/// - The degenerate select and the orientation test use ordered-quiet
///   compares (`_CMP_LE_OQ`/`_CMP_GT_OQ`), which are false on NaN —
///   exactly how `max_sq <= 0.0` and `0.5 * area2 > 0.0` behave.
///
/// # Safety
/// The CPU must support AVX. Memory is touched only through
/// bounds-checked slice indexing and whole `[f64; LANES]` local arrays
/// (every `loadu`/`storeu` below).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
#[inline]
unsafe fn tri_elr_star_avx(
    pts: &[Point2],
    corners: &[[u32; 3]],
    ids: &[u32],
    out: &mut [(f64, bool)],
) {
    use core::arch::x86_64::*;
    const { assert!(LANES == 4, "one 256-bit register holds exactly one block") };
    // maxNum/minNum: packed max/min, then restore `a` where `b` is NaN
    // (cmp-unord on `b` with itself) to match `f64::max`/`f64::min`.
    // Unsafe only as AVX code: called from this function alone, they share
    // its one requirement.
    #[inline(always)]
    unsafe fn maxnum(a: __m256d, b: __m256d) -> __m256d {
        _mm256_blendv_pd(_mm256_max_pd(a, b), a, _mm256_cmp_pd::<_CMP_UNORD_Q>(b, b))
    }
    #[inline(always)]
    unsafe fn minnum(a: __m256d, b: __m256d) -> __m256d {
        _mm256_blendv_pd(_mm256_min_pd(a, b), a, _mm256_cmp_pd::<_CMP_UNORD_Q>(b, b))
    }
    let zero = _mm256_setzero_pd();
    let half = _mm256_set1_pd(0.5);
    for_lane_blocks!((ids, out) => |block, slots| {
        let cols = tri_columns(pts, corners, block);
        let ax = _mm256_loadu_pd(cols[0].as_ptr());
        let ay = _mm256_loadu_pd(cols[1].as_ptr());
        let bx = _mm256_loadu_pd(cols[2].as_ptr());
        let by = _mm256_loadu_pd(cols[3].as_ptr());
        let cx = _mm256_loadu_pd(cols[4].as_ptr());
        let cy = _mm256_loadu_pd(cols[5].as_ptr());
        // d0 = (ax-bx)^2 + (ay-by)^2, d1, d2: `dist_sq` expression order
        let e0x = _mm256_sub_pd(ax, bx);
        let e0y = _mm256_sub_pd(ay, by);
        let d0 = _mm256_add_pd(_mm256_mul_pd(e0x, e0x), _mm256_mul_pd(e0y, e0y));
        let e1x = _mm256_sub_pd(bx, cx);
        let e1y = _mm256_sub_pd(by, cy);
        let d1 = _mm256_add_pd(_mm256_mul_pd(e1x, e1x), _mm256_mul_pd(e1y, e1y));
        let e2x = _mm256_sub_pd(cx, ax);
        let e2y = _mm256_sub_pd(cy, ay);
        let d2 = _mm256_add_pd(_mm256_mul_pd(e2x, e2x), _mm256_mul_pd(e2y, e2y));
        let max_sq = maxnum(maxnum(d0, d1), d2);
        let min_sq = minnum(minnum(d0, d1), d2);
        // area2 = (bx-ax)*(cy-ay) - (by-ay)*(cx-ax): `orient2d` sequence
        let area2 = _mm256_sub_pd(
            _mm256_mul_pd(_mm256_sub_pd(bx, ax), _mm256_sub_pd(cy, ay)),
            _mm256_mul_pd(_mm256_sub_pd(by, ay), _mm256_sub_pd(cx, ax)),
        );
        let q = _mm256_div_pd(_mm256_sqrt_pd(min_sq), _mm256_sqrt_pd(max_sq));
        let degenerate = _mm256_cmp_pd::<_CMP_LE_OQ>(max_sq, zero);
        let score = _mm256_blendv_pd(q, zero, degenerate);
        let half_area = _mm256_mul_pd(area2, half);
        let pos_mask = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_GT_OQ>(half_area, zero));
        let mut s = [0.0f64; LANES];
        _mm256_storeu_pd(s.as_mut_ptr(), score);
        for (l, slot) in slots.iter_mut().enumerate() {
            *slot = (s[l], pos_mask & (1 << l) != 0);
        }
    });
}

/// The dimension-free slice of a smoothing parameter set — what the
/// generic engines actually consume (the metric lives in the domain).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DomainConfig {
    /// Convergence tolerance on the per-sweep quality improvement.
    pub tol: f64,
    /// Hard sweep cap.
    pub max_iters: usize,
    /// Gauss–Seidel (in place) or Jacobi (double-buffered) commits.
    pub update: UpdateScheme,
    /// Smart (quality-guarded, inversion-safe) commit rule.
    pub smart: bool,
    /// Neighbour weighting of the Laplacian update.
    pub weighting: Weighting,
    /// Score every star one element at a time ([`score_star_per_id`]),
    /// on the sweep copy compiled without AVX, instead of through the
    /// lane-batched [`ScoringDomain::score_star`]: the before/after
    /// baseline of the benches and the oracle of the property suites.
    /// Bit-identical to the default either way.
    pub scalar_scoring: bool,
}

impl From<&SmoothParams> for DomainConfig {
    fn from(p: &SmoothParams) -> Self {
        DomainConfig {
            tol: p.tol,
            max_iters: p.max_iters,
            update: p.update,
            smart: p.smart,
            weighting: p.weighting,
            scalar_scoring: p.scalar_scoring,
        }
    }
}

/// New position of a vertex at `pv` from its neighbours' positions under
/// `weighting` — the weighted Laplacian update shared by every engine, in
/// every dimension.
///
/// Returns `None` when no position can be formed: an empty neighbour
/// iterator, or a total weight of zero (e.g. [`Weighting::EdgeLength`]
/// with every neighbour coincident with `pv`) — callers skip the vertex.
/// The [`Weighting::Uniform`] path is the exact `sum / n` expression of
/// Equation (1).
#[inline]
pub fn weighted_candidate_on<P: DomainPoint>(
    weighting: Weighting,
    pv: P,
    nbrs: impl Iterator<Item = P>,
) -> Option<P> {
    match weighting {
        Weighting::Uniform => {
            let mut sum = P::ZERO;
            let mut n = 0usize;
            for p in nbrs {
                sum = sum.padd(p);
                n += 1;
            }
            (n > 0).then(|| sum.pdiv(n as f64))
        }
        Weighting::InverseEdgeLength | Weighting::EdgeLength => {
            let mut acc = P::ZERO;
            let mut total = 0.0;
            for p in nbrs {
                let d = pv.pdist(p);
                let w = match weighting {
                    Weighting::InverseEdgeLength => {
                        // clamp so a (nearly) coincident neighbour does not
                        // turn into an infinite weight
                        1.0 / d.max(1e-12)
                    }
                    _ => d,
                };
                acc = acc.padd(p.pscale(w));
                total += w;
            }
            (total > 0.0).then(|| acc.pdiv(total))
        }
    }
}

/// The canonical global quality as an element-order scatter: fed every
/// element's quality in ascending element order, it yields the per-vertex
/// mean of incident element qualities, then the mean over all vertices —
/// the value (and the operation sequence) of the CSR reduction
/// `lms_mesh::quality::mesh_quality` and its 3D twin run, with no
/// per-element table and no vertex→element rows.
///
/// Each vertex's accumulator receives `q_t` for its incident elements in
/// ascending `t`, once per corner slot the vertex fills (a repeated corner
/// counts twice), exactly as `lms_mesh::adjacency::vertex_rows` lists
/// them; it starts from the value `Iterator::sum::<f64>` starts from, so
/// every per-vertex sum has the bits of the row sum. Dividing by the
/// incidence count and summing in vertex order then replays the CSR
/// reduction bit for bit (pinned against it by `checks`).
pub(crate) struct QualityScatter {
    sum: Vec<f64>,
    count: Vec<u32>,
}

impl QualityScatter {
    /// Empty accumulators for `num_vertices` vertices.
    pub(crate) fn new(num_vertices: usize) -> Self {
        let seed = std::iter::empty::<f64>().sum::<f64>();
        QualityScatter { sum: vec![seed; num_vertices], count: vec![0; num_vertices] }
    }

    /// Scatter the quality `q` of the next element (`corners`).
    #[inline]
    pub(crate) fn add<const C: usize>(&mut self, corners: &[u32; C], q: f64) {
        for &c in corners {
            self.sum[c as usize] += q;
            self.count[c as usize] += 1;
        }
    }

    /// The global quality: per-vertex means (0 for a vertex in no
    /// element), summed in vertex order, over the vertex count.
    pub(crate) fn quality(&self) -> f64 {
        let n = self.sum.len();
        if n == 0 {
            return 0.0;
        }
        let mut total = 0.0;
        for (&sum, &count) in self.sum.iter().zip(&self.count) {
            total += if count == 0 { 0.0 } else { sum / count as f64 };
        }
        total / n as f64
    }
}

/// The canonical global quality of a domain, scored from scratch on
/// `coords` (through the lane-batched
/// [`score_corners_batched`](crate::soa::score_corners_batched), element
/// order kept) and
/// reduced by an element-order scatter into per-vertex sums — no
/// per-element table, no vertex→element rows, and bit-identical to the
/// concrete `mesh_quality` CSR reductions (the scatter adds each vertex's
/// incident qualities in its row order, from the row sum's seed).
pub fn domain_quality<const C: usize, D: ScoringDomain<C>>(dom: &D, coords: &[D::Point]) -> f64 {
    let elements = dom.elements();
    let mut scatter = QualityScatter::new(dom.num_vertices());
    let mut t = 0;
    score_elements_batched(dom, coords, 0..elements.len() as u32, |(q, _)| {
        scatter.add(&elements[t], q);
        t += 1;
    });
    scatter.quality()
}

/// Mean guarded quality of `v`'s element star with `v` at `pos_v`
/// (inverted elements score 0) — the smart guard's "before"/"after"
/// evaluations of the reference path.
fn local_quality_with<const C: usize, D: SmoothDomain<C>>(
    dom: &D,
    coords: &[D::Point],
    v: u32,
    pos_v: D::Point,
) -> f64 {
    let ts = dom.elements_of(v);
    if ts.is_empty() {
        return 0.0;
    }
    ts.iter()
        .map(|&t| {
            let (q, pos) = dom.score_with(coords, dom.elements()[t as usize], v, pos_v);
            if pos {
                q
            } else {
                0.0
            }
        })
        .sum::<f64>()
        / ts.len() as f64
}

/// True when every element of `v`'s star is positively oriented with `v`
/// at `pos_v`.
fn star_valid_with<const C: usize, D: SmoothDomain<C>>(
    dom: &D,
    coords: &[D::Point],
    v: u32,
    pos_v: D::Point,
) -> bool {
    dom.elements_of(v)
        .iter()
        .all(|&t| dom.score_with(coords, dom.elements()[t as usize], v, pos_v).1)
}

/// The **reference** smoothing path: full-mesh quality recompute every
/// sweep, mean-vs-mean smart guard, per-access tracing — Algorithm 1 as
/// written, for any [`SmoothDomain`], and the only reference sweep body:
/// the serial engine's full-recompute and traced runs land here in every
/// dimension, and the incremental kernel is property-tested against it.
///
/// Every visited vertex reports itself, then each gathered neighbour, to
/// `sink`; with `trace_elements` it then also reports its incident
/// elements as ids `num_vertices + t` (the quality update of Algorithm 1,
/// line 13).
pub(crate) fn smooth_reference_on<const C: usize, D: SmoothDomain<C>, S: AccessSink>(
    dom: &D,
    cfg: &DomainConfig,
    visit: &[u32],
    coords: &mut [D::Point],
    sink: &mut S,
    trace_elements: bool,
) -> SmoothReport {
    assert_eq!(coords.len(), dom.num_vertices(), "engine was built for a different mesh");
    let initial_quality = domain_quality(dom, coords);
    let mut report = SmoothReport::starting(initial_quality);
    let mut quality = initial_quality;
    let mut scratch: Vec<D::Point> = Vec::new();
    let elem_base = trace_elements.then_some(dom.num_vertices() as u32);

    for iter in 1..=cfg.max_iters {
        match cfg.update {
            UpdateScheme::GaussSeidel => {
                reference_sweep_gs(dom, cfg, visit, coords, sink, elem_base);
            }
            UpdateScheme::Jacobi => {
                scratch.clear();
                scratch.extend_from_slice(coords);
                reference_sweep_jacobi(dom, cfg, visit, &scratch, coords, sink, elem_base);
            }
        }
        sink.end_iteration();

        let new_quality = domain_quality(dom, coords);
        let improvement = new_quality - quality;
        report.iterations.push(IterationStats { iter, quality: new_quality, improvement });
        quality = new_quality;
        if improvement < cfg.tol {
            report.converged = true;
            break;
        }
    }
    report.final_quality = quality;
    report
}

/// Report `v`'s incident elements as ids `base + t` when element tracing
/// is on.
#[inline]
fn trace_star<const C: usize, D: SmoothDomain<C>, S: AccessSink>(
    dom: &D,
    v: u32,
    elem_base: Option<u32>,
    sink: &mut S,
) {
    if let Some(base) = elem_base {
        for &t in dom.elements_of(v) {
            sink.access(base + t);
        }
    }
}

/// One in-place (Gauss–Seidel) reference sweep: later vertices see
/// already-committed neighbours.
fn reference_sweep_gs<const C: usize, D: SmoothDomain<C>, S: AccessSink>(
    dom: &D,
    cfg: &DomainConfig,
    visit: &[u32],
    coords: &mut [D::Point],
    sink: &mut S,
    elem_base: Option<u32>,
) {
    for &v in visit {
        let ns = dom.neighbors(v);
        if ns.is_empty() {
            continue;
        }
        sink.access(v);
        let pv = coords[v as usize];
        let gathered = ns.iter().map(|&w| {
            sink.access(w);
            coords[w as usize]
        });
        let Some(candidate) = weighted_candidate_on(cfg.weighting, pv, gathered) else {
            continue;
        };
        if cfg.smart {
            let before = local_quality_with(dom, coords, v, pv);
            let commit = local_quality_with(dom, coords, v, candidate) >= before
                && (star_valid_with(dom, coords, v, candidate)
                    || !star_valid_with(dom, coords, v, pv));
            if commit {
                coords[v as usize] = candidate;
            }
        } else {
            coords[v as usize] = candidate;
        }
        trace_star(dom, v, elem_base, sink);
    }
}

/// One double-buffered (Jacobi) reference sweep: reads `prev`, writes
/// `next`.
fn reference_sweep_jacobi<const C: usize, D: SmoothDomain<C>, S: AccessSink>(
    dom: &D,
    cfg: &DomainConfig,
    visit: &[u32],
    prev: &[D::Point],
    next: &mut [D::Point],
    sink: &mut S,
    elem_base: Option<u32>,
) {
    for &v in visit {
        let ns = dom.neighbors(v);
        if ns.is_empty() {
            continue;
        }
        sink.access(v);
        let pv = prev[v as usize];
        let gathered = ns.iter().map(|&w| {
            sink.access(w);
            prev[w as usize]
        });
        let Some(candidate) = weighted_candidate_on(cfg.weighting, pv, gathered) else {
            continue;
        };
        if cfg.smart {
            let before = local_quality_with(dom, prev, v, pv);
            let commit = local_quality_with(dom, prev, v, candidate) >= before
                && (star_valid_with(dom, prev, v, candidate) || !star_valid_with(dom, prev, v, pv));
            if commit {
                next[v as usize] = candidate;
            }
        } else {
            next[v as usize] = candidate;
        }
        trace_star(dom, v, elem_base, sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checks;
    use lms_mesh::generators;

    #[test]
    fn array_points_match_point2_arithmetic_bitwise() {
        let ps = [(0.3, -1.25), (1e-9, 7.5), (2.0, 3.0), (-0.125, 0.75)];
        let mut sum2 = Point2::ZERO;
        let mut sumd = <[f64; 2]>::ZERO;
        for &(x, y) in &ps {
            sum2 = sum2.padd(Point2::new(x, y));
            sumd = sumd.padd([x, y]);
        }
        let m2 = sum2.pdiv(ps.len() as f64);
        let md = sumd.pdiv(ps.len() as f64);
        assert_eq!(m2.x.to_bits(), md[0].to_bits());
        assert_eq!(m2.y.to_bits(), md[1].to_bits());
        assert_eq!(
            Point2::new(0.1, 0.2).pdist(Point2::new(-3.0, 4.5)).to_bits(),
            [0.1, 0.2].pdist([-3.0, 4.5]).to_bits()
        );
    }

    #[test]
    fn tri_domain_quality_matches_mesh_quality_bitwise() {
        for seed in [1u64, 5, 11] {
            let m = generators::perturbed_grid(13, 11, 0.35, seed);
            let adj = Adjacency::build(&m);
            let boundary = Boundary::detect(&m);
            let dom =
                TriDomain::new(&adj, &boundary, m.triangles(), QualityMetric::EdgeLengthRatio);
            let generic = domain_quality(&dom, m.coords());
            let concrete =
                lms_mesh::quality::mesh_quality(&m, &adj, QualityMetric::EdgeLengthRatio);
            assert_eq!(generic.to_bits(), concrete.to_bits(), "seed {seed}");
        }
    }

    /// The element-order scatter of [`domain_quality`] against the CSR
    /// reduction it replaced, bit for bit, on perturbed grids.
    #[test]
    fn scatter_quality_equals_the_csr_oracle_on_grids() {
        for (nx, ny, seed) in [(13, 11, 1u64), (20, 7, 5), (9, 16, 11), (31, 29, 23)] {
            let m = generators::perturbed_grid(nx, ny, 0.4, seed);
            let adj = Adjacency::build(&m);
            let boundary = Boundary::detect(&m);
            for metric in [QualityMetric::EdgeLengthRatio, QualityMetric::MinAngle] {
                let dom = TriDomain::new(&adj, &boundary, m.triangles(), metric);
                checks::domain_quality_equals_the_csr_oracle(&dom, m.coords());
            }
        }
    }

    /// A vertex in no element (an empty row: it adds 0 to the total) and
    /// elements that repeat a corner (the corner's row lists the element
    /// once per slot, so the scatter adds its quality once per slot).
    #[test]
    fn scatter_quality_equals_the_csr_oracle_on_an_isolated_vertex_and_repeated_corners() {
        let elements = vec![[0, 1, 2], [0, 0, 1], [2, 3, 4], [1, 3, 4], [4, 4, 4], [3, 1, 3]];
        let dom = checks::ValueDomain::new(6, elements);
        assert!(dom.elements_of(5).is_empty());
        assert_eq!(dom.elements_of(4), [2, 3, 4, 4, 4]);
        let coords = [[0.3], [1.7], [-2.5], [0.125], [9.0], [4.0]];
        checks::domain_quality_equals_the_csr_oracle(&dom, &coords);
    }

    /// Scores drawn from a special-value corpus (`±0.0`, NaN, `±inf`,
    /// subnormals, huge and plain values) over random elements with
    /// repeated corners and isolated vertices. The corpus without NaN is
    /// compared bit for bit; with NaN the results must both be NaN.
    #[test]
    fn scatter_quality_equals_the_csr_oracle_on_special_scores() {
        let signed_zeros = [-0.0, 0.0, -0.0, 1e-310, 0.75, -3.5, 0.1];
        let specials = [-0.0, 0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e308, -1e308, 0.3];
        let mut rng = proptest::test_runner::TestRng::for_test("scatter_special_scores");
        for corpus in [&signed_zeros[..], &specials[..]] {
            for round in 0..40 {
                let n = 3 + rng.index(30);
                let elements: Vec<[u32; 3]> = (0..1 + rng.index(3 * n))
                    .map(|_| std::array::from_fn(|_| rng.index(n - 1) as u32))
                    .collect();
                let coords: Vec<[f64; 1]> =
                    (0..n).map(|_| [corpus[rng.index(corpus.len())]]).collect();
                let dom = checks::ValueDomain::new(n, elements);
                assert!(dom.elements_of(n as u32 - 1).is_empty(), "round {round}");
                checks::domain_quality_equals_the_csr_oracle(&dom, &coords);
            }
        }
        // every score `-0.0`: each row sums to the seed's sign
        let dom = checks::ValueDomain::new(4, vec![[0, 1, 2], [1, 2, 2]]);
        checks::domain_quality_equals_the_csr_oracle(&dom, &[[-0.0]; 4]);
    }

    /// `score` / `score_with` are exactly the metric plus the orientation
    /// test, evaluated from scratch on the (substituted) corner points.
    #[test]
    fn tri_domain_scoring_matches_quality_cache() {
        let m = generators::perturbed_grid(9, 9, 0.3, 3);
        let adj = Adjacency::build(&m);
        let boundary = Boundary::detect(&m);
        let metric = QualityMetric::EdgeLengthRatio;
        let dom = TriDomain::new(&adj, &boundary, m.triangles(), metric);
        let direct =
            |[a, b, c]: [Point2; 3]| (metric.triangle_quality(a, b, c), signed_area(a, b, c) > 0.0);
        for (t, &tri) in m.triangles().iter().enumerate() {
            let (qa, pa) = dom.score(m.coords(), tri);
            let (qb, pb) = direct(tri.map(|c| m.coords()[c as usize]));
            assert_eq!(qa.to_bits(), qb.to_bits(), "triangle {t}");
            assert_eq!(pa, pb);
            let v = tri[0];
            let moved = Point2::new(0.123, 0.456);
            let (qa, pa) = dom.score_with(m.coords(), tri, v, moved);
            let (qb, pb) = direct(tri.map(|c| if c == v { moved } else { m.coords()[c as usize] }));
            assert_eq!(qa.to_bits(), qb.to_bits());
            assert_eq!(pa, pb);
        }
    }

    /// The scalar oracle, the portable lanes and (where the host has it)
    /// the AVX body, each called directly on a corpus of special values:
    /// every pair of NaN, ±inf, ±0, subnormals, `±1e200` and a few plain
    /// numbers is a vertex; triangles are random triples, the same triples
    /// reversed (inverted), and coincident corners. Scores must agree bit
    /// for bit — except that two NaN qualities count as equal, since which
    /// operand's payload a NaN result carries is the compiler's choice.
    #[test]
    fn tri_elr_kernels_agree_on_special_values() {
        let specials = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            0.0,
            f64::from_bits(1),
            -f64::MIN_POSITIVE / 2.0,
            1e200,
            -1e200,
            1e-200,
            1.0,
            -2.5,
            0.3,
        ];
        let n = specials.len();
        let mut pts = Vec::new();
        for &x in &specials {
            for &y in &specials {
                pts.push(Point2::new(x, y));
            }
        }
        let mut rng = proptest::test_runner::TestRng::for_test("tri_elr_special_values");
        let mut corners: Vec<[u32; 3]> = Vec::new();
        for _ in 0..3000 {
            let [a, b, c] = std::array::from_fn(|_| rng.index(n * n) as u32);
            corners.extend([[a, b, c], [a, c, b], [a, a, b], [a, b, b], [a, a, a]]);
        }
        // a list that is not a whole number of blocks, ending on the last row
        let ids: Vec<u32> = (1..corners.len() as u32).collect();

        let at = |i: u32| pts[i as usize];
        let scalar: Vec<(f64, bool)> = ids
            .iter()
            .map(|&t| {
                let [a, b, c] = corners[t as usize].map(at);
                (
                    QualityMetric::EdgeLengthRatio.triangle_quality(a, b, c),
                    signed_area(a, b, c) > 0.0,
                )
            })
            .collect();
        let same = |kernel: &str, got: &[(f64, bool)]| {
            for (i, (s, g)) in scalar.iter().zip(got).enumerate() {
                let q_same = s.0.to_bits() == g.0.to_bits() || (s.0.is_nan() && g.0.is_nan());
                let [a, b, c] = corners[ids[i] as usize].map(at);
                assert!(q_same && s.1 == g.1, "{kernel}: {a:?} {b:?} {c:?}: {s:?} vs {g:?}");
            }
        };
        let mut out = vec![(f64::NAN, false); ids.len()];
        tri_elr_star_portable(&pts, &corners, &ids, &mut out);
        same("portable", &out);
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx") {
            out.fill((f64::NAN, false));
            // SAFETY: AVX support verified on the line above.
            unsafe { tri_elr_star_avx(&pts, &corners, &ids, &mut out) };
            same("avx", &out);
        }
    }

    fn p(x: f64, y: f64) -> Point2 {
        Point2::new(x, y)
    }

    #[test]
    fn uniform_is_the_plain_mean() {
        let nbrs = [p(0.0, 0.0), p(2.0, 0.0), p(1.0, 3.0)];
        let got = weighted_candidate_on(Weighting::Uniform, p(0.5, 0.5), nbrs.into_iter()).unwrap();
        // identical expression to the engines: sum / n
        let mut sum = Point2::ZERO;
        for q in nbrs {
            sum += q;
        }
        assert_eq!(got, sum / 3.0);
    }

    #[test]
    fn empty_neighbourhood_yields_none() {
        for w in [Weighting::Uniform, Weighting::InverseEdgeLength, Weighting::EdgeLength] {
            assert_eq!(weighted_candidate_on(w, p(0.0, 0.0), std::iter::empty()), None);
        }
    }

    #[test]
    fn all_weightings_stay_in_the_neighbour_bbox() {
        // every variant is a convex combination of the neighbours
        let nbrs = [p(-1.0, 0.0), p(3.0, 1.0), p(0.0, 4.0), p(1.0, -2.0)];
        for w in [Weighting::Uniform, Weighting::InverseEdgeLength, Weighting::EdgeLength] {
            let c = weighted_candidate_on(w, p(0.2, 0.2), nbrs.into_iter()).unwrap();
            assert!((-1.0..=3.0).contains(&c.x), "{:?}: {c:?}", w);
            assert!((-2.0..=4.0).contains(&c.y), "{:?}: {c:?}", w);
        }
    }

    #[test]
    fn inverse_weighting_leans_toward_the_near_neighbour() {
        // neighbours at distance 1 (left) and 3 (right) from the vertex
        let pv = p(0.0, 0.0);
        let nbrs = [p(-1.0, 0.0), p(3.0, 0.0)];
        let uni = weighted_candidate_on(Weighting::Uniform, pv, nbrs.into_iter()).unwrap();
        let inv =
            weighted_candidate_on(Weighting::InverseEdgeLength, pv, nbrs.into_iter()).unwrap();
        let len = weighted_candidate_on(Weighting::EdgeLength, pv, nbrs.into_iter()).unwrap();
        assert_eq!(uni.x, 1.0);
        assert!(inv.x < uni.x, "inverse must lean left: {inv:?}");
        assert!(len.x > uni.x, "length must lean right: {len:?}");
        // exact values: inv = (1·(−1) + ⅓·3)/(1+⅓) = 0; len = (1·(−1)+3·3)/4 = 2
        assert!((inv.x - 0.0).abs() < 1e-12);
        assert!((len.x - 2.0).abs() < 1e-12);
    }

    #[test]
    fn coincident_neighbours_do_not_blow_up() {
        let pv = p(1.0, 1.0);
        let nbrs = [p(1.0, 1.0), p(2.0, 1.0)];
        let inv =
            weighted_candidate_on(Weighting::InverseEdgeLength, pv, nbrs.into_iter()).unwrap();
        assert!(inv.is_finite());
        // coincident neighbour carries the (huge) clamped weight, so the
        // candidate stays essentially at the vertex
        assert!(inv.dist(pv) < 1e-6);
        // EdgeLength with only coincident neighbours has zero total weight
        let only = [p(1.0, 1.0)];
        assert_eq!(weighted_candidate_on(Weighting::EdgeLength, pv, only.into_iter()), None);
    }
}
