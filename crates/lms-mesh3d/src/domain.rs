//! The tetrahedral [`SmoothDomain`] implementation — what plugs `TetMesh`
//! into `lms-smooth`'s dimension-generic engine stack.
//!
//! [`TetDomain`] is the 3D twin of `lms_smooth::TriDomain`: a borrowed
//! (adjacency, boundary) bundle around the topology-free [`TetScoring`]
//! view (vertex count, connectivity, metric), the twin of
//! `lms_smooth::TriScoring` that resident runs score through. With it, the
//! serial incremental kernel and the resident halo-exchange engine both
//! run on tetrahedral meshes from the **same generic sweep bodies** as
//! the 2D engines — no copied code, and the bit-identity arguments
//! (same-class interface vertices share no element; part interiors have
//! fully-owned 1-rings) carry over verbatim because a tet's four corners
//! are mutually adjacent.

use crate::adjacency::Adjacency3;
use crate::boundary::Boundary3;
use crate::geometry::{edge_lengths_sq, signed_volume, Point3};
use crate::quality::{min_max_sq6, TetQualityMetric};
use lms_smooth::domain::{score_star_per_id, DomainPoint, ScoringDomain, SmoothDomain};
use lms_smooth::for_lane_blocks;
use lms_smooth::soa::{sqrt_div_lanes, LANES};

impl DomainPoint for Point3 {
    const ZERO: Self = Point3::ZERO;
    const DIM: usize = 3;

    #[inline]
    fn push_components(self, out: &mut Vec<f64>) {
        out.push(self.x);
        out.push(self.y);
        out.push(self.z);
    }

    #[inline]
    fn from_components(comps: &[f64]) -> Self {
        Point3::new(comps[0], comps[1], comps[2])
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

/// The tetrahedral topology-free scoring view: vertex count + borrowed
/// connectivity + metric — what a resident run scores through once the
/// global adjacency and boundary are gone.
#[derive(Debug, Clone, Copy)]
pub struct TetScoring<'a> {
    num_vertices: usize,
    tets: &'a [[u32; 4]],
    metric: TetQualityMetric,
}

impl<'a> TetScoring<'a> {
    /// Bundle a tet mesh's vertex count, connectivity and metric.
    pub fn new(num_vertices: usize, tets: &'a [[u32; 4]], metric: TetQualityMetric) -> Self {
        TetScoring { num_vertices, tets, metric }
    }
}

impl ScoringDomain<4> for TetScoring<'_> {
    type Point = Point3;

    #[inline]
    fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    #[inline]
    fn elements(&self) -> &[[u32; 4]] {
        self.tets
    }

    #[inline]
    fn score_points(&self, p: [Point3; 4]) -> (f64, bool) {
        (
            self.metric.tet_quality(p[0], p[1], p[2], p[3]),
            signed_volume(p[0], p[1], p[2], p[3]) > 0.0,
        )
    }

    #[inline]
    fn score_star(
        &self,
        coords: &[Point3],
        corners: &[[u32; 4]],
        ids: &[u32],
        out: &mut [(f64, bool)],
    ) {
        match self.metric {
            TetQualityMetric::EdgeLengthRatio => tet_elr_star(coords, corners, ids, out),
            // the ablation metrics stay on the per-element scalar sequence
            _ => score_star_per_id(self, coords, corners, ids, out),
        }
    }
}

/// The tetrahedral domain view: borrowed adjacency + boundary around the
/// [`TetScoring`] view. [`crate::SmoothEngine3`] (and the resident
/// engine's construction) builds one per call.
#[derive(Debug, Clone, Copy)]
pub struct TetDomain<'a> {
    adj: &'a Adjacency3,
    boundary: &'a Boundary3,
    scoring: TetScoring<'a>,
}

impl<'a> TetDomain<'a> {
    /// Bundle a tet mesh's precomputed topology into a domain view.
    pub fn new(
        adj: &'a Adjacency3,
        boundary: &'a Boundary3,
        tets: &'a [[u32; 4]],
        metric: TetQualityMetric,
    ) -> Self {
        TetDomain { adj, boundary, scoring: TetScoring::new(adj.num_vertices(), tets, metric) }
    }
}

impl ScoringDomain<4> for TetDomain<'_> {
    type Point = Point3;

    #[inline]
    fn num_vertices(&self) -> usize {
        self.scoring.num_vertices()
    }

    #[inline]
    fn elements(&self) -> &[[u32; 4]] {
        self.scoring.elements()
    }

    #[inline]
    fn score_points(&self, p: [Point3; 4]) -> (f64, bool) {
        self.scoring.score_points(p)
    }

    #[inline]
    fn score_star(
        &self,
        coords: &[Point3],
        corners: &[[u32; 4]],
        ids: &[u32],
        out: &mut [(f64, bool)],
    ) {
        self.scoring.score_star(coords, corners, ids, out);
    }
}

impl SmoothDomain<4> for TetDomain<'_> {
    #[inline]
    fn neighbors(&self, v: u32) -> &[u32] {
        self.adj.neighbors(v)
    }

    #[inline]
    fn elements_of(&self, v: u32) -> &[u32] {
        self.adj.tets_of(v)
    }

    #[inline]
    fn is_interior(&self, v: u32) -> bool {
        self.boundary.is_interior(v)
    }
}

/// Gather one lane block's corner coordinates into per-corner lane
/// columns `[ax, ay, az, bx, …, dz]` (the indexed loads, kept apart from
/// the arithmetic as in the 2D kernel).
#[inline(always)]
fn tet_columns(pts: &[Point3], corners: &[[u32; 4]], block: &[u32; LANES]) -> [[f64; LANES]; 12] {
    let mut cols = [[0.0f64; LANES]; 12];
    for l in 0..LANES {
        for (k, &i) in corners[block[l] as usize].iter().enumerate() {
            let p = pts[i as usize];
            cols[3 * k][l] = p.x;
            cols[3 * k + 1][l] = p.y;
            cols[3 * k + 2][l] = p.z;
        }
    }
    cols
}

/// Lane-batched edge-length-ratio scoring of the tets `ids` names — the
/// 3D twin of `lms-smooth`'s `tri_elr_star`: one [`LANES`]-wide block at
/// a time ([`for_lane_blocks!`]), explicit AVX arithmetic where the host
/// has it ([`tet_elr_star_avx`]), portable lanes otherwise
/// ([`tet_elr_star_portable`]). Every lane runs the exact scalar sequence
/// of `TetQualityMetric::tet_quality` — six `dist_sq`, the
/// [`min_max_sq6`] folds, two square roots, one divide, the degenerate
/// select — plus the `signed_volume > 0` orientation test, so results are
/// bit-identical to the per-element path by construction.
#[inline]
fn tet_elr_star(pts: &[Point3], corners: &[[u32; 4]], ids: &[u32], out: &mut [(f64, bool)]) {
    // one cached feature test and one `#[target_feature]` call per id
    // list, never one per block (see `tri_elr_star`)
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx") {
        // SAFETY: AVX support verified above (cached runtime check) — the
        // function's only requirement.
        unsafe { tet_elr_star_avx(pts, corners, ids, out) };
        return;
    }
    tet_elr_star_portable(pts, corners, ids, out);
}

/// The portable lanes of [`tet_elr_star`]: per lane the library's own
/// `Point3` expressions, the root/divide phase through the explicit-SIMD
/// [`sqrt_div_lanes`]. The select tests the squared extremes, which is
/// the same predicate: a root is `≤ 0` / finite exactly when its
/// (never-negative) argument is.
#[inline]
fn tet_elr_star_portable(
    pts: &[Point3],
    corners: &[[u32; 4]],
    ids: &[u32],
    out: &mut [(f64, bool)],
) {
    for_lane_blocks!((ids, out) => |block, slots| {
        let cols = tet_columns(pts, corners, block);
        let mut min_sq = [0.0f64; LANES];
        let mut max_sq = [0.0f64; LANES];
        let mut vol = [0.0f64; LANES];
        for l in 0..LANES {
            let [a, b, c, d] = std::array::from_fn(|k| {
                Point3::new(cols[3 * k][l], cols[3 * k + 1][l], cols[3 * k + 2][l])
            });
            (min_sq[l], max_sq[l]) = min_max_sq6(edge_lengths_sq(a, b, c, d));
            vol[l] = signed_volume(a, b, c, d);
        }
        let mut q = [0.0f64; LANES];
        sqrt_div_lanes(&min_sq, &max_sq, &mut q);
        for (l, slot) in slots.iter_mut().enumerate() {
            let degenerate = max_sq[l] <= 0.0 || !min_sq[l].is_finite();
            *slot = (if degenerate { 0.0 } else { q[l] }, vol[l] > 0.0);
        }
    });
}

/// [`tet_elr_star_portable`] in explicit AVX — the same value sequence
/// in 256-bit ops (LLVM vectorizes neither the square roots nor the
/// `min`/`max` folds at the SSE2 baseline).
///
/// Bit-identity notes (each packed op is matched to its scalar twin):
/// - `sub`/`mul`/`add`/`sqrt`/`div` are IEEE correctly rounded in both
///   forms, and Rust emits no FMA contraction to differ from. `dist_sq`
///   keeps `Point3::dot`'s `(x² + y²) + z²` order, the triple product
///   `signed_volume`'s `(b−a)×(c−a)·(d−a)` order and its `/ 6.0` (the
///   divide can round a tiny positive product to zero, so it stays).
/// - `f64::min`/`f64::max` skip NaN. `minpd`/`maxpd` return their
///   *second* operand when either is NaN, and the fold accumulators —
///   seeded `+∞` and `0`, hence never NaN — are passed second, so a NaN
///   squared length is skipped exactly as in [`min_max_sq6`]. The ±0
///   ambiguity is moot: a squared length is never `-0.0`.
/// - The select is `max <= 0.0 || !min.is_finite()` verbatim: an
///   ordered-quiet `≤` (false on NaN) and `!(|min| < ∞)` as an
///   unordered not-less-than (true on NaN); the orientation test is an
///   ordered-quiet `>`.
///
/// # Safety
/// The CPU must support AVX. Memory is touched only through
/// bounds-checked slice indexing and whole `[f64; LANES]` local arrays
/// (every `loadu`/`storeu` below).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
#[inline]
unsafe fn tet_elr_star_avx(
    pts: &[Point3],
    corners: &[[u32; 4]],
    ids: &[u32],
    out: &mut [(f64, bool)],
) {
    use core::arch::x86_64::*;
    const { assert!(LANES == 4, "one 256-bit register holds exactly one block") };
    // Lane-wise `Point3` arithmetic in `Point3`'s own expression order.
    // Unsafe only as AVX code: called from this function alone, they share
    // its one requirement.
    type V3 = [__m256d; 3];
    #[inline(always)]
    unsafe fn sub3(p: V3, q: V3) -> V3 {
        [_mm256_sub_pd(p[0], q[0]), _mm256_sub_pd(p[1], q[1]), _mm256_sub_pd(p[2], q[2])]
    }
    #[inline(always)]
    unsafe fn dot(p: V3, q: V3) -> __m256d {
        _mm256_add_pd(
            _mm256_add_pd(_mm256_mul_pd(p[0], q[0]), _mm256_mul_pd(p[1], q[1])),
            _mm256_mul_pd(p[2], q[2]),
        )
    }
    #[inline(always)]
    unsafe fn dist_sq(p: V3, q: V3) -> __m256d {
        let e = sub3(p, q);
        dot(e, e)
    }
    let zero = _mm256_setzero_pd();
    let inf = _mm256_set1_pd(f64::INFINITY);
    let sign = _mm256_set1_pd(-0.0);
    let six = _mm256_set1_pd(6.0);
    for_lane_blocks!((ids, out) => |block, slots| {
        let cols = tet_columns(pts, corners, block);
        let mut corner = [[zero; 3]; 4];
        for (k, p) in corner.iter_mut().enumerate() {
            for (axis, lanes) in p.iter_mut().enumerate() {
                *lanes = _mm256_loadu_pd(cols[3 * k + axis].as_ptr());
            }
        }
        let [a, b, c, d] = corner;
        // `edge_lengths_sq` order: ab, ac, ad, bc, bd, cd
        let mut min_sq = inf;
        let mut max_sq = zero;
        for d_sq in [
            dist_sq(a, b),
            dist_sq(a, c),
            dist_sq(a, d),
            dist_sq(b, c),
            dist_sq(b, d),
            dist_sq(c, d),
        ] {
            min_sq = _mm256_min_pd(d_sq, min_sq);
            max_sq = _mm256_max_pd(d_sq, max_sq);
        }
        let (min, max) = (_mm256_sqrt_pd(min_sq), _mm256_sqrt_pd(max_sq));
        let degenerate = _mm256_or_pd(
            _mm256_cmp_pd::<_CMP_LE_OQ>(max, zero),
            _mm256_cmp_pd::<_CMP_NLT_UQ>(_mm256_andnot_pd(sign, min), inf),
        );
        let score = _mm256_blendv_pd(_mm256_div_pd(min, max), zero, degenerate);
        let (u, v, w) = (sub3(b, a), sub3(c, a), sub3(d, a));
        let normal = [
            _mm256_sub_pd(_mm256_mul_pd(u[1], v[2]), _mm256_mul_pd(u[2], v[1])),
            _mm256_sub_pd(_mm256_mul_pd(u[2], v[0]), _mm256_mul_pd(u[0], v[2])),
            _mm256_sub_pd(_mm256_mul_pd(u[0], v[1]), _mm256_mul_pd(u[1], v[0])),
        ];
        let volume = _mm256_div_pd(dot(normal, w), six);
        let pos_mask = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_GT_OQ>(volume, zero));
        let mut s = [0.0f64; LANES];
        _mm256_storeu_pd(s.as_mut_ptr(), score);
        for (l, slot) in slots.iter_mut().enumerate() {
            *slot = (s[l], pos_mask & (1 << l) != 0);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::perturbed_tet_grid;
    use crate::partition_tet_mesh;
    use crate::quality::mesh_quality;
    use lms_order::{rcb_parts, rcb_parts_weighted};
    use lms_part::{partition_coords, PartitionMethod};

    #[test]
    fn tet_domain_quality_matches_mesh_quality_bitwise() {
        let m = perturbed_tet_grid(6, 5, 7, 0.35, 3);
        let adj = Adjacency3::build(&m);
        let b = Boundary3::detect(&m);
        let dom = TetDomain::new(&adj, &b, m.tets(), TetQualityMetric::EdgeLengthRatio);
        let generic = lms_smooth::domain_quality(&dom, m.coords());
        let concrete = mesh_quality(&m, &adj, TetQualityMetric::EdgeLengthRatio);
        assert_eq!(generic.to_bits(), concrete.to_bits());
    }

    /// Scalar oracle vs portable lanes vs (where the host has it) the AVX
    /// body, each called directly on `corners` over `pts`; two NaN
    /// qualities count as equal (NaN payload choice is the compiler's).
    fn kernels_agree(pts: &[Point3], corners: &[[u32; 4]]) -> Vec<(f64, bool)> {
        let ids: Vec<u32> = (0..corners.len() as u32).collect();
        let at = |i: u32| pts[i as usize];
        let scalar: Vec<(f64, bool)> = corners
            .iter()
            .map(|row| {
                let [a, b, c, d] = row.map(at);
                let q = TetQualityMetric::EdgeLengthRatio.tet_quality(a, b, c, d);
                (q, signed_volume(a, b, c, d) > 0.0)
            })
            .collect();
        let same = |kernel: &str, got: &[(f64, bool)]| {
            for ((s, g), row) in scalar.iter().zip(got).zip(corners) {
                let q_same = s.0.to_bits() == g.0.to_bits() || (s.0.is_nan() && g.0.is_nan());
                assert!(q_same && s.1 == g.1, "{kernel}: {:?}: {s:?} vs {g:?}", row.map(at));
            }
        };
        let mut out = vec![(f64::NAN, false); ids.len()];
        tet_elr_star_portable(pts, corners, &ids, &mut out);
        same("portable", &out);
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx") {
            out.fill((f64::NAN, false));
            // SAFETY: AVX support verified on the line above.
            unsafe { tet_elr_star_avx(pts, corners, &ids, &mut out) };
            same("avx", &out);
        }
        scalar
    }

    /// Every triple of NaN, ±inf, ±0, a subnormal, `±1e200` and a few
    /// plain numbers is a vertex; tets are random quadruples, the same
    /// with two corners swapped (inverted), and coincident corners.
    #[test]
    fn tet_elr_kernels_agree_on_special_values() {
        let specials = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            0.0,
            5e-324,
            1e200,
            -1e200,
            1.0,
            -2.5,
        ];
        let n = specials.len();
        let mut pts = Vec::new();
        for &x in &specials {
            for &y in &specials {
                for &z in &specials {
                    pts.push(Point3::new(x, y, z));
                }
            }
        }
        let mut rng = proptest::test_runner::TestRng::for_test("tet_elr_special_values");
        let mut corners: Vec<[u32; 4]> = Vec::new();
        for _ in 0..3000 {
            let [a, b, c, d] = std::array::from_fn(|_| rng.index(n * n * n) as u32);
            corners.extend([[a, b, c, d], [a, c, b, d], [a, a, c, d], [a, b, b, b], [a, a, a, a]]);
        }
        corners.pop(); // not a whole number of blocks
        kernels_agree(&pts, &corners);
    }

    /// `signed_volume`'s `/ 6.0` rounds a positive triple product of up to
    /// three units in the last subnormal place to zero (3/6 ties to even),
    /// so `> 0.0` first holds at four — on every kernel.
    #[test]
    fn tiny_triple_products_round_like_signed_volume() {
        // a = 0, b = e_x, c = e_y, d = ±from_bits(k)·e_z: triple product ±from_bits(k)
        for k in 1..=8u64 {
            for sign in [1.0, -1.0] {
                let pts = [
                    Point3::ZERO,
                    Point3::new(1.0, 0.0, 0.0),
                    Point3::new(0.0, 1.0, 0.0),
                    Point3::new(0.0, 0.0, sign * f64::from_bits(k)),
                ];
                let scored = kernels_agree(&pts, &[[0, 1, 2, 3]]);
                assert_eq!(scored[0].1, sign > 0.0 && k > 3, "k = {k}, sign {sign}");
            }
        }
    }

    #[test]
    fn partitions_are_balanced_and_cover() {
        let m = perturbed_tet_grid(7, 6, 5, 0.3, 9);
        let adj = Adjacency3::build(&m);
        for method in PartitionMethod::ALL {
            for k in [1usize, 2, 5, 8] {
                let p = partition_tet_mesh(&m, &adj, k, method);
                assert_eq!(p.len(), m.num_vertices(), "{} k={k}", method.name());
                let mut sizes = vec![0usize; k];
                for v in 0..m.num_vertices() as u32 {
                    sizes[p.part_of(v) as usize] += 1;
                }
                if method != PartitionMethod::RcbWeighted {
                    let (lo, hi) = (*sizes.iter().min().unwrap(), *sizes.iter().max().unwrap());
                    assert!(hi - lo <= 1, "{} k={k}: sizes {sizes:?}", method.name());
                }
            }
        }
    }

    #[test]
    fn rcb3_parts_are_geometric_blobs() {
        // a long thin bar (x span ≫ y, z spans) must be sliced along x:
        // part id monotone in x
        let coords: Vec<Point3> = (0..128)
            .map(|i| Point3::new(i as f64, (i % 3) as f64 * 0.05, (i % 5) as f64 * 0.04))
            .collect();
        let part = rcb_parts(&coords, 4);
        let mut labelled: Vec<(f64, u32)> =
            coords.iter().zip(&part).map(|(p, &q)| (p.x, q)).collect();
        labelled.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        for w in labelled.windows(2) {
            assert!(w[0].1 <= w[1].1, "part ids not monotone along the bar");
        }
    }

    #[test]
    fn weighted_rcb3_equals_rcb3_on_uniform_grids() {
        // the coordinates-only API has no volumes to weight by: its
        // RcbWeighted is the weighted splitter under uniform weights,
        // which is Rcb
        let m = perturbed_tet_grid(6, 6, 6, 0.25, 4);
        let uniform = rcb_parts_weighted(m.coords(), &vec![1.0; m.num_vertices()], 6);
        assert_eq!(partition_coords(&m, 6, PartitionMethod::RcbWeighted), uniform);
        assert_eq!(partition_coords(&m, 6, PartitionMethod::Rcb), uniform);
    }
}
