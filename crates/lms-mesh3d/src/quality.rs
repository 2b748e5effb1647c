//! Tetrahedron quality metrics.
//!
//! The 3D analogues of the paper's edge-length-ratio metric (plus two
//! standard shape metrics), all normalised to `(0, 1]` with 1 attained by
//! the regular tetrahedron and 0 by degenerate elements.

use crate::adjacency::Adjacency3;
use crate::geometry::{circumradius, edge_lengths, edge_lengths_sq, inradius, volume, Point3};
use crate::mesh::TetMesh;

/// Quality metric for a single tetrahedron.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TetQualityMetric {
    /// Minimum edge length over maximum edge length — the direct 3D
    /// analogue of the paper's 2D metric (§3.2).
    EdgeLengthRatio,
    /// `3 · inradius / circumradius`: 1 for the regular tet, →0 for slivers.
    RadiusRatio,
    /// Mean ratio: `12 · (3V)^(2/3) / Σ ℓ²` — the algebraic shape metric of
    /// Knupp's framework \[7\], sensitive to both stretching and flattening.
    MeanRatio,
}

impl TetQualityMetric {
    /// Quality of tetrahedron `(a, b, c, d)`, in `[0, 1]`.
    pub fn tet_quality(self, a: Point3, b: Point3, c: Point3, d: Point3) -> f64 {
        match self {
            TetQualityMetric::EdgeLengthRatio => {
                edge_length_ratio_from_sq6(edge_lengths_sq(a, b, c, d))
            }
            TetQualityMetric::RadiusRatio => {
                let r = inradius(a, b, c, d);
                match circumradius(a, b, c, d) {
                    Some(cr) if cr > 0.0 => (3.0 * r / cr).clamp(0.0, 1.0),
                    _ => 0.0,
                }
            }
            TetQualityMetric::MeanRatio => {
                let v = volume(a, b, c, d);
                let sum_sq: f64 = edge_lengths(a, b, c, d).iter().map(|l| l * l).sum();
                if sum_sq <= 0.0 {
                    0.0
                } else {
                    (12.0 * (3.0 * v).powf(2.0 / 3.0) / sum_sq).clamp(0.0, 1.0)
                }
            }
        }
    }

    /// Short lowercase name used in reports and CLI arguments.
    pub fn name(self) -> &'static str {
        match self {
            TetQualityMetric::EdgeLengthRatio => "edge-ratio",
            TetQualityMetric::RadiusRatio => "radius-ratio",
            TetQualityMetric::MeanRatio => "mean-ratio",
        }
    }
}

/// Smallest and largest of six squared edge lengths, NaN entries skipped
/// (`f64::min`/`f64::max`), folded in array order from `+∞` and from `0`
/// — seeds that are never NaN, so neither is the result.
#[inline(always)]
pub(crate) fn min_max_sq6(d: [f64; 6]) -> (f64, f64) {
    (d.iter().fold(f64::INFINITY, |m, &x| m.min(x)), d.iter().fold(0.0f64, |m, &x| m.max(x)))
}

/// The tetrahedral edge-length-ratio core on **squared** edge lengths —
/// the one expression both the scalar metric and the lane-batched
/// [`crate::TetDomain`] scoring run, so the two stay bit-identical by
/// construction. Two square roots instead of six: `sqrt` is monotone and
/// correctly rounded, so the root of the smallest (largest) squared length
/// *is* the smallest (largest) length, bit for bit — NaN is skipped on
/// either side of the root, `+∞` maps to `+∞`, and a squared length is
/// never `-0.0`. The degenerate case is a select, keeping the expression
/// lane-vectorizable.
#[inline(always)]
pub fn edge_length_ratio_from_sq6(d: [f64; 6]) -> f64 {
    let (min_sq, max_sq) = min_max_sq6(d);
    let (min, max) = (min_sq.sqrt(), max_sq.sqrt());
    let ratio = min / max;
    if max <= 0.0 || !min.is_finite() {
        0.0
    } else {
        ratio
    }
}

/// Quality of every tetrahedron under `metric`.
pub fn tet_qualities(mesh: &TetMesh, metric: TetQualityMetric) -> Vec<f64> {
    (0..mesh.num_tets())
        .map(|t| {
            let [a, b, c, d] = mesh.tet_coords(t);
            metric.tet_quality(a, b, c, d)
        })
        .collect()
}

/// Per-vertex quality: the mean quality of the tets incident to each vertex
/// (vertices with no incident tet score 0), exactly mirroring the paper's
/// per-vertex definition.
pub fn vertex_qualities(mesh: &TetMesh, adj: &Adjacency3, metric: TetQualityMetric) -> Vec<f64> {
    let tq = tet_qualities(mesh, metric);
    (0..mesh.num_vertices() as u32)
        .map(|v| {
            let ts = adj.tets_of(v);
            if ts.is_empty() {
                0.0
            } else {
                ts.iter().map(|&t| tq[t as usize]).sum::<f64>() / ts.len() as f64
            }
        })
        .collect()
}

/// Global mesh quality: the mean of the per-vertex qualities.
pub fn mesh_quality(mesh: &TetMesh, adj: &Adjacency3, metric: TetQualityMetric) -> f64 {
    let vq = vertex_qualities(mesh, adj, metric);
    if vq.is_empty() {
        0.0
    } else {
        vq.iter().sum::<f64>() / vq.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::corner_tet;

    fn regular_tet() -> [Point3; 4] {
        let s = 1.0 / 2f64.sqrt();
        [
            Point3::new(1.0, 0.0, -s) * 0.5,
            Point3::new(-1.0, 0.0, -s) * 0.5,
            Point3::new(0.0, 1.0, s) * 0.5,
            Point3::new(0.0, -1.0, s) * 0.5,
        ]
    }

    /// The six-square-root body [`edge_length_ratio_from_sq6`] replaced,
    /// kept as its oracle: `min`/`max` folded over the edge *lengths*.
    fn edge_length_ratio_from_lengths(ls: [f64; 6]) -> f64 {
        let min = ls.iter().fold(f64::INFINITY, |m, &l| m.min(l));
        let max = ls.iter().fold(0.0f64, |m, &l| m.max(l));
        let ratio = min / max;
        if max <= 0.0 || !min.is_finite() {
            0.0
        } else {
            ratio
        }
    }

    #[test]
    fn two_root_core_equals_six_root_core_bitwise() {
        let check = |p: [Point3; 4]| {
            let [a, b, c, d] = p;
            let six = edge_length_ratio_from_lengths(edge_lengths(a, b, c, d));
            let two = edge_length_ratio_from_sq6(edge_lengths_sq(a, b, c, d));
            assert_eq!(six.to_bits(), two.to_bits(), "{p:?}: {six} vs {two}");
        };
        let mut rng = proptest::test_runner::TestRng::for_test("two_root_core");
        // scales from deep-subnormal squares to squares that overflow
        for scale in [1e-170, 1e-3, 1.0, 7.5e4, 1e150, 1e200] {
            for _ in 0..2000 {
                let mut p: [Point3; 4] = std::array::from_fn(|_| {
                    Point3::new(rng.next_f64() - 0.5, rng.next_f64() - 0.5, rng.next_f64() - 0.5)
                        * scale
                });
                check(p);
                // degenerate: coincident corners, then all four equal
                p[1] = p[0];
                check(p);
                p[2] = p[0];
                p[3] = p[0];
                check(p);
            }
        }
        // non-finite coordinates: NaN edges are skipped, infinite ones are not
        let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 5e-324, 1e200, 1.0];
        for _ in 0..5000 {
            check(std::array::from_fn(|_| {
                let mut pick = || specials[rng.index(specials.len())];
                Point3::new(pick(), pick(), pick())
            }));
        }
    }

    #[test]
    fn regular_tet_scores_one_on_all_metrics() {
        let [a, b, c, d] = regular_tet();
        for metric in [
            TetQualityMetric::EdgeLengthRatio,
            TetQualityMetric::RadiusRatio,
            TetQualityMetric::MeanRatio,
        ] {
            let q = metric.tet_quality(a, b, c, d);
            assert!((q - 1.0).abs() < 1e-9, "{}: {q}", metric.name());
        }
    }

    #[test]
    fn degenerate_tet_scores_zero() {
        // Four coplanar points.
        let a = Point3::ZERO;
        let b = Point3::new(1.0, 0.0, 0.0);
        let c = Point3::new(0.0, 1.0, 0.0);
        let d = Point3::new(1.0, 1.0, 0.0);
        assert_eq!(TetQualityMetric::RadiusRatio.tet_quality(a, b, c, d), 0.0);
        assert_eq!(TetQualityMetric::MeanRatio.tet_quality(a, b, c, d), 0.0);
        // Edge ratio is a pure length metric: coplanarity does not zero it,
        // only collapsing an edge does.
        assert!(TetQualityMetric::EdgeLengthRatio.tet_quality(a, b, c, d) > 0.0);
        assert_eq!(TetQualityMetric::EdgeLengthRatio.tet_quality(a, a, c, d), 0.0);
    }

    #[test]
    fn sliver_scores_low_on_shape_metrics() {
        // Near-coplanar sliver: good edge lengths, terrible shape.
        let a = Point3::ZERO;
        let b = Point3::new(1.0, 0.0, 0.0);
        let c = Point3::new(0.0, 1.0, 0.0);
        let d = Point3::new(1.0, 1.0, 0.01);
        assert!(TetQualityMetric::RadiusRatio.tet_quality(a, b, c, d) < 0.1);
        assert!(TetQualityMetric::MeanRatio.tet_quality(a, b, c, d) < 0.1);
    }

    #[test]
    fn quality_is_scale_invariant() {
        let [a, b, c, d] = regular_tet();
        for metric in [
            TetQualityMetric::EdgeLengthRatio,
            TetQualityMetric::RadiusRatio,
            TetQualityMetric::MeanRatio,
        ] {
            let q1 = metric.tet_quality(a, b, c, d);
            let q2 = metric.tet_quality(a * 7.5, b * 7.5, c * 7.5, d * 7.5);
            assert!((q1 - q2).abs() < 1e-9, "{} not scale invariant", metric.name());
        }
    }

    #[test]
    fn corner_tet_quality_between_zero_and_one() {
        let m = corner_tet();
        let adj = Adjacency3::build(&m);
        for metric in [
            TetQualityMetric::EdgeLengthRatio,
            TetQualityMetric::RadiusRatio,
            TetQualityMetric::MeanRatio,
        ] {
            let q = mesh_quality(&m, &adj, metric);
            assert!(q > 0.0 && q < 1.0, "{}: {q}", metric.name());
        }
    }

    #[test]
    fn vertex_quality_is_mean_of_incident_tets() {
        let m = corner_tet();
        let adj = Adjacency3::build(&m);
        let tq = tet_qualities(&m, TetQualityMetric::MeanRatio);
        let vq = vertex_qualities(&m, &adj, TetQualityMetric::MeanRatio);
        // single tet: every vertex quality equals the tet quality
        for q in vq {
            assert!((q - tq[0]).abs() < 1e-15);
        }
    }
}
