//! 3D points and tetrahedron predicates.

use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub};

/// A point (or vector) in 3D space.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point3 {
    /// x coordinate.
    pub x: f64,
    /// y coordinate.
    pub y: f64,
    /// z coordinate.
    pub z: f64,
}

impl Point3 {
    /// The origin.
    pub const ZERO: Point3 = Point3 { x: 0.0, y: 0.0, z: 0.0 };

    /// Construct from components.
    #[inline]
    pub const fn new(x: f64, y: f64, z: f64) -> Point3 {
        Point3 { x, y, z }
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, other: Point3) -> f64 {
        self.x * other.x + self.y * other.y + self.z * other.z
    }

    /// Cross product.
    #[inline]
    pub fn cross(self, other: Point3) -> Point3 {
        Point3::new(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )
    }

    /// Squared Euclidean norm.
    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.dot(self)
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// Squared distance to `other`.
    #[inline]
    pub fn dist_sq(self, other: Point3) -> f64 {
        (self - other).norm_sq()
    }

    /// Distance to `other`.
    #[inline]
    pub fn dist(self, other: Point3) -> f64 {
        self.dist_sq(other).sqrt()
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min(self, other: Point3) -> Point3 {
        Point3::new(self.x.min(other.x), self.y.min(other.y), self.z.min(other.z))
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(self, other: Point3) -> Point3 {
        Point3::new(self.x.max(other.x), self.y.max(other.y), self.z.max(other.z))
    }

    /// True when all components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }
}

/// The components as an array, the form `lms-order`'s coordinate
/// orderings and partitioners read points in.
impl From<Point3> for [f64; 3] {
    #[inline]
    fn from(p: Point3) -> Self {
        [p.x, p.y, p.z]
    }
}

impl Add for Point3 {
    type Output = Point3;
    #[inline]
    fn add(self, rhs: Point3) -> Point3 {
        Point3::new(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl AddAssign for Point3 {
    #[inline]
    fn add_assign(&mut self, rhs: Point3) {
        *self = *self + rhs;
    }
}

impl Sub for Point3 {
    type Output = Point3;
    #[inline]
    fn sub(self, rhs: Point3) -> Point3 {
        Point3::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

impl Mul<f64> for Point3 {
    type Output = Point3;
    #[inline]
    fn mul(self, s: f64) -> Point3 {
        Point3::new(self.x * s, self.y * s, self.z * s)
    }
}

impl Div<f64> for Point3 {
    type Output = Point3;
    #[inline]
    fn div(self, s: f64) -> Point3 {
        Point3::new(self.x / s, self.y / s, self.z / s)
    }
}

impl Neg for Point3 {
    type Output = Point3;
    #[inline]
    fn neg(self) -> Point3 {
        Point3::new(-self.x, -self.y, -self.z)
    }
}

/// Signed volume of tetrahedron `(a, b, c, d)`: positive when `d` lies on
/// the side of plane `(a, b, c)` that `(b-a)×(c-a)` points to.
#[inline]
pub fn signed_volume(a: Point3, b: Point3, c: Point3, d: Point3) -> f64 {
    (b - a).cross(c - a).dot(d - a) / 6.0
}

/// Unsigned volume of tetrahedron `(a, b, c, d)`.
#[inline]
pub fn volume(a: Point3, b: Point3, c: Point3, d: Point3) -> f64 {
    signed_volume(a, b, c, d).abs()
}

/// Area of triangle `(a, b, c)` in 3D.
#[inline]
pub fn triangle_area(a: Point3, b: Point3, c: Point3) -> f64 {
    (b - a).cross(c - a).norm() / 2.0
}

/// The six edge lengths of tetrahedron `(a, b, c, d)`, in the order
/// `ab, ac, ad, bc, bd, cd`.
#[inline]
pub fn edge_lengths(a: Point3, b: Point3, c: Point3, d: Point3) -> [f64; 6] {
    [a.dist(b), a.dist(c), a.dist(d), b.dist(c), b.dist(d), c.dist(d)]
}

/// The six squared edge lengths of tetrahedron `(a, b, c, d)`, in
/// [`edge_lengths`] order.
#[inline]
pub fn edge_lengths_sq(a: Point3, b: Point3, c: Point3, d: Point3) -> [f64; 6] {
    [a.dist_sq(b), a.dist_sq(c), a.dist_sq(d), b.dist_sq(c), b.dist_sq(d), c.dist_sq(d)]
}

/// Total surface area (sum of the four face areas) of a tetrahedron.
#[inline]
pub fn surface_area(a: Point3, b: Point3, c: Point3, d: Point3) -> f64 {
    triangle_area(a, b, c)
        + triangle_area(a, b, d)
        + triangle_area(a, c, d)
        + triangle_area(b, c, d)
}

/// Inradius of a tetrahedron: `3 V / S` where `S` is the surface area.
/// Returns 0 for degenerate (zero-surface) tets.
pub fn inradius(a: Point3, b: Point3, c: Point3, d: Point3) -> f64 {
    let s = surface_area(a, b, c, d);
    if s <= 0.0 {
        return 0.0;
    }
    3.0 * volume(a, b, c, d) / s
}

/// Circumcenter of a tetrahedron, or `None` when the four points are
/// (nearly) coplanar.
pub fn circumcenter(a: Point3, b: Point3, c: Point3, d: Point3) -> Option<Point3> {
    // Solve 2 (p_i - a) · x = |p_i|² - |a|² for x, i ∈ {b, c, d}.
    let rows = [b - a, c - a, d - a];
    let rhs = [
        (b.norm_sq() - a.norm_sq()) / 2.0,
        (c.norm_sq() - a.norm_sq()) / 2.0,
        (d.norm_sq() - a.norm_sq()) / 2.0,
    ];
    solve3(rows, rhs)
}

/// Circumradius of a tetrahedron, or `None` when degenerate.
pub fn circumradius(a: Point3, b: Point3, c: Point3, d: Point3) -> Option<f64> {
    circumcenter(a, b, c, d).map(|cc| cc.dist(a))
}

/// Solve the 3×3 linear system with rows `m` and right-hand side `rhs` by
/// Cramer's rule. Returns `None` when the determinant is (nearly) zero
/// relative to the matrix scale.
fn solve3(m: [Point3; 3], rhs: [f64; 3]) -> Option<Point3> {
    let det = m[0].dot(m[1].cross(m[2]));
    let scale = m[0].norm() * m[1].norm() * m[2].norm();
    if det.abs() <= 1e-14 * scale.max(f64::MIN_POSITIVE) {
        return None;
    }
    let dx = Point3::new(rhs[0], m[0].y, m[0].z)
        .cross_rows(Point3::new(rhs[1], m[1].y, m[1].z), Point3::new(rhs[2], m[2].y, m[2].z));
    let dy = Point3::new(m[0].x, rhs[0], m[0].z)
        .cross_rows(Point3::new(m[1].x, rhs[1], m[1].z), Point3::new(m[2].x, rhs[2], m[2].z));
    let dz = Point3::new(m[0].x, m[0].y, rhs[0])
        .cross_rows(Point3::new(m[1].x, m[1].y, rhs[1]), Point3::new(m[2].x, m[2].y, rhs[2]));
    Some(Point3::new(dx / det, dy / det, dz / det))
}

impl Point3 {
    /// 3×3 determinant with `self`, `r1`, `r2` as rows.
    #[inline]
    fn cross_rows(self, r1: Point3, r2: Point3) -> f64 {
        self.dot(r1.cross(r2))
    }
}

/// Axis-aligned bounding box of a point set; `(ZERO, ZERO)` when empty.
pub fn bounding_box(points: &[Point3]) -> (Point3, Point3) {
    let mut iter = points.iter();
    let Some(&first) = iter.next() else {
        return (Point3::ZERO, Point3::ZERO);
    };
    iter.fold((first, first), |(lo, hi), &p| (lo.min(p), hi.max(p)))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The regular tetrahedron with unit edge length.
    pub(crate) fn regular_tet() -> [Point3; 4] {
        let s = 1.0 / 2f64.sqrt();
        [
            Point3::new(1.0, 0.0, -s) * 0.5,
            Point3::new(-1.0, 0.0, -s) * 0.5,
            Point3::new(0.0, 1.0, s) * 0.5,
            Point3::new(0.0, -1.0, s) * 0.5,
        ]
    }

    #[test]
    fn regular_tet_has_unit_edges() {
        let [a, b, c, d] = regular_tet();
        for len in edge_lengths(a, b, c, d) {
            assert!((len - 1.0).abs() < 1e-12, "edge {len}");
        }
    }

    #[test]
    fn unit_corner_tet_volume() {
        let v = signed_volume(
            Point3::ZERO,
            Point3::new(1.0, 0.0, 0.0),
            Point3::new(0.0, 1.0, 0.0),
            Point3::new(0.0, 0.0, 1.0),
        );
        assert!((v - 1.0 / 6.0).abs() < 1e-15);
    }

    #[test]
    fn swapping_vertices_flips_volume_sign() {
        let a = Point3::ZERO;
        let b = Point3::new(1.0, 0.0, 0.0);
        let c = Point3::new(0.0, 1.0, 0.0);
        let d = Point3::new(0.0, 0.0, 1.0);
        assert_eq!(signed_volume(a, b, c, d), -signed_volume(a, c, b, d));
    }

    #[test]
    fn regular_tet_radii_ratio_is_one_third() {
        let [a, b, c, d] = regular_tet();
        let r = inradius(a, b, c, d);
        let cr = circumradius(a, b, c, d).unwrap();
        assert!((r / cr - 1.0 / 3.0).abs() < 1e-12, "r/R = {}", r / cr);
    }

    #[test]
    fn circumcenter_is_equidistant() {
        let a = Point3::new(0.1, 0.2, 0.0);
        let b = Point3::new(1.3, 0.1, 0.2);
        let c = Point3::new(0.2, 1.1, -0.1);
        let d = Point3::new(0.4, 0.3, 1.2);
        let cc = circumcenter(a, b, c, d).unwrap();
        let r = cc.dist(a);
        for p in [b, c, d] {
            assert!((cc.dist(p) - r).abs() < 1e-10);
        }
    }

    #[test]
    fn coplanar_points_have_no_circumcenter() {
        let a = Point3::ZERO;
        let b = Point3::new(1.0, 0.0, 0.0);
        let c = Point3::new(0.0, 1.0, 0.0);
        let d = Point3::new(1.0, 1.0, 0.0);
        assert!(circumcenter(a, b, c, d).is_none());
    }

    #[test]
    fn triangle_area_of_unit_right_triangle() {
        let area =
            triangle_area(Point3::ZERO, Point3::new(1.0, 0.0, 0.0), Point3::new(0.0, 1.0, 0.0));
        assert!((area - 0.5).abs() < 1e-15);
    }

    #[test]
    fn vector_ops_behave() {
        let p = Point3::new(1.0, 2.0, 3.0);
        let q = Point3::new(4.0, 5.0, 6.0);
        assert_eq!(p + q, Point3::new(5.0, 7.0, 9.0));
        assert_eq!(q - p, Point3::new(3.0, 3.0, 3.0));
        assert_eq!(p * 2.0, Point3::new(2.0, 4.0, 6.0));
        assert_eq!(q / 2.0, Point3::new(2.0, 2.5, 3.0));
        assert_eq!(-p, Point3::new(-1.0, -2.0, -3.0));
        assert_eq!(p.dot(q), 32.0);
        assert_eq!(
            Point3::new(1.0, 0.0, 0.0).cross(Point3::new(0.0, 1.0, 0.0)),
            Point3::new(0.0, 0.0, 1.0)
        );
    }

    #[test]
    fn bounding_box_spans_points() {
        let pts = [Point3::new(1.0, -2.0, 0.5), Point3::new(-1.0, 3.0, 0.0)];
        let (lo, hi) = bounding_box(&pts);
        assert_eq!(lo, Point3::new(-1.0, -2.0, 0.0));
        assert_eq!(hi, Point3::new(1.0, 3.0, 0.5));
        assert_eq!(bounding_box(&[]), (Point3::ZERO, Point3::ZERO));
    }
}
