//! Planar geometry primitives used by the mesh substrate.
//!
//! Everything here is `f64` and allocation-free. The predicates
//! ([`orient2d`], [`in_circle`]) are the standard determinant forms; they are
//! *not* exact-arithmetic predicates, but the generators only feed them
//! points that are jittered away from degeneracy, and the Delaunay generator
//! re-perturbs on near-zero determinants.

use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub};

/// A point (or vector) in the plane.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point2 {
    pub x: f64,
    pub y: f64,
}

impl Point2 {
    /// The origin.
    pub const ZERO: Point2 = Point2 { x: 0.0, y: 0.0 };

    /// Construct a point from its coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point2 { x, y }
    }

    /// Euclidean dot product.
    #[inline]
    pub fn dot(self, other: Point2) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// z-component of the 3D cross product of the two vectors.
    #[inline]
    pub fn cross(self, other: Point2) -> f64 {
        self.x * other.y - self.y * other.x
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
    pub fn dist_sq(self, other: Point2) -> f64 {
        (self - other).norm_sq()
    }

    /// Distance to `other`.
    #[inline]
    pub fn dist(self, other: Point2) -> f64 {
        self.dist_sq(other).sqrt()
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min(self, other: Point2) -> Point2 {
        Point2::new(self.x.min(other.x), self.y.min(other.y))
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(self, other: Point2) -> Point2 {
        Point2::new(self.x.max(other.x), self.y.max(other.y))
    }

    /// Linear interpolation: `self` at `t = 0`, `other` at `t = 1`.
    #[inline]
    pub fn lerp(self, other: Point2, t: f64) -> Point2 {
        self + (other - self) * t
    }

    /// True when both coordinates are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

/// The components as an array, the form `lms-order`'s coordinate
/// orderings and partitioners read points in.
impl From<Point2> for [f64; 2] {
    #[inline]
    fn from(p: Point2) -> Self {
        [p.x, p.y]
    }
}

impl Add for Point2 {
    type Output = Point2;
    #[inline]
    fn add(self, rhs: Point2) -> Point2 {
        Point2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign for Point2 {
    #[inline]
    fn add_assign(&mut self, rhs: Point2) {
        self.x += rhs.x;
        self.y += rhs.y;
    }
}

impl Sub for Point2 {
    type Output = Point2;
    #[inline]
    fn sub(self, rhs: Point2) -> Point2 {
        Point2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Mul<f64> for Point2 {
    type Output = Point2;
    #[inline]
    fn mul(self, rhs: f64) -> Point2 {
        Point2::new(self.x * rhs, self.y * rhs)
    }
}

impl Div<f64> for Point2 {
    type Output = Point2;
    #[inline]
    fn div(self, rhs: f64) -> Point2 {
        Point2::new(self.x / rhs, self.y / rhs)
    }
}

impl Neg for Point2 {
    type Output = Point2;
    #[inline]
    fn neg(self) -> Point2 {
        Point2::new(-self.x, -self.y)
    }
}

/// Orientation of the triple `(a, b, c)`.
///
/// Positive when the triple turns counter-clockwise, negative when
/// clockwise, near zero when (nearly) collinear. This is twice the signed
/// area of the triangle `abc`.
#[inline]
pub fn orient2d(a: Point2, b: Point2, c: Point2) -> f64 {
    (b - a).cross(c - a)
}

/// Signed area of the triangle `abc` (positive for CCW).
#[inline]
pub fn signed_area(a: Point2, b: Point2, c: Point2) -> f64 {
    0.5 * orient2d(a, b, c)
}

/// Unsigned area of the triangle `abc`.
#[inline]
pub fn area(a: Point2, b: Point2, c: Point2) -> f64 {
    signed_area(a, b, c).abs()
}

/// In-circle predicate for Delaunay triangulation.
///
/// For a **counter-clockwise** triangle `abc`, returns a positive value when
/// `d` lies strictly inside its circumcircle, negative outside, near zero on
/// the circle.
pub fn in_circle(a: Point2, b: Point2, c: Point2, d: Point2) -> f64 {
    let ad = a - d;
    let bd = b - d;
    let cd = c - d;
    let ad2 = ad.norm_sq();
    let bd2 = bd.norm_sq();
    let cd2 = cd.norm_sq();
    ad.x * (bd.y * cd2 - cd.y * bd2) - ad.y * (bd.x * cd2 - cd.x * bd2)
        + ad2 * (bd.x * cd.y - cd.x * bd.y)
}

/// Circumcenter of the triangle `abc`.
///
/// Returns `None` when the points are (nearly) collinear.
pub fn circumcenter(a: Point2, b: Point2, c: Point2) -> Option<Point2> {
    let d = 2.0 * orient2d(a, b, c);
    if d.abs() < 1e-300 {
        return None;
    }
    let a2 = a.norm_sq();
    let b2 = b.norm_sq();
    let c2 = c.norm_sq();
    let ux = (a2 * (b.y - c.y) + b2 * (c.y - a.y) + c2 * (a.y - b.y)) / d;
    let uy = (a2 * (c.x - b.x) + b2 * (a.x - c.x) + c2 * (b.x - a.x)) / d;
    let p = Point2::new(ux, uy);
    p.is_finite().then_some(p)
}

/// Lengths of the three edges of triangle `abc`: `(|bc|, |ca|, |ab|)`.
#[inline]
pub fn edge_lengths(a: Point2, b: Point2, c: Point2) -> [f64; 3] {
    [b.dist(c), c.dist(a), a.dist(b)]
}

/// The three interior angles of the triangle `abc`, in radians,
/// in vertex order `(at a, at b, at c)`. Degenerate triangles yield zeros.
pub fn angles(a: Point2, b: Point2, c: Point2) -> [f64; 3] {
    fn angle_at(p: Point2, q: Point2, r: Point2) -> f64 {
        let u = q - p;
        let v = r - p;
        let nu = u.norm();
        let nv = v.norm();
        if nu == 0.0 || nv == 0.0 {
            return 0.0;
        }
        (u.dot(v) / (nu * nv)).clamp(-1.0, 1.0).acos()
    }
    [angle_at(a, b, c), angle_at(b, c, a), angle_at(c, a, b)]
}

/// Axis-aligned bounding box of a point set.
///
/// Returns `(min, max)`. Empty input yields a degenerate box at the origin.
pub fn bounding_box(points: &[Point2]) -> (Point2, Point2) {
    let mut lo = Point2::new(f64::INFINITY, f64::INFINITY);
    let mut hi = Point2::new(f64::NEG_INFINITY, f64::NEG_INFINITY);
    for &p in points {
        lo = lo.min(p);
        hi = hi.max(p);
    }
    if points.is_empty() {
        (Point2::ZERO, Point2::ZERO)
    } else {
        (lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point2 {
        Point2::new(x, y)
    }

    #[test]
    fn vector_arithmetic_roundtrips() {
        let a = p(1.0, 2.0);
        let b = p(-3.0, 0.5);
        assert_eq!(a + b - b, a);
        assert_eq!((a * 2.0) / 2.0, a);
        assert_eq!(-(-a), a);
        let mut c = a;
        c += b;
        assert_eq!(c, a + b);
    }

    #[test]
    fn dot_and_cross_identities() {
        let a = p(3.0, 4.0);
        let b = p(-4.0, 3.0);
        assert_eq!(a.dot(b), 0.0); // perpendicular
        assert_eq!(a.cross(a), 0.0);
        assert_eq!(a.norm(), 5.0);
        assert_eq!(a.norm_sq(), 25.0);
    }

    #[test]
    fn distances() {
        assert_eq!(p(0.0, 0.0).dist(p(3.0, 4.0)), 5.0);
        assert_eq!(p(1.0, 1.0).dist_sq(p(2.0, 2.0)), 2.0);
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = p(0.0, 0.0);
        let b = p(2.0, 4.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), p(1.0, 2.0));
    }

    #[test]
    fn orientation_signs() {
        let a = p(0.0, 0.0);
        let b = p(1.0, 0.0);
        let c = p(0.0, 1.0);
        assert!(orient2d(a, b, c) > 0.0); // CCW
        assert!(orient2d(a, c, b) < 0.0); // CW
        assert_eq!(orient2d(a, b, p(2.0, 0.0)), 0.0); // collinear
    }

    #[test]
    fn area_of_unit_right_triangle() {
        let ar = area(p(0.0, 0.0), p(1.0, 0.0), p(0.0, 1.0));
        assert!((ar - 0.5).abs() < 1e-15);
        // signed area negative for CW order
        assert!(signed_area(p(0.0, 0.0), p(0.0, 1.0), p(1.0, 0.0)) < 0.0);
    }

    #[test]
    fn in_circle_detects_interior_and_exterior() {
        // Unit circle through these three CCW points.
        let a = p(1.0, 0.0);
        let b = p(0.0, 1.0);
        let c = p(-1.0, 0.0);
        assert!(in_circle(a, b, c, p(0.0, 0.0)) > 0.0);
        assert!(in_circle(a, b, c, p(2.0, 2.0)) < 0.0);
        assert!(in_circle(a, b, c, p(0.0, -1.0)).abs() < 1e-12); // on circle
    }

    #[test]
    fn circumcenter_of_right_triangle_is_hypotenuse_midpoint() {
        let cc = circumcenter(p(0.0, 0.0), p(2.0, 0.0), p(0.0, 2.0)).unwrap();
        assert!((cc.x - 1.0).abs() < 1e-12);
        assert!((cc.y - 1.0).abs() < 1e-12);
        // Collinear points have no circumcenter.
        assert!(circumcenter(p(0.0, 0.0), p(1.0, 0.0), p(2.0, 0.0)).is_none());
    }

    #[test]
    fn edge_lengths_ordering_convention() {
        let a = p(0.0, 0.0);
        let b = p(3.0, 0.0);
        let c = p(0.0, 4.0);
        let [bc, ca, ab] = edge_lengths(a, b, c);
        assert_eq!(ab, 3.0);
        assert_eq!(ca, 4.0);
        assert_eq!(bc, 5.0);
    }

    #[test]
    fn angles_sum_to_pi() {
        let s: f64 = angles(p(0.0, 0.0), p(4.0, 1.0), p(1.0, 3.0)).iter().sum();
        assert!((s - std::f64::consts::PI).abs() < 1e-12);
    }

    #[test]
    fn equilateral_angles_are_sixty_degrees() {
        let h = 3f64.sqrt() / 2.0;
        let angs = angles(p(0.0, 0.0), p(1.0, 0.0), p(0.5, h));
        for ang in angs {
            assert!((ang - std::f64::consts::FRAC_PI_3).abs() < 1e-12);
        }
    }

    #[test]
    fn bbox_of_points() {
        let (lo, hi) = bounding_box(&[p(1.0, 5.0), p(-2.0, 3.0), p(0.0, 7.0)]);
        assert_eq!(lo, p(-2.0, 3.0));
        assert_eq!(hi, p(1.0, 7.0));
        let (lo, hi) = bounding_box(&[]);
        assert_eq!(lo, Point2::ZERO);
        assert_eq!(hi, Point2::ZERO);
    }

    #[test]
    fn degenerate_angle_is_zero() {
        let angs = angles(p(0.0, 0.0), p(0.0, 0.0), p(1.0, 0.0));
        assert_eq!(angs[0], 0.0);
    }
}
