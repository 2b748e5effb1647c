//! Optimization-based smoothing — a simplified FeasNewt/Mesquite-style
//! local solver (Munson & Hovland \[19\], Freitag et al. \[4\]).
//!
//! Laplacian smoothing moves a vertex to its neighbours' centroid whether
//! or not that helps the worst incident triangle. Optimization-based
//! smoothing instead moves each vertex to (approximately) **maximise the
//! minimum quality** of its incident triangles: slower per vertex, but it
//! directly attacks the bad elements and cannot create inversions when
//! started from a valid mesh (quality 0 bounds the objective from below
//! and any accepted move strictly improves it).
//!
//! The local solve is derivative-free coordinate ascent: finite-difference
//! subgradient direction plus a golden-section line search, bounded by the
//! ring scale. This is the robust core of what Mesquite's feasible-Newton
//! does, without the Hessian machinery — appropriate here because the
//! reproduction's interest is the *memory behaviour of the sweep*, which is
//! identical in shape to the Laplacian sweep (gather ring, update vertex).

use lms_mesh::quality::{global_quality, vertex_qualities, QualityMetric};
use lms_mesh::{Adjacency, Boundary, Point2, TriMesh};
use lms_smooth::{IterationStats, SmoothReport};

/// Knobs for [`opt_smooth`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptSmoothOptions {
    /// Quality metric to maximise (paper default: edge-length ratio).
    pub metric: QualityMetric,
    /// Stop when a sweep improves global quality by less than this.
    pub tol: f64,
    /// Hard cap on sweeps.
    pub max_sweeps: usize,
    /// Ascent iterations per vertex visit.
    pub ascent_steps: usize,
}

impl Default for OptSmoothOptions {
    fn default() -> Self {
        OptSmoothOptions {
            metric: QualityMetric::EdgeLengthRatio,
            tol: 5e-6,
            max_sweeps: 30,
            ascent_steps: 6,
        }
    }
}

/// Minimum incident-triangle quality of `v` with `v` at `p`, made
/// orientation-aware: an inverted triangle (non-positive signed area under
/// its stored vertex order) scores its *negative area* instead of its
/// quality. Shape metrics like edge-length ratio are blind to orientation;
/// without this guard the ascent happily inverts elements. With it, any
/// accepted move from a valid configuration keeps the objective positive,
/// hence the mesh valid — and from a tangled start the ascent first pushes
/// the areas positive (the untangling objective) before chasing quality.
fn min_quality_at(
    mesh: &TriMesh,
    adj: &Adjacency,
    metric: QualityMetric,
    v: u32,
    p: Point2,
) -> f64 {
    let coords = mesh.coords();
    let at = |u: u32| if u == v { p } else { coords[u as usize] };
    adj.triangles_of(v)
        .iter()
        .map(|&t| {
            let [a, b, c] = mesh.triangles()[t as usize];
            let (pa, pb, pc) = (at(a), at(b), at(c));
            let area = lms_mesh::geometry::signed_area(pa, pb, pc);
            if area <= 0.0 {
                area
            } else {
                metric.triangle_quality(pa, pb, pc)
            }
        })
        .fold(f64::INFINITY, f64::min)
}

/// Golden-section search for the maximum of `f` on `[0, hi]`.
fn golden_max(mut f: impl FnMut(f64) -> f64, hi: f64, iters: usize) -> f64 {
    const INV_PHI: f64 = 0.618_033_988_749_894_8;
    let (mut lo, mut hi) = (0.0, hi);
    let mut x1 = hi - INV_PHI * (hi - lo);
    let mut x2 = lo + INV_PHI * (hi - lo);
    let (mut f1, mut f2) = (f(x1), f(x2));
    for _ in 0..iters {
        if f1 < f2 {
            lo = x1;
            x1 = x2;
            f1 = f2;
            x2 = lo + INV_PHI * (hi - lo);
            f2 = f(x2);
        } else {
            hi = x2;
            x2 = x1;
            f2 = f1;
            x1 = hi - INV_PHI * (hi - lo);
            f1 = f(x1);
        }
    }
    if f1 >= f2 {
        x1
    } else {
        x2
    }
}

/// One local max-min solve for vertex `v`; returns an improving position.
fn optimize_vertex(
    mesh: &TriMesh,
    adj: &Adjacency,
    opts: &OptSmoothOptions,
    v: u32,
) -> Option<Point2> {
    let pv = mesh.coords()[v as usize];
    let scale =
        adj.neighbors(v).iter().map(|&w| pv.dist(mesh.coords()[w as usize])).fold(0.0, f64::max);
    if scale <= 0.0 {
        return None;
    }
    let f = |p: Point2| min_quality_at(mesh, adj, opts.metric, v, p);
    let mut p = pv;
    let mut best = f(p);
    let start = best;
    let h = 1e-6 * scale;
    for _ in 0..opts.ascent_steps {
        // central-difference subgradient of the min-quality objective
        let gx = (f(p + Point2::new(h, 0.0)) - f(p + Point2::new(-h, 0.0))) / (2.0 * h);
        let gy = (f(p + Point2::new(0.0, h)) - f(p + Point2::new(0.0, -h))) / (2.0 * h);
        let g = Point2::new(gx, gy);
        let gn = g.norm();
        if gn < 1e-12 {
            break;
        }
        let dir = g / gn;
        let t = golden_max(|t| f(p + dir * t), 0.5 * scale, 20);
        let cand = p + dir * t;
        let val = f(cand);
        if val <= best + 1e-14 {
            break;
        }
        p = cand;
        best = val;
    }
    (best > start + 1e-14 && p.is_finite()).then_some(p)
}

/// Optimization-based smoothing sweep loop.
///
/// Visits interior vertices in storage order (Gauss–Seidel), so a vertex
/// reordering applied to the mesh changes layout and visit order together,
/// just like the Laplacian engine. Returns the usual [`SmoothReport`].
pub fn opt_smooth(mesh: &mut TriMesh, opts: &OptSmoothOptions) -> SmoothReport {
    let adj = Adjacency::build(mesh);
    let boundary = Boundary::from_adjacency(&adj);
    let interior = boundary.interior_vertices();

    let initial_quality = global_quality(&vertex_qualities(mesh, &adj, opts.metric));
    let mut prev = initial_quality;
    let mut iterations = Vec::new();
    let mut converged = false;

    for iter in 1..=opts.max_sweeps {
        for &v in &interior {
            if let Some(p) = optimize_vertex(mesh, &adj, opts, v) {
                mesh.coords_mut()[v as usize] = p;
            }
        }
        let quality = global_quality(&vertex_qualities(mesh, &adj, opts.metric));
        let improvement = quality - prev;
        iterations.push(IterationStats { iter, quality, improvement });
        prev = quality;
        if improvement < opts.tol {
            converged = true;
            break;
        }
    }

    let mut report = SmoothReport::starting(initial_quality);
    report.final_quality = prev;
    report.iterations = iterations;
    report.converged = converged;
    report
}

/// Worst vertex quality of `mesh` under `metric` (the objective opt-smooth
/// targets, exposed for experiments and tests).
pub fn worst_vertex_quality(mesh: &TriMesh, metric: QualityMetric) -> f64 {
    let adj = Adjacency::build(mesh);
    vertex_qualities(mesh, &adj, metric).into_iter().fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{smooth, Backend};
    use crate::untangle::count_inverted;
    use lms_mesh::generators;
    use lms_smooth::SmoothParams;

    #[test]
    fn improves_global_quality_and_converges() {
        let mut m = generators::perturbed_grid(14, 14, 0.4, 1);
        let report = opt_smooth(&mut m, &OptSmoothOptions::default());
        assert!(report.final_quality > report.initial_quality + 0.01);
        assert!(report.converged);
    }

    #[test]
    fn never_creates_inversions() {
        let mut m = generators::perturbed_grid(16, 16, 0.45, 3);
        m.orient_ccw();
        assert_eq!(count_inverted(&m), 0);
        opt_smooth(&mut m, &OptSmoothOptions::default());
        assert_eq!(count_inverted(&m), 0);
    }

    #[test]
    fn raises_the_worst_vertex_more_than_laplacian_on_harsh_jitter() {
        // Laplacian averages; opt-smooth lifts the floor. On harsh jitter
        // the floor matters.
        let base = generators::perturbed_grid(16, 16, 0.45, 7);
        let metric = QualityMetric::EdgeLengthRatio;

        let mut lap = base.clone();
        smooth(&mut lap, SmoothParams::paper().with_max_iters(30), Backend::Serial);

        let mut opt = base.clone();
        opt_smooth(&mut opt, &OptSmoothOptions::default());

        let worst_before = worst_vertex_quality(&base, metric);
        let worst_opt = worst_vertex_quality(&opt, metric);
        assert!(
            worst_opt > worst_before,
            "opt-smooth should lift the floor: {worst_before} -> {worst_opt}"
        );
    }

    #[test]
    fn boundary_stays_fixed() {
        let mut m = generators::perturbed_grid(12, 12, 0.35, 5);
        let boundary = lms_mesh::Boundary::detect(&m);
        let before: Vec<Point2> =
            boundary.boundary_vertices().iter().map(|&v| m.coords()[v as usize]).collect();
        opt_smooth(&mut m, &OptSmoothOptions::default());
        let after: Vec<Point2> =
            boundary.boundary_vertices().iter().map(|&v| m.coords()[v as usize]).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn max_sweeps_caps_the_run() {
        let mut m = generators::perturbed_grid(10, 10, 0.4, 2);
        let report =
            opt_smooth(&mut m, &OptSmoothOptions { max_sweeps: 2, ..OptSmoothOptions::default() });
        assert!(report.num_iterations() <= 2);
    }
}
