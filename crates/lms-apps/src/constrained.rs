//! Constrained mesh smoothing (Parthasarathy & Kodiyalam \[13\]).
//!
//! Plain Laplacian smoothing pins every boundary vertex, which leaves the
//! quality of boundary-adjacent triangles on the table. The constrained
//! variant lets boundary vertices move **along the boundary polyline**:
//! each non-corner boundary vertex is pulled toward the midpoint of its two
//! boundary neighbours and the move is projected back onto its two incident
//! boundary segments, so the domain shape is preserved exactly (corners are
//! detected by turn angle and pinned). Interior vertices take the ordinary
//! Equation (1) Laplacian step. One of the paper's §6 target applications
//! for RDR-style orderings.

use crate::edges::EdgeTopology;
use lms_mesh::quality::{global_quality, vertex_qualities};
use lms_mesh::{Adjacency, Boundary, Point2, TriMesh};
use lms_smooth::{IterationStats, SmoothParams, SmoothReport};

/// Knobs for [`constrained_smooth`] beyond the shared [`SmoothParams`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConstrainedOptions {
    /// A boundary vertex whose polyline turn deviates from straight by
    /// more than this angle (radians) is a corner and never moves.
    pub corner_angle: f64,
}

impl Default for ConstrainedOptions {
    fn default() -> Self {
        ConstrainedOptions {
            // ~20°: jittered-grid boundary wiggle slides, domain corners pin
            corner_angle: 0.35,
        }
    }
}

/// Per-vertex movement rule, resolved once before the sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rule {
    /// Ordinary Laplacian update (interior vertex).
    Interior,
    /// Slide along the boundary between the two given neighbours.
    Slide { n1: u32, n2: u32 },
    /// Never move (corner / non-manifold boundary vertex).
    Pinned,
}

/// Project `p` onto segment `[a, b]`.
fn project_onto_segment(p: Point2, a: Point2, b: Point2) -> Point2 {
    let ab = b - a;
    let len_sq = ab.norm_sq();
    if len_sq <= 0.0 {
        return a;
    }
    let t = ((p - a).dot(ab) / len_sq).clamp(0.0, 1.0);
    a.lerp(b, t)
}

/// Resolve the movement rule of every vertex.
fn movement_rules(mesh: &TriMesh, boundary: &Boundary, opts: &ConstrainedOptions) -> Vec<Rule> {
    let n = mesh.num_vertices();
    let mut rules = vec![Rule::Interior; n];
    // collect each boundary vertex's boundary neighbours
    let mut bnbrs: Vec<Vec<u32>> = vec![Vec::new(); n];
    if let Ok(topo) = EdgeTopology::build(mesh) {
        for (a, b) in topo.boundary_edges() {
            bnbrs[a as usize].push(b);
            bnbrs[b as usize].push(a);
        }
    }
    for v in 0..n as u32 {
        if boundary.is_interior(v) {
            continue;
        }
        let nbrs = &bnbrs[v as usize];
        rules[v as usize] = if nbrs.len() == 2 {
            let (pv, p1, p2) = (
                mesh.coords()[v as usize],
                mesh.coords()[nbrs[0] as usize],
                mesh.coords()[nbrs[1] as usize],
            );
            let (u, w) = (p1 - pv, p2 - pv);
            let (nu, nw) = (u.norm(), w.norm());
            if nu <= 0.0 || nw <= 0.0 {
                Rule::Pinned
            } else {
                let turn = (u.dot(w) / (nu * nw)).clamp(-1.0, 1.0).acos();
                if (std::f64::consts::PI - turn).abs() <= opts.corner_angle {
                    Rule::Slide { n1: nbrs[0], n2: nbrs[1] }
                } else {
                    Rule::Pinned
                }
            }
        } else {
            Rule::Pinned
        };
    }
    rules
}

/// Constrained Laplacian smoothing: interior vertices follow Equation (1),
/// boundary vertices slide along the boundary, corners stay pinned.
///
/// Uses `params` for the quality metric, convergence tolerance, iteration
/// cap and the smart (non-regressing) guard; the update is always
/// Gauss–Seidel in storage order, so applying a vertex reordering to the
/// mesh changes both layout and visit order, exactly as in the paper's
/// smoother.
pub fn constrained_smooth(
    mesh: &mut TriMesh,
    params: &SmoothParams,
    opts: &ConstrainedOptions,
) -> SmoothReport {
    let adj = Adjacency::build(mesh);
    let boundary = Boundary::from_adjacency(&adj);
    let rules = movement_rules(mesh, &boundary, opts);

    let initial_quality = global_quality(&vertex_qualities(mesh, &adj, params.metric));
    let mut prev_quality = initial_quality;
    let mut iterations = Vec::new();
    let mut converged = false;

    for iter in 1..=params.max_iters {
        for v in 0..mesh.num_vertices() as u32 {
            let target = match rules[v as usize] {
                Rule::Pinned => continue,
                Rule::Interior => {
                    let nbrs = adj.neighbors(v);
                    if nbrs.is_empty() {
                        continue;
                    }
                    let mut acc = Point2::ZERO;
                    for &w in nbrs {
                        acc += mesh.coords()[w as usize];
                    }
                    // same expression as the engine's sweep, so the
                    // all-pinned configuration is bit-identical to it
                    acc / nbrs.len() as f64
                }
                Rule::Slide { n1, n2 } => {
                    let (pv, p1, p2) = (
                        mesh.coords()[v as usize],
                        mesh.coords()[n1 as usize],
                        mesh.coords()[n2 as usize],
                    );
                    let mid = p1.lerp(p2, 0.5);
                    // stay on the polyline: project the midpoint onto the
                    // two incident segments, keep the closer projection
                    let c1 = project_onto_segment(mid, p1, pv);
                    let c2 = project_onto_segment(mid, pv, p2);
                    if mid.dist_sq(c1) <= mid.dist_sq(c2) {
                        c1
                    } else {
                        c2
                    }
                }
            };
            if !target.is_finite() {
                continue;
            }
            if params.smart {
                // commit only if the local mean quality does not regress
                let local = |mesh: &TriMesh| {
                    let mut sum = 0.0;
                    let tris = adj.triangles_of(v);
                    for &t in tris {
                        let [a, b, c] = mesh.triangles()[t as usize];
                        sum += params.metric.triangle_quality(
                            mesh.coords()[a as usize],
                            mesh.coords()[b as usize],
                            mesh.coords()[c as usize],
                        );
                    }
                    sum / tris.len().max(1) as f64
                };
                let before = local(mesh);
                let old = mesh.coords()[v as usize];
                mesh.coords_mut()[v as usize] = target;
                if local(mesh) < before {
                    mesh.coords_mut()[v as usize] = old;
                }
            } else {
                mesh.coords_mut()[v as usize] = target;
            }
        }

        let quality = global_quality(&vertex_qualities(mesh, &adj, params.metric));
        let improvement = quality - prev_quality;
        iterations.push(IterationStats { iter, quality, improvement });
        prev_quality = quality;
        // signed comparison, exactly like the storage-order engine: any
        // sweep that gains less than `tol` (including regressions) stops
        if improvement < params.tol {
            converged = true;
            break;
        }
    }

    let mut report = SmoothReport::starting(initial_quality);
    report.final_quality = prev_quality;
    report.iterations = iterations;
    report.converged = converged;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{smooth, Backend};
    use lms_mesh::generators;

    fn corners_of(mesh: &TriMesh) -> Vec<u32> {
        let boundary = Boundary::detect(mesh);
        let rules = movement_rules(mesh, &boundary, &ConstrainedOptions::default());
        (0..mesh.num_vertices() as u32).filter(|&v| rules[v as usize] == Rule::Pinned).collect()
    }

    #[test]
    fn grid_detects_exactly_its_four_extreme_corners_as_pinned_or_more() {
        // a jittered grid boundary has wiggle, so more than 4 vertices may
        // exceed the corner angle — but the 4 bbox corners must be pinned
        let m = generators::perturbed_grid(12, 12, 0.2, 1);
        let (lo, hi) = m.bbox();
        let corners = corners_of(&m);
        let is_extreme = |p: Point2| {
            (p.x - lo.x).abs() < 1e-9 && (p.y - lo.y).abs() < 1e-9
                || (p.x - hi.x).abs() < 1e-9 && (p.y - hi.y).abs() < 1e-9
                || (p.x - lo.x).abs() < 1e-9 && (p.y - hi.y).abs() < 1e-9
                || (p.x - hi.x).abs() < 1e-9 && (p.y - lo.y).abs() < 1e-9
        };
        let extreme: Vec<u32> =
            (0..m.num_vertices() as u32).filter(|&v| is_extreme(m.coords()[v as usize])).collect();
        assert_eq!(extreme.len(), 4);
        for v in extreme {
            assert!(corners.contains(&v), "bbox corner {v} must be pinned");
        }
    }

    #[test]
    fn constrained_smoothing_improves_quality() {
        let mut m = generators::perturbed_grid(16, 16, 0.35, 7);
        let report = constrained_smooth(
            &mut m,
            &SmoothParams::paper().with_max_iters(50),
            &ConstrainedOptions::default(),
        );
        assert!(report.final_quality > report.initial_quality);
        assert!(report.converged);
    }

    /// Slide every non-corner boundary vertex tangentially (staying on its
    /// straight boundary line) by a deterministic bounded amount, so the
    /// boundary spacing becomes uneven. `perturbed_grid` keeps boundaries
    /// perfectly uniform, which leaves constrained smoothing no head-room.
    fn unevenize_boundary(mesh: &mut TriMesh, frac: f64) {
        let (lo, hi) = mesh.bbox();
        let eps = 1e-12;
        // smallest grid step, as a conservative tangential scale
        let n = mesh.num_vertices();
        let h = ((hi.x - lo.x) * (hi.y - lo.y) / n as f64).sqrt() * 0.5;
        for v in 0..n {
            let p = mesh.coords()[v];
            let on_x = (p.x - lo.x).abs() < eps || (p.x - hi.x).abs() < eps;
            let on_y = (p.y - lo.y).abs() < eps || (p.y - hi.y).abs() < eps;
            let shift = frac * h * (7.0 * v as f64).sin();
            if on_y && !on_x {
                mesh.coords_mut()[v].x += shift; // top/bottom edge: slide in x
            } else if on_x && !on_y {
                mesh.coords_mut()[v].y += shift; // left/right edge: slide in y
            }
        }
    }

    #[test]
    fn constrained_beats_interior_only_smoothing_on_boundary_heavy_meshes() {
        // narrow strip: most vertices are on the boundary, so sliding them
        // is where the quality head-room is
        let mut base = generators::perturbed_grid(40, 4, 0.25, 3);
        unevenize_boundary(&mut base, 0.6);
        let params = SmoothParams::paper().with_max_iters(60);

        let mut interior_only = base.clone();
        let plain = smooth(&mut interior_only, params.clone(), Backend::Serial);

        let mut constrained = base.clone();
        let cons = constrained_smooth(&mut constrained, &params, &ConstrainedOptions::default());

        assert!(
            cons.final_quality > plain.final_quality,
            "constrained {} should beat interior-only {}",
            cons.final_quality,
            plain.final_quality
        );
    }

    #[test]
    fn domain_bbox_is_preserved() {
        // sliding along the boundary must not change the domain's extent
        let mut m = generators::perturbed_grid(14, 14, 0.3, 5);
        let (lo0, hi0) = m.bbox();
        constrained_smooth(
            &mut m,
            &SmoothParams::paper().with_max_iters(40),
            &ConstrainedOptions::default(),
        );
        let (lo1, hi1) = m.bbox();
        assert!(lo0.dist(lo1) < 1e-9 && hi0.dist(hi1) < 1e-9);
    }

    #[test]
    fn smart_guard_still_improves_quality() {
        let mut m = generators::perturbed_grid(14, 14, 0.35, 9);
        let report = constrained_smooth(
            &mut m,
            &SmoothParams::paper().with_smart(true).with_max_iters(30),
            &ConstrainedOptions::default(),
        );
        assert!(report.final_quality > report.initial_quality);
    }

    #[test]
    fn pinned_everything_is_a_fixed_point() {
        // corner angle 0 with a fully wiggly boundary: all boundary pinned,
        // interior still smooths — equivalent to plain smoothing
        let mut a = generators::perturbed_grid(10, 10, 0.3, 2);
        let mut b = a.clone();
        let params = SmoothParams::paper().with_max_iters(20);
        let ra = smooth(&mut a, params.clone(), Backend::Serial);
        let rb = constrained_smooth(&mut b, &params, &ConstrainedOptions { corner_angle: -1.0 });
        assert!((ra.final_quality - rb.final_quality).abs() < 1e-12);
        assert_eq!(a.coords(), b.coords());
    }
}
