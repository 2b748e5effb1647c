//! Local optimization-based mesh untangling (Freitag & Plassmann \[6\]).
//!
//! Plain Laplacian smoothing can invert triangles; tangled meshes also come
//! out of mesh movement and morphing. Untangling restores a valid (all
//! positive-area) triangulation by moving one vertex at a time to the
//! position that **maximises the minimum signed area** of its incident
//! triangles. That objective is the minimum of functions *linear* in the
//! vertex position, hence concave and piecewise linear — exactly the linear
//! program Freitag & Plassmann solve. We maximise it with subgradient
//! ascent plus an exact-enough golden-section line search, which converges
//! to the LP optimum for this concave objective and needs no LP machinery.
//!
//! The sweep visits the vertices incident to inverted triangles in an order
//! derived from a vertex ordering, so the ORI/BFS/RDR locality comparison
//! extends to untangling (the paper's §6 conjecture; see the `apps`
//! experiment).

use lms_mesh::geometry::signed_area;
use lms_mesh::{Adjacency, Boundary, Point2, TriMesh};
use lms_order::Permutation;

/// Number of inverted (non-positive signed area) triangles.
///
/// The mesh is interpreted in counter-clockwise convention; call
/// [`TriMesh::orient_ccw`] first if the triangle orientation is unknown.
pub fn count_inverted(mesh: &TriMesh) -> usize {
    mesh.triangles()
        .iter()
        .filter(|t| {
            let [a, b, c] = **t;
            signed_area(
                mesh.coords()[a as usize],
                mesh.coords()[b as usize],
                mesh.coords()[c as usize],
            ) <= 0.0
        })
        .count()
}

/// Knobs for [`untangle`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UntangleOptions {
    /// Hard cap on sweeps over the affected vertices.
    pub max_sweeps: usize,
    /// Subgradient-ascent steps per vertex visit.
    pub ascent_steps: usize,
}

impl Default for UntangleOptions {
    fn default() -> Self {
        UntangleOptions { max_sweeps: 50, ascent_steps: 12 }
    }
}

/// Outcome of an untangling run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UntangleReport {
    /// Inverted triangles before the first sweep.
    pub inverted_before: usize,
    /// Inverted triangles after the last sweep.
    pub inverted_after: usize,
    /// Sweeps executed.
    pub sweeps: usize,
    /// Vertex relocations committed.
    pub moves: usize,
}

impl UntangleReport {
    /// True when the mesh ended fully untangled.
    pub fn succeeded(&self) -> bool {
        self.inverted_after == 0
    }
}

/// Minimum signed area over `v`'s incident triangles with `v` at `p`.
fn min_area_at(mesh: &TriMesh, adj: &Adjacency, v: u32, p: Point2) -> f64 {
    let coords = mesh.coords();
    let at = |u: u32| if u == v { p } else { coords[u as usize] };
    adj.triangles_of(v)
        .iter()
        .map(|&t| {
            let [a, b, c] = mesh.triangles()[t as usize];
            signed_area(at(a), at(b), at(c))
        })
        .fold(f64::INFINITY, f64::min)
}

/// Subgradient of the min-area objective at `p`: the gradient of (one of)
/// the currently-worst triangle's signed area with respect to `v`.
fn min_area_subgradient(mesh: &TriMesh, adj: &Adjacency, v: u32, p: Point2) -> Point2 {
    let coords = mesh.coords();
    let at = |u: u32| if u == v { p } else { coords[u as usize] };
    let mut worst = f64::INFINITY;
    let mut grad = Point2::new(0.0, 0.0);
    for &t in adj.triangles_of(v) {
        let [a, b, c] = mesh.triangles()[t as usize];
        let area = signed_area(at(a), at(b), at(c));
        if area < worst {
            worst = area;
            // rotate the triangle so v sits in the first slot; then
            // ∂ area(v, q, r) / ∂v = ½ · rot90(r − q)
            let (q, r) = if a == v {
                (at(b), at(c))
            } else if b == v {
                (at(c), at(a))
            } else {
                (at(a), at(b))
            };
            let e = r - q;
            grad = Point2::new(-e.y, e.x) * 0.5;
        }
    }
    grad
}

/// Golden-section search for the maximum of concave `f` on `[0, hi]`.
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

/// Local scale of `v`'s ring: the longest incident edge.
fn ring_scale(mesh: &TriMesh, adj: &Adjacency, v: u32) -> f64 {
    let pv = mesh.coords()[v as usize];
    adj.neighbors(v).iter().map(|&w| pv.dist(mesh.coords()[w as usize])).fold(0.0, f64::max)
}

/// Maximise the min-area objective of vertex `v`; returns the improved
/// position if it beats the current one.
///
/// Two candidate generators, best wins: (i) subgradient ascent with a
/// golden-section line search — exact on the concave piecewise-linear
/// objective away from kinks; (ii) the ring centroid — a single step that
/// frequently lands inside the ring's kernel when the ascent stalls at a
/// kink whose active-triangle gradient is not an ascent direction.
fn optimize_vertex(
    mesh: &TriMesh,
    adj: &Adjacency,
    v: u32,
    opts: &UntangleOptions,
) -> Option<Point2> {
    let start = mesh.coords()[v as usize];
    let mut p = start;
    let mut best = min_area_at(mesh, adj, v, p);
    let start_best = best;
    let scale = ring_scale(mesh, adj, v).max(f64::MIN_POSITIVE);
    for _ in 0..opts.ascent_steps {
        let g = min_area_subgradient(mesh, adj, v, p);
        let gn = g.norm();
        if gn < 1e-300 {
            break;
        }
        let dir = g * (1.0 / gn);
        let t = golden_max(|t| min_area_at(mesh, adj, v, p + dir * t), 2.0 * scale, 24);
        let cand = p + dir * t;
        let cand_val = min_area_at(mesh, adj, v, cand);
        if cand_val <= best + 1e-15 * scale * scale {
            break;
        }
        p = cand;
        best = cand_val;
    }
    // fallback candidate: the ring centroid
    let nbrs = adj.neighbors(v);
    if !nbrs.is_empty() {
        let mut acc = Point2::new(0.0, 0.0);
        for &w in nbrs {
            acc += mesh.coords()[w as usize];
        }
        let centroid = acc * (1.0 / nbrs.len() as f64);
        if min_area_at(mesh, adj, v, centroid) > best {
            best = min_area_at(mesh, adj, v, centroid);
            p = centroid;
        }
    }
    (best > start_best && p.is_finite()).then_some(p)
}

/// Untangle `mesh` by sweeping the interior vertices incident to inverted
/// triangles, visiting them in the layout order of `ordering` (storage
/// order when `None`).
///
/// Boundary vertices never move. The mesh's stored triangle orientation is
/// the reference: a triangle is inverted when its signed area is
/// non-positive *under its stored vertex order*. (Deliberately no
/// `orient_ccw` here — flipping vertex order would define the inversions
/// away instead of moving vertices to fix them.)
pub fn untangle(
    mesh: &mut TriMesh,
    ordering: Option<&Permutation>,
    opts: UntangleOptions,
) -> UntangleReport {
    let adj = Adjacency::build(mesh);
    let boundary = Boundary::from_adjacency(&adj);
    let inverted_before = count_inverted(mesh);
    let pos = ordering.map(|p| p.old_to_new());
    let mut moves = 0;
    let mut sweeps = 0;

    // how many hops around the inverted triangles each sweep works on;
    // escalates when a sweep stalls — layered tangles need their *ring
    // neighbourhood* loosened before the trapped vertex has a kernel to
    // move into
    let mut ring = 1usize;
    const MAX_RING: usize = 3;

    while sweeps < opts.max_sweeps {
        let coords = mesh.coords();
        // corners of the inverted triangles
        let mut frontier: Vec<u32> = mesh
            .triangles()
            .iter()
            .filter(|t| {
                let [a, b, c] = **t;
                signed_area(coords[a as usize], coords[b as usize], coords[c as usize]) <= 0.0
            })
            .flatten()
            .copied()
            .collect();
        frontier.sort_unstable();
        frontier.dedup();
        if frontier.is_empty() {
            break;
        }
        // expand by `ring` hops
        let mut affected = frontier.clone();
        for _ in 0..ring {
            let mut next: Vec<u32> =
                affected.iter().flat_map(|&v| adj.neighbors(v).iter().copied()).collect();
            next.extend_from_slice(&affected);
            next.sort_unstable();
            next.dedup();
            affected = next;
        }
        affected.retain(|&v| boundary.is_interior(v));
        if affected.is_empty() {
            break; // all tangles pinned to the boundary: nothing movable
        }
        if let Some(pos) = &pos {
            affected.sort_unstable_by_key(|&v| pos[v as usize]);
        }
        sweeps += 1;
        let mut moved_this_sweep = 0;
        for v in affected {
            if let Some(p) = optimize_vertex(mesh, &adj, v, &opts) {
                mesh.coords_mut()[v as usize] = p;
                moved_this_sweep += 1;
            }
        }
        moves += moved_this_sweep;
        if moved_this_sweep == 0 {
            if ring >= MAX_RING {
                break; // stuck even with the widest neighbourhood
            }
            ring += 1;
        } else {
            ring = 1;
        }
    }

    UntangleReport { inverted_before, inverted_after: count_inverted(mesh), sweeps, moves }
}

/// Deterministically tangle `mesh` for tests and benchmarks: every
/// `stride`-th interior vertex is reflected far across its ring centroid,
/// which inverts some of its incident triangles. Returns how many vertices
/// were displaced.
pub fn tangle_vertices(mesh: &mut TriMesh, stride: usize) -> usize {
    assert!(stride > 0, "stride must be positive");
    let adj = Adjacency::build(mesh);
    let boundary = Boundary::from_adjacency(&adj);
    let interior = boundary.interior_vertices();
    let mut displaced = 0;
    for v in interior.into_iter().step_by(stride) {
        let nbrs = adj.neighbors(v);
        if nbrs.is_empty() {
            continue;
        }
        let mut cx = 0.0;
        let mut cy = 0.0;
        for &w in nbrs {
            cx += mesh.coords()[w as usize].x;
            cy += mesh.coords()[w as usize].y;
        }
        let n = nbrs.len() as f64;
        let c = Point2::new(cx / n, cy / n);
        let p = mesh.coords()[v as usize];
        // land well outside the ring polygon on the far side
        mesh.coords_mut()[v as usize] = c + (c - p) * 2.5;
        displaced += 1;
    }
    displaced
}

#[cfg(test)]
mod tests {
    use super::*;
    use lms_mesh::generators;
    use lms_order::{compute_ordering, OrderingKind};

    #[test]
    fn clean_meshes_have_no_inverted_triangles() {
        let mut m = generators::perturbed_grid(12, 12, 0.3, 1);
        m.orient_ccw();
        assert_eq!(count_inverted(&m), 0);
        let report = untangle(&mut m, None, UntangleOptions::default());
        assert_eq!(report.inverted_before, 0);
        assert_eq!(report.sweeps, 0);
        assert_eq!(report.moves, 0);
        assert!(report.succeeded());
    }

    #[test]
    fn tangling_inverts_triangles() {
        let mut m = generators::perturbed_grid(12, 12, 0.25, 2);
        m.orient_ccw();
        let displaced = tangle_vertices(&mut m, 20);
        assert!(displaced > 0);
        assert!(count_inverted(&m) > 0);
    }

    #[test]
    fn untangle_recovers_a_tangled_grid() {
        for seed in [1, 5, 9] {
            let mut m = generators::perturbed_grid(14, 14, 0.25, seed);
            m.orient_ccw();
            tangle_vertices(&mut m, 25);
            let before = count_inverted(&m);
            assert!(before > 0, "seed {seed}: tangle failed");
            let report = untangle(&mut m, None, UntangleOptions::default());
            assert!(
                report.succeeded(),
                "seed {seed}: {} inverted left after {} sweeps",
                report.inverted_after,
                report.sweeps
            );
            assert_eq!(report.inverted_before, before);
            assert!(report.moves > 0);
        }
    }

    #[test]
    fn untangle_never_moves_boundary_vertices() {
        let mut m = generators::perturbed_grid(12, 12, 0.25, 3);
        m.orient_ccw();
        tangle_vertices(&mut m, 15);
        let boundary = Boundary::detect(&m);
        let before: Vec<Point2> =
            boundary.boundary_vertices().iter().map(|&v| m.coords()[v as usize]).collect();
        untangle(&mut m, None, UntangleOptions::default());
        let after: Vec<Point2> =
            boundary.boundary_vertices().iter().map(|&v| m.coords()[v as usize]).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn untangle_respects_visit_ordering_and_still_succeeds() {
        for kind in [OrderingKind::Rdr, OrderingKind::Random { seed: 2 }] {
            let mut m = generators::perturbed_grid(13, 13, 0.25, 4);
            m.orient_ccw();
            tangle_vertices(&mut m, 22);
            let perm = compute_ordering(&m, kind);
            let report = untangle(&mut m, Some(&perm), UntangleOptions::default());
            assert!(report.succeeded(), "{} failed to untangle", kind.name());
        }
    }

    #[test]
    fn max_sweeps_bounds_the_work() {
        let mut m = generators::perturbed_grid(12, 12, 0.25, 6);
        m.orient_ccw();
        tangle_vertices(&mut m, 3);
        assert!(count_inverted(&m) > 0, "tangling must invert something for this test");
        let report = untangle(&mut m, None, UntangleOptions { max_sweeps: 1, ascent_steps: 2 });
        assert_eq!(report.sweeps, 1);
    }

    #[test]
    fn golden_section_finds_concave_maxima() {
        // f(t) = -(t - 3)^2, max at 3 on [0, 10]
        let t = golden_max(|t| -(t - 3.0) * (t - 3.0), 10.0, 40);
        assert!((t - 3.0).abs() < 1e-6, "got {t}");
    }
}
