//! Layout-locality metrics for comparing orderings *before* running the
//! smoother: edge bandwidth, mean neighbour gap, and the access-span of a
//! hypothetical sweep (the quantity Figure 5 of the paper minimises) — for
//! any [`OrderMesh`].

use crate::graph::Graph;
use crate::mesh::OrderMesh;
use crate::permutation::Permutation;

/// Summary statistics of a vertex layout.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayoutStats {
    /// max |pos(u) − pos(v)| over edges (matrix bandwidth).
    pub bandwidth: usize,
    /// mean |pos(u) − pos(v)| over edges.
    pub mean_gap: f64,
    /// mean over vertices of (max − min) position among {v} ∪ N(v) —
    /// the per-vertex access span of a smoothing step (Figure 5).
    pub mean_span: f64,
}

/// Compute layout statistics for `mesh` as currently numbered.
pub fn layout_stats<const D: usize, M: OrderMesh<D>>(mesh: &M, adj: &M::Adjacency) -> LayoutStats {
    layout_stats_permuted(mesh, adj, &Permutation::identity(mesh.num_vertices()))
}

/// Compute layout statistics as if `perm` had been applied to the mesh
/// (without materialising the reordered mesh).
///
/// The edge statistics run over the adjacency's directed pairs, each edge
/// once per direction: the gaps are integers, so their sum is exact and the
/// mean equals the mean over undirected edges bit for bit.
pub fn layout_stats_permuted<const D: usize, M: OrderMesh<D>>(
    mesh: &M,
    adj: &M::Adjacency,
    perm: &Permutation,
) -> LayoutStats {
    let n = mesh.num_vertices();
    assert_eq!(perm.len(), n);
    let pos = perm.old_to_new();

    let mut bandwidth = 0usize;
    let mut gap_sum = 0f64;
    let mut pairs = 0usize;
    let mut span_sum = 0f64;
    for v in 0..n as u32 {
        let pv = pos[v as usize];
        let (mut lo, mut hi) = (pv, pv);
        for &w in adj.neighbors(v) {
            let pw = pos[w as usize];
            let gap = pv.abs_diff(pw) as usize;
            bandwidth = bandwidth.max(gap);
            gap_sum += gap as f64;
            pairs += 1;
            lo = lo.min(pw);
            hi = hi.max(pw);
        }
        span_sum += (hi - lo) as f64;
    }
    let mean_gap = if pairs == 0 { 0.0 } else { gap_sum / pairs as f64 };
    let mean_span = if n == 0 { 0.0 } else { span_sum / n as f64 };

    LayoutStats { bandwidth, mean_gap, mean_span }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversals::random_ordering;
    use lms_mesh::{generators, Adjacency};

    #[test]
    fn identity_stats_match_direct_stats() {
        let m = generators::perturbed_grid(10, 10, 0.2, 1);
        let adj = Adjacency::build(&m);
        let direct = layout_stats(&m, &adj);
        let via_perm = layout_stats_permuted(&m, &adj, &Permutation::identity(m.num_vertices()));
        assert_eq!(direct, via_perm);
    }

    #[test]
    fn grid_bandwidth_is_about_row_length() {
        let m = generators::structured_grid(16, 16);
        let adj = Adjacency::build(&m);
        let s = layout_stats(&m, &adj);
        // Row-major grid: neighbours are at ±1, ±nx, ±(nx+1).
        assert!(s.bandwidth <= 17, "bandwidth {} too large", s.bandwidth);
        assert!(s.mean_gap <= 17.0);
    }

    #[test]
    fn random_ordering_has_much_worse_locality() {
        let m = generators::structured_grid(20, 20);
        let adj = Adjacency::build(&m);
        let good = layout_stats(&m, &adj);
        let bad = layout_stats_permuted(&m, &adj, &random_ordering(m.num_vertices(), 3));
        assert!(bad.mean_gap > 4.0 * good.mean_gap);
        assert!(bad.mean_span > 4.0 * good.mean_span);
    }

    #[test]
    fn span_at_least_gap() {
        let m = generators::perturbed_grid(12, 8, 0.3, 2);
        let adj = Adjacency::build(&m);
        let s = layout_stats(&m, &adj);
        // A vertex's span covers its largest neighbour gap.
        assert!(s.mean_span + 1e-12 >= s.mean_gap);
    }

    #[test]
    fn empty_mesh_stats_are_zero() {
        let m = lms_mesh::TriMesh::new(Vec::new(), Vec::new()).unwrap();
        let adj = Adjacency::build(&m);
        let s = layout_stats(&m, &adj);
        assert_eq!(s.bandwidth, 0);
        assert_eq!(s.mean_gap, 0.0);
        assert_eq!(s.mean_span, 0.0);
    }
}
