//! **RDR — the Reuse-Distance-Reducing ordering (Algorithm 2, the paper's
//! contribution).**
//!
//! The ordering mimics the smoother's own greedy traversal: starting from
//! the interior vertex of worst quality, it appends each visited vertex's
//! not-yet-ordered neighbours *sorted by increasing quality*, then chains to
//! the worst-quality unprocessed neighbour and repeats. Because the
//! smoothing sweep touches a vertex and then its neighbours, laying the
//! vertices out in this traversal order makes the sweep's accesses almost
//! sequential — minimising reuse distance (Table 2) and cache misses
//! (Figure 9, Table 3).
//!
//! The implementation follows the pseudocode line by line except for where
//! a new chain starts once the current one is trapped: on the frontier of
//! what is already laid out rather than at the next vertex of the global
//! quality list (see [`crate::graph::rdr_ordering_on`]). [`Theorem 1`]
//! (every vertex ordered exactly once) is enforced by construction and
//! checked by property tests.
//!
//! Vertices are ranked by quality *bin* ([`RdrOptions::key`]), and the bin
//! is small enough that the walk packs it with its three per-vertex flags
//! into one byte: line 6's global sort becomes a cursor that makes at most
//! one pass over those bytes per bin, and each neighbour worklist is a
//! sort of plain integer keys.
//!
//! [`Theorem 1`]: https://arxiv.org/abs/1606.00803

use crate::graph::rdr_ordering_on;
use crate::permutation::Permutation;
use crate::{compute_ordering, OrderMesh, OrderingKind};
use lms_mesh::quality::{vertex_qualities, QualityMetric};
use lms_mesh::{Adjacency, TriMesh};

/// Options for the RDR ordering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RdrOptions {
    /// Quality metric used to rank vertices (the paper uses
    /// edge-length ratio).
    pub metric: QualityMetric,
}

impl Default for RdrOptions {
    fn default() -> Self {
        RdrOptions { metric: QualityMetric::EdgeLengthRatio }
    }
}

/// Number of equal-width quality bins over `[0, 1]` the worst-first
/// comparisons rank by.
///
/// With exact float qualities on a mesh whose quality varies at the edge
/// scale (every jittered mesh), the "worst unprocessed neighbour" choice
/// is noise-driven: a chain behaves like a random self-avoiding walk and
/// traps within tens of steps. Binning (ties then break by vertex index)
/// keeps the worst-quality-first semantics at bin granularity and lets a
/// generator's coherent numbering steer the chains instead.
const QUALITY_BINS: f64 = 4.0;

// The RDR walk keeps a bin, `0..=QUALITY_BINS`, in 3 bits of a byte.
const _: () = assert!(QUALITY_BINS < 8.0);

/// The quality bin of `q`, `0..=4`: `floor(4 · clamp(q, 0, 1))`, so 1.0
/// and above land in bin 4. NaN, negative values and −0 land in bin 0.
///
/// The one place the bin is computed: [`RdrOptions::key`] and the walk's
/// per-vertex state byte both read it from here, so they cannot drift.
#[inline]
pub(crate) fn quality_bin(q: f64) -> u8 {
    // `as` saturates and maps NaN to 0
    (q.clamp(0.0, 1.0) * QUALITY_BINS).floor() as u8
}

impl RdrOptions {
    /// The sort key of vertex `v`: its quality bin, ties broken by vertex
    /// index.
    #[inline]
    pub fn key(&self, v: u32, quality: &[f64]) -> (u64, u32) {
        (u64::from(quality_bin(quality[v as usize])), v)
    }

    /// Sort vertex ids in place by [`RdrOptions::key`] — the worst-first
    /// comparison Algorithm 2 uses for both the outer seeds and each
    /// neighbour worklist.
    pub fn sort_by_quality(&self, ids: &mut [u32], quality: &[f64]) {
        ids.sort_unstable_by_key(|&v| self.key(v, quality));
    }
}

/// Algorithm 2 on a triangle mesh, ranking vertices by `options.metric`:
/// builds the adjacency, reads the interior flags off it and runs the walk
/// ([`rdr_ordering_on`]). Boundary vertices are ordered when they appear
/// as neighbours, and any never-reached vertex is appended at the end in
/// index order, so the result is always a complete permutation.
pub fn rdr_ordering_opts(mesh: &TriMesh, options: &RdrOptions) -> Permutation {
    let adj = Adjacency::build(mesh);
    let quality = vertex_qualities(mesh, &adj, options.metric);
    rdr_ordering_on(&adj, &mesh.interior_flags(&adj), &quality)
}

/// Paper-default RDR ordering (edge-length-ratio qualities) of a mesh of
/// either dimension: [`compute_ordering`] with [`OrderingKind::Rdr`].
pub fn rdr_ordering<const D: usize, M: OrderMesh<D>>(mesh: &M) -> Permutation {
    compute_ordering(mesh, OrderingKind::Rdr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lms_mesh::{figure5_mesh, generators, Boundary};

    fn full_setup(mesh: &TriMesh) -> (Adjacency, Boundary, Vec<f64>) {
        let adj = Adjacency::build(mesh);
        let boundary = Boundary::detect(mesh);
        let q = vertex_qualities(mesh, &adj, QualityMetric::EdgeLengthRatio);
        (adj, boundary, q)
    }

    /// Theorem 1: every vertex ordered exactly once.
    #[test]
    fn theorem1_every_vertex_exactly_once() {
        for seed in [1u64, 2, 3] {
            let m = generators::perturbed_grid(15, 13, 0.35, seed);
            let p = rdr_ordering(&m);
            assert_eq!(p.len(), m.num_vertices());
            let mut seen = p.new_to_old().to_vec();
            seen.sort_unstable();
            let expect: Vec<u32> = (0..m.num_vertices() as u32).collect();
            assert_eq!(seen, expect);
        }
    }

    #[test]
    fn binned_first_vertex_is_in_the_worst_occupied_bin() {
        let m = generators::perturbed_grid(12, 12, 0.4, 5);
        let (adj, boundary, q) = full_setup(&m);
        let p = rdr_ordering_on(&adj, &m.interior_flags(&adj), &q);
        let first = p.new_to_old()[0];
        assert!(boundary.is_interior(first));
        let bin = |v: u32| quality_bin(q[v as usize]);
        let worst_bin = (0..m.num_vertices() as u32)
            .filter(|&v| boundary.is_interior(v))
            .map(bin)
            .min()
            .unwrap();
        assert_eq!(bin(first), worst_bin);
    }

    #[test]
    fn quality_bins_cover_the_edges() {
        let cases = [
            (f64::NAN, 0),
            (f64::NEG_INFINITY, 0),
            (-0.5, 0),
            (-0.0, 0),
            (0.0, 0),
            (0.249, 0),
            (0.25, 1),
            (0.5, 2),
            (0.75, 3),
            (0.999, 3),
            (1.0, 4),
            (7.0, 4),
            (f64::INFINITY, 4),
        ];
        for (q, bin) in cases {
            assert_eq!(quality_bin(q), bin, "q = {q}");
        }
    }

    #[test]
    fn neighbours_of_first_vertex_come_right_after_it() {
        let m = generators::perturbed_grid(10, 10, 0.35, 8);
        let (adj, _, q) = full_setup(&m);
        let opts = RdrOptions::default();
        let p = rdr_ordering_on(&adj, &m.interior_flags(&adj), &q);
        let order = p.new_to_old();
        let first = order[0];
        let deg = adj.degree(first);
        // positions 1..=deg hold exactly first's neighbours, quality-ascending
        let mut expect: Vec<u32> = adj.neighbors(first).to_vec();
        opts.sort_by_quality(&mut expect, &q);
        assert_eq!(&order[1..=deg], &expect[..]);
    }

    #[test]
    fn deterministic() {
        let m = generators::perturbed_grid(14, 14, 0.3, 2);
        assert_eq!(rdr_ordering(&m), rdr_ordering(&m));
    }

    #[test]
    fn works_on_all_quality_metrics() {
        let m = figure5_mesh();
        for metric in
            [QualityMetric::EdgeLengthRatio, QualityMetric::MinAngle, QualityMetric::RadiusRatio]
        {
            let opts = RdrOptions { metric };
            let p = rdr_ordering_opts(&m, &opts);
            assert_eq!(p.len(), 13);
        }
    }

    #[test]
    fn mesh_with_no_interior_vertices_falls_back_to_identity() {
        // A single triangle: all vertices are boundary, nothing is seeded,
        // everything lands in the index-order tail.
        let m = lms_mesh::TriMesh::new(
            vec![
                lms_mesh::Point2::new(0.0, 0.0),
                lms_mesh::Point2::new(1.0, 0.0),
                lms_mesh::Point2::new(0.0, 1.0),
            ],
            vec![[0, 1, 2]],
        )
        .unwrap();
        let p = rdr_ordering(&m);
        assert!(p.is_identity());
    }

    /// FNV-1a (64-bit) over the little-endian bytes of `ids`.
    fn fnv1a(ids: &[u32]) -> u64 {
        ids.iter().flat_map(|v| v.to_le_bytes()).fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// The RDR order of a shuffled grid, pinned by hash: a change to the
    /// walk that moves a single vertex fails here, without the harness.
    #[test]
    fn shuffled_grid_order_is_pinned() {
        let m = generators::perturbed_grid(128, 128, 0.35, 1);
        let shuffled = crate::random_ordering(m.num_vertices(), 1).apply_to_mesh(&m);
        let p = rdr_ordering(&shuffled);
        assert_eq!(fnv1a(p.new_to_old()), 0x2c63_7d4a_1d87_8429);
    }
}
