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
//! [`Theorem 1`]: https://arxiv.org/abs/1606.00803

use crate::permutation::Permutation;
use lms_mesh::quality::{vertex_qualities, QualityMetric};
use lms_mesh::{Adjacency, Boundary, TriMesh};

/// Options for the RDR ordering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RdrOptions {
    /// Quality metric used to rank vertices (the paper uses
    /// edge-length ratio).
    pub metric: QualityMetric,
    /// Number of quality bins used for the worst-first comparisons
    /// (`None` = exact float order).
    ///
    /// With exact float qualities on a mesh whose quality varies at the
    /// edge scale (every jittered mesh), the "worst unprocessed neighbour"
    /// choice is noise-driven: a chain behaves like a random self-avoiding
    /// walk and traps within tens of steps. Binning (ties then break by
    /// vertex index) keeps the worst-quality-first semantics at bin
    /// granularity and lets a generator's coherent numbering steer the
    /// chains instead. Trapped chains no longer fragment the layout either
    /// way — the next chain starts on the frontier of what is laid out
    /// ([`crate::graph::rdr_ordering_on`]), not at a far-away seed — so on
    /// an input without locality the choice moves the mean neighbour span
    /// by about ±10 % (768² shuffled grid: 8 200–9 400 across `None` and
    /// 1–64 bins).
    pub quality_bins: Option<u32>,
}

impl Default for RdrOptions {
    fn default() -> Self {
        RdrOptions { metric: QualityMetric::EdgeLengthRatio, quality_bins: Some(4) }
    }
}

impl RdrOptions {
    /// The sort key of vertex `v`: binned (or exact) quality, ties broken
    /// by vertex index.
    #[inline]
    pub fn key(&self, v: u32, quality: &[f64]) -> (u64, u32) {
        let q = quality[v as usize];
        let qk = match self.quality_bins {
            Some(bins) => (q.clamp(0.0, 1.0) * bins as f64).floor() as u64,
            // exact: total-order the float via its bit pattern (qualities
            // are non-negative, so bit order = numeric order)
            None => q.max(0.0).to_bits(),
        };
        (qk, v)
    }

    /// Sort vertex ids in place by [`RdrOptions::key`] — the worst-first
    /// comparison Algorithm 2 uses for both the outer seeds and each
    /// neighbour worklist.
    pub fn sort_by_quality(&self, ids: &mut [u32], quality: &[f64]) {
        ids.sort_unstable_by_key(|&v| self.key(v, quality));
    }
}

/// Algorithm 2 with precomputed inputs.
///
/// `quality[v]` is the per-vertex quality; `boundary` marks the pinned
/// vertices (the outer loop only seeds from interior vertices, exactly as
/// in the pseudocode; boundary vertices are ordered when they appear as
/// neighbours, and any never-reached vertex is appended at the end in index
/// order so the result is always a complete permutation).
pub fn rdr_ordering_with(
    adj: &Adjacency,
    boundary: &Boundary,
    quality: &[f64],
    options: &RdrOptions,
) -> Permutation {
    let n = adj.num_vertices();
    let interior: Vec<bool> = (0..n as u32).map(|v| boundary.is_interior(v)).collect();
    crate::graph::rdr_ordering_on(adj, &interior, quality, options)
}

/// Algorithm 2 on `mesh` given its adjacency: boundary flags and
/// qualities (under `options.metric`) are read off `adj`, nothing
/// topological is rebuilt.
pub fn rdr_ordering_with_adjacency(
    mesh: &TriMesh,
    adj: &Adjacency,
    options: &RdrOptions,
) -> Permutation {
    let boundary = Boundary::from_adjacency(adj);
    let quality = vertex_qualities(mesh, adj, options.metric);
    rdr_ordering_with(adj, &boundary, &quality, options)
}

/// Algorithm 2 end to end: builds the adjacency, then
/// [`rdr_ordering_with_adjacency`].
pub fn rdr_ordering_opts(mesh: &TriMesh, options: &RdrOptions) -> Permutation {
    rdr_ordering_with_adjacency(mesh, &Adjacency::build(mesh), options)
}

/// Paper-default RDR ordering of `mesh`.
pub fn rdr_ordering(mesh: &TriMesh) -> Permutation {
    rdr_ordering_opts(mesh, &RdrOptions::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lms_mesh::{figure5_mesh, generators};

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

    /// Exact-sort options (no quality binning), for tests pinning the
    /// literal pseudocode behaviour.
    fn exact_opts() -> RdrOptions {
        RdrOptions { quality_bins: None, ..Default::default() }
    }

    #[test]
    fn first_vertex_is_the_worst_interior_one() {
        let m = generators::perturbed_grid(12, 12, 0.4, 5);
        let (adj, boundary, q) = full_setup(&m);
        let p = rdr_ordering_with(&adj, &boundary, &q, &exact_opts());
        let first = p.new_to_old()[0];
        assert!(boundary.is_interior(first));
        let worst = (0..m.num_vertices() as u32)
            .filter(|&v| boundary.is_interior(v))
            .min_by(|&a, &b| q[a as usize].partial_cmp(&q[b as usize]).unwrap())
            .unwrap();
        assert_eq!(q[first as usize], q[worst as usize]);
    }

    #[test]
    fn binned_first_vertex_is_in_the_worst_occupied_bin() {
        let m = generators::perturbed_grid(12, 12, 0.4, 5);
        let (adj, boundary, q) = full_setup(&m);
        let opts = RdrOptions::default();
        let p = rdr_ordering_with(&adj, &boundary, &q, &opts);
        let first = p.new_to_old()[0];
        let bins = opts.quality_bins.unwrap() as f64;
        let bin = |v: u32| (q[v as usize].clamp(0.0, 1.0) * bins).floor() as u64;
        let worst_bin = (0..m.num_vertices() as u32)
            .filter(|&v| boundary.is_interior(v))
            .map(bin)
            .min()
            .unwrap();
        assert_eq!(bin(first), worst_bin);
    }

    #[test]
    fn neighbours_of_first_vertex_come_right_after_it() {
        let m = generators::perturbed_grid(10, 10, 0.35, 8);
        let (adj, boundary, q) = full_setup(&m);
        let opts = exact_opts();
        let p = rdr_ordering_with(&adj, &boundary, &q, &opts);
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
            let opts = RdrOptions { metric, ..Default::default() };
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

    #[test]
    fn rdr_improves_quality_locality_over_random() {
        // Consecutive RDR positions should hold vertices of similar quality
        // near the start (ascending-quality chains); at minimum, the first
        // decile must have below-average quality.
        // The literal pseudocode (exact quality order) walks worst-first,
        // so the head decile sits below the global mean. Averaged over
        // several meshes so one marginal draw cannot flip the comparison.
        // (The binned default trades this property for spatial coherence —
        // see `RdrOptions::quality_bins` — so it is not asserted there.)
        let mut head_sum = 0.0;
        let mut global_sum = 0.0;
        for seed in [7, 19, 42, 77] {
            let m = generators::perturbed_grid(20, 20, 0.4, seed);
            let (adj, boundary, q) = full_setup(&m);
            let p = rdr_ordering_with(&adj, &boundary, &q, &exact_opts());
            let order = p.new_to_old();
            let n = order.len();
            head_sum +=
                order[..n / 10].iter().map(|&v| q[v as usize]).sum::<f64>() / (n / 10) as f64;
            global_sum += q.iter().sum::<f64>() / n as f64;
        }
        assert!(
            head_sum < global_sum,
            "mean head quality {head_sum} should be below mean global quality {global_sum}"
        );
    }
}
