//! Parallel RDR construction.
//!
//! §5.4 prices the serial reordering at "approximatively one iteration with
//! the ORI ordering", making RDR worthwhile from four smoothing iterations
//! on. Measured here on the shuffled 768² input (2-vCPU VM), serial RDR
//! (`compute_ordering_with(Rdr)`, 0.18–0.22 s) costs about two of the
//! serial engine's smart sweeps (≈ 0.093 s each); it cost about four
//! (0.33–0.38 s) while the walk read its state from an `f64` quality and
//! three flag arrays. Parallelising the *construction* moves the
//! break-even point further down: this module partitions the vertex index space into contiguous
//! chunks (the same static decomposition the paper's parallel smoother
//! uses), runs the Algorithm-2 walk of [`crate::graph`] inside each chunk
//! with rayon, and concatenates the per-chunk orders.
//!
//! The result is deterministic for every chunk count (the decomposition is
//! by index, not by thread) and degrades locality only at the chunk seams.
//! The serial [`rdr_ordering_with`] is the same walk over the whole index
//! range, so `chunks = 1` reproduces it exactly.
//!
//! [`rdr_ordering_with`]: crate::rdr::rdr_ordering_with

use crate::graph::{rdr_walk_in_range, Graph};
use crate::permutation::Permutation;
use crate::rdr::RdrOptions;
use rayon::prelude::*;

/// How the per-chunk orders are concatenated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChunkConcat {
    /// Chunks in index order — preserves the generator numbering's global
    /// coherence (default).
    #[default]
    IndexOrder,
    /// Chunks sorted by their worst (minimum) vertex quality — the closest
    /// parallel analogue of Algorithm 2's global worst-first outer loop.
    WorstQualityFirst,
}

/// Options for the parallel RDR construction.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ParRdrOptions {
    /// The underlying Algorithm-2 options (quality binning, seeding).
    pub rdr: RdrOptions,
    /// Chunk concatenation policy.
    pub concat: ChunkConcat,
}

/// Parallel RDR over `chunks` contiguous index ranges.
///
/// `interior[v]` and `quality[v]` are as in
/// [`rdr_ordering_on`](crate::graph::rdr_ordering_on). The chunk walks run
/// on the current rayon pool; wrap the call in
/// [`rayon::ThreadPool::install`] to bound the thread count.
pub fn par_rdr_ordering_on<G: Graph + Sync>(
    graph: &G,
    interior: &[bool],
    quality: &[f64],
    options: &ParRdrOptions,
    chunks: usize,
) -> Permutation {
    let n = graph.num_vertices();
    assert_eq!(quality.len(), n, "need one quality value per vertex");
    assert_eq!(interior.len(), n, "need one interior flag per vertex");
    assert!(chunks >= 1, "need at least one chunk");

    let chunk = n.div_ceil(chunks).max(1);
    let ranges: Vec<(u32, u32)> = (0..chunks)
        .map(|c| (((c * chunk).min(n)) as u32, (((c + 1) * chunk).min(n)) as u32))
        .filter(|&(lo, hi)| lo < hi)
        .collect();

    let mut parts: Vec<Vec<u32>> = ranges
        .par_iter()
        .map(|&(lo, hi)| rdr_walk_in_range(graph, interior, quality, lo, hi))
        .collect();

    if options.concat == ChunkConcat::WorstQualityFirst {
        // sort chunks by their worst member quality, ascending; ties by
        // first vertex id for determinism
        parts.sort_by(|a, b| {
            let worst =
                |p: &Vec<u32>| p.iter().map(|&v| quality[v as usize]).fold(f64::INFINITY, f64::min);
            worst(a)
                .partial_cmp(&worst(b))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.first().cmp(&b.first()))
        });
    }

    let mut vnew = Vec::with_capacity(n);
    for part in parts {
        vnew.extend(part);
    }
    Permutation::from_new_to_old_unchecked(vnew)
}

/// Parallel RDR on a triangle mesh end to end (adjacency, boundary and
/// qualities derived as in [`rdr_ordering_opts`](crate::rdr::rdr_ordering_opts)).
pub fn par_rdr_ordering(
    mesh: &lms_mesh::TriMesh,
    options: &ParRdrOptions,
    chunks: usize,
) -> Permutation {
    let adj = lms_mesh::Adjacency::build(mesh);
    let boundary = lms_mesh::Boundary::from_adjacency(&adj);
    let quality = lms_mesh::quality::vertex_qualities(mesh, &adj, options.rdr.metric);
    let interior: Vec<bool> =
        (0..mesh.num_vertices() as u32).map(|v| boundary.is_interior(v)).collect();
    par_rdr_ordering_on(&adj, &interior, &quality, options, chunks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::layout_stats_permuted;
    use crate::rdr::rdr_ordering;
    use lms_mesh::{generators, Adjacency};

    fn check_bijection(p: &Permutation, n: usize) {
        assert_eq!(p.len(), n);
        let mut ids = p.new_to_old().to_vec();
        ids.sort_unstable();
        assert!(ids.iter().enumerate().all(|(i, &v)| i as u32 == v));
    }

    #[test]
    fn one_chunk_equals_serial_rdr() {
        let m = generators::perturbed_grid(16, 16, 0.35, 3);
        let par = par_rdr_ordering(&m, &ParRdrOptions::default(), 1);
        assert_eq!(par, rdr_ordering(&m));
    }

    #[test]
    fn any_chunk_count_is_a_bijection() {
        let m = generators::perturbed_grid(14, 12, 0.35, 5);
        for chunks in [2usize, 3, 4, 7, 16, 1000] {
            let p = par_rdr_ordering(&m, &ParRdrOptions::default(), chunks);
            check_bijection(&p, m.num_vertices());
        }
    }

    #[test]
    fn deterministic_regardless_of_parallelism() {
        let m = generators::perturbed_grid(15, 15, 0.3, 9);
        let opts = ParRdrOptions::default();
        let a = par_rdr_ordering(&m, &opts, 4);
        // run again inside a 1-thread pool: same decomposition, same result
        let pool = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let b = pool.install(|| par_rdr_ordering(&m, &opts, 4));
        assert_eq!(a, b);
    }

    #[test]
    fn worst_quality_concat_is_also_a_bijection() {
        let m = generators::perturbed_grid(13, 13, 0.4, 2);
        let opts = ParRdrOptions { concat: ChunkConcat::WorstQualityFirst, ..Default::default() };
        let p = par_rdr_ordering(&m, &opts, 4);
        check_bijection(&p, m.num_vertices());
    }

    #[test]
    fn chunked_locality_stays_close_to_serial() {
        let m = generators::perturbed_grid(28, 28, 0.35, 7);
        let adj = Adjacency::build(&m);
        let serial = layout_stats_permuted(&m, &adj, &rdr_ordering(&m)).mean_span;
        let par4 =
            layout_stats_permuted(&m, &adj, &par_rdr_ordering(&m, &ParRdrOptions::default(), 4))
                .mean_span;
        // seams cost something, but the chunked layout must stay within 3x
        // of serial RDR and far below random
        let rnd = layout_stats_permuted(
            &m,
            &adj,
            &crate::traversals::random_ordering(m.num_vertices(), 1),
        )
        .mean_span;
        assert!(par4 < serial * 3.0, "par {par4} vs serial {serial}");
        assert!(par4 < rnd / 3.0, "par {par4} vs random {rnd}");
    }

    #[test]
    fn more_chunks_than_vertices_degenerates_gracefully() {
        let m = generators::perturbed_grid(4, 4, 0.2, 1);
        let p = par_rdr_ordering(&m, &ParRdrOptions::default(), 10_000);
        // every chunk is a single vertex: the order is the identity
        assert!(p.is_identity());
    }
}
