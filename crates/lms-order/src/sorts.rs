//! Value-sorted orderings — ablation baselines that isolate *what part of
//! RDR does the work*.
//!
//! RDR (Algorithm 2) combines two ingredients: (i) rank vertices by their
//! initial quality, and (ii) walk the mesh graph so a vertex's neighbours
//! land next to it in storage. These baselines keep only ingredient (i):
//!
//! * [`quality_sort_from_values`] sorts all vertices globally by increasing
//!   initial quality — the §4.2 conjecture taken literally, with no
//!   neighbour chaining. If RDR's win came purely from matching the greedy
//!   sweep's *temporal* order, this ordering would match it; in fact it
//!   scatters neighbours (bad spatial locality) and loses badly, which is
//!   the evidence that the chaining step matters.
//! * [`degree_sort_ordering`] sorts by vertex degree — the same "sort by a
//!   scalar" shape with a quality-free key, separating "any stable sort"
//!   from "quality specifically".
//!
//! Both are deterministic (ties break by vertex index).

use crate::graph::Graph;
use crate::permutation::Permutation;

/// Sort every vertex by increasing initial quality `quality[v]` (ties by
/// index).
///
/// This is the "global quality sort" that seeds RDR's outer loop, used
/// *alone* as a full ordering (`OrderingKind::QualitySort` ranks by the
/// edge-length-ratio qualities).
pub fn quality_sort_from_values(quality: &[f64]) -> Permutation {
    let mut order: Vec<u32> = (0..quality.len() as u32).collect();
    // qualities are finite and non-negative, so the IEEE bit pattern is
    // monotone in the value and gives a cheap total order
    order.sort_unstable_by_key(|&v| (quality[v as usize].max(0.0).to_bits(), v));
    Permutation::from_new_to_old_unchecked(order)
}

/// Sort every vertex by increasing degree (ties by index).
pub fn degree_sort_ordering<G: Graph>(adj: &G) -> Permutation {
    let mut order: Vec<u32> = (0..adj.num_vertices() as u32).collect();
    order.sort_unstable_by_key(|&v| (adj.degree(v), v));
    Permutation::from_new_to_old_unchecked(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compute_ordering, OrderingKind};
    use lms_mesh::quality::{vertex_qualities, QualityMetric};
    use lms_mesh::{generators, Adjacency};

    #[test]
    fn quality_sort_is_monotone_in_quality() {
        let m = generators::perturbed_grid(14, 14, 0.35, 8);
        let adj = Adjacency::build(&m);
        let q = vertex_qualities(&m, &adj, QualityMetric::EdgeLengthRatio);
        let p = compute_ordering(&m, OrderingKind::QualitySort);
        let ordered: Vec<f64> = p.new_to_old().iter().map(|&v| q[v as usize]).collect();
        assert!(ordered.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(p.len(), m.num_vertices());
    }

    #[test]
    fn quality_sort_ties_break_by_index() {
        let p = quality_sort_from_values(&[0.5, 0.5, 0.25, 0.5]);
        assert_eq!(p.new_to_old(), &[2, 0, 1, 3]);
    }

    #[test]
    fn degree_sort_is_monotone_in_degree() {
        let m = generators::perturbed_grid(13, 17, 0.3, 5);
        let adj = Adjacency::build(&m);
        let p = degree_sort_ordering(&adj);
        let degs: Vec<usize> = p.new_to_old().iter().map(|&v| adj.degree(v)).collect();
        assert!(degs.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn sorts_are_permutations_even_on_degenerate_inputs() {
        assert!(quality_sort_from_values(&[]).is_empty());
        let uniform = quality_sort_from_values(&[0.7; 9]);
        assert!(uniform.is_identity());
    }

    #[test]
    fn quality_sort_scatters_neighbours() {
        // the point of this baseline: a pure quality sort has *worse*
        // spatial locality than the generator's numbering
        use crate::metrics::layout_stats_permuted;
        let m = generators::perturbed_grid(24, 24, 0.35, 6);
        let adj = Adjacency::build(&m);
        let id = layout_stats_permuted(&m, &adj, &Permutation::identity(m.num_vertices()));
        let qs = layout_stats_permuted(&m, &adj, &compute_ordering(&m, OrderingKind::QualitySort));
        assert!(
            qs.mean_span > 2.0 * id.mean_span,
            "quality sort should scatter: {} vs {}",
            qs.mean_span,
            id.mean_span
        );
    }
}
