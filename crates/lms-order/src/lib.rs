//! # lms-order — vertex reorderings
//!
//! The paper's contribution ([`rdr::rdr_ordering`], Algorithm 2) together
//! with every baseline it is evaluated against, plus the related-work and
//! ablation orderings DESIGN.md §5 calls out. Every kind runs on any
//! [`OrderMesh`] — `TriMesh` (2D, implemented here) and
//! `lms_mesh3d::TetMesh` (3D) — through one entry, [`compute_ordering`]
//! (or [`compute_ordering_with`] given an adjacency):
//!
//! | kind | core | role in the paper |
//! |---|---|---|
//! | `Original` | — | the mesh generator's numbering (ORI) |
//! | `Random` | [`random_ordering`] | worst case, Figure 1a |
//! | `Bfs` | [`graph::bfs_ordering_on`] | Strout & Hovland \[18\], the baseline RDR beats |
//! | `BfsReversed` | [`graph::bfs_reversed_ordering_on`] | Munson & Hovland \[19\], FeasNewt |
//! | `Dfs` | [`graph::dfs_ordering_on`] | Figure 4a trace comparison |
//! | `Rcm` | [`graph::rcm_ordering_on`] | classic bandwidth reduction (related work) |
//! | `Sloan` | [`sloan::sloan_ordering`] | profile reduction, strong graph baseline |
//! | `Hilbert` | [`sfc::sfc_ordering`] + [`OrderMesh::hilbert_key`] | space-filling curve, Sastry et al. \[14\] |
//! | `Morton` | [`sfc::sfc_ordering`] + [`OrderMesh::morton_key`] | Z-order curve, cheap SFC ablation partner |
//! | `Rcb` | [`rcb::rcb_ordering`] | recursive coordinate bisection, cache-oblivious geometric baseline |
//! | `Spectral` | [`spectral::spectral_ordering`] | Fiedler-vector ordering, connectivity-only geometric sweep |
//! | `QualitySort` | [`sorts::quality_sort_from_values`] | RDR minus the chaining (ablation) |
//! | `DegreeSort` | [`sorts::degree_sort_ordering`] | scalar sort with a quality-free key |
//! | `Rdr` | [`graph::rdr_ordering_on`] | **the contribution** |
//!
//! The graph cores walk [`OrderMesh::Adjacency`] (any [`Graph`]); the
//! geometric ones read [`OrderMesh::coords`] as `D`-component points;
//! `Rdr` and `QualitySort` rank by [`OrderMesh::edge_ratio_qualities`].
//! All orderings are returned as a [`Permutation`] (new-to-old map) that
//! [`Permutation::apply_to_mesh`] applies to a mesh of either dimension.

#![forbid(unsafe_code)]

pub mod coloring;
pub mod graph;
pub mod hilbert;
pub mod mesh;
pub mod metrics;
pub mod morton;
pub mod par_rdr;
pub mod permutation;
pub mod rcb;
pub mod rdr;
pub mod sfc;
pub mod sloan;
pub mod sorts;
pub mod spectral;
pub mod traversals;

pub use coloring::{greedy_coloring, greedy_coloring_on, Coloring};
pub use graph::{CsrGraph, Graph};
pub use mesh::OrderMesh;
pub use metrics::{layout_stats, layout_stats_permuted, LayoutStats};
pub use par_rdr::{par_rdr_ordering, par_rdr_ordering_on, ChunkConcat, ParRdrOptions};
pub use permutation::{Permutation, PermutationError};
pub use rcb::{rcb_ordering, rcb_parts, rcb_parts_weighted};
pub use rdr::{rdr_ordering, rdr_ordering_opts, RdrOptions};
pub use sfc::sfc_ordering;
pub use sloan::sloan_ordering;
pub use sorts::{degree_sort_ordering, quality_sort_from_values};
pub use spectral::{fiedler_vector, spectral_ordering, spectral_ordering_opts, SpectralOptions};
pub use traversals::random_ordering;

use graph::{bfs_ordering_on, bfs_reversed_ordering_on, dfs_ordering_on, rcm_ordering_on};

/// The orderings evaluated in the paper (plus the related-work and ablation
/// baselines), as a closed enum for experiment drivers and CLIs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderingKind {
    /// Keep the generator's numbering (paper: `ORI`).
    Original,
    /// Uniform random shuffle with the given seed (paper: Figure 1a).
    Random { seed: u64 },
    /// Breadth-first search from vertex 0 (paper: `BFS`, Strout & Hovland).
    Bfs,
    /// Reversed BFS (Munson & Hovland \[19\], the FeasNewt ordering).
    BfsReversed,
    /// Depth-first search from vertex 0 (paper: Figure 4a).
    Dfs,
    /// Reverse Cuthill–McKee.
    Rcm,
    /// Sloan profile-reduction ordering.
    Sloan,
    /// Hilbert space-filling curve (Sastry et al. \[14\]).
    Hilbert,
    /// Morton (Z-order) space-filling curve.
    Morton,
    /// Recursive coordinate bisection (cache-oblivious geometric layout).
    Rcb,
    /// Spectral (Fiedler-vector) ordering of the graph Laplacian.
    Spectral,
    /// Global sort by increasing initial quality — RDR without the
    /// neighbour-chaining walk (ablation).
    QualitySort,
    /// Global sort by increasing vertex degree (ablation).
    DegreeSort,
    /// Reuse-Distance-Reducing ordering (paper: `RDR`, Algorithm 2).
    Rdr,
}

impl OrderingKind {
    /// Short lowercase name used in reports and CLI arguments.
    pub fn name(self) -> &'static str {
        match self {
            OrderingKind::Original => "ori",
            OrderingKind::Random { .. } => "random",
            OrderingKind::Bfs => "bfs",
            OrderingKind::BfsReversed => "bfsrev",
            OrderingKind::Dfs => "dfs",
            OrderingKind::Rcm => "rcm",
            OrderingKind::Sloan => "sloan",
            OrderingKind::Hilbert => "hilbert",
            OrderingKind::Morton => "morton",
            OrderingKind::Rcb => "rcb",
            OrderingKind::Spectral => "spectral",
            OrderingKind::QualitySort => "qsort",
            OrderingKind::DegreeSort => "degsort",
            OrderingKind::Rdr => "rdr",
        }
    }

    /// Parse a CLI name; `random` gets seed 0.
    pub fn parse(name: &str) -> Option<OrderingKind> {
        Some(match name.to_ascii_lowercase().as_str() {
            "ori" | "original" => OrderingKind::Original,
            "random" | "rand" => OrderingKind::Random { seed: 0 },
            "bfs" => OrderingKind::Bfs,
            "bfsrev" | "rbfs" => OrderingKind::BfsReversed,
            "dfs" => OrderingKind::Dfs,
            "rcm" => OrderingKind::Rcm,
            "sloan" => OrderingKind::Sloan,
            "hilbert" | "sfc" => OrderingKind::Hilbert,
            "morton" | "zorder" => OrderingKind::Morton,
            "rcb" | "bisection" => OrderingKind::Rcb,
            "spectral" | "fiedler" => OrderingKind::Spectral,
            "qsort" | "qualitysort" => OrderingKind::QualitySort,
            "degsort" | "degreesort" => OrderingKind::DegreeSort,
            "rdr" => OrderingKind::Rdr,
            _ => return None,
        })
    }

    /// The three orderings of the paper's main evaluation (Figures 8–13).
    pub const PAPER_TRIO: [OrderingKind; 3] =
        [OrderingKind::Original, OrderingKind::Bfs, OrderingKind::Rdr];

    /// Every ordering the crate implements, with `random` at seed 0 — the
    /// "zoo" swept by the `ordering-zoo` experiment.
    pub const ALL: [OrderingKind; 14] = [
        OrderingKind::Original,
        OrderingKind::Random { seed: 0 },
        OrderingKind::Bfs,
        OrderingKind::BfsReversed,
        OrderingKind::Dfs,
        OrderingKind::Rcm,
        OrderingKind::Sloan,
        OrderingKind::Hilbert,
        OrderingKind::Morton,
        OrderingKind::Rcb,
        OrderingKind::Spectral,
        OrderingKind::QualitySort,
        OrderingKind::DegreeSort,
        OrderingKind::Rdr,
    ];
}

/// Compute the permutation of `kind` for `mesh`, in either dimension.
///
/// The geometric kinds read the coordinates alone; the others build the
/// adjacency and go through [`compute_ordering_with`].
pub fn compute_ordering<const D: usize, M: OrderMesh<D>>(
    mesh: &M,
    kind: OrderingKind,
) -> Permutation {
    match kind {
        OrderingKind::Original => Permutation::identity(mesh.num_vertices()),
        OrderingKind::Random { seed } => random_ordering(mesh.num_vertices(), seed),
        OrderingKind::Hilbert => sfc_ordering(mesh.coords(), M::SFC_ORDER, M::hilbert_key),
        OrderingKind::Morton => sfc_ordering(mesh.coords(), M::SFC_ORDER, M::morton_key),
        OrderingKind::Rcb => rcb_ordering(mesh.coords()),
        _ => compute_ordering_with(mesh, &mesh.build_adjacency(), kind),
    }
}

/// [`compute_ordering`] walking a prebuilt adjacency: the graph kinds and
/// RDR traverse `adj` and build none of their own. RDR's interior flags
/// come from [`OrderMesh::interior_flags`]: `adj`'s boundary flags on
/// triangles, the face-based boundary on tetrahedra.
pub fn compute_ordering_with<const D: usize, M: OrderMesh<D>>(
    mesh: &M,
    adj: &M::Adjacency,
    kind: OrderingKind,
) -> Permutation {
    match kind {
        OrderingKind::Bfs => bfs_ordering_on(adj, 0),
        OrderingKind::BfsReversed => bfs_reversed_ordering_on(adj, 0),
        OrderingKind::Dfs => dfs_ordering_on(adj, 0),
        OrderingKind::Rcm => rcm_ordering_on(adj),
        OrderingKind::Sloan => sloan_ordering(adj),
        OrderingKind::Spectral => spectral_ordering(adj),
        OrderingKind::QualitySort => quality_sort_from_values(&mesh.edge_ratio_qualities(adj)),
        OrderingKind::DegreeSort => degree_sort_ordering(adj),
        OrderingKind::Rdr => {
            let interior = mesh.interior_flags(adj);
            let quality = mesh.edge_ratio_qualities(adj);
            graph::rdr_ordering_on(adj, &interior, &quality)
        }
        OrderingKind::Original
        | OrderingKind::Random { .. }
        | OrderingKind::Hilbert
        | OrderingKind::Morton
        | OrderingKind::Rcb => compute_ordering(mesh, kind),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lms_mesh::{generators, Adjacency, TriMesh};

    #[test]
    fn all_kinds_produce_valid_permutations() {
        let m = generators::perturbed_grid(12, 12, 0.3, 1);
        for kind in OrderingKind::ALL {
            let p = compute_ordering(&m, kind);
            assert_eq!(p.len(), m.num_vertices(), "{}", kind.name());
            let mut ids = p.new_to_old().to_vec();
            ids.sort_unstable();
            assert!(ids.windows(2).all(|w| w[1] == w[0] + 1), "{} not bijective", kind.name());
        }
    }

    #[test]
    fn with_and_without_adjacency_agree() {
        let m = generators::perturbed_grid(10, 14, 0.3, 3);
        let adj = Adjacency::build(&m);
        for kind in OrderingKind::ALL {
            assert_eq!(
                compute_ordering(&m, kind),
                compute_ordering_with(&m, &adj, kind),
                "{}",
                kind.name()
            );
        }
    }

    /// `compute_ordering_with(.., Rdr)` walks the adjacency it is handed
    /// and derives nothing topological from the mesh: given the adjacency
    /// of `cut` (the same vertices, the last triangles missing) together
    /// with the full mesh, it returns `cut`'s ordering, not the mesh's.
    #[test]
    fn rdr_with_adjacency_uses_the_adjacency_it_is_handed() {
        let m = generators::perturbed_grid(10, 14, 0.3, 3);
        let (coords, mut triangles) = m.clone().into_parts();
        triangles.truncate(triangles.len() - 20);
        let cut = TriMesh::new(coords, triangles).unwrap();
        let p = compute_ordering_with(&m, &Adjacency::build(&cut), OrderingKind::Rdr);
        assert_eq!(p, compute_ordering(&cut, OrderingKind::Rdr));
        assert_ne!(p, compute_ordering(&m, OrderingKind::Rdr));
    }

    #[test]
    fn parse_roundtrips_names() {
        for kind in OrderingKind::ALL {
            assert_eq!(OrderingKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(OrderingKind::parse("nope"), None);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = OrderingKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), OrderingKind::ALL.len());
    }

    #[test]
    fn reordered_mesh_locality_ranking_matches_paper() {
        // mean neighbour span: random ≫ ori; bfs and rdr both far below random.
        let m = generators::perturbed_grid(24, 24, 0.35, 5);
        let adj = Adjacency::build(&m);
        let stat = |kind| {
            let p = compute_ordering_with(&m, &adj, kind);
            metrics::layout_stats_permuted(&m, &adj, &p).mean_span
        };
        let ori = stat(OrderingKind::Original);
        let rnd = stat(OrderingKind::Random { seed: 1 });
        let bfs = stat(OrderingKind::Bfs);
        let rdr = stat(OrderingKind::Rdr);
        assert!(rnd > 3.0 * ori, "random {rnd} vs ori {ori}");
        assert!(bfs < rnd && rdr < rnd);
    }

    #[test]
    fn graph_orderings_beat_value_sorts_on_locality() {
        let m = generators::perturbed_grid(24, 24, 0.35, 5);
        let adj = Adjacency::build(&m);
        let stat = |kind| {
            let p = compute_ordering_with(&m, &adj, kind);
            metrics::layout_stats_permuted(&m, &adj, &p).mean_span
        };
        for graphy in [OrderingKind::Bfs, OrderingKind::Rcm, OrderingKind::Sloan] {
            assert!(
                stat(graphy) < stat(OrderingKind::QualitySort),
                "{} should beat the pure quality sort",
                graphy.name()
            );
        }
    }
}
