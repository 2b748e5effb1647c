//! Vertex reorderings for tetrahedral meshes.
//!
//! Thin 3D front end over the graph-generic cores of [`lms_order::graph`]:
//! everything RDR needs — an adjacency structure, interior flags, and
//! per-vertex qualities — exists for [`TetMesh`], so Algorithm 2 runs
//! unchanged. This is the machinery behind the §6 conjecture experiment
//! (`lms-exp tet`).

use crate::adjacency::Adjacency3;
use crate::boundary::Boundary3;
use crate::mesh::TetMesh;
use crate::quality::{vertex_qualities, TetQualityMetric};
use lms_order::graph::{
    bfs_ordering_on, bfs_reversed_ordering_on, dfs_ordering_on, rcm_ordering_on, rdr_ordering_on,
};
use lms_order::rdr::RdrOptions;
use lms_order::{random_ordering, Permutation};

/// The orderings evaluated on tetrahedral meshes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderingKind3 {
    /// Keep the generator's numbering (ORI).
    Original,
    /// Uniform random shuffle with the given seed.
    Random {
        /// RNG seed.
        seed: u64,
    },
    /// Breadth-first search from vertex 0 (Strout & Hovland).
    Bfs,
    /// Reversed BFS (Munson & Hovland).
    BfsReversed,
    /// Depth-first search from vertex 0.
    Dfs,
    /// Reverse Cuthill–McKee.
    Rcm,
    /// 3D Hilbert space-filling curve.
    Hilbert,
    /// 3D Morton (Z-order) curve.
    Morton,
    /// Reuse-Distance-Reducing ordering (Algorithm 2).
    Rdr,
}

impl OrderingKind3 {
    /// Short lowercase name used in reports and CLI arguments.
    pub fn name(self) -> &'static str {
        match self {
            OrderingKind3::Original => "ori",
            OrderingKind3::Random { .. } => "random",
            OrderingKind3::Bfs => "bfs",
            OrderingKind3::BfsReversed => "bfsrev",
            OrderingKind3::Dfs => "dfs",
            OrderingKind3::Rcm => "rcm",
            OrderingKind3::Hilbert => "hilbert",
            OrderingKind3::Morton => "morton",
            OrderingKind3::Rdr => "rdr",
        }
    }

    /// Parse a CLI name; `random` gets seed 0.
    pub fn parse(name: &str) -> Option<OrderingKind3> {
        Some(match name.to_ascii_lowercase().as_str() {
            "ori" | "original" => OrderingKind3::Original,
            "random" | "rand" => OrderingKind3::Random { seed: 0 },
            "bfs" => OrderingKind3::Bfs,
            "bfsrev" | "rbfs" => OrderingKind3::BfsReversed,
            "dfs" => OrderingKind3::Dfs,
            "rcm" => OrderingKind3::Rcm,
            "hilbert" | "sfc" => OrderingKind3::Hilbert,
            "morton" | "zorder" => OrderingKind3::Morton,
            "rdr" => OrderingKind3::Rdr,
            _ => return None,
        })
    }

    /// The paper's main trio, 3D edition.
    pub const PAPER_TRIO: [OrderingKind3; 3] =
        [OrderingKind3::Original, OrderingKind3::Bfs, OrderingKind3::Rdr];

    /// Every 3D ordering, with `random` at seed 0.
    pub const ALL: [OrderingKind3; 9] = [
        OrderingKind3::Original,
        OrderingKind3::Random { seed: 0 },
        OrderingKind3::Bfs,
        OrderingKind3::BfsReversed,
        OrderingKind3::Dfs,
        OrderingKind3::Rcm,
        OrderingKind3::Hilbert,
        OrderingKind3::Morton,
        OrderingKind3::Rdr,
    ];
}

/// RDR (Algorithm 2) on a tetrahedral mesh with explicit inputs.
pub fn rdr_ordering3_with(
    adj: &Adjacency3,
    boundary: &Boundary3,
    quality: &[f64],
    options: &RdrOptions,
) -> Permutation {
    rdr_ordering_on(adj, &boundary.interior_flags(), quality, options)
}

/// Paper-default RDR on a tetrahedral mesh (edge-length-ratio qualities).
pub fn rdr_ordering3(mesh: &TetMesh) -> Permutation {
    compute_ordering3(mesh, OrderingKind3::Rdr)
}

/// Compute the permutation of `kind` for `mesh`, reusing a prebuilt
/// adjacency.
pub fn compute_ordering3_with(
    mesh: &TetMesh,
    adj: &Adjacency3,
    kind: OrderingKind3,
) -> Permutation {
    match kind {
        OrderingKind3::Original => Permutation::identity(mesh.num_vertices()),
        OrderingKind3::Random { seed } => random_ordering(mesh.num_vertices(), seed),
        OrderingKind3::Bfs => bfs_ordering_on(adj, 0),
        OrderingKind3::BfsReversed => bfs_reversed_ordering_on(adj, 0),
        OrderingKind3::Dfs => dfs_ordering_on(adj, 0),
        OrderingKind3::Rcm => rcm_ordering_on(adj),
        OrderingKind3::Hilbert => crate::sfc::hilbert3_ordering(mesh.coords()),
        OrderingKind3::Morton => crate::sfc::morton3_ordering(mesh.coords()),
        OrderingKind3::Rdr => {
            let boundary = Boundary3::detect(mesh);
            let quality = vertex_qualities(mesh, adj, TetQualityMetric::EdgeLengthRatio);
            rdr_ordering3_with(adj, &boundary, &quality, &RdrOptions::default())
        }
    }
}

/// Compute the permutation of `kind` for `mesh`.
pub fn compute_ordering3(mesh: &TetMesh, kind: OrderingKind3) -> Permutation {
    match kind {
        OrderingKind3::Original => Permutation::identity(mesh.num_vertices()),
        OrderingKind3::Random { seed } => random_ordering(mesh.num_vertices(), seed),
        OrderingKind3::Hilbert => crate::sfc::hilbert3_ordering(mesh.coords()),
        OrderingKind3::Morton => crate::sfc::morton3_ordering(mesh.coords()),
        _ => {
            let adj = Adjacency3::build(mesh);
            compute_ordering3_with(mesh, &adj, kind)
        }
    }
}

/// Renumber a tetrahedral mesh by `perm`: permutes the coordinate array,
/// rewrites every tet's indices and moves the tets into first-touch order
/// ([`Permutation::renumber_elements`], as for triangles). Geometry and
/// connectivity are unchanged — only the storage order of vertices and
/// elements moves.
pub fn apply_permutation3(perm: &Permutation, mesh: &TetMesh) -> TetMesh {
    assert_eq!(perm.len(), mesh.num_vertices(), "permutation length must match vertex count");
    let coords = perm.new_to_old().iter().map(|&old| mesh.coords()[old as usize]).collect();
    TetMesh::new_unchecked(coords, perm.renumber_elements(mesh.tets()))
}

/// Mean index span between a vertex and its neighbours — the scalar layout
/// statistic the 2D experiments use to rank orderings without running the
/// cache simulator.
pub fn mean_neighbor_span3(adj: &Adjacency3) -> f64 {
    let n = adj.num_vertices();
    if n == 0 {
        return 0.0;
    }
    let mut total = 0.0f64;
    let mut count = 0u64;
    for v in 0..n as u32 {
        for &w in adj.neighbors(v) {
            total += (v as i64 - w as i64).unsigned_abs() as f64;
            count += 1;
        }
    }
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

/// One serial smoothing sweep's access trace (vertex, then its neighbours,
/// interior vertices in storage order) — the stream `lms-cache` analyses.
pub fn sweep_trace3(adj: &Adjacency3, boundary: &Boundary3) -> Vec<u32> {
    let mut trace = Vec::new();
    for v in 0..adj.num_vertices() as u32 {
        if !boundary.is_interior(v) {
            continue;
        }
        let ns = adj.neighbors(v);
        if ns.is_empty() {
            continue;
        }
        trace.push(v);
        trace.extend_from_slice(ns);
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{block_scramble, perturbed_tet_grid};

    fn test_mesh() -> TetMesh {
        block_scramble(perturbed_tet_grid(8, 8, 8, 0.35, 3), 64, 3)
    }

    #[test]
    fn all_kinds_produce_valid_permutations() {
        let m = test_mesh();
        for kind in OrderingKind3::ALL {
            let p = compute_ordering3(&m, kind);
            assert_eq!(p.len(), m.num_vertices(), "{}", kind.name());
            let mut ids = p.new_to_old().to_vec();
            ids.sort_unstable();
            assert!(ids.windows(2).all(|w| w[1] == w[0] + 1), "{} not bijective", kind.name());
        }
    }

    #[test]
    fn with_and_without_adjacency_agree() {
        let m = test_mesh();
        let adj = Adjacency3::build(&m);
        for kind in OrderingKind3::ALL {
            assert_eq!(
                compute_ordering3(&m, kind),
                compute_ordering3_with(&m, &adj, kind),
                "{}",
                kind.name()
            );
        }
    }

    #[test]
    fn parse_roundtrips_names() {
        for kind in OrderingKind3::ALL {
            assert_eq!(OrderingKind3::parse(kind.name()), Some(kind));
        }
        assert_eq!(OrderingKind3::parse("nope"), None);
    }

    #[test]
    fn apply_permutation_preserves_geometry() {
        let m = test_mesh();
        let p = compute_ordering3(&m, OrderingKind3::Rdr);
        let rm = apply_permutation3(&p, &m);
        assert_eq!(rm.num_vertices(), m.num_vertices());
        assert_eq!(rm.num_tets(), m.num_tets());
        assert!((rm.total_volume() - m.total_volume()).abs() < 1e-10);
        assert_eq!(rm.edges().len(), m.edges().len());
    }

    #[test]
    fn apply_permutation_moves_tets_into_first_touch_order() {
        let m = test_mesh();
        let p = compute_ordering3(&m, OrderingKind3::Rdr);
        let rm = apply_permutation3(&p, &m);
        // the same tets under the new names, corner order kept …
        let old_to_new = p.old_to_new();
        let mut renamed: Vec<[u32; 4]> =
            m.tets().iter().map(|t| t.map(|v| old_to_new[v as usize])).collect();
        let mut stored = rm.tets().to_vec();
        renamed.sort_unstable();
        stored.sort_unstable();
        assert_eq!(stored, renamed);
        // … stored by ascending smallest vertex id, a fixed point of the identity
        let first_touch = |t: &[u32; 4]| *t.iter().min().unwrap();
        assert!(rm.tets().windows(2).all(|w| first_touch(&w[0]) <= first_touch(&w[1])));
        assert_eq!(apply_permutation3(&Permutation::identity(rm.num_vertices()), &rm), rm);
    }

    #[test]
    fn locality_ranking_matches_paper_in_3d() {
        // random ≫ ori; bfs, rcm and rdr all far below random.
        let m = test_mesh();
        let span = |kind| {
            let p = compute_ordering3(&m, kind);
            let rm = apply_permutation3(&p, &m);
            mean_neighbor_span3(&Adjacency3::build(&rm))
        };
        let ori = span(OrderingKind3::Original);
        let rnd = span(OrderingKind3::Random { seed: 1 });
        let bfs = span(OrderingKind3::Bfs);
        let rdr = span(OrderingKind3::Rdr);
        assert!(rnd > 2.0 * ori, "random {rnd} vs ori {ori}");
        assert!(bfs < rnd && rdr < rnd, "bfs {bfs} rdr {rdr} random {rnd}");
    }

    #[test]
    fn rdr_starts_from_a_worst_bin_interior_vertex() {
        let m = test_mesh();
        let adj = Adjacency3::build(&m);
        let boundary = Boundary3::detect(&m);
        let q = vertex_qualities(&m, &adj, TetQualityMetric::EdgeLengthRatio);
        let opts = RdrOptions { quality_bins: None, ..Default::default() };
        let p = rdr_ordering3_with(&adj, &boundary, &q, &opts);
        let first = p.new_to_old()[0];
        assert!(boundary.is_interior(first));
        let worst = (0..m.num_vertices() as u32)
            .filter(|&v| boundary.is_interior(v))
            .min_by(|&a, &b| q[a as usize].partial_cmp(&q[b as usize]).unwrap())
            .unwrap();
        assert_eq!(q[first as usize], q[worst as usize]);
    }

    #[test]
    fn sweep_trace_covers_interior_vertices() {
        let m = test_mesh();
        let adj = Adjacency3::build(&m);
        let b = Boundary3::detect(&m);
        let trace = sweep_trace3(&adj, &b);
        let expected: usize = b.interior_vertices().iter().map(|&v| 1 + adj.degree(v)).sum();
        assert_eq!(trace.len(), expected);
    }

    #[test]
    fn rdr_reduces_reuse_distance_vs_random_in_3d() {
        // The headline mechanism, 3D edition: mean reuse distance of the
        // sweep trace under RDR must be far below RANDOM and below ORI.
        use lms_cache::reuse::{ReuseDistanceAnalyzer, ReuseStats};
        let m = test_mesh();
        let mean_rd = |kind| {
            let p = compute_ordering3(&m, kind);
            let rm = apply_permutation3(&p, &m);
            let adj = Adjacency3::build(&rm);
            let b = Boundary3::detect(&rm);
            let trace = sweep_trace3(&adj, &b);
            let d = ReuseDistanceAnalyzer::analyze(&trace, rm.num_vertices());
            ReuseStats::from_distances(&d).mean
        };
        let rnd = mean_rd(OrderingKind3::Random { seed: 1 });
        let ori = mean_rd(OrderingKind3::Original);
        let rdr = mean_rd(OrderingKind3::Rdr);
        assert!(rdr < ori, "rdr {rdr} must beat ori {ori}");
        assert!(rdr < rnd / 4.0, "rdr {rdr} must crush random {rnd}");
    }
}
