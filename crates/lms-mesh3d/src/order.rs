//! `TetMesh` as an [`OrderMesh`]: what lets every ordering of `lms-order`
//! and every partitioner of `lms-part` run on tetrahedral meshes.
//!
//! RDR needs an adjacency, interior flags and per-vertex qualities; RCB
//! and the space-filling curves need 3-component points and the 3D curve
//! keys ([`crate::sfc`]); `RcbWeighted` needs per-vertex volume shares.
//! All of it exists for [`TetMesh`], so `compute_ordering`,
//! `Permutation::apply_to_mesh`, `layout_stats` and `partition_mesh` run
//! their one generic body here — the machinery behind the §6 conjecture
//! experiment (`lms-exp tet`).

use crate::adjacency::Adjacency3;
use crate::boundary::Boundary3;
use crate::geometry::{signed_volume, Point3};
use crate::mesh::TetMesh;
use crate::quality::{vertex_qualities, TetQualityMetric};
use crate::sfc::{hilbert3_key, morton3_key, ORDER};
use lms_order::{OrderMesh, Permutation};

impl OrderMesh<3> for TetMesh {
    type Point = Point3;
    type Adjacency = Adjacency3;
    const SFC_ORDER: u32 = ORDER;

    fn coords(&self) -> &[Point3] {
        TetMesh::coords(self)
    }

    fn build_adjacency(&self) -> Adjacency3 {
        Adjacency3::build(self)
    }

    /// Face based, so the adjacency cannot supply it.
    fn interior_flags(&self, _adj: &Adjacency3) -> Vec<bool> {
        Boundary3::detect(self).interior_flags()
    }

    fn edge_ratio_qualities(&self, adj: &Adjacency3) -> Vec<f64> {
        vertex_qualities(self, adj, TetQualityMetric::EdgeLengthRatio)
    }

    /// One quarter of the absolute volume of every incident tetrahedron
    /// (the barycentric lumping of the mesh volume).
    fn measure_weights(&self, adj: &Adjacency3) -> Vec<f64> {
        let tet_vol: Vec<f64> = (0..self.num_tets())
            .map(|t| {
                let [a, b, c, d] = self.tet_coords(t);
                signed_volume(a, b, c, d).abs() / 4.0
            })
            .collect();
        (0..self.num_vertices() as u32)
            .map(|v| adj.tets_of(v).iter().map(|&t| tet_vol[t as usize]).sum())
            .collect()
    }

    fn hilbert_key([x, y, z]: [u32; 3]) -> u64 {
        hilbert3_key(x, y, z)
    }

    fn morton_key([x, y, z]: [u32; 3]) -> u64 {
        morton3_key(x, y, z)
    }

    fn renumbered(&self, coords: Vec<Point3>, perm: &Permutation) -> TetMesh {
        TetMesh::new_unchecked(coords, perm.renumber_elements(self.tets()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{block_scramble, perturbed_tet_grid};
    use crate::smooth::{SmoothEngine3, SmoothParams3};
    use lms_order::graph::rdr_ordering_on;
    use lms_order::rdr::RdrOptions;
    use lms_order::{compute_ordering, compute_ordering_with, layout_stats, OrderingKind};
    use lms_smooth::trace::VecSink;
    use proptest::prelude::*;

    fn test_mesh() -> TetMesh {
        block_scramble(perturbed_tet_grid(8, 8, 8, 0.35, 3), 64, 3)
    }

    /// One serial sweep's access stream, as the engine records it.
    fn sweep_trace(mesh: &TetMesh) -> Vec<u32> {
        let engine = SmoothEngine3::new(mesh, SmoothParams3::paper().with_max_iters(1));
        let mut sink = VecSink::new();
        engine.smooth_traced(&mut mesh.clone(), &mut sink);
        sink.accesses
    }

    /// A jittered tet grid (2–5 cells per axis) under a block-scrambled
    /// numbering.
    fn arb_tet() -> impl Strategy<Value = TetMesh> {
        (2usize..6, 2usize..6, 2usize..6, 0.0f64..0.4, 0u64..500).prop_map(
            |(nx, ny, nz, j, seed)| {
                block_scramble(perturbed_tet_grid(nx, ny, nz, j, seed), 16, seed)
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Every kind orders every vertex exactly once.
        #[test]
        fn all_kinds_produce_valid_permutations(m in arb_tet()) {
            let adj = Adjacency3::build(&m);
            for kind in OrderingKind::ALL {
                let mut ids = compute_ordering_with(&m, &adj, kind).new_to_old().to_vec();
                ids.sort_unstable();
                prop_assert!(ids.into_iter().eq(0..m.num_vertices() as u32), "{}", kind.name());
            }
        }

        /// Every kind gives the same permutation twice, whether it builds
        /// its own adjacency or walks a handed one.
        #[test]
        fn with_and_without_adjacency_agree(m in arb_tet()) {
            let adj = Adjacency3::build(&m);
            for kind in OrderingKind::ALL {
                let handed = compute_ordering_with(&m, &adj, kind);
                prop_assert_eq!(&compute_ordering(&m, kind), &handed, "{}", kind.name());
                prop_assert_eq!(compute_ordering_with(&m, &adj, kind), handed, "{}", kind.name());
            }
        }
    }

    /// Every name and alias the tetrahedral front end accepted before it
    /// shared `OrderingKind` still parses to the same ordering.
    #[test]
    fn parse_roundtrips_names() {
        use OrderingKind::*;
        for (names, kind) in [
            (&["ori", "original"][..], Original),
            (&["random", "rand"], Random { seed: 0 }),
            (&["bfs"], Bfs),
            (&["bfsrev", "rbfs"], BfsReversed),
            (&["dfs"], Dfs),
            (&["rcm"], Rcm),
            (&["hilbert", "sfc"], Hilbert),
            (&["morton", "zorder"], Morton),
            (&["rdr"], Rdr),
        ] {
            for name in names {
                assert_eq!(OrderingKind::parse(name), Some(kind), "{name}");
            }
        }
        assert_eq!(OrderingKind::parse("nope"), None);
    }

    #[test]
    fn apply_permutation_preserves_geometry() {
        let m = test_mesh();
        let rm = compute_ordering(&m, OrderingKind::Rdr).apply_to_mesh(&m);
        assert_eq!(rm.num_vertices(), m.num_vertices());
        assert_eq!(rm.num_tets(), m.num_tets());
        assert!((rm.total_volume() - m.total_volume()).abs() < 1e-10);
        assert_eq!(rm.edges().len(), m.edges().len());
    }

    #[test]
    fn apply_permutation_moves_tets_into_first_touch_order() {
        let m = test_mesh();
        let p = compute_ordering(&m, OrderingKind::Rdr);
        let rm = p.apply_to_mesh(&m);
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
        assert_eq!(Permutation::identity(rm.num_vertices()).apply_to_mesh(&rm), rm);
    }

    #[test]
    fn locality_ranking_matches_paper_in_3d() {
        // random ≫ ori; bfs, rcm and rdr all far below random.
        let m = test_mesh();
        let span = |kind| {
            let rm = compute_ordering(&m, kind).apply_to_mesh(&m);
            layout_stats(&rm, &Adjacency3::build(&rm)).mean_gap
        };
        let ori = span(OrderingKind::Original);
        let rnd = span(OrderingKind::Random { seed: 1 });
        let bfs = span(OrderingKind::Bfs);
        let rdr = span(OrderingKind::Rdr);
        assert!(rnd > 2.0 * ori, "random {rnd} vs ori {ori}");
        assert!(bfs < rnd && rdr < rnd, "bfs {bfs} rdr {rdr} random {rnd}");
    }

    #[test]
    fn rdr_starts_from_a_worst_bin_interior_vertex() {
        let m = test_mesh();
        let adj = Adjacency3::build(&m);
        let boundary = Boundary3::detect(&m);
        let q = vertex_qualities(&m, &adj, TetQualityMetric::EdgeLengthRatio);
        let p = rdr_ordering_on(&adj, &boundary.interior_flags(), &q);
        let first = p.new_to_old()[0];
        assert!(boundary.is_interior(first));
        // the smallest (quality bin, index) key among interior vertices
        let opts = RdrOptions::default();
        let worst = (0..m.num_vertices() as u32)
            .filter(|&v| boundary.is_interior(v))
            .min_by_key(|&v| opts.key(v, &q))
            .unwrap();
        assert_eq!(first, worst);
    }

    #[test]
    fn sweep_trace_covers_interior_vertices() {
        let m = test_mesh();
        let adj = Adjacency3::build(&m);
        let b = Boundary3::detect(&m);
        let expected: usize = b.interior_vertices().iter().map(|&v| 1 + adj.degree(v)).sum();
        assert_eq!(sweep_trace(&m).len(), expected);
    }

    #[test]
    fn rdr_reduces_reuse_distance_vs_random_in_3d() {
        // The headline mechanism, 3D edition: mean reuse distance of the
        // sweep trace under RDR must be far below RANDOM and below ORI.
        use lms_cache::reuse::{ReuseDistanceAnalyzer, ReuseStats};
        let m = test_mesh();
        let mean_rd = |kind| {
            let rm = compute_ordering(&m, kind).apply_to_mesh(&m);
            let d = ReuseDistanceAnalyzer::analyze(&sweep_trace(&rm), rm.num_vertices());
            ReuseStats::from_distances(&d).mean
        };
        let rnd = mean_rd(OrderingKind::Random { seed: 1 });
        let ori = mean_rd(OrderingKind::Original);
        let rdr = mean_rd(OrderingKind::Rdr);
        assert!(rdr < ori, "rdr {rdr} must beat ori {ori}");
        assert!(rdr < rnd / 4.0, "rdr {rdr} must crush random {rnd}");
    }

    /// The 3D RDR order pinned by hash (FNV-1a, 64-bit, over the
    /// little-endian bytes of the new-to-old ids).
    #[test]
    fn tet_grid_rdr_order_is_pinned() {
        let p = compute_ordering(&perturbed_tet_grid(12, 12, 12, 0.35, 1), OrderingKind::Rdr);
        let hash = p
            .new_to_old()
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            });
        assert_eq!(hash, 0xf4dc_5af2_7fc1_48d1);
    }
}
