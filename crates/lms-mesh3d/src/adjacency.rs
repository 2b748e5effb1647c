//! CSR adjacency for tetrahedral meshes.
//!
//! Mirrors `lms_mesh::Adjacency`: vertex→vertex neighbour lists (sorted,
//! deduplicated) drive the smoothing sweep and the orderings; vertex→tet
//! incidence drives quality evaluation. Implements [`lms_order::Graph`]
//! so every graph-generic ordering core (BFS, DFS, RCM, RDR, …) runs on
//! tetrahedral meshes unchanged.

use crate::mesh::TetMesh;
use lms_smooth::{vec_bytes, vertex_rows, VertexRows};

/// CSR vertex→vertex and vertex→tetrahedron adjacency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Adjacency3 {
    vv_offsets: Vec<u32>,
    vv_neighbors: Vec<u32>,
    vt_offsets: Vec<u32>,
    vt_tets: Vec<u32>,
}

impl Adjacency3 {
    /// Build the adjacency of `mesh`: the 2D `Adjacency::build` at four
    /// corners ([`vertex_rows`] at `K = 4`).
    ///
    /// Neighbour lists are sorted ascending and deduplicated; tet lists are
    /// sorted ascending. Cost `O(K²·T + Σ row length)`: a counting sort
    /// into per-vertex rows of ~72 raw entries, each deduplicated by stamp
    /// and only its ~14 distinct neighbours sorted — no global sort over
    /// the 12·T directed pairs.
    pub fn build(mesh: &TetMesh) -> Self {
        let VertexRows { ve_offsets, ve_elements, vv_offsets, vv_neighbors } =
            vertex_rows(mesh.num_vertices(), mesh.tets(), |_, _| {});
        Adjacency3 { vv_offsets, vv_neighbors, vt_offsets: ve_offsets, vt_tets: ve_elements }
    }

    /// Number of vertices the adjacency was built for.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.vv_offsets.len() - 1
    }

    /// Bytes the adjacency owns on the heap: both CSR tables.
    pub fn heap_bytes(&self) -> usize {
        vec_bytes(&self.vv_offsets)
            + vec_bytes(&self.vv_neighbors)
            + vec_bytes(&self.vt_offsets)
            + vec_bytes(&self.vt_tets)
    }

    /// Sorted neighbour vertices of `v`.
    #[inline]
    pub fn neighbors(&self, v: u32) -> &[u32] {
        let lo = self.vv_offsets[v as usize] as usize;
        let hi = self.vv_offsets[v as usize + 1] as usize;
        &self.vv_neighbors[lo..hi]
    }

    /// Sorted incident tetrahedra of `v`.
    #[inline]
    pub fn tets_of(&self, v: u32) -> &[u32] {
        let lo = self.vt_offsets[v as usize] as usize;
        let hi = self.vt_offsets[v as usize + 1] as usize;
        &self.vt_tets[lo..hi]
    }

    /// Flat offset of `v`'s incident-tet row in the CSR storage — lets
    /// star-layout consumers (the generic smoothing domain) address the
    /// per-incidence data contiguously.
    #[inline]
    pub fn tets_offset(&self, v: u32) -> usize {
        self.vt_offsets[v as usize] as usize
    }

    /// Degree (number of neighbour vertices) of `v`.
    #[inline]
    pub fn degree(&self, v: u32) -> usize {
        self.neighbors(v).len()
    }

    /// Total number of stored directed neighbour entries (2 × #edges).
    #[inline]
    pub fn num_directed_edges(&self) -> usize {
        self.vv_neighbors.len()
    }

    /// Maximum vertex degree.
    pub fn max_degree(&self) -> usize {
        (0..self.num_vertices() as u32).map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Mean vertex degree.
    pub fn mean_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            return 0.0;
        }
        self.num_directed_edges() as f64 / self.num_vertices() as f64
    }

    /// True when `a` and `b` share an edge.
    pub fn are_adjacent(&self, a: u32, b: u32) -> bool {
        self.neighbors(a).binary_search(&b).is_ok()
    }
}

impl lms_order::Graph for Adjacency3 {
    #[inline]
    fn num_vertices(&self) -> usize {
        Adjacency3::num_vertices(self)
    }

    #[inline]
    fn neighbors(&self, v: u32) -> &[u32] {
        Adjacency3::neighbors(self, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::perturbed_tet_grid;
    use crate::geometry::Point3;
    use crate::mesh::{corner_tet, tet_soup};
    use proptest::prelude::*;

    /// The oracle: `Adjacency3::build` as it was before it shared the 2D
    /// row builder — all 12·T directed pairs in one `Vec`, sorted globally.
    fn build_by_global_sort(mesh: &TetMesh) -> Adjacency3 {
        let n = mesh.num_vertices();
        let nt = mesh.num_tets();

        let mut vt_offsets = vec![0u32; n + 1];
        for tet in mesh.tets() {
            for &v in tet {
                vt_offsets[v as usize + 1] += 1;
            }
        }
        for i in 0..n {
            vt_offsets[i + 1] += vt_offsets[i];
        }
        let mut vt_tets = vec![0u32; 4 * nt];
        let mut cursor = vt_offsets.clone();
        for (t, tet) in mesh.tets().iter().enumerate() {
            for &v in tet {
                let c = &mut cursor[v as usize];
                vt_tets[*c as usize] = t as u32;
                *c += 1;
            }
        }

        let mut pairs = Vec::with_capacity(12 * nt);
        for tet in mesh.tets() {
            for i in 0..4 {
                for j in 0..4 {
                    if i != j {
                        pairs.push((tet[i], tet[j]));
                    }
                }
            }
        }
        pairs.sort_unstable();
        pairs.dedup();

        let mut vv_offsets = vec![0u32; n + 1];
        for &(a, _) in &pairs {
            vv_offsets[a as usize + 1] += 1;
        }
        for i in 0..n {
            vv_offsets[i + 1] += vv_offsets[i];
        }
        let vv_neighbors = pairs.into_iter().map(|(_, b)| b).collect();

        Adjacency3 { vv_offsets, vv_neighbors, vt_offsets, vt_tets }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn row_build_matches_the_global_sort_on_tet_soups(
            n in 4usize..24,
            picks in proptest::collection::vec(
                (0usize..64, 0usize..64, 0usize..64, 0usize..64), 0..60),
        ) {
            let m = tet_soup(n, &picks);
            prop_assert_eq!(Adjacency3::build(&m), build_by_global_sort(&m));
        }

        #[test]
        fn row_build_matches_the_global_sort_on_grids(
            nx in 1usize..5, ny in 1usize..5, nz in 1usize..5, seed in 0u64..1000,
        ) {
            let m = perturbed_tet_grid(nx, ny, nz, 0.3, seed);
            prop_assert_eq!(Adjacency3::build(&m), build_by_global_sort(&m));
        }
    }

    #[test]
    fn degenerate_meshes_match_the_global_sort() {
        for m in [
            TetMesh::new(vec![], vec![]).unwrap(),
            tet_soup(5, &[]),
            corner_tet(),
            // one tet listed twice; three tets on one face
            tet_soup(4, &[(0, 1, 2, 3), (3, 2, 1, 0)]),
            tet_soup(7, &[(0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 2, 5)]),
        ] {
            assert_eq!(Adjacency3::build(&m), build_by_global_sort(&m));
        }
    }

    /// FNV-1a (64-bit) over the little-endian bytes of the four CSR arrays.
    fn fnv1a(adj: &Adjacency3) -> u64 {
        [&adj.vv_offsets, &adj.vv_neighbors, &adj.vt_offsets, &adj.vt_tets]
            .into_iter()
            .flatten()
            .flat_map(|v| v.to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
    }

    /// The tables of a 12³ grid, in generator order and shuffled, pinned by
    /// hash: a row builder that moves a single entry fails here, without
    /// the harness.
    #[test]
    fn grid_tables_are_pinned() {
        let m = perturbed_tet_grid(12, 12, 12, 0.35, 1);
        let shuffled =
            crate::apply_permutation3(&lms_order::random_ordering(m.num_vertices(), 2), &m);
        assert_eq!(fnv1a(&Adjacency3::build(&m)), 0x643a_99ed_6784_fe65);
        assert_eq!(fnv1a(&Adjacency3::build(&shuffled)), 0x2d62_d2ed_4f61_b86d);
    }

    fn double_tet() -> TetMesh {
        TetMesh::new(
            vec![
                Point3::ZERO,
                Point3::new(1.0, 0.0, 0.0),
                Point3::new(0.0, 1.0, 0.0),
                Point3::new(0.0, 0.0, 1.0),
                Point3::new(1.0, 1.0, 1.0),
            ],
            vec![[0, 1, 2, 3], [1, 2, 3, 4]],
        )
        .unwrap()
    }

    #[test]
    fn single_tet_is_a_clique() {
        let adj = Adjacency3::build(&corner_tet());
        for v in 0..4u32 {
            assert_eq!(adj.degree(v), 3);
            assert!(!adj.neighbors(v).contains(&v));
        }
        assert_eq!(adj.num_directed_edges(), 12);
    }

    #[test]
    fn shared_face_vertices_see_both_tets() {
        let adj = Adjacency3::build(&double_tet());
        for v in [1u32, 2, 3] {
            assert_eq!(adj.tets_of(v), &[0, 1]);
            assert_eq!(adj.degree(v), 4); // everyone but itself
        }
        assert_eq!(adj.tets_of(0), &[0]);
        assert_eq!(adj.tets_of(4), &[1]);
        assert_eq!(adj.neighbors(0), &[1, 2, 3]);
        assert_eq!(adj.neighbors(4), &[1, 2, 3]);
    }

    #[test]
    fn adjacency_is_symmetric_sorted_unique() {
        let adj = Adjacency3::build(&double_tet());
        for v in 0..adj.num_vertices() as u32 {
            let ns = adj.neighbors(v);
            assert!(ns.windows(2).all(|w| w[0] < w[1]));
            for &w in ns {
                assert!(adj.are_adjacent(w, v), "asymmetric pair ({v},{w})");
            }
        }
    }

    #[test]
    fn directed_edges_match_edge_count() {
        let m = double_tet();
        let adj = Adjacency3::build(&m);
        assert_eq!(adj.num_directed_edges(), 2 * m.edges().len());
    }

    #[test]
    fn graph_trait_runs_orderings() {
        use lms_order::graph::{bfs_ordering_on, rcm_ordering_on};
        let adj = Adjacency3::build(&double_tet());
        let bfs = bfs_ordering_on(&adj, 0);
        assert_eq!(bfs.len(), 5);
        assert_eq!(bfs.new_to_old()[0], 0);
        let rcm = rcm_ordering_on(&adj);
        assert_eq!(rcm.len(), 5);
    }

    #[test]
    fn tet_incidence_covers_all_corners() {
        let m = double_tet();
        let adj = Adjacency3::build(&m);
        let total: usize = (0..m.num_vertices() as u32).map(|v| adj.tets_of(v).len()).sum();
        assert_eq!(total, 4 * m.num_tets());
        for v in 0..m.num_vertices() as u32 {
            for &t in adj.tets_of(v) {
                assert!(m.tets()[t as usize].contains(&v));
            }
        }
    }
}
