//! Compressed sparse row (CSR) adjacency built from a [`TriMesh`].
//!
//! Both the smoothing sweep (gather neighbour coordinates) and the RDR
//! reordering (walk worst-quality neighbours) are driven by vertex→vertex
//! adjacency; quality evaluation additionally needs vertex→triangle
//! incidence. Both are stored CSR so that a vertex's neighbour list is a
//! contiguous slice — the same layout the paper's implementation streams
//! through.
//!
//! The tables themselves come from [`vertex_rows`], which is generic in
//! the corner count: `lms-mesh3d`'s `Adjacency3` is the same code at
//! `K = 4`. It costs `O(K²·T + Σ short-row sorts + Σ long-row lengths)`:
//! a counting sort into raw rows, then a sort of each short row (a
//! triangle mesh's) and a stamp pass over each long one (a tet mesh's).

use crate::mesh::TriMesh;

/// The two CSR tables of a mesh with `K`-corner elements, as
/// [`vertex_rows`] builds them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VertexRows {
    /// Vertex → incident elements: `n + 1` offsets into `ve_elements`.
    pub ve_offsets: Vec<u32>,
    /// Incident element ids, ascending within a vertex's row.
    pub ve_elements: Vec<u32>,
    /// Vertex → neighbour vertices: `n + 1` offsets into `vv_neighbors`.
    pub vv_offsets: Vec<u32>,
    /// Neighbour ids, ascending and deduplicated within a vertex's row.
    pub vv_neighbors: Vec<u32>,
}

/// Raw rows longer than this are deduplicated by stamp instead of by sort.
/// Every triangle row of the benchmark meshes fits (the largest holds 16
/// entries); every interior tet row (72 entries) does not.
const SHORT_ROW: usize = 16;

/// Build the vertex→element and vertex→vertex CSR tables of `elements`
/// over `num_vertices` vertices.
///
/// Cost `O(K²·T + Σ short-row sorts + Σ long-row lengths)` with no global
/// sort: a counting sort puts every element under each of its corners, the
/// other `K − 1` corners land in that corner's raw row in the same pass
/// (the row of `v` starts at `(K − 1)·ve_offsets[v]`, so one cursor array
/// serves both tables), and each row is then deduplicated and compacted in
/// place. A row of at most 16 raw entries (~12 for a triangle mesh) is
/// sorted and its runs counted. A longer one (~72 for a tet mesh, ~14
/// distinct) keeps the first sighting of each neighbour and counts the
/// rest in an `n`-entry stamp table, allocated at the first long row; only
/// the distinct neighbours are then sorted.
///
/// `on_run(v, len)` is called once per distinct neighbour `w` of `v` with
/// the number of elements listing both, i.e. the number of elements on
/// edge `(v, w)`. The 2D build reads its boundary flags off it.
///
/// # Panics
/// When the `K·(K − 1)·T` raw entries do not fit the `u32` offsets.
pub fn vertex_rows<const K: usize>(
    num_vertices: usize,
    elements: &[[u32; K]],
    mut on_run: impl FnMut(usize, usize),
) -> VertexRows {
    let n = num_vertices;
    let others = K - 1;
    assert!(
        elements.len() <= u32::MAX as usize / (K * others),
        "{} elements of {K} corners overflow the u32 CSR offsets",
        elements.len()
    );

    let mut ve_offsets = vec![0u32; n + 1];
    for element in elements {
        for &v in element {
            ve_offsets[v as usize + 1] += 1;
        }
    }
    for i in 0..n {
        ve_offsets[i + 1] += ve_offsets[i];
    }
    let mut ve_elements = vec![0u32; K * elements.len()];
    let mut raw = vec![0u32; K * others * elements.len()];
    let mut cursor: Vec<u32> = ve_offsets[..n].to_vec();
    for (t, element) in elements.iter().enumerate() {
        for (i, &v) in element.iter().enumerate() {
            let at = cursor[v as usize] as usize;
            cursor[v as usize] += 1;
            ve_elements[at] = t as u32;
            let row = &mut raw[others * at..others * (at + 1)];
            row[..i].copy_from_slice(&element[..i]);
            row[i..].copy_from_slice(&element[i + 1..]);
        }
    }

    // per-row dedup, compacting in place (the write cursor never overtakes
    // the read cursor); `stamp[w] = [v + 1, run]` once `w` is seen in the
    // long row of `v`
    let mut vv_offsets = vec![0u32; n + 1];
    let mut stamp: Vec<[u32; 2]> = Vec::new();
    let mut write = 0usize;
    for v in 0..n {
        let (lo, hi) = (others * ve_offsets[v] as usize, others * ve_offsets[v + 1] as usize);
        if hi - lo <= SHORT_ROW {
            raw[lo..hi].sort_unstable();
            let mut read = lo;
            while read < hi {
                let w = raw[read];
                let start = read;
                while read < hi && raw[read] == w {
                    read += 1;
                }
                on_run(v, read - start);
                raw[write] = w;
                write += 1;
            }
        } else {
            if stamp.is_empty() {
                stamp = vec![[0; 2]; n];
            }
            let mark = u32::try_from(v + 1).expect("vertex id u32::MAX has no stamp");
            let start = write;
            for read in lo..hi {
                let w = raw[read];
                let seen = &mut stamp[w as usize];
                if seen[0] == mark {
                    seen[1] += 1;
                } else {
                    *seen = [mark, 1];
                    raw[write] = w;
                    write += 1;
                }
            }
            raw[start..write].sort_unstable();
            for &w in &raw[start..write] {
                on_run(v, stamp[w as usize][1] as usize);
            }
        }
        vv_offsets[v + 1] = write as u32;
    }
    raw.truncate(write);
    // the raw rows were 2× (triangles) to 5× (tets) the deduplicated ones
    raw.shrink_to_fit();

    VertexRows { ve_offsets, ve_elements, vv_offsets, vv_neighbors: raw }
}

/// CSR vertex→vertex and vertex→triangle adjacency, plus the boundary
/// flags the build sees for free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Adjacency {
    vv_offsets: Vec<u32>,
    vv_neighbors: Vec<u32>,
    vt_offsets: Vec<u32>,
    vt_triangles: Vec<u32>,
    /// `true` for every vertex on an edge of exactly one triangle, and for
    /// every vertex in no triangle (see [`crate::Boundary`]).
    on_boundary: Vec<bool>,
}

impl Adjacency {
    /// Build the adjacency of `mesh` ([`vertex_rows`] at `K = 3`).
    ///
    /// Neighbour lists are sorted ascending and deduplicated; triangle lists
    /// are sorted ascending.
    pub fn build(mesh: &TriMesh) -> Self {
        let n = mesh.num_vertices();
        // A triangle lists each of its other two corners once in `v`'s raw
        // row, so the length of `w`'s run is the number of triangles on
        // edge (v, w): a run of one is a boundary edge.
        let mut on_boundary = vec![false; n];
        let rows = vertex_rows(n, mesh.triangles(), |v, run| on_boundary[v] |= run == 1);
        // ... and a vertex in no triangle is pinned too
        for (v, pinned) in on_boundary.iter_mut().enumerate() {
            *pinned |= rows.ve_offsets[v] == rows.ve_offsets[v + 1];
        }
        let VertexRows { ve_offsets, ve_elements, vv_offsets, vv_neighbors } = rows;
        Adjacency {
            vv_offsets,
            vv_neighbors,
            vt_offsets: ve_offsets,
            vt_triangles: ve_elements,
            on_boundary,
        }
    }

    /// Number of vertices the adjacency was built for.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.vv_offsets.len() - 1
    }

    /// Bytes the adjacency owns on the heap: both CSR tables and the
    /// boundary flags.
    pub fn heap_bytes(&self) -> usize {
        crate::vec_bytes(&self.vv_offsets)
            + crate::vec_bytes(&self.vv_neighbors)
            + crate::vec_bytes(&self.vt_offsets)
            + crate::vec_bytes(&self.vt_triangles)
            + crate::vec_bytes(&self.on_boundary)
    }

    /// Sorted neighbour vertices of `v`.
    #[inline]
    pub fn neighbors(&self, v: u32) -> &[u32] {
        let lo = self.vv_offsets[v as usize] as usize;
        let hi = self.vv_offsets[v as usize + 1] as usize;
        &self.vv_neighbors[lo..hi]
    }

    /// Sorted incident triangles of `v`.
    #[inline]
    pub fn triangles_of(&self, v: u32) -> &[u32] {
        let lo = self.vt_offsets[v as usize] as usize;
        let hi = self.vt_offsets[v as usize + 1] as usize;
        &self.vt_triangles[lo..hi]
    }

    /// Degree (number of neighbour vertices) of `v`.
    #[inline]
    pub fn degree(&self, v: u32) -> usize {
        self.neighbors(v).len()
    }

    /// Per-vertex boundary flags (`true` = on an edge of exactly one
    /// triangle, or in no triangle), recorded while the rows were
    /// deduplicated; [`crate::Boundary::from_adjacency`] wraps them.
    #[inline]
    pub fn boundary_flags(&self) -> &[bool] {
        &self.on_boundary
    }

    /// Start position of `v`'s incident-triangle slice within the flat
    /// vertex→triangle CSR array — lets callers maintain side tables
    /// aligned with the concatenation of all [`triangles_of`] slices.
    ///
    /// [`triangles_of`]: Self::triangles_of
    #[inline]
    pub fn triangles_offset(&self, v: u32) -> usize {
        self.vt_offsets[v as usize] as usize
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

    /// Histogram of vertex degrees: `hist[d]` = number of vertices of degree `d`.
    pub fn degree_histogram(&self) -> Vec<usize> {
        let mut hist = vec![0usize; self.max_degree() + 1];
        for v in 0..self.num_vertices() as u32 {
            hist[self.degree(v)] += 1;
        }
        hist
    }

    /// True when `a` and `b` share an edge.
    pub fn are_adjacent(&self, a: u32, b: u32) -> bool {
        self.neighbors(a).binary_search(&b).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::{figure5_mesh, tri_soup};
    use crate::Point2;
    use proptest::prelude::*;

    /// The oracle: the global sort over all `K·(K − 1)·T` directed pairs
    /// that `Adjacency3::build` used before it shared [`vertex_rows`] (and
    /// `Adjacency::build` before PR 1), with the multiplicity of every
    /// distinct pair — what `on_run` must report — counted on the way.
    fn rows_by_global_sort<const K: usize>(
        n: usize,
        elements: &[[u32; K]],
    ) -> (VertexRows, Vec<(usize, usize)>) {
        let mut ve: Vec<(u32, u32)> = Vec::new();
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for (t, element) in elements.iter().enumerate() {
            for i in 0..K {
                ve.push((element[i], t as u32));
                for j in 0..K {
                    if i != j {
                        pairs.push((element[i], element[j]));
                    }
                }
            }
        }
        ve.sort_unstable();
        pairs.sort_unstable();
        let runs =
            pairs.chunk_by(|a, b| a == b).map(|run| (run[0].0 as usize, run.len())).collect();
        pairs.dedup();
        let offsets = |firsts: &mut dyn Iterator<Item = u32>| {
            let mut offsets = vec![0u32; n + 1];
            for v in firsts {
                offsets[v as usize + 1] += 1;
            }
            for i in 0..n {
                offsets[i + 1] += offsets[i];
            }
            offsets
        };
        let rows = VertexRows {
            ve_offsets: offsets(&mut ve.iter().map(|p| p.0)),
            ve_elements: ve.iter().map(|p| p.1).collect(),
            vv_offsets: offsets(&mut pairs.iter().map(|p| p.0)),
            vv_neighbors: pairs.iter().map(|p| p.1).collect(),
        };
        (rows, runs)
    }

    fn assert_rows_match_oracle<const K: usize>(n: usize, elements: &[[u32; K]]) {
        let mut runs = Vec::new();
        let rows = vertex_rows(n, elements, |v, len| runs.push((v, len)));
        let (expect_rows, expect_runs) = rows_by_global_sort(n, elements);
        assert_eq!(rows, expect_rows);
        assert_eq!(runs, expect_runs);
    }

    proptest! {
        // the default config (256 cases), so `PROPTEST_CASES` can deepen it

        #[test]
        fn soup_rows_match_the_global_sort(
            n in 1usize..24,
            picks in proptest::collection::vec((0usize..64, 0usize..64, 0usize..64), 0..60),
        ) {
            let m = tri_soup(n, &picks);
            assert_rows_match_oracle(n, m.triangles());
        }

        #[test]
        fn tet_soup_rows_match_the_global_sort(
            n in 1usize..24,
            picks in proptest::collection::vec(
                (0usize..64, 0usize..64, 0usize..64, 0usize..64), 0..60),
        ) {
            // corners may repeat, tets may be listed twice and some vertices
            // are in no tet: rows land on both sides of `SHORT_ROW`
            let tets: Vec<[u32; 4]> =
                picks.iter().map(|&(a, b, c, d)| [a, b, c, d].map(|i| (i % n) as u32)).collect();
            assert_rows_match_oracle(n, &tets);
        }

        #[test]
        fn grid_rows_match_the_global_sort(nx in 2usize..9, ny in 2usize..9, seed in 0u64..1000) {
            let m = crate::generators::perturbed_grid(nx, ny, 0.3, seed);
            assert_rows_match_oracle(m.num_vertices(), m.triangles());
        }
    }

    #[test]
    fn degenerate_inputs_match_the_global_sort() {
        assert_rows_match_oracle::<3>(0, &[]);
        assert_rows_match_oracle::<4>(0, &[]);
        assert_rows_match_oracle::<3>(5, &[]);
        assert_rows_match_oracle(4, &[[0u32, 1, 2, 3]]);
        // the same element three times over, and a corner listed twice
        assert_rows_match_oracle(4, &[[0u32, 1, 2], [2, 1, 0], [0, 1, 2]]);
        assert_rows_match_oracle(3, &[[0u32, 0, 1]]);
        // one tet six times over (18 raw entries per row); corners listed
        // two and three times (vertex 0's row: 24 entries, itself among
        // them) beside a stray vertex
        assert_rows_match_oracle(6, &[[0u32, 1, 2, 3]; 6]);
        assert_rows_match_oracle(6, &[[0u32, 0, 1, 2], [2, 1, 0, 0], [0, 4, 1, 1], [0, 0, 0, 4]]);
    }

    /// `k` triangles around vertex 0, closed into a wheel or left open.
    fn fan(k: usize, closed: bool) -> TriMesh {
        let rim = if closed { k } else { k + 1 };
        let mut coords = vec![Point2::ZERO];
        for i in 0..rim {
            let th = 2.0 * std::f64::consts::PI * i as f64 / (k + 1) as f64;
            coords.push(Point2::new(th.cos(), th.sin()));
        }
        let tris = (0..k).map(|i| [0, 1 + i as u32, 1 + ((i + 1) % rim) as u32]).collect();
        TriMesh::new(coords, tris).unwrap()
    }

    #[test]
    fn fans_across_the_short_row_limit_match_the_global_sort() {
        // the hub's raw row holds 2k entries: 14..=40, so both sides of 16
        for k in 7..=20 {
            for closed in [false, true] {
                let m = fan(k, closed);
                assert_rows_match_oracle(m.num_vertices(), m.triangles());
                let boundary = crate::Boundary::from_adjacency(&Adjacency::build(&m));
                assert_eq!(boundary, crate::Boundary::detect(&m), "k = {k}, closed = {closed}");
                assert_eq!(boundary.is_boundary(0), !closed);
            }
        }
    }

    fn square() -> TriMesh {
        TriMesh::new(
            vec![
                Point2::new(0.0, 0.0),
                Point2::new(1.0, 0.0),
                Point2::new(1.0, 1.0),
                Point2::new(0.0, 1.0),
            ],
            vec![[0, 1, 2], [0, 2, 3]],
        )
        .unwrap()
    }

    #[test]
    fn square_adjacency() {
        let adj = Adjacency::build(&square());
        assert_eq!(adj.neighbors(0), &[1, 2, 3]);
        assert_eq!(adj.neighbors(1), &[0, 2]);
        assert_eq!(adj.neighbors(2), &[0, 1, 3]);
        assert_eq!(adj.neighbors(3), &[0, 2]);
    }

    #[test]
    fn square_triangle_incidence() {
        let adj = Adjacency::build(&square());
        assert_eq!(adj.triangles_of(0), &[0, 1]);
        assert_eq!(adj.triangles_of(1), &[0]);
        assert_eq!(adj.triangles_of(2), &[0, 1]);
        assert_eq!(adj.triangles_of(3), &[1]);
    }

    #[test]
    fn adjacency_is_symmetric() {
        let m = figure5_mesh();
        let adj = Adjacency::build(&m);
        for v in 0..m.num_vertices() as u32 {
            for &w in adj.neighbors(v) {
                assert!(adj.are_adjacent(w, v), "asymmetric pair ({v},{w})");
            }
        }
    }

    #[test]
    fn neighbor_lists_sorted_unique() {
        let adj = Adjacency::build(&figure5_mesh());
        for v in 0..adj.num_vertices() as u32 {
            let ns = adj.neighbors(v);
            assert!(ns.windows(2).all(|w| w[0] < w[1]), "vertex {v} list not sorted-unique");
            assert!(!ns.contains(&v), "vertex {v} is its own neighbour");
        }
    }

    #[test]
    fn directed_edges_match_edge_count() {
        let m = figure5_mesh();
        let adj = Adjacency::build(&m);
        assert_eq!(adj.num_directed_edges(), 2 * m.edges().len());
    }

    #[test]
    fn degree_statistics() {
        let adj = Adjacency::build(&square());
        assert_eq!(adj.max_degree(), 3);
        assert!((adj.mean_degree() - 2.5).abs() < 1e-15);
        let hist = adj.degree_histogram();
        assert_eq!(hist[2], 2);
        assert_eq!(hist[3], 2);
    }

    #[test]
    fn triangle_incidence_covers_all_corners() {
        let m = figure5_mesh();
        let adj = Adjacency::build(&m);
        let mut total = 0;
        for v in 0..m.num_vertices() as u32 {
            total += adj.triangles_of(v).len();
            for &t in adj.triangles_of(v) {
                assert!(m.triangles()[t as usize].contains(&v));
            }
        }
        assert_eq!(total, 3 * m.num_triangles());
    }
}
