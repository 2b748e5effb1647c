//! Compressed sparse row (CSR) adjacency built from a [`TriMesh`].
//!
//! Both the smoothing sweep (gather neighbour coordinates) and the RDR
//! reordering (walk worst-quality neighbours) are driven by vertex→vertex
//! adjacency; quality evaluation additionally needs vertex→triangle
//! incidence. Both are stored CSR so that a vertex's neighbour list is a
//! contiguous slice — the same layout the paper's implementation streams
//! through.

use crate::mesh::TriMesh;

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
    /// Build the adjacency of `mesh`.
    ///
    /// Neighbour lists are sorted ascending and deduplicated; triangle lists
    /// are sorted ascending.
    pub fn build(mesh: &TriMesh) -> Self {
        let n = mesh.num_vertices();
        let nt = mesh.num_triangles();

        // vertex -> triangles (counting sort into CSR).
        let mut vt_offsets = vec![0u32; n + 1];
        for tri in mesh.triangles() {
            for &v in tri {
                vt_offsets[v as usize + 1] += 1;
            }
        }
        for i in 0..n {
            vt_offsets[i + 1] += vt_offsets[i];
        }
        let mut vt_triangles = vec![0u32; 3 * nt];
        let mut cursor = vt_offsets.clone();
        for (t, tri) in mesh.triangles().iter().enumerate() {
            for &v in tri {
                let c = &mut cursor[v as usize];
                vt_triangles[*c as usize] = t as u32;
                *c += 1;
            }
        }

        // vertex -> vertices: counting-sort the directed edges into
        // per-vertex CSR rows, then sort/dedup each short row. Replaces
        // the old global `sort_unstable` + `dedup` over all 6T directed
        // pairs — O(E log E) on the whole edge array — with O(E) bucketing
        // plus O(Σ deg·log deg) row sorts over ~6-entry rows.
        let mut raw_offsets = vec![0u32; n + 1];
        for tri in mesh.triangles() {
            for &v in tri {
                raw_offsets[v as usize + 1] += 2;
            }
        }
        for i in 0..n {
            raw_offsets[i + 1] += raw_offsets[i];
        }
        let mut buf = vec![0u32; raw_offsets[n] as usize];
        let mut cursor: Vec<u32> = raw_offsets[..n].to_vec();
        let push = |cursor: &mut [u32], buf: &mut [u32], v: u32, w: u32| {
            let c = &mut cursor[v as usize];
            buf[*c as usize] = w;
            *c += 1;
        };
        for tri in mesh.triangles() {
            let [a, b, c] = *tri;
            push(&mut cursor, &mut buf, a, b);
            push(&mut cursor, &mut buf, a, c);
            push(&mut cursor, &mut buf, b, a);
            push(&mut cursor, &mut buf, b, c);
            push(&mut cursor, &mut buf, c, a);
            push(&mut cursor, &mut buf, c, b);
        }
        // per-row sort + dedup, compacting in place (write cursor never
        // overtakes the read cursor). A triangle lists each of its other
        // two corners once in `v`'s raw row, so the length of `w`'s run is
        // the number of triangles on edge (v, w): a run of one is a
        // boundary edge, an empty row an unreferenced vertex.
        let mut vv_offsets = vec![0u32; n + 1];
        let mut on_boundary = vec![false; n];
        let mut write = 0usize;
        for v in 0..n {
            let (lo, hi) = (raw_offsets[v] as usize, raw_offsets[v + 1] as usize);
            buf[lo..hi].sort_unstable();
            let mut pinned = lo == hi;
            let mut read = lo;
            while read < hi {
                let x = buf[read];
                let start = read;
                while read < hi && buf[read] == x {
                    read += 1;
                }
                pinned |= read - start == 1;
                buf[write] = x;
                write += 1;
            }
            vv_offsets[v + 1] = write as u32;
            on_boundary[v] = pinned;
        }
        buf.truncate(write);

        Adjacency { vv_offsets, vv_neighbors: buf, vt_offsets, vt_triangles, on_boundary }
    }

    /// Number of vertices the adjacency was built for.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.vv_offsets.len() - 1
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
    use crate::mesh::figure5_mesh;
    use crate::Point2;

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
