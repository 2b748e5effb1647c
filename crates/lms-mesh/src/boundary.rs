//! Boundary detection.
//!
//! Laplacian smoothing moves **interior** vertices only (Algorithm 1,
//! line 11); boundary vertices pin the domain shape. A boundary edge is an
//! edge incident to exactly one triangle; a boundary vertex touches at least
//! one boundary edge.

use crate::adjacency::Adjacency;
use crate::mesh::TriMesh;

/// Classification of every vertex as boundary or interior.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Boundary {
    is_boundary: Vec<bool>,
    num_boundary: usize,
}

/// Rows of [`Boundary::detect`] up to this long are checked pairwise (at
/// most 256 comparisons); longer ones are sorted first.
const SHORT_ROW: usize = 16;

impl Boundary {
    /// Detect the boundary of `mesh`.
    ///
    /// Buckets every undirected edge under its smaller endpoint (a counting
    /// sort, O(T + n)), then looks in each row for the larger endpoints
    /// listed once: those edges belong to exactly one triangle. Callers
    /// that hold an [`Adjacency`] use [`Boundary::from_adjacency`] and skip
    /// even that.
    pub fn detect(mesh: &TriMesh) -> Self {
        let n = mesh.num_vertices();
        // corners ascending: the edges are (lo, mid), (lo, hi), (mid, hi)
        let ascending = |tri: &[u32; 3]| {
            let [a, b, c] = *tri;
            let (lo, hi) = (a.min(b), a.max(b));
            (lo.min(c), lo.max(c).min(hi), hi.max(c))
        };
        let mut referenced = vec![false; n];
        let mut offsets = vec![0u32; n + 1];
        for tri in mesh.triangles() {
            let (lo, mid, hi) = ascending(tri);
            offsets[lo as usize + 1] += 2;
            offsets[mid as usize + 1] += 1;
            for v in [lo, mid, hi] {
                referenced[v as usize] = true;
            }
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut larger = vec![0u32; offsets[n] as usize];
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut push = |smaller: u32, v: u32| {
            let c = &mut cursor[smaller as usize];
            larger[*c as usize] = v;
            *c += 1;
        };
        for tri in mesh.triangles() {
            let (lo, mid, hi) = ascending(tri);
            push(lo, mid);
            push(lo, hi);
            push(mid, hi);
        }
        // Vertices in no triangle at all are treated as boundary (pinned).
        let mut is_boundary: Vec<bool> = referenced.iter().map(|&r| !r).collect();
        let mut mark = |lo: usize, hi: u32| {
            is_boundary[lo] = true;
            is_boundary[hi as usize] = true;
        };
        for lo in 0..n {
            let row = &mut larger[offsets[lo] as usize..offsets[lo + 1] as usize];
            if row.len() <= SHORT_ROW {
                // nearly every row: count matches directly, with no
                // data-dependent branch to mispredict
                for &hi in row.iter() {
                    if row.iter().filter(|&&other| other == hi).count() == 1 {
                        mark(lo, hi);
                    }
                }
            } else {
                row.sort_unstable();
                for run in row.chunk_by(|a, b| a == b) {
                    if run.len() == 1 {
                        mark(lo, run[0]);
                    }
                }
            }
        }
        Self::from_flags(is_boundary)
    }

    /// The boundary of the mesh `adj` was built from, read off the flags
    /// [`Adjacency::build`] recorded — O(n), no edge is visited again.
    pub fn from_adjacency(adj: &Adjacency) -> Self {
        Self::from_flags(adj.boundary_flags().to_vec())
    }

    fn from_flags(is_boundary: Vec<bool>) -> Self {
        let num_boundary = is_boundary.iter().filter(|&&b| b).count();
        Boundary { is_boundary, num_boundary }
    }

    /// True when `v` lies on the boundary (or is unreferenced).
    #[inline]
    pub fn is_boundary(&self, v: u32) -> bool {
        self.is_boundary[v as usize]
    }

    /// True when `v` is interior (free to move during smoothing).
    #[inline]
    pub fn is_interior(&self, v: u32) -> bool {
        !self.is_boundary[v as usize]
    }

    /// Number of boundary vertices.
    #[inline]
    pub fn num_boundary(&self) -> usize {
        self.num_boundary
    }

    /// Number of interior vertices.
    #[inline]
    pub fn num_interior(&self) -> usize {
        self.is_boundary.len() - self.num_boundary
    }

    /// Indices of all interior vertices, ascending.
    pub fn interior_vertices(&self) -> Vec<u32> {
        (0..self.is_boundary.len() as u32).filter(|&v| self.is_interior(v)).collect()
    }

    /// Bytes the flags own on the heap.
    pub fn heap_bytes(&self) -> usize {
        crate::vec_bytes(&self.is_boundary)
    }

    /// Indices of all boundary vertices, ascending.
    pub fn boundary_vertices(&self) -> Vec<u32> {
        (0..self.is_boundary.len() as u32).filter(|&v| self.is_boundary(v)).collect()
    }

    /// The raw flag array (`true` = boundary), indexed by vertex.
    #[inline]
    pub fn flags(&self) -> &[bool] {
        &self.is_boundary
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::{figure5_mesh, tri_soup as soup};
    use crate::Point2;
    use proptest::prelude::*;

    /// The oracle: the global sort over all 3T undirected edge pairs that
    /// `Boundary::detect` used before it bucketed them.
    fn detect_by_global_sort(mesh: &TriMesh) -> Vec<bool> {
        let mut edges: Vec<(u32, u32)> = Vec::with_capacity(3 * mesh.num_triangles());
        for tri in mesh.triangles() {
            for k in 0..3 {
                let a = tri[k];
                let b = tri[(k + 1) % 3];
                edges.push((a.min(b), a.max(b)));
            }
        }
        edges.sort_unstable();

        let mut is_boundary = vec![false; mesh.num_vertices()];
        let mut i = 0;
        while i < edges.len() {
            let mut j = i + 1;
            while j < edges.len() && edges[j] == edges[i] {
                j += 1;
            }
            if j - i == 1 {
                let (a, b) = edges[i];
                is_boundary[a as usize] = true;
                is_boundary[b as usize] = true;
            }
            i = j;
        }
        let mut referenced = vec![false; mesh.num_vertices()];
        for tri in mesh.triangles() {
            for &v in tri {
                referenced[v as usize] = true;
            }
        }
        for (v, r) in referenced.iter().enumerate() {
            if !r {
                is_boundary[v] = true;
            }
        }
        is_boundary
    }

    fn assert_matches_oracle(mesh: &TriMesh) {
        let expect = detect_by_global_sort(mesh);
        let detected = Boundary::detect(mesh);
        assert_eq!(detected.flags(), &expect[..]);
        assert_eq!(detected.num_boundary(), expect.iter().filter(|&&b| b).count());
        assert_eq!(Boundary::from_adjacency(&Adjacency::build(mesh)), detected);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn bucketed_detection_matches_the_global_sort_on_triangle_soups(
            n in 1usize..24,
            picks in proptest::collection::vec((0usize..64, 0usize..64, 0usize..64), 0..60),
        ) {
            assert_matches_oracle(&soup(n, &picks));
        }

        #[test]
        fn bucketed_detection_matches_the_global_sort_on_grids(
            nx in 2usize..9, ny in 2usize..9, seed in 0u64..1000,
        ) {
            let m = crate::generators::perturbed_grid(nx, ny, 0.3, seed);
            assert_matches_oracle(&m);
            // the same triangles listed backwards, corners rotated
            let (coords, mut tris) = m.into_parts();
            tris.reverse();
            for t in &mut tris {
                t.rotate_left(1);
            }
            assert_matches_oracle(&TriMesh::new(coords, tris).unwrap());
        }
    }

    #[test]
    fn degenerate_meshes_match_the_global_sort() {
        // a hub whose row (80 entries) takes the sorted path
        assert_matches_oracle(&wheel(40));
        // no vertices; vertices but no triangle
        assert_matches_oracle(&TriMesh::new(vec![], vec![]).unwrap());
        assert_matches_oracle(&soup(5, &[]));
        // one triangle listed twice: every edge has multiplicity 2
        let twice = soup(4, &[(0, 1, 2), (2, 1, 0)]);
        assert_matches_oracle(&twice);
        assert_eq!(Boundary::detect(&twice).boundary_vertices(), vec![3]);
        // three triangles on one edge: a non-manifold edge is not boundary
        let book = soup(5, &[(0, 1, 2), (0, 1, 3), (0, 1, 4)]);
        assert_matches_oracle(&book);
        assert_eq!(Boundary::detect(&book).num_boundary(), 5); // via the six outer edges
    }

    /// A fan around a single interior vertex 0.
    fn wheel(n: usize) -> TriMesh {
        let mut coords = vec![Point2::ZERO];
        for k in 0..n {
            let th = 2.0 * std::f64::consts::PI * k as f64 / n as f64;
            coords.push(Point2::new(th.cos(), th.sin()));
        }
        let tris = (0..n).map(|k| [0u32, 1 + k as u32, 1 + ((k + 1) % n) as u32]).collect();
        TriMesh::new(coords, tris).unwrap()
    }

    #[test]
    fn wheel_center_is_interior() {
        let b = Boundary::detect(&wheel(6));
        assert!(b.is_interior(0));
        for v in 1..7 {
            assert!(b.is_boundary(v));
        }
        assert_eq!(b.num_interior(), 1);
        assert_eq!(b.num_boundary(), 6);
        assert_eq!(b.interior_vertices(), vec![0]);
    }

    #[test]
    fn single_triangle_is_all_boundary() {
        let m = TriMesh::new(
            vec![Point2::new(0.0, 0.0), Point2::new(1.0, 0.0), Point2::new(0.0, 1.0)],
            vec![[0, 1, 2]],
        )
        .unwrap();
        let b = Boundary::detect(&m);
        assert_eq!(b.num_boundary(), 3);
        assert_eq!(b.num_interior(), 0);
    }

    #[test]
    fn unreferenced_vertex_is_pinned() {
        let m = TriMesh::new(
            vec![
                Point2::new(0.0, 0.0),
                Point2::new(1.0, 0.0),
                Point2::new(0.0, 1.0),
                Point2::new(9.0, 9.0), // not in any triangle
            ],
            vec![[0, 1, 2]],
        )
        .unwrap();
        let b = Boundary::detect(&m);
        assert!(b.is_boundary(3));
    }

    #[test]
    fn figure5_interior_set() {
        let m = figure5_mesh();
        let b = Boundary::detect(&m);
        // Interior vertices of the Figure-5 patch: 4, 5, 6, 8, 9.
        assert_eq!(b.interior_vertices(), vec![4, 5, 6, 8, 9]);
        assert_eq!(b.num_interior() + b.num_boundary(), m.num_vertices());
    }

    #[test]
    fn boundary_plus_interior_partition() {
        let m = figure5_mesh();
        let b = Boundary::detect(&m);
        let mut all = b.interior_vertices();
        all.extend(b.boundary_vertices());
        all.sort_unstable();
        let expect: Vec<u32> = (0..m.num_vertices() as u32).collect();
        assert_eq!(all, expect);
    }
}
