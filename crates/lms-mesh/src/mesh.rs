//! The triangle-mesh container.

use crate::geometry::{bounding_box, orient2d, Point2};
use std::fmt;
use std::sync::Arc;

/// Errors raised when constructing or validating a [`TriMesh`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MeshError {
    /// A triangle references a vertex index `idx >= num_vertices`.
    IndexOutOfRange { triangle: usize, index: u32 },
    /// A triangle lists the same vertex twice.
    DegenerateTriangle { triangle: usize },
    /// The mesh has more vertices than `u32` can index.
    TooManyVertices { vertices: usize },
    /// An I/O or parse failure (carries a human-readable message).
    Parse(String),
}

impl fmt::Display for MeshError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MeshError::IndexOutOfRange { triangle, index } => {
                write!(f, "triangle {triangle} references out-of-range vertex {index}")
            }
            MeshError::DegenerateTriangle { triangle } => {
                write!(f, "triangle {triangle} repeats a vertex")
            }
            MeshError::TooManyVertices { vertices } => {
                write!(f, "{vertices} vertices exceed u32 indexing")
            }
            MeshError::Parse(msg) => write!(f, "parse error: {msg}"),
        }
    }
}

impl std::error::Error for MeshError {}

/// An indexed 2D triangle mesh.
///
/// Vertices are stored in a flat coordinate array; connectivity is a list of
/// vertex-index triples. The *order* of the coordinate array is exactly what
/// the paper's reorderings permute: iterating vertices in storage order while
/// gathering neighbour coordinates is the memory-access pattern whose
/// locality RDR optimises.
///
/// The triangle table sits behind one shared pointer: clones of the mesh
/// and every smoothing engine built from it read the same allocation, and
/// the one in-place mutator ([`orient_ccw`](Self::orient_ccw)) copies it
/// first when it is shared.
#[derive(Debug, Clone, PartialEq)]
pub struct TriMesh {
    coords: Vec<Point2>,
    triangles: Arc<Vec<[u32; 3]>>,
}

impl TriMesh {
    /// Build a mesh, validating all triangle indices.
    pub fn new(coords: Vec<Point2>, triangles: Vec<[u32; 3]>) -> Result<Self, MeshError> {
        if coords.len() > u32::MAX as usize {
            return Err(MeshError::TooManyVertices { vertices: coords.len() });
        }
        let n = coords.len() as u32;
        for (t, tri) in triangles.iter().enumerate() {
            for &v in tri {
                if v >= n {
                    return Err(MeshError::IndexOutOfRange { triangle: t, index: v });
                }
            }
            if tri[0] == tri[1] || tri[1] == tri[2] || tri[0] == tri[2] {
                return Err(MeshError::DegenerateTriangle { triangle: t });
            }
        }
        Ok(TriMesh { coords, triangles: Arc::new(triangles) })
    }

    /// Build a mesh without validation.
    ///
    /// Callers must guarantee every triangle index is `< coords.len()` and no
    /// triangle repeats a vertex; all other methods rely on it.
    pub fn new_unchecked(coords: Vec<Point2>, triangles: Vec<[u32; 3]>) -> Self {
        debug_assert!(TriMesh::new(coords.clone(), triangles.clone()).is_ok());
        TriMesh { coords, triangles: Arc::new(triangles) }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.coords.len()
    }

    /// Number of triangles.
    #[inline]
    pub fn num_triangles(&self) -> usize {
        self.triangles.len()
    }

    /// Vertex coordinate array.
    #[inline]
    pub fn coords(&self) -> &[Point2] {
        &self.coords
    }

    /// Mutable vertex coordinate array (used by the smoothing engines).
    #[inline]
    pub fn coords_mut(&mut self) -> &mut [Point2] {
        &mut self.coords
    }

    /// Triangle connectivity array.
    #[inline]
    pub fn triangles(&self) -> &[[u32; 3]] {
        &self.triangles
    }

    /// The shared triangle table itself: holding the pointer keeps the one
    /// allocation alive instead of copying it.
    #[inline]
    pub fn shared_triangles(&self) -> &Arc<Vec<[u32; 3]>> {
        &self.triangles
    }

    /// Bytes this mesh owns on the heap: the coordinate array and the
    /// triangle table (counted here even when a clone or an engine shares
    /// it, so a ledger counts it once, by its mesh).
    pub fn heap_bytes(&self) -> usize {
        vec_bytes(&self.coords) + vec_bytes(&self.triangles)
    }

    /// Coordinates of triangle `t`'s three corners.
    #[inline]
    pub fn tri_coords(&self, t: usize) -> [Point2; 3] {
        let [a, b, c] = self.triangles[t];
        [self.coords[a as usize], self.coords[b as usize], self.coords[c as usize]]
    }

    /// Deduplicated undirected edge list, each edge as `(lo, hi)` with
    /// `lo < hi`, sorted lexicographically.
    pub fn edges(&self) -> Vec<(u32, u32)> {
        let mut edges = Vec::with_capacity(self.triangles.len() * 3);
        for tri in self.triangles.iter() {
            for k in 0..3 {
                let a = tri[k];
                let b = tri[(k + 1) % 3];
                edges.push((a.min(b), a.max(b)));
            }
        }
        edges.sort_unstable();
        edges.dedup();
        edges
    }

    /// Euler characteristic `V - E + T` (1 for a disk, 0 for an annulus, …).
    pub fn euler_characteristic(&self) -> i64 {
        self.num_vertices() as i64 - self.edges().len() as i64 + self.num_triangles() as i64
    }

    /// Re-orient every triangle counter-clockwise in place.
    ///
    /// Exactly degenerate (zero-area) triangles are left untouched. A
    /// triangle table shared with a clone or an engine is copied at the
    /// first flip, so they keep the old orientation.
    pub fn orient_ccw(&mut self) {
        for t in 0..self.triangles.len() {
            let [a, b, c] = self.tri_coords(t);
            if orient2d(a, b, c) < 0.0 {
                Arc::make_mut(&mut self.triangles)[t].swap(1, 2);
            }
        }
    }

    /// True when every triangle is counter-clockwise (strictly positive area).
    pub fn is_ccw(&self) -> bool {
        (0..self.num_triangles()).all(|t| {
            let [a, b, c] = self.tri_coords(t);
            orient2d(a, b, c) > 0.0
        })
    }

    /// Axis-aligned bounding box of the vertex set.
    pub fn bbox(&self) -> (Point2, Point2) {
        bounding_box(&self.coords)
    }

    /// Total unsigned area of all triangles.
    pub fn total_area(&self) -> f64 {
        (0..self.num_triangles())
            .map(|t| {
                let [a, b, c] = self.tri_coords(t);
                crate::geometry::area(a, b, c)
            })
            .sum()
    }

    /// Consume the mesh, returning its raw parts `(coords, triangles)`.
    /// The triangle table is copied only when a clone or an engine still
    /// shares it.
    pub fn into_parts(self) -> (Vec<Point2>, Vec<[u32; 3]>) {
        (self.coords, Arc::unwrap_or_clone(self.triangles))
    }
}

/// Heap bytes a vector holds (its capacity, not its length): the unit of
/// every `heap_bytes` ledger in the workspace.
pub fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

/// Build the small 13-vertex mesh of the paper's Figure 5, used by tests,
/// docs, and the `ordering_anatomy` example.
///
/// The mesh is a 13-vertex triangulated hexagon-ish patch: a centre ring of
/// interior vertices surrounded by boundary vertices, small enough to follow
/// orderings by hand.
pub fn figure5_mesh() -> TriMesh {
    // Two rows of a triangulated strip plus a fan — 13 vertices, irregular
    // degrees, a mix of interior and boundary vertices.
    let coords = vec![
        Point2::new(0.0, 0.0), // 0
        Point2::new(1.0, 0.0), // 1
        Point2::new(2.0, 0.0), // 2
        Point2::new(3.0, 0.0), // 3
        Point2::new(0.5, 1.0), // 4
        Point2::new(1.5, 1.0), // 5
        Point2::new(2.5, 1.0), // 6
        Point2::new(0.0, 2.0), // 7
        Point2::new(1.0, 2.0), // 8
        Point2::new(2.0, 2.0), // 9
        Point2::new(3.0, 2.0), // 10
        Point2::new(1.0, 3.0), // 11
        Point2::new(2.0, 3.0), // 12
    ];
    let triangles = vec![
        [0, 1, 4],
        [1, 5, 4],
        [1, 2, 5],
        [2, 6, 5],
        [2, 3, 6],
        [3, 10, 6],
        [0, 4, 7],
        [4, 8, 7],
        [4, 5, 8],
        [5, 9, 8],
        [5, 6, 9],
        [6, 10, 9],
        [7, 8, 11],
        [8, 9, 12],
        [8, 12, 11],
        [9, 10, 12],
    ];
    let mut m = TriMesh::new(coords, triangles).expect("figure5 mesh is valid");
    m.orient_ccw();
    m
}

/// A triangle soup on `n` vertices for the topology oracles: `picks` become
/// triangles wherever the three ids (taken modulo `n`) differ. Few vertices
/// and many triangles make edges of multiplicity 3 and more, repeated
/// triangles and unreferenced vertices all common.
#[cfg(test)]
pub(crate) fn tri_soup(n: usize, picks: &[(usize, usize, usize)]) -> TriMesh {
    let coords = (0..n).map(|i| Point2::new(i as f64, (i * i % 7) as f64)).collect();
    let tris = picks
        .iter()
        .map(|&(a, b, c)| [(a % n) as u32, (b % n) as u32, (c % n) as u32])
        .filter(|t| t[0] != t[1] && t[1] != t[2] && t[0] != t[2])
        .collect();
    TriMesh::new(coords, tris).unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_square() -> TriMesh {
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
    fn construction_validates_indices() {
        let err = TriMesh::new(vec![Point2::ZERO; 3], vec![[0, 1, 3]]).unwrap_err();
        assert_eq!(err, MeshError::IndexOutOfRange { triangle: 0, index: 3 });
    }

    #[test]
    fn construction_rejects_degenerate_triangles() {
        let err = TriMesh::new(vec![Point2::ZERO; 3], vec![[0, 1, 1]]).unwrap_err();
        assert_eq!(err, MeshError::DegenerateTriangle { triangle: 0 });
    }

    #[test]
    fn square_has_five_edges_and_euler_one() {
        let m = unit_square();
        let edges = m.edges();
        assert_eq!(edges.len(), 5);
        assert!(edges.contains(&(0, 2))); // the shared diagonal
        assert_eq!(m.euler_characteristic(), 1); // a disk
    }

    #[test]
    fn edges_are_deduplicated_and_sorted() {
        let m = unit_square();
        let edges = m.edges();
        let mut sorted = edges.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(edges, sorted);
        assert!(edges.iter().all(|&(a, b)| a < b));
    }

    #[test]
    fn orient_ccw_flips_clockwise_triangles() {
        let mut m = TriMesh::new(
            vec![Point2::new(0.0, 0.0), Point2::new(1.0, 0.0), Point2::new(0.0, 1.0)],
            vec![[0, 2, 1]], // clockwise
        )
        .unwrap();
        assert!(!m.is_ccw());
        m.orient_ccw();
        assert!(m.is_ccw());
        assert_eq!(m.triangles()[0], [0, 1, 2]);
    }

    #[test]
    fn total_area_of_unit_square() {
        assert!((unit_square().total_area() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn bbox_spans_vertices() {
        let (lo, hi) = unit_square().bbox();
        assert_eq!(lo, Point2::new(0.0, 0.0));
        assert_eq!(hi, Point2::new(1.0, 1.0));
    }

    #[test]
    fn figure5_mesh_is_valid_disk() {
        let m = figure5_mesh();
        assert_eq!(m.num_vertices(), 13);
        assert_eq!(m.num_triangles(), 16);
        assert!(m.is_ccw());
        assert_eq!(m.euler_characteristic(), 1);
    }

    #[test]
    fn into_parts_roundtrips() {
        let m = unit_square();
        let (coords, tris) = m.clone().into_parts();
        let m2 = TriMesh::new(coords, tris).unwrap();
        assert_eq!(m, m2);
    }

    #[test]
    fn tri_coords_indexes_correctly() {
        let m = unit_square();
        let [a, b, c] = m.tri_coords(1);
        assert_eq!(a, Point2::new(0.0, 0.0));
        assert_eq!(b, Point2::new(1.0, 1.0));
        assert_eq!(c, Point2::new(0.0, 1.0));
    }
}
