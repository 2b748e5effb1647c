//! The tetrahedral-mesh container.

use crate::geometry::{bounding_box, signed_volume, Point3};
use std::fmt;

/// Errors raised when constructing or validating a [`TetMesh`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mesh3Error {
    /// A tetrahedron references a vertex index `idx >= num_vertices`.
    IndexOutOfRange {
        /// Offending tetrahedron.
        tet: usize,
        /// The out-of-range vertex index.
        index: u32,
    },
    /// A tetrahedron lists the same vertex twice.
    DegenerateTet {
        /// Offending tetrahedron.
        tet: usize,
    },
    /// The mesh has more vertices than `u32` can index.
    TooManyVertices {
        /// Actual vertex count.
        vertices: usize,
    },
    /// An I/O or parse failure (carries a human-readable message).
    Parse(String),
}

impl fmt::Display for Mesh3Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Mesh3Error::IndexOutOfRange { tet, index } => {
                write!(f, "tetrahedron {tet} references out-of-range vertex {index}")
            }
            Mesh3Error::DegenerateTet { tet } => {
                write!(f, "tetrahedron {tet} repeats a vertex")
            }
            Mesh3Error::TooManyVertices { vertices } => {
                write!(f, "{vertices} vertices exceed u32 indexing")
            }
            Mesh3Error::Parse(msg) => write!(f, "parse error: {msg}"),
        }
    }
}

impl std::error::Error for Mesh3Error {}

/// An indexed tetrahedral mesh.
///
/// The 3D analogue of `lms_mesh::TriMesh`: vertices in a flat coordinate
/// array (the array the paper's reorderings permute), connectivity as
/// vertex-index quadruples. Positive orientation means positive
/// [`signed_volume`] of `(v0, v1, v2, v3)`.
#[derive(Debug, Clone, PartialEq)]
pub struct TetMesh {
    coords: Vec<Point3>,
    tets: Vec<[u32; 4]>,
}

impl TetMesh {
    /// Build a mesh, validating all tetrahedron indices.
    pub fn new(coords: Vec<Point3>, tets: Vec<[u32; 4]>) -> Result<Self, Mesh3Error> {
        if coords.len() > u32::MAX as usize {
            return Err(Mesh3Error::TooManyVertices { vertices: coords.len() });
        }
        let n = coords.len() as u32;
        for (t, tet) in tets.iter().enumerate() {
            for &v in tet {
                if v >= n {
                    return Err(Mesh3Error::IndexOutOfRange { tet: t, index: v });
                }
            }
            for i in 0..4 {
                for j in i + 1..4 {
                    if tet[i] == tet[j] {
                        return Err(Mesh3Error::DegenerateTet { tet: t });
                    }
                }
            }
        }
        Ok(TetMesh { coords, tets })
    }

    /// Build a mesh without validation.
    ///
    /// Callers must guarantee every index is `< coords.len()` and no
    /// tetrahedron repeats a vertex; all other methods rely on it.
    pub fn new_unchecked(coords: Vec<Point3>, tets: Vec<[u32; 4]>) -> Self {
        debug_assert!(TetMesh::new(coords.clone(), tets.clone()).is_ok());
        TetMesh { coords, tets }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.coords.len()
    }

    /// Number of tetrahedra.
    #[inline]
    pub fn num_tets(&self) -> usize {
        self.tets.len()
    }

    /// Vertex coordinate array.
    #[inline]
    pub fn coords(&self) -> &[Point3] {
        &self.coords
    }

    /// Mutable vertex coordinate array (used by the smoothing engines).
    #[inline]
    pub fn coords_mut(&mut self) -> &mut [Point3] {
        &mut self.coords
    }

    /// Tetrahedron connectivity array.
    #[inline]
    pub fn tets(&self) -> &[[u32; 4]] {
        &self.tets
    }

    /// Coordinates of tetrahedron `t`'s four corners.
    #[inline]
    pub fn tet_coords(&self, t: usize) -> [Point3; 4] {
        let [a, b, c, d] = self.tets[t];
        [
            self.coords[a as usize],
            self.coords[b as usize],
            self.coords[c as usize],
            self.coords[d as usize],
        ]
    }

    /// Deduplicated undirected edge list, each edge as `(lo, hi)` with
    /// `lo < hi`, sorted lexicographically.
    pub fn edges(&self) -> Vec<(u32, u32)> {
        let mut edges = Vec::with_capacity(self.tets.len() * 6);
        for tet in &self.tets {
            for i in 0..4 {
                for j in i + 1..4 {
                    let (a, b) = (tet[i], tet[j]);
                    edges.push((a.min(b), a.max(b)));
                }
            }
        }
        edges.sort_unstable();
        edges.dedup();
        edges
    }

    /// The four triangular faces of tetrahedron `t`, each with sorted vertex
    /// ids (the canonical form used for face matching).
    #[inline]
    pub fn tet_faces_sorted(tet: [u32; 4]) -> [[u32; 3]; 4] {
        let [a, b, c, d] = tet;
        let mut faces = [[b, c, d], [a, c, d], [a, b, d], [a, b, c]];
        for f in &mut faces {
            f.sort_unstable();
        }
        faces
    }

    /// Re-orient every tetrahedron to positive signed volume in place.
    ///
    /// Exactly degenerate (zero-volume) tets are left untouched.
    pub fn orient_positive(&mut self) {
        for t in 0..self.tets.len() {
            let [a, b, c, d] = self.tet_coords(t);
            if signed_volume(a, b, c, d) < 0.0 {
                self.tets[t].swap(2, 3);
            }
        }
    }

    /// True when every tetrahedron has strictly positive signed volume.
    pub fn is_positively_oriented(&self) -> bool {
        (0..self.num_tets()).all(|t| {
            let [a, b, c, d] = self.tet_coords(t);
            signed_volume(a, b, c, d) > 0.0
        })
    }

    /// Total unsigned volume of all tetrahedra.
    pub fn total_volume(&self) -> f64 {
        (0..self.num_tets())
            .map(|t| {
                let [a, b, c, d] = self.tet_coords(t);
                crate::geometry::volume(a, b, c, d)
            })
            .sum()
    }

    /// Axis-aligned bounding box of the vertex set.
    pub fn bbox(&self) -> (Point3, Point3) {
        bounding_box(&self.coords)
    }

    /// Consume the mesh, returning its raw parts `(coords, tets)`.
    pub fn into_parts(self) -> (Vec<Point3>, Vec<[u32; 4]>) {
        (self.coords, self.tets)
    }
}

/// A single positively oriented unit-corner tetrahedron (the 3D "hello
/// world" fixture used across tests and docs).
pub fn corner_tet() -> TetMesh {
    TetMesh::new(
        vec![
            Point3::ZERO,
            Point3::new(1.0, 0.0, 0.0),
            Point3::new(0.0, 1.0, 0.0),
            Point3::new(0.0, 0.0, 1.0),
        ],
        vec![[0, 1, 2, 3]],
    )
    .expect("corner tet is valid")
}

/// A tet soup on `n` vertices for the topology oracles: `picks` become
/// tets wherever the four ids (taken modulo `n`) differ. Few vertices and
/// many picks make repeated tets, faces shared by three and more tets and
/// unreferenced vertices all common.
#[cfg(test)]
pub(crate) fn tet_soup(n: usize, picks: &[(usize, usize, usize, usize)]) -> TetMesh {
    let coords =
        (0..n).map(|i| Point3::new(i as f64, (i * i % 7) as f64, (i % 3) as f64)).collect();
    let tets = picks
        .iter()
        .map(|&(a, b, c, d)| [a, b, c, d].map(|v| (v % n) as u32))
        .filter(|t| (0..4).all(|i| (0..i).all(|j| t[i] != t[j])))
        .collect();
    TetMesh::new(coords, tets).expect("distinct in-range corners")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two tets sharing the face (1,2,3).
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
    fn construction_validates_indices() {
        let err = TetMesh::new(vec![Point3::ZERO; 4], vec![[0, 1, 2, 4]]).unwrap_err();
        assert_eq!(err, Mesh3Error::IndexOutOfRange { tet: 0, index: 4 });
    }

    #[test]
    fn construction_rejects_degenerate_tets() {
        let err = TetMesh::new(vec![Point3::ZERO; 4], vec![[0, 1, 2, 2]]).unwrap_err();
        assert_eq!(err, Mesh3Error::DegenerateTet { tet: 0 });
    }

    #[test]
    fn corner_tet_volume_and_orientation() {
        let m = corner_tet();
        assert!(m.is_positively_oriented());
        assert!((m.total_volume() - 1.0 / 6.0).abs() < 1e-15);
    }

    #[test]
    fn double_tet_edges() {
        let m = double_tet();
        // 6 edges in each tet, 3 shared (the common face's edges): 9 total.
        assert_eq!(m.edges().len(), 9);
        assert!(m.edges().iter().all(|&(a, b)| a < b));
    }

    #[test]
    fn orient_positive_flips_negative_tets() {
        let mut m = TetMesh::new(
            vec![
                Point3::ZERO,
                Point3::new(1.0, 0.0, 0.0),
                Point3::new(0.0, 1.0, 0.0),
                Point3::new(0.0, 0.0, 1.0),
            ],
            vec![[0, 2, 1, 3]], // negative orientation
        )
        .unwrap();
        assert!(!m.is_positively_oriented());
        m.orient_positive();
        assert!(m.is_positively_oriented());
    }

    #[test]
    fn faces_are_sorted_and_opposite_each_vertex() {
        let faces = TetMesh::tet_faces_sorted([3, 1, 2, 0]);
        for f in faces {
            assert!(f[0] < f[1] && f[1] < f[2]);
        }
        // face k excludes vertex k of the tet
        assert!(!faces[0].contains(&3));
        assert!(!faces[1].contains(&1));
        assert!(!faces[2].contains(&2));
        assert!(!faces[3].contains(&0));
    }

    #[test]
    fn into_parts_roundtrips() {
        let m = double_tet();
        let (coords, tets) = m.clone().into_parts();
        assert_eq!(TetMesh::new(coords, tets).unwrap(), m);
    }

    #[test]
    fn bbox_spans_vertices() {
        let (lo, hi) = double_tet().bbox();
        assert_eq!(lo, Point3::ZERO);
        assert_eq!(hi, Point3::new(1.0, 1.0, 1.0));
    }
}
