//! Boundary detection for tetrahedral meshes.
//!
//! A triangular face is a boundary face when it belongs to exactly one
//! tetrahedron; a vertex is a boundary vertex when it lies on at least one
//! boundary face. Smoothing (like the 2D engine) moves interior vertices
//! only.

use crate::mesh::TetMesh;
use lms_smooth::vec_bytes;

/// Boundary classification of a tetrahedral mesh's vertices.
///
/// A vertex in no tetrahedron is classified as boundary (pinned), as the
/// 2D `lms_mesh::Boundary` does with a vertex in no triangle: it has no
/// neighbours to average, so it stays out of visit orders, color classes
/// and block sweep lists instead of being skipped at every sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Boundary3 {
    is_boundary: Vec<bool>,
    num_boundary_faces: usize,
}

impl Boundary3 {
    /// Detect the boundary of `mesh` by face counting.
    ///
    /// Buckets every face `[a, b, c]` (vertices ascending) under `a` as the
    /// key `(b << 32) | c` — a counting sort, `O(T + n)` — then sorts each
    /// row (~24 keys) and reads the keys listed once: those faces belong to
    /// exactly one tetrahedron. Cost `O(T + Σ row·log row)`, no global sort
    /// over the 4·T faces.
    pub fn detect(mesh: &TetMesh) -> Self {
        let n = mesh.num_vertices();
        let tets = mesh.tets();
        assert!(
            tets.len() <= u32::MAX as usize / 4,
            "{} tets overflow the u32 offsets",
            tets.len()
        );
        let mut is_boundary = vec![true; n];
        let mut offsets = vec![0u32; n + 1];
        for &tet in tets {
            for face in TetMesh::tet_faces_sorted(tet) {
                offsets[face[0] as usize + 1] += 1;
            }
            for v in tet {
                is_boundary[v as usize] = false;
            }
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut keys = vec![0u64; 4 * tets.len()];
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        for &tet in tets {
            for [a, b, c] in TetMesh::tet_faces_sorted(tet) {
                let at = &mut cursor[a as usize];
                keys[*at as usize] = (b as u64) << 32 | c as u64;
                *at += 1;
            }
        }
        let mut num_boundary_faces = 0;
        for a in 0..n {
            let row = &mut keys[offsets[a] as usize..offsets[a + 1] as usize];
            row.sort_unstable();
            for run in row.chunk_by(|x, y| x == y) {
                if run.len() == 1 {
                    num_boundary_faces += 1;
                    is_boundary[a] = true;
                    is_boundary[(run[0] >> 32) as usize] = true;
                    is_boundary[run[0] as u32 as usize] = true;
                }
            }
        }
        Boundary3 { is_boundary, num_boundary_faces }
    }

    /// True when `v` lies on a boundary face (or is in no tetrahedron).
    #[inline]
    pub fn is_boundary(&self, v: u32) -> bool {
        self.is_boundary[v as usize]
    }

    /// True when `v` is strictly interior.
    #[inline]
    pub fn is_interior(&self, v: u32) -> bool {
        !self.is_boundary[v as usize]
    }

    /// Number of boundary vertices.
    pub fn num_boundary(&self) -> usize {
        self.is_boundary.iter().filter(|&&b| b).count()
    }

    /// Number of interior vertices.
    pub fn num_interior(&self) -> usize {
        self.is_boundary.len() - self.num_boundary()
    }

    /// Number of boundary faces (the surface triangle count).
    pub fn num_boundary_faces(&self) -> usize {
        self.num_boundary_faces
    }

    /// Interior vertices in index order.
    pub fn interior_vertices(&self) -> Vec<u32> {
        (0..self.is_boundary.len() as u32).filter(|&v| self.is_interior(v)).collect()
    }

    /// Bytes the flags own on the heap.
    pub fn heap_bytes(&self) -> usize {
        vec_bytes(&self.is_boundary)
    }

    /// Boundary vertices in index order.
    pub fn boundary_vertices(&self) -> Vec<u32> {
        (0..self.is_boundary.len() as u32).filter(|&v| self.is_boundary(v)).collect()
    }

    /// Interior flags, one per vertex (`true` = interior) — the form the
    /// graph-generic RDR core consumes.
    pub fn interior_flags(&self) -> Vec<bool> {
        self.is_boundary.iter().map(|&b| !b).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{perturbed_tet_grid, tet_grid};
    use crate::geometry::Point3;
    use crate::mesh::{corner_tet, tet_soup};
    use proptest::prelude::*;

    /// The oracle: `Boundary3::detect` as it was before it bucketed the
    /// faces — all 4·T of them in one `Vec`, sorted globally — plus the
    /// pinning of vertices in no tet.
    fn detect_by_global_sort(mesh: &TetMesh) -> Boundary3 {
        let mut faces: Vec<[u32; 3]> = Vec::with_capacity(4 * mesh.num_tets());
        for &tet in mesh.tets() {
            faces.extend_from_slice(&TetMesh::tet_faces_sorted(tet));
        }
        faces.sort_unstable();

        let mut is_boundary = vec![false; mesh.num_vertices()];
        let mut num_boundary_faces = 0;
        let mut i = 0;
        while i < faces.len() {
            let mut j = i + 1;
            while j < faces.len() && faces[j] == faces[i] {
                j += 1;
            }
            if j - i == 1 {
                num_boundary_faces += 1;
                for &v in &faces[i] {
                    is_boundary[v as usize] = true;
                }
            }
            i = j;
        }
        let mut referenced = vec![false; mesh.num_vertices()];
        for &v in mesh.tets().iter().flatten() {
            referenced[v as usize] = true;
        }
        for (pinned, referenced) in is_boundary.iter_mut().zip(referenced) {
            *pinned |= !referenced;
        }
        Boundary3 { is_boundary, num_boundary_faces }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn bucketed_detection_matches_the_global_sort_on_tet_soups(
            n in 4usize..24,
            picks in proptest::collection::vec(
                (0usize..64, 0usize..64, 0usize..64, 0usize..64), 0..60),
        ) {
            let m = tet_soup(n, &picks);
            prop_assert_eq!(Boundary3::detect(&m), detect_by_global_sort(&m));
        }

        #[test]
        fn bucketed_detection_matches_the_global_sort_on_grids(
            nx in 1usize..5, ny in 1usize..5, nz in 1usize..5, seed in 0u64..1000,
        ) {
            let m = perturbed_tet_grid(nx, ny, nz, 0.3, seed);
            prop_assert_eq!(Boundary3::detect(&m), detect_by_global_sort(&m));
            // the same tets listed backwards, corners rotated
            let (coords, mut tets) = m.into_parts();
            tets.reverse();
            for t in &mut tets {
                t.rotate_left(1);
            }
            let m = TetMesh::new(coords, tets).unwrap();
            prop_assert_eq!(Boundary3::detect(&m), detect_by_global_sort(&m));
        }
    }

    #[test]
    fn degenerate_meshes_match_the_global_sort() {
        for m in [TetMesh::new(vec![], vec![]).unwrap(), tet_soup(5, &[]), corner_tet()] {
            assert_eq!(Boundary3::detect(&m), detect_by_global_sort(&m));
        }
        // one tet listed twice: every face has multiplicity 2, so only the
        // vertex outside it is pinned
        let twice = tet_soup(5, &[(0, 1, 2, 3), (3, 2, 1, 0)]);
        assert_eq!(Boundary3::detect(&twice), detect_by_global_sort(&twice));
        assert_eq!(Boundary3::detect(&twice).boundary_vertices(), vec![4]);
        assert_eq!(Boundary3::detect(&twice).num_boundary_faces(), 0);
        // three tets on one face: a non-manifold face is not boundary, the
        // nine outer faces are
        let book = tet_soup(6, &[(0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 2, 5)]);
        assert_eq!(Boundary3::detect(&book), detect_by_global_sort(&book));
        assert_eq!(Boundary3::detect(&book).num_boundary_faces(), 9);
        assert_eq!(Boundary3::detect(&book).num_boundary(), 6);
    }

    #[test]
    fn vertices_in_no_tet_are_pinned() {
        // the centre of a 2x2x2 grid is its one interior vertex
        let grid = tet_grid(2, 2, 2);
        let (mut coords, tets) = grid.clone().into_parts();
        coords.push(Point3::new(9.0, 9.0, 9.0));
        coords.push(Point3::new(0.5, 0.5, 0.5));
        let strays = TetMesh::new(coords, tets).unwrap();

        let (b, with_strays) = (Boundary3::detect(&grid), Boundary3::detect(&strays));
        assert_eq!(b.num_interior(), 1);
        assert_eq!(with_strays.num_interior(), 1);
        assert_eq!(with_strays.interior_vertices(), b.interior_vertices());
        assert_eq!(with_strays.num_boundary_faces(), b.num_boundary_faces());
        let n = grid.num_vertices();
        assert_eq!(with_strays.interior_flags()[..n], b.interior_flags()[..]);
        assert_eq!(with_strays.interior_flags()[n..], [false, false]);
        assert!(with_strays.is_boundary(n as u32) && with_strays.is_boundary(n as u32 + 1));
    }

    #[test]
    fn single_tet_is_all_boundary() {
        let b = Boundary3::detect(&corner_tet());
        assert_eq!(b.num_boundary(), 4);
        assert_eq!(b.num_interior(), 0);
        assert_eq!(b.num_boundary_faces(), 4);
    }

    #[test]
    fn grid_boundary_is_the_box_surface() {
        // A (nx,ny,nz) cell grid has (nx+1)(ny+1)(nz+1) vertices of which
        // the interior block is (nx-1)(ny-1)(nz-1).
        let m = tet_grid(4, 3, 5);
        let b = Boundary3::detect(&m);
        assert_eq!(b.num_interior(), 3 * 2 * 4);
        assert_eq!(b.num_boundary(), m.num_vertices() - 3 * 2 * 4);
    }

    #[test]
    fn surface_face_count_matches_box_formula() {
        // Kuhn subdivision splits every exterior cell face into 2 surface
        // triangles: total faces = 2·2(nx·ny + ny·nz + nx·nz).
        let (nx, ny, nz) = (3usize, 4, 2);
        let m = tet_grid(nx, ny, nz);
        let b = Boundary3::detect(&m);
        assert_eq!(b.num_boundary_faces(), 4 * (nx * ny + ny * nz + nx * nz));
    }

    #[test]
    fn flags_partition_vertices() {
        let m = tet_grid(3, 3, 3);
        let b = Boundary3::detect(&m);
        assert_eq!(b.num_boundary() + b.num_interior(), m.num_vertices());
        let interior = b.interior_vertices();
        let boundary = b.boundary_vertices();
        assert_eq!(interior.len() + boundary.len(), m.num_vertices());
        let flags = b.interior_flags();
        for &v in &interior {
            assert!(flags[v as usize]);
        }
        for &v in &boundary {
            assert!(!flags[v as usize]);
        }
    }
}
