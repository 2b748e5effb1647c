//! Uniform midpoint refinement of tetrahedra: split every tet into eight
//! at its edge midpoints (1→8 "red" refinement).
//!
//! The 3D twin of `lms_mesh::refine::refine_midpoint`: each refinement level
//! multiplies the tet count by 8 with identical geometry, giving the 3D
//! experiments a mesh-size axis. The four corner children are similar to
//! the parent; the central octahedron is split into four tets along one of
//! its diagonals (we use the fixed `m(a,c)–m(b,d)` diagonal, the standard
//! choice that keeps refinement deterministic).
//!
//! Vertex numbering: original vertices keep their ids, followed by one
//! midpoint per original edge in sorted-edge order — the refined ORI
//! numbering inherits the coarse mesh's locality structure.

use crate::geometry::Point3;
use crate::mesh::TetMesh;
use std::collections::HashMap;

/// One level of uniform 1→8 midpoint refinement.
///
/// Counts transform as `V' = V + E`, `T' = 8T`; total volume is preserved
/// exactly (up to FP rounding of midpoints).
pub fn refine_midpoint3(mesh: &TetMesh) -> TetMesh {
    let mut coords: Vec<Point3> = mesh.coords().to_vec();
    let mut edges: Vec<(u32, u32)> = mesh.edges();
    edges.sort_unstable();
    let mut midpoint: HashMap<(u32, u32), u32> = HashMap::with_capacity(edges.len());
    for (a, b) in edges {
        let id = coords.len() as u32;
        let pa = mesh.coords()[a as usize];
        let pb = mesh.coords()[b as usize];
        coords.push((pa + pb) * 0.5);
        midpoint.insert((a, b), id);
    }
    let mid = |a: u32, b: u32| midpoint[&(a.min(b), a.max(b))];

    let mut tets = Vec::with_capacity(mesh.num_tets() * 8);
    for &[a, b, c, d] in mesh.tets() {
        let (mab, mac, mad) = (mid(a, b), mid(a, c), mid(a, d));
        let (mbc, mbd, mcd) = (mid(b, c), mid(b, d), mid(c, d));
        // four corner tets, similar to the parent
        tets.push([a, mab, mac, mad]);
        tets.push([mab, b, mbc, mbd]);
        tets.push([mac, mbc, c, mcd]);
        tets.push([mad, mbd, mcd, d]);
        // central octahedron (mab, mac, mad, mbc, mbd, mcd) split along the
        // mac–mbd diagonal into four tets
        tets.push([mab, mac, mad, mbd]);
        tets.push([mab, mac, mbd, mbc]);
        tets.push([mac, mad, mbd, mcd]);
        tets.push([mac, mbc, mbd, mcd]);
    }
    let mut out = TetMesh::new_unchecked(coords, tets);
    out.orient_positive();
    out
}

/// `levels` successive applications of [`refine_midpoint3`].
pub fn refine_levels3(mesh: &TetMesh, levels: usize) -> TetMesh {
    let mut out = mesh.clone();
    for _ in 0..levels {
        out = refine_midpoint3(&out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{perturbed_tet_grid, tet_grid};
    use crate::mesh::corner_tet;

    #[test]
    fn counts_transform_as_expected() {
        let m = corner_tet();
        let r = refine_midpoint3(&m);
        assert_eq!(r.num_tets(), 8);
        assert_eq!(r.num_vertices(), 4 + 6); // V + E
    }

    #[test]
    fn volume_is_preserved_exactly() {
        let m = perturbed_tet_grid(3, 3, 3, 0.3, 1);
        let r = refine_midpoint3(&m);
        assert!((r.total_volume() - m.total_volume()).abs() < 1e-12);
        assert!(r.is_positively_oriented());
    }

    #[test]
    fn refined_mesh_is_conforming() {
        // every internal face shared by exactly 2 tets ⇒ the boundary face
        // count quadruples per level (each surface triangle splits into 4)
        let m = tet_grid(2, 2, 2);
        let b0 = crate::boundary::Boundary3::detect(&m).num_boundary_faces();
        let r = refine_midpoint3(&m);
        let b1 = crate::boundary::Boundary3::detect(&r).num_boundary_faces();
        assert_eq!(b1, 4 * b0);
    }

    #[test]
    fn original_vertices_keep_ids_and_positions() {
        let m = perturbed_tet_grid(2, 2, 2, 0.25, 4);
        let r = refine_midpoint3(&m);
        for v in 0..m.num_vertices() {
            assert_eq!(r.coords()[v], m.coords()[v]);
        }
    }

    #[test]
    fn two_levels_scale_by_64() {
        let m = corner_tet();
        let r = refine_levels3(&m, 2);
        assert_eq!(r.num_tets(), 64);
        assert!((r.total_volume() - m.total_volume()).abs() < 1e-12);
    }

    #[test]
    fn zero_levels_is_identity() {
        let m = perturbed_tet_grid(2, 2, 2, 0.2, 2);
        assert_eq!(refine_levels3(&m, 0), m);
    }
}
