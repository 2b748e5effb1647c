//! Mesh inputs shared by the bit-identity suites.

use lms_mesh::geometry::signed_area;
use lms_mesh::{generators, Adjacency, Boundary, TriMesh};

/// A perturbed 9×9 grid with two interior vertices fanned out by repeated
/// centroid splits of their largest incident triangle: one with a star of
/// over 255 triangles, one with a star of 17..=254. So the sweeps meet
/// stars wider than any small fixed-size scratch, and wider than a `u8`
/// can count.
pub fn hub_mesh() -> TriMesh {
    let (mut coords, mut tris) = generators::perturbed_grid(9, 9, 0.3, 4).into_parts();
    for (hub, splits) in [(30u32, 300), (58, 20)] {
        for _ in 0..splits {
            let area = |t: usize| {
                let [a, b, c] = tris[t].map(|v| coords[v as usize]);
                signed_area(a, b, c).abs()
            };
            let t = (0..tris.len())
                .filter(|&t| tris[t].contains(&hub))
                .max_by(|&s, &t| area(s).total_cmp(&area(t)))
                .expect("the hub has a star");
            let [a, b, c] = tris[t];
            let p = coords.len() as u32;
            let [pa, pb, pc] = [a, b, c].map(|v| coords[v as usize]);
            coords.push((pa + pb + pc) / 3.0);
            tris[t] = [a, b, p];
            tris.extend([[b, c, p], [c, a, p]]);
        }
    }
    let mesh = TriMesh::new(coords, tris).expect("a centroid split keeps the mesh valid");
    let adj = Adjacency::build(&mesh);
    let boundary = Boundary::detect(&mesh);
    let interior_star = |lo: usize, hi: usize| {
        (0..mesh.num_vertices() as u32)
            .any(|v| boundary.is_interior(v) && (lo..=hi).contains(&adj.triangles_of(v).len()))
    };
    assert!(interior_star(256, usize::MAX), "no interior star past 255 triangles");
    assert!(interior_star(17, 254), "no interior star of 17..=254 triangles");
    mesh
}
