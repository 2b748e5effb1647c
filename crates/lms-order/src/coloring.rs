//! Greedy graph coloring — the scheduling substrate for deterministic
//! parallel Gauss–Seidel smoothing.
//!
//! An in-place Laplacian sweep updates each vertex from its neighbours'
//! *current* positions. Run naively in parallel that races (the paper's
//! chaotic OpenMP loop); run double-buffered it loses the Gauss–Seidel
//! convergence rate. The classical third way is **coloring**: partition
//! the vertices so no two adjacent vertices share a color, then sweep one
//! color class at a time with the class's vertices updated in parallel —
//! within a class there are no neighbour pairs, so in-place semantics are
//! race-free *and* independent of the execution order, making the sweep
//! bitwise-deterministic for any thread count. `lms-smooth`'s resident
//! engine steps its part-interface vertices through these classes, with
//! one halo exchange between classes.
//!
//! The greedy first-fit coloring here is deterministic (vertices in index
//! order, smallest available color) and uses at most `max_degree + 1`
//! colors — on triangulations typically 4–6 classes, plenty of
//! parallelism per class.

use crate::graph::Graph;

/// A proper vertex coloring with its color classes materialised as CSR
/// slices (class vertices in ascending vertex order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Coloring {
    color: Vec<u32>,
    num_colors: u32,
    class_offsets: Vec<u32>,
    class_vertices: Vec<u32>,
}

impl Coloring {
    /// Number of vertices colored.
    #[inline]
    pub fn len(&self) -> usize {
        self.color.len()
    }

    /// True when no vertices were colored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.color.is_empty()
    }

    /// Number of colors used.
    #[inline]
    pub fn num_colors(&self) -> u32 {
        self.num_colors
    }

    /// Color of vertex `v`.
    #[inline]
    pub fn color_of(&self, v: u32) -> u32 {
        self.color[v as usize]
    }

    /// Per-vertex color array.
    #[inline]
    pub fn colors(&self) -> &[u32] {
        &self.color
    }

    /// The vertices of color class `c`, ascending.
    #[inline]
    pub fn class(&self, c: u32) -> &[u32] {
        let lo = self.class_offsets[c as usize] as usize;
        let hi = self.class_offsets[c as usize + 1] as usize;
        &self.class_vertices[lo..hi]
    }

    /// Iterate the color classes in color order.
    pub fn classes(&self) -> impl Iterator<Item = &[u32]> {
        (0..self.num_colors).map(move |c| self.class(c))
    }

    /// Verify properness: no edge joins two vertices of the same color.
    pub fn is_proper<G: Graph>(&self, graph: &G) -> bool {
        (0..graph.num_vertices() as u32).all(|v| {
            graph.neighbors(v).iter().all(|&w| self.color[v as usize] != self.color[w as usize])
        })
    }
}

/// First-fit greedy coloring of `graph` in ascending vertex order.
///
/// Deterministic, proper by construction, and bounded by
/// `max_degree + 1` colors.
pub fn greedy_coloring_on<G: Graph>(graph: &G) -> Coloring {
    let n = graph.num_vertices();
    let mut color = vec![u32::MAX; n];
    // forbidden[c] == v marks color c as used by a neighbour of v
    let mut forbidden: Vec<u32> = Vec::new();
    let mut num_colors = 0u32;

    for v in 0..n as u32 {
        for &w in graph.neighbors(v) {
            let cw = color[w as usize];
            if cw != u32::MAX {
                if cw as usize >= forbidden.len() {
                    forbidden.resize(cw as usize + 1, u32::MAX);
                }
                forbidden[cw as usize] = v;
            }
        }
        let c = (0..).find(|&c| forbidden.get(c).copied().unwrap_or(u32::MAX) != v).unwrap();
        color[v as usize] = c as u32;
        num_colors = num_colors.max(c as u32 + 1);
    }

    // counting sort into class CSR (vertices ascending within a class)
    let mut class_offsets = vec![0u32; num_colors as usize + 1];
    for &c in &color {
        class_offsets[c as usize + 1] += 1;
    }
    for i in 0..num_colors as usize {
        class_offsets[i + 1] += class_offsets[i];
    }
    let mut cursor = class_offsets.clone();
    let mut class_vertices = vec![0u32; n];
    for (v, &c) in color.iter().enumerate() {
        let slot = &mut cursor[c as usize];
        class_vertices[*slot as usize] = v as u32;
        *slot += 1;
    }

    Coloring { color, num_colors, class_offsets, class_vertices }
}

/// [`greedy_coloring_on`] of a mesh adjacency.
pub fn greedy_coloring(adj: &lms_mesh::Adjacency) -> Coloring {
    greedy_coloring_on(adj)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lms_mesh::{generators, Adjacency};

    fn color_grid(nx: usize, ny: usize, seed: u64) -> (Adjacency, Coloring) {
        let m = generators::perturbed_grid(nx, ny, 0.3, seed);
        let adj = Adjacency::build(&m);
        let coloring = greedy_coloring(&adj);
        (adj, coloring)
    }

    #[test]
    fn grid_coloring_is_proper_and_small() {
        let (adj, coloring) = color_grid(20, 17, 3);
        assert!(coloring.is_proper(&adj));
        assert!(coloring.num_colors() <= adj.max_degree() as u32 + 1);
        // a triangulated grid needs at least 3 colors (it contains triangles)
        assert!(coloring.num_colors() >= 3);
    }

    #[test]
    fn classes_partition_the_vertex_set() {
        let (_, coloring) = color_grid(13, 11, 7);
        let mut seen: Vec<u32> = coloring.classes().flatten().copied().collect();
        assert_eq!(seen.len(), coloring.len());
        seen.sort_unstable();
        assert!(seen.iter().enumerate().all(|(i, &v)| v as usize == i));
        // classes are ascending internally
        for class in coloring.classes() {
            assert!(class.windows(2).all(|w| w[0] < w[1]));
        }
        // class membership matches color_of
        for (c, class) in coloring.classes().enumerate() {
            assert!(class.iter().all(|&v| coloring.color_of(v) == c as u32));
        }
    }

    #[test]
    fn coloring_is_deterministic() {
        let (_, a) = color_grid(15, 15, 1);
        let (_, b) = color_grid(15, 15, 1);
        assert_eq!(a, b);
    }

    #[test]
    fn single_triangle_uses_three_colors() {
        let m = lms_mesh::TriMesh::new(
            vec![
                lms_mesh::Point2::new(0.0, 0.0),
                lms_mesh::Point2::new(1.0, 0.0),
                lms_mesh::Point2::new(0.0, 1.0),
            ],
            vec![[0, 1, 2]],
        )
        .unwrap();
        let adj = Adjacency::build(&m);
        let coloring = greedy_coloring(&adj);
        assert_eq!(coloring.num_colors(), 3);
        assert!(coloring.is_proper(&adj));
    }

    #[test]
    fn empty_graph_colors_trivially() {
        let offsets = [0u32];
        let neighbors: [u32; 0] = [];
        let g = crate::graph::CsrGraph::new(&offsets, &neighbors);
        let coloring = greedy_coloring_on(&g);
        assert_eq!(coloring.len(), 0);
        assert_eq!(coloring.num_colors(), 0);
        assert!(coloring.is_empty());
    }
}
