//! What ordering and partitioning read of a mesh, in either dimension.
//!
//! [`OrderMesh<D>`] is the one seam between a mesh type and everything
//! this crate and `lms-part` compute from it: [`compute_ordering`] and
//! [`compute_ordering_with`], [`Permutation::apply_to_mesh`],
//! [`layout_stats`] and `lms_part`'s `partition_coords` /
//! `partition_mesh` are each written once against it. `TriMesh`
//! implements it here (`D = 2`), `lms_mesh3d::TetMesh` in its own crate
//! (`D = 3`), and the graph orderings, RDR, RCB and the space-filling
//! curves run unchanged on either — the paper's §6 observation that the
//! ordering argument carries to tetrahedra.
//!
//! [`compute_ordering`]: crate::compute_ordering
//! [`compute_ordering_with`]: crate::compute_ordering_with
//! [`layout_stats`]: crate::layout_stats

use crate::graph::Graph;
use crate::hilbert::{hilbert_d, ORDER};
use crate::morton::morton_d;
use crate::permutation::Permutation;
use lms_mesh::geometry::signed_area;
use lms_mesh::quality::{vertex_qualities, QualityMetric};
use lms_mesh::{Adjacency, Point2, TriMesh};

/// A mesh of dimension `D`, as the orderings and partitioners see it.
pub trait OrderMesh<const D: usize>: Sized {
    /// The coordinate type, a `D`-component point.
    type Point: Copy + Into<[f64; D]>;
    /// The CSR vertex adjacency every graph ordering walks.
    type Adjacency: Graph;
    /// Bits per axis of the grid the space-filling curves quantise onto.
    const SFC_ORDER: u32;

    /// The coordinate array.
    fn coords(&self) -> &[Self::Point];

    /// Number of vertices.
    fn num_vertices(&self) -> usize {
        self.coords().len()
    }

    /// Build the vertex adjacency.
    fn build_adjacency(&self) -> Self::Adjacency;

    /// `true` for every vertex the smoother moves (RDR seeds only from
    /// these).
    fn interior_flags(&self, adj: &Self::Adjacency) -> Vec<bool>;

    /// Per-vertex edge-length-ratio quality (the paper's metric): what RDR
    /// and the quality sort rank by.
    fn edge_ratio_qualities(&self, adj: &Self::Adjacency) -> Vec<f64>;

    /// Per-vertex share of the element measure (area in 2D, volume in 3D):
    /// the weights `PartitionMethod::RcbWeighted` balances.
    fn measure_weights(&self, adj: &Self::Adjacency) -> Vec<f64>;

    /// Hilbert index of a grid cell, each component `< 2^SFC_ORDER`.
    fn hilbert_key(cell: [u32; D]) -> u64;

    /// Morton (Z-order) index of a grid cell, each component
    /// `< 2^SFC_ORDER`.
    fn morton_key(cell: [u32; D]) -> u64;

    /// This mesh renumbered by `perm`: `coords` are its points already in
    /// the new order, the elements go through
    /// [`Permutation::renumber_elements`].
    fn renumbered(&self, coords: Vec<Self::Point>, perm: &Permutation) -> Self;
}

impl OrderMesh<2> for TriMesh {
    type Point = Point2;
    type Adjacency = Adjacency;
    const SFC_ORDER: u32 = ORDER;

    fn coords(&self) -> &[Point2] {
        TriMesh::coords(self)
    }

    fn build_adjacency(&self) -> Adjacency {
        Adjacency::build(self)
    }

    fn interior_flags(&self, adj: &Adjacency) -> Vec<bool> {
        adj.boundary_flags().iter().map(|&b| !b).collect()
    }

    fn edge_ratio_qualities(&self, adj: &Adjacency) -> Vec<f64> {
        vertex_qualities(self, adj, QualityMetric::EdgeLengthRatio)
    }

    /// One third of the absolute area of every incident triangle (the
    /// barycentric lumping of the mesh area); a vertex with no triangle
    /// weighs zero.
    fn measure_weights(&self, adj: &Adjacency) -> Vec<f64> {
        let tri_area: Vec<f64> = (0..self.num_triangles())
            .map(|t| {
                let [a, b, c] = self.tri_coords(t);
                signed_area(a, b, c).abs() / 3.0
            })
            .collect();
        (0..adj.num_vertices() as u32)
            .map(|v| adj.triangles_of(v).iter().map(|&t| tri_area[t as usize]).sum())
            .collect()
    }

    fn hilbert_key([x, y]: [u32; 2]) -> u64 {
        hilbert_d(x, y)
    }

    fn morton_key([x, y]: [u32; 2]) -> u64 {
        morton_d(x, y)
    }

    fn renumbered(&self, coords: Vec<Point2>, perm: &Permutation) -> TriMesh {
        TriMesh::new_unchecked(coords, perm.renumber_elements(self.triangles()))
    }
}
