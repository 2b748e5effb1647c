//! The [`Partition`] type: a k-way vertex decomposition with the CSR
//! side structures domain-decomposed algorithms need.
//!
//! Terminology (per part `p`):
//!
//! * **owned** — the vertices assigned to `p` (the parts partition the
//!   vertex set);
//! * **interface** — owned vertices with at least one neighbour owned by
//!   a different part (the only vertices whose in-place update another
//!   part could observe);
//! * **interior** — owned vertices that are not interface: their whole
//!   1-ring is owned by `p`, so `p` can update them without seeing any
//!   other part's writes;
//! * **halo** — the ghost layer: vertices *not* owned by `p` that are
//!   adjacent to some vertex of `p`. Equivalently (and property-tested):
//!   exactly the out-of-part 1-ring of `p`'s interface.
//!
//! All per-part lists are stored CSR with vertices ascending within a
//! part, so a part's view is a handful of contiguous slices.
//!
//! The decomposition is **dimension-generic**: construction only needs a
//! vertex–vertex adjacency, abstracted behind [`lms_order::Graph`], so the
//! same [`Partition`] (and the [`crate::ExchangeSchedule`] built from it)
//! serves the 2D [`lms_mesh::Adjacency`] and the tetrahedral adjacency of
//! `lms-mesh3d` unchanged.

use lms_mesh::vec_bytes;
use lms_order::Graph;

/// A k-way vertex partition with interface/halo structures. Build with
/// [`Partition::from_assignment`] or the [`crate::partition_mesh`]
/// convenience.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    num_parts: u32,
    part_of: Vec<u32>,
    is_interface: Vec<bool>,
    edge_cut: usize,
    part_offsets: Vec<u32>,
    part_vertices: Vec<u32>,
    interior_offsets: Vec<u32>,
    interior_vertices: Vec<u32>,
    interface_offsets: Vec<u32>,
    interface_vertices: Vec<u32>,
    halo_offsets: Vec<u32>,
    halo_vertices: Vec<u32>,
}

/// Counting-sort `(bucket, value)` pairs that arrive grouped per vertex in
/// ascending vertex order into a CSR (values stay ascending per bucket).
fn csr_from<F: Fn(u32) -> u32>(
    n_buckets: u32,
    items: &[u32],
    bucket_of: F,
) -> (Vec<u32>, Vec<u32>) {
    let mut offsets = vec![0u32; n_buckets as usize + 1];
    for &v in items {
        offsets[bucket_of(v) as usize + 1] += 1;
    }
    for i in 0..n_buckets as usize {
        offsets[i + 1] += offsets[i];
    }
    let mut cursor = offsets.clone();
    let mut values = vec![0u32; items.len()];
    for &v in items {
        let c = &mut cursor[bucket_of(v) as usize];
        values[*c as usize] = v;
        *c += 1;
    }
    (offsets, values)
}

impl Partition {
    /// Build the full decomposition from a per-vertex part assignment,
    /// over any [`Graph`] adjacency (2D triangle meshes, tetrahedral
    /// meshes, arbitrary CSR graphs).
    ///
    /// `part_of[v]` is the owning part of vertex `v` and must be below
    /// `num_parts`; parts may be empty.
    pub fn from_assignment<G: Graph + ?Sized>(adj: &G, part_of: Vec<u32>, num_parts: u32) -> Self {
        let n = adj.num_vertices();
        assert_eq!(part_of.len(), n, "assignment length does not match the adjacency");
        assert!(num_parts >= 1, "need at least one part");
        assert!(
            part_of.iter().all(|&p| p < num_parts),
            "part id out of range (num_parts = {num_parts})"
        );

        // interface flags, edge cut and raw halo pairs in one sweep over
        // the CSR rows: a cross-part edge (v, w) makes v interface and w
        // a ghost of v's part
        let mut is_interface = vec![false; n];
        let mut edge_cut = 0usize;
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for v in 0..n as u32 {
            let pv = part_of[v as usize];
            for &w in adj.neighbors(v) {
                if part_of[w as usize] != pv {
                    is_interface[v as usize] = true;
                    pairs.push((pv, w));
                    if v < w {
                        edge_cut += 1;
                    }
                }
            }
        }

        let all: Vec<u32> = (0..n as u32).collect();
        let (part_offsets, part_vertices) = csr_from(num_parts, &all, |v| part_of[v as usize]);
        let interiors: Vec<u32> = (0..n as u32).filter(|&v| !is_interface[v as usize]).collect();
        let (interior_offsets, interior_vertices) =
            csr_from(num_parts, &interiors, |v| part_of[v as usize]);
        let interfaces: Vec<u32> = (0..n as u32).filter(|&v| is_interface[v as usize]).collect();
        let (interface_offsets, interface_vertices) =
            csr_from(num_parts, &interfaces, |v| part_of[v as usize]);

        // halo CSR from the deduplicated (part, ghost-vertex) pairs
        pairs.sort_unstable();
        pairs.dedup();
        let mut halo_offsets = vec![0u32; num_parts as usize + 1];
        for &(p, _) in &pairs {
            halo_offsets[p as usize + 1] += 1;
        }
        for i in 0..num_parts as usize {
            halo_offsets[i + 1] += halo_offsets[i];
        }
        let halo_vertices: Vec<u32> = pairs.into_iter().map(|(_, u)| u).collect();

        Partition {
            num_parts,
            part_of,
            is_interface,
            edge_cut,
            part_offsets,
            part_vertices,
            interior_offsets,
            interior_vertices,
            interface_offsets,
            interface_vertices,
            halo_offsets,
            halo_vertices,
        }
    }

    /// Number of parts (some may be empty).
    #[inline]
    pub fn num_parts(&self) -> u32 {
        self.num_parts
    }

    /// Number of vertices partitioned.
    #[inline]
    pub fn len(&self) -> usize {
        self.part_of.len()
    }

    /// True for the zero-vertex partition.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.part_of.is_empty()
    }

    /// Bytes the partition owns on the heap: the assignment, the interface
    /// flags and the four per-part CSR lists.
    pub fn heap_bytes(&self) -> usize {
        vec_bytes(&self.part_of)
            + vec_bytes(&self.is_interface)
            + [
                &self.part_offsets,
                &self.part_vertices,
                &self.interior_offsets,
                &self.interior_vertices,
                &self.interface_offsets,
                &self.interface_vertices,
                &self.halo_offsets,
                &self.halo_vertices,
            ]
            .into_iter()
            .map(vec_bytes)
            .sum::<usize>()
    }

    /// Owning part of vertex `v`.
    #[inline]
    pub fn part_of(&self, v: u32) -> u32 {
        self.part_of[v as usize]
    }

    /// The full per-vertex assignment (index = vertex).
    #[inline]
    pub fn assignment(&self) -> &[u32] {
        &self.part_of
    }

    /// True when `v` has a neighbour owned by a different part.
    #[inline]
    pub fn is_interface(&self, v: u32) -> bool {
        self.is_interface[v as usize]
    }

    /// Number of undirected edges whose endpoints lie in different parts.
    #[inline]
    pub fn edge_cut(&self) -> usize {
        self.edge_cut
    }

    #[inline]
    fn slice<'a>(offsets: &[u32], values: &'a [u32], p: u32) -> &'a [u32] {
        &values[offsets[p as usize] as usize..offsets[p as usize + 1] as usize]
    }

    /// Vertices owned by part `p`, ascending.
    #[inline]
    pub fn part(&self, p: u32) -> &[u32] {
        Self::slice(&self.part_offsets, &self.part_vertices, p)
    }

    /// Interior vertices of part `p` (whole 1-ring owned by `p`), ascending.
    #[inline]
    pub fn interior(&self, p: u32) -> &[u32] {
        Self::slice(&self.interior_offsets, &self.interior_vertices, p)
    }

    /// Interface vertices of part `p`, ascending.
    #[inline]
    pub fn interface(&self, p: u32) -> &[u32] {
        Self::slice(&self.interface_offsets, &self.interface_vertices, p)
    }

    /// Halo (ghost) vertices of part `p`: not owned by `p`, adjacent to it.
    /// Ascending.
    #[inline]
    pub fn halo(&self, p: u32) -> &[u32] {
        Self::slice(&self.halo_offsets, &self.halo_vertices, p)
    }

    /// Total halo entries summed over parts (a vertex bordering several
    /// parts is counted once per part it borders).
    #[inline]
    pub fn total_halo(&self) -> usize {
        self.halo_vertices.len()
    }

    /// Total interface vertices (each counted once).
    #[inline]
    pub fn total_interface(&self) -> usize {
        self.interface_vertices.len()
    }

    /// Total interior vertices (each counted once).
    #[inline]
    pub fn total_interior(&self) -> usize {
        self.interior_vertices.len()
    }

    /// Ghost-vertex map of part `p`: the local index of global vertex `v`
    /// in `p`'s contiguous storage convention — owned vertices first (in
    /// ascending global order), then the halo (ascending). `None` when `v`
    /// is neither owned by nor adjacent to `p`.
    pub fn local_of(&self, p: u32, v: u32) -> Option<usize> {
        let owned = self.part(p);
        if let Ok(i) = owned.binary_search(&v) {
            return Some(i);
        }
        self.halo(p).binary_search(&v).ok().map(|i| owned.len() + i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::{partition_mesh, PartitionMethod};
    use lms_mesh::{generators, Adjacency};

    fn setup(k: u32) -> (lms_mesh::TriMesh, Adjacency, Partition) {
        let m = generators::perturbed_grid(14, 12, 0.3, 5);
        let adj = Adjacency::build(&m);
        let p = partition_mesh(&m, &adj, k as usize, PartitionMethod::Rcb);
        (m, adj, p)
    }

    #[test]
    fn parts_partition_the_vertex_set() {
        let (m, _, p) = setup(5);
        let mut seen: Vec<u32> = (0..p.num_parts()).flat_map(|q| p.part(q).to_vec()).collect();
        assert_eq!(seen.len(), m.num_vertices());
        seen.sort_unstable();
        assert!(seen.iter().enumerate().all(|(i, &v)| v as usize == i));
        for q in 0..p.num_parts() {
            assert!(p.part(q).iter().all(|&v| p.part_of(v) == q));
            assert!(p.part(q).windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn interior_plus_interface_is_owned() {
        let (_, adj, p) = setup(4);
        for q in 0..p.num_parts() {
            let mut merged: Vec<u32> = p.interior(q).to_vec();
            merged.extend_from_slice(p.interface(q));
            merged.sort_unstable();
            assert_eq!(merged, p.part(q));
        }
        // interface flag ⟺ cross-part neighbour
        for v in 0..adj.num_vertices() as u32 {
            let crosses = adj.neighbors(v).iter().any(|&w| p.part_of(w) != p.part_of(v));
            assert_eq!(p.is_interface(v), crosses, "vertex {v}");
        }
    }

    #[test]
    fn halo_is_the_out_of_part_ring() {
        let (_, adj, p) = setup(4);
        for q in 0..p.num_parts() {
            let mut expect: Vec<u32> = p
                .part(q)
                .iter()
                .flat_map(|&v| adj.neighbors(v).iter().copied())
                .filter(|&u| p.part_of(u) != q)
                .collect();
            expect.sort_unstable();
            expect.dedup();
            assert_eq!(p.halo(q), &expect[..], "part {q}");
        }
    }

    #[test]
    fn edge_cut_counts_cross_edges_once() {
        let (m, _, p) = setup(3);
        let direct = m.edges().iter().filter(|&&(a, b)| p.part_of(a) != p.part_of(b)).count();
        assert_eq!(p.edge_cut(), direct);
    }

    #[test]
    fn local_of_covers_owned_then_halo() {
        let (_, adj, p) = setup(4);
        for q in 0..p.num_parts() {
            let owned = p.part(q);
            for (i, &v) in owned.iter().enumerate() {
                assert_eq!(p.local_of(q, v), Some(i));
            }
            for (i, &u) in p.halo(q).iter().enumerate() {
                assert_eq!(p.local_of(q, u), Some(owned.len() + i));
            }
            // a vertex neither owned nor adjacent resolves to None
            let foreign = (0..adj.num_vertices() as u32)
                .find(|&v| p.part_of(v) != q && p.halo(q).binary_search(&v).is_err());
            if let Some(v) = foreign {
                assert_eq!(p.local_of(q, v), None);
            }
        }
    }

    #[test]
    fn single_part_has_no_interface() {
        let (m, _, p) = setup(1);
        assert_eq!(p.edge_cut(), 0);
        assert_eq!(p.total_interface(), 0);
        assert_eq!(p.total_halo(), 0);
        assert_eq!(p.part(0).len(), m.num_vertices());
    }

    #[test]
    fn assignment_validation_panics_out_of_range() {
        let m = generators::perturbed_grid(5, 5, 0.2, 1);
        let adj = Adjacency::build(&m);
        let bad = vec![7u32; m.num_vertices()];
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Partition::from_assignment(&adj, bad, 4);
        }));
        assert!(r.is_err());
    }
}
