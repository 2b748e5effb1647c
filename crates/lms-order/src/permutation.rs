//! Vertex permutations.
//!
//! A reordering is stored as a *new-to-old* map: `perm[new] = old` means the
//! vertex stored at position `new` of the reordered mesh is the vertex that
//! was at position `old` originally (this is exactly Algorithm 2's
//! `Vnew[next_num] ← V[i]`).

use crate::mesh::OrderMesh;
use std::fmt;

/// Errors raised when constructing a [`Permutation`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PermutationError {
    /// An index appears twice (or some index is missing).
    NotABijection { first_dup: u32 },
    /// An index is out of range.
    OutOfRange { index: u32, len: usize },
    /// The permutation length does not match the object it is applied to.
    LengthMismatch { perm: usize, object: usize },
}

impl fmt::Display for PermutationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PermutationError::NotABijection { first_dup } => {
                write!(f, "index {first_dup} appears more than once")
            }
            PermutationError::OutOfRange { index, len } => {
                write!(f, "index {index} out of range for length {len}")
            }
            PermutationError::LengthMismatch { perm, object } => {
                write!(f, "permutation of length {perm} applied to object of length {object}")
            }
        }
    }
}

impl std::error::Error for PermutationError {}

/// A bijective vertex renumbering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Permutation {
    new_to_old: Vec<u32>,
}

impl Permutation {
    /// The identity permutation on `n` vertices.
    pub fn identity(n: usize) -> Self {
        Permutation { new_to_old: (0..n as u32).collect() }
    }

    /// Build from a new-to-old map, validating bijectivity.
    pub fn from_new_to_old(new_to_old: Vec<u32>) -> Result<Self, PermutationError> {
        let n = new_to_old.len();
        let mut seen = vec![false; n];
        for &old in &new_to_old {
            if old as usize >= n {
                return Err(PermutationError::OutOfRange { index: old, len: n });
            }
            if seen[old as usize] {
                return Err(PermutationError::NotABijection { first_dup: old });
            }
            seen[old as usize] = true;
        }
        Ok(Permutation { new_to_old })
    }

    /// Build from a new-to-old map without validation.
    ///
    /// Callers must guarantee the map is a bijection on `0..len`.
    pub fn from_new_to_old_unchecked(new_to_old: Vec<u32>) -> Self {
        debug_assert!(Permutation::from_new_to_old(new_to_old.clone()).is_ok());
        Permutation { new_to_old }
    }

    /// Number of vertices the permutation acts on.
    #[inline]
    pub fn len(&self) -> usize {
        self.new_to_old.len()
    }

    /// True for the zero-length permutation.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.new_to_old.is_empty()
    }

    /// The new-to-old map (`result[new] = old`).
    #[inline]
    pub fn new_to_old(&self) -> &[u32] {
        &self.new_to_old
    }

    /// Consume the permutation, returning the new-to-old map.
    #[inline]
    pub fn into_new_to_old(self) -> Vec<u32> {
        self.new_to_old
    }

    /// The old-to-new map (`result[old] = new`).
    pub fn old_to_new(&self) -> Vec<u32> {
        let mut out = vec![0u32; self.len()];
        for (new, &old) in self.new_to_old.iter().enumerate() {
            out[old as usize] = new as u32;
        }
        out
    }

    /// The inverse permutation.
    pub fn inverse(&self) -> Permutation {
        Permutation { new_to_old: self.old_to_new() }
    }

    /// `self ∘ other`: apply `other` first, then `self`.
    ///
    /// Position `new` of the result holds the vertex that
    /// `other.new_to_old[self.new_to_old[new]]` held originally.
    pub fn compose(&self, other: &Permutation) -> Result<Permutation, PermutationError> {
        if self.len() != other.len() {
            return Err(PermutationError::LengthMismatch { perm: self.len(), object: other.len() });
        }
        let new_to_old =
            self.new_to_old.iter().map(|&mid| other.new_to_old[mid as usize]).collect();
        Ok(Permutation { new_to_old })
    }

    /// True when this is the identity.
    pub fn is_identity(&self) -> bool {
        self.new_to_old.iter().enumerate().all(|(new, &old)| new as u32 == old)
    }

    /// Reorder a value-per-vertex array: `result[new] = values[old]`.
    pub fn apply_to_values<T: Copy>(&self, values: &[T]) -> Result<Vec<T>, PermutationError> {
        if values.len() != self.len() {
            return Err(PermutationError::LengthMismatch {
                perm: self.len(),
                object: values.len(),
            });
        }
        Ok(self.new_to_old.iter().map(|&old| values[old as usize]).collect())
    }

    /// Renumber a mesh of either dimension: permutes the coordinate
    /// array, rewrites every element's indices and moves the elements into
    /// first-touch order (see [`Permutation::renumber_elements`]). Geometry
    /// and connectivity are unchanged — only the storage order of vertices
    /// *and* elements moves, so everything the sweep indexes by element
    /// (incidence lists, quality caches, block score tables) follows the new
    /// vertex order too.
    pub fn apply_to_mesh<const D: usize, M: OrderMesh<D>>(&self, mesh: &M) -> M {
        assert_eq!(
            self.len(),
            mesh.num_vertices(),
            "permutation length must match mesh vertex count"
        );
        let coords = self.new_to_old.iter().map(|&old| mesh.coords()[old as usize]).collect();
        mesh.renumbered(coords, self)
    }

    /// Rewrite the vertex ids of `K`-corner elements (triangles, tets) and
    /// return the elements in **first-touch order**: ascending smallest new
    /// vertex id, i.e. the order in which a sweep over the renumbered
    /// vertices first meets them. Corner order within an element is kept.
    ///
    /// A stable counting sort, O(elements + vertices): elements that tie
    /// keep their input order, so a list already in first-touch order is a
    /// fixed point of the identity permutation. Each element is renumbered
    /// twice — once for its key, once as it is written straight into its
    /// slot — so the output is the only element-sized buffer.
    pub fn renumber_elements<const K: usize>(&self, elements: &[[u32; K]]) -> Vec<[u32; K]> {
        let old_to_new = self.old_to_new();
        let renumber = |e: &[u32; K]| e.map(|v| old_to_new[v as usize]);
        let first_touch = |e: &[u32; K]| e.iter().copied().min().unwrap_or(0) as usize;
        // cursor[v] = where the next element first touched by v goes
        let mut cursor = vec![0u32; self.len() + 1];
        for e in elements {
            cursor[first_touch(&renumber(e)) + 1] += 1;
        }
        for v in 0..self.len() {
            cursor[v + 1] += cursor[v];
        }
        let mut out = vec![[0u32; K]; elements.len()];
        for e in elements {
            let e = renumber(e);
            let c = &mut cursor[first_touch(&e)];
            out[*c as usize] = e;
            *c += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lms_mesh::{figure5_mesh, TriMesh};
    use proptest::prelude::*;

    /// The two-buffer body `renumber_elements` had before it wrote each
    /// element straight into its slot: renumber everything, then
    /// counting-sort the renumbered copy into a second buffer.
    fn renumber_elements_two_pass<const K: usize>(
        p: &Permutation,
        elements: &[[u32; K]],
    ) -> Vec<[u32; K]> {
        let old_to_new = p.old_to_new();
        let renumbered: Vec<[u32; K]> =
            elements.iter().map(|e| e.map(|v| old_to_new[v as usize])).collect();
        let first_touch = |e: &[u32; K]| e.iter().copied().min().unwrap_or(0) as usize;
        let mut cursor = vec![0u32; p.len() + 1];
        for e in &renumbered {
            cursor[first_touch(e) + 1] += 1;
        }
        for v in 0..p.len() {
            cursor[v + 1] += cursor[v];
        }
        let mut out = vec![[0u32; K]; renumbered.len()];
        for e in &renumbered {
            let c = &mut cursor[first_touch(e)];
            out[*c as usize] = *e;
            *c += 1;
        }
        out
    }

    /// A permutation of `0..keys.len()`: the indices sorted by `keys`.
    fn permutation_from_keys(keys: &[u64]) -> Permutation {
        let mut order: Vec<u32> = (0..keys.len() as u32).collect();
        order.sort_by_key(|&i| keys[i as usize]);
        Permutation::from_new_to_old(order).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Element soups (repeated, overlapping and corner-sharing
        /// elements, unreferenced vertices) under random permutations: the
        /// one-buffer body equals the two-pass oracle for triangles and tets.
        #[test]
        fn one_buffer_renumbering_equals_the_two_pass_oracle(
            keys in proptest::collection::vec(any::<u64>(), 1..40),
            picks in proptest::collection::vec(
                (0usize..1000, 0usize..1000, 0usize..1000, 0usize..1000),
                0..120,
            ),
        ) {
            let p = permutation_from_keys(&keys);
            let n = p.len();
            let tris: Vec<[u32; 3]> =
                picks.iter().map(|&(a, b, c, _)| [a, b, c].map(|v| (v % n) as u32)).collect();
            let tets: Vec<[u32; 4]> =
                picks.iter().map(|&(a, b, c, d)| [a, b, c, d].map(|v| (v % n) as u32)).collect();
            prop_assert_eq!(p.renumber_elements(&tris), renumber_elements_two_pass(&p, &tris));
            prop_assert_eq!(p.renumber_elements(&tets), renumber_elements_two_pass(&p, &tets));
        }
    }

    #[test]
    fn identity_is_identity() {
        let p = Permutation::identity(5);
        assert!(p.is_identity());
        assert_eq!(p.len(), 5);
        assert_eq!(p.apply_to_values(&[10, 20, 30, 40, 50]).unwrap(), vec![10, 20, 30, 40, 50]);
    }

    #[test]
    fn validation_catches_duplicates_and_range() {
        assert_eq!(
            Permutation::from_new_to_old(vec![0, 1, 1]).unwrap_err(),
            PermutationError::NotABijection { first_dup: 1 }
        );
        assert_eq!(
            Permutation::from_new_to_old(vec![0, 3]).unwrap_err(),
            PermutationError::OutOfRange { index: 3, len: 2 }
        );
    }

    #[test]
    fn inverse_roundtrips() {
        let p = Permutation::from_new_to_old(vec![2, 0, 3, 1]).unwrap();
        let inv = p.inverse();
        assert!(p.compose(&inv).unwrap().is_identity());
        assert!(inv.compose(&p).unwrap().is_identity());
    }

    #[test]
    fn apply_to_values_permutes() {
        // new position 0 holds old vertex 2, etc.
        let p = Permutation::from_new_to_old(vec![2, 0, 1]).unwrap();
        assert_eq!(p.apply_to_values(&['a', 'b', 'c']).unwrap(), vec!['c', 'a', 'b']);
        assert!(p.apply_to_values(&[1]).is_err());
    }

    #[test]
    fn compose_applies_right_then_left() {
        let first = Permutation::from_new_to_old(vec![1, 2, 0]).unwrap();
        let second = Permutation::from_new_to_old(vec![2, 1, 0]).unwrap();
        let both = second.compose(&first).unwrap();
        let vals = ['a', 'b', 'c'];
        let step1 = first.apply_to_values(&vals).unwrap();
        let step2 = second.apply_to_values(&step1).unwrap();
        assert_eq!(both.apply_to_values(&vals).unwrap(), step2);
    }

    #[test]
    fn mesh_application_preserves_geometry() {
        let m = figure5_mesh();
        let n = m.num_vertices();
        // reverse the vertices
        let p = Permutation::from_new_to_old((0..n as u32).rev().collect()).unwrap();
        let rm = p.apply_to_mesh(&m);
        assert_eq!(rm.num_vertices(), n);
        assert_eq!(rm.num_triangles(), m.num_triangles());
        // same geometry: total area and edge multiset survive
        assert!((rm.total_area() - m.total_area()).abs() < 1e-12);
        assert_eq!(rm.edges().len(), m.edges().len());
        // vertex 0 of the new mesh is vertex n-1 of the old one
        assert_eq!(rm.coords()[0], m.coords()[n - 1]);
    }

    /// The triangles as a multiset (element order is the layout's to choose).
    fn triangle_multiset(m: &TriMesh) -> Vec<[u32; 3]> {
        let mut tris = m.triangles().to_vec();
        tris.sort_unstable();
        tris
    }

    #[test]
    fn mesh_application_by_identity_is_noop() {
        let m = figure5_mesh();
        let p = Permutation::identity(m.num_vertices());
        let once = p.apply_to_mesh(&m);
        assert_eq!(once.coords(), m.coords());
        assert_eq!(triangle_multiset(&once), triangle_multiset(&m));
        // first-touch element order is a fixed point
        assert_eq!(p.apply_to_mesh(&once), once);
    }

    #[test]
    fn double_application_of_inverse_restores_mesh() {
        let m = figure5_mesh();
        let p =
            Permutation::from_new_to_old(vec![4, 7, 2, 0, 1, 3, 5, 6, 8, 9, 10, 11, 12]).unwrap();
        let rm = p.apply_to_mesh(&m);
        let back = p.inverse().apply_to_mesh(&rm);
        assert_eq!(back.coords(), m.coords());
        assert_eq!(triangle_multiset(&back), triangle_multiset(&m));
        // and it is the layout the identity gives `m`
        assert_eq!(back, Permutation::identity(m.num_vertices()).apply_to_mesh(&m));
    }

    #[test]
    fn elements_come_out_in_first_touch_order_with_corners_kept() {
        // new ids: old 3 → 0, old 2 → 1, old 1 → 2, old 0 → 3
        let p = Permutation::from_new_to_old(vec![3, 2, 1, 0]).unwrap();
        let out = p.renumber_elements(&[[0, 1, 2], [1, 2, 3], [0, 1, 3], [3, 2, 1]]);
        // keys (smallest new id): 1, 0, 0, 0 — ties keep input order
        assert_eq!(out, vec![[2, 1, 0], [3, 2, 0], [0, 1, 2], [3, 2, 1]]);
        let tets = p.renumber_elements(&[[0, 1, 2, 3]]);
        assert_eq!(tets, vec![[3, 2, 1, 0]]);
        assert!(p.renumber_elements::<3>(&[]).is_empty());
    }
}
