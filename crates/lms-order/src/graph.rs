//! Adjacency-structure abstraction and graph-generic ordering cores.
//!
//! The paper's orderings (BFS, DFS, RCM, RDR, …) only need a vertex set and
//! per-vertex neighbour lists — nothing triangle-specific. This module
//! factors the traversal cores over a small [`Graph`] trait so the same
//! algorithms order the 2D [`lms_mesh::Adjacency`] and the tetrahedral
//! adjacency of `lms-mesh3d` (paper §6: "we expect our new
//! reuse-distance-aware algorithm to outperform extensions of Laplacian mesh
//! smoothing as well").
//!
//! The `*_ordering_on` cores here are the only traversal and RDR bodies:
//! [`crate::compute_ordering_with`] runs them on any `OrderMesh`'s
//! adjacency, and [`crate::rdr::rdr_ordering_opts`] on a triangle mesh
//! ranked by another quality metric.
//!
//! The RDR walk is built for inputs whose numbering has no locality (the
//! paper's pipeline starts from one), where every step reads some random
//! vertex: all it reads per vertex is one state byte (quality bin and
//! three flags), the seed list is a cursor over those bytes rather than a
//! heap, and each appended vertex's adjacency row is read ahead of the
//! step that makes it the head. The output is the plain walk's, vertex
//! for vertex; a property test holds it to that reference.

use crate::permutation::Permutation;
use crate::rdr::quality_bin;
use std::collections::VecDeque;

/// An undirected graph with contiguous `u32` vertex ids and sorted,
/// deduplicated CSR neighbour slices.
///
/// Implementations must guarantee:
/// * `neighbors(v)` is sorted ascending with no duplicates and no self-loop;
/// * adjacency is symmetric (`w ∈ neighbors(v)` ⇔ `v ∈ neighbors(w)`).
pub trait Graph {
    /// Number of vertices; valid ids are `0..num_vertices() as u32`.
    fn num_vertices(&self) -> usize;

    /// Sorted neighbour list of `v`.
    fn neighbors(&self, v: u32) -> &[u32];

    /// Degree of `v`.
    #[inline]
    fn degree(&self, v: u32) -> usize {
        self.neighbors(v).len()
    }
}

impl Graph for lms_mesh::Adjacency {
    #[inline]
    fn num_vertices(&self) -> usize {
        lms_mesh::Adjacency::num_vertices(self)
    }

    #[inline]
    fn neighbors(&self, v: u32) -> &[u32] {
        lms_mesh::Adjacency::neighbors(self, v)
    }
}

/// A borrowed CSR graph view over raw offset/neighbour arrays.
///
/// Lets callers that already own CSR arrays (e.g. the tetrahedral adjacency
/// in `lms-mesh3d`, or a test fixture) run the ordering cores without
/// copying into an [`lms_mesh::Adjacency`].
#[derive(Debug, Clone, Copy)]
pub struct CsrGraph<'a> {
    offsets: &'a [u32],
    neighbors: &'a [u32],
}

impl<'a> CsrGraph<'a> {
    /// Wrap CSR arrays: `offsets.len() == n + 1`, neighbour ids of vertex
    /// `v` live in `neighbors[offsets[v]..offsets[v+1]]`.
    ///
    /// # Panics
    /// If the arrays are structurally inconsistent (empty offsets, final
    /// offset not matching the neighbour array length, or a decreasing
    /// offset pair).
    pub fn new(offsets: &'a [u32], neighbors: &'a [u32]) -> Self {
        assert!(!offsets.is_empty(), "offsets must have n+1 entries");
        assert_eq!(
            *offsets.last().unwrap() as usize,
            neighbors.len(),
            "final offset must equal the neighbour array length"
        );
        assert!(offsets.windows(2).all(|w| w[0] <= w[1]), "offsets must be non-decreasing");
        CsrGraph { offsets, neighbors }
    }
}

impl Graph for CsrGraph<'_> {
    #[inline]
    fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    #[inline]
    fn neighbors(&self, v: u32) -> &[u32] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.neighbors[lo..hi]
    }
}

/// Breadth-first-search ordering from `seed` on any [`Graph`]
/// (Strout & Hovland \[18\]). Restarts from the lowest-numbered unvisited
/// vertex, so disconnected graphs still yield a full permutation.
pub fn bfs_ordering_on<G: Graph>(graph: &G, seed: u32) -> Permutation {
    let n = graph.num_vertices();
    assert!((seed as usize) < n || n == 0, "seed out of range");
    let mut order = Vec::with_capacity(n);
    let mut visited = vec![false; n];
    let mut queue = VecDeque::new();
    let mut next_restart = 0u32;

    if n > 0 {
        queue.push_back(seed);
        visited[seed as usize] = true;
    }
    while order.len() < n {
        match queue.pop_front() {
            Some(v) => {
                order.push(v);
                for &w in graph.neighbors(v) {
                    if !visited[w as usize] {
                        visited[w as usize] = true;
                        queue.push_back(w);
                    }
                }
            }
            None => {
                while visited[next_restart as usize] {
                    next_restart += 1;
                }
                visited[next_restart as usize] = true;
                queue.push_back(next_restart);
            }
        }
    }
    Permutation::from_new_to_old_unchecked(order)
}

/// Reversed BFS on any [`Graph`] (Munson & Hovland \[19\]).
pub fn bfs_reversed_ordering_on<G: Graph>(graph: &G, seed: u32) -> Permutation {
    let mut order = bfs_ordering_on(graph, seed).into_new_to_old();
    order.reverse();
    Permutation::from_new_to_old_unchecked(order)
}

/// Pre-order depth-first-search ordering from `seed` on any [`Graph`].
pub fn dfs_ordering_on<G: Graph>(graph: &G, seed: u32) -> Permutation {
    let n = graph.num_vertices();
    assert!((seed as usize) < n || n == 0, "seed out of range");
    let mut order = Vec::with_capacity(n);
    let mut visited = vec![false; n];
    let mut stack = Vec::new();
    let mut next_restart = 0u32;

    if n > 0 {
        stack.push(seed);
    }
    while order.len() < n {
        match stack.pop() {
            Some(v) => {
                if visited[v as usize] {
                    continue;
                }
                visited[v as usize] = true;
                order.push(v);
                for &w in graph.neighbors(v).iter().rev() {
                    if !visited[w as usize] {
                        stack.push(w);
                    }
                }
            }
            None => {
                while visited[next_restart as usize] {
                    next_restart += 1;
                }
                stack.push(next_restart);
            }
        }
    }
    Permutation::from_new_to_old_unchecked(order)
}

/// Cuthill–McKee on any [`Graph`]: BFS from a minimum-degree vertex with
/// each frontier sorted by ascending degree.
pub fn cuthill_mckee_ordering_on<G: Graph>(graph: &G) -> Permutation {
    let n = graph.num_vertices();
    let mut order = Vec::with_capacity(n);
    let mut visited = vec![false; n];
    let mut queue = VecDeque::new();

    let start_of_component = |visited: &[bool]| {
        (0..n as u32).filter(|&v| !visited[v as usize]).min_by_key(|&v| (graph.degree(v), v))
    };

    while order.len() < n {
        if queue.is_empty() {
            let s = start_of_component(&visited).expect("unvisited vertex must exist");
            visited[s as usize] = true;
            queue.push_back(s);
        }
        while let Some(v) = queue.pop_front() {
            order.push(v);
            let mut frontier: Vec<u32> =
                graph.neighbors(v).iter().copied().filter(|&w| !visited[w as usize]).collect();
            frontier.sort_by_key(|&w| (graph.degree(w), w));
            for w in frontier {
                visited[w as usize] = true;
                queue.push_back(w);
            }
        }
    }
    Permutation::from_new_to_old_unchecked(order)
}

/// Reverse Cuthill–McKee on any [`Graph`].
pub fn rcm_ordering_on<G: Graph>(graph: &G) -> Permutation {
    let mut order = cuthill_mckee_ordering_on(graph).into_new_to_old();
    order.reverse();
    Permutation::from_new_to_old_unchecked(order)
}

/// Algorithm 2 (RDR) on any [`Graph`].
///
/// `interior[v]` marks the vertices the smoother moves (only those start a
/// chain, exactly as in the pseudocode); `quality[v]` is the initial
/// per-vertex quality. Boundary vertices are ordered when reached as
/// neighbours; never-reached vertices are appended in index order so the
/// result is always a complete permutation.
///
/// A chain starts at a vertex `i`, appends `i`'s unordered neighbours by
/// increasing quality, moves to the worst unprocessed neighbour and repeats
/// until every neighbour of the head is processed. The pseudocode then
/// restarts from the next vertex of the *global* quality-sorted list — a
/// spot unrelated to anything laid out so far, so the layout is a pile of
/// short chains scattered over the mesh. Here the next chain starts at the
/// **earliest ordered interior vertex not yet processed** (the frontier of
/// what is already laid out; a cursor over the output that only moves
/// forward, O(n) in total), and the global list is consulted only when that
/// frontier is empty: for the first chain, which still starts at the worst
/// vertex, and once per region the frontier cannot reach.
///
/// Every worst-first comparison ranks by
/// [`RdrOptions::key`](crate::rdr::RdrOptions::key): quality bin, then
/// vertex index.
pub fn rdr_ordering_on<G: Graph>(graph: &G, interior: &[bool], quality: &[f64]) -> Permutation {
    let n = graph.num_vertices();
    assert_eq!(quality.len(), n, "need one quality value per vertex");
    assert_eq!(interior.len(), n, "need one interior flag per vertex");
    Permutation::from_new_to_old_unchecked(rdr_walk_in_range(graph, interior, quality, 0, n as u32))
}

/// The walk's per-vertex state byte (see [`rdr_walk_in_range`]): the
/// quality bin in bits 0–2, then three flags.
const BIN: u8 = 0b111;
const INTERIOR: u8 = 1 << 3;
const PROCESSED: u8 = 1 << 4;
const SORTED: u8 = 1 << 5;

/// The walk of [`rdr_ordering_on`] restricted to the index range `lo..hi`:
/// follows only edges with both endpoints in the range and orders every
/// range vertex exactly once (Theorem 1, range-relative). The serial
/// ordering is the whole range; [`crate::par_rdr`] runs one walk per chunk.
///
/// Everything the walk reads per vertex lives in one byte per range
/// vertex: the quality bin (bits 0–2) and the `interior`, `processed` and
/// `sorted` flags. On a numbering with no locality each step reads a
/// random vertex's state, and at 768² the bytes (0.6 MB) fit a 2 MiB L2;
/// the `f64` qualities alone would take 4.7 MB. Ranking a worklist is a
/// plain sort of `(bin << 32) | v` keys read from those bytes — the order
/// of [`RdrOptions::key`](crate::rdr::RdrOptions::key).
pub(crate) fn rdr_walk_in_range<G: Graph>(
    graph: &G,
    interior: &[bool],
    quality: &[f64],
    lo: u32,
    hi: u32,
) -> Vec<u32> {
    let len = (hi - lo) as usize;
    // Range-relative index; one past the range or below it (wrapping) is
    // `>= len`, so `state.get(rel(w))` doubles as the range test.
    let rel = |v: u32| v.wrapping_sub(lo) as usize;
    let mut state: Vec<u8> = (lo as usize..hi as usize)
        .map(|v| quality_bin(quality[v]) | if interior[v] { INTERIOR } else { 0 })
        .collect();
    let mut vnew: Vec<u32> = Vec::with_capacity(len);

    // Interior vertices not yet processed; each is processed exactly once.
    let mut unprocessed_interior = state.iter().filter(|&&s| s & INTERIOR != 0).count();
    // Every interior vertex of `vnew[..frontier]` is processed.
    let mut frontier = 0usize;
    // Seed cursor over interior vertices by increasing (bin, index) — line
    // 6's sorted list, never materialised. The processed set only grows,
    // so the smallest unprocessed key never decreases and the cursor only
    // moves forward: at most one pass over the range per bin.
    let (mut seed_bin, mut seed_at) = (0u8, 0usize);
    // Reused scratch buffer for the neighbour worklist `l`, as sort keys.
    let mut l: Vec<u64> = Vec::new();

    while unprocessed_interior > 0 {
        while frontier < vnew.len()
            && state[rel(vnew[frontier])] & (INTERIOR | PROCESSED) != INTERIOR
        {
            frontier += 1;
        }
        let mut head = match vnew.get(frontier) {
            Some(&i) => i,
            // An ordered interior vertex still unprocessed would be on the
            // frontier, so the worst unprocessed seed is unordered too.
            None => {
                loop {
                    if seed_at == len {
                        seed_bin += 1;
                        seed_at = 0;
                    }
                    let s = state[seed_at];
                    if s & (INTERIOR | PROCESSED) == INTERIOR && s & BIN == seed_bin {
                        break;
                    }
                    seed_at += 1;
                }
                debug_assert!(state[seed_at] & SORTED == 0);
                state[seed_at] |= SORTED;
                let i = lo + seed_at as u32;
                vnew.push(i);
                i
            }
        };
        loop {
            let s = &mut state[rel(head)];
            *s |= PROCESSED;
            unprocessed_interior -= usize::from(*s & INTERIOR != 0);
            // l ← unprocessed neighbours of the head by increasing quality
            l.clear();
            for &w in graph.neighbors(head) {
                if let Some(&s) = state.get(rel(w)) {
                    if s & PROCESSED == 0 {
                        l.push(u64::from(s & BIN) << 32 | u64::from(w));
                    }
                }
            }
            if l.is_empty() {
                break;
            }
            l.sort_unstable();
            for &key in &l {
                let j = key as u32;
                let s = &mut state[rel(j)];
                if *s & SORTED == 0 {
                    *s |= SORTED;
                    vnew.push(j);
                    // Read j's row ahead: j is a head soon. The row
                    // lookup's bounds checks load its offsets now, so
                    // they are in cache when the walk gets there.
                    let _ = graph.neighbors(j);
                }
            }
            head = l[0] as u32;
        }
    }

    // Vertices never reached (boundary patches with no interior
    // neighbour): append in index order.
    vnew.extend((lo..hi).filter(|&v| state[rel(v)] & SORTED == 0));
    vnew
}

#[cfg(test)]
mod tests {
    use super::*;
    use lms_mesh::{figure5_mesh, Adjacency};

    /// A triangulated path graph 0–1–2–3–4 as raw CSR arrays.
    fn path_csr() -> (Vec<u32>, Vec<u32>) {
        let offsets = vec![0, 1, 3, 5, 7, 8];
        let neighbors = vec![1, 0, 2, 1, 3, 2, 4, 3];
        (offsets, neighbors)
    }

    #[test]
    fn csr_graph_wraps_raw_arrays() {
        let (offsets, neighbors) = path_csr();
        let g = CsrGraph::new(&offsets, &neighbors);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(2), &[1, 3]);
        assert_eq!(g.degree(4), 1);
    }

    #[test]
    #[should_panic(expected = "final offset")]
    fn csr_graph_rejects_inconsistent_arrays() {
        let offsets = vec![0, 2];
        let neighbors = vec![1];
        let _ = CsrGraph::new(&offsets, &neighbors);
    }

    #[test]
    fn bfs_on_path_is_sequential() {
        let (offsets, neighbors) = path_csr();
        let g = CsrGraph::new(&offsets, &neighbors);
        let p = bfs_ordering_on(&g, 0);
        assert_eq!(p.new_to_old(), &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn dfs_on_path_is_sequential() {
        let (offsets, neighbors) = path_csr();
        let g = CsrGraph::new(&offsets, &neighbors);
        let p = dfs_ordering_on(&g, 0);
        assert_eq!(p.new_to_old(), &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn rcm_on_path_starts_from_an_endpoint() {
        let (offsets, neighbors) = path_csr();
        let g = CsrGraph::new(&offsets, &neighbors);
        let p = rcm_ordering_on(&g);
        // CM starts from a degree-1 endpoint (vertex 0), RCM reverses it.
        assert_eq!(p.new_to_old(), &[4, 3, 2, 1, 0]);
    }

    #[test]
    fn rdr_core_on_csr_view_matches_mesh_rdr() {
        let m = figure5_mesh();
        let adj = Adjacency::build(&m);
        let boundary = lms_mesh::Boundary::detect(&m);
        let quality = lms_mesh::quality::vertex_qualities(
            &m,
            &adj,
            lms_mesh::quality::QualityMetric::EdgeLengthRatio,
        );
        let interior: Vec<bool> =
            (0..m.num_vertices() as u32).map(|v| boundary.is_interior(v)).collect();
        let generic = rdr_ordering_on(&adj, &interior, &quality);
        assert_eq!(generic, crate::rdr::rdr_ordering(&m));
    }

    #[test]
    fn rdr_core_handles_all_boundary_graph() {
        let (offsets, neighbors) = path_csr();
        let g = CsrGraph::new(&offsets, &neighbors);
        let interior = vec![false; 5];
        let quality = vec![0.5; 5];
        let p = rdr_ordering_on(&g, &interior, &quality);
        assert!(p.is_identity());
    }

    #[test]
    fn empty_graph_ok_everywhere() {
        let offsets = vec![0u32];
        let neighbors: Vec<u32> = Vec::new();
        let g = CsrGraph::new(&offsets, &neighbors);
        assert!(bfs_ordering_on(&g, 0).is_empty());
        assert!(dfs_ordering_on(&g, 0).is_empty());
        assert!(rcm_ordering_on(&g).is_empty());
        assert!(rdr_ordering_on(&g, &[], &[]).is_empty());
    }
}
