//! Sloan profile-reduction ordering.
//!
//! Sloan's algorithm (S. W. Sloan, *An algorithm for profile and wavefront
//! reduction of sparse matrices*, IJNME 1986) is the classic improvement
//! over (reverse) Cuthill–McKee: instead of strict BFS levels it numbers
//! vertices by a priority that mixes *distance to a pseudo-peripheral end
//! vertex* (global direction) with *current degree* (local wavefront
//! growth). It is a standard member of the reordering-baseline zoo the
//! paper's related work draws from (Strout & Hovland \[18\] compare families
//! of such graph orderings), and a natural "strong graph baseline" to pit
//! against RDR: Sloan optimises matrix profile, RDR optimises the
//! smoother's reuse distance.
//!
//! The implementation is the textbook two-stage version with Sloan's
//! default weights `W1 = 1` (distance) and `W2 = 2` (degree), a lazy
//! max-heap for the priority queue, and a Gibbs–Poole–Stockmeyer-style
//! pseudo-peripheral pair finder. Disconnected meshes are handled
//! per component.

use crate::graph::Graph;
use crate::permutation::Permutation;
use std::collections::BinaryHeap;
use std::collections::VecDeque;

/// Distance weight of the Sloan priority (Sloan's default).
const W1: i64 = 1;
/// Degree weight of the Sloan priority (Sloan's default).
const W2: i64 = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Not yet seen (≥ 2 hops from any numbered vertex).
    Inactive,
    /// In the queue but no numbered neighbour yet.
    Preactive,
    /// In the queue with at least one numbered neighbour.
    Active,
    /// Numbered.
    Postactive,
}

/// BFS distances from `root` restricted to `root`'s component
/// (`u32::MAX` marks unreachable vertices).
fn bfs_distances<G: Graph>(adj: &G, root: u32) -> Vec<u32> {
    let mut dist = vec![u32::MAX; adj.num_vertices()];
    let mut queue = VecDeque::new();
    dist[root as usize] = 0;
    queue.push_back(root);
    while let Some(v) = queue.pop_front() {
        let dv = dist[v as usize];
        for &w in adj.neighbors(v) {
            if dist[w as usize] == u32::MAX {
                dist[w as usize] = dv + 1;
                queue.push_back(w);
            }
        }
    }
    dist
}

/// Find a pseudo-peripheral pair `(start, end)` of the component containing
/// `root`: repeatedly BFS, jump to a minimum-degree vertex of the deepest
/// level, and stop when the eccentricity no longer grows.
fn pseudo_peripheral_pair<G: Graph>(adj: &G, root: u32) -> (u32, u32) {
    let mut start = root;
    let mut dist = bfs_distances(adj, start);
    let mut ecc = dist.iter().filter(|&&d| d != u32::MAX).max().copied().unwrap_or(0);
    loop {
        // minimum-degree vertex of the deepest BFS level
        let end = (0..adj.num_vertices() as u32)
            .filter(|&v| dist[v as usize] == ecc)
            .min_by_key(|&v| (adj.degree(v), v))
            .unwrap_or(start);
        let dist_from_end = bfs_distances(adj, end);
        let ecc_from_end =
            dist_from_end.iter().filter(|&&d| d != u32::MAX).max().copied().unwrap_or(0);
        if ecc_from_end > ecc {
            start = end;
            dist = dist_from_end;
            ecc = ecc_from_end;
        } else {
            return (start, end);
        }
    }
}

/// Number one connected component starting at `start`, guided by distances
/// to `end`. Appends into `order`, flips `status` to `Postactive`.
fn sloan_component<G: Graph>(
    adj: &G,
    start: u32,
    end: u32,
    order: &mut Vec<u32>,
    status: &mut [Status],
) {
    let dist = bfs_distances(adj, end);
    let n = adj.num_vertices();
    let mut priority = vec![0i64; n];
    for v in 0..n as u32 {
        if dist[v as usize] != u32::MAX && status[v as usize] == Status::Inactive {
            priority[v as usize] = W1 * dist[v as usize] as i64 - W2 * (adj.degree(v) as i64 + 1);
        }
    }

    // lazy max-heap: stale entries are skipped on pop
    let mut heap: BinaryHeap<(i64, u32)> = BinaryHeap::new();
    status[start as usize] = Status::Preactive;
    heap.push((priority[start as usize], start));

    // bump a vertex's priority and (re)queue it, activating it if inactive
    macro_rules! bump {
        ($heap:ident, $v:expr) => {{
            let v = $v as usize;
            priority[v] += W2;
            if status[v] == Status::Inactive {
                status[v] = Status::Preactive;
            }
            $heap.push((priority[v], $v));
        }};
    }

    while let Some((p, v)) = heap.pop() {
        let vi = v as usize;
        if status[vi] == Status::Postactive || p != priority[vi] {
            continue; // stale heap entry
        }
        if status[vi] == Status::Preactive {
            // v gains its first numbered neighbour (itself being numbered):
            // every neighbour's current degree drops by one
            for &w in adj.neighbors(v) {
                if status[w as usize] != Status::Postactive {
                    bump!(heap, w);
                }
            }
        }
        status[vi] = Status::Postactive;
        order.push(v);
        for &w in adj.neighbors(v) {
            if status[w as usize] == Status::Preactive {
                status[w as usize] = Status::Active;
                bump!(heap, w);
                for &x in adj.neighbors(w) {
                    if status[x as usize] != Status::Postactive {
                        bump!(heap, x);
                    }
                }
            }
        }
    }
}

/// Sloan profile-reduction ordering of the mesh graph.
///
/// Every connected component is numbered from a pseudo-peripheral start
/// vertex toward its antipodal end vertex; isolated vertices come out in
/// index order. The result is always a complete permutation.
pub fn sloan_ordering<G: Graph>(adj: &G) -> Permutation {
    let n = adj.num_vertices();
    let mut order = Vec::with_capacity(n);
    let mut status = vec![Status::Inactive; n];
    for root in 0..n as u32 {
        if status[root as usize] != Status::Inactive {
            continue;
        }
        let (start, end) = pseudo_peripheral_pair(adj, root);
        sloan_component(adj, start, end, &mut order, &mut status);
    }
    Permutation::from_new_to_old_unchecked(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::layout_stats_permuted;
    use crate::traversals::random_ordering;
    use lms_mesh::{figure5_mesh, generators, Adjacency, Point2, TriMesh};

    fn profile(m: &TriMesh, p: &Permutation) -> u64 {
        // matrix profile = sum over rows of (row index − smallest connected
        // column index); the quantity Sloan minimises
        let pos = p.old_to_new();
        let mut lowest: Vec<u32> = pos.clone();
        for (a, b) in m.edges() {
            let (pa, pb) = (pos[a as usize], pos[b as usize]);
            lowest[a as usize] = lowest[a as usize].min(pb);
            lowest[b as usize] = lowest[b as usize].min(pa);
        }
        (0..m.num_vertices()).map(|v| (pos[v] - lowest[v]) as u64).sum()
    }

    #[test]
    fn is_a_permutation() {
        let m = generators::perturbed_grid(15, 19, 0.3, 4);
        let adj = Adjacency::build(&m);
        let p = sloan_ordering(&adj);
        assert_eq!(p.len(), m.num_vertices());
        let mut ids = p.new_to_old().to_vec();
        ids.sort_unstable();
        assert!(ids.iter().enumerate().all(|(i, &v)| v == i as u32));
    }

    #[test]
    fn reduces_profile_vs_random_and_competes_with_identity() {
        let m = generators::perturbed_grid(20, 20, 0.25, 7);
        let adj = Adjacency::build(&m);
        let sloan = profile(&m, &sloan_ordering(&adj));
        let rnd = profile(&m, &random_ordering(m.num_vertices(), 5));
        let id = profile(&m, &Permutation::identity(m.num_vertices()));
        assert!(sloan * 4 < rnd, "sloan {sloan} vs random {rnd}");
        // row-major on a grid is already near-optimal; Sloan should be in
        // the same league (within 2×), not catastrophically worse
        assert!(sloan <= id * 2, "sloan {sloan} vs identity {id}");
    }

    #[test]
    fn neighbours_stay_close_in_layout() {
        let m = generators::perturbed_grid(24, 24, 0.3, 9);
        let adj = Adjacency::build(&m);
        let sloan = layout_stats_permuted(&m, &adj, &sloan_ordering(&adj)).mean_span;
        let rnd = layout_stats_permuted(&m, &adj, &random_ordering(m.num_vertices(), 2)).mean_span;
        assert!(sloan * 3.0 < rnd, "sloan {sloan} vs random {rnd}");
    }

    #[test]
    fn figure5_mesh_starts_peripheral() {
        let m = figure5_mesh();
        let adj = Adjacency::build(&m);
        let p = sloan_ordering(&adj);
        // the first numbered vertex must be an extremal (pseudo-peripheral)
        // one: its eccentricity equals the graph diameter
        let first = p.new_to_old()[0];
        let ecc =
            |v: u32| bfs_distances(&adj, v).into_iter().filter(|&d| d != u32::MAX).max().unwrap();
        let diameter = (0..m.num_vertices() as u32).map(ecc).max().unwrap();
        assert_eq!(ecc(first), diameter);
    }

    #[test]
    fn handles_disconnected_and_empty_graphs() {
        let coords = (0..6).map(|i| Point2::new(i as f64, (i % 2) as f64)).collect();
        let m = TriMesh::new(coords, vec![[0, 1, 2], [3, 4, 5]]).unwrap();
        let adj = Adjacency::build(&m);
        let p = sloan_ordering(&adj);
        assert_eq!(p.len(), 6);
        let mut ids = p.new_to_old().to_vec();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5]);

        let empty = TriMesh::new(Vec::new(), Vec::new()).unwrap();
        assert!(sloan_ordering(&Adjacency::build(&empty)).is_empty());
    }
}
