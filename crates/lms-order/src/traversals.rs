//! The RANDOM baseline, and the tests of the graph traversals on mesh
//! adjacencies.
//!
//! The traversal orderings themselves — BFS (Strout & Hovland), reversed
//! BFS (Munson & Hovland), DFS and (reverse) Cuthill–McKee — are the
//! graph-generic cores of [`crate::graph`], run on any
//! [`Graph`](crate::Graph): every one covers every connected component
//! (restarting from the lowest-numbered unvisited vertex), so it always
//! produces a full permutation.

use crate::permutation::Permutation;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Uniform random ordering (Fisher–Yates), deterministic in `seed`.
/// The paper's worst-case baseline (Figure 1a).
pub fn random_ordering(n: usize, seed: u64) -> Permutation {
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.shuffle(&mut SmallRng::seed_from_u64(seed));
    Permutation::from_new_to_old_unchecked(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::*;
    use lms_mesh::{figure5_mesh, generators, Adjacency, TriMesh};

    fn fig5_adj() -> (TriMesh, Adjacency) {
        let m = figure5_mesh();
        let adj = Adjacency::build(&m);
        (m, adj)
    }

    #[test]
    fn bfs_starts_at_seed_and_expands_by_levels() {
        let (_, adj) = fig5_adj();
        let p = bfs_ordering_on(&adj, 0);
        let order = p.new_to_old();
        assert_eq!(order[0], 0);
        // All of vertex 0's neighbours appear before any distance-2 vertex.
        let pos = p.old_to_new();
        let max_nbr_pos = adj.neighbors(0).iter().map(|&w| pos[w as usize]).max().unwrap();
        // Vertex 12 is at graph distance ≥ 2 from vertex 0.
        assert!(pos[12] > max_nbr_pos);
    }

    #[test]
    fn bfs_is_a_permutation_on_every_seed() {
        let (m, adj) = fig5_adj();
        for seed in 0..m.num_vertices() as u32 {
            let p = bfs_ordering_on(&adj, seed);
            assert_eq!(p.len(), m.num_vertices());
            assert_eq!(p.new_to_old()[0], seed);
        }
    }

    #[test]
    fn dfs_goes_deep_first() {
        let (_, adj) = fig5_adj();
        let p = dfs_ordering_on(&adj, 0);
        let order = p.new_to_old();
        assert_eq!(order[0], 0);
        // second visited vertex is 0's lowest neighbour
        assert_eq!(order[1], adj.neighbors(0)[0]);
        assert_eq!(p.len(), 13);
    }

    #[test]
    fn bfs_reversed_is_reversed_bfs() {
        let (_, adj) = fig5_adj();
        let fwd = bfs_ordering_on(&adj, 0);
        let rev = bfs_reversed_ordering_on(&adj, 0);
        let mut expect = fwd.new_to_old().to_vec();
        expect.reverse();
        assert_eq!(rev.new_to_old(), &expect[..]);
        // the seed ends up last
        assert_eq!(*rev.new_to_old().last().unwrap(), 0);
    }

    #[test]
    fn rcm_reverses_cuthill_mckee() {
        let (_, adj) = fig5_adj();
        let cm = cuthill_mckee_ordering_on(&adj);
        let rcm = rcm_ordering_on(&adj);
        let mut reversed = cm.new_to_old().to_vec();
        reversed.reverse();
        assert_eq!(rcm.new_to_old(), &reversed[..]);
    }

    #[test]
    fn rcm_reduces_bandwidth_on_grid() {
        let m = generators::perturbed_grid(12, 12, 0.2, 3);
        let adj = Adjacency::build(&m);
        let bw = |p: &Permutation| {
            let pos = p.old_to_new();
            m.edges()
                .iter()
                .map(|&(a, b)| (pos[a as usize] as i64 - pos[b as usize] as i64).unsigned_abs())
                .max()
                .unwrap()
        };
        let id = Permutation::identity(m.num_vertices());
        let rnd = random_ordering(m.num_vertices(), 1);
        let rcm = rcm_ordering_on(&adj);
        assert!(bw(&rcm) <= bw(&id) * 2, "RCM should not blow up grid bandwidth");
        assert!(bw(&rcm) < bw(&rnd), "RCM must beat random bandwidth");
    }

    #[test]
    fn random_is_deterministic_and_bijective() {
        let a = random_ordering(100, 9);
        let b = random_ordering(100, 9);
        let c = random_ordering(100, 10);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(!a.is_identity());
    }

    #[test]
    fn traversals_cover_disconnected_components() {
        // Two disjoint triangles.
        let coords = (0..6).map(|i| lms_mesh::Point2::new(i as f64, (i % 2) as f64)).collect();
        let m = TriMesh::new(coords, vec![[0, 1, 2], [3, 4, 5]]).unwrap();
        let adj = Adjacency::build(&m);
        for p in [bfs_ordering_on(&adj, 0), dfs_ordering_on(&adj, 0), rcm_ordering_on(&adj)] {
            assert_eq!(p.len(), 6);
            let mut sorted = p.new_to_old().to_vec();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3, 4, 5]);
        }
    }

    #[test]
    fn empty_graph_yields_empty_permutations() {
        let m = TriMesh::new(Vec::new(), Vec::new()).unwrap();
        let adj = Adjacency::build(&m);
        assert!(bfs_ordering_on(&adj, 0).is_empty());
        assert!(dfs_ordering_on(&adj, 0).is_empty());
        assert!(rcm_ordering_on(&adj).is_empty());
        assert!(random_ordering(0, 0).is_empty());
    }
}
