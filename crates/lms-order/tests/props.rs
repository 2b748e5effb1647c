//! Property-based tests for the ordering library: every ordering is a
//! bijection on arbitrary meshes (Theorem 1 of the paper for RDR), the
//! RDR walk equals a plain reference walk, the permutation algebra obeys
//! its laws, and the locality metrics rank the graph orderings above
//! random, and greedy colorings are proper. The kind-by-kind checks run on triangle meshes here and on
//! tetrahedral meshes in `lms-mesh3d`'s `order` tests.

use lms_mesh::{generators, Adjacency, TriMesh};
use lms_order::coloring::greedy_coloring;
use lms_order::graph::rdr_ordering_on;
use lms_order::{
    compute_ordering, compute_ordering_with, layout_stats_permuted, par_rdr_ordering_on,
    random_ordering, ChunkConcat, CsrGraph, Graph, OrderingKind, ParRdrOptions, Permutation,
    RdrOptions,
};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

fn arb_grid() -> impl Strategy<Value = TriMesh> {
    (3usize..16, 3usize..16, 0.0f64..0.45, 0u64..500)
        .prop_map(|(nx, ny, jitter, seed)| generators::perturbed_grid(nx, ny, jitter, seed))
}

/// A symmetric CSR graph on `n` vertices from arbitrary index pairs (self
/// loops dropped, duplicates merged): usually disconnected, with isolated
/// vertices, and numbered with no locality at all.
fn csr_from_pairs(n: usize, pairs: &[(usize, usize)]) -> (Vec<u32>, Vec<u32>) {
    let mut rows = vec![Vec::new(); n];
    for &(a, b) in pairs {
        let (a, b) = (a % n, b % n);
        if a != b {
            rows[a].push(b as u32);
            rows[b].push(a as u32);
        }
    }
    let mut offsets = vec![0u32];
    let mut neighbors = Vec::new();
    for row in &mut rows {
        row.sort_unstable();
        row.dedup();
        neighbors.extend_from_slice(row);
        offsets.push(neighbors.len() as u32);
    }
    (offsets, neighbors)
}

/// Vertex count and index pairs for [`csr_from_pairs`], in two shapes:
/// sparse (up to 40 vertices, degree ≲ 4, usually disconnected) and
/// tet-like (16–64 vertices, rows of ~14 neighbours within a band of
/// nearby indices — the shape of a tetrahedral mesh's vertex graph, which
/// RDR walks on a `TetMesh`).
fn arb_graph() -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    prop_oneof![
        (1usize..40, proptest::collection::vec((0usize..64, 0usize..64), 0..90)),
        (16usize..64, proptest::collection::vec((0usize..64, 1usize..16), 250..450)).prop_map(
            |(n, links)| (n, links.into_iter().map(|(a, d)| (a % n, (a % n + d) % n)).collect())
        ),
    ]
}

/// Qualities on every quality-bin edge (0, 0.25, 0.5, 0.75, 1), below 0,
/// above 1, ±∞, NaN and −0, as well as uniform draws in and around
/// `[0, 1]`.
fn arb_quality() -> impl Strategy<Value = f64> {
    const EDGES: [f64; 11] =
        [0.0, 0.25, 0.5, 0.75, 1.0, -0.0, -0.25, 1.5, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
    prop_oneof![0.0f64..1.0, -0.5f64..1.5, (0usize..EDGES.len()).prop_map(|k| EDGES[k])]
}

/// One interior flag per bit: arbitrary, all boundary, or all interior.
fn arb_interior_bits() -> impl Strategy<Value = u64> {
    prop_oneof![any::<u64>(), Just(0u64), Just(u64::MAX)]
}

/// The straightforward form of Algorithm 2's walk over the index range
/// `lo..hi`, the reference `lms-order`'s walk must equal: a heap of every
/// interior seed, `processed` and `sorted` flag arrays, and each worklist
/// ranked by [`RdrOptions::sort_by_quality`] straight from `quality`.
fn reference_walk(
    graph: &impl Graph,
    interior: &[bool],
    quality: &[f64],
    lo: u32,
    hi: u32,
) -> Vec<u32> {
    let options = RdrOptions::default();
    let len = (hi - lo) as usize;
    let in_range = |v: u32| (lo..hi).contains(&v);
    let rel = |v: u32| (v - lo) as usize;
    let mut vnew: Vec<u32> = Vec::with_capacity(len);
    let mut processed = vec![false; len];
    let mut sorted = vec![false; len];
    // Interior vertices by increasing quality (line 6), as a min-heap.
    let mut seeds: BinaryHeap<Reverse<(u64, u32)>> = (lo..hi)
        .filter(|&v| interior[v as usize])
        .map(|v| Reverse(options.key(v, quality)))
        .collect();
    let mut unprocessed_interior = seeds.len();
    // Every interior vertex of `vnew[..frontier]` is processed.
    let mut frontier = 0usize;
    let mut l: Vec<u32> = Vec::new();

    while unprocessed_interior > 0 {
        while frontier < vnew.len()
            && (processed[rel(vnew[frontier])] || !interior[vnew[frontier] as usize])
        {
            frontier += 1;
        }
        let mut head = match vnew.get(frontier) {
            Some(&i) => i,
            None => loop {
                let Reverse((_, i)) = seeds.pop().expect("an unprocessed interior vertex remains");
                if !processed[rel(i)] {
                    vnew.push(i);
                    sorted[rel(i)] = true;
                    break i;
                }
            },
        };
        loop {
            processed[rel(head)] = true;
            unprocessed_interior -= usize::from(interior[head as usize]);
            l.clear();
            l.extend(
                graph
                    .neighbors(head)
                    .iter()
                    .copied()
                    .filter(|&w| in_range(w) && !processed[rel(w)]),
            );
            if l.is_empty() {
                break;
            }
            options.sort_by_quality(&mut l, quality);
            for &j in &l {
                if !sorted[rel(j)] {
                    vnew.push(j);
                    sorted[rel(j)] = true;
                }
            }
            head = l[0];
        }
    }
    vnew.extend((lo..hi).filter(|&v| !sorted[rel(v)]));
    vnew
}

/// [`reference_walk`] per chunk of `par_rdr_ordering_on`'s index
/// decomposition, concatenated under `concat`.
fn reference_chunked(
    graph: &impl Graph,
    interior: &[bool],
    quality: &[f64],
    concat: ChunkConcat,
    chunks: usize,
) -> Vec<u32> {
    let n = graph.num_vertices();
    let chunk = n.div_ceil(chunks).max(1);
    let mut parts: Vec<Vec<u32>> = (0..chunks)
        .map(|c| ((c * chunk).min(n) as u32, ((c + 1) * chunk).min(n) as u32))
        .filter(|&(lo, hi)| lo < hi)
        .map(|(lo, hi)| reference_walk(graph, interior, quality, lo, hi))
        .collect();
    if concat == ChunkConcat::WorstQualityFirst {
        let worst =
            |p: &Vec<u32>| p.iter().map(|&v| quality[v as usize]).fold(f64::INFINITY, f64::min);
        parts.sort_by(|a, b| {
            worst(a)
                .partial_cmp(&worst(b))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.first().cmp(&b.first()))
        });
    }
    parts.concat()
}

fn components(g: &impl Graph) -> usize {
    let n = g.num_vertices();
    let mut seen = vec![false; n];
    let mut count = 0;
    for s in 0..n as u32 {
        if seen[s as usize] {
            continue;
        }
        count += 1;
        seen[s as usize] = true;
        let mut stack = vec![s];
        while let Some(v) = stack.pop() {
            for &w in g.neighbors(v) {
                if !seen[w as usize] {
                    seen[w as usize] = true;
                    stack.push(w);
                }
            }
        }
    }
    count
}

/// Vertices with no neighbour earlier in `p`'s order (isolated ones included).
fn detached(g: &impl Graph, p: &Permutation) -> usize {
    let position = p.old_to_new();
    (0..g.num_vertices() as u32)
        .filter(|&v| g.neighbors(v).iter().all(|&w| position[w as usize] > position[v as usize]))
        .count()
}

fn is_bijection(p: &Permutation, n: usize) -> bool {
    if p.len() != n {
        return false;
    }
    let mut seen = vec![false; n];
    for &v in p.new_to_old() {
        if seen[v as usize] {
            return false;
        }
        seen[v as usize] = true;
    }
    seen.into_iter().all(|b| b)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Greedy colorings of arbitrary perturbed grids are proper and use
    /// at most max_degree + 1 colors.
    #[test]
    fn colorings_are_proper(mesh in arb_grid()) {
        let adj = Adjacency::build(&mesh);
        let coloring = greedy_coloring(&adj);
        prop_assert!(coloring.is_proper(&adj));
        prop_assert!(coloring.num_colors() as usize <= adj.max_degree() + 1);
    }

    /// Theorem 1, generalised to the whole zoo: every ordering orders
    /// every vertex exactly once on arbitrary meshes.
    #[test]
    fn every_ordering_is_a_bijection(m in arb_grid()) {
        let adj = Adjacency::build(&m);
        for kind in OrderingKind::ALL {
            let p = compute_ordering_with(&m, &adj, kind);
            prop_assert!(is_bijection(&p, m.num_vertices()), "{}", kind.name());
        }
    }

    /// Theorem 1 through the frontier reseeding, on graphs no generator
    /// would number: disconnected, with isolated vertices, and with any
    /// interior set — all-boundary (nothing seeds a chain) included.
    #[test]
    fn rdr_orders_every_vertex_exactly_once_on_arbitrary_graphs(
        (n, pairs) in arb_graph(),
        interior_bits in any::<u64>(),
        all_boundary in any::<bool>(),
        quality in proptest::collection::vec(arb_quality(), 64..65),
        chunks in 1usize..6,
    ) {
        let (offsets, neighbors) = csr_from_pairs(n, &pairs);
        let g = CsrGraph::new(&offsets, &neighbors);
        let interior: Vec<bool> =
            (0..n).map(|v| !all_boundary && interior_bits >> v & 1 == 1).collect();
        let options = RdrOptions::default();
        let serial = rdr_ordering_on(&g, &interior, &quality[..n]);
        prop_assert!(is_bijection(&serial, n));
        // the first chain still starts at the worst interior vertex
        if let Some(worst) =
            (0..n as u32).filter(|&v| interior[v as usize]).min_by_key(|&v| options.key(v, &quality))
        {
            prop_assert_eq!(serial.new_to_old()[0], worst);
        }
        // the chunked construction runs the same walk per index range
        let par = ParRdrOptions { rdr: options, ..Default::default() };
        let chunked = par_rdr_ordering_on(&g, &interior, &quality[..n], &par, chunks);
        prop_assert!(is_bijection(&chunked, n));
        if chunks == 1 {
            prop_assert_eq!(chunked, serial);
        }
    }

    /// What the reseeding buys: with every vertex interior, a new chain
    /// starts on the frontier of what is already laid out, so each vertex
    /// but the first of its component has a neighbour earlier in the order.
    /// (Restarting from the global quality list — the pseudocode — breaks
    /// this at nearly every trapped chain.)
    #[test]
    fn rdr_layout_grows_from_its_own_frontier(
        (n, pairs) in arb_graph(),
        quality in proptest::collection::vec(arb_quality(), 64..65),
    ) {
        let (offsets, neighbors) = csr_from_pairs(n, &pairs);
        let g = CsrGraph::new(&offsets, &neighbors);
        let p = rdr_ordering_on(&g, &vec![true; n], &quality[..n]);
        prop_assert_eq!(detached(&g, &p), components(&g));
    }

    /// The same on a mesh whose numbering carries no locality: a shuffled
    /// grid (one component once its boundary ring is walkable too).
    #[test]
    fn rdr_on_a_shuffled_grid_is_one_connected_layout(m in arb_grid(), seed in 0u64..100) {
        let shuffled = random_ordering(m.num_vertices(), seed).apply_to_mesh(&m);
        let adj = Adjacency::build(&shuffled);
        let n = shuffled.num_vertices();
        let quality = lms_mesh::quality::vertex_qualities(
            &shuffled,
            &adj,
            lms_mesh::quality::QualityMetric::EdgeLengthRatio,
        );
        let p = rdr_ordering_on(&adj, &vec![true; n], &quality);
        prop_assert!(is_bijection(&p, n));
        prop_assert_eq!(detached(&adj, &p), 1);
    }

    /// `p ∘ p⁻¹ = id` and `p⁻¹ ∘ p = id`.
    #[test]
    fn inverse_composes_to_identity(m in arb_grid(), seed in 0u64..100) {
        let p = random_ordering(m.num_vertices(), seed);
        let inv = p.inverse();
        prop_assert!(p.compose(&inv).unwrap().is_identity());
        prop_assert!(inv.compose(&p).unwrap().is_identity());
    }

    /// Applying a permutation to a mesh preserves geometry: same multiset
    /// of coordinates, same edge set up to renaming, same total area.
    #[test]
    fn apply_to_mesh_preserves_geometry(m in arb_grid(), seed in 0u64..100) {
        let p = random_ordering(m.num_vertices(), seed);
        let permuted = p.apply_to_mesh(&m);
        prop_assert_eq!(permuted.num_vertices(), m.num_vertices());
        prop_assert_eq!(permuted.num_triangles(), m.num_triangles());
        prop_assert!((permuted.total_area() - m.total_area()).abs() < 1e-9);
        // coordinates are a permutation of the originals
        let key = |p: &lms_mesh::Point2| (p.x.to_bits(), p.y.to_bits());
        let mut a: Vec<_> = m.coords().iter().map(key).collect();
        let mut b: Vec<_> = permuted.coords().iter().map(key).collect();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
        // edges map through the permutation
        let old_to_new = p.old_to_new();
        let mut renamed: Vec<(u32, u32)> = m
            .edges()
            .into_iter()
            .map(|(u, v)| {
                let (nu, nv) = (old_to_new[u as usize], old_to_new[v as usize]);
                (nu.min(nv), nu.max(nv))
            })
            .collect();
        let mut new_edges = permuted.edges();
        renamed.sort_unstable();
        new_edges.sort_unstable();
        prop_assert_eq!(renamed, new_edges);
    }

    /// `apply_to_values` relocates per-vertex data consistently with the
    /// mesh renaming.
    #[test]
    fn values_follow_their_vertices(m in arb_grid(), seed in 0u64..100) {
        let p = random_ordering(m.num_vertices(), seed);
        let values: Vec<u32> = (0..m.num_vertices() as u32).collect();
        let moved = p.apply_to_values(&values).unwrap();
        // new slot i holds the value of old vertex new_to_old[i]
        for (i, &v) in moved.iter().enumerate() {
            prop_assert_eq!(v, p.new_to_old()[i]);
        }
    }

    /// The structured orderings always beat RANDOM on the sweep-span
    /// metric (the Figure 5 quantity) on meshes of non-trivial size.
    #[test]
    fn structured_orderings_beat_random(m in arb_grid()) {
        prop_assume!(m.num_vertices() >= 64);
        let adj = Adjacency::build(&m);
        let span = |kind| {
            let p = compute_ordering_with(&m, &adj, kind);
            layout_stats_permuted(&m, &adj, &p).mean_span
        };
        let rnd = span(OrderingKind::Random { seed: 7 });
        for kind in [
            OrderingKind::Bfs,
            OrderingKind::Rcm,
            OrderingKind::Sloan,
            OrderingKind::Hilbert,
            OrderingKind::Morton,
            OrderingKind::Rdr,
        ] {
            prop_assert!(
                span(kind) < rnd,
                "{} span {} not below random {}",
                kind.name(),
                span(kind),
                rnd
            );
        }
    }

    /// Orderings are deterministic: two computations agree, with and
    /// without a handed adjacency.
    #[test]
    fn orderings_are_deterministic(m in arb_grid()) {
        let adj = Adjacency::build(&m);
        for kind in OrderingKind::ALL {
            let handed = compute_ordering_with(&m, &adj, kind);
            prop_assert_eq!(&compute_ordering(&m, kind), &handed, "{}", kind.name());
            prop_assert_eq!(compute_ordering_with(&m, &adj, kind), handed, "{}", kind.name());
        }
    }
}

proptest! {
    // Default config, so `PROPTEST_CASES` sets the depth (CI runs 4096).

    /// The RDR walk is the reference walk, vertex for vertex: serial RDR
    /// and the chunked construction (1–6 chunks, either concatenation) on
    /// arbitrary sparse and tet-like graphs, with qualities on the bin
    /// edges and outside `[0, 1]`.
    #[test]
    fn rdr_walk_equals_the_reference_walk(
        (n, pairs) in arb_graph(),
        interior_bits in arb_interior_bits(),
        quality in proptest::collection::vec(arb_quality(), 64..65),
        chunks in 1usize..=6,
        worst_first in any::<bool>(),
    ) {
        let (offsets, neighbors) = csr_from_pairs(n, &pairs);
        let g = CsrGraph::new(&offsets, &neighbors);
        let interior: Vec<bool> = (0..n).map(|v| interior_bits >> v & 1 == 1).collect();
        let quality = &quality[..n];
        let serial = rdr_ordering_on(&g, &interior, quality);
        prop_assert_eq!(serial.new_to_old(), &reference_walk(&g, &interior, quality, 0, n as u32)[..]);
        let concat =
            if worst_first { ChunkConcat::WorstQualityFirst } else { ChunkConcat::IndexOrder };
        let par = ParRdrOptions { concat, ..Default::default() };
        let chunked = par_rdr_ordering_on(&g, &interior, quality, &par, chunks);
        prop_assert_eq!(
            chunked.new_to_old(),
            &reference_chunked(&g, &interior, quality, concat, chunks)[..]
        );
    }
}

/// Colorings on the nine-mesh evaluation suite (scaled down) are proper.
#[test]
fn colorings_proper_on_generator_suite() {
    for spec in lms_mesh::suite::SUITE.iter() {
        let mesh = lms_mesh::suite::generate(spec, 0.01);
        let adj = Adjacency::build(&mesh);
        let coloring = greedy_coloring(&adj);
        assert!(coloring.is_proper(&adj), "{}: improper coloring", spec.name);
        assert!(
            coloring.num_colors() as usize <= adj.max_degree() + 1,
            "{}: {} colors for max degree {}",
            spec.name,
            coloring.num_colors(),
            adj.max_degree()
        );
    }
}
