//! Recursive coordinate bisection (RCB): ordering and k-way partitioning,
//! one body for every dimension.
//!
//! The cache-oblivious divide-and-conquer layout: split the vertex set at
//! the median of its longest bounding-box axis, lay out each half
//! contiguously, recurse. Any subset of `2^k` consecutive positions is a
//! geometrically compact blob, so the layout has good locality at *every*
//! cache-size scale — the same property space-filling curves provide, but
//! adaptive to the actual point distribution instead of a fixed grid.
//!
//! Included as a strong geometric baseline next to Hilbert/Morton
//! (Sastry et al. \[14\]) in the ordering zoo. The same median-split
//! primitive also drives [`rcb_parts`], the balanced k-way geometric
//! partitioner behind `lms-part`'s domain decompositions, in 2D and 3D.
//!
//! Points are read in place as `D`-component arrays (anything
//! `Into<[f64; D]>`, so `Point2`, `Point3` and plain arrays alike; no
//! copy of the point set is made). The longest axis is the
//! first one of maximal extent, which at `D = 2` is the `extent.x >=
//! extent.y` rule. Each split folds the bounding box of the subset it
//! splits, so leaves and single-part subtrees are never scanned.

use crate::permutation::Permutation;

/// Minimum leaf size: subsets at or below this stay in index order.
const LEAF: usize = 8;

/// Point `v` as a `D`-component array, read in place.
#[inline]
fn at<const D: usize, P: Copy + Into<[f64; D]>>(coords: &[P], v: u32) -> [f64; D] {
    coords[v as usize].into()
}

/// Recursive-coordinate-bisection ordering of a point set.
pub fn rcb_ordering<const D: usize, P: Copy + Into<[f64; D]>>(coords: &[P]) -> Permutation {
    let mut ids: Vec<u32> = (0..coords.len() as u32).collect();
    if ids.len() > LEAF {
        bisect_nd(&mut ids, coords);
    }
    // subsets at or below LEAF keep ascending index order; `ids` starts
    // sorted, so nothing to do on that path
    Permutation::from_new_to_old_unchecked(ids)
}

/// Balanced k-way RCB partition of a point set: recursively median-split
/// along the longest bounding-box axis, sending `⌊k/2⌋/k` of the points
/// (and parts) to the left subtree. Returns the owning part of every
/// point. Part sizes differ by at most one, every part is a geometrically
/// compact blob, and the assignment is deterministic (ties broken by id,
/// exactly like [`rcb_ordering`]).
pub fn rcb_parts<const D: usize, P: Copy + Into<[f64; D]>>(
    coords: &[P],
    num_parts: usize,
) -> Vec<u32> {
    assert!(num_parts >= 1, "need at least one part");
    let mut part = vec![0u32; coords.len()];
    if coords.is_empty() || num_parts == 1 {
        return part;
    }
    let mut ids: Vec<u32> = (0..coords.len() as u32).collect();
    kway_nd(&mut ids, coords, 0, num_parts as u32, &mut part);
    part
}

/// Balanced k-way **weighted** RCB partition: like [`rcb_parts`], but each
/// split places the cut at the **weighted median** along the longest axis —
/// the left subtree receives the prefix of the `(key, id)`-sorted subset
/// whose cumulative weight stays within `⌊k/2⌋/k` of the subset's total
/// weight. With non-uniform weights (e.g. per-vertex area or volume shares
/// of a graded mesh) this balances *weight* per part where the unweighted
/// splitter balances *counts*.
///
/// With uniform weights the cut index reduces exactly to the unweighted
/// `len·⌊k/2⌋/k` (integer cumulative sums compared against an exactly-
/// representable target), so the assignment equals [`rcb_parts`] — the
/// oracle property the tests pin.
pub fn rcb_parts_weighted<const D: usize, P: Copy + Into<[f64; D]>>(
    coords: &[P],
    weights: &[f64],
    num_parts: usize,
) -> Vec<u32> {
    assert!(num_parts >= 1, "need at least one part");
    assert_eq!(coords.len(), weights.len(), "one weight per point");
    assert!(
        weights.iter().all(|w| w.is_finite() && *w >= 0.0),
        "weights must be finite and non-negative"
    );
    let mut part = vec![0u32; coords.len()];
    if coords.is_empty() || num_parts == 1 {
        return part;
    }
    let mut ids: Vec<u32> = (0..coords.len() as u32).collect();
    kway_weighted_nd(&mut ids, coords, weights, 0, num_parts as u32, &mut part);
    part
}

/// Longest axis of `ids`' exact bounding box (first axis wins ties).
fn longest_axis<const D: usize, P: Copy + Into<[f64; D]>>(ids: &[u32], coords: &[P]) -> usize {
    let mut lo = at(coords, ids[0]);
    let mut hi = lo;
    for &v in &ids[1..] {
        let p = at(coords, v);
        for d in 0..D {
            lo[d] = lo[d].min(p[d]);
            hi[d] = hi[d].max(p[d]);
        }
    }
    let mut axis = 0;
    for d in 1..D {
        if hi[d] - lo[d] > hi[axis] - lo[axis] {
            axis = d;
        }
    }
    axis
}

/// Order two ids by their coordinate along `axis`, ties broken by id.
fn by_key<const D: usize, P: Copy + Into<[f64; D]>>(
    coords: &[P],
    axis: usize,
) -> impl Fn(&u32, &u32) -> std::cmp::Ordering + '_ {
    move |&a, &b| {
        at(coords, a)[axis]
            .partial_cmp(&at(coords, b)[axis])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    }
}

/// The ordering recursion: halve at the median of the longest axis, lay
/// out each half contiguously, sort leaves of at most [`LEAF`] ids.
fn bisect_nd<const D: usize, P: Copy + Into<[f64; D]>>(ids: &mut [u32], coords: &[P]) {
    let mid = ids.len() / 2;
    ids.select_nth_unstable_by(mid, by_key(coords, longest_axis(ids, coords)));
    let (left, right) = ids.split_at_mut(mid);
    for half in [left, right] {
        if half.len() <= LEAF {
            half.sort_unstable(); // deterministic leaf layout
        } else {
            bisect_nd(half, coords);
        }
    }
}

fn kway_nd<const D: usize, P: Copy + Into<[f64; D]>>(
    ids: &mut [u32],
    coords: &[P],
    base: u32,
    k: u32,
    part: &mut [u32],
) {
    if k == 1 || ids.len() <= 1 {
        for &v in ids.iter() {
            part[v as usize] = base;
        }
        return;
    }
    let kl = k / 2;
    let mid = ids.len() * kl as usize / k as usize;
    if mid == 0 {
        // fewer points than parts on this side: everything goes to the
        // right subtree, the left part ids stay empty
        kway_nd(ids, coords, base + kl, k - kl, part);
        return;
    }
    ids.select_nth_unstable_by(mid, by_key(coords, longest_axis(ids, coords)));
    let (left, right) = ids.split_at_mut(mid);
    kway_nd(left, coords, base, kl, part);
    kway_nd(right, coords, base + kl, k - kl, part);
}

fn kway_weighted_nd<const D: usize, P: Copy + Into<[f64; D]>>(
    ids: &mut [u32],
    coords: &[P],
    weights: &[f64],
    base: u32,
    k: u32,
    part: &mut [u32],
) {
    if k == 1 || ids.len() <= 1 {
        for &v in ids.iter() {
            part[v as usize] = base;
        }
        return;
    }
    let kl = k / 2;
    // full (key, id) sort instead of select_nth: the weighted-median cut
    // index is only known after a prefix scan of the sorted weights. The
    // left/right *sets* under this comparator match the unweighted
    // splitter's whenever the cut indices agree.
    ids.sort_unstable_by(by_key(coords, longest_axis(ids, coords)));
    let total: f64 = ids.iter().map(|&v| weights[v as usize]).sum();
    let target = total * kl as f64 / k as f64;
    let mut acc = 0.0;
    let mut mid = 0usize;
    for &v in ids.iter() {
        let next = acc + weights[v as usize];
        if next <= target {
            acc = next;
            mid += 1;
        } else {
            break;
        }
    }
    let mid = mid.min(ids.len() - 1);
    if mid == 0 {
        // the first point already exceeds the left target (or fewer points
        // than parts): everything goes right, left part ids stay empty —
        // mirrors the unweighted splitter's degenerate branch
        kway_weighted_nd(ids, coords, weights, base + kl, k - kl, part);
        return;
    }
    let (left, right) = ids.split_at_mut(mid);
    kway_weighted_nd(left, coords, weights, base, kl, part);
    kway_weighted_nd(right, coords, weights, base + kl, k - kl, part);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::layout_stats_permuted;
    use crate::traversals::random_ordering;
    use lms_mesh::{generators, Adjacency, Point2};

    /// A plain 2D reference on `Point2`: its own bounding-box scan at
    /// every level and the `extent.x >= extent.y` split rule. The oracle
    /// that the dimension-generic recursion orders 2D points bit-identically.
    fn reference_rcb(coords: &[Point2]) -> Permutation {
        fn bisect_ref(ids: &mut [u32], coords: &[Point2]) {
            if ids.len() <= LEAF {
                ids.sort_unstable();
                return;
            }
            let (mut lo, mut hi) = (coords[ids[0] as usize], coords[ids[0] as usize]);
            for &v in ids.iter() {
                lo = lo.min(coords[v as usize]);
                hi = hi.max(coords[v as usize]);
            }
            let split_x = (hi.x - lo.x) >= (hi.y - lo.y);
            let mid = ids.len() / 2;
            let key = |v: u32| {
                let p = coords[v as usize];
                if split_x {
                    p.x
                } else {
                    p.y
                }
            };
            ids.select_nth_unstable_by(mid, |&a, &b| {
                key(a).partial_cmp(&key(b)).unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(&b))
            });
            let (left, right) = ids.split_at_mut(mid);
            bisect_ref(left, coords);
            bisect_ref(right, coords);
        }
        let mut ids: Vec<u32> = (0..coords.len() as u32).collect();
        bisect_ref(&mut ids, coords);
        Permutation::from_new_to_old_unchecked(ids)
    }

    #[test]
    fn extent_passing_matches_full_rescan_bitwise() {
        for (nx, ny, jit, seed) in
            [(15, 11, 0.3, 2), (40, 4, 0.0, 0), (24, 24, 0.35, 5), (13, 31, 0.45, 11)]
        {
            let m = generators::perturbed_grid(nx, ny, jit, seed);
            assert_eq!(
                rcb_ordering(m.coords()),
                reference_rcb(m.coords()),
                "grid {nx}x{ny} jitter {jit} seed {seed}"
            );
        }
        // degenerate inputs: identical and collinear points
        let same = vec![Point2::new(0.5, 0.5); 50];
        assert_eq!(rcb_ordering(&same), reference_rcb(&same));
        let line: Vec<Point2> = (0..77).map(|i| Point2::new(i as f64, 3.0)).collect();
        assert_eq!(rcb_ordering(&line), reference_rcb(&line));
    }

    #[test]
    fn rcb_is_a_bijection() {
        let m = generators::perturbed_grid(15, 11, 0.3, 2);
        let p = rcb_ordering(m.coords());
        let mut ids = p.new_to_old().to_vec();
        ids.sort_unstable();
        assert!(ids.iter().enumerate().all(|(i, &v)| i as u32 == v));
    }

    #[test]
    fn rcb_is_deterministic() {
        let m = generators::perturbed_grid(13, 13, 0.35, 7);
        assert_eq!(rcb_ordering(m.coords()), rcb_ordering(m.coords()));
    }

    #[test]
    fn first_half_is_one_side_of_the_split() {
        // On a wide strip, the first split is by x: every vertex in the
        // first half must lie left of (or at) every vertex in the second.
        let m = generators::perturbed_grid(40, 4, 0.0, 0);
        let p = rcb_ordering(m.coords());
        let order = p.new_to_old();
        let mid = order.len() / 2;
        let max_left =
            order[..mid].iter().map(|&v| m.coords()[v as usize].x).fold(f64::MIN, f64::max);
        let min_right =
            order[mid..].iter().map(|&v| m.coords()[v as usize].x).fold(f64::MAX, f64::min);
        assert!(max_left <= min_right + 1e-12, "halves overlap: {max_left} > {min_right}");
    }

    #[test]
    fn rcb_beats_random_locality() {
        let m = generators::perturbed_grid(24, 24, 0.35, 5);
        let adj = Adjacency::build(&m);
        let rcb = layout_stats_permuted(&m, &adj, &rcb_ordering(m.coords())).mean_span;
        let rnd = layout_stats_permuted(&m, &adj, &random_ordering(m.num_vertices(), 1)).mean_span;
        assert!(rcb < rnd / 4.0, "rcb span {rcb} vs random {rnd}");
    }

    #[test]
    fn small_and_empty_inputs() {
        assert!(rcb_ordering::<2, Point2>(&[]).is_empty());
        let few = vec![Point2::new(0.0, 0.0), Point2::new(1.0, 1.0)];
        assert_eq!(rcb_ordering(&few).new_to_old(), &[0, 1]);
    }

    #[test]
    fn identical_points_still_bijective() {
        let coords = vec![Point2::new(0.5, 0.5); 50];
        let p = rcb_ordering(&coords);
        let mut ids = p.new_to_old().to_vec();
        ids.sort_unstable();
        assert!(ids.iter().enumerate().all(|(i, &v)| i as u32 == v));
    }

    #[test]
    fn parts_are_balanced_and_cover() {
        for (n_pts, k) in [(100usize, 4usize), (97, 5), (64, 8), (33, 7), (10, 3)] {
            // deterministic scatter (no mesh needed for a point partition)
            let coords: Vec<Point2> = (0..n_pts)
                .map(|i| Point2::new((i * 37 % 101) as f64, (i * 53 % 97) as f64))
                .collect();
            let part = rcb_parts(&coords, k);
            assert_eq!(part.len(), coords.len());
            let mut sizes = vec![0usize; k];
            for &p in &part {
                assert!((p as usize) < k);
                sizes[p as usize] += 1;
            }
            let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(hi - lo <= 1, "unbalanced sizes {sizes:?} for n={} k={k}", coords.len());
        }
    }

    #[test]
    fn parts_are_geometric_blobs() {
        // On a flat strip (x span ≫ y span), 4-way RCB must slice by x:
        // part id is monotone non-decreasing in x.
        let m =
            generators::perturbed_grid_over(64, 2, (Point2::ZERO, Point2::new(16.0, 0.1)), 0.0, 0);
        let part = rcb_parts(m.coords(), 4);
        let mut labelled: Vec<(f64, u32)> =
            m.coords().iter().zip(&part).map(|(p, &q)| (p.x, q)).collect();
        labelled.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        for w in labelled.windows(2) {
            assert!(w[0].1 <= w[1].1, "part ids not monotone along the strip");
        }
    }

    #[test]
    fn parts_degenerate_inputs() {
        assert!(rcb_parts::<2, Point2>(&[], 4).is_empty());
        // more parts than points: every point still gets a valid part id
        let few = vec![Point2::new(0.0, 0.0), Point2::new(1.0, 1.0)];
        let part = rcb_parts(&few, 8);
        assert!(part.iter().all(|&p| p < 8));
        // k = 1: everything in part 0
        assert!(rcb_parts(&few, 1).iter().all(|&p| p == 0));
        // identical points: still valid and balanced
        let same = vec![Point2::new(0.5, 0.5); 30];
        let part = rcb_parts(&same, 4);
        let mut sizes = [0usize; 4];
        for &p in &part {
            sizes[p as usize] += 1;
        }
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }

    #[test]
    fn parts_deterministic() {
        let m = generators::perturbed_grid(20, 20, 0.35, 3);
        assert_eq!(rcb_parts(m.coords(), 6), rcb_parts(m.coords(), 6));
    }

    #[test]
    fn weighted_parts_equal_unweighted_on_uniform_weights() {
        // the oracle: with every weight equal, the weighted-median cut
        // index reduces to the unweighted count split at every level, so
        // the assignments are identical
        for (nx, ny, jit, seed) in
            [(15usize, 11usize, 0.3, 2u64), (24, 24, 0.35, 5), (13, 31, 0.45, 11)]
        {
            let m = generators::perturbed_grid(nx, ny, jit, seed);
            let ones = vec![1.0; m.num_vertices()];
            for k in [2usize, 3, 5, 8] {
                assert_eq!(
                    rcb_parts_weighted(m.coords(), &ones, k),
                    rcb_parts(m.coords(), k),
                    "grid {nx}x{ny} seed {seed} k={k}"
                );
            }
        }
        // and degenerate inputs behave like the unweighted splitter
        let few = vec![Point2::new(0.0, 0.0), Point2::new(1.0, 1.0)];
        assert_eq!(rcb_parts_weighted(&few, &[1.0, 1.0], 8), rcb_parts(&few, 8));
        assert!(rcb_parts_weighted::<2, Point2>(&[], &[], 4).is_empty());
    }

    #[test]
    fn weighted_parts_balance_weight_not_count() {
        // a 1D line with weights concentrated at the right end: the
        // weighted splitter must put far fewer *points* in the heavy parts
        // so that per-part *weight* stays balanced
        let n = 256usize;
        let coords: Vec<Point2> = (0..n).map(|i| Point2::new(i as f64, 0.0)).collect();
        let weights: Vec<f64> = (0..n).map(|i| if i < n / 2 { 1.0 } else { 15.0 }).collect();
        let k = 4usize;
        let part = rcb_parts_weighted(&coords, &weights, k);
        let mut wsum = vec![0.0f64; k];
        for (i, &p) in part.iter().enumerate() {
            wsum[p as usize] += weights[i];
        }
        let total: f64 = weights.iter().sum();
        let mean = total / k as f64;
        let max_w = wsum.iter().copied().fold(0.0, f64::max);
        assert!(max_w / mean < 1.25, "weighted imbalance {:.3} (weights {wsum:?})", max_w / mean);
        // the unweighted splitter, balancing counts, is far worse on weight
        let part_u = rcb_parts(&coords, k);
        let mut wsum_u = vec![0.0f64; k];
        for (i, &p) in part_u.iter().enumerate() {
            wsum_u[p as usize] += weights[i];
        }
        let max_u = wsum_u.iter().copied().fold(0.0, f64::max);
        assert!(max_u / mean > 1.5, "unweighted should be weight-imbalanced here");
    }

    #[test]
    fn weighted_parts_cover_and_are_deterministic() {
        let m = generators::perturbed_grid(17, 13, 0.3, 7);
        let w: Vec<f64> = (0..m.num_vertices()).map(|i| 1.0 + (i % 5) as f64).collect();
        let a = rcb_parts_weighted(m.coords(), &w, 6);
        let b = rcb_parts_weighted(m.coords(), &w, 6);
        assert_eq!(a, b);
        assert_eq!(a.len(), m.num_vertices());
        assert!(a.iter().all(|&p| p < 6));
    }
}
