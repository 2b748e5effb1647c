//! Recursive coordinate bisection (RCB): ordering and k-way partitioning.
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
//! partitioner behind `lms-part`'s domain decomposition.
//!
//! The recursion passes each subset's **exact** bounding box down instead
//! of re-scanning all ids at every level: along the split axis the child
//! extents fall out of the split itself (see `median_split`), so only
//! the off-axis extents and the left half's split-axis maximum need a
//! fold — one fused pass per split instead of a fresh full-box scan per
//! child, with a bit-identical resulting permutation.

use crate::permutation::Permutation;
use lms_mesh::Point2;

/// Minimum leaf size: subsets at or below this stay in index order.
const LEAF: usize = 8;

/// Recursive-coordinate-bisection ordering of a 2D point set.
pub fn rcb_ordering(coords: &[Point2]) -> Permutation {
    let mut ids: Vec<u32> = (0..coords.len() as u32).collect();
    if ids.len() > LEAF {
        let (lo, hi) = subset_bbox(&ids, coords);
        bisect(&mut ids, coords, lo, hi);
    }
    // subsets at or below LEAF keep ascending index order; `ids` starts
    // sorted, so nothing to do on that path
    Permutation::from_new_to_old_unchecked(ids)
}

/// Balanced k-way RCB partition of a 2D point set: recursively
/// median-split along the longest bounding-box axis, sending `⌊k/2⌋/k` of
/// the points (and parts) to the left subtree. Returns the owning part of
/// every point. Part sizes differ by at most one, every part is a
/// geometrically compact blob, and the assignment is deterministic (ties
/// broken by id, exactly like [`rcb_ordering`]).
///
/// Thin 2D wrapper over the dimension-generic [`rcb_parts_nd`] — the
/// split-axis rule (`extent.x >= extent.y` picks x) is exactly the ND
/// "first longest axis wins" rule at `D = 2`, so the assignment is
/// unchanged by the generalisation.
pub fn rcb_parts(coords: &[Point2], num_parts: usize) -> Vec<u32> {
    let nd: Vec<[f64; 2]> = coords.iter().map(|p| [p.x, p.y]).collect();
    rcb_parts_nd(&nd, num_parts)
}

/// Balanced k-way RCB partition of a `D`-dimensional point set (the
/// const-generic core behind [`rcb_parts`], and the 3D partitioner of
/// `lms-mesh3d`'s tetrahedral decompositions): recursively median-split
/// along the longest bounding-box axis (the first such axis on ties),
/// sending `⌊k/2⌋/k` of the points (and parts) to the left subtree.
/// Part sizes differ by at most one and the assignment is deterministic
/// (ties broken by id).
pub fn rcb_parts_nd<const D: usize>(coords: &[[f64; D]], num_parts: usize) -> Vec<u32> {
    assert!(num_parts >= 1, "need at least one part");
    let mut part = vec![0u32; coords.len()];
    if coords.is_empty() || num_parts == 1 {
        return part;
    }
    let mut ids: Vec<u32> = (0..coords.len() as u32).collect();
    let (lo, hi) = subset_bbox_nd(&ids, coords);
    kway_nd(&mut ids, coords, lo, hi, 0, num_parts as u32, &mut part);
    part
}

/// Balanced k-way **weighted** RCB partition: like [`rcb_parts`], but each
/// split places the cut at the **weighted median** along the longest axis —
/// the left subtree receives the prefix of the `(key, id)`-sorted subset
/// whose cumulative weight stays within `⌊k/2⌋/k` of the subset's total
/// weight. With non-uniform weights (e.g. per-vertex area shares of a
/// graded mesh) this balances *weight* per part where the unweighted
/// splitter balances *counts*.
///
/// With uniform weights the cut index reduces exactly to the unweighted
/// `len·⌊k/2⌋/k` (integer cumulative sums compared against an exactly-
/// representable target), so the assignment equals [`rcb_parts`] — the
/// oracle property the tests pin.
pub fn rcb_parts_weighted(coords: &[Point2], weights: &[f64], num_parts: usize) -> Vec<u32> {
    let nd: Vec<[f64; 2]> = coords.iter().map(|p| [p.x, p.y]).collect();
    rcb_parts_weighted_nd(&nd, weights, num_parts)
}

/// Balanced k-way weighted RCB over `D`-dimensional coordinates — the
/// const-generic core behind [`rcb_parts_weighted`], with the same
/// weighted-median cut rule per split.
pub fn rcb_parts_weighted_nd<const D: usize>(
    coords: &[[f64; D]],
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

/// Exact bounding box of an ND subset — computed once at each k-way
/// recursion root; children derive theirs from [`median_split_nd`]'s
/// bookkeeping, mirroring the 2D extents-down recursion.
fn subset_bbox_nd<const D: usize>(ids: &[u32], coords: &[[f64; D]]) -> ([f64; D], [f64; D]) {
    let mut lo = coords[ids[0] as usize];
    let mut hi = lo;
    for &v in ids.iter() {
        let p = coords[v as usize];
        for d in 0..D {
            lo[d] = lo[d].min(p[d]);
            hi[d] = hi[d].max(p[d]);
        }
    }
    (lo, hi)
}

/// Longest axis of an exact bounding box (first axis wins ties — at
/// `D = 2` exactly the old `(hi.x - lo.x) >= (hi.y - lo.y)` rule).
fn longest_axis<const D: usize>(lo: &[f64; D], hi: &[f64; D]) -> usize {
    let mut axis = 0;
    for d in 1..D {
        if hi[d] - lo[d] > hi[axis] - lo[axis] {
            axis = d;
        }
    }
    axis
}

/// [`median_split`]'s ND form: split `ids` at position `mid` along the
/// longest axis of its (exact) bounding box `(lo, hi)`, ties broken by
/// id, and return the **exact** bounding boxes of the two halves via one
/// fused pass — the split-axis extremes carry over from the parent and
/// the pivot, so no fresh full-box scan per child is needed.
#[allow(clippy::type_complexity)]
fn median_split_nd<const D: usize>(
    ids: &mut [u32],
    coords: &[[f64; D]],
    lo: [f64; D],
    hi: [f64; D],
    mid: usize,
) -> (([f64; D], [f64; D]), ([f64; D], [f64; D])) {
    debug_assert!(mid >= 1 && mid < ids.len());
    let axis = longest_axis(&lo, &hi);
    let key = |v: u32| coords[v as usize][axis];
    ids.select_nth_unstable_by(mid, |&a, &b| {
        key(a).partial_cmp(&key(b)).unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(&b))
    });

    // Split-axis extents carry over exactly: the subset's key-minimal
    // element lands in the left half (left min = parent min) and the
    // key-maximal in the right (right max = parent max); the pivot —
    // first of the right half under the (key, id) order — realises the
    // right half's split-axis minimum. Only the left half's split-axis
    // maximum and both halves' off-axis extents need a fold.
    let off_fold = |half: &[u32]| {
        let mut hlo = coords[half[0] as usize];
        let mut hhi = hlo;
        for &v in &half[1..] {
            let p = coords[v as usize];
            for d in 0..D {
                if d != axis {
                    hlo[d] = hlo[d].min(p[d]);
                    hhi[d] = hhi[d].max(p[d]);
                }
            }
        }
        (hlo, hhi)
    };
    let (mut llo, mut lhi) = off_fold(&ids[..mid]);
    llo[axis] = lo[axis];
    lhi[axis] = ids[..mid].iter().map(|&v| key(v)).fold(f64::MIN, f64::max);
    let (mut rlo, mut rhi) = off_fold(&ids[mid..]);
    rlo[axis] = key(ids[mid]);
    rhi[axis] = hi[axis];
    ((llo, lhi), (rlo, rhi))
}

fn kway_nd<const D: usize>(
    ids: &mut [u32],
    coords: &[[f64; D]],
    lo: [f64; D],
    hi: [f64; D],
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
        kway_nd(ids, coords, lo, hi, base + kl, k - kl, part);
        return;
    }
    let (lbox, rbox) = median_split_nd(ids, coords, lo, hi, mid);
    let (left, right) = ids.split_at_mut(mid);
    kway_nd(left, coords, lbox.0, lbox.1, base, kl, part);
    kway_nd(right, coords, rbox.0, rbox.1, base + kl, k - kl, part);
}

fn kway_weighted_nd<const D: usize>(
    ids: &mut [u32],
    coords: &[[f64; D]],
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
    let (lo, hi) = subset_bbox_nd(ids, coords);
    let axis = longest_axis(&lo, &hi);
    let key = |v: u32| coords[v as usize][axis];
    // full (key, id) sort instead of select_nth: the weighted-median cut
    // index is only known after a prefix scan of the sorted weights. The
    // left/right *sets* under this comparator match the unweighted
    // splitter's whenever the cut indices agree.
    ids.sort_unstable_by(|&a, &b| {
        key(a).partial_cmp(&key(b)).unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(&b))
    });
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

/// Exact bounding box of a subset — the recursion root's only full scan
/// (children derive theirs from [`median_split`]'s bookkeeping).
fn subset_bbox(ids: &[u32], coords: &[Point2]) -> (Point2, Point2) {
    let (mut lo, mut hi) = (coords[ids[0] as usize], coords[ids[0] as usize]);
    for &v in ids.iter() {
        lo = lo.min(coords[v as usize]);
        hi = hi.max(coords[v as usize]);
    }
    (lo, hi)
}

/// Split `ids` at position `mid` along the longest axis of its (exact)
/// bounding box `(lo, hi)`, median style with ties broken by id, and
/// return the **exact** bounding boxes of the two halves.
///
/// The child boxes need no fresh full scan: under the `(key, id)` order
/// the subset's key-minimal element lands in the left half and the
/// key-maximal in the right (so the parent's split-axis extremes carry
/// over), and the median element — first of the right half — realises the
/// right half's split-axis minimum. Only the left half's split-axis
/// maximum and both halves' off-axis extents remain, gathered in one
/// fused pass.
fn median_split(
    ids: &mut [u32],
    coords: &[Point2],
    lo: Point2,
    hi: Point2,
    mid: usize,
) -> ((Point2, Point2), (Point2, Point2)) {
    debug_assert!(mid >= 1 && mid < ids.len());
    let split_x = (hi.x - lo.x) >= (hi.y - lo.y);
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

    let off = |v: u32| {
        let p = coords[v as usize];
        if split_x {
            p.y
        } else {
            p.x
        }
    };
    let pivot = key(ids[mid]);
    let mut lk_max = key(ids[0]);
    let (mut lo_min, mut lo_max) = (off(ids[0]), off(ids[0]));
    for &v in &ids[1..mid] {
        lk_max = lk_max.max(key(v));
        let o = off(v);
        lo_min = lo_min.min(o);
        lo_max = lo_max.max(o);
    }
    let (mut ro_min, mut ro_max) = (off(ids[mid]), off(ids[mid]));
    for &v in &ids[mid + 1..] {
        let o = off(v);
        ro_min = ro_min.min(o);
        ro_max = ro_max.max(o);
    }
    let (lk_min, rk_max) = if split_x { (lo.x, hi.x) } else { (lo.y, hi.y) };
    let boxed = |k0: f64, k1: f64, o0: f64, o1: f64| {
        if split_x {
            (Point2::new(k0, o0), Point2::new(k1, o1))
        } else {
            (Point2::new(o0, k0), Point2::new(o1, k1))
        }
    };
    (boxed(lk_min, lk_max, lo_min, lo_max), boxed(pivot, rk_max, ro_min, ro_max))
}

fn bisect(ids: &mut [u32], coords: &[Point2], lo: Point2, hi: Point2) {
    let mid = ids.len() / 2;
    let (lbox, rbox) = median_split(ids, coords, lo, hi, mid);
    let (left, right) = ids.split_at_mut(mid);
    for (half, (hlo, hhi)) in [(left, lbox), (right, rbox)] {
        if half.len() <= LEAF {
            half.sort_unstable(); // deterministic leaf layout
        } else {
            bisect(half, coords, hlo, hhi);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::layout_stats_permuted;
    use crate::traversals::random_ordering;
    use lms_mesh::{generators, Adjacency};

    /// The pre-optimisation reference: recompute the subset bounding box
    /// from scratch at every recursion level. Kept as the oracle for the
    /// bit-identity test of the extent-passing recursion.
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
        assert!(rcb_ordering(&[]).is_empty());
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
        assert!(rcb_parts(&[], 4).is_empty());
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
        assert!(rcb_parts_weighted(&[], &[], 4).is_empty());
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
