//! Space-filling-curve orderings: one quantise-and-sort body for every
//! dimension.
//!
//! Sastry, Kultursay, Shontz & Kandemir \[14\] showed space-filling-curve
//! vertex reordering improves cache utilisation for mesh warping; it is the
//! natural *geometric* (rather than graph- or quality-based) baseline for
//! RDR. [`sfc_ordering`] normalises the points to their bounding box,
//! quantises each axis onto a `2^order`-cell grid and sorts by the curve
//! index of the cell. The index itself is per dimension: the 2D Hilbert
//! and Morton keys live in [`crate::hilbert`] and [`crate::morton`]
//! (`order` 16), the 3D ones in `lms-mesh3d` (`order` 20); a mesh type
//! names its pair through [`OrderMesh`](crate::OrderMesh).

use crate::permutation::Permutation;

/// Order `coords` by the curve index `key` of their cells on a
/// `2^order`-per-axis grid over the bounding box. Ties (same cell) break by
/// original index, so the result is deterministic.
pub fn sfc_ordering<const D: usize, P: Copy + Into<[f64; D]>>(
    coords: &[P],
    order: u32,
    key: impl Fn([u32; D]) -> u64,
) -> Permutation {
    let mut lo = [f64::INFINITY; D];
    let mut hi = [f64::NEG_INFINITY; D];
    for &p in coords {
        let p: [f64; D] = p.into();
        for d in 0..D {
            lo[d] = lo[d].min(p[d]);
            hi[d] = hi[d].max(p[d]);
        }
    }
    let width: [f64; D] = std::array::from_fn(|d| (hi[d] - lo[d]).max(f64::MIN_POSITIVE));
    let cells = ((1u64 << order) - 1) as f64;
    let mut keyed: Vec<(u64, u32)> = coords
        .iter()
        .enumerate()
        .map(|(i, &p)| {
            let p: [f64; D] = p.into();
            (key(std::array::from_fn(|d| (((p[d] - lo[d]) / width[d]) * cells) as u32)), i as u32)
        })
        .collect();
    keyed.sort_unstable();
    Permutation::from_new_to_old_unchecked(keyed.into_iter().map(|(_, i)| i).collect())
}
