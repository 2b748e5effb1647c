//! The 3D space-filling curves: the cell keys behind `OrderingKind::Hilbert`
//! and `OrderingKind::Morton` on tetrahedral meshes.
//!
//! The 3D counterparts of `lms-order`'s 2D keys (Sastry et al. \[14\]): the
//! index of a cell along a 3D Hilbert curve (Skilling's transpose
//! algorithm) or the 3D Morton (Z-order) curve (bit interleaving).
//! `lms_order::sfc_ordering` quantises and sorts in both dimensions;
//! [`TetMesh`](crate::TetMesh) names these keys through its
//! `lms_order::OrderMesh` impl.

/// Bits per axis for quantisation (2^20 cells per axis; 60-bit keys).
pub(crate) const ORDER: u32 = 20;

/// 3D Morton code of grid cell `(x, y, z)` (each `< 2^ORDER`): bits
/// interleaved `z y x` from most significant down.
pub fn morton3_key(x: u32, y: u32, z: u32) -> u64 {
    debug_assert!(x < (1 << ORDER) && y < (1 << ORDER) && z < (1 << ORDER));
    let mut key = 0u64;
    for bit in (0..ORDER).rev() {
        key = (key << 3)
            | (((z >> bit) & 1) as u64) << 2
            | (((y >> bit) & 1) as u64) << 1
            | ((x >> bit) & 1) as u64;
    }
    key
}

/// 3D Hilbert index of grid cell `(x, y, z)` (each `< 2^ORDER`), via
/// Skilling's axes→transpose transform followed by bit interleaving.
pub fn hilbert3_key(x: u32, y: u32, z: u32) -> u64 {
    debug_assert!(x < (1 << ORDER) && y < (1 << ORDER) && z < (1 << ORDER));
    let mut ax = [x, y, z];
    axes_to_transpose(&mut ax, ORDER);
    // interleave transposed bits, axis 0 most significant within each level
    let mut key = 0u64;
    for bit in (0..ORDER).rev() {
        for a in ax {
            key = (key << 1) | ((a >> bit) & 1) as u64;
        }
    }
    key
}

/// Skilling's AxesToTranspose (John Skilling, "Programming the Hilbert
/// curve", AIP 2004): converts coordinates into the transposed Hilbert
/// index in place.
fn axes_to_transpose(x: &mut [u32; 3], bits: u32) {
    let n = 3usize;
    let m = 1u32 << (bits - 1);

    // Inverse undo
    let mut q = m;
    while q > 1 {
        let p = q - 1;
        for i in 0..n {
            if x[i] & q != 0 {
                x[0] ^= p;
            } else {
                let t = (x[0] ^ x[i]) & p;
                x[0] ^= t;
                x[i] ^= t;
            }
        }
        q >>= 1;
    }

    // Gray encode
    for i in 1..n {
        x[i] ^= x[i - 1];
    }
    let mut t = 0u32;
    let mut q = m;
    while q > 1 {
        if x[n - 1] & q != 0 {
            t ^= q - 1;
        }
        q >>= 1;
    }
    for v in x.iter_mut() {
        *v ^= t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::perturbed_tet_grid;
    use crate::geometry::Point3;
    use crate::{Adjacency3, TetMesh};
    use lms_order::{compute_ordering, layout_stats, sfc_ordering, OrderingKind, Permutation};

    /// Mean neighbour gap of `m` renumbered by `p`.
    fn span(m: &TetMesh, p: &Permutation) -> f64 {
        let rm = p.apply_to_mesh(m);
        layout_stats(&rm, &Adjacency3::build(&rm)).mean_gap
    }

    #[test]
    fn morton_key_interleaves() {
        // lowest bit of x/y/z land in key bits 0/1/2
        assert_eq!(morton3_key(1, 0, 0), 0b001);
        assert_eq!(morton3_key(0, 1, 0), 0b010);
        assert_eq!(morton3_key(0, 0, 1), 0b100);
        assert_eq!(morton3_key(1, 1, 1), 0b111);
    }

    #[test]
    fn hilbert_keys_are_injective_on_a_small_grid() {
        let mut seen = std::collections::HashSet::new();
        for x in 0..8u32 {
            for y in 0..8u32 {
                for z in 0..8u32 {
                    let shift = ORDER - 3;
                    assert!(
                        seen.insert(hilbert3_key(x << shift, y << shift, z << shift)),
                        "collision at ({x},{y},{z})"
                    );
                }
            }
        }
        assert_eq!(seen.len(), 512);
    }

    #[test]
    fn hilbert_curve_visits_adjacent_cells() {
        // Consecutive Hilbert indices over a 2×2×2 grid must differ in
        // exactly one axis by one (the defining curve property).
        let shift = ORDER - 1;
        let mut cells: Vec<(u64, (u32, u32, u32))> = Vec::new();
        for x in 0..2u32 {
            for y in 0..2u32 {
                for z in 0..2u32 {
                    cells.push((hilbert3_key(x << shift, y << shift, z << shift), (x, y, z)));
                }
            }
        }
        cells.sort_unstable();
        for w in cells.windows(2) {
            let (a, b) = (w[0].1, w[1].1);
            let dist = (a.0 as i32 - b.0 as i32).abs()
                + (a.1 as i32 - b.1 as i32).abs()
                + (a.2 as i32 - b.2 as i32).abs();
            assert_eq!(dist, 1, "cells {a:?} and {b:?} not face-adjacent");
        }
    }

    #[test]
    fn orderings_are_bijections() {
        let m = perturbed_tet_grid(6, 6, 6, 0.3, 2);
        for p in [
            compute_ordering(&m, OrderingKind::Hilbert),
            compute_ordering(&m, OrderingKind::Morton),
        ] {
            assert_eq!(p.len(), m.num_vertices());
            let mut ids = p.new_to_old().to_vec();
            ids.sort_unstable();
            assert!(ids.iter().enumerate().all(|(i, &v)| i as u32 == v));
        }
    }

    #[test]
    fn sfc_beats_random_locality_in_3d() {
        let m = crate::generators::block_scramble(perturbed_tet_grid(8, 8, 8, 0.3, 5), 64, 5);
        let span = |kind| span(&m, &compute_ordering(&m, kind));
        let rnd = span(OrderingKind::Random { seed: 1 });
        let hil = span(OrderingKind::Hilbert);
        let mor = span(OrderingKind::Morton);
        assert!(hil < rnd / 3.0, "hilbert {hil} vs random {rnd}");
        assert!(mor < rnd / 3.0, "morton {mor} vs random {rnd}");
    }

    #[test]
    fn hilbert_no_worse_than_morton_on_grids() {
        // Hilbert has no long jumps; on structured grids its neighbour span
        // is at most ~Morton's (allow a small tolerance for quantisation).
        let m = crate::generators::tet_grid(10, 10, 10);
        let hil = span(&m, &compute_ordering(&m, OrderingKind::Hilbert));
        let mor = span(&m, &compute_ordering(&m, OrderingKind::Morton));
        assert!(hil <= mor * 1.25, "hilbert {hil} much worse than morton {mor}");
    }

    #[test]
    fn degenerate_inputs() {
        assert!(sfc_ordering(&[] as &[Point3], ORDER, |[x, y, z]| hilbert3_key(x, y, z)).is_empty());
        assert_eq!(
            sfc_ordering(&[Point3::ZERO; 5], ORDER, |[x, y, z]| morton3_key(x, y, z)).len(),
            5
        );
    }
}
