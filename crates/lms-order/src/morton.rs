//! The 2D Morton (Z-order) curve: the cell index behind
//! `OrderingKind::Morton` on triangle meshes ([`crate::sfc`] quantises and
//! sorts).
//!
//! The second space-filling curve of the reproduction, next to
//! [`crate::hilbert`]. Sastry et al. \[14\] evaluate SFC reorderings for mesh
//! vertex and element numbering; the Morton curve is the cheap-to-compute
//! member of the family (pure bit interleaving, no rotations) and is the
//! standard ablation partner for Hilbert: it has the same asymptotic
//! locality but noticeably longer jumps at quadrant seams, so comparing the
//! two separates "any geometric clustering helps" from "the curve's
//! continuity matters".

use crate::hilbert::ORDER;

/// Interleave the low 16 bits of `v` with zeros ("Part1By1" in the
/// bit-twiddling literature): `abcd` → `0a0b0c0d`.
#[inline]
fn part1by1(v: u32) -> u64 {
    let mut x = v as u64 & 0xffff;
    x = (x | (x << 8)) & 0x00ff_00ff;
    x = (x | (x << 4)) & 0x0f0f_0f0f;
    x = (x | (x << 2)) & 0x3333_3333;
    x = (x | (x << 1)) & 0x5555_5555;
    x
}

/// Map grid cell `(x, y)` (each `< 2^ORDER`) to its Morton code — the
/// distance along the Z-order curve.
#[inline]
pub fn morton_d(x: u32, y: u32) -> u64 {
    debug_assert!(x < (1 << ORDER) && y < (1 << ORDER));
    part1by1(x) | (part1by1(y) << 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::permutation::Permutation;
    use crate::sfc::sfc_ordering;
    use lms_mesh::{generators, Point2};

    fn morton_ordering(coords: &[Point2]) -> Permutation {
        sfc_ordering(coords, ORDER, |[x, y]| morton_d(x, y))
    }

    #[test]
    fn morton_code_interleaves_bits() {
        // x = 0b101, y = 0b011 → z = y2x2 y1x1 y0x0 = 0b 01 11 01 = 0x1d... let's compute:
        // bits: x0=1,y0=1 -> 0b11; x1=0,y1=1 -> 0b10; x2=1,y2=0 -> 0b01
        // code = 01_10_11 = 0b011011 = 27
        assert_eq!(morton_d(0b101, 0b011), 27);
        assert_eq!(morton_d(0, 0), 0);
        assert_eq!(morton_d(1, 0), 1);
        assert_eq!(morton_d(0, 1), 2);
        assert_eq!(morton_d(1, 1), 3);
    }

    #[test]
    fn morton_code_is_monotone_within_quadrants() {
        // every cell of the lower-left quadrant precedes every cell of the
        // upper-right quadrant
        let half = 1u32 << (ORDER - 1);
        assert!(morton_d(half - 1, half - 1) < morton_d(half, half));
    }

    #[test]
    fn ordering_is_a_permutation() {
        let m = generators::perturbed_grid(17, 13, 0.3, 11);
        let p = morton_ordering(m.coords());
        assert_eq!(p.len(), m.num_vertices());
        let mut ids = p.new_to_old().to_vec();
        ids.sort_unstable();
        assert!(ids.iter().enumerate().all(|(i, &v)| v == i as u32));
    }

    #[test]
    fn ordering_clusters_neighbours_better_than_random() {
        use crate::metrics::layout_stats_permuted;
        use crate::traversals::random_ordering;
        use lms_mesh::Adjacency;
        let m = generators::perturbed_grid(24, 24, 0.3, 2);
        let adj = Adjacency::build(&m);
        let zorder = layout_stats_permuted(&m, &adj, &morton_ordering(m.coords())).mean_span;
        let random =
            layout_stats_permuted(&m, &adj, &random_ordering(m.num_vertices(), 3)).mean_span;
        assert!(zorder * 3.0 < random, "morton {zorder} vs random {random}");
    }

    #[test]
    fn degenerate_inputs() {
        assert!(morton_ordering(&[]).is_empty());
        // all points coincident: identity by tie-break
        let pts = vec![Point2::new(1.0, 2.0); 5];
        assert!(morton_ordering(&pts).is_identity());
    }
}
