//! The 2D Hilbert curve: the cell index behind `OrderingKind::Hilbert` on
//! triangle meshes ([`crate::sfc`] quantises and sorts).

/// Bits per axis of the 2D curve grids (2^16 × 2^16 cells), Hilbert's and
/// [`crate::morton`]'s alike, so the two curves are compared on the exact
/// same quantisation.
pub(crate) const ORDER: u32 = 16;

/// Map grid cell `(x, y)` (each `< 2^ORDER`) to its distance along the
/// Hilbert curve. Classic bit-twiddling transform (Wikipedia `xy2d`).
pub fn hilbert_d(mut x: u32, mut y: u32) -> u64 {
    let n: u32 = 1 << ORDER;
    debug_assert!(x < n && y < n);
    let mut d: u64 = 0;
    let mut s: u32 = n / 2;
    while s > 0 {
        let rx = u32::from((x & s) > 0);
        let ry = u32::from((y & s) > 0);
        d += (s as u64) * (s as u64) * ((3 * rx) ^ ry) as u64;
        // rotate/flip the quadrant so recursion sees canonical orientation
        if ry == 0 {
            if rx == 1 {
                x = n - 1 - x;
                y = n - 1 - y;
            }
            std::mem::swap(&mut x, &mut y);
        }
        s /= 2;
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::permutation::Permutation;
    use crate::sfc::sfc_ordering;
    use lms_mesh::{generators, Point2};

    fn hilbert_ordering(coords: &[Point2]) -> Permutation {
        sfc_ordering(coords, ORDER, |[x, y]| hilbert_d(x, y))
    }

    #[test]
    fn hilbert_d_on_2x2_quadrants() {
        // For a curve of order 16, the four top-level quadrants are visited
        // in the order (0,0) → (0,1) → (1,1) → (1,0) or a rotation thereof;
        // all four corner cells must receive distinct quarter-of-range ids.
        let q = 1u32 << 15;
        let ids = [hilbert_d(0, 0), hilbert_d(0, q), hilbert_d(q, q), hilbert_d(q, 0)];
        let mut sorted = ids;
        sorted.sort_unstable();
        for w in sorted.windows(2) {
            assert!(w[0] != w[1], "quadrant ids must differ: {ids:?}");
        }
    }

    #[test]
    fn hilbert_d_is_injective_on_a_small_grid() {
        let mut seen = std::collections::HashSet::new();
        for x in 0..16u32 {
            for y in 0..16u32 {
                // spread the small grid across the full order-16 domain
                assert!(seen.insert(hilbert_d(x << 12, y << 12)), "collision at ({x},{y})");
            }
        }
    }

    #[test]
    fn ordering_is_a_permutation() {
        let m = generators::perturbed_grid(10, 10, 0.3, 4);
        let p = hilbert_ordering(m.coords());
        assert_eq!(p.len(), m.num_vertices());
        let mut all = p.new_to_old().to_vec();
        all.sort_unstable();
        let expect: Vec<u32> = (0..m.num_vertices() as u32).collect();
        assert_eq!(all, expect);
    }

    #[test]
    fn nearby_points_get_nearby_positions() {
        // On a structured grid, the average |position difference| between
        // geometric neighbours must be far below the random expectation n/3.
        let m = generators::structured_grid(24, 24);
        let p = hilbert_ordering(m.coords());
        let pos = p.old_to_new();
        let n = m.num_vertices() as f64;
        let mean_gap: f64 = m
            .edges()
            .iter()
            .map(|&(a, b)| (pos[a as usize] as f64 - pos[b as usize] as f64).abs())
            .sum::<f64>()
            / m.edges().len() as f64;
        assert!(mean_gap < n / 10.0, "mean neighbour gap {mean_gap} too large");
    }

    #[test]
    fn degenerate_inputs() {
        assert!(hilbert_ordering(&[]).is_empty());
        let p = hilbert_ordering(&[Point2::new(1.0, 1.0)]);
        assert_eq!(p.len(), 1);
        // identical points: still a permutation
        let p = hilbert_ordering(&[Point2::ZERO; 5]);
        assert_eq!(p.len(), 5);
    }
}
