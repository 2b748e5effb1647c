//! The partitioners: geometric k-way RCB and space-filling-curve
//! chunking over the Hilbert / Morton orders, written once for any
//! [`OrderMesh`] — triangle and tetrahedral meshes alike.
//!
//! Both families are **deterministic** and produce balanced parts (sizes
//! within one of each other): RCB splits recursively at coordinate
//! medians, SFC chunking walks the curve order and cuts it into `k`
//! equal-length runs — the 1D analogue of the curve's locality argument,
//! so each run is a compact blob too.

use crate::partition::Partition;
use lms_order::{
    compute_ordering, rcb_parts, rcb_parts_weighted, OrderMesh, OrderingKind, Permutation,
};

/// The geometric partitioners `lms-part` implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionMethod {
    /// Balanced k-way recursive coordinate bisection
    /// ([`lms_order::rcb_parts`]).
    Rcb,
    /// Measure-weighted k-way RCB ([`lms_order::rcb_parts_weighted`]):
    /// splits at the **weighted median** with each vertex weighted by its
    /// share of the incident element area or volume
    /// ([`OrderMesh::measure_weights`]), so k-way balance holds under
    /// non-uniform vertex densities. Through the coordinates-only
    /// [`partition_coords`] the weights are uniform and the method
    /// degenerates to [`Rcb`](Self::Rcb) exactly.
    RcbWeighted,
    /// Equal-size chunks of the Hilbert-curve order.
    Hilbert,
    /// Equal-size chunks of the Morton (Z-order) curve order.
    Morton,
}

impl PartitionMethod {
    /// Short lowercase name for reports and CLIs.
    pub fn name(self) -> &'static str {
        match self {
            PartitionMethod::Rcb => "rcb",
            PartitionMethod::RcbWeighted => "rcbw",
            PartitionMethod::Hilbert => "hilbert",
            PartitionMethod::Morton => "morton",
        }
    }

    /// Parse a CLI name.
    pub fn parse(name: &str) -> Option<PartitionMethod> {
        Some(match name.to_ascii_lowercase().as_str() {
            "rcb" | "bisection" => PartitionMethod::Rcb,
            "rcbw" | "rcb-weighted" | "weighted" => PartitionMethod::RcbWeighted,
            "hilbert" | "sfc" => PartitionMethod::Hilbert,
            "morton" | "zorder" => PartitionMethod::Morton,
            _ => return None,
        })
    }

    /// Every implemented method.
    pub const ALL: [PartitionMethod; 4] = [
        PartitionMethod::Rcb,
        PartitionMethod::RcbWeighted,
        PartitionMethod::Hilbert,
        PartitionMethod::Morton,
    ];
}

/// Per-vertex *measured-cost* weights from a profiled warm-up run: every
/// vertex inherits its part's measured sweep time divided by the part's
/// vertex count — the empirical nanoseconds-per-vertex of the region it
/// currently lives in. Feeding these into
/// [`lms_order::rcb_parts_weighted`] splits at *cost* medians instead of
/// count medians, so the repartition equalises measured work even when
/// per-vertex cost varies across the domain (graded meshes: interior
/// valence, cache behaviour and interface density all shift with vertex
/// density). Parts with no vertices weigh zero.
pub fn measured_vertex_weights(
    assignment: &[u32],
    num_parts: usize,
    per_part_sweep_ns: &[u64],
) -> Vec<f64> {
    assert_eq!(per_part_sweep_ns.len(), num_parts, "one sweep time per part");
    let mut counts = vec![0usize; num_parts];
    for &p in assignment {
        counts[p as usize] += 1;
    }
    let per_vertex: Vec<f64> = (0..num_parts)
        .map(|p| if counts[p] == 0 { 0.0 } else { per_part_sweep_ns[p] as f64 / counts[p] as f64 })
        .collect();
    assignment.iter().map(|&p| per_vertex[p as usize]).collect()
}

/// Re-partition `mesh` using measured per-part sweep times from a
/// profiled warm-up run on `partition` — the *measured repartition* that
/// closes the observability loop: profile → weight → re-split. The new
/// decomposition splits at measured-cost medians
/// ([`measured_vertex_weights`]); it is deterministic given the same
/// timings and independent of the old partition's shape beyond the
/// per-part cost attribution.
pub fn repartition_measured<const D: usize, M: OrderMesh<D>>(
    mesh: &M,
    adj: &M::Adjacency,
    partition: &Partition,
    per_part_sweep_ns: &[u64],
) -> Partition {
    let k = partition.num_parts() as usize;
    let weights = measured_vertex_weights(partition.assignment(), k, per_part_sweep_ns);
    let assignment = rcb_parts_weighted(mesh.coords(), &weights, k);
    Partition::from_assignment(adj, assignment, k as u32)
}

/// Chunk an ordering into `k` balanced contiguous runs: the vertex at
/// curve position `pos` goes to part `pos·k / n` (sizes within one).
fn sfc_chunk_assignment(perm: &Permutation, k: usize) -> Vec<u32> {
    let n = perm.len();
    let mut part = vec![0u32; n];
    for (pos, &old) in perm.new_to_old().iter().enumerate() {
        part[old as usize] = (pos * k / n) as u32;
    }
    part
}

/// The per-vertex part assignment of `method` from `mesh`'s coordinates
/// alone, in either dimension: k-way RCB, or balanced chunks of the
/// Hilbert / Morton ordering.
pub fn partition_coords<const D: usize, M: OrderMesh<D>>(
    mesh: &M,
    num_parts: usize,
    method: PartitionMethod,
) -> Vec<u32> {
    assert!(num_parts >= 1, "need at least one part");
    if mesh.num_vertices() == 0 {
        return Vec::new();
    }
    let chunks = |kind| sfc_chunk_assignment(&compute_ordering(mesh, kind), num_parts);
    match method {
        // no weights asked for: uniform, i.e. exactly Rcb
        PartitionMethod::Rcb | PartitionMethod::RcbWeighted => rcb_parts(mesh.coords(), num_parts),
        PartitionMethod::Hilbert => chunks(OrderingKind::Hilbert),
        PartitionMethod::Morton => chunks(OrderingKind::Morton),
    }
}

/// Partition `mesh` into `num_parts` parts with `method`, building the
/// full interface/halo decomposition over `adj` — one body for triangle
/// and tetrahedral meshes. [`PartitionMethod::RcbWeighted`] splits at
/// measure-weighted medians here (it has elements to take areas or
/// volumes from); every other method matches [`partition_coords`].
pub fn partition_mesh<const D: usize, M: OrderMesh<D>>(
    mesh: &M,
    adj: &M::Adjacency,
    num_parts: usize,
    method: PartitionMethod,
) -> Partition {
    let assignment = if method == PartitionMethod::RcbWeighted {
        rcb_parts_weighted(mesh.coords(), &mesh.measure_weights(adj), num_parts)
    } else {
        partition_coords(mesh, num_parts, method)
    };
    Partition::from_assignment(adj, assignment, num_parts as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lms_mesh::{generators, Adjacency, Point2, TriMesh};

    #[test]
    fn all_methods_are_balanced_and_deterministic() {
        let m = generators::perturbed_grid(18, 15, 0.35, 4);
        for method in PartitionMethod::ALL {
            for k in [1usize, 2, 5, 8] {
                let a = partition_coords(&m, k, method);
                let b = partition_coords(&m, k, method);
                assert_eq!(a, b, "{} k={k} not deterministic", method.name());
                let mut sizes = vec![0usize; k];
                for &p in &a {
                    sizes[p as usize] += 1;
                }
                let (lo, hi) = (*sizes.iter().min().unwrap(), *sizes.iter().max().unwrap());
                assert!(hi - lo <= 1, "{} k={k}: sizes {sizes:?}", method.name());
            }
        }
    }

    #[test]
    fn names_roundtrip() {
        for method in PartitionMethod::ALL {
            assert_eq!(PartitionMethod::parse(method.name()), Some(method));
        }
        assert_eq!(PartitionMethod::parse("nope"), None);
    }

    #[test]
    fn sfc_parts_are_contiguous_on_the_curve() {
        let m = generators::perturbed_grid(16, 16, 0.3, 2);
        let perm = compute_ordering(&m, OrderingKind::Hilbert);
        let part = partition_coords(&m, 4, PartitionMethod::Hilbert);
        // walking the curve, the part id never decreases
        let walked: Vec<u32> = perm.new_to_old().iter().map(|&v| part[v as usize]).collect();
        assert!(walked.windows(2).all(|w| w[0] <= w[1]));
    }

    /// A strongly graded mesh: grid x-coordinates pushed through x³, so
    /// vertex density (and per-vertex area share) varies by orders of
    /// magnitude across the domain.
    fn graded_mesh() -> TriMesh {
        let m = generators::perturbed_grid(24, 24, 0.0, 0);
        let (coords, tris) = m.into_parts();
        let graded: Vec<Point2> =
            coords.into_iter().map(|p| Point2::new(p.x * p.x * p.x, p.y)).collect();
        TriMesh::new(graded, tris).unwrap()
    }

    #[test]
    fn weighted_rcb_balances_area_on_graded_meshes() {
        let m = graded_mesh();
        let adj = Adjacency::build(&m);
        let weights = m.measure_weights(&adj);
        let total: f64 = weights.iter().sum();
        let k = 4usize;
        let area_of = |part: &Partition| -> f64 {
            let mut per = vec![0.0f64; k];
            for (v, &w) in weights.iter().enumerate() {
                per[part.part_of(v as u32) as usize] += w;
            }
            per.iter().copied().fold(0.0, f64::max)
        };
        let weighted = partition_mesh(&m, &adj, k, PartitionMethod::RcbWeighted);
        let unweighted = partition_mesh(&m, &adj, k, PartitionMethod::Rcb);
        let mean = total / k as f64;
        let wi = area_of(&weighted) / mean;
        let ui = area_of(&unweighted) / mean;
        assert!(wi < 1.3, "weighted area imbalance {wi:.3}");
        assert!(wi < ui, "weighted ({wi:.3}) must beat count-balanced rcb ({ui:.3}) on area");
    }

    #[test]
    fn weighted_rcb_equals_rcb_through_the_point_api() {
        // partition_coords has no areas to weight by: its RcbWeighted is
        // the weighted splitter under uniform weights, which is Rcb
        let m = generators::perturbed_grid(18, 15, 0.35, 4);
        let uniform = rcb_parts_weighted(m.coords(), &vec![1.0; m.num_vertices()], 6);
        assert_eq!(partition_coords(&m, 6, PartitionMethod::RcbWeighted), uniform);
        assert_eq!(partition_coords(&m, 6, PartitionMethod::Rcb), uniform);
    }

    #[test]
    fn measured_weights_attribute_part_cost_per_vertex() {
        // 6 vertices, 2 parts: part 0 {0,1,2} took 300ns, part 1 {3,4,5}
        // took 600ns — so 100ns and 200ns per vertex respectively
        let assignment = [0u32, 0, 0, 1, 1, 1];
        let w = measured_vertex_weights(&assignment, 2, &[300, 600]);
        assert_eq!(w, vec![100.0, 100.0, 100.0, 200.0, 200.0, 200.0]);
        // an empty part contributes zero weight, not NaN
        let w = measured_vertex_weights(&[1u32, 1], 2, &[500, 80]);
        assert_eq!(w, vec![40.0, 40.0]);
    }

    #[test]
    fn measured_repartition_shifts_vertices_toward_cheap_regions() {
        // skew the measured cost: part holding the small-x (dense) half is
        // reported 9x slower, so the repartition must shrink it
        let m = graded_mesh();
        let adj = Adjacency::build(&m);
        let k = 4usize;
        let before = partition_mesh(&m, &adj, k, PartitionMethod::Rcb);
        // synthesize "measured" times: charge part p its vertex count
        // times a density factor (small-x parts cost more per vertex)
        let mut cost = vec![0u64; k];
        for (v, &p) in before.assignment().iter().enumerate() {
            let x = m.coords()[v].x;
            let per_vertex = if x < 0.1 { 900 } else { 100 };
            cost[p as usize] += per_vertex;
        }
        let after = repartition_measured(&m, &adj, &before, &cost);
        assert_eq!(after.num_parts(), k as u32);
        // deterministic
        let again = repartition_measured(&m, &adj, &before, &cost);
        assert_eq!(after.assignment(), again.assignment());
        // the measured-cost imbalance (charging the same synthetic cost
        // model to the new parts) must narrow strictly
        let spread = |part: &Partition| -> (u64, u64) {
            let mut per = vec![0u64; k];
            for (v, &p) in part.assignment().iter().enumerate() {
                let x = m.coords()[v].x;
                per[p as usize] += if x < 0.1 { 900 } else { 100 };
            }
            (*per.iter().min().unwrap(), *per.iter().max().unwrap())
        };
        let (blo, bhi) = spread(&before);
        let (alo, ahi) = spread(&after);
        assert!(
            ahi - alo < bhi - blo,
            "measured repartition must narrow the cost spread: {blo}..{bhi} -> {alo}..{ahi}"
        );
    }

    #[test]
    fn geometric_partitions_have_small_cut() {
        // any geometric method must beat a round-robin assignment on cut
        let m = generators::perturbed_grid(24, 24, 0.3, 6);
        let adj = Adjacency::build(&m);
        let round_robin: Vec<u32> = (0..m.num_vertices() as u32).map(|v| v % 4).collect();
        let rr = Partition::from_assignment(&adj, round_robin, 4).edge_cut();
        for method in PartitionMethod::ALL {
            let cut = partition_mesh(&m, &adj, 4, method).edge_cut();
            assert!(cut * 4 < rr, "{}: cut {cut} vs round-robin {rr}", method.name());
        }
    }
}
