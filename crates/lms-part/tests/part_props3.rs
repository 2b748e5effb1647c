//! Partition invariants on tetrahedral meshes, across every method and
//! arbitrary perturbed tet grids — the checks `props.rs` runs on triangle
//! meshes — plus the volume balance of the measure-weighted RCB splitter.

mod partition_checks;

use lms_mesh3d::{Adjacency3, Point3, TetMesh};
use lms_order::OrderMesh;
use lms_part::{partition_mesh, Partition, PartitionMethod};
use partition_checks::*;
use proptest::prelude::*;

fn arb_mesh() -> impl Strategy<Value = TetMesh> {
    (3usize..8, 3usize..8, 3usize..8, 0u64..1000, 0..40u32).prop_map(|(nx, ny, nz, seed, jit)| {
        lms_mesh3d::generators::perturbed_tet_grid(nx, ny, nz, jit as f64 / 100.0, seed)
    })
}

partition_properties!(arb_mesh(), 24);

/// The volume-weighted splitter must beat count-balanced RCB on per-part
/// volume balance for a graded mesh (z-coordinates pushed through z³).
#[test]
fn weighted_rcb3_balances_volume_on_graded_meshes() {
    let m = lms_mesh3d::generators::perturbed_tet_grid(10, 10, 10, 0.0, 0);
    let (coords, tets) = m.into_parts();
    let graded: Vec<Point3> =
        coords.into_iter().map(|p| Point3::new(p.x, p.y, p.z * p.z * p.z)).collect();
    let m = TetMesh::new(graded, tets).unwrap();
    let adj = Adjacency3::build(&m);
    let weights = m.measure_weights(&adj);
    let total: f64 = weights.iter().sum();
    let k = 4usize;
    let max_share = |part: &Partition| -> f64 {
        let mut per = vec![0.0f64; k];
        for (v, &w) in weights.iter().enumerate() {
            per[part.part_of(v as u32) as usize] += w;
        }
        per.iter().copied().fold(0.0, f64::max)
    };
    let weighted = partition_mesh(&m, &adj, k, PartitionMethod::RcbWeighted);
    let unweighted = partition_mesh(&m, &adj, k, PartitionMethod::Rcb);
    let mean = total / k as f64;
    let wi = max_share(&weighted) / mean;
    let ui = max_share(&unweighted) / mean;
    assert!(wi < 1.3, "weighted volume imbalance {wi:.3}");
    assert!(wi < ui, "weighted ({wi:.3}) must beat count-balanced rcb ({ui:.3}) on volume");
}
