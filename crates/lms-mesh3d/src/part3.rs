//! Resident (halo-exchange) smoothing of tetrahedral meshes — the 3D
//! instantiation of `lms-smooth`'s dimension-generic resident engine.
//!
//! Nothing here sweeps, and nothing here wraps: [`ResidentEngine3`] *is*
//! [`lms_smooth::ResidentEngineOn`] over [`SmoothEngine3`], whose
//! [`lms_smooth::SerialHost`] impl supplies the
//! [`TetDomain`](crate::domain::TetDomain) view and the
//! [`partition_tet_mesh`](crate::domain::partition_tet_mesh)
//! decomposition. The resident protocol — one full gather, moved-only
//! halo-delta routing per interface color step along the
//! [`lms_part::ExchangeSchedule`], one parallel disjoint scatter,
//! [`lms_smooth::ExchangeVolume`] accounting — and its
//! determinism/serial-equivalence guarantees are the 2D engine's, body
//! for body (property-tested in `tests/resident3.rs` against serial
//! part-major 3D Gauss–Seidel across thread counts and part counts).

use crate::smooth::SmoothEngine3;

/// Resident-block halo-exchange smoothing of tetrahedral meshes: blocks
/// stay resident for the whole run, only moved halo deltas travel between
/// interface color steps, one disjoint scatter at the end
/// (`full_gathers == 1 && full_scatters == 1`).
pub type ResidentEngine3 = lms_smooth::ResidentEngineOn<4, SmoothEngine3>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::perturbed_tet_grid;
    use crate::smooth::{SmoothParams3, UpdateScheme3};
    use lms_part::PartitionMethod;

    #[test]
    fn improves_quality_and_pins_boundary() {
        let mut m = perturbed_tet_grid(8, 8, 8, 0.4, 1);
        let before = m.coords().to_vec();
        let engine =
            ResidentEngine3::by_method(&m, SmoothParams3::paper(), 4, PartitionMethod::Rcb);
        let report = engine.smooth(&mut m, 2);
        assert!(report.final_quality > report.initial_quality + 0.01);
        for v in engine.engine().boundary().boundary_vertices() {
            assert_eq!(m.coords()[v as usize], before[v as usize], "boundary vertex {v} moved");
        }
    }

    #[test]
    fn single_part_equals_serial_storage_order() {
        let m = perturbed_tet_grid(6, 5, 6, 0.35, 3);
        let params = SmoothParams3::paper().with_smart(true).with_max_iters(4).with_tol(-1.0);
        let engine = ResidentEngine3::by_method(&m, params.clone(), 1, PartitionMethod::Rcb);
        assert!(engine.interface_classes().is_empty());
        let mut a = m.clone();
        let report = engine.smooth(&mut a, 3);
        let mut b = m.clone();
        SmoothEngine3::new(&m, params).smooth(&mut b);
        assert_eq!(a.coords(), b.coords());
        let volume = report.exchange.unwrap();
        assert_eq!(volume.full_gathers, 1);
        assert_eq!(volume.full_scatters, 1);
        assert_eq!(volume.halo_entries_sent, 0, "one part has nothing to exchange");
    }

    #[test]
    fn rejects_jacobi_params() {
        let m = perturbed_tet_grid(4, 4, 4, 0.2, 1);
        let params = SmoothParams3::paper().with_update(UpdateScheme3::Jacobi);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ResidentEngine3::by_method(&m, params, 2, PartitionMethod::Rcb)
        }));
        assert!(r.is_err());
    }

    #[test]
    fn part_major_order_covers_interior_once() {
        let m = perturbed_tet_grid(6, 7, 5, 0.3, 9);
        let engine =
            ResidentEngine3::by_method(&m, SmoothParams3::paper(), 5, PartitionMethod::Hilbert);
        let order = engine.part_major_visit_order();
        assert_eq!(order.len(), engine.engine().boundary().num_interior());
        let mut seen = vec![false; m.num_vertices()];
        for &v in &order {
            assert!(engine.engine().boundary().is_interior(v));
            assert!(!seen[v as usize], "vertex {v} visited twice");
            seen[v as usize] = true;
        }
    }
}
