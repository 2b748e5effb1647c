//! Resident (halo-exchange) smoothing of tetrahedral meshes — the 3D
//! instantiation of `lms-smooth`'s dimension-generic resident engine.
//!
//! Nothing here sweeps, and nothing here wraps: [`ResidentEngine3`] *is*
//! [`lms_smooth::ResidentEngineOn`] over [`TetMesh`], whose
//! [`lms_smooth::SmoothMesh`] impl supplies the
//! [`TetDomain`](crate::domain::TetDomain) view, while the decomposition
//! comes from the one generic [`lms_part::partition_mesh`]. The resident
//! protocol — one full gather, moved-only halo-delta routing per
//! interface color step along the
//! [`lms_part::ExchangeSchedule`], one parallel disjoint scatter,
//! [`lms_smooth::ExchangeVolume`] accounting — and its
//! determinism/serial-equivalence guarantees are the 2D engine's, body
//! for body (property-tested in `tests/resident3.rs` against serial
//! part-major 3D Gauss–Seidel across thread counts and part counts).

use crate::mesh::TetMesh;

/// Resident-block halo-exchange smoothing of tetrahedral meshes: blocks
/// stay resident for the whole run, only moved halo deltas travel between
/// interface color steps, one disjoint scatter at the end
/// (`full_gathers == 1 && full_scatters == 1`).
pub type ResidentEngine3 = lms_smooth::ResidentEngineOn<4, 3, TetMesh>;

#[cfg(test)]
mod tests {
    use crate::generators::perturbed_tet_grid;
    use crate::smooth::{SmoothParams3, UpdateScheme3};
    use lms_smooth::checks;

    #[test]
    fn improves_quality_and_pins_boundary() {
        let m = perturbed_tet_grid(8, 8, 8, 0.4, 1);
        checks::resident_improves_quality_and_pins_boundary(&m, SmoothParams3::paper(), 4);
    }

    #[test]
    fn single_part_equals_serial_storage_order() {
        let m = perturbed_tet_grid(6, 5, 6, 0.35, 3);
        let params = SmoothParams3::paper().with_smart(true).with_max_iters(4).with_tol(-1.0);
        checks::resident_single_part_equals_serial_storage_order(&m, params);
    }

    #[test]
    fn rejects_jacobi_params() {
        let m = perturbed_tet_grid(4, 4, 4, 0.2, 1);
        let params = SmoothParams3::paper().with_update(UpdateScheme3::Jacobi);
        checks::resident_rejects_jacobi_params(&m, params);
    }

    #[test]
    fn part_major_order_covers_interior_once() {
        let m = perturbed_tet_grid(6, 7, 5, 0.3, 9);
        checks::part_major_order_covers_interior_once(&m, SmoothParams3::paper(), 5);
    }
}
