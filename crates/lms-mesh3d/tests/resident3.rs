//! Property tests for the 3D resident halo-exchange engine — the
//! acceptance gate of the dimension-generic refactor:
//!
//! * 3D `ResidentEngine3` output is **bit-identical** to serial
//!   part-major 3D Gauss–Seidel, across threads {1, 2, 4} × parts
//!   {2, 4, 8}, smart and plain, every partition method;
//! * the residency invariant holds in 3D exactly as in 2D:
//!   `full_gathers == 1 && full_scatters == 1` for any sweep count, one
//!   exchange round per color step, per-round traffic bounded by the
//!   static schedule;
//! * repeated smooths on one engine spawn no further OS threads
//!   (persistent-pool regression, via `rayon::spawned_thread_count`).

use lms_mesh3d::{ResidentEngine3, SmoothParams3, TetMesh};
use lms_part::PartitionMethod;
use lms_smooth::checks;
use proptest::prelude::*;

fn arb_mesh() -> impl Strategy<Value = TetMesh> {
    (4usize..8, 4usize..8, 4usize..8, 0u64..1000, 0..40u32).prop_map(|(nx, ny, nz, seed, jit)| {
        lms_mesh3d::generators::perturbed_tet_grid(nx, ny, nz, jit as f64 / 100.0, seed)
    })
}

/// The acceptance part counts: {2, 4, 8}.
const PARTS: [usize; 3] = [2, 4, 8];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Bitwise determinism: 1, 2 and 4 threads produce identical
    /// coordinates and identical reports (exchange accounting included),
    /// smart and plain alike, for every partition method.
    #[test]
    fn resident3_is_bitwise_deterministic_across_threads(
        mesh in arb_mesh(), smart in any::<bool>(), iters in 1usize..4,
        k_ix in 0usize..3, method_ix in 0usize..4,
    ) {
        let params = SmoothParams3::paper().with_smart(smart).with_max_iters(iters);
        checks::resident_is_deterministic_across_threads::<4, 3, TetMesh>(
            &mesh, params, PARTS[k_ix], PartitionMethod::ALL[method_ix],
        );
    }

    /// The 3D resident sweep is *exactly* serial 3D Gauss–Seidel under
    /// the part-major visit order — coordinates match bit for bit across
    /// the acceptance grid of thread counts × part counts. Tolerance
    /// disabled to pin the sweep count (the running-sum fold order
    /// differs in ulps between engines).
    #[test]
    fn resident3_equals_serial_part_major_order(
        mesh in arb_mesh(), smart in any::<bool>(), iters in 1usize..4,
        k_ix in 0usize..3, method_ix in 0usize..4, threads_ix in 0usize..3,
    ) {
        let params = SmoothParams3::paper()
            .with_smart(smart)
            .with_max_iters(iters)
            .with_tol(-1.0);
        checks::resident_equals_serial_part_major_order(
            &mesh, params, PARTS[k_ix], PartitionMethod::ALL[method_ix], [1usize, 2, 4][threads_ix],
        );
    }

    /// The residency invariant in 3D: one full gather, one full scatter,
    /// one exchange round per color step — for any sweep count. Per-round
    /// traffic never exceeds the static schedule size.
    #[test]
    fn residency3_invariant_holds_for_any_sweep_count(
        mesh in arb_mesh(), smart in any::<bool>(), iters in 1usize..5,
        k_ix in 0usize..3,
    ) {
        let params = SmoothParams3::paper()
            .with_smart(smart)
            .with_max_iters(iters)
            .with_tol(-1.0);
        checks::residency_invariant_holds(&mesh, params, PARTS[k_ix]);
    }
}

/// Thread-pool reuse regression: after the first run at a thread count,
/// further runs on the same 3D engine spawn no OS threads at all.
#[test]
fn engine3_runs_spawn_threads_once() {
    let mesh = lms_mesh3d::generators::perturbed_tet_grid(6, 6, 6, 0.3, 7);
    let params = SmoothParams3::paper().with_smart(true).with_max_iters(2).with_tol(-1.0);
    let engine = ResidentEngine3::by_method(&mesh, params, 4, PartitionMethod::Rcb);
    // the first run pays the one-time spawn for this engine's pool
    checks::spawns_threads_once(|| {
        engine.smooth(&mut mesh.clone(), 3);
    });
}
