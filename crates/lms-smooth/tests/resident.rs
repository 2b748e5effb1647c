//! Property tests for the resident halo-exchange engine:
//!
//! * bitwise determinism (coordinates **and** reports, exchange counters
//!   included) across thread counts {1, 2, 4};
//! * exact coordinate equivalence with serial Gauss–Seidel under the
//!   part-major visit order — across parts {2, 4, 8}, smart and plain,
//!   every partition method;
//! * the residency invariant: one full gather, one full scatter,
//!   whatever the sweep count — everything in between is halo deltas;
//! * per-run halo traffic is bounded by the static schedule
//!   (moved-restriction can only shrink a round below `num_entries`).

use lms_mesh::TriMesh;
use lms_part::PartitionMethod;
use lms_smooth::checks;
use lms_smooth::{ResidentEngine, SmoothEngine, SmoothParams};
use proptest::prelude::*;

fn arb_mesh() -> impl Strategy<Value = TriMesh> {
    (5usize..14, 5usize..14, 0u64..1000, 0..40u32).prop_map(|(nx, ny, seed, jit)| {
        lms_mesh::generators::perturbed_grid(nx, ny, jit as f64 / 100.0, seed)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Bitwise determinism: 1, 2 and 4 threads produce identical
    /// coordinates and identical reports (exchange accounting included),
    /// smart and plain alike, for every partition method.
    #[test]
    fn resident_is_bitwise_deterministic_across_threads(
        mesh in arb_mesh(), smart in any::<bool>(), iters in 1usize..5,
        k in 2usize..9, method_ix in 0usize..4,
    ) {
        let params = SmoothParams::paper().with_smart(smart).with_max_iters(iters);
        checks::resident_is_deterministic_across_threads::<3, 2, TriMesh>(
            &mesh, params, k, PartitionMethod::ALL[method_ix],
        );
    }

    /// The resident sweep is *exactly* serial Gauss–Seidel under the
    /// part-major visit order — coordinates match bit for bit. Tolerance
    /// disabled to pin the sweep count (the running-sum fold order
    /// differs in ulps; see the module docs).
    #[test]
    fn resident_equals_serial_part_major_order(
        mesh in arb_mesh(), smart in any::<bool>(), iters in 1usize..5,
        k in 2usize..9, method_ix in 0usize..4,
    ) {
        let params = SmoothParams::paper()
            .with_smart(smart)
            .with_max_iters(iters)
            .with_tol(-1.0);
        checks::resident_equals_serial_part_major_order(
            &mesh, params, k, PartitionMethod::ALL[method_ix], 4,
        );
    }

    /// The residency invariant: one full gather, one full scatter, one
    /// exchange round per color step — for any sweep count. Per-round
    /// traffic never exceeds the static schedule size.
    #[test]
    fn residency_invariant_holds_for_any_sweep_count(
        mesh in arb_mesh(), smart in any::<bool>(), iters in 1usize..7,
        k in 2usize..6,
    ) {
        let params = SmoothParams::paper()
            .with_smart(smart)
            .with_max_iters(iters)
            .with_tol(-1.0);
        checks::residency_invariant_holds(&mesh, params, k);
    }

    /// The resident engine reaches the same Gauss–Seidel fixed point as
    /// the serial engine (the visit order cannot change the fixed point).
    #[test]
    fn resident_reaches_the_gauss_seidel_fixed_point(
        seed in 0u64..200, k in 2usize..6,
    ) {
        let mesh = lms_mesh::generators::perturbed_grid(10, 10, 0.25, seed);
        let params = SmoothParams::paper().with_tol(-1.0).with_max_iters(3000);
        let engine = ResidentEngine::by_method(&mesh, params.clone(), k, PartitionMethod::Rcb);
        let mut a = mesh.clone();
        let ra = engine.smooth(&mut a, 2);
        let mut b = mesh.clone();
        let rb = SmoothEngine::new(&mesh, params).smooth(&mut b);
        prop_assert!(
            (ra.final_quality - rb.final_quality).abs() < 1e-12,
            "resident {} vs serial {}", ra.final_quality, rb.final_quality
        );
    }
}

/// The suite meshes (scaled down): the resident engine matches serial
/// bit for bit beyond perturbed grids, and its per-iteration quality
/// statistic tracks the serial engine's to ulp precision.
#[test]
fn resident_equivalence_on_generator_suite() {
    for spec in lms_mesh::suite::SUITE.iter().take(4) {
        let mesh = lms_mesh::suite::generate(spec, 0.004);
        let params = SmoothParams::paper().with_smart(true).with_max_iters(4).with_tol(-1.0);
        let resident = ResidentEngine::by_method(&mesh, params.clone(), 4, PartitionMethod::Rcb);

        let mut par = mesh.clone();
        let rr = resident.smooth(&mut par, 3);
        let order = resident.part_major_visit_order();
        let serial = SmoothEngine::new(&mesh, params).with_visit_order(order);
        let mut ser = mesh.clone();
        let rs = serial.smooth(&mut ser);
        assert_eq!(par.coords(), ser.coords(), "{}: diverged from serial", spec.name);

        assert_eq!(rr.num_iterations(), rs.num_iterations(), "{}", spec.name);
        for (a, b) in rr.iterations.iter().zip(&rs.iterations) {
            assert!(
                (a.quality - b.quality).abs() <= 1e-12 * (1.0 + b.quality.abs()),
                "{}: iteration quality diverged beyond ulps: {} vs {}",
                spec.name,
                a.quality,
                b.quality
            );
        }
        assert_eq!(rr.final_quality.to_bits(), rs.final_quality.to_bits(), "{}", spec.name);
    }
}

/// Thread-pool reuse regression: after the first run at a thread count,
/// further runs on the same engine spawn no OS threads at all.
#[test]
fn engine_runs_spawn_threads_once() {
    let mesh = lms_mesh::generators::perturbed_grid(16, 16, 0.3, 7);
    let params = SmoothParams::paper().with_smart(true).with_max_iters(3).with_tol(-1.0);
    let engine = ResidentEngine::by_method(&mesh, params, 4, PartitionMethod::Rcb);
    // the first run pays the one-time spawn for this engine's pool
    checks::spawns_threads_once(|| {
        engine.smooth(&mut mesh.clone(), 3);
    });
}
