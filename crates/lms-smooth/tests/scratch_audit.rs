//! The sweep scratch-reuse audit: hot-loop buffers grow on first use and
//! never again, so the process-global [`lms_smooth::scratch_grow_count`]
//! must not scale with the number of sweeps. We measure the growth of a
//! short run and a much longer run over identical engine configurations —
//! the deltas must be equal: every reallocation happens during setup /
//! first-sweep warm-up, zero in steady state.
//!
//! This lives in its own integration-test file on purpose: the counter is
//! process-global, so it must not race with unrelated tests. Keep the
//! file to this single test function.

use lms_part::PartitionMethod;
use lms_smooth::{scratch_grow_count, ResidentEngine, SmoothEngine, SmoothParams, UpdateScheme};

fn growth_of(run: impl FnOnce()) -> u64 {
    let before = scratch_grow_count();
    run();
    scratch_grow_count() - before
}

#[test]
fn steady_state_sweeps_do_not_reallocate() {
    let mesh = lms_mesh::generators::perturbed_grid(40, 40, 0.35, 42);
    let base = SmoothParams::paper().with_smart(true).with_tol(-1.0);

    // growth of a 12-sweep run == growth of a 3-sweep run, for every smart
    // instantiation of the sweep step (serial Gauss–Seidel and Jacobi, the
    // resident ranks; batched and scalar scoring) and the plain resident
    // sweep
    let jacobi = base.clone().with_update(UpdateScheme::Jacobi);
    let scalar = base.clone().with_scalar_scoring(true);
    let plain = base.clone().with_smart(false);
    let run = |resident: bool, params: &SmoothParams, iters: usize| {
        let params = params.clone().with_max_iters(iters);
        if resident {
            ResidentEngine::by_method(&mesh, params, 4, PartitionMethod::Rcb)
                .smooth(&mut mesh.clone(), 2);
        } else {
            SmoothEngine::new(&mesh, params).smooth(&mut mesh.clone());
        }
    };
    for (label, resident, params) in [
        ("serial smart", false, &base),
        ("serial smart Jacobi", false, &jacobi),
        ("serial scalar scoring", false, &scalar),
        ("resident smart", true, &base),
        ("resident scalar scoring", true, &scalar),
        ("resident plain", true, &plain),
    ] {
        let short = growth_of(|| run(resident, params, 3));
        let long = growth_of(|| run(resident, params, 12));
        assert_eq!(
            short, long,
            "{label}: sweep scratch grew with sweep count: {short} grows in 3 sweeps \
             vs {long} in 12 — steady-state sweeps must not reallocate"
        );
    }

    // repeat runs on one engine: no growth at all after the first run
    let engine =
        ResidentEngine::by_method(&mesh, base.clone().with_max_iters(3), 4, PartitionMethod::Rcb);
    engine.smooth(&mut mesh.clone(), 2); // warm-up pays all growth
    let first = growth_of(|| {
        engine.smooth(&mut mesh.clone(), 2);
    });
    let second = growth_of(|| {
        engine.smooth(&mut mesh.clone(), 2);
    });
    assert_eq!(
        first, second,
        "repeat smooths on a warmed engine must reallocate identically \
         (expected a fixed per-run setup cost, got {first} then {second})"
    );
}
