//! The drive loop over the in-process transport is the resident engine:
//! `drive_resident_ft` over [`InProcessTransport`] must equal the plain
//! drive, `ResidentEngine::smooth`, bit for bit — coordinates and report
//! — at every checkpoint cadence, so the checkpoint calls, snapshots and
//! the one-slot pending-snapshot queue are arithmetic-free on the
//! failure-free path. This is what makes `drive_resident_ft` safe to put
//! under every distributed run, and what makes the in-process transport
//! a sound degradation target when rank processes cannot be spawned.

use lms_part::PartitionMethod;
use lms_smooth::{drive_resident_ft, FtPolicy, InProcessTransport, ResidentEngine, SmoothParams};

fn run_both(checkpoint_every: usize, max_iters: usize) {
    let mesh = lms_mesh::generators::perturbed_grid(16, 14, 0.35, 7);
    let params = SmoothParams::paper().with_smart(true).with_max_iters(max_iters).with_tol(-1.0);
    let engine = ResidentEngine::by_method(&mesh, params, 4, PartitionMethod::Rcb);
    let (dom, cfg) = (engine.scoring(), engine.domain_config());
    let pool = rayon::ThreadPoolBuilder::new().num_threads(2).build().unwrap();

    let mut plain_mesh = mesh.clone();
    let plain_report = engine.smooth(&mut plain_mesh, 2);

    let mut ft_mesh = mesh.clone();
    let mut transport =
        InProcessTransport::new(&dom, &cfg, engine.blocks(), engine.exchange_schedule(), &pool);
    let policy = FtPolicy { checkpoint_every, ..FtPolicy::default() };
    let (ft_report, stats) = drive_resident_ft(
        &dom,
        &cfg,
        engine.inv_degrees(),
        engine.interface_classes().len(),
        &mut transport,
        ft_mesh.coords_mut(),
        &policy,
    )
    .unwrap_or_else(|never| match never {});

    assert_eq!(ft_mesh.coords(), plain_mesh.coords(), "checkpoint_every={checkpoint_every}");
    assert_eq!(ft_report, plain_report, "checkpoint_every={checkpoint_every}");
    assert!(stats.recoveries.is_empty());
    // one checkpoint per boundary the cadence selects, plus the final
    // boundary (counted once when it is also a cadence one)
    let expected = (1..=max_iters).filter(|i| *i == max_iters || i % checkpoint_every == 0).count();
    assert_eq!(stats.checkpoints, expected, "checkpoint_every={checkpoint_every}");
}

#[test]
fn ft_drive_is_bit_identical_to_plain_drive() {
    run_both(1, 4);
}

#[test]
fn checkpoint_cadence_does_not_change_the_answer() {
    run_both(1, 5);
    run_both(2, 5);
    run_both(3, 4);
    run_both(3, 5);
}
