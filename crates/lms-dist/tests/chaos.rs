//! The chaos suite: deterministic fault injection against the
//! fault-tolerant distributed backend.
//!
//! Every scenario scripts a failure — a rank killed right before a
//! chosen protocol step, a stalled rank, a corrupted wire byte, a vetoed
//! spawn — and asserts the strongest property the design claims:
//! the failure is **detected** (typed diagnosis, never a hang), the run
//! **recovers** from the last checkpoint (or degrades to the in-process
//! engine), and the final coordinates *and* report are **bit-identical**
//! to a failure-free run. The kill matrix walks every (iteration ×
//! interior/color-step/finish) boundary in turn.

use lms_dist::{
    DistError, DistResidentEngine, DistResidentEngine3, FaultPlan, FaultPoint, FtOptions,
    ProcessTransport, Supervisor, TransportMode, INJECTED_KILL_EXIT,
};
use lms_mesh::TriMesh;
use lms_mesh3d::SmoothParams3;
use lms_part::PartitionMethod;
use lms_smooth::{FtPolicy, FtResidentTransport, SmoothParams, SmoothReport};

fn mesh_2d() -> TriMesh {
    lms_mesh::generators::perturbed_grid(18, 16, 0.35, 11)
}

fn params_2d(max_iters: usize) -> SmoothParams {
    SmoothParams::paper().with_smart(true).with_max_iters(max_iters).with_tol(-1.0)
}

fn options(faults: FaultPlan) -> FtOptions {
    FtOptions { read_timeout_ms: 5_000, faults, ..FtOptions::default() }
}

/// The failure-free reference: the wrapped in-process engine (already
/// pinned bit-identical to a failure-free distributed run by
/// `tests/oracle.rs`).
fn oracle_2d(engine: &DistResidentEngine, mesh: &TriMesh) -> (TriMesh, SmoothReport) {
    let mut local = mesh.clone();
    let report = engine.inner().smooth(&mut local, 2);
    (local, report)
}

#[test]
fn kill_matrix_2d_every_boundary_recovers_bit_identical() {
    let mesh = mesh_2d();
    let max_iters = 3u32;
    let engine = DistResidentEngine::by_method(
        &mesh,
        params_2d(max_iters as usize),
        4,
        PartitionMethod::Rcb,
    );
    let num_colors = engine.inner().interface_classes().len() as u32;
    let (oracle, oracle_report) = oracle_2d(&engine, &mesh);

    let mut points = Vec::new();
    for iter in 1..=max_iters {
        points.push(FaultPoint::Interior { iter });
        for color in 0..num_colors {
            points.push(FaultPoint::Color { iter, color });
        }
        points.push(FaultPoint::Finish { iter });
    }
    for (i, &point) in points.iter().enumerate() {
        let victim = (i % 4) as u32;
        let opts = options(FaultPlan::kill_at(victim, point));
        let mut work = mesh.clone();
        let (report, stats) = engine
            .smooth_ft(&mut work, &opts)
            .unwrap_or_else(|e| panic!("kill rank {victim} before {point:?}: {e}"));
        assert_eq!(
            work.coords(),
            oracle.coords(),
            "coords diverged after recovering a kill of rank {victim} before {point:?}"
        );
        assert_eq!(report, oracle_report, "report diverged: rank {victim}, {point:?}");
        assert_eq!(stats.recoveries.len(), 1, "exactly one recovery: rank {victim}, {point:?}");
        assert!(
            stats.recoveries[0].contains(&format!("rank {victim}"))
                && stats.recoveries[0].contains(&format!("exit code {INJECTED_KILL_EXIT}")),
            "diagnosis should name the victim and its exit: {:?}",
            stats.recoveries[0]
        );
    }
}

#[test]
fn kills_recover_across_part_counts_2d() {
    let mesh = mesh_2d();
    for parts in [2usize, 8] {
        let engine =
            DistResidentEngine::by_method(&mesh, params_2d(3), parts, PartitionMethod::Rcb);
        let (oracle, oracle_report) = oracle_2d(&engine, &mesh);
        for point in [
            FaultPoint::Interior { iter: 2 },
            FaultPoint::Color { iter: 2, color: 0 },
            FaultPoint::Finish { iter: 2 },
        ] {
            let victim = (parts - 1) as u32;
            let mut work = mesh.clone();
            let (report, stats) = engine
                .smooth_ft(&mut work, &options(FaultPlan::kill_at(victim, point)))
                .unwrap_or_else(|e| panic!("{parts} parts, {point:?}: {e}"));
            assert_eq!(work.coords(), oracle.coords(), "{parts} parts, {point:?}");
            assert_eq!(report, oracle_report, "{parts} parts, {point:?}");
            assert_eq!(stats.recoveries.len(), 1);
        }
    }
}

#[test]
fn kill_matrix_3d_recovers_bit_identical() {
    let mesh = lms_mesh3d::generators::perturbed_tet_grid(7, 6, 7, 0.35, 9);
    let max_iters = 2u32;
    let params =
        SmoothParams3::paper().with_smart(true).with_max_iters(max_iters as usize).with_tol(-1.0);
    let engine = DistResidentEngine3::by_method(&mesh, params, 4, PartitionMethod::Rcb);
    let num_colors = engine.inner().interface_classes().len() as u32;
    let mut oracle = mesh.clone();
    let oracle_report = engine.inner().smooth(&mut oracle, 2);

    let mut points = Vec::new();
    for iter in 1..=max_iters {
        points.push(FaultPoint::Interior { iter });
        points.push(FaultPoint::Color { iter, color: 0 });
        points.push(FaultPoint::Color { iter, color: num_colors - 1 });
        points.push(FaultPoint::Finish { iter });
    }
    for (i, &point) in points.iter().enumerate() {
        let victim = (i % 4) as u32;
        let mut work = mesh.clone();
        let (report, stats) = engine
            .smooth_ft(&mut work, &options(FaultPlan::kill_at(victim, point)))
            .unwrap_or_else(|e| panic!("3D kill rank {victim} before {point:?}: {e}"));
        assert_eq!(work.coords(), oracle.coords(), "3D coords: rank {victim}, {point:?}");
        assert_eq!(report, oracle_report, "3D report: rank {victim}, {point:?}");
        assert_eq!(stats.recoveries.len(), 1);
    }
}

#[test]
fn corrupted_wire_bytes_are_detected_and_recovered() {
    let mesh = mesh_2d();
    let engine = DistResidentEngine::by_method(&mesh, params_2d(3), 4, PartitionMethod::Rcb);
    let (oracle, oracle_report) = oracle_2d(&engine, &mesh);
    // first outgoing frame of rank 1, and a later frame of rank 2, each
    // with a different damaged byte offset
    for plan in [FaultPlan::corrupt(1, 0, 5), FaultPlan::corrupt(2, 3, 200)] {
        let mut work = mesh.clone();
        let (report, stats) = engine
            .smooth_ft(&mut work, &options(plan.clone()))
            .unwrap_or_else(|e| panic!("{plan:?}: {e}"));
        assert_eq!(work.coords(), oracle.coords(), "{plan:?}");
        assert_eq!(report, oracle_report, "{plan:?}");
        assert_eq!(stats.recoveries.len(), 1, "{plan:?}");
        assert!(
            stats.recoveries[0].contains("corrupt stream"),
            "diagnosis should blame the wire: {:?}",
            stats.recoveries[0]
        );
    }
}

#[test]
fn stall_past_the_read_timeout_is_detected_and_recovered() {
    let mesh = mesh_2d();
    let engine = DistResidentEngine::by_method(&mesh, params_2d(3), 4, PartitionMethod::Rcb);
    let (oracle, oracle_report) = oracle_2d(&engine, &mesh);
    // the stall (30s) dwarfs the read timeout (400ms): the coordinator
    // must diagnose the wedged rank and SIGKILL it rather than wait
    let opts = FtOptions {
        read_timeout_ms: 400,
        faults: FaultPlan::stall_at(1, FaultPoint::Color { iter: 2, color: 0 }, 30_000),
        ..FtOptions::default()
    };
    let mut work = mesh.clone();
    let (report, stats) = engine.smooth_ft(&mut work, &opts).expect("stall must be recoverable");
    assert_eq!(work.coords(), oracle.coords());
    assert_eq!(report, oracle_report);
    assert!(!stats.recoveries.is_empty());
    assert!(
        stats.recoveries.iter().any(|r| r.contains("stalled")),
        "diagnosis should call the rank stalled: {:?}",
        stats.recoveries
    );
}

#[test]
fn spawn_failure_degrades_to_the_in_process_engine() {
    let mesh = mesh_2d();
    let engine = DistResidentEngine::by_method(&mesh, params_2d(3), 4, PartitionMethod::Rcb);
    let (oracle, oracle_report) = oracle_2d(&engine, &mesh);

    // the typed error is surfaced...
    let mut work = mesh.clone();
    let err = engine.smooth_ft(&mut work, &options(FaultPlan::no_spawn())).unwrap_err();
    assert!(matches!(err, DistError::Spawn(_)), "got {err}");

    // ...and the graceful path computes the same answer in-process
    let mut degraded = mesh.clone();
    let report = engine.smooth_with(&mut degraded, &options(FaultPlan::no_spawn()));
    assert_eq!(degraded.coords(), oracle.coords());
    assert_eq!(report, oracle_report);
}

#[test]
fn two_temporally_separate_faults_consume_two_recoveries() {
    let mesh = mesh_2d();
    let engine = DistResidentEngine::by_method(&mesh, params_2d(3), 4, PartitionMethod::Rcb);
    let (oracle, oracle_report) = oracle_2d(&engine, &mesh);
    // rank 0 dies in global iteration 1; after that recovery, rank 1's
    // worker-local counter reaches 2 while *replaying* iteration 1 and
    // dies too — two distinct failures, two recoveries
    let plan = FaultPlan::kill_at(0, FaultPoint::Interior { iter: 1 })
        .with(1, lms_dist::WorkerFault::KillBefore { point: FaultPoint::Interior { iter: 2 } });
    let mut work = mesh.clone();
    let (report, stats) = engine.smooth_ft(&mut work, &options(plan)).expect("double fault");
    assert_eq!(work.coords(), oracle.coords());
    assert_eq!(report, oracle_report);
    assert_eq!(stats.recoveries.len(), 2, "{:?}", stats.recoveries);
}

#[test]
fn exhausted_recovery_budget_surfaces_the_typed_error_without_hanging() {
    let mesh = mesh_2d();
    let engine = DistResidentEngine::by_method(&mesh, params_2d(3), 4, PartitionMethod::Rcb);
    let opts = FtOptions {
        policy: FtPolicy { max_recoveries: 0, ..FtPolicy::default() },
        ..options(FaultPlan::kill_at(2, FaultPoint::Interior { iter: 1 }))
    };
    let mut work = mesh.clone();
    let err = engine.smooth_ft(&mut work, &opts).unwrap_err();
    match err {
        DistError::RankExited { rank, status } => {
            assert_eq!(rank, 2);
            assert_eq!(status.exit_code(), INJECTED_KILL_EXIT);
        }
        other => panic!("expected the rank-death diagnosis, got {other}"),
    }
}

#[test]
fn checkpoint_cadence_follows_the_policy() {
    let mesh = mesh_2d();
    let engine = DistResidentEngine::by_method(&mesh, params_2d(4), 4, PartitionMethod::Rcb);
    let (oracle, oracle_report) = oracle_2d(&engine, &mesh);

    // failure-free: boundaries at iterations 2 and 4 (the final boundary
    // is always checkpointed)
    let opts = FtOptions {
        policy: FtPolicy { checkpoint_every: 2, ..FtPolicy::default() },
        ..FtOptions::default()
    };
    let mut work = mesh.clone();
    let (report, stats) = engine.smooth_ft(&mut work, &opts).unwrap();
    assert_eq!(report, oracle_report);
    assert_eq!(stats.checkpoints, 2);
    assert!(stats.recoveries.is_empty());

    // a failure in iteration 4: checkpoint commits are deferred by one
    // boundary, so the iteration-2 round (issued but not yet committed
    // when the kill lands) is abandoned and the replay restarts from the
    // initial gather, re-checkpointing boundary 2 on the way — one extra
    // checkpoint, still bit-identical
    let opts = FtOptions {
        policy: FtPolicy { checkpoint_every: 2, ..FtPolicy::default() },
        ..options(FaultPlan::kill_at(3, FaultPoint::Interior { iter: 4 }))
    };
    let mut work = mesh.clone();
    let (report, stats) = engine.smooth_ft(&mut work, &opts).unwrap();
    assert_eq!(work.coords(), oracle.coords());
    assert_eq!(report, oracle_report);
    assert_eq!(stats.recoveries.len(), 1);
    assert_eq!(stats.checkpoints, 3);
}

/// The CI seed matrix: every seeded plan (kill or corruption, rank,
/// iteration and byte all derived from the seed) must leave the run
/// bit-identical to the failure-free oracle — whether or not the scripted
/// fault actually fires before the run completes.
#[test]
fn seeded_fault_matrix_is_bit_identical_to_the_oracle() {
    let mesh = mesh_2d();
    let engine = DistResidentEngine::by_method(&mesh, params_2d(3), 4, PartitionMethod::Rcb);
    let num_colors = engine.inner().interface_classes().len() as u32;
    let (oracle, oracle_report) = oracle_2d(&engine, &mesh);
    for seed in 1..=10u64 {
        let plan = FaultPlan::from_seed(seed, 4, 3, num_colors);
        let mut work = mesh.clone();
        let (report, stats) = engine
            .smooth_ft(&mut work, &options(plan.clone()))
            .unwrap_or_else(|e| panic!("seed {seed} ({plan:?}): {e}"));
        assert_eq!(work.coords(), oracle.coords(), "seed {seed} ({plan:?})");
        assert_eq!(report, oracle_report, "seed {seed} ({plan:?})");
        assert!(stats.recoveries.len() <= 1, "seed {seed}: {:?}", stats.recoveries);
    }
}

// ---------------------------------------------------------------------
// PR 8: the network-fault chaos matrix. Every cell below runs a scripted
// network failure over a chosen substrate and gates the result
// bit-identical (coords AND report) to the failure-free oracle.
// ---------------------------------------------------------------------

const ALL_MODES: [TransportMode; 3] =
    [TransportMode::Pipes, TransportMode::UnixSocket, TransportMode::TcpLoopback];

fn options_over(mode: TransportMode, faults: FaultPlan) -> FtOptions {
    FtOptions { mode, ..options(faults) }
}

/// The cross-transport fault matrix: {pipes, unix socket, tcp loopback}
/// × {kill, dropped connection, stall, corrupted wire byte}, every cell
/// detected, recovered, and bit-identical to the oracle. The dropped
/// connection is the network-native failure only PR 8 can script: the
/// worker closes its streams but **stays alive**, so the diagnosis must
/// be `ConnLost`, not a reaped exit.
#[test]
fn network_fault_matrix_2d_recovers_bit_identical() {
    let mesh = mesh_2d();
    let engine = DistResidentEngine::by_method(&mesh, params_2d(3), 4, PartitionMethod::Rcb);
    let (oracle, oracle_report) = oracle_2d(&engine, &mesh);
    let cells: [(FaultPlan, &str); 4] = [
        (FaultPlan::kill_at(1, FaultPoint::Color { iter: 2, color: 0 }), "exit code"),
        (FaultPlan::drop_conn_at(2, FaultPoint::Interior { iter: 2 }), "lost connection"),
        (FaultPlan::stall_at(1, FaultPoint::Color { iter: 2, color: 0 }, 30_000), "stalled"),
        (FaultPlan::corrupt(1, 3, 200), "corrupt stream"),
    ];
    for mode in ALL_MODES {
        for (plan, diagnosis) in &cells {
            let opts = FtOptions { read_timeout_ms: 1_000, ..options_over(mode, plan.clone()) };
            let mut work = mesh.clone();
            let (report, stats) = engine
                .smooth_ft(&mut work, &opts)
                .unwrap_or_else(|e| panic!("{mode:?} × {plan:?}: {e}"));
            assert_eq!(work.coords(), oracle.coords(), "coords: {mode:?} × {plan:?}");
            assert_eq!(report, oracle_report, "report: {mode:?} × {plan:?}");
            assert!(!stats.recoveries.is_empty(), "{mode:?} × {plan:?} must recover");
            assert!(
                stats.recoveries.iter().any(|r| r.contains(diagnosis)),
                "{mode:?} × {plan:?}: diagnosis should mention {diagnosis:?}, \
                 got {:?}",
                stats.recoveries
            );
        }
    }
}

/// The 3D slice of the matrix: one kill and one dropped connection per
/// socket family — the handshake, recovery reload, and coalesced halo
/// routing are all dimension-generic, so a thin slice pins the rest.
#[test]
fn network_fault_matrix_3d_recovers_bit_identical() {
    let mesh = lms_mesh3d::generators::perturbed_tet_grid(7, 6, 7, 0.35, 9);
    let params = SmoothParams3::paper().with_smart(true).with_max_iters(2).with_tol(-1.0);
    let engine = DistResidentEngine3::by_method(&mesh, params, 4, PartitionMethod::Rcb);
    let mut oracle = mesh.clone();
    let oracle_report = engine.inner().smooth(&mut oracle, 2);
    for mode in [TransportMode::UnixSocket, TransportMode::TcpLoopback] {
        for plan in [
            FaultPlan::kill_at(0, FaultPoint::Color { iter: 1, color: 0 }),
            FaultPlan::drop_conn_at(3, FaultPoint::Finish { iter: 1 }),
        ] {
            let mut work = mesh.clone();
            let (report, stats) = engine
                .smooth_ft(&mut work, &options_over(mode, plan.clone()))
                .unwrap_or_else(|e| panic!("3D {mode:?} × {plan:?}: {e}"));
            assert_eq!(work.coords(), oracle.coords(), "3D coords: {mode:?} × {plan:?}");
            assert_eq!(report, oracle_report, "3D report: {mode:?} × {plan:?}");
            assert_eq!(stats.recoveries.len(), 1, "3D {mode:?} × {plan:?}");
        }
    }
}

/// Maximal stream fragmentation — every worker frame delivered one byte
/// per syscall — must be **invisible**: the framing layer reassembles,
/// nothing is diagnosed, and the run is bit-identical with zero
/// recoveries. This is the network face of the satellite-2 short-write
/// hardening.
#[test]
fn short_writes_are_reassembled_invisibly_on_every_transport() {
    let mesh = mesh_2d();
    let engine = DistResidentEngine::by_method(&mesh, params_2d(3), 4, PartitionMethod::Rcb);
    let (oracle, oracle_report) = oracle_2d(&engine, &mesh);
    for mode in ALL_MODES {
        let mut work = mesh.clone();
        let (report, stats) = engine
            .smooth_ft(&mut work, &options_over(mode, FaultPlan::short_write(1)))
            .unwrap_or_else(|e| panic!("short-write over {mode:?}: {e}"));
        assert_eq!(work.coords(), oracle.coords(), "short-write coords over {mode:?}");
        assert_eq!(report, oracle_report, "short-write report over {mode:?}");
        assert!(stats.recoveries.is_empty(), "short writes must not trip recovery: {mode:?}");
    }
}

/// A peer that is merely *slow* — pausing before each frame but staying
/// under the read timeout — must not be mistaken for a stalled rank.
#[test]
fn slow_peer_below_the_timeout_is_not_diagnosed() {
    let mesh = mesh_2d();
    let engine = DistResidentEngine::by_method(&mesh, params_2d(2), 2, PartitionMethod::Rcb);
    let (oracle, oracle_report) = oracle_2d(&engine, &mesh);
    for mode in [TransportMode::UnixSocket, TransportMode::TcpLoopback] {
        let mut work = mesh.clone();
        let (report, stats) = engine
            .smooth_ft(&mut work, &options_over(mode, FaultPlan::slow_peer(1, 5)))
            .unwrap_or_else(|e| panic!("slow peer over {mode:?}: {e}"));
        assert_eq!(work.coords(), oracle.coords(), "slow-peer coords over {mode:?}");
        assert_eq!(report, oracle_report, "slow-peer report over {mode:?}");
        assert!(stats.recoveries.is_empty(), "a slow peer is not a fault: {mode:?}");
    }
}

/// A worker that never dials back surfaces as the typed
/// [`DistError::ConnRefused`] once the accept bound expires — and the
/// graceful path still computes the oracle answer in-process.
#[test]
fn refused_connection_surfaces_typed_error_and_degrades() {
    let mesh = mesh_2d();
    let engine = DistResidentEngine::by_method(&mesh, params_2d(3), 4, PartitionMethod::Rcb);
    let (oracle, oracle_report) = oracle_2d(&engine, &mesh);
    let opts = FtOptions {
        supervisor: Supervisor { accept_timeout_ms: 400, ..Supervisor::default() },
        ..options_over(TransportMode::TcpLoopback, FaultPlan::refuse(1))
    };
    let mut work = mesh.clone();
    let err = engine.smooth_ft(&mut work, &opts).unwrap_err();
    match &err {
        DistError::ConnRefused { attempts, .. } => assert!(*attempts >= 1),
        other => panic!("expected ConnRefused, got {other}"),
    }
    let mut degraded = mesh.clone();
    let report = engine.smooth_with(&mut degraded, &opts);
    assert_eq!(degraded.coords(), oracle.coords());
    assert_eq!(report, oracle_report);
}

/// Satellite 6: the diagnosis channel distinguishes a connection lost to
/// a **still-alive** peer (`ConnLost`, from a scripted drop) from wire
/// corruption (`corrupt stream`) — same socket, same EOF-adjacent
/// symptoms, different typed causes.
#[test]
fn diagnosis_distinguishes_conn_lost_from_wire_corruption() {
    let mesh = mesh_2d();
    let engine = DistResidentEngine::by_method(&mesh, params_2d(3), 4, PartitionMethod::Rcb);
    let (oracle, _) = oracle_2d(&engine, &mesh);

    let mut dropped = mesh.clone();
    let (_, drop_stats) = engine
        .smooth_ft(
            &mut dropped,
            &options_over(
                TransportMode::UnixSocket,
                FaultPlan::drop_conn_at(1, FaultPoint::Color { iter: 2, color: 0 }),
            ),
        )
        .expect("dropped connection must be recoverable");
    assert_eq!(dropped.coords(), oracle.coords());
    assert_eq!(drop_stats.recoveries.len(), 1);
    assert!(
        drop_stats.recoveries[0].contains("lost connection to rank 1"),
        "drop diagnosis: {:?}",
        drop_stats.recoveries[0]
    );
    assert!(
        !drop_stats.recoveries[0].contains("corrupt"),
        "a dropped connection is not corruption: {:?}",
        drop_stats.recoveries[0]
    );

    let mut corrupted = mesh.clone();
    let (_, corrupt_stats) = engine
        .smooth_ft(
            &mut corrupted,
            &options_over(TransportMode::UnixSocket, FaultPlan::corrupt(1, 2, 77)),
        )
        .expect("corruption must be recoverable");
    assert_eq!(corrupted.coords(), oracle.coords());
    assert_eq!(corrupt_stats.recoveries.len(), 1);
    assert!(
        corrupt_stats.recoveries[0].contains("corrupt stream"),
        "corruption diagnosis: {:?}",
        corrupt_stats.recoveries[0]
    );
    assert!(
        !corrupt_stats.recoveries[0].contains("lost connection"),
        "corruption is not a lost connection: {:?}",
        corrupt_stats.recoveries[0]
    );
}

/// The seeded CI matrix over sockets: the same property the pipe-backend
/// seeds pin, with the seed space now including dropped connections.
#[test]
fn seeded_fault_matrix_over_sockets_is_bit_identical() {
    let mesh = mesh_2d();
    let engine = DistResidentEngine::by_method(&mesh, params_2d(3), 4, PartitionMethod::Rcb);
    let num_colors = engine.inner().interface_classes().len() as u32;
    let (oracle, oracle_report) = oracle_2d(&engine, &mesh);
    for (seed, mode) in
        (1..=6u64).zip([TransportMode::UnixSocket, TransportMode::TcpLoopback].into_iter().cycle())
    {
        let plan = FaultPlan::from_seed(seed, 4, 3, num_colors);
        let mut work = mesh.clone();
        let (report, stats) = engine
            .smooth_ft(&mut work, &options_over(mode, plan.clone()))
            .unwrap_or_else(|e| panic!("seed {seed} over {mode:?} ({plan:?}): {e}"));
        assert_eq!(work.coords(), oracle.coords(), "seed {seed} over {mode:?}");
        assert_eq!(report, oracle_report, "seed {seed} over {mode:?}");
        assert!(stats.recoveries.len() <= 1, "seed {seed}: {:?}", stats.recoveries);
    }
}

// ---------------------------------------------------------------------
// Mid-round chaos. Every cell above already runs the event-driven
// coordinator; the cells below pin the hard case explicitly — the fault
// fires while a color round's frames are still in flight (the victim
// was released into color c while the coordinator is still draining
// round c-1, so the kill/drop/stall/corruption lands mid-drain, with
// partial frames in the reassembly buffers and queued forwards
// unflushed).
// ---------------------------------------------------------------------

fn options_mid_round(mode: TransportMode, faults: FaultPlan) -> FtOptions {
    FtOptions { read_timeout_ms: 1_000, ..options_over(mode, faults) }
}

/// {pipes, unix, tcp} × {kill, drop-conn, stall, corrupt} injected at a
/// mid-round color boundary of iteration 2: detected, recovered,
/// bit-identical (coords AND report) to the in-process oracle.
#[test]
fn overlap_mid_round_fault_matrix_2d_recovers_bit_identical() {
    let mesh = mesh_2d();
    let engine = DistResidentEngine::by_method(&mesh, params_2d(3), 4, PartitionMethod::Rcb);
    let num_colors = engine.inner().interface_classes().len() as u32;
    let (oracle, oracle_report) = oracle_2d(&engine, &mesh);
    // color ≥ 1 of a mid iteration: the ColorStep for this color is what
    // drains the previous round, so the fault fires with that round's
    // frames in flight
    let mid = FaultPoint::Color { iter: 2, color: (num_colors / 2).max(1) };
    let cells: [(FaultPlan, &str); 4] = [
        (FaultPlan::kill_at(2, mid), "exit code"),
        (FaultPlan::drop_conn_at(1, mid), "lost connection"),
        (FaultPlan::stall_at(3, mid, 30_000), "stalled"),
        (FaultPlan::corrupt(2, 2, 140), "corrupt stream"),
    ];
    for mode in ALL_MODES {
        for (plan, diagnosis) in &cells {
            let mut work = mesh.clone();
            let (report, stats) = engine
                .smooth_ft(&mut work, &options_mid_round(mode, plan.clone()))
                .unwrap_or_else(|e| panic!("{mode:?} × {plan:?}: {e}"));
            assert_eq!(work.coords(), oracle.coords(), "coords: {mode:?} × {plan:?}");
            assert_eq!(report, oracle_report, "report: {mode:?} × {plan:?}");
            assert!(!stats.recoveries.is_empty(), "{mode:?} × {plan:?} must recover");
            assert!(
                stats.recoveries.iter().any(|r| r.contains(diagnosis)),
                "{mode:?} × {plan:?}: diagnosis should mention {diagnosis:?}, got {:?}",
                stats.recoveries
            );
        }
    }
}

/// The 3D slice of the mid-round matrix: a kill and a dropped
/// connection per substrate, injected at a mid-round color boundary.
/// Stall and corruption handling are dimension-generic and pinned by
/// the 2D matrix above.
#[test]
fn overlap_mid_round_faults_3d_recover_bit_identical() {
    let mesh = lms_mesh3d::generators::perturbed_tet_grid(7, 6, 7, 0.35, 9);
    let params = SmoothParams3::paper().with_smart(true).with_max_iters(2).with_tol(-1.0);
    let engine = DistResidentEngine3::by_method(&mesh, params, 4, PartitionMethod::Rcb);
    let num_colors = engine.inner().interface_classes().len() as u32;
    let mut oracle = mesh.clone();
    let oracle_report = engine.inner().smooth(&mut oracle, 2);
    let mid = FaultPoint::Color { iter: 2, color: (num_colors / 2).max(1) };
    for mode in ALL_MODES {
        for plan in [FaultPlan::kill_at(0, mid), FaultPlan::drop_conn_at(3, mid)] {
            let opts = options_mid_round(mode, plan.clone());
            let mut work = mesh.clone();
            let (report, stats) = engine
                .smooth_ft(&mut work, &opts)
                .unwrap_or_else(|e| panic!("3D {mode:?} × {plan:?}: {e}"));
            assert_eq!(work.coords(), oracle.coords(), "3D coords: {mode:?} × {plan:?}");
            assert_eq!(report, oracle_report, "3D report: {mode:?} × {plan:?}");
            assert_eq!(stats.recoveries.len(), 1, "3D {mode:?} × {plan:?}");
        }
    }
}

/// The shutdown satellite: teardown reaps every child and surfaces an
/// abnormal death (here an injected `_exit(113)`) as a typed, diagnosable
/// error instead of swallowing it.
#[test]
fn shutdown_surfaces_abnormal_rank_death() {
    let mesh = mesh_2d();
    let engine = DistResidentEngine::by_method(&mesh, params_2d(2), 3, PartitionMethod::Rcb);
    let inner = engine.inner();
    let dom = inner.scoring();
    let coords = mesh.coords();
    let mut transport = ProcessTransport::spawn(
        engine.spawner().expect("spawner"),
        &dom,
        inner.blocks(),
        inner.exchange_schedule(),
        5_000,
        FaultPlan::kill_at(1, FaultPoint::Interior { iter: 1 }),
        false,
    )
    .expect("spawn");
    transport.try_gather(coords).expect("gather");
    // rank 1 dies on receipt of this frame; the coordinator doesn't look
    // at the streams again before tearing down
    transport.try_interior_phase().expect("interior broadcast");
    match transport.shutdown() {
        Err(DistError::Shutdown { failures }) => {
            assert_eq!(failures.len(), 1);
            let (rank, status) = failures[0];
            assert_eq!(rank, 1);
            assert_eq!(status.exit_code(), INJECTED_KILL_EXIT);
        }
        other => panic!("teardown must report the dead rank, got {other:?}"),
    }
}
