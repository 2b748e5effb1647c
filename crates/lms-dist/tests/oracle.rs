//! The cross-transport oracle: multi-process resident smoothing must be
//! **bit-identical** to the in-process resident engine — coordinates and
//! full reports (quality trajectories and exchange accounting included) —
//! across part counts, commit rules and dimensions; and therefore, by the
//! in-process suites of `lms-smooth`/`lms-mesh3d`, bit-identical to
//! serial part-major Gauss–Seidel. The serial gate is re-asserted here
//! directly in 2D so this suite stands on its own.

use lms_dist::{DistResidentEngine, DistResidentEngine3, FtOptions, TransportMode};
use lms_mesh3d::{ResidentEngine3, SmoothEngine3, SmoothParams3};
use lms_part::PartitionMethod;
use lms_smooth::{SmoothEngine, SmoothParams};

#[test]
fn dist_matches_in_process_2d_across_parts_and_modes() {
    let mesh = lms_mesh::generators::perturbed_grid(20, 18, 0.35, 11);
    for parts in [2usize, 4, 8] {
        for smart in [true, false] {
            let params = SmoothParams::paper().with_smart(smart).with_max_iters(3).with_tol(-1.0);
            let engine = DistResidentEngine::by_method(&mesh, params, parts, PartitionMethod::Rcb);
            assert_eq!(engine.num_ranks(), parts);

            let mut dist = mesh.clone();
            let dist_report = engine.smooth_with(&mut dist, &FtOptions::default());
            for threads in [1usize, 2, 4] {
                let mut local = mesh.clone();
                let local_report = engine.inner().smooth(&mut local, threads);
                assert_eq!(
                    dist.coords(),
                    local.coords(),
                    "coords diverged: {parts} parts, smart={smart}, {threads} threads"
                );
                assert_eq!(
                    dist_report, local_report,
                    "reports diverged: {parts} parts, smart={smart}, {threads} threads"
                );
            }

            let volume = dist_report.exchange.expect("resident runs report exchange accounting");
            assert_eq!(volume.full_gathers, 1, "{parts} parts, smart={smart}");
            assert_eq!(volume.full_scatters, 1, "{parts} parts, smart={smart}");
            assert!(volume.halo_entries_sent > 0, "multi-part runs must exchange halos");
            assert!(volume.halo_messages_sent <= volume.halo_entries_sent);
        }
    }
}

#[test]
fn dist_matches_serial_part_major_gauss_seidel_2d() {
    let mesh = lms_mesh::generators::perturbed_grid(17, 15, 0.3, 4);
    let params = SmoothParams::paper().with_smart(true).with_max_iters(4).with_tol(-1.0);
    let engine = DistResidentEngine::by_method(&mesh, params.clone(), 4, PartitionMethod::Hilbert);
    let mut dist = mesh.clone();
    engine.smooth_with(&mut dist, &FtOptions::default());
    let serial =
        SmoothEngine::new(&mesh, params).with_visit_order(engine.inner().part_major_visit_order());
    let mut reference = mesh.clone();
    serial.smooth(&mut reference);
    assert_eq!(dist.coords(), reference.coords());
}

#[test]
fn dist_matches_in_process_3d_across_parts_and_modes() {
    let mesh = lms_mesh3d::generators::perturbed_tet_grid(7, 6, 7, 0.35, 9);
    for parts in [2usize, 4, 8] {
        for smart in [true, false] {
            let params = SmoothParams3::paper().with_smart(smart).with_max_iters(2).with_tol(-1.0);
            let engine = DistResidentEngine3::by_method(&mesh, params, parts, PartitionMethod::Rcb);
            assert_eq!(engine.num_ranks(), parts);

            let mut dist = mesh.clone();
            let dist_report = engine.smooth_with(&mut dist, &FtOptions::default());
            let mut local = mesh.clone();
            let local_report = engine.inner().smooth(&mut local, 2);
            assert_eq!(
                dist.coords(),
                local.coords(),
                "coords diverged: {parts} parts, smart={smart}"
            );
            assert_eq!(dist_report, local_report, "{parts} parts, smart={smart}");

            let volume = dist_report.exchange.unwrap();
            assert_eq!(volume.full_gathers, 1);
            assert_eq!(volume.full_scatters, 1);
        }
    }
}

#[test]
fn dist_matches_serial_part_major_gauss_seidel_3d() {
    let mesh = lms_mesh3d::generators::perturbed_tet_grid(6, 6, 6, 0.3, 2);
    let params = SmoothParams3::paper().with_smart(true).with_max_iters(3).with_tol(-1.0);
    let engine = DistResidentEngine3::by_method(&mesh, params.clone(), 4, PartitionMethod::Rcb);
    let mut dist = mesh.clone();
    engine.smooth_with(&mut dist, &FtOptions::default());
    let mut reference = mesh.clone();
    SmoothEngine3::new(&mesh, params)
        .with_visit_order(engine.inner().part_major_visit_order())
        .smooth(&mut reference);
    assert_eq!(dist.coords(), reference.coords());
}

#[test]
fn single_rank_run_works_and_exchanges_nothing() {
    let mesh = lms_mesh::generators::perturbed_grid(10, 10, 0.3, 6);
    let params = SmoothParams::paper().with_max_iters(3);
    let engine = DistResidentEngine::by_method(&mesh, params, 1, PartitionMethod::Morton);
    let mut work = mesh.clone();
    let report = engine.smooth_with(&mut work, &FtOptions::default());
    assert!(report.final_quality > report.initial_quality);
    let volume = report.exchange.unwrap();
    assert_eq!(volume.halo_entries_sent, 0);
    assert_eq!(volume.halo_messages_sent, 0);
    assert_eq!(volume.halo_bytes_sent, 0);
}

#[test]
fn engines_sharing_a_decomposition_agree_with_existing_engine_zoo() {
    // the distributed engine joins the equivalence class of its
    // decomposition: same coordinates as serial Gauss–Seidel in the
    // part-major order, on the RCB split the harness times
    let mesh = lms_mesh::generators::perturbed_grid(16, 16, 0.35, 7);
    let params = SmoothParams::paper().with_smart(true).with_max_iters(3).with_tol(-1.0);
    let dist_engine = DistResidentEngine::by_method(&mesh, params.clone(), 4, PartitionMethod::Rcb);
    let serial = SmoothEngine::new(&mesh, params)
        .with_visit_order(dist_engine.inner().part_major_visit_order());
    let mut a = mesh.clone();
    dist_engine.smooth_with(&mut a, &FtOptions::default());
    let mut b = mesh.clone();
    serial.smooth(&mut b);
    assert_eq!(a.coords(), b.coords());
}

/// The PR-8 socket rungs join the bit-identity class: forked workers
/// dialling back over a Unix-domain socket or TCP loopback compute the
/// same coordinates *and* the same report — exchange accounting included,
/// because `halo_frame_wire_len` charges every transport identically —
/// as the in-process resident engine.
#[test]
fn socket_transports_match_in_process_2d() {
    let mesh = lms_mesh::generators::perturbed_grid(18, 16, 0.35, 11);
    for mode in [TransportMode::UnixSocket, TransportMode::TcpLoopback] {
        for parts in [2usize, 4] {
            for smart in [true, false] {
                let params =
                    SmoothParams::paper().with_smart(smart).with_max_iters(3).with_tol(-1.0);
                let engine =
                    DistResidentEngine::by_method(&mesh, params, parts, PartitionMethod::Rcb);
                let opts = FtOptions { mode, ..FtOptions::default() };
                let mut dist = mesh.clone();
                let (dist_report, stats) = engine
                    .smooth_ft(&mut dist, &opts)
                    .unwrap_or_else(|e| panic!("{mode:?}, {parts} parts, smart={smart}: {e}"));
                assert!(stats.recoveries.is_empty(), "{mode:?}: clean run must not recover");
                let mut local = mesh.clone();
                let local_report = engine.inner().smooth(&mut local, 2);
                assert_eq!(
                    dist.coords(),
                    local.coords(),
                    "coords diverged over {mode:?}: {parts} parts, smart={smart}"
                );
                assert_eq!(
                    dist_report, local_report,
                    "reports diverged over {mode:?}: {parts} parts, smart={smart}"
                );
            }
        }
    }
}

/// 3D over sockets: one representative cell per family keeps the suite
/// fast while pinning that the handshake's dimension plumb-through works
/// end to end.
#[test]
fn socket_transports_match_in_process_3d() {
    let mesh = lms_mesh3d::generators::perturbed_tet_grid(7, 6, 7, 0.35, 9);
    for mode in [TransportMode::UnixSocket, TransportMode::TcpLoopback] {
        let params = SmoothParams3::paper().with_smart(true).with_max_iters(2).with_tol(-1.0);
        let engine = DistResidentEngine3::by_method(&mesh, params, 4, PartitionMethod::Rcb);
        let opts = FtOptions { mode, ..FtOptions::default() };
        let mut dist = mesh.clone();
        let (dist_report, _) =
            engine.smooth_ft(&mut dist, &opts).unwrap_or_else(|e| panic!("{mode:?}: {e}"));
        let mut local = mesh.clone();
        let local_report = engine.inner().smooth(&mut local, 2);
        assert_eq!(dist.coords(), local.coords(), "3D coords diverged over {mode:?}");
        assert_eq!(dist_report, local_report, "3D report diverged over {mode:?}");
    }
}

/// All three multi-process substrates agree with each other byte for
/// byte on the same run — the transport is invisible to the result.
#[test]
fn pipes_unix_and_tcp_agree_with_each_other() {
    let mesh = lms_mesh::generators::perturbed_grid(16, 14, 0.3, 7);
    let params = SmoothParams::paper().with_smart(true).with_max_iters(3).with_tol(-1.0);
    let engine = DistResidentEngine::by_method(&mesh, params, 4, PartitionMethod::Hilbert);
    let mut runs = Vec::new();
    for mode in [TransportMode::Pipes, TransportMode::UnixSocket, TransportMode::TcpLoopback] {
        let mut work = mesh.clone();
        let (report, _) = engine
            .smooth_ft(&mut work, &FtOptions { mode, ..FtOptions::default() })
            .unwrap_or_else(|e| panic!("{mode:?}: {e}"));
        runs.push((mode, work, report));
    }
    let (_, ref_mesh, ref_report) = &runs[0];
    for (mode, work, report) in &runs[1..] {
        assert_eq!(work.coords(), ref_mesh.coords(), "{mode:?} vs Pipes coords");
        assert_eq!(report, ref_report, "{mode:?} vs Pipes report");
    }
}

#[test]
fn dist_3d_engine_reuses_resident3_construction() {
    let mesh = lms_mesh3d::generators::perturbed_tet_grid(6, 5, 6, 0.3, 3);
    let params = SmoothParams3::paper().with_smart(true).with_max_iters(2).with_tol(-1.0);
    let dist = DistResidentEngine3::by_method(&mesh, params.clone(), 3, PartitionMethod::Hilbert);
    let solo = ResidentEngine3::by_method(&mesh, params, 3, PartitionMethod::Hilbert);
    assert_eq!(dist.inner().part_major_visit_order(), solo.part_major_visit_order());
}
