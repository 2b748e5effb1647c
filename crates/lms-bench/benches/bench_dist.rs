//! The distributed-backend benchmark: smart (quality-guarded) resident
//! smoothing on a perturbed grid for 10 sweeps over an 8-way RCB
//! decomposition, comparing
//!
//! * the **in-process resident** engine (`InProcessTransport`, pool
//!   threads) at 1/2/4 threads, and
//! * the **multi-process distributed** engine (`lms-dist`: one forked
//!   rank process per part, wire frames over pipes), fork cost included.
//!
//! The distributed run is gated before timing: coordinates *and* report
//! (exchange accounting included) must match the in-process engine bit
//! for bit, and the run must hold `full_gathers == 1 && full_scatters ==
//! 1`.
//!
//! Run with `cargo bench -p lms-bench --bench bench_dist`. Set
//! `LMS_BENCH_GRID` to override the grid side (default 384). Results
//! print to stdout; the tracked end-to-end numbers and the transport-tax
//! layers (idle vs hidden coordinator wait included) are `benchmark/`'s.

use criterion::{BenchmarkId, Criterion};
use lms_dist::{DistResidentEngine, FtOptions, TransportMode};
use lms_part::PartitionMethod;
use lms_smooth::{FtPolicy, ResidentEngine, SmoothParams};

fn grid_side() -> usize {
    std::env::var("LMS_BENCH_GRID").ok().and_then(|s| s.parse().ok()).unwrap_or(384)
}

const PARTS: usize = 8;

fn bench_dist(c: &mut Criterion) {
    let side = grid_side();
    let mesh = lms_mesh::generators::perturbed_grid(side, side, 0.35, 42);
    // fixed 10 sweeps: tol disabled so both engines do identical work
    let params = SmoothParams::paper().with_smart(true).with_max_iters(10).with_tol(-1.0);
    let resident = ResidentEngine::by_method(&mesh, params.clone(), PARTS, PartitionMethod::Rcb);
    let dist = DistResidentEngine::by_method(&mesh, params, PARTS, PartitionMethod::Rcb);

    // correctness gate before timing: the process backend must reproduce
    // the in-process resident engine bit for bit
    let mut a = mesh.clone();
    let dist_report = dist.smooth_with(&mut a, &FtOptions::default());
    let mut b = mesh.clone();
    let local_report = resident.smooth(&mut b, 2);
    assert_eq!(a.coords(), b.coords(), "distributed run diverged from in-process resident");
    assert_eq!(dist_report, local_report, "reports diverged (exchange accounting included)");
    // and the socket substrate must agree too before its timings mean
    // anything
    let tcp = FtOptions { mode: TransportMode::TcpLoopback, ..FtOptions::default() };
    let mut t = mesh.clone();
    let tcp_report = dist.smooth_with(&mut t, &tcp);
    assert_eq!(t.coords(), b.coords(), "tcp-loopback run diverged from in-process resident");
    assert_eq!(tcp_report, local_report, "tcp-loopback report diverged");
    let volume = dist_report.exchange.expect("resident runs report exchange accounting");
    assert_eq!(volume.full_gathers, 1, "rank blocks must gather exactly once");
    assert_eq!(volume.full_scatters, 1, "one disjoint write-back at the end");

    // profiling gate: rank sweep timings come back in the Report frames
    // and the coordinator times its own encode/decode/poll-wait, none of
    // which may change a bit
    let mut work = mesh.clone();
    dist.smooth_profiled(&mut work, &FtOptions::default()).expect("profiled distributed run");
    assert_eq!(work.coords(), b.coords(), "profiling must be observation-only");

    let mut group = c.benchmark_group("dist");
    group.sample_size(10);
    for threads in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new(format!("resident_{threads}t"), side),
            &mesh,
            |bch, m| {
                bch.iter(|| {
                    let mut work = m.clone();
                    resident.smooth(&mut work, threads)
                })
            },
        );
    }
    group.bench_with_input(BenchmarkId::new("dist_8ranks", side), &mesh, |bch, m| {
        bch.iter(|| {
            let mut work = m.clone();
            dist.smooth_with(&mut work, &FtOptions::default())
        })
    });
    // same run with the checkpoint cadence dialed down to the mandatory
    // final boundary: isolates the wire-v2 checksum cost (which this
    // variant still pays on every frame) from the recovery-checkpoint
    // cost (which it doesn't)
    let min_ckpt = FtOptions {
        policy: FtPolicy { checkpoint_every: usize::MAX, ..FtPolicy::default() },
        ..FtOptions::default()
    };
    group.bench_with_input(BenchmarkId::new("dist_8ranks_minckpt", side), &mesh, |bch, m| {
        bch.iter(|| {
            let mut work = m.clone();
            dist.smooth_with(&mut work, &min_ckpt)
        })
    });
    // the same run over TCP loopback (PR 8's socket transport): identical
    // frames and results, but every byte now crosses the kernel's TCP
    // stack — the single-host measurement of the multi-node deployment tax
    group.bench_with_input(BenchmarkId::new("dist_8ranks_tcp", side), &mesh, |bch, m| {
        bch.iter(|| {
            let mut work = m.clone();
            dist.smooth_with(&mut work, &tcp)
        })
    });
    group.finish();
}

fn main() {
    let mut criterion = Criterion::new();
    bench_dist(&mut criterion);
}
