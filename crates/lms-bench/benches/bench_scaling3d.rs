//! The 3D engine thread-scaling benchmark: smart (quality-guarded) 3D
//! Gauss–Seidel smoothing on a ~48³ perturbed tet grid for 5 sweeps,
//! swept over threads {1, 2, 4, 8} on
//!
//! * the **serial** engine (the 1-thread baseline),
//! * the **colored parallel** engine (deterministic in-place GS),
//! * the **resident** engine (blocks resident for the whole run,
//!   halo-delta exchange only, one final disjoint scatter),
//!
//! all of which are the dimension-generic `lms-smooth` sweep bodies
//! instantiated for `TetMesh` — this bench is the 3D twin of
//! `bench_scaling`. The resident engine is gated before any timing
//! against serial part-major 3D Gauss–Seidel (coordinates must match bit
//! for bit, with exactly one full gather and one full scatter).
//!
//! Run with `cargo bench -p lms-bench --bench bench_scaling3d`. Set
//! `LMS_BENCH_GRID3` to override the grid side (default 48) and
//! `LMS_BENCH_THREADS` for the thread list (default `1,2,4,8`). Results
//! print to stdout; the tracked end-to-end numbers are `benchmark/`'s.

use criterion::{BenchmarkId, Criterion};
use lms_mesh3d::{ResidentEngine3, SmoothEngine3, SmoothParams3};
use lms_part::PartitionMethod;

fn grid_side() -> usize {
    std::env::var("LMS_BENCH_GRID3").ok().and_then(|s| s.parse().ok()).unwrap_or(48)
}

fn thread_list() -> Vec<usize> {
    std::env::var("LMS_BENCH_THREADS")
        .ok()
        .map(|s| s.split(',').filter_map(|t| t.trim().parse().ok()).collect())
        .filter(|v: &Vec<usize>| !v.is_empty())
        .unwrap_or_else(|| vec![1, 2, 4, 8])
}

const PARTS: usize = 8;
const SWEEPS: usize = 5;

fn bench_scaling3d(c: &mut Criterion) {
    let side = grid_side();
    let mesh = lms_mesh3d::generators::perturbed_tet_grid(side, side, side, 0.35, 42);
    // fixed sweeps: tol disabled so all engines do identical work
    let params = SmoothParams3::paper().with_smart(true).with_max_iters(SWEEPS).with_tol(-1.0);
    let serial = SmoothEngine3::new(&mesh, params.clone());
    let colored = SmoothEngine3::new(&mesh, params.clone());
    let resident = ResidentEngine3::by_method(&mesh, params.clone(), PARTS, PartitionMethod::Rcb);

    // correctness gate before timing: the resident sweep must be exactly
    // serial 3D Gauss-Seidel under the part-major visit order
    let mut a = mesh.clone();
    let gate_report = resident.smooth(&mut a, 2);
    let oracle =
        SmoothEngine3::new(&mesh, params).with_visit_order(resident.part_major_visit_order());
    let mut b = mesh.clone();
    oracle.smooth(&mut b);
    assert_eq!(a.coords(), b.coords(), "3D resident engine diverged from serial part-major GS");
    let volume = gate_report.exchange.expect("resident runs report exchange accounting");
    assert_eq!(volume.full_gathers, 1, "resident engine must gather exactly once");
    assert_eq!(volume.full_scatters, 1, "resident engine must scatter exactly once");

    let mut group = c.benchmark_group("scaling3d");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("serial_1t", side), &mesh, |bch, m| {
        bch.iter(|| serial.smooth(&mut m.clone()))
    });
    for threads in thread_list() {
        group.bench_with_input(
            BenchmarkId::new(format!("colored_{threads}t"), side),
            &mesh,
            |bch, m| {
                bch.iter(|| {
                    let mut work = m.clone();
                    colored.smooth_parallel_colored(&mut work, threads)
                })
            },
        );
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
    group.finish();
}

fn main() {
    let mut criterion = Criterion::new();
    bench_scaling3d(&mut criterion);
}
