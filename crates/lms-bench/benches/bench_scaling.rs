//! The engine thread-scaling benchmark: smart (quality-guarded) smoothing
//! on a 512×512 perturbed grid for 10 sweeps, swept over threads
//! {1, 2, 4, 8} on
//!
//! * the **colored parallel** engine (the deterministic baseline),
//! * the **resident** engine (blocks resident for the whole run,
//!   halo-delta exchange only, one final disjoint scatter).
//!
//! Both are bitwise-deterministic for any thread count; the resident
//! engine is additionally gated here against serial Gauss–Seidel under
//! its part-major visit order (coordinates must match bit for bit).
//!
//! Run with `cargo bench -p lms-bench --bench bench_scaling`. Set
//! `LMS_BENCH_GRID` to override the grid side (default 512) and
//! `LMS_BENCH_THREADS` for the thread list (default `1,2,4,8`). Results
//! print to stdout; the tracked end-to-end numbers are `benchmark/`'s.

use criterion::{BenchmarkId, Criterion};
use lms_part::PartitionMethod;
use lms_smooth::{ResidentEngine, SmoothEngine, SmoothParams};

fn grid_side() -> usize {
    std::env::var("LMS_BENCH_GRID").ok().and_then(|s| s.parse().ok()).unwrap_or(512)
}

fn thread_list() -> Vec<usize> {
    std::env::var("LMS_BENCH_THREADS")
        .ok()
        .map(|s| s.split(',').filter_map(|t| t.trim().parse().ok()).collect())
        .filter(|v: &Vec<usize>| !v.is_empty())
        .unwrap_or_else(|| vec![1, 2, 4, 8])
}

const PARTS: usize = 8;

fn bench_scaling(c: &mut Criterion) {
    let side = grid_side();
    let mesh = lms_mesh::generators::perturbed_grid(side, side, 0.35, 42);
    // fixed 10 sweeps: tol disabled so all engines do identical work
    let params = SmoothParams::paper().with_smart(true).with_max_iters(10).with_tol(-1.0);
    let colored = SmoothEngine::new(&mesh, params.clone());
    let resident = ResidentEngine::by_method(&mesh, params.clone(), PARTS, PartitionMethod::Rcb);

    // correctness gate before timing: the resident sweep must be exactly
    // serial Gauss-Seidel under the part-major visit order
    let mut a = mesh.clone();
    let gate_report = resident.smooth(&mut a, 2);
    let serial =
        SmoothEngine::new(&mesh, params).with_visit_order(resident.part_major_visit_order());
    let mut b = mesh.clone();
    serial.smooth(&mut b);
    assert_eq!(a.coords(), b.coords(), "resident engine diverged from serial part-major GS");
    let volume = gate_report.exchange.expect("resident runs report exchange accounting");
    assert_eq!(volume.full_gathers, 1, "resident engine must gather exactly once");
    assert_eq!(volume.full_scatters, 1, "resident engine must scatter exactly once");

    let mut group = c.benchmark_group("scaling");
    group.sample_size(10);
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
    bench_scaling(&mut criterion);
}
