//! The smoothing hot-path benchmark: smart (quality-guarded) smoothing on
//! a 512×512 perturbed grid for 10 sweeps, measured on
//!
//! * the **incremental-quality** path (`SmoothEngine::smooth` — quality
//!   cache, fused candidate scoring, O(moved·deg) stats),
//! * the **full-recompute** reference (`SmoothEngine::smooth_full_recompute`
//!   — the pre-incremental engine: double star evaluation per commit test
//!   plus a whole-mesh quality recompute per sweep),
//! * the **colored parallel** engine at 1 and 2 threads (deterministic
//!   in-place Gauss–Seidel).
//!
//! Run with `cargo bench -p lms-bench --bench bench_smooth_hot`. Set
//! `LMS_BENCH_GRID` to override the grid side (default 512). Results
//! print to stdout; the tracked end-to-end numbers are `benchmark/`'s,
//! and the batched-vs-scalar ratio floor is `lms-tool bench-smoke`'s.

use criterion::{BenchmarkId, Criterion};
use lms_part::PartitionMethod;
use lms_smooth::{ResidentEngine, SmoothEngine, SmoothParams};

fn grid_side() -> usize {
    std::env::var("LMS_BENCH_GRID").ok().and_then(|s| s.parse().ok()).unwrap_or(512)
}

fn bench_smooth_hot(c: &mut Criterion) {
    let side = grid_side();
    let mesh = lms_mesh::generators::perturbed_grid(side, side, 0.35, 42);
    // fixed 10 sweeps: tol disabled so both paths do identical work
    let params = SmoothParams::paper().with_smart(true).with_max_iters(10).with_tol(-1.0);
    let engine = SmoothEngine::new(&mesh, params.clone());

    // correctness gate before timing: the two paths must agree bitwise
    let mut a = mesh.clone();
    engine.smooth(&mut a);
    let mut b = mesh.clone();
    engine.smooth_full_recompute(&mut b);
    assert_eq!(a.coords(), b.coords(), "incremental path diverged from reference");

    // the lane-batched scoring path (the default — "incremental" above
    // measures it) must agree bitwise with per-element scoring too
    let scalar_engine = SmoothEngine::new(&mesh, params.clone().with_scalar_scoring(true));
    let mut s = mesh.clone();
    scalar_engine.smooth(&mut s);
    assert_eq!(a.coords(), s.coords(), "batched scoring diverged from the scalar path");
    // ... and so must the resident sweep kernel over an 8-way decomposition
    let batched = ResidentEngine::by_method(&mesh, params.clone(), 8, PartitionMethod::Rcb);
    let scalar =
        ResidentEngine::by_method(&mesh, params.with_scalar_scoring(true), 8, PartitionMethod::Rcb);
    let (mut rb, mut rs) = (mesh.clone(), mesh.clone());
    batched.smooth(&mut rb, 1);
    scalar.smooth(&mut rs, 1);
    assert_eq!(rb.coords(), rs.coords(), "batched resident diverged from the scalar path");

    let mut group = c.benchmark_group("smooth_hot");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("scalar_kernel", side), &mesh, |bch, m| {
        bch.iter(|| {
            let mut work = m.clone();
            scalar_engine.smooth(&mut work)
        })
    });
    group.bench_with_input(BenchmarkId::new("incremental", side), &mesh, |bch, m| {
        bch.iter(|| {
            let mut work = m.clone();
            engine.smooth(&mut work)
        })
    });
    group.bench_with_input(BenchmarkId::new("full_recompute", side), &mesh, |bch, m| {
        bch.iter(|| {
            let mut work = m.clone();
            engine.smooth_full_recompute(&mut work)
        })
    });
    for threads in [1usize, 2] {
        group.bench_with_input(
            BenchmarkId::new(format!("colored_{threads}t"), side),
            &mesh,
            |bch, m| {
                bch.iter(|| {
                    let mut work = m.clone();
                    engine.smooth_parallel_colored(&mut work, threads)
                })
            },
        );
    }
    group.finish();
}

fn main() {
    let mut criterion = Criterion::new();
    bench_smooth_hot(&mut criterion);
}
