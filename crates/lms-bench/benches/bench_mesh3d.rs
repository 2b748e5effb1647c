//! The §6 tetrahedral extension as a Criterion bench: 3D smoothing time
//! under ORI / BFS / RDR (Figure 8's shape in 3D), parallel RDR
//! construction cost, and the 3D reordering cost against one ORI sweep.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lms_apps::{smooth, Backend};
use lms_mesh3d::generators::{generate3, SUITE3};
use lms_mesh3d::order::{apply_permutation3, compute_ordering3, OrderingKind3};
use lms_mesh3d::SmoothParams3;
use lms_order::{par_rdr_ordering, ParRdrOptions};

fn bench_scale() -> f64 {
    // 3D base meshes are laptop-sized at scale 1.0 (the 2D default of 0.02
    // maps to 1.0 here)
    std::env::var("LMS_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(|s| s * 50.0)
        .unwrap_or(1.0)
}

fn smoothing_by_ordering_3d(c: &mut Criterion) {
    let base = generate3(&SUITE3[0], bench_scale());
    let mut group = c.benchmark_group("tet_smoothing");
    group.sample_size(10);
    for kind in OrderingKind3::PAPER_TRIO {
        let perm = compute_ordering3(&base, kind);
        let mesh = apply_permutation3(&perm, &base);
        let params = SmoothParams3::paper().with_max_iters(8);
        group.bench_with_input(BenchmarkId::new("ordering", kind.name()), &mesh, |b, m| {
            b.iter(|| smooth(&mut m.clone(), params.clone(), Backend::Serial))
        });
    }
    group.finish();
}

fn reorder_cost_3d(c: &mut Criterion) {
    let base = generate3(&SUITE3[0], bench_scale());
    let mut group = c.benchmark_group("tet_reorder_cost");
    group.sample_size(10);
    for kind in [OrderingKind3::Rdr, OrderingKind3::Bfs, OrderingKind3::Rcm] {
        group.bench_with_input(BenchmarkId::new("ordering", kind.name()), &base, |b, m| {
            b.iter(|| compute_ordering3(m, kind))
        });
    }
    let one_iter = SmoothParams3::paper().with_max_iters(1);
    group.bench_with_input(BenchmarkId::new("ordering", "one_ori_sweep"), &base, |b, m| {
        b.iter(|| smooth(&mut m.clone(), one_iter.clone(), Backend::Serial))
    });
    group.finish();
}

fn parallel_rdr_construction(c: &mut Criterion) {
    // 2D mesh: the chunked construction is dimension-independent; bench it
    // on the suite's carabiner at the configured scale
    let base = lms_mesh::suite::generate(&lms_mesh::suite::SUITE[0], bench_scale() / 50.0);
    let mut group = c.benchmark_group("par_rdr_construction");
    group.sample_size(10);
    for chunks in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::new("chunks", chunks), &base, |b, m| {
            b.iter(|| par_rdr_ordering(m, &ParRdrOptions::default(), chunks))
        });
    }
    group.finish();
}

criterion_group!(benches, smoothing_by_ordering_3d, reorder_cost_3d, parallel_rdr_construction);
criterion_main!(benches);
