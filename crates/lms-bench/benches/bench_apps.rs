//! Criterion benches for the §6-conjecture applications: untangling, edge
//! swapping, optimization smoothing and the weighted-Laplacian extension,
//! each under the paper's three orderings (ORI / BFS / RDR).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lms_apps::{
    opt_smooth, smooth, swap_until_stable, tangle_vertices, untangle, Backend, OptSmoothOptions,
    SwapOptions, UntangleOptions,
};
use lms_mesh::suite;
use lms_mesh::TriMesh;
use lms_order::{compute_ordering, OrderingKind};
use lms_smooth::{SmoothParams, Weighting};

/// The dialog mesh at bench scale, reordered by `kind`.
fn prepared(kind: OrderingKind) -> TriMesh {
    let base = suite::generate(&suite::SUITE[2], 0.01);
    let perm = compute_ordering(&base, kind);
    perm.apply_to_mesh(&base)
}

fn untangle_orderings(c: &mut Criterion) {
    let mut group = c.benchmark_group("apps_untangle");
    group.sample_size(10);
    for kind in OrderingKind::PAPER_TRIO {
        let mut tangled = prepared(kind);
        tangled.orient_ccw();
        tangle_vertices(&mut tangled, 40);
        group.bench_with_input(BenchmarkId::new("ordering", kind.name()), &tangled, |b, m| {
            b.iter(|| untangle(&mut m.clone(), None, UntangleOptions::default()))
        });
    }
    group.finish();
}

fn swap_orderings(c: &mut Criterion) {
    let mut group = c.benchmark_group("apps_swap");
    group.sample_size(10);
    for kind in OrderingKind::PAPER_TRIO {
        let m = prepared(kind);
        group.bench_with_input(BenchmarkId::new("ordering", kind.name()), &m, |b, m| {
            b.iter(|| swap_until_stable(&mut m.clone(), SwapOptions::default(), None))
        });
    }
    group.finish();
}

fn optsmooth_orderings(c: &mut Criterion) {
    let mut group = c.benchmark_group("apps_optsmooth");
    group.sample_size(10);
    let opts = OptSmoothOptions { max_sweeps: 2, ..OptSmoothOptions::default() };
    for kind in OrderingKind::PAPER_TRIO {
        let m = prepared(kind);
        group.bench_with_input(BenchmarkId::new("ordering", kind.name()), &m, |b, m| {
            b.iter(|| opt_smooth(&mut m.clone(), &opts))
        });
    }
    group.finish();
}

fn weighted_laplacian(c: &mut Criterion) {
    let mut group = c.benchmark_group("apps_weighted_laplacian");
    group.sample_size(10);
    let m = prepared(OrderingKind::Rdr);
    for weighting in [Weighting::Uniform, Weighting::InverseEdgeLength, Weighting::EdgeLength] {
        let params = SmoothParams::paper().with_weighting(weighting).with_max_iters(6);
        group.bench_with_input(BenchmarkId::new("weighting", weighting.name()), &m, |b, m| {
            b.iter(|| smooth(&mut m.clone(), params.clone(), Backend::Serial))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    untangle_orderings,
    swap_orderings,
    optsmooth_orderings,
    weighted_laplacian
);
criterion_main!(benches);
