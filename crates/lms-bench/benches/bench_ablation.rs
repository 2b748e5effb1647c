//! Ablation benches for the design choices called out in DESIGN.md §5:
//! iteration policy, update scheme, and the quality metric RDR ranks by.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lms_apps::{smooth, Backend};
use lms_mesh::quality::QualityMetric;
use lms_mesh::suite;
use lms_order::rdr::{rdr_ordering_opts, RdrOptions};
use lms_smooth::{IterationPolicy, SmoothParams, UpdateScheme};

fn iteration_policy(c: &mut Criterion) {
    let base = suite::generate(&suite::SUITE[2], 0.01); // dialog
    let mut group = c.benchmark_group("ablation_iteration_policy");
    group.sample_size(10);
    for (name, policy) in
        [("storage", IterationPolicy::StorageOrder), ("greedy", IterationPolicy::GreedyQuality)]
    {
        let params = SmoothParams::paper().with_policy(policy).with_max_iters(6);
        group.bench_with_input(BenchmarkId::new("policy", name), &base, |b, m| {
            b.iter(|| smooth(&mut m.clone(), params.clone(), Backend::Serial))
        });
    }
    group.finish();
}

fn update_scheme(c: &mut Criterion) {
    let base = suite::generate(&suite::SUITE[2], 0.01);
    let mut group = c.benchmark_group("ablation_update_scheme");
    group.sample_size(10);
    for (name, update) in
        [("gauss_seidel", UpdateScheme::GaussSeidel), ("jacobi", UpdateScheme::Jacobi)]
    {
        let params = SmoothParams::paper().with_update(update).with_max_iters(6);
        group.bench_with_input(BenchmarkId::new("update", name), &base, |b, m| {
            b.iter(|| smooth(&mut m.clone(), params.clone(), Backend::Serial))
        });
    }
    group.finish();
}

fn rdr_variants(c: &mut Criterion) {
    let base = suite::generate(&suite::SUITE[2], 0.01);
    let mut group = c.benchmark_group("ablation_rdr_variants");
    group.sample_size(10);
    for (name, opts) in [
        ("paper", RdrOptions::default()),
        ("minangle_metric", RdrOptions { metric: QualityMetric::MinAngle }),
    ] {
        group.bench_with_input(BenchmarkId::new("rdr", name), &base, |b, m| {
            b.iter(|| rdr_ordering_opts(m, &opts))
        });
    }
    group.finish();
}

criterion_group!(benches, iteration_policy, update_scheme, rdr_variants);
criterion_main!(benches);
