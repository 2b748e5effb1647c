//! §5.4 as a Criterion bench: the cost of computing each reordering,
//! against the cost of one ORI smoothing sweep (the paper's yardstick).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lms_apps::{smooth, Backend};
use lms_mesh::suite;
use lms_order::{compute_ordering, OrderingKind};
use lms_smooth::SmoothParams;

fn bench_scale() -> f64 {
    std::env::var("LMS_BENCH_SCALE").ok().and_then(|s| s.parse().ok()).unwrap_or(0.02)
}

fn reorder_cost(c: &mut Criterion) {
    let base = suite::generate(&suite::SUITE[0], bench_scale());
    let mut group = c.benchmark_group("cost_reordering");
    group.sample_size(10);
    for kind in [
        OrderingKind::Rdr,
        OrderingKind::Bfs,
        OrderingKind::Dfs,
        OrderingKind::Rcm,
        OrderingKind::Hilbert,
        OrderingKind::Random { seed: 0 },
    ] {
        group.bench_with_input(BenchmarkId::new("ordering", kind.name()), &base, |b, m| {
            b.iter(|| compute_ordering(m, kind))
        });
    }
    // the yardstick: one ORI smoothing sweep
    let one_iter = SmoothParams::paper().with_max_iters(1);
    group.bench_with_input(BenchmarkId::new("ordering", "one_ori_sweep"), &base, |b, m| {
        b.iter(|| smooth(&mut m.clone(), one_iter.clone(), Backend::Serial))
    });
    group.finish();
}

criterion_group!(benches, reorder_cost);
criterion_main!(benches);
