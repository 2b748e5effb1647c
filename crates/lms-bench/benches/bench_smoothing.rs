//! Figure 8 as a Criterion bench: serial smoothing time per ordering.
//!
//! Run with `cargo bench -p lms-bench --bench bench_smoothing`. The
//! environment variable `LMS_BENCH_SCALE` (default 0.02) picks the suite
//! scale; 1.0 is the paper's size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lms_apps::{smooth, Backend};
use lms_bench::common::ordered_mesh;
use lms_mesh::suite;
use lms_order::OrderingKind;
use lms_smooth::SmoothParams;

fn bench_scale() -> f64 {
    std::env::var("LMS_BENCH_SCALE").ok().and_then(|s| s.parse().ok()).unwrap_or(0.02)
}

fn smoothing_by_ordering(c: &mut Criterion) {
    let scale = bench_scale();
    let mut group = c.benchmark_group("fig8_serial_smoothing");
    group.sample_size(10);
    for spec in suite::SUITE.iter().take(3) {
        let base = suite::generate(spec, scale);
        for kind in OrderingKind::PAPER_TRIO {
            let m = ordered_mesh(&base, kind);
            let params = SmoothParams::paper().with_max_iters(8);
            group.bench_with_input(BenchmarkId::new(spec.name, kind.name()), &m, |b, mesh| {
                b.iter(|| {
                    let mut work = mesh.clone();
                    smooth(&mut work, params.clone(), Backend::Serial)
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, smoothing_by_ordering);
criterion_main!(benches);
