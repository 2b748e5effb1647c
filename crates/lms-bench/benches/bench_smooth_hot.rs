//! The smoothing hot-path benchmark behind this repo's perf-tracking file
//! `BENCH_smooth.json`: smart (quality-guarded) smoothing on a 512×512
//! perturbed grid for 10 sweeps, measured on
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
//! `LMS_BENCH_GRID` to override the grid side (default 512). The summary
//! — median ms per run and the incremental-vs-full speedup — is written to
//! `BENCH_smooth.json` at the workspace root.

use criterion::{BenchmarkId, Criterion};
use lms_part::PartitionMethod;
use lms_smooth::{ResidentEngine, SmoothEngine, SmoothParams};

fn grid_side() -> usize {
    std::env::var("LMS_BENCH_GRID").ok().and_then(|s| s.parse().ok()).unwrap_or(512)
}

/// One profiled resident run: accumulated rank sweep nanoseconds plus the
/// (deterministic) moved-vertex count — the numerator and denominator of
/// ns-per-moved-vertex.
fn resident_sweep_ns(engine: &ResidentEngine, mesh: &lms_mesh::TriMesh) -> (u64, u64) {
    let mut work = mesh.clone();
    let (report, _) = engine.smooth_profiled(&mut work, 1);
    let b = report.phase_breakdown.expect("profiled run attaches a breakdown");
    let ns = b.per_part_sweep_ns().iter().sum();
    let moved = b.transport.rank_phases.iter().map(|r| r.moved).sum::<u64>().max(1);
    (ns, moved)
}

fn bench_smooth_hot(c: &mut Criterion) {
    let side = grid_side();
    let mesh = lms_mesh::generators::perturbed_grid(side, side, 0.35, 42);
    // fixed 10 sweeps: tol disabled so both paths do identical work
    let params = SmoothParams::paper().with_smart(true).with_max_iters(10).with_tol(-1.0);
    let engine = SmoothEngine::new(&mesh, params);

    // correctness gate before timing: the two paths must agree bitwise
    let mut a = mesh.clone();
    engine.smooth(&mut a);
    let mut b = mesh.clone();
    engine.smooth_full_recompute(&mut b);
    assert_eq!(a.coords(), b.coords(), "incremental path diverged from reference");

    // SoA gate: the lane-batched scoring path (the default since the SoA
    // refactor — "incremental" above measures it) must agree bitwise with
    // the forced pre-SoA scalar path too
    let params_scalar = SmoothParams::paper().with_smart(true).with_max_iters(10).with_tol(-1.0);
    let scalar_engine = SmoothEngine::new(&mesh, params_scalar.with_scalar_scoring(true));
    let mut s = mesh.clone();
    scalar_engine.smooth(&mut s);
    assert_eq!(a.coords(), s.coords(), "batched scoring diverged from the scalar path");

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

struct SoaEvidence {
    batched_ns_per_moved: f64,
    scalar_ns_per_moved: f64,
    speedup: f64,
    scored_elements_per_sec: f64,
    bulk_batched_ns_per_elem: f64,
    bulk_scalar_ns_per_elem: f64,
    bulk_speedup: f64,
}

/// The scoring kernel in isolation: every element of the mesh scored in
/// one lane-batched call vs one `score_soa` per element, interleaved
/// min-of-50 on identical SoA inputs. No sweep logic, no gathers beyond
/// the kernel's own — the compute-bound layout + SIMD win.
fn measure_bulk(mesh: &lms_mesh::TriMesh) -> (f64, f64, f64) {
    use lms_mesh::quality::QualityMetric;
    use lms_smooth::domain::{SmoothDomain, TriDomain};
    use lms_smooth::{SoaCoords, SoaLike};
    let adj = lms_mesh::Adjacency::build(mesh);
    let boundary = lms_mesh::Boundary::detect(mesh);
    let dom = TriDomain::new(&adj, &boundary, mesh.triangles(), QualityMetric::EdgeLengthRatio);
    let mut soa = SoaCoords::<2>::with_len(mesh.num_vertices());
    soa.gather_from(mesh.coords());
    let rows = dom.elements();
    let ids: Vec<u32> = (0..rows.len() as u32).collect();
    let mut out = vec![(0.0, false); rows.len()];
    let mut best_b = u64::MAX;
    let mut best_s = u64::MAX;
    for _ in 0..50 {
        let t = std::time::Instant::now();
        dom.score_star(&soa, rows, &ids, &mut out);
        best_b = best_b.min(t.elapsed().as_nanos() as u64);
        std::hint::black_box(&out);
        let t = std::time::Instant::now();
        for (slot, &row) in out.iter_mut().zip(rows) {
            *slot = dom.score_soa(&soa, row);
        }
        best_s = best_s.min(t.elapsed().as_nanos() as u64);
        std::hint::black_box(&out);
    }
    let n = rows.len() as f64;
    (best_b as f64 / n, best_s as f64 / n, best_s as f64 / best_b as f64)
}

/// Measure the resident sweep kernel's ns-per-moved-vertex with batched
/// and (forced) scalar scoring — same mesh, same 8-way decomposition,
/// coordinates gated bit-identical between the two.
fn measure_soa(side: usize) -> SoaEvidence {
    let mesh = lms_mesh::generators::perturbed_grid(side, side, 0.35, 42);
    let params = SmoothParams::paper().with_smart(true).with_max_iters(10).with_tol(-1.0);
    let batched = ResidentEngine::by_method(&mesh, params.clone(), 8, PartitionMethod::Rcb);
    let scalar =
        ResidentEngine::by_method(&mesh, params.with_scalar_scoring(true), 8, PartitionMethod::Rcb);
    let mut a = mesh.clone();
    let (report, _) = batched.smooth_profiled(&mut a, 1);
    let mut b = mesh.clone();
    scalar.smooth(&mut b, 1);
    assert_eq!(a.coords(), b.coords(), "batched resident diverged from the scalar path");
    // interleaved rep pairs + max(min-ratio, pair-median): the same
    // host-noise-robust estimator as `lms-tool bench-smoke` — drift
    // skews independent minima, additive spikes compress pair ratios,
    // and each estimator is downward-biased only under its own mode
    let mut batched_ns = u64::MAX;
    let mut scalar_ns = u64::MAX;
    let mut moved = 1;
    let mut ratios = Vec::new();
    for _ in 0..4 {
        let (b_ns, m) = resident_sweep_ns(&batched, &mesh);
        batched_ns = batched_ns.min(b_ns);
        moved = m;
        let (s_ns, _) = resident_sweep_ns(&scalar, &mesh);
        scalar_ns = scalar_ns.min(s_ns);
        ratios.push(s_ns as f64 / b_ns as f64);
    }
    ratios.sort_by(|x, y| x.total_cmp(y));
    let median = (ratios[ratios.len() / 2 - 1] + ratios[ratios.len() / 2]) / 2.0;
    let (bulk_batched_ns_per_elem, bulk_scalar_ns_per_elem, bulk_speedup) = measure_bulk(&mesh);
    SoaEvidence {
        batched_ns_per_moved: batched_ns as f64 / moved as f64,
        scalar_ns_per_moved: scalar_ns as f64 / moved as f64,
        speedup: (scalar_ns as f64 / batched_ns as f64).max(median),
        scored_elements_per_sec: report.scored_elements_per_sec().unwrap_or(f64::NAN),
        bulk_batched_ns_per_elem,
        bulk_scalar_ns_per_elem,
        bulk_speedup,
    }
}

fn export_json(c: &Criterion, side: usize, soa: &SoaEvidence) {
    let find = |needle: &str, min: bool| {
        c.summaries()
            .iter()
            .find(|s| s.id.contains(needle))
            .map(|s| if min { s.min_ns / 1e6 } else { s.median_ns / 1e6 })
            .unwrap_or(f64::NAN)
    };
    let incremental_ms = find("incremental", false);
    let full_ms = find("full_recompute", false);
    let scalar_ms = find("scalar_kernel", false);
    let colored1_ms = find("colored_1t", false);
    let colored2_ms = find("colored_2t", false);
    // both runs are deterministic, so background load only ever adds
    // time: the fastest-sample ratio is the noise-robust speedup
    // estimate (same reasoning as hyperfine's min / Python timeit docs)
    let speedup = find("full_recompute", true) / find("incremental", true);
    // the incremental path IS the SoA lane-batched kernel since the SoA
    // refactor; the scalar_kernel group forces the pre-SoA per-element
    // scoring path on the same engine, so min-vs-min is the layout win
    let soa_speedup = find("scalar_kernel", true) / find("incremental", true);
    let soa_ns_speedup = soa.speedup;
    let json = format!(
        "{{\n  \"benchmark\": \"smooth_hot\",\n  \"workload\": \"smart Gauss-Seidel, {side}x{side} perturbed grid (jitter 0.35, seed 42), 10 sweeps\",\n  \"median_ms\": {{\n    \"incremental\": {incremental_ms:.2},\n    \"full_recompute\": {full_ms:.2},\n    \"scalar_kernel\": {scalar_ms:.2},\n    \"colored_1_thread\": {colored1_ms:.2},\n    \"colored_2_threads\": {colored2_ms:.2}\n  }},\n  \"min_ms\": {{\n    \"incremental\": {:.2},\n    \"full_recompute\": {:.2},\n    \"scalar_kernel\": {:.2}\n  }},\n  \"incremental_speedup_vs_full\": {speedup:.3},\n  \"soa_kernel\": {{\n    \"bulk_scoring\": {{\n      \"batched_ns_per_elem\": {:.2},\n      \"scalar_ns_per_elem\": {:.2},\n      \"speedup\": {:.3}\n    }},\n    \"batched_speedup_vs_scalar\": {soa_speedup:.3},\n    \"resident_sweep_ns_per_moved_vertex\": {{\n      \"batched\": {:.0},\n      \"scalar\": {:.0},\n      \"speedup\": {soa_ns_speedup:.3}\n    }},\n    \"scored_elements_per_sec_batched\": {:.0},\n    \"baseline_note\": \"the scalar toggle shares the SoA coordinate layout (per-element scoring, no lane batching), so sweep-level ratios understate the win over the pre-SoA AoS kernel; the cross-binary comparison against the pre-SoA commit is recorded in the README\"\n  }},\n  \"speedup_estimator\": \"min-vs-min for criterion groups; max(min-ratio, interleaved pair-median) for the resident sweep; interleaved min-of-50 for bulk scoring\",\n  \"coords_bit_identical_to_reference\": true\n}}\n",
        find("incremental", true),
        find("full_recompute", true),
        find("scalar_kernel", true),
        soa.bulk_batched_ns_per_elem,
        soa.bulk_scalar_ns_per_elem,
        soa.bulk_speedup,
        soa.batched_ns_per_moved,
        soa.scalar_ns_per_moved,
        soa.scored_elements_per_sec,
    );
    // workspace root (this bench runs with the crate as manifest dir)
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path = root.join("BENCH_smooth.json");
    std::fs::write(&path, &json).expect("write BENCH_smooth.json");
    println!("\nwrote {} :\n{json}", path.display());
}

fn main() {
    let mut criterion = Criterion::new();
    bench_smooth_hot(&mut criterion);
    let soa = measure_soa(grid_side());
    export_json(&criterion, grid_side(), &soa);
}
