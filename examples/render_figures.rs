//! Regenerate the paper's *pictorial* figures as SVG files under
//! `results/figures/`:
//!
//! * Figure 3 — a mesh before and after Laplacian smoothing;
//! * Figure 7 — the nine-mesh suite gallery;
//! * Figure 1 — first-iteration reuse-distance profiles per ordering;
//! * Figure 6 — the reuse-distance profile across iterations;
//! * Figure 9 — per-mesh L1/L2/L3 miss-rate bars;
//! * Figure 12 — mean simulated speedup vs core count.
//!
//! ```text
//! cargo run --release --example render_figures
//! ```

use lms::cache::{binned_means, multicore, ReuseDistanceAnalyzer};
use lms::mesh::suite;
use lms::prelude::*;
use lms::viz::{render_gallery, render_mesh, BarChart, Chart, MeshStyle, Series};
use lms_bench::common::{
    first_sweep_trace, full_trace, ordered_mesh, parallel_sweep_traces_full, ExpConfig,
};
use std::path::Path;

fn main() {
    let out = Path::new("results/figures");
    let cfg = ExpConfig { scale: 0.01, ..ExpConfig::default() };

    fig3(out);
    fig7(out, &cfg);
    fig1(out, &cfg);
    fig6(out, &cfg);
    fig9(out, &cfg);
    fig12(out, &cfg);
    println!("figures written to {}", out.display());
}

/// Figure 3: the smoothing effect, rendered.
fn fig3(out: &Path) {
    let before = lms::mesh::generators::perturbed_grid(40, 40, 0.42, 7);
    let mut after = before.clone();
    smooth(&mut after, SmoothParams::paper(), Backend::Serial);
    let style = MeshStyle::default();
    render_mesh(&before, &style).write_to(&out.join("fig3_before.svg")).unwrap();
    render_mesh(&after, &style).write_to(&out.join("fig3_after.svg")).unwrap();
    println!("fig3: initial vs smoothed mesh");
}

/// Figure 7: the suite gallery (coarser than the experiment scale — the
/// paper itself shows "coarser but representative versions").
fn fig7(out: &Path, cfg: &ExpConfig) {
    let meshes = ExpConfig { scale: cfg.scale.min(0.004), ..cfg.clone() }.meshes();
    let named: Vec<(&str, &lms::mesh::TriMesh)> =
        meshes.iter().map(|n| (n.spec.name, &n.mesh)).collect();
    render_gallery(&named, 3, 220.0).write_to(&out.join("fig7_gallery.svg")).unwrap();
    println!("fig7: suite gallery ({} meshes)", named.len());
}

/// Figure 1: reuse-distance profile of the first LMS iteration on the
/// ocean mesh, per ordering (log-scale y).
fn fig1(out: &Path, cfg: &ExpConfig) {
    let spec = suite::find_spec("ocean").unwrap();
    let base = suite::generate(spec, cfg.scale);
    let mut chart = Chart::new("Figure 1 — reuse distance, first iteration (ocean)")
        .labels("access index (binned)", "mean reuse distance")
        .log_y();
    for kind in [
        OrderingKind::Random { seed: 0 },
        OrderingKind::Original,
        OrderingKind::Bfs,
        OrderingKind::Rdr,
    ] {
        let m = ordered_mesh(&base, kind);
        let trace = first_sweep_trace(&m);
        let distances = ReuseDistanceAnalyzer::analyze(&trace, m.num_vertices());
        let means = binned_means(&distances, 100);
        chart = chart.series(Series::new(
            kind.name(),
            means.iter().enumerate().map(|(i, &y)| (i as f64, y.max(0.5))),
        ));
    }
    chart.render(720.0, 360.0).write_to(&out.join("fig1_reuse_profiles.svg")).unwrap();
    println!("fig1: reuse-distance profiles (4 orderings)");
}

/// Figure 6: the reuse-distance profile across iterations — the paper's
/// observation that the pattern repeats every sweep.
fn fig6(out: &Path, cfg: &ExpConfig) {
    let spec = suite::find_spec("carabiner").unwrap();
    let base = suite::generate(spec, cfg.scale);
    let sink = full_trace(&base, 8);
    let distances = ReuseDistanceAnalyzer::analyze(&sink.accesses, base.num_vertices());
    let bins_per_iter = 100;
    let iters = sink.iteration_ends.len().max(1);
    let means = binned_means(&distances, bins_per_iter * iters);
    let chart = Chart::new("Figure 6 — reuse distance across iterations (carabiner, ORI)")
        .labels(format!("time step (100 bins per iteration, {iters} iterations)"), "reuse distance")
        .log_y()
        .series(Series::new("ori", means.iter().enumerate().map(|(i, &y)| (i as f64, y.max(0.5)))));
    chart.render(720.0, 320.0).write_to(&out.join("fig6_iteration_profile.svg")).unwrap();
    println!("fig6: cross-iteration profile ({iters} iterations)");
}

/// Figure 9: cache miss-rate bars per mesh and ordering, one chart per
/// level.
fn fig9(out: &Path, cfg: &ExpConfig) {
    let meshes = cfg.meshes();
    let labels: Vec<String> = meshes.iter().map(|n| n.spec.label.to_string()).collect();
    // miss rates [level][ordering][mesh]
    let mut rates = vec![vec![Vec::new(); 3]; 3];
    for named in &meshes {
        for (oi, kind) in OrderingKind::PAPER_TRIO.into_iter().enumerate() {
            let m = ordered_mesh(&named.mesh, kind);
            let mut hier = cfg.hierarchy();
            hier.run_trace(&first_sweep_trace(&m));
            for (li, stats) in hier.level_stats().iter().enumerate() {
                rates[li][oi].push(stats.miss_rate() * 100.0);
            }
        }
    }
    for (li, level) in ["L1", "L2", "L3"].iter().enumerate() {
        let mut chart = BarChart::new(
            format!("Figure 9{} — {level} miss rate, one core", ['a', 'b', 'c'][li]),
            "miss rate (%)",
        )
        .categories(labels.clone());
        for (oi, kind) in OrderingKind::PAPER_TRIO.into_iter().enumerate() {
            chart = chart.group(kind.name(), rates[li][oi].clone());
        }
        chart
            .render(760.0, 300.0)
            .write_to(&out.join(format!("fig9_{}.svg", level.to_lowercase())))
            .unwrap();
    }
    println!("fig9: miss-rate bars (3 levels × 9 meshes × 3 orderings)");
}

/// Figure 12: mean simulated speedup vs cores, per ordering.
fn fig12(out: &Path, cfg: &ExpConfig) {
    let meshes = cfg.meshes();
    let cores = &cfg.threads;
    let mut chart = Chart::new("Figure 12 — mean speedup vs serial ORI (simulated)")
        .labels("cores", "mean speedup")
        .with_markers();
    for kind in OrderingKind::PAPER_TRIO {
        let mut points = Vec::new();
        for &p in cores {
            let mut sum = 0.0;
            for named in &meshes {
                let base = {
                    let m = ordered_mesh(&named.mesh, OrderingKind::Original);
                    let traces = parallel_sweep_traces_full(&m, 1);
                    multicore::simulate(&cfg.machine_for(&m), &traces).wall_cycles() as f64
                };
                let m = ordered_mesh(&named.mesh, kind);
                let traces = parallel_sweep_traces_full(&m, p);
                let w = multicore::simulate(&cfg.machine_for(&m), &traces).wall_cycles() as f64;
                sum += base / w;
            }
            points.push((p as f64, sum / meshes.len() as f64));
        }
        chart = chart.series(Series::new(kind.name(), points));
    }
    chart.render(640.0, 380.0).write_to(&out.join("fig12_mean_speedup.svg")).unwrap();
    println!("fig12: mean speedup curves");
}
