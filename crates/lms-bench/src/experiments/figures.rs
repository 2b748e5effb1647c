//! Figures 1, 4, 5 and 6: reuse-distance profiles and access traces.

use crate::common::{first_sweep_trace, full_trace, ordered_mesh, time_it, ExpConfig};
use crate::table::{f, Table};
use lms_apps::{smooth, Backend};
use lms_cache::{binned_means, ReuseDistanceAnalyzer, ReuseStats};
use lms_mesh::suite;
use lms_order::OrderingKind;
use lms_smooth::SmoothParams;
use std::fmt::Write as _;

/// Figure 1: reuse-distance profile of the first LMS iteration on the ocean
/// mesh under RANDOM / ORI / BFS (we add RDR as the punchline), with the
/// average reuse distance, the simulated L1 miss rate and the measured
/// execution time of the full smoothing run.
pub fn fig1(cfg: &ExpConfig) -> String {
    let spec = suite::find_spec(cfg.mesh.as_deref().unwrap_or("ocean")).expect("known mesh");
    let base = suite::generate(spec, cfg.scale);
    let orderings = [
        OrderingKind::Random { seed: 0 },
        OrderingKind::Original,
        OrderingKind::Bfs,
        OrderingKind::Rdr,
    ];

    let mut table = Table::new(
        format!(
            "Figure 1 — reuse distance & cache behaviour of the first LMS iteration ({} @ scale {}, {} vertices)",
            spec.name,
            cfg.scale,
            base.num_vertices()
        ),
        &["ordering", "avg reuse dist", "max reuse dist", "L1 miss rate", "exec time (ms)", "iters"],
    );
    let mut profiles: Vec<(&'static str, Vec<f64>)> = Vec::new();

    for kind in orderings {
        let m = ordered_mesh(&base, kind);
        let trace = first_sweep_trace(&m);
        let distances = ReuseDistanceAnalyzer::analyze(&trace, m.num_vertices());
        let stats = ReuseStats::from_distances(&distances);
        profiles.push((kind.name(), binned_means(&distances, 100)));

        let mut hierarchy = cfg.hierarchy();
        hierarchy.run_trace(&trace);
        let l1 = hierarchy.stats_of("L1").expect("L1 exists");

        let (report, wall) = time_it(|| {
            smooth(
                &mut m.clone(),
                SmoothParams::paper().with_max_iters(cfg.max_iters),
                Backend::Serial,
            )
        });

        table.row(vec![
            kind.name().to_string(),
            f(stats.mean, 1),
            stats.max.to_string(),
            crate::table::pct(l1.miss_rate()),
            f(wall.as_secs_f64() * 1e3, 1),
            report.num_iterations().to_string(),
        ]);
    }

    if let Some(dir) = &cfg.csv_dir {
        let mut prof = Table::new("", &["bin", "random", "ori", "bfs", "rdr"]);
        for b in 0..100 {
            prof.row(
                std::iter::once(b.to_string())
                    .chain(profiles.iter().map(|(_, p)| f(p[b], 1)))
                    .collect(),
            );
        }
        let _ = prof.write_csv(dir, "fig1_profiles");
    }

    let mut out = table.render();
    let _ = writeln!(
        out,
        "\npaper shape: random ≫ ori > bfs on all three columns; RDR (our addition here)\nmust sit below BFS. Paper Fig. 1 values at full scale: 90k / 4450 / 2910 mean reuse distance."
    );
    out
}

/// Figure 4: partial node-visit traces under DFS vs BFS ordering. The
/// numbers are the storage locations touched; closer numbers = shorter
/// reuse distances.
pub fn fig4(cfg: &ExpConfig) -> String {
    let spec = suite::find_spec(cfg.mesh.as_deref().unwrap_or("carabiner")).expect("known mesh");
    let base = suite::generate(spec, cfg.scale.min(0.005)); // small: trace excerpt is for reading
    let mut out = String::new();
    let _ = writeln!(out, "## Figure 4 — partial access traces ({})", spec.name);
    for kind in [OrderingKind::Dfs, OrderingKind::Bfs] {
        let m = ordered_mesh(&base, kind);
        let trace = first_sweep_trace(&m);
        let mid = trace.len() / 2;
        let excerpt: Vec<String> =
            trace[mid..(mid + 21).min(trace.len())].iter().map(|v| v.to_string()).collect();
        let _ = writeln!(out, "\n({}) … {} …", kind.name(), excerpt.join(","));
        // span of the excerpt = spread of storage locations
        let lo = trace[mid..(mid + 21).min(trace.len())].iter().min().unwrap();
        let hi = trace[mid..(mid + 21).min(trace.len())].iter().max().unwrap();
        let _ = writeln!(out, "    window span: {} storage slots", hi - lo);
    }
    let _ =
        writeln!(out, "\npaper shape: the BFS window spans far fewer slots than the DFS window.");
    out
}

/// Figure 5: the 13-vertex worked example — the span of storage positions
/// accessed when the worst vertex and its neighbourhood are processed,
/// under DFS vs BFS numbering.
pub fn fig5(_cfg: &ExpConfig) -> String {
    let base = lms_mesh::figure5_mesh();
    let mut table = Table::new(
        "Figure 5 — access span on the 13-vertex example mesh",
        &["ordering", "read data (first vertex + neighbours)", "span"],
    );
    for kind in [OrderingKind::Dfs, OrderingKind::Bfs, OrderingKind::Rdr] {
        let m = ordered_mesh(&base, kind);
        let trace = first_sweep_trace(&m);
        let engine = lms_smooth::SmoothEngine::new(&m, SmoothParams::paper());
        let first = engine.visit_order()[0];
        let take = 1 + engine.adjacency().degree(first);
        let head = &trace[..take];
        let span = head.iter().max().unwrap() - head.iter().min().unwrap();
        table.row(vec![
            kind.name().to_string(),
            head.iter().map(|v| v.to_string()).collect::<Vec<_>>().join(","),
            span.to_string(),
        ]);
    }
    let mut out = table.render();
    out.push_str("\npaper shape: BFS span < DFS span (paper: 7 vs 10); RDR at least ties BFS.\n");
    out
}

/// Figure 6: reuse-distance profile across all iterations of a full run on
/// the carabiner mesh with the original ordering, 100 bins per iteration.
pub fn fig6(cfg: &ExpConfig) -> String {
    let spec = suite::find_spec(cfg.mesh.as_deref().unwrap_or("carabiner")).expect("known mesh");
    let base = suite::generate(spec, cfg.scale);
    let sink = full_trace(&base, cfg.max_iters);
    let distances = ReuseDistanceAnalyzer::analyze(&sink.accesses, base.num_vertices());

    let mut table = Table::new(
        format!("Figure 6 — per-iteration reuse-distance profile ({}, ORI ordering)", spec.name),
        &["iteration", "accesses", "mean dist", "max dist"],
    );
    let mut iter_means = Vec::new();
    let mut profile_rows: Vec<Vec<String>> = Vec::new();
    for it in 0..sink.num_iterations() {
        let start = if it == 0 { 0 } else { sink.iteration_ends[it - 1] };
        let end = sink.iteration_ends[it];
        let slice = &distances[start..end];
        let stats = ReuseStats::from_distances(slice);
        iter_means.push(stats.mean);
        table.row(vec![
            (it + 1).to_string(),
            (end - start).to_string(),
            f(stats.mean, 1),
            stats.max.to_string(),
        ]);
        for (b, v) in binned_means(slice, 100).into_iter().enumerate() {
            profile_rows.push(vec![(it + 1).to_string(), b.to_string(), f(v, 1)]);
        }
    }
    if let Some(dir) = &cfg.csv_dir {
        let mut prof = Table::new("", &["iteration", "bin", "mean_distance"]);
        for r in profile_rows {
            prof.row(r);
        }
        let _ = prof.write_csv(dir, "fig6_profile");
    }

    // The paper's observation: the profile barely changes across iterations.
    let mean_of_means = iter_means.iter().sum::<f64>() / iter_means.len().max(1) as f64;
    let var = iter_means.iter().map(|m| (m - mean_of_means).powi(2)).sum::<f64>()
        / iter_means.len().max(1) as f64;
    let cv = if mean_of_means > 0.0 { var.sqrt() / mean_of_means } else { 0.0 };
    let mut out = table.render();
    let _ = writeln!(
        out,
        "\ncross-iteration coefficient of variation of the mean reuse distance: {:.3}\npaper shape: profiles are nearly identical across iterations (the basis for a static a-priori ordering).",
        cv
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> ExpConfig {
        ExpConfig { scale: 0.002, max_iters: 4, ..Default::default() }
    }

    #[test]
    fn fig1_reports_all_orderings() {
        let out = fig1(&tiny_cfg());
        for name in ["random", "ori", "bfs", "rdr"] {
            assert!(out.contains(name), "missing {name} in:\n{out}");
        }
    }

    #[test]
    fn fig4_produces_two_traces() {
        let out = fig4(&tiny_cfg());
        assert!(out.contains("(dfs)"));
        assert!(out.contains("(bfs)"));
        assert!(out.contains("window span"));
    }

    #[test]
    fn fig5_spans_are_reported() {
        let out = fig5(&tiny_cfg());
        assert!(out.contains("dfs"));
        assert!(out.contains("span"));
    }

    #[test]
    fn fig6_segments_iterations() {
        let out = fig6(&tiny_cfg());
        assert!(out.contains("iteration"));
        assert!(out.contains("coefficient of variation"));
    }
}
