//! `tet` — the §6 conjecture on tetrahedral meshes: RDR transfers to
//! volumetric Laplacian smoothing.
//!
//! For each 3D suite mesh and each of ORI / BFS / RDR, the experiment
//! measures the mean reuse distance of one smoothing sweep, the simulated
//! L1/L2/L3 miss counts of the scaled Westmere-EX hierarchy, and the
//! wall-clock smoothing time — the 3D twins of Table 2, Figure 9 and
//! Figure 8.

use crate::common::{first_sweep_trace, scaled_westmere, time_it, ExpConfig};
use crate::table::{f, k, Table};
use lms_apps::{smooth, Backend};
use lms_cache::reuse::{ReuseDistanceAnalyzer, ReuseStats};
use lms_mesh3d::generators::{generate3, SUITE3};
use lms_mesh3d::SmoothParams3;
use lms_order::{compute_ordering, OrderingKind};
use std::fmt::Write as _;

/// The 3D suite scale corresponding to an [`ExpConfig::scale`]: the base
/// 3D meshes are already laptop-sized, so the default 2D scale of 0.02
/// maps to 1.0 here.
fn scale3(cfg: &ExpConfig) -> f64 {
    (cfg.scale * 50.0).max(1e-3)
}

/// Run the `tet` experiment (see module docs).
pub fn tet(cfg: &ExpConfig) -> String {
    let mut out = String::new();
    let mut speedups = Vec::new();
    for spec in &SUITE3 {
        let base = generate3(spec, scale3(cfg));
        let mut table = Table::new(
            format!(
                "Tetrahedral LMS — {} ({} vertices, {} tets)",
                spec.name,
                base.num_vertices(),
                base.num_tets()
            ),
            &["ordering", "mean RD", "L1 misses", "L2 misses", "L3 misses", "smooth ms"],
        );
        let mut times = Vec::new();
        for kind in OrderingKind::PAPER_TRIO {
            let m = compute_ordering(&base, kind).apply_to_mesh(&base);

            let trace = first_sweep_trace(&m);
            let distances = ReuseDistanceAnalyzer::analyze(&trace, m.num_vertices());
            let mean_rd = ReuseStats::from_distances(&distances).mean;

            let mut h = scaled_westmere(cfg.scale, cfg.layout);
            h.run_trace(&trace);
            let stats = h.level_stats();

            let params = SmoothParams3::paper().with_max_iters(cfg.max_iters.min(20));
            let (_, wall) = time_it(|| smooth(&mut m.clone(), params, Backend::Serial));
            times.push(wall.as_secs_f64() * 1e3);

            table.row(vec![
                kind.name().to_string(),
                f(mean_rd, 1),
                k(stats[0].misses),
                k(stats[1].misses),
                k(stats[2].misses),
                f(wall.as_secs_f64() * 1e3, 1),
            ]);
        }
        speedups.push(times[0] / times[2].max(1e-9));
        if let Some(dir) = &cfg.csv_dir {
            let _ = table.write_csv(dir, &format!("tet_{}", spec.label));
        }
        out.push_str(&table.render());
    }
    let mean = speedups.iter().sum::<f64>() / speedups.len().max(1) as f64;
    let _ = writeln!(
        out,
        "\nmean RDR/ORI smoothing speedup in 3D: {mean:.2}x — the §6 conjecture holds when > 1."
    );
    out
}

/// `tet-quality` — 3D smoothing quality sanity: orderings must not change
/// convergence (the paper notes "the orderings did not change the number of
/// iterations needed").
pub fn tet_quality(cfg: &ExpConfig) -> String {
    let spec = &SUITE3[0];
    let base = generate3(spec, scale3(cfg));
    let mut table = Table::new(
        format!("3D ordering-invariance — {} (Jacobi sweeps)", spec.name),
        &["ordering", "initial q", "final q", "iterations", "converged"],
    );
    for kind in OrderingKind::PAPER_TRIO {
        let m = compute_ordering(&base, kind).apply_to_mesh(&base);
        // Jacobi: bit-identical results under any vertex numbering
        let params = SmoothParams3::paper()
            .with_update(lms_mesh3d::UpdateScheme3::Jacobi)
            .with_max_iters(cfg.max_iters.min(40));
        let report = smooth(&mut m.clone(), params, Backend::Serial);
        table.row(vec![
            kind.name().to_string(),
            f(report.initial_quality, 4),
            f(report.final_quality, 4),
            report.num_iterations().to_string(),
            report.converged.to_string(),
        ]);
    }
    if let Some(dir) = &cfg.csv_dir {
        let _ = table.write_csv(dir, "tet_quality");
    }
    let mut out = table.render();
    out.push_str("\nexpected: identical final quality and iteration count across orderings (Jacobi is numbering-invariant).\n");
    out
}

/// `tet-scaling` — the Figure 10/12 shape on a tetrahedral mesh: simulated
/// multicore speedup (private L1/L2, shared L3 per socket) of the 3D sweep
/// per ordering and core count, relative to serial ORI.
pub fn tet_scaling(cfg: &ExpConfig) -> String {
    use lms_cache::split_static;
    let spec = &SUITE3[0];
    let base = generate3(spec, scale3(cfg));
    let machine = {
        let shrink = crate::common::shrink_factor(cfg.scale);
        if shrink <= 1 {
            lms_cache::MachineConfig::westmere_ex(cfg.layout)
        } else {
            lms_cache::MachineConfig::westmere_scaled(cfg.layout, shrink)
        }
    };

    let mut table = Table::new(
        format!(
            "3D simulated speedup vs serial ORI — {} ({} vertices)",
            spec.name,
            base.num_vertices()
        ),
        &["cores", "ORI", "BFS", "RDR"],
    );
    // serial ORI baseline
    let trace_of = |kind| {
        let m = compute_ordering(&base, kind).apply_to_mesh(&base);
        first_sweep_trace(&m)
    };
    let traces: Vec<(OrderingKind, Vec<u32>)> =
        OrderingKind::PAPER_TRIO.iter().map(|&k| (k, trace_of(k))).collect();
    let baseline =
        lms_cache::simulate(&machine, &split_static(&traces[0].1, 1)).wall_cycles() as f64;

    for &p in &cfg.threads {
        if p > 32 {
            continue;
        }
        let mut cells = vec![p.to_string()];
        for (_, trace) in &traces {
            let w = lms_cache::simulate(&machine, &split_static(trace, p)).wall_cycles() as f64;
            cells.push(f(baseline / w, 2));
        }
        table.row(cells);
    }
    if let Some(dir) = &cfg.csv_dir {
        let _ = table.write_csv(dir, "tet_scaling");
    }
    let mut out = table.render();
    out.push_str(
        "\nexpected: the Figure 10/12 shape in 3D — speedups grow with cores, RDR/BFS above ORI.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> ExpConfig {
        ExpConfig { scale: 0.004, max_iters: 3, ..Default::default() }
    }

    #[test]
    fn tet_reports_all_three_meshes() {
        let out = tet(&tiny_cfg());
        assert!(out.contains("cube"));
        assert!(out.contains("slab"));
        assert!(out.contains("beam"));
        assert!(out.contains("mean RDR/ORI"));
    }

    #[test]
    fn tet_scaling_reports_speedups() {
        let cfg = ExpConfig { threads: vec![1, 4], ..tiny_cfg() };
        let out = tet_scaling(&cfg);
        assert!(out.contains("cores"));
        assert!(out.contains("RDR"));
    }

    #[test]
    fn tet_quality_is_ordering_invariant() {
        let out = tet_quality(&tiny_cfg());
        // all three rows must report the same iteration count: extract the
        // "iterations" column values and compare
        let iters: Vec<&str> = out
            .lines()
            .filter(|l| l.contains("ori") || l.contains("bfs") || l.contains("rdr"))
            .collect();
        assert_eq!(iters.len(), 3, "{out}");
    }
}
