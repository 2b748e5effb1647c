//! Partition experiment: decomposition quality across methods and part
//! counts, and the measured repartition (`rebalance`) that feeds the
//! resident engine's per-part sweep times back into the split.

use crate::common::ExpConfig;
use crate::table::{f, pct, Table};
use lms_mesh::{Adjacency, Point2, TriMesh};
use lms_part::{partition_mesh, repartition_measured, PartitionMethod};
use lms_smooth::{ResidentEngine, SmoothParams};
use std::fmt::Write as _;

/// Decomposition quality (edge cut, interface/halo, balance) for every
/// method at several part counts.
pub fn partition(cfg: &ExpConfig) -> String {
    let mut out = String::new();

    // --- decomposition quality over the suite --------------------------
    let mut table = Table::new(
        format!("Partition quality, scale {} (k = 8)", cfg.scale),
        &["mesh", "method", "edge cut", "interior/interface", "halo ratio", "imbalance"],
    );
    for named in cfg.meshes().iter().take(4) {
        let adj = Adjacency::build(&named.mesh);
        for method in PartitionMethod::ALL {
            let s = partition_mesh(&named.mesh, &adj, 8, method).stats();
            table.row(vec![
                named.spec.name.to_string(),
                method.name().to_string(),
                s.edge_cut.to_string(),
                f(s.interior_interface_ratio(), 1),
                pct(s.halo_ratio),
                f(s.imbalance, 3),
            ]);
        }
    }
    if let Some(dir) = &cfg.csv_dir {
        let _ = table.write_csv(dir, "partition_quality");
    }
    out.push_str(&table.render());

    // --- cut growth with k on one mesh ----------------------------------
    if let Some(named) = cfg.meshes().into_iter().next() {
        let adj = Adjacency::build(&named.mesh);
        let mut ktable = Table::new(
            format!("Cut / interface growth with k — {}", named.spec.name),
            &["k", "edge cut", "interface", "interior %", "halo ratio"],
        );
        for k in [2usize, 4, 8, 16] {
            let s = partition_mesh(&named.mesh, &adj, k, PartitionMethod::Rcb).stats();
            ktable.row(vec![
                k.to_string(),
                s.edge_cut.to_string(),
                s.interface_vertices.to_string(),
                pct(s.interior_fraction),
                pct(s.halo_ratio),
            ]);
        }
        if let Some(dir) = &cfg.csv_dir {
            let _ = ktable.write_csv(dir, "partition_k_growth");
        }
        out.push('\n');
        out.push_str(&ktable.render());
    }

    out
}

/// An x³-graded grid: vertex density varies by orders of magnitude
/// across the domain, so an area-balanced decomposition is strongly
/// *count*- (and hence sweep-*time*-) imbalanced.
pub fn graded_mesh(side: usize) -> TriMesh {
    let m = lms_mesh::generators::perturbed_grid(side, side, 0.0, 0);
    let (coords, tris) = m.into_parts();
    let graded: Vec<Point2> =
        coords.into_iter().map(|p| Point2::new(p.x * p.x * p.x, p.y)).collect();
    TriMesh::new(graded, tris).unwrap()
}

/// Profile `runs` resident smoothings and keep each part's *minimum*
/// sweep time — the noise-robust estimate of its deterministic work.
pub fn profiled_sweep_ns(engine: &ResidentEngine, mesh: &TriMesh, runs: usize) -> Vec<u64> {
    let mut best: Vec<u64> = Vec::new();
    for _ in 0..runs.max(1) {
        let mut work = mesh.clone();
        let (report, _) = engine.smooth_profiled(&mut work, 2);
        let per_part = report.phase_breakdown.expect("profiled run").per_part_sweep_ns();
        if best.is_empty() {
            best = per_part;
        } else {
            for (b, ns) in best.iter_mut().zip(per_part) {
                *b = (*b).min(ns);
            }
        }
    }
    best
}

/// `rebalance`: the measured repartition closing the observability loop.
///
/// A profiled warm-up run on a deliberately time-skewed decomposition
/// (area-balanced rcbw on an x³-graded mesh) measures each part's sweep
/// time; those timings become per-vertex weights for
/// [`lms_part::repartition_measured`], and the re-split run is profiled
/// again — the per-part sweep-time spread must narrow.
pub fn rebalance(cfg: &ExpConfig) -> String {
    let side = ((cfg.scale.sqrt() * 512.0) as usize).clamp(24, 512);
    let mesh = graded_mesh(side);
    let adj = Adjacency::build(&mesh);
    let k = 8usize;
    let params = SmoothParams::paper()
        .with_smart(true)
        .with_max_iters(cfg.max_iters.clamp(3, 10))
        .with_tol(-1.0);

    // the skewed baseline: equal *area* per part => wildly unequal vertex
    // counts (and sweep times) under the x^3 grading
    let before_parts = partition_mesh(&mesh, &adj, k, PartitionMethod::RcbWeighted);
    let before_engine = ResidentEngine::new(&mesh, params.clone(), before_parts);
    let before_ns = profiled_sweep_ns(&before_engine, &mesh, 3);

    // feed the measured per-part sweep times back as weights and re-split
    let after_parts = repartition_measured(&mesh, &adj, before_engine.partition(), &before_ns);
    let after_engine = ResidentEngine::new(&mesh, params, after_parts);
    let after_ns = profiled_sweep_ns(&after_engine, &mesh, 3);

    let mut table = Table::new(
        format!("Measured repartition — x\u{b3}-graded {side}x{side} grid, {k} parts"),
        &["part", "vertices before", "sweep ms before", "vertices after", "sweep ms after"],
    );
    let count_of = |assignment: &[u32], p: u32| assignment.iter().filter(|&&q| q == p).count();
    for p in 0..k {
        table.row(vec![
            p.to_string(),
            count_of(before_engine.partition().assignment(), p as u32).to_string(),
            f(before_ns[p] as f64 / 1e6, 3),
            count_of(after_engine.partition().assignment(), p as u32).to_string(),
            f(after_ns[p] as f64 / 1e6, 3),
        ]);
    }
    if let Some(dir) = &cfg.csv_dir {
        let _ = table.write_csv(dir, "rebalance");
    }
    let spread = |ns: &[u64]| ns.iter().max().unwrap() - ns.iter().min().unwrap();
    let (sb, sa) = (spread(&before_ns), spread(&after_ns));
    let mut out = table.render();
    let _ = writeln!(
        out,
        "\nper-part sweep-time spread (max-min): {:.3} ms before -> {:.3} ms after: {}\n\
         (baseline = area-balanced rcbw, time-skewed by construction on the graded mesh; \
         weights = measured per-part sweep ns from a profiled warm-up, min of 3 runs)",
        sb as f64 / 1e6,
        sa as f64 / 1e6,
        if sa < sb { "narrowed" } else { "NOT narrowed" },
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rebalance_narrows_the_measured_spread() {
        let cfg = ExpConfig { scale: 0.01, max_iters: 3, ..Default::default() };
        let out = rebalance(&cfg);
        assert!(out.contains("Measured repartition"), "{out}");
        assert!(out.contains("narrowed"), "{out}");
        assert!(!out.contains("NOT narrowed"), "spread must narrow strictly:\n{out}");
    }

    #[test]
    fn partition_experiment_reports_all_sections() {
        let cfg = ExpConfig {
            scale: 0.002,
            mesh: Some("carabiner".into()),
            max_iters: 4,
            ..Default::default()
        };
        let out = partition(&cfg);
        assert!(out.contains("Partition quality"));
        assert!(out.contains("rcb") && out.contains("hilbert") && out.contains("morton"));
        assert!(out.contains("Cut / interface growth"));
    }
}
