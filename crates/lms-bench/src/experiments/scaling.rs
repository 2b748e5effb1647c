//! Figures 10–13: multicore scaling, via the socket-aware cache simulator
//! run on the real sweep traces of each ordering. Engine wall clock is
//! timed by the `benchmark/` harness, not here.

use crate::common::{ordered_mesh, ExpConfig};
use crate::table::{f, pct, Table};
use lms_cache::{multicore, MulticoreResult};
use lms_order::OrderingKind;
use std::collections::HashMap;

/// Simulated wall cycles for (mesh, ordering, p). One sweep's traces are
/// enough: every sweep has the same access pattern, so ratios are exact.
fn sim_wall_cycles(
    cfg: &ExpConfig,
    mesh: &lms_mesh::TriMesh,
    kind: OrderingKind,
    p: usize,
) -> MulticoreResult {
    let m = ordered_mesh(mesh, kind);
    let traces = crate::common::parallel_sweep_traces_full(&m, p);
    multicore::simulate(&cfg.machine_for(&m), &traces)
}

/// All simulated results keyed by `(mesh_label, ordering_name, p)`.
fn simulate_all(cfg: &ExpConfig) -> HashMap<(String, &'static str, usize), MulticoreResult> {
    let mut out = HashMap::new();
    for named in cfg.meshes() {
        for kind in OrderingKind::PAPER_TRIO {
            for &p in &cfg.threads {
                let r = sim_wall_cycles(cfg, &named.mesh, kind, p);
                out.insert((named.spec.label.to_string(), kind.name(), p), r);
            }
        }
    }
    out
}

/// Figure 10: per-mesh speedup relative to the serial ORI baseline
/// (`T_ORI(1) / T_ordering(p)`), one table per core count.
pub fn fig10(cfg: &ExpConfig) -> String {
    let sims = simulate_all(cfg);
    let meshes = cfg.meshes();
    let mut out = String::new();
    for &p in &cfg.threads {
        let mut table = Table::new(
            format!("Figure 10 — simulated speedup vs serial ORI, {p} cores"),
            &["mesh", "ORI", "BFS", "RDR"],
        );
        for named in &meshes {
            let base = sims[&(named.spec.label.to_string(), "ori", 1)].wall_cycles() as f64;
            let mut cells = vec![named.spec.name.to_string()];
            for kind in OrderingKind::PAPER_TRIO {
                let w = sims[&(named.spec.label.to_string(), kind.name(), p)].wall_cycles() as f64;
                cells.push(f(base / w, 2));
            }
            table.row(cells);
        }
        if let Some(dir) = &cfg.csv_dir {
            let _ = table.write_csv(dir, &format!("fig10_{p}cores"));
        }
        out.push_str(&table.render());
        out.push('\n');
    }
    out.push_str("paper shape: supra-linear speedups for all orderings (aggregate cache grows with cores); RDR on top.\n");
    out
}

/// Figure 11: number of accesses reaching L2 / L3 / memory per core as the
/// core count grows (ORI ordering). The decline explains the superlinear
/// speedups.
pub fn fig11(cfg: &ExpConfig) -> String {
    let meshes: Vec<_> = cfg.meshes().into_iter().take(3).collect();
    let mut out = String::new();
    for named in &meshes {
        let mut table = Table::new(
            format!("Figure 11 — per-core access counts vs cores ({}, ORI)", named.spec.name),
            &["cores", "L2 accesses/core", "L3 accesses/core", "memory accesses/core"],
        );
        for &p in &cfg.threads {
            let r = sim_wall_cycles(cfg, &named.mesh, OrderingKind::Original, p);
            let l2 = r.private_stats.get(1).map(|s| s.accesses).unwrap_or(0);
            table.row(vec![
                p.to_string(),
                f(l2 as f64 / p as f64, 0),
                f(r.shared_stats.accesses as f64 / p as f64, 0),
                f(r.memory_accesses as f64 / p as f64, 0),
            ]);
        }
        if let Some(dir) = &cfg.csv_dir {
            let _ = table.write_csv(dir, &format!("fig11_{}", named.spec.name));
        }
        out.push_str(&table.render());
        out.push('\n');
    }
    out.push_str("paper shape: the distance data is fetched from decreases with the core count.\n");
    out
}

/// Figure 12: mean (over the suite) speedup per ordering as a function of
/// the core count. Paper: RDR exceeds 75× at 32 cores.
pub fn fig12(cfg: &ExpConfig) -> String {
    let sims = simulate_all(cfg);
    let meshes = cfg.meshes();
    let mut table = Table::new(
        "Figure 12 — mean simulated speedup vs serial ORI",
        &["cores", "ORI", "BFS", "RDR"],
    );
    for &p in &cfg.threads {
        let mut cells = vec![p.to_string()];
        for kind in OrderingKind::PAPER_TRIO {
            let mean: f64 = meshes
                .iter()
                .map(|named| {
                    let base = sims[&(named.spec.label.to_string(), "ori", 1)].wall_cycles() as f64;
                    let w =
                        sims[&(named.spec.label.to_string(), kind.name(), p)].wall_cycles() as f64;
                    base / w
                })
                .sum::<f64>()
                / meshes.len() as f64;
            cells.push(f(mean, 2));
        }
        table.row(cells);
    }
    if let Some(dir) = &cfg.csv_dir {
        let _ = table.write_csv(dir, "fig12_mean_speedup");
    }
    let mut out = table.render();
    out.push_str("\npaper: rdr > bfs > ori at every core count; rdr reaches ~75x at 32 cores.\n");
    out
}

/// Figure 13: gain in execution time of RDR over ORI and BFS,
/// `(T_algo(p) − T_RDR(p)) / T_algo(p)`, averaged over the suite.
pub fn fig13(cfg: &ExpConfig) -> String {
    let sims = simulate_all(cfg);
    let meshes = cfg.meshes();
    let mut table = Table::new(
        "Figure 13 — mean gain of RDR in execution time",
        &["cores", "vs ORI", "vs BFS"],
    );
    for &p in &cfg.threads {
        let mut gains = [0.0f64; 2];
        for named in &meshes {
            let rdr = sims[&(named.spec.label.to_string(), "rdr", p)].wall_cycles() as f64;
            for (g, alg) in gains.iter_mut().zip(["ori", "bfs"]) {
                let t = sims[&(named.spec.label.to_string(), alg, p)].wall_cycles() as f64;
                *g += (t - rdr) / t;
            }
        }
        table.row(vec![
            p.to_string(),
            pct(gains[0] / meshes.len() as f64),
            pct(gains[1] / meshes.len() as f64),
        ]);
    }
    if let Some(dir) = &cfg.csv_dir {
        let _ = table.write_csv(dir, "fig13_gains");
    }
    let mut out = table.render();
    out.push_str("\npaper: 20–30% gain over ORI, 10–30% over BFS, across core counts.\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> ExpConfig {
        ExpConfig {
            scale: 0.002,
            mesh: Some("crake".into()),
            max_iters: 3,
            threads: vec![1, 2, 4],
            ..Default::default()
        }
    }

    #[test]
    fn fig10_has_one_table_per_core_count() {
        let out = fig10(&tiny_cfg());
        assert!(out.contains("1 cores"));
        assert!(out.contains("4 cores"));
    }

    #[test]
    fn fig11_counts_decrease_columns_exist() {
        let out = fig11(&tiny_cfg());
        assert!(out.contains("L2 accesses/core"));
    }

    #[test]
    fn fig12_and_13_cover_thread_axis() {
        let cfg = tiny_cfg();
        let out12 = fig12(&cfg);
        let out13 = fig13(&cfg);
        assert!(out12.contains("cores"));
        assert!(out13.contains("vs ORI"));
    }
}
