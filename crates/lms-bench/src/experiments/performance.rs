//! Figure 8 (serial execution time), Figure 9 (cache miss rates) and the
//! §5.4 reordering-cost / Equation (2) analyses.

use crate::common::{first_sweep_trace, ordered_mesh, time_it, ExpConfig};
use crate::table::{f, pct, Table};
use lms_apps::{smooth, Backend};
use lms_cache::{CostModel, ReuseDistanceAnalyzer, StackDistanceModel};
use lms_order::{rdr_ordering, OrderingKind};
use lms_smooth::SmoothParams;
use std::fmt::Write as _;

/// Figure 8: serial execution time of the full smoothing run per mesh and
/// ordering, plus the RDR speedups (paper: 1.39× vs ORI, 1.19× vs BFS).
pub fn fig8(cfg: &ExpConfig) -> String {
    let mut table = Table::new(
        format!("Figure 8 — serial execution time (ms), scale {}", cfg.scale),
        &["mesh", "ORI", "BFS", "RDR", "RDR/ORI speedup", "RDR/BFS speedup"],
    );
    let mut su_ori = Vec::new();
    let mut su_bfs = Vec::new();
    for named in cfg.meshes() {
        let mut times = Vec::new();
        for kind in OrderingKind::PAPER_TRIO {
            let m = ordered_mesh(&named.mesh, kind);
            let params = SmoothParams::paper().with_max_iters(cfg.max_iters);
            let (_, wall) = time_it(|| smooth(&mut m.clone(), params, Backend::Serial));
            times.push(wall.as_secs_f64() * 1e3);
        }
        let (ori, bfs, rdr) = (times[0], times[1], times[2]);
        su_ori.push(ori / rdr);
        su_bfs.push(bfs / rdr);
        table.row(vec![
            named.spec.name.to_string(),
            f(ori, 1),
            f(bfs, 1),
            f(rdr, 1),
            f(ori / rdr, 2),
            f(bfs / rdr, 2),
        ]);
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    if let Some(dir) = &cfg.csv_dir {
        let _ = table.write_csv(dir, "fig8_serial_times");
    }
    let mut out = table.render();
    let _ = writeln!(
        out,
        "\nmean RDR speedup: {:.2}x vs ORI (paper: 1.39x), {:.2}x vs BFS (paper: 1.19x)",
        mean(&su_ori),
        mean(&su_bfs)
    );
    out
}

/// Per-mesh, per-ordering cache miss rates from the Westmere-EX simulator,
/// driven by the full-application stream (vertex gathers + quality-update
/// triangle accesses, as in the paper's PAPI measurements).
fn miss_rates_for(
    cfg: &ExpConfig,
    mesh: &lms_mesh::TriMesh,
    kind: OrderingKind,
) -> (Vec<f64>, Vec<u64>) {
    let m = ordered_mesh(mesh, kind);
    let sink = crate::common::full_trace_with_quality(&m, cfg.max_iters.min(8));
    let mut h = cfg.hierarchy_for(&m);
    h.run_trace(&sink.accesses);
    let stats = h.level_stats();
    (stats.iter().map(|s| s.miss_rate()).collect(), stats.iter().map(|s| s.misses).collect())
}

/// Figure 9: L1/L2/L3 miss rates on one core for ORI/BFS/RDR across the
/// suite (paper: RDR cuts misses by 25% / 71% / 84% vs ORI on average).
pub fn fig9(cfg: &ExpConfig) -> String {
    let mut out = String::new();
    let mut tables: Vec<Table> = (0..3)
        .map(|lvl| {
            Table::new(
                format!("Figure 9{} — L{} miss rate", ['a', 'b', 'c'][lvl], lvl + 1),
                &["mesh", "ORI", "BFS", "RDR"],
            )
        })
        .collect();
    // miss *count* reductions vs ORI and BFS, per level
    let mut reductions_ori = [Vec::new(), Vec::new(), Vec::new()];
    let mut reductions_bfs = [Vec::new(), Vec::new(), Vec::new()];

    for named in cfg.meshes() {
        let mut rates = Vec::new();
        let mut misses = Vec::new();
        for kind in OrderingKind::PAPER_TRIO {
            let (r, m) = miss_rates_for(cfg, &named.mesh, kind);
            rates.push(r);
            misses.push(m);
        }
        for lvl in 0..3 {
            tables[lvl].row(vec![
                named.spec.name.to_string(),
                pct(rates[0][lvl]),
                pct(rates[1][lvl]),
                pct(rates[2][lvl]),
            ]);
            if misses[0][lvl] > 0 {
                reductions_ori[lvl].push(1.0 - misses[2][lvl] as f64 / misses[0][lvl] as f64);
            }
            if misses[1][lvl] > 0 {
                reductions_bfs[lvl].push(1.0 - misses[2][lvl] as f64 / misses[1][lvl] as f64);
            }
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    for (lvl, t) in tables.iter().enumerate() {
        out.push_str(&t.render());
        let _ = writeln!(
            out,
            "mean L{} miss-count reduction: {} vs ORI, {} vs BFS\n",
            lvl + 1,
            pct(mean(&reductions_ori[lvl])),
            pct(mean(&reductions_bfs[lvl]))
        );
        if let Some(dir) = &cfg.csv_dir {
            let _ = t.write_csv(dir, &format!("fig9_l{}", lvl + 1));
        }
    }
    let _ = writeln!(
        out,
        "paper: RDR reduces misses vs ORI (resp. BFS) by 25% (6.3%) L1, 71% (51%) L2, 84% (65%) L3."
    );
    out
}

/// §5.4: the pre-computation (reordering) cost, measured against one ORI
/// sweep, plus the break-even iteration count. Paper: the RDR reordering
/// costs about one ORI iteration; worth it beyond ~4 iterations.
pub fn cost(cfg: &ExpConfig) -> String {
    let mut table = Table::new(
        "Section 5.4 — reordering cost vs smoothing iterations",
        &[
            "mesh",
            "reorder (ms)",
            "ORI iter (ms)",
            "RDR iter (ms)",
            "cost (iters)",
            "break-even iters",
        ],
    );
    for named in cfg.meshes() {
        let (perm, reorder_t) = time_it(|| rdr_ordering(&named.mesh));
        let one_iter = SmoothParams::paper().with_max_iters(1);
        let (_, t_ori) =
            time_it(|| smooth(&mut named.mesh.clone(), one_iter.clone(), Backend::Serial));
        let rdr_mesh = perm.apply_to_mesh(&named.mesh);
        let (_, t_rdr) = time_it(|| smooth(&mut rdr_mesh.clone(), one_iter, Backend::Serial));
        let reorder_ms = reorder_t.as_secs_f64() * 1e3;
        let ori_ms = t_ori.as_secs_f64() * 1e3;
        let rdr_ms = t_rdr.as_secs_f64() * 1e3;
        let gain = (ori_ms - rdr_ms).max(1e-9);
        table.row(vec![
            named.spec.name.to_string(),
            f(reorder_ms, 2),
            f(ori_ms, 2),
            f(rdr_ms, 2),
            f(reorder_ms / ori_ms, 2),
            f(reorder_ms / gain, 1),
        ]);
    }
    if let Some(dir) = &cfg.csv_dir {
        let _ = table.write_csv(dir, "cost_reordering");
    }
    let mut out = table.render();
    out.push_str(
        "\npaper: reordering ≈ 1 ORI iteration; pays off beyond ~4 smoothing iterations.\n",
    );
    out
}

/// Static vs dynamic reordering (Shontz & Knupp, paper §2): reorder once
/// up front vs re-reorder every couple of sweeps. Their finding — which
/// the paper builds on by choosing an a-priori static ordering — is that
/// the extra reorderings never pay for themselves.
pub fn dynamic_vs_static(cfg: &ExpConfig) -> String {
    use lms_apps::dynamic::{smooth_with_strategy, ReorderStrategy};
    const REORDER_EVERY: usize = 2;
    let mut table = Table::new(
        "Static vs dynamic reordering (Shontz & Knupp comparison)",
        &[
            "mesh",
            "static ms",
            "dynamic ms",
            "static sweeps+reorders",
            "dynamic sweeps+reorders",
            "final q delta",
            "static wins",
        ],
    );
    for named in cfg.meshes() {
        let params = SmoothParams::paper().with_max_iters(cfg.max_iters);

        let (rs, t_static) = time_it(|| {
            let mut m = named.mesh.clone();
            smooth_with_strategy(&mut m, &params, OrderingKind::Rdr, ReorderStrategy::Static)
        });
        let (rd, t_dynamic) = time_it(|| {
            let mut m = named.mesh.clone();
            smooth_with_strategy(
                &mut m,
                &params,
                OrderingKind::Rdr,
                ReorderStrategy::Dynamic { reorder_every: REORDER_EVERY },
            )
        });

        let (s, d) = (t_static.as_secs_f64() * 1e3, t_dynamic.as_secs_f64() * 1e3);
        table.row(vec![
            named.spec.name.to_string(),
            f(s, 1),
            f(d, 1),
            format!("{}+{}", rs.sweeps, rs.reorders),
            format!("{}+{}", rd.sweeps, rd.reorders),
            f(rd.final_quality - rs.final_quality, 5),
            (s < d).to_string(),
        ]);
    }
    if let Some(dir) = &cfg.csv_dir {
        let _ = table.write_csv(dir, "dynamic_vs_static");
    }
    let mut out = table.render();
    out.push_str(
        "\nShontz & Knupp (and the paper): same final quality, but the extra reorderings never pay\n\
         for themselves — static a-priori reordering wins.\n",
    );
    out
}

/// Equation (2) worked example: additional cycles caused by cache misses
/// (paper, carabiner at full scale: ORI 927k, BFS 528k, RDR 210k cycles).
pub fn cost_model(cfg: &ExpConfig) -> String {
    let spec = lms_mesh::suite::find_spec(cfg.mesh.as_deref().unwrap_or("carabiner")).unwrap();
    let base = lms_mesh::suite::generate(spec, cfg.scale);
    let costs = CostModel::westmere_ex();
    let model = StackDistanceModel::from_hierarchy(&cfg.hierarchy());

    let mut table = Table::new(
        format!("Equation (2) — extra cycles from cache misses ({})", spec.name),
        &["ordering", "L1 misses", "L2 misses", "L3 misses", "extra cycles (k)"],
    );
    for kind in OrderingKind::PAPER_TRIO {
        let m = ordered_mesh(&base, kind);
        let trace = first_sweep_trace(&m);
        let distances = ReuseDistanceAnalyzer::analyze(&trace, m.num_vertices());
        let outcome = model.apply(&distances, false);
        let cycles =
            costs.extra_cycles_from_misses(outcome.misses[0], outcome.misses[1], outcome.misses[2]);
        table.row(vec![
            kind.name().to_string(),
            outcome.misses[0].to_string(),
            outcome.misses[1].to_string(),
            outcome.misses[2].to_string(),
            f(cycles as f64 / 1e3, 1),
        ]);
    }
    let mut out = table.render();
    out.push_str("\npaper (full scale): ORI 927k, BFS 528k, RDR 210k extra cycles.\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> ExpConfig {
        ExpConfig {
            scale: 0.002,
            mesh: Some("carabiner".into()),
            max_iters: 4,
            ..Default::default()
        }
    }

    #[test]
    fn fig8_reports_speedups() {
        let out = fig8(&tiny_cfg());
        assert!(out.contains("RDR/ORI"));
        assert!(out.contains("mean RDR speedup"));
    }

    #[test]
    fn fig9_emits_three_levels() {
        let out = fig9(&tiny_cfg());
        assert!(out.contains("Figure 9a"));
        assert!(out.contains("Figure 9b"));
        assert!(out.contains("Figure 9c"));
    }

    #[test]
    fn cost_reports_break_even() {
        let out = cost(&tiny_cfg());
        assert!(out.contains("break-even"));
    }

    #[test]
    fn cost_model_orders_cycles_sanely() {
        let out = cost_model(&tiny_cfg());
        assert!(out.contains("extra cycles"));
        assert!(out.contains("rdr"));
    }
}
