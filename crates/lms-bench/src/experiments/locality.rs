//! Locality extension experiments: parallel RDR construction and data vs
//! iteration reordering.

use crate::common::{time_it, ExpConfig};
use crate::table::{f, pct, Table};
use lms_apps::{smooth, Backend};
use lms_cache::ReuseDistanceAnalyzer;
use lms_order::{layout_stats_permuted, par_rdr_ordering, ParRdrOptions};
use lms_smooth::SmoothParams;
use std::fmt::Write as _;

/// `parrdr` — parallel RDR construction: §5.4 prices the serial reordering
/// at one ORI sweep; chunked construction divides that cost while giving up
/// a little locality at the chunk seams.
pub fn parrdr(cfg: &ExpConfig) -> String {
    let mut out = String::new();
    for named in cfg.meshes() {
        let adj = lms_mesh::Adjacency::build(&named.mesh);
        let mut table = Table::new(
            format!(
                "Parallel RDR construction — {} ({} vertices)",
                named.spec.name,
                named.mesh.num_vertices()
            ),
            &["chunks", "construct ms", "mean span", "smooth ms", "construct speedup"],
        );
        let mut base_ms = 0.0;
        for &chunks in &[1usize, 2, 4, 8] {
            let opts = ParRdrOptions::default();
            let (perm, t) = time_it(|| par_rdr_ordering(&named.mesh, &opts, chunks));
            let span = layout_stats_permuted(&named.mesh, &adj, &perm).mean_span;
            let m = perm.apply_to_mesh(&named.mesh);
            let params = SmoothParams::paper().with_max_iters(cfg.max_iters.min(8));
            let (_, t_smooth) = time_it(|| smooth(&mut m.clone(), params, Backend::Serial));
            let t_ms = t.as_secs_f64() * 1e3;
            if chunks == 1 {
                base_ms = t_ms;
            }
            table.row(vec![
                chunks.to_string(),
                f(t_ms, 2),
                f(span, 1),
                f(t_smooth.as_secs_f64() * 1e3, 2),
                f(base_ms / t_ms.max(1e-9), 2),
            ]);
        }
        if let Some(dir) = &cfg.csv_dir {
            let _ = table.write_csv(dir, &format!("parrdr_{}", named.spec.label));
        }
        out.push_str(&table.render());
    }
    let _ = writeln!(
        out,
        "\nchunked walks lower the reordering cost (and the §5.4 break-even point) at a small span penalty."
    );
    out
}

/// `iter-reorder` — data reordering vs iteration reordering
/// (Strout & Hovland \[18\] distinguish the two; the paper's renumbering
/// performs both at once because the sweep walks the array in storage
/// order). Four configurations per mesh:
///
/// * `none`       — original layout, storage-order sweep (baseline);
/// * `iter-only`  — original layout, sweep visits vertices in RDR order;
/// * `data-only`  — RDR layout, sweep visits vertices in the *original*
///   sequence (iteration pattern preserved, data moved);
/// * `both`       — RDR layout, storage-order sweep (the paper's RDR).
pub fn iter_reorder(cfg: &ExpConfig) -> String {
    use lms_cache::reuse::ReuseStats;
    use lms_smooth::{SmoothEngine, VecSink};
    let mut table = Table::new(
        format!("Data vs iteration reordering (Strout & Hovland), scale {}", cfg.scale),
        &["mesh", "config", "mean RD", "L1 miss", "L2 miss"],
    );
    for named in cfg.meshes() {
        let perm = lms_order::rdr_ordering(&named.mesh);
        let rdr_mesh = perm.apply_to_mesh(&named.mesh);
        let params = SmoothParams::paper().with_max_iters(1);

        // visit sequences
        let interior_in_rdr_order: Vec<u32> = perm.new_to_old().to_vec();
        // in the RDR-renumbered mesh, "the original sequence" is the image
        // of 0..n under old→new
        let original_seq_in_new_ids: Vec<u32> = perm.old_to_new();

        let configs: Vec<(&str, &lms_mesh::TriMesh, Option<Vec<u32>>)> = vec![
            ("none", &named.mesh, None),
            ("iter-only", &named.mesh, Some(interior_in_rdr_order)),
            ("data-only", &rdr_mesh, Some(original_seq_in_new_ids)),
            ("both", &rdr_mesh, None),
        ];
        for (name, mesh, visit) in configs {
            let mut engine = SmoothEngine::new(mesh, params.clone());
            if let Some(order) = visit {
                engine = engine.with_visit_order(order);
            }
            let mut sink = VecSink::new();
            engine.smooth_traced(&mut mesh.clone(), &mut sink);
            let distances = ReuseDistanceAnalyzer::analyze(&sink.accesses, mesh.num_vertices());
            let mean_rd = ReuseStats::from_distances(&distances).mean;
            let mut h = cfg.hierarchy();
            h.run_trace(&sink.accesses);
            let stats = h.level_stats();
            table.row(vec![
                named.spec.name.to_string(),
                name.to_string(),
                f(mean_rd, 1),
                pct(stats[0].miss_rate()),
                pct(stats[1].miss_rate()),
            ]);
        }
    }
    if let Some(dir) = &cfg.csv_dir {
        let _ = table.write_csv(dir, "iter_reorder");
    }
    let mut out = table.render();
    out.push_str(
        "\nStrout & Hovland: data and iteration reordering compose; the paper's renumbering\n\
         does both at once, which is why `both` dominates and `iter-only` alone cannot fix\n\
         the layout.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> ExpConfig {
        ExpConfig {
            scale: 0.002,
            mesh: Some("carabiner".into()),
            max_iters: 3,
            ..Default::default()
        }
    }

    #[test]
    fn parrdr_reports_speedup() {
        let out = parrdr(&tiny_cfg());
        assert!(out.contains("construct speedup"));
        assert!(out.contains("chunks"));
    }

    #[test]
    fn iter_reorder_lists_all_four_configs() {
        let out = iter_reorder(&tiny_cfg());
        for config in ["none", "iter-only", "data-only", "both"] {
            assert!(out.contains(config), "missing {config} in\n{out}");
        }
    }
}
