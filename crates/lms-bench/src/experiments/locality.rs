//! Locality-substrate extension experiments: TLB behaviour, sampled
//! reuse-distance monitoring, write-back traffic, and parallel RDR
//! construction.

use crate::common::{first_sweep_trace, full_trace, ordered_mesh, time_it, ExpConfig};
use crate::table::{f, pct, Table};
use lms_apps::{smooth, Backend};
use lms_cache::reuse::ReuseStats;
use lms_cache::sampled::sampled_distances;
use lms_cache::tlb::{Tlb, TlbConfig};
use lms_cache::traffic::{sweep_rw_trace, WritebackCache};
use lms_cache::{CacheConfig, ReuseDistanceAnalyzer};
use lms_order::{layout_stats_permuted, par_rdr_ordering, OrderingKind, ParRdrOptions};
use lms_smooth::SmoothParams;
use std::fmt::Write as _;

/// `tlb` — data-TLB behaviour of the first smoothing sweep per ordering.
///
/// The reorderings shrink the *page* working set as well as the line
/// working set; the walk rate drops ORI → BFS → RDR just like the cache
/// miss rates of Figure 9.
pub fn tlb(cfg: &ExpConfig) -> String {
    // Scale the TLB reach with the mesh scale (same rule as the cache
    // hierarchy): at paper scale the real 64/512-entry Westmere DTLB; at
    // reduced scale the entry counts shrink so the page-working-set-to-TLB
    // ratio — and therefore the walk-rate *shape* — matches the paper's.
    let shrink = crate::common::shrink_factor(cfg.scale);
    let tlb_config = TlbConfig {
        l1_entries: (64 / shrink).max(4),
        l2_entries: (512 / shrink).max(8),
        ..TlbConfig::westmere_ex()
    };
    let mut table = Table::new(
        format!(
            "TLB — walk rate of one sweep ({}-entry L1 / {}-entry L2 DTLB), scale {}",
            tlb_config.l1_entries, tlb_config.l2_entries, cfg.scale
        ),
        &[
            "mesh",
            "ORI walks",
            "BFS walks",
            "RDR walks",
            "ORI walk rate",
            "RDR walk rate",
            "RDR cycles saved vs ORI",
        ],
    );
    for named in cfg.meshes() {
        let mut walks = Vec::new();
        let mut rates = Vec::new();
        let mut cycles = Vec::new();
        for kind in OrderingKind::PAPER_TRIO {
            let m = ordered_mesh(&named.mesh, kind);
            let trace = first_sweep_trace(&m);
            let mut tlb = Tlb::new(tlb_config);
            let cost = tlb.run_trace(&trace, &cfg.layout);
            walks.push(tlb.stats().walks);
            rates.push(tlb.stats().walk_rate());
            cycles.push(cost);
        }
        table.row(vec![
            named.spec.name.to_string(),
            walks[0].to_string(),
            walks[1].to_string(),
            walks[2].to_string(),
            pct(rates[0]),
            pct(rates[2]),
            format!("{}", cycles[0].saturating_sub(cycles[2])),
        ]);
    }
    if let Some(dir) = &cfg.csv_dir {
        let _ = table.write_csv(dir, "tlb");
    }
    let mut out = table.render();
    out.push_str("\nexpected: walk counts drop ORI -> BFS -> RDR (same mechanism as Figure 9, page granularity).\n");
    out
}

/// `sampled` — SHARDS-style sampled reuse-distance monitoring vs the exact
/// analysis: accuracy and analysis-time trade-off on one full LMS trace.
pub fn sampled(cfg: &ExpConfig) -> String {
    let named = &cfg.meshes()[0];
    let sink = full_trace(&named.mesh, cfg.max_iters.min(4));
    let n = named.mesh.num_vertices();

    let (exact, t_exact) = time_it(|| ReuseDistanceAnalyzer::analyze(&sink.accesses, n));
    let exact_mean = ReuseStats::from_distances(&exact).mean;

    let mut table = Table::new(
        format!(
            "Sampled reuse distance (SHARDS) — {} ({} accesses), exact mean {:.1}",
            named.spec.name,
            sink.accesses.len(),
            exact_mean
        ),
        &["rate", "monitored", "mean estimate", "rel err", "analysis ms", "speedup"],
    );
    table.row(vec![
        "1".into(),
        pct(1.0),
        f(exact_mean, 1),
        pct(0.0),
        f(t_exact.as_secs_f64() * 1e3, 2),
        f(1.0, 1),
    ]);
    for rate_log2 in [2u32, 4, 6] {
        let (s, t) = time_it(|| sampled_distances(&sink.accesses, n, rate_log2, 0xACE));
        let mean = s.stats().mean;
        let rel = if exact_mean > 0.0 { (mean - exact_mean).abs() / exact_mean } else { 0.0 };
        table.row(vec![
            format!("1/{}", 1u64 << rate_log2),
            pct(s.sample_fraction()),
            f(mean, 1),
            pct(rel),
            f(t.as_secs_f64() * 1e3, 2),
            f(t_exact.as_secs_f64() / t.as_secs_f64().max(1e-9), 1),
        ]);
    }
    if let Some(dir) = &cfg.csv_dir {
        let _ = table.write_csv(dir, "sampled");
    }
    let mut out = table.render();
    out.push_str("\nSHARDS: hash-sampling elements keeps the estimator unbiased while analysing a fraction of the trace.\n");
    out
}

/// `writeback` — write-back traffic of one sweep under an L2-sized
/// write-back/write-allocate cache: the smoother *writes* every interior
/// vertex, and a good layout keeps dirty lines resident.
pub fn writeback(cfg: &ExpConfig) -> String {
    let mut table = Table::new(
        format!("Write-back traffic of one sweep (L2-sized write-back cache), scale {}", cfg.scale),
        &["mesh", "ORI fills", "ORI wbacks", "RDR fills", "RDR wbacks", "traffic cut"],
    );
    // reuse the scaled L2 shape from the hierarchy preset
    let l2 = cfg.hierarchy().level_configs()[1];
    for named in cfg.meshes() {
        let mut traffic = Vec::new();
        let mut fills = Vec::new();
        let mut wbacks = Vec::new();
        for kind in [OrderingKind::Original, OrderingKind::Rdr] {
            let m = ordered_mesh(&named.mesh, kind);
            let engine = lms_smooth::SmoothEngine::new(&m, SmoothParams::paper().with_max_iters(1));
            let trace = first_sweep_trace(&m);
            let heads: Vec<bool> = {
                let b = engine.boundary();
                (0..m.num_vertices() as u32).map(|v| b.is_interior(v)).collect()
            };
            let rw = sweep_rw_trace(&trace, &heads);
            let mut cache = WritebackCache::new(CacheConfig { name: "L2wb", ..l2 });
            cache.run_trace(&rw, &cfg.layout);
            cache.drain();
            let s = cache.stats();
            traffic.push(s.line_traffic());
            fills.push(s.fills);
            wbacks.push(s.writebacks + s.drained);
        }
        let cut = if traffic[0] > 0 { 1.0 - traffic[1] as f64 / traffic[0] as f64 } else { 0.0 };
        table.row(vec![
            named.spec.name.to_string(),
            fills[0].to_string(),
            wbacks[0].to_string(),
            fills[1].to_string(),
            wbacks[1].to_string(),
            pct(cut),
        ]);
    }
    if let Some(dir) = &cfg.csv_dir {
        let _ = table.write_csv(dir, "writeback");
    }
    let mut out = table.render();
    out.push_str("\nexpected: RDR cuts both demand fills and dirty write-backs (the cost Figure 9 does not count).\n");
    out
}

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
    fn tlb_reports_walks() {
        let out = tlb(&tiny_cfg());
        assert!(out.contains("walk rate"));
        assert!(out.contains("carabiner"));
    }

    #[test]
    fn sampled_reports_rates() {
        let out = sampled(&tiny_cfg());
        assert!(out.contains("1/16"));
        assert!(out.contains("rel err"));
    }

    #[test]
    fn writeback_reports_traffic_cut() {
        let out = writeback(&tiny_cfg());
        assert!(out.contains("traffic cut"));
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
