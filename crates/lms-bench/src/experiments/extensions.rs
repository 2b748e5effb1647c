//! Experiments beyond the paper's tables and figures: the OPT bound behind
//! the §5.2.3 "quasi-optimal" claim, the §6 conjecture on other mesh
//! applications, the full ordering zoo, and the mesh-size growth study.

use crate::common::{first_sweep_trace, ms, ordered_mesh, time_it, ExpConfig};
use crate::table::{f, pct, Table};
use lms_apps::{
    opt_smooth, swap_until_stable, tangle_vertices, untangle, OptSmoothOptions, SwapOptions,
    UntangleOptions,
};
use lms_cache::{element_line_trace, OptComparison};
use lms_mesh::Adjacency;
use lms_order::{compute_ordering_with, layout_stats_permuted, OrderingKind};
use std::fmt::Write as _;

/// `opt`: LRU vs Belady-MIN misses of the first-iteration line trace, per
/// mesh and ordering, at the (scaled) L2 and L3 capacities.
///
/// Quantifies §5.2.3: the paper argues RDR's surviving L2/L3 misses are
/// not reuse-related, i.e. that no replacement policy — and a fortiori no
/// further reordering — could avoid them. If that is right, RDR's LRU
/// miss count must sit essentially on its own OPT count (ratio → 1.0),
/// while ORI's LRU count must sit well above its OPT count.
pub fn opt_bound(cfg: &ExpConfig) -> String {
    let mut table = Table::new(
        "OPT bound — LRU vs Belady misses of the first iteration (line granular)",
        &["mesh", "ordering", "level", "lines", "compulsory", "LRU miss", "OPT miss", "LRU/OPT"],
    );
    let configs = cfg.hierarchy().level_configs();
    for named in cfg.meshes() {
        let layout = cfg.layout;
        let line_bytes = configs[0].line_bytes;
        for kind in OrderingKind::PAPER_TRIO {
            let m = ordered_mesh(&named.mesh, kind);
            let lines = element_line_trace(&first_sweep_trace(&m), &layout, line_bytes);
            for level in &configs[1..] {
                let c = OptComparison::measure(&lines, level.num_lines());
                table.row(vec![
                    named.spec.name.to_string(),
                    kind.name().to_string(),
                    level.name.to_string(),
                    level.num_lines().to_string(),
                    c.compulsory.to_string(),
                    c.lru_misses.to_string(),
                    c.opt_misses.to_string(),
                    f(c.lru_over_opt(), 3),
                ]);
            }
        }
    }
    if let Some(dir) = &cfg.csv_dir {
        let _ = table.write_csv(dir, "opt_bound");
    }
    let mut out = table.render();
    let _ = writeln!(
        out,
        "\npaper shape (§5.2.3): RDR's LRU/OPT ratio ≈ 1 at L2 and L3 (its misses are ones\neven an offline-optimal cache takes); ORI's ratio is far above 1."
    );
    out
}

/// `apps`: the §6 conjecture — does the RDR ordering also speed up mesh
/// untangling, edge swapping and optimization-based smoothing?
///
/// Each application runs on the same mesh under ORI / BFS / RDR layouts;
/// we report wall time plus the layout's mean neighbour span (the locality
/// proxy that explains the timing).
pub fn apps(cfg: &ExpConfig) -> String {
    let mut table = Table::new(
        "§6 conjecture — other mesh applications under the paper's orderings",
        &["mesh", "ordering", "span", "untangle ms", "swap ms", "optsmooth ms"],
    );
    for named in cfg.meshes() {
        let adj = Adjacency::build(&named.mesh);
        for kind in OrderingKind::PAPER_TRIO {
            let perm = compute_ordering_with(&named.mesh, &adj, kind);
            let span = layout_stats_permuted(&named.mesh, &adj, &perm).mean_span;
            let base = perm.apply_to_mesh(&named.mesh);

            // untangle a deterministically tangled copy
            let mut tangled = base.clone();
            tangled.orient_ccw();
            tangle_vertices(&mut tangled, 40);
            let (_, t_untangle) =
                time_it(|| untangle(&mut tangled, None, UntangleOptions::default()));

            // Delaunay swapping
            let mut to_swap = base.clone();
            let (_, t_swap) =
                time_it(|| swap_until_stable(&mut to_swap, SwapOptions::default(), None));

            // optimization smoothing (few sweeps: per-sweep cost dominates)
            let mut to_opt = base.clone();
            let opts = OptSmoothOptions { max_sweeps: 3, ..OptSmoothOptions::default() };
            let (_, t_opt) = time_it(|| opt_smooth(&mut to_opt, &opts));

            table.row(vec![
                named.spec.name.to_string(),
                kind.name().to_string(),
                f(span, 1),
                f(ms(t_untangle), 2),
                f(ms(t_swap), 2),
                f(ms(t_opt), 2),
            ]);
        }
    }
    if let Some(dir) = &cfg.csv_dir {
        let _ = table.write_csv(dir, "apps_conjecture");
    }
    let mut out = table.render();
    let _ = writeln!(
        out,
        "\nexpected shape (§6): the locality orderings (BFS, RDR) keep their advantage on\nthe other sweep-shaped applications; gaps grow with mesh scale as the working\nset falls out of cache."
    );
    out
}

/// `zoo`: every ordering the crate implements × the selected meshes —
/// layout span plus simulated L1/L2/L3 miss rates of the first iteration.
pub fn ordering_zoo(cfg: &ExpConfig) -> String {
    let mut table = Table::new(
        "Ordering zoo — mean over selected meshes, first iteration",
        &["ordering", "mean span", "L1 miss", "L2 miss", "L3 miss"],
    );
    let meshes = cfg.meshes();
    for kind in OrderingKind::ALL {
        let mut span_sum = 0.0;
        let mut miss = [0.0f64; 3];
        for named in &meshes {
            let adj = Adjacency::build(&named.mesh);
            let perm = compute_ordering_with(&named.mesh, &adj, kind);
            span_sum += layout_stats_permuted(&named.mesh, &adj, &perm).mean_span;
            let m = perm.apply_to_mesh(&named.mesh);
            let mut hier = cfg.hierarchy();
            hier.run_trace(&first_sweep_trace(&m));
            for (i, stats) in hier.level_stats().iter().enumerate() {
                miss[i] += stats.miss_rate();
            }
        }
        let n = meshes.len() as f64;
        table.row(vec![
            kind.name().to_string(),
            f(span_sum / n, 1),
            pct(miss[0] / n),
            pct(miss[1] / n),
            pct(miss[2] / n),
        ]);
    }
    if let Some(dir) = &cfg.csv_dir {
        let _ = table.write_csv(dir, "ordering_zoo");
    }
    let mut out = table.render();
    let _ = writeln!(
        out,
        "\nreading: the graph/geometry orderings (bfs, rcm, sloan, hilbert, morton, rdr)\ncluster far below random and the pure value sorts (qsort/degsort) — sorting by\nquality *without* the neighbour-chaining walk destroys locality, which is the\nablation evidence that RDR's chaining step, not its quality sort, does the\nwork. Exact within-cluster ranking wobbles at small --scale."
    );
    out
}

/// `growth`: ordering gains vs mesh size — one suite mesh refined 0..N
/// levels, simulated L2/L3 miss rates for ORI vs RDR at each size.
pub fn growth(cfg: &ExpConfig) -> String {
    use lms_mesh::refine::refine_midpoint;
    let mut table = Table::new(
        "Growth — miss rates vs mesh size (midpoint refinement of crake)",
        &["level", "vertices", "ORI L2", "RDR L2", "ORI L3", "RDR L3"],
    );
    let spec = lms_mesh::suite::find_spec("crake").expect("crake is in the suite");
    let mut mesh = lms_mesh::suite::generate(spec, (cfg.scale * 0.25).max(0.001));
    for level in 0..3 {
        let mut rates = Vec::new(); // [ori_l2, rdr_l2, ori_l3, rdr_l3]
        for li in 1..=2 {
            for kind in [OrderingKind::Original, OrderingKind::Rdr] {
                let m = ordered_mesh(&mesh, kind);
                let mut hier = cfg.hierarchy();
                hier.run_trace(&first_sweep_trace(&m));
                rates.push((li, kind, hier.level_stats()[li].miss_rate()));
            }
        }
        table.row(vec![
            level.to_string(),
            mesh.num_vertices().to_string(),
            pct(rates[0].2),
            pct(rates[1].2),
            pct(rates[2].2),
            pct(rates[3].2),
        ]);
        mesh = refine_midpoint(&mesh);
    }
    if let Some(dir) = &cfg.csv_dir {
        let _ = table.write_csv(dir, "growth");
    }
    let mut out = table.render();
    let _ = writeln!(
        out,
        "\nreading: as refinement pushes the working set past each cache level, ORI\ndegrades first; RDR's near-streaming accesses keep its miss rates low longer\n— the size axis behind the paper's fixed-size results."
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> ExpConfig {
        ExpConfig {
            scale: 0.004,
            mesh: Some("carabiner".into()),
            max_iters: 5,
            ..ExpConfig::default()
        }
    }

    #[test]
    fn opt_bound_reports_rdr_closest_to_opt() {
        let report = opt_bound(&tiny_cfg());
        assert!(report.contains("rdr"));
        assert!(report.contains("LRU/OPT"));
    }

    #[test]
    fn apps_runs_all_three_applications() {
        let report = apps(&tiny_cfg());
        for col in ["untangle", "swap", "optsmooth"] {
            assert!(report.contains(col), "missing column {col}");
        }
    }

    #[test]
    fn zoo_lists_every_ordering() {
        let report = ordering_zoo(&tiny_cfg());
        for kind in OrderingKind::ALL {
            assert!(report.contains(kind.name()), "missing {}", kind.name());
        }
    }

    #[test]
    fn growth_reports_three_levels() {
        let report = growth(&tiny_cfg());
        assert!(report.contains("level"));
        assert!(report.matches('\n').count() > 5);
    }
}
