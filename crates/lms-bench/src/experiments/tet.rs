//! `tet` — the §6 conjecture on tetrahedral meshes: RDR transfers to
//! volumetric Laplacian smoothing.
//!
//! For each 3D suite mesh and each of ORI / BFS / RDR, the experiment
//! measures the mean reuse distance of one smoothing sweep, the simulated
//! L1/L2/L3 miss counts of the scaled Westmere-EX hierarchy, and the
//! wall-clock smoothing time — the 3D twins of Table 2, Figure 9 and
//! Figure 8.

use crate::common::{scaled_westmere, time_it, ExpConfig};
use crate::table::{f, k, Table};
use lms_apps::{smooth, Backend};
use lms_cache::reuse::{ReuseDistanceAnalyzer, ReuseStats};
use lms_mesh3d::generators::{generate3, SUITE3};
use lms_mesh3d::order::{apply_permutation3, compute_ordering3, sweep_trace3, OrderingKind3};
use lms_mesh3d::{Adjacency3, Boundary3, SmoothParams3};
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
        for kind in OrderingKind3::PAPER_TRIO {
            let perm = compute_ordering3(&base, kind);
            let m = apply_permutation3(&perm, &base);
            let adj = Adjacency3::build(&m);
            let boundary = Boundary3::detect(&m);

            let trace = sweep_trace3(&adj, &boundary);
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
    for kind in OrderingKind3::PAPER_TRIO {
        let perm = compute_ordering3(&base, kind);
        let m = apply_permutation3(&perm, &base);
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
    let trace_of = |kind: OrderingKind3| {
        let perm = compute_ordering3(&base, kind);
        let m = apply_permutation3(&perm, &base);
        let adj = Adjacency3::build(&m);
        let b = Boundary3::detect(&m);
        sweep_trace3(&adj, &b)
    };
    let traces: Vec<(OrderingKind3, Vec<u32>)> =
        OrderingKind3::PAPER_TRIO.iter().map(|&k| (k, trace_of(k))).collect();
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

/// `scaling3d` — wall-clock thread scaling of the 3D engines over a tet
/// grid: serial reference vs colored deterministic Gauss–Seidel vs the
/// resident halo-exchange engine (all one generic code path with the 2D
/// engines). Gated
/// on the bit-identity of the resident sweep with serial part-major 3D
/// Gauss–Seidel before any timing, exactly like the 2D `scaling`
/// experiment.
pub fn scaling3d(cfg: &ExpConfig) -> String {
    use lms_mesh3d::{ResidentEngine3, SmoothEngine3};
    use lms_part::PartitionMethod;

    let host_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let spec = &SUITE3[0];
    let base = generate3(spec, scale3(cfg));
    let params =
        SmoothParams3::paper().with_smart(true).with_max_iters(cfg.max_iters.min(8)).with_tol(-1.0);
    let parts = 8usize;

    let serial = SmoothEngine3::new(&base, params.clone());
    let colored = SmoothEngine3::new(&base, params.clone());
    let resident = ResidentEngine3::by_method(&base, params.clone(), parts, PartitionMethod::Rcb);

    // correctness gate: resident == serial part-major 3D GS, bit for bit
    let gate_ok = {
        let mut a = base.clone();
        let report = resident.smooth(&mut a, 2);
        let oracle = SmoothEngine3::new(&base, params.clone())
            .with_visit_order(resident.part_major_visit_order());
        let mut b = base.clone();
        oracle.smooth(&mut b);
        let volume = report.exchange.expect("resident runs report exchange accounting");
        a.coords() == b.coords() && volume.full_gathers == 1 && volume.full_scatters == 1
    };

    let mut table = Table::new(
        format!(
            "3D engine thread scaling — {} ({} vertices, {} tets), smart GS, {parts}-way rcb, \
             host has {host_cores} cores",
            spec.name,
            base.num_vertices(),
            base.num_tets()
        ),
        &["threads", "serial (ms)", "colored (ms)", "resident (ms)"],
    );
    let (_, ts) = time_it(|| serial.smooth(&mut base.clone()));
    for &threads in cfg.threads.iter().filter(|&&t| t <= 8) {
        let (_, tc) = time_it(|| colored.smooth_parallel_colored(&mut base.clone(), threads));
        let (_, tr) = time_it(|| resident.smooth(&mut base.clone(), threads));
        table.row(vec![
            threads.to_string(),
            f(ts.as_secs_f64() * 1e3, 1),
            f(tc.as_secs_f64() * 1e3, 1),
            f(tr.as_secs_f64() * 1e3, 1),
        ]);
    }
    if let Some(dir) = &cfg.csv_dir {
        let _ = table.write_csv(dir, "scaling3d");
    }
    let mut out = table.render();
    let _ = writeln!(
        out,
        "\nresident == serial part-major 3D GS (bitwise, one gather / one scatter): {}",
        if gate_ok { "PASS" } else { "FAIL" }
    );
    assert!(gate_ok, "3D resident engine diverged from serial part-major Gauss-Seidel");
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
    fn scaling3d_gates_resident_on_serial_equality() {
        let cfg = ExpConfig { threads: vec![1, 2], ..tiny_cfg() };
        let out = scaling3d(&cfg);
        assert!(out.contains("resident"));
        assert!(out.contains("PASS"), "{out}");
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
