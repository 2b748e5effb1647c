//! Figures 10–13: multicore scaling, via the socket-aware cache simulator
//! (substitution #3 of DESIGN.md) plus real rayon wall-clock runs for the
//! thread counts this host actually has.

use crate::common::{ordered_mesh, time_it, ExpConfig};
use crate::table::{f, pct, Table};
use lms_cache::{multicore, MulticoreResult};
use lms_order::OrderingKind;
use lms_part::PartitionMethod;
use lms_smooth::{ResidentEngine, SmoothEngine, SmoothParams};
use std::collections::HashMap;
use std::fmt::Write as _;

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

/// Real rayon wall-clock scaling on this host (complements the simulation;
/// thread counts beyond the host's cores are skipped).
pub fn real_scaling(cfg: &ExpConfig) -> String {
    let host_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let meshes = cfg.meshes();
    let mut table = Table::new(
        format!("Real rayon scaling on this host ({host_cores} cores)"),
        &["mesh", "threads", "ORI (ms)", "RDR (ms)", "gain"],
    );
    for named in meshes.iter().take(3) {
        for &p in cfg.threads.iter().filter(|&&p| p <= host_cores) {
            let mut row = vec![named.spec.name.to_string(), p.to_string()];
            let mut times = Vec::new();
            for kind in [OrderingKind::Original, OrderingKind::Rdr] {
                let m = ordered_mesh(&named.mesh, kind);
                let engine =
                    SmoothEngine::new(&m, SmoothParams::paper().with_max_iters(cfg.max_iters));
                let (_, wall) = time_it(|| engine.smooth_parallel(&mut m.clone(), p));
                times.push(wall.as_secs_f64() * 1e3);
            }
            row.push(f(times[0], 1));
            row.push(f(times[1], 1));
            row.push(pct((times[0] - times[1]) / times[0]));
            table.row(row);
        }
    }
    let mut out = table.render();
    let _ = writeln!(
        out,
        "\n(simulated 1–32-core results are in fig10–fig13; this host exposes {host_cores} hardware threads)"
    );
    out
}

/// Parallel-engine shoot-out on this host: deterministic Jacobi, chaotic
/// (racy) Gauss–Seidel, and colored deterministic Gauss–Seidel, per
/// thread count — plus a determinism audit of the colored engine.
pub fn engines(cfg: &ExpConfig) -> String {
    let host_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let meshes = cfg.meshes();
    let mut table = Table::new(
        format!("Parallel engines on this host ({host_cores} cores), RDR ordering"),
        &["mesh", "threads", "jacobi (ms)", "chaotic (ms)", "colored (ms)", "colored q"],
    );
    let mut deterministic = true;
    for named in meshes.iter().take(3) {
        let m = ordered_mesh(&named.mesh, OrderingKind::Rdr);
        let engine = SmoothEngine::new(&m, SmoothParams::paper().with_max_iters(cfg.max_iters));
        let mut reference: Option<Vec<lms_mesh::Point2>> = None;
        for &p in cfg.threads.iter().filter(|&&p| p <= host_cores.max(2)) {
            let mut jacobi = m.clone();
            let (_, tj) = time_it(|| engine.smooth_parallel(&mut jacobi, p));
            let mut chaotic = m.clone();
            let (_, tc) = time_it(|| engine.smooth_parallel_chaotic(&mut chaotic, p));
            let mut colored = m.clone();
            let (rg, tg) = time_it(|| engine.smooth_parallel_colored(&mut colored, p));
            match &reference {
                None => reference = Some(colored.coords().to_vec()),
                Some(r) => deterministic &= r.as_slice() == colored.coords(),
            }
            table.row(vec![
                named.spec.name.to_string(),
                p.to_string(),
                f(tj.as_secs_f64() * 1e3, 1),
                f(tc.as_secs_f64() * 1e3, 1),
                f(tg.as_secs_f64() * 1e3, 1),
                f(rg.final_quality, 4),
            ]);
        }
    }
    if let Some(dir) = &cfg.csv_dir {
        let _ = table.write_csv(dir, "parallel_engines");
    }
    let mut out = table.render();
    let _ = writeln!(
        out,
        "
colored engine bitwise-deterministic across thread counts: {}",
        if deterministic { "yes" } else { "NO (bug!)" }
    );
    out
}

/// The `scaling` experiment: wall-clock thread scaling of the two
/// deterministic Gauss–Seidel engines — colored and resident
/// halo-exchange — on the smart workload, with a bit-identity gate
/// between the resident engine and serial Gauss–Seidel under the
/// part-major order. The text/CSV companion of `bench_scaling.rs`.
pub fn thread_scaling(cfg: &ExpConfig) -> String {
    let host_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let meshes = cfg.meshes();
    let params =
        SmoothParams::paper().with_smart(true).with_max_iters(cfg.max_iters.min(10)).with_tol(-1.0);
    let mut table = Table::new(
        format!("Engine thread scaling on this host ({host_cores} cores), smart GS, 8-way rcb"),
        &["mesh", "threads", "colored (ms)", "resident (ms)", "res speedup vs 1t"],
    );
    let mut gate_ok = true;
    for named in meshes.iter().take(2) {
        let colored = SmoothEngine::new(&named.mesh, params.clone());
        let resident =
            ResidentEngine::by_method(&named.mesh, params.clone(), 8, PartitionMethod::Rcb);
        // correctness gate: resident == serial part-major GS, bit for bit
        {
            let mut a = named.mesh.clone();
            resident.smooth(&mut a, 2);
            let serial = SmoothEngine::new(&named.mesh, params.clone())
                .with_visit_order(resident.part_major_visit_order());
            let mut b = named.mesh.clone();
            serial.smooth(&mut b);
            gate_ok &= a.coords() == b.coords();
        }
        let mut res_1t = f64::NAN;
        for &threads in cfg.threads.iter().filter(|&&t| t <= 8) {
            let (_, tc) =
                time_it(|| colored.smooth_parallel_colored(&mut named.mesh.clone(), threads));
            let (_, tr) = time_it(|| resident.smooth(&mut named.mesh.clone(), threads));
            let tr_ms = tr.as_secs_f64() * 1e3;
            if threads == 1 {
                res_1t = tr_ms;
            }
            // the self-speedup needs a measured 1-thread baseline: with a
            // thread list that omits 1 (or lists it late) print a dash
            // instead of NaN/garbage
            let speedup = if res_1t.is_finite() { f(res_1t / tr_ms, 2) } else { "-".to_string() };
            table.row(vec![
                named.spec.name.to_string(),
                threads.to_string(),
                f(tc.as_secs_f64() * 1e3, 1),
                f(tr_ms, 1),
                speedup,
            ]);
        }
    }
    if let Some(dir) = &cfg.csv_dir {
        let _ = table.write_csv(dir, "thread_scaling");
    }
    let mut out = table.render();
    let _ = writeln!(
        out,
        "\nresident == serial part-major Gauss-Seidel bitwise: {}\n\
         (speedups above the host core count ({host_cores}) cannot exceed 1)",
        if gate_ok { "yes" } else { "NO (bug!)" }
    );
    // one-line comparable throughput counters from a profiled resident
    // run: sweep nanos come from PhaseBreakdown, scored elements from
    // the SoA kernel's rank-local counter
    if let Some(named) = meshes.first() {
        let resident =
            ResidentEngine::by_method(&named.mesh, params.clone(), 8, PartitionMethod::Rcb);
        let (report, _) = resident.smooth_profiled(&mut named.mesh.clone(), 1);
        let _ = writeln!(
            out,
            "throughput ({}, 1 thread) — {:.2}k moved vertices/s, {:.2}M scored elements/s",
            named.spec.name,
            report.moved_vertices_per_sec().unwrap_or(f64::NAN) / 1e3,
            report.scored_elements_per_sec().unwrap_or(f64::NAN) / 1e6,
        );
    }
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

    #[test]
    fn real_scaling_runs_on_host() {
        let out = real_scaling(&tiny_cfg());
        assert!(out.contains("Real rayon scaling"));
    }

    #[test]
    fn engines_reports_deterministic_colored() {
        let out = engines(&tiny_cfg());
        assert!(out.contains("colored (ms)"));
        assert!(out.contains("deterministic across thread counts: yes"));
    }

    #[test]
    fn thread_scaling_gates_resident_on_serial_equality() {
        let out = thread_scaling(&tiny_cfg());
        assert!(out.contains("resident (ms)"));
        assert!(out.contains("bitwise: yes"), "serial-equivalence gate must hold:\n{out}");
        assert!(out.contains("moved vertices/s"), "throughput line missing:\n{out}");
        assert!(out.contains("scored elements/s"), "throughput line missing:\n{out}");
    }
}
