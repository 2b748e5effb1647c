//! The distributed-backend experiment: multi-process resident smoothing
//! (forked rank processes over pipes, `lms-dist`) against the in-process
//! resident engine on the same decomposition — correctness-gated bit for
//! bit, with the coalesced-exchange traffic accounting alongside the
//! wall times.

use crate::common::{time_it, ExpConfig};
use crate::table::{f, Table};
use lms_dist::{DistResidentEngine, FtOptions};
use lms_part::{MessagePlan, PartitionMethod};
use lms_smooth::{ResidentEngine, SmoothParams};
use std::fmt::Write as _;

const PARTS: usize = 4;

/// `dist`: in-process vs multi-process resident smoothing.
pub fn dist(cfg: &ExpConfig) -> String {
    let host_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let params =
        SmoothParams::paper().with_smart(true).with_max_iters(cfg.max_iters.min(10)).with_tol(-1.0);
    let mut table = Table::new(
        format!(
            "In-process vs multi-process resident smoothing, smart GS, {PARTS}-way rcb \
             ({host_cores}-core host)"
        ),
        &[
            "mesh",
            "resident 1t (ms)",
            "resident 2t (ms)",
            &format!("dist {PARTS} ranks (ms)"),
            "msgs/round",
            "entries/msg",
            "wire KiB",
        ],
    );
    let mut gate_ok = true;
    let mut volume_line = String::new();
    for named in cfg.meshes().iter().take(2) {
        let resident =
            ResidentEngine::by_method(&named.mesh, params.clone(), PARTS, PartitionMethod::Rcb);
        let dist_engine =
            DistResidentEngine::by_method(&named.mesh, params.clone(), PARTS, PartitionMethod::Rcb);
        // correctness gate: the process backend must reproduce the
        // in-process engine bit for bit — coordinates and report
        let (dist_mesh, report) = {
            let mut m = named.mesh.clone();
            let r = dist_engine.smooth_with(&mut m, &FtOptions::default());
            (m, r)
        };
        {
            let mut m = named.mesh.clone();
            let local = resident.smooth(&mut m, 2);
            gate_ok &= dist_mesh.coords() == m.coords() && report == local;
        }
        let volume = report.exchange.expect("resident runs report exchange accounting");
        let plan = MessagePlan::build(resident.exchange_schedule());
        let (_, t1) = time_it(|| resident.smooth(&mut named.mesh.clone(), 1));
        let (_, t2) = time_it(|| resident.smooth(&mut named.mesh.clone(), 2));
        let (_, td) =
            time_it(|| dist_engine.smooth_with(&mut named.mesh.clone(), &FtOptions::default()));
        let rounds = volume.exchange_rounds.max(1);
        table.row(vec![
            named.spec.name.to_string(),
            f(t1.as_secs_f64() * 1e3, 1),
            f(t2.as_secs_f64() * 1e3, 1),
            f(td.as_secs_f64() * 1e3, 1),
            f(volume.halo_messages_sent as f64 / rounds as f64, 1),
            f(volume.halo_entries_sent as f64 / volume.halo_messages_sent.max(1) as f64, 1),
            f(volume.halo_bytes_sent as f64 / 1024.0, 1),
        ]);
        if volume_line.is_empty() {
            let _ = write!(
                volume_line,
                "{}: gathers {}, scatters {}, {} rounds, {} msgs / {} entries \
                 (plan ceiling {} pairs/round)",
                named.spec.name,
                volume.full_gathers,
                volume.full_scatters,
                volume.exchange_rounds,
                volume.halo_messages_sent,
                volume.halo_entries_sent,
                plan.num_pairs(),
            );
        }
    }
    if let Some(dir) = &cfg.csv_dir {
        let _ = table.write_csv(dir, "dist");
    }
    let mut out = table.render();
    let _ = writeln!(
        out,
        "\nmulti-process == in-process resident bitwise (coords + report): {}\n\
         exchange accounting — {volume_line}\n\
         (dist wall time includes forking {PARTS} rank processes per run; rank \
         parallelism is bounded by host_cores = {host_cores})",
        if gate_ok { "yes" } else { "NO (bug!)" }
    );

    // --- phase breakdown of one profiled distributed run ----------------
    // wire v3: rank sweep timings ride back in every Report frame, the
    // coordinator times its own routing, and the driver spans the phases
    if let Some(named) = cfg.meshes().into_iter().next() {
        let dist_engine =
            DistResidentEngine::by_method(&named.mesh, params.clone(), PARTS, PartitionMethod::Rcb);
        let mut work = named.mesh.clone();
        if let Ok((report, _, recorder)) =
            dist_engine.smooth_profiled(&mut work, &FtOptions::default())
        {
            let moved = report.moved_vertices_per_sec();
            let scored = report.scored_elements_per_sec();
            let breakdown = report.phase_breakdown.expect("profiled run attaches a breakdown");
            let _ = writeln!(
                out,
                "\nphase breakdown — {} ({PARTS} ranks, {} span events recorded):\n{}",
                named.spec.name,
                recorder.events().len(),
                breakdown.summary_table()
            );
            // scored-elements/sec is rank-local and not shipped over wire
            // v3, so the process transport reports only the moved rate
            let _ = writeln!(
                out,
                "throughput — {:.2}k moved vertices/s, scored elements/s: {}",
                moved.unwrap_or(f64::NAN) / 1e3,
                scored
                    .map(|s| format!("{:.2}M", s / 1e6))
                    .unwrap_or_else(|| "n/a (not shipped over the wire)".into()),
            );
        }
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
            threads: vec![1, 2],
            ..ExpConfig::default()
        }
    }

    #[test]
    fn dist_gates_on_bitwise_equality() {
        let out = dist(&tiny_cfg());
        assert!(out.contains("dist 4 ranks"), "{out}");
        assert!(out.contains("bitwise (coords + report): yes"), "gate must hold:\n{out}");
        assert!(out.contains("phase breakdown"), "profiled section missing:\n{out}");
        assert!(out.contains("interior"), "summary table missing phases:\n{out}");
        assert!(out.contains("moved vertices/s"), "throughput line missing:\n{out}");
    }
}
