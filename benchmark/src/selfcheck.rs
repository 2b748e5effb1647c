//! `selfcheck`: every workload, untraced and traced, at the smoke size,
//! plus the agreement between `BENCHMARK.json` and what the harness emits.

use crate::json::{parse, Value};
use crate::metrics::{Decl, END_TO_END, PER_LAYER};
use crate::run::{run_and_report, Config, WORKLOADS};
use std::path::Path;

/// Rows may miss the traced `e2e_s` by this share of it.
const MAX_UNATTRIBUTED_SHARE: f64 = 0.05;

fn check_declared(section: &Value, decls: &[Decl], what: &str) -> Result<(), String> {
    let declared = section.as_array();
    if declared.len() != decls.len() {
        return Err(format!(
            "BENCHMARK.json declares {} {what} metrics, the harness emits {}",
            declared.len(),
            decls.len()
        ));
    }
    for (entry, decl) in declared.iter().zip(decls) {
        let text = |key| entry.get(key).and_then(Value::as_str).unwrap_or("");
        let better = if decl.higher_is_better { "higher" } else { "lower" };
        let bound = entry.get("bound").and_then(Value::as_f64).unwrap_or(0.0);
        if (text("name"), text("unit"), text("better"), bound)
            != (decl.name, decl.unit, better, decl.bound)
        {
            return Err(format!(
                "BENCHMARK.json {what} entry {entry:?} does not match the harness' {decl:?}"
            ));
        }
    }
    Ok(())
}

pub fn selfcheck(bench_dir: &Path) -> Result<(), String> {
    let manifest = bench_dir.join("../BENCHMARK.json");
    let text =
        std::fs::read_to_string(&manifest).map_err(|e| format!("{}: {e}", manifest.display()))?;
    let declared = parse(&text).map_err(|e| format!("{}: {e}", manifest.display()))?;
    let names: Vec<&str> = declared
        .get("workloads")
        .map_or(&[][..], Value::as_array)
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::as_str))
        .collect();
    if names != WORKLOADS {
        return Err(format!("BENCHMARK.json workloads {names:?} are not {WORKLOADS:?}"));
    }
    check_declared(declared.get("end_to_end").unwrap_or(&Value::Null), END_TO_END, "end_to_end")?;
    check_declared(declared.get("per_layer").unwrap_or(&Value::Null), PER_LAYER, "per_layer")?;

    for workload in WORKLOADS {
        for traced in [false, true] {
            let cfg = Config {
                workload: workload.into(),
                seed: 42,
                seconds: 0.0,
                traced,
                smoke: true,
                bench_dir: bench_dir.to_path_buf(),
            };
            let result = run_and_report(&cfg)?;
            if !result.correct() {
                return Err(format!(
                    "{workload}: {} of {} reps failed",
                    result.failed, result.attempted
                ));
            }
            if let Some(table) = &result.table {
                let share = table.unattributed_s.abs() / table.e2e_s;
                if share > MAX_UNATTRIBUTED_SHARE {
                    return Err(format!(
                        "{workload}: layer rows miss e2e_s by {:.1}% (limit {:.0}%)",
                        share * 100.0,
                        MAX_UNATTRIBUTED_SHARE * 100.0
                    ));
                }
            }
        }
    }
    println!(
        "selfcheck: BENCHMARK.json matches the harness; all workloads correct at the smoke size"
    );
    Ok(())
}
