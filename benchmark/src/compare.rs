//! `compare A B`: every metric two result files share, B against A,
//! judged by the bound the benchmark fixed — the repeatability check
//! between two sets of runs and the before/after table of a later change.

use crate::json::{parse, Value};
use crate::metrics::find;

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Prints the table; `Ok(false)` when an end-to-end metric is worse than
/// its bound allows or a `#` count differs.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let field =
        |v: &Value, key: &str| v.get(key).and_then(Value::as_str).unwrap_or("?").to_string();
    for (label, v) in [("A", &a), ("B", &b)] {
        let prov = |key| v.get("provenance").map_or("?".into(), |p| field(p, key));
        println!(
            "{label}: {} ({}) seed {} sha {} dirty {} digest {}",
            field(v, "workload"),
            if v.get("traced") == Some(&Value::Bool(true)) { "traced" } else { "untraced" },
            prov("seed"),
            prov("git_sha"),
            prov("git_dirty"),
            field(v, "digest")
        );
    }
    let input = |v: &Value| {
        let seed = v.get("provenance").map_or("?".into(), |p| field(p, "seed"));
        (field(v, "workload"), seed)
    };
    let same_input = input(&a) == input(&b);
    if !same_input {
        println!("note: workload or seed differ, so the # counts are not expected to repeat");
    }
    println!(
        "{:<36} {:>8} {:>14} {:>14} {:>9} {:>7}  verdict",
        "metric", "unit", "A", "B", "delta", "bound"
    );
    let mut ok = true;
    let metrics_b = b.get("metrics").ok_or("B has no metrics")?;
    for (name, entry_a) in a.get("metrics").ok_or("A has no metrics")?.as_object() {
        let Some(entry_b) = metrics_b.get(name) else { continue };
        let value = |e: &Value| e.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
        let (va, vb) = (value(entry_a), value(entry_b));
        let unit = entry_a.get("unit").and_then(Value::as_str).unwrap_or("");
        let Some(decl) = find(name) else {
            println!("{name:<36} {unit:>8} {va:>14.6} {vb:>14.6}  (not declared by this harness)");
            continue;
        };
        // positive = B is worse
        let worse_by = if va == 0.0 {
            0.0
        } else if decl.higher_is_better {
            (va - vb) / va
        } else {
            (vb - va) / va
        };
        let verdict = if decl.exact {
            if !same_input {
                "#"
            } else if va.to_bits() == vb.to_bits() {
                "# same"
            } else {
                ok = false;
                "# DIFFERS"
            }
        } else if decl.bound > 0.0 {
            if worse_by > decl.bound {
                ok = false;
                "WORSE THAN BOUND"
            } else {
                "within bound"
            }
        } else {
            ""
        };
        let bound =
            if decl.bound > 0.0 { format!("{:.0}%", decl.bound * 100.0) } else { "-".into() };
        println!(
            "{name:<36} {unit:>8} {va:>14.6} {vb:>14.6} {:>+8.2}% {bound:>7}  {verdict}",
            worse_by * 100.0
        );
    }
    println!("delta: share of A by which B is worse (negative: better)");
    Ok(ok)
}
