//! Experiment runners — one per table/figure of the paper, plus the
//! extension studies; [`ALL`] lists them by name.

pub mod extensions;
pub mod figures;
pub mod locality;
pub mod partition;
pub mod performance;
pub mod scaling;
pub mod tables;
pub mod tet;

use crate::common::ExpConfig;

/// All experiment names accepted by [`run`], in run-all order.
pub const ALL: &[&str] = &[
    "table1",
    "fig1",
    "fig4",
    "fig5",
    "fig6",
    "fig8",
    "fig9",
    "table2",
    "table3",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "cost",
    "cost-model",
    "dynamic",
    "opt",
    "apps",
    "zoo",
    "growth",
    "parrdr",
    "iter-reorder",
    "tet",
    "tet-quality",
    "tet-scaling",
    "partition",
    "rebalance",
];

/// Run one experiment by name; `None` for an unknown name.
pub fn run(name: &str, cfg: &ExpConfig) -> Option<String> {
    Some(match name {
        "fig1" => figures::fig1(cfg),
        "fig4" => figures::fig4(cfg),
        "fig5" => figures::fig5(cfg),
        "fig6" => figures::fig6(cfg),
        "fig8" => performance::fig8(cfg),
        "fig9" => performance::fig9(cfg),
        "fig10" => scaling::fig10(cfg),
        "fig11" => scaling::fig11(cfg),
        "fig12" => scaling::fig12(cfg),
        "fig13" => scaling::fig13(cfg),
        "table1" => tables::table1(cfg),
        "table2" => tables::table2(cfg),
        "table3" => tables::table3(cfg),
        "cost" => performance::cost(cfg),
        "cost-model" => performance::cost_model(cfg),
        "dynamic" => performance::dynamic_vs_static(cfg),
        "partition" => partition::partition(cfg),
        "rebalance" => partition::rebalance(cfg),
        "opt" => extensions::opt_bound(cfg),
        "apps" => extensions::apps(cfg),
        "zoo" => extensions::ordering_zoo(cfg),
        "growth" => extensions::growth(cfg),
        "parrdr" => locality::parrdr(cfg),
        "iter-reorder" => locality::iter_reorder(cfg),
        "tet" => tet::tet(cfg),
        "tet-quality" => tet::tet_quality(cfg),
        "tet-scaling" => tet::tet_scaling(cfg),
        _ => return None,
    })
}

/// Run every experiment, concatenating the reports.
pub fn run_all(cfg: &ExpConfig) -> String {
    let mut out = String::new();
    for name in ALL {
        out.push_str(&format!("\n================ {name} ================\n"));
        out.push_str(&run(name, cfg).expect("ALL entries are valid"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_experiment_is_none() {
        assert!(run("fig99", &ExpConfig::default()).is_none());
    }

    #[test]
    fn all_names_are_unique_and_nonempty() {
        let mut seen = std::collections::HashSet::new();
        for name in ALL {
            assert!(!name.is_empty());
            assert!(seen.insert(name), "duplicate experiment name {name}");
        }
        assert_eq!(ALL.len(), 27);
    }
}
