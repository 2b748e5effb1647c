//! `lms-exp` — regenerate the paper's tables and figures.
//!
//! ```text
//! USAGE: lms-exp <experiment|all|list> [options]
//!
//! experiments: every table and figure of the paper (table1, fig1–fig13,
//!              table2, table3, cost, cost-model) plus the extension
//!              studies (opt, apps, zoo, growth, parrdr, iter-reorder,
//!              tet, tet-quality, tet-scaling, dynamic, partition,
//!              rebalance) — run `lms-exp list` for the authoritative
//!              list. Engine cost is measured by the `benchmark/`
//!              harness, not here.
//!
//! options:
//!   --scale <f64>      suite scale, 1.0 = paper size      [default 0.02]
//!   --mesh <name>      restrict to one suite mesh (label or name)
//!   --iters <n>        sweep cap for traced runs          [default 50]
//!   --threads a,b,c    core counts for scaling figures    [default 1,2,4,8,16,24,32]
//!   --csv-dir <dir>    also write CSVs into <dir>
//! ```

#![forbid(unsafe_code)]

use lms_bench::{run, run_all, ExpConfig, ALL};
use std::process::ExitCode;

fn usage() -> String {
    format!(
        "USAGE: lms-exp <experiment|all|list> [--scale f] [--mesh name] [--iters n] \
         [--threads a,b,c] [--csv-dir dir]\nexperiments: {}",
        ALL.join(" ")
    )
}

fn parse_args(args: &[String]) -> Result<(String, ExpConfig), String> {
    let mut cfg = ExpConfig::default();
    let mut cmd: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                cfg.scale = it
                    .next()
                    .ok_or("--scale needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --scale: {e}"))?;
                if cfg.scale <= 0.0 {
                    return Err("--scale must be positive".into());
                }
            }
            "--mesh" => cfg.mesh = Some(it.next().ok_or("--mesh needs a value")?.clone()),
            "--iters" => {
                cfg.max_iters = it
                    .next()
                    .ok_or("--iters needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --iters: {e}"))?;
            }
            "--threads" => {
                cfg.threads = it
                    .next()
                    .ok_or("--threads needs a value")?
                    .split(',')
                    .map(|s| s.trim().parse::<usize>())
                    .collect::<Result<_, _>>()
                    .map_err(|e| format!("bad --threads: {e}"))?;
                if cfg.threads.is_empty() || cfg.threads.contains(&0) {
                    return Err("--threads must be positive integers".into());
                }
            }
            "--csv-dir" => {
                cfg.csv_dir = Some(it.next().ok_or("--csv-dir needs a value")?.into());
            }
            "--help" | "-h" => return Err(usage()),
            other if cmd.is_none() && !other.starts_with('-') => cmd = Some(other.to_string()),
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    Ok((cmd.ok_or_else(usage)?, cfg))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, cfg) = match parse_args(&args) {
        Ok(v) => v,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    match cmd.as_str() {
        "list" => {
            println!("{}", ALL.join("\n"));
            ExitCode::SUCCESS
        }
        "all" => {
            println!("{}", run_all(&cfg));
            ExitCode::SUCCESS
        }
        name => match run(name, &cfg) {
            Some(report) => {
                println!("{report}");
                ExitCode::SUCCESS
            }
            None => {
                eprintln!("unknown experiment {name:?}\n{}", usage());
                ExitCode::FAILURE
            }
        },
    }
}
