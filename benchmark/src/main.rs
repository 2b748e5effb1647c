//! `lms-benchmark`: one harness, four workloads. Measures mesh in → mesh
//! out including setup, from outside the library: it times calls into the
//! crates' public functions and reads the reports they already return.
//!
//! ```text
//! lms-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! lms-benchmark <name> [--seed N] [--traced]
//! lms-benchmark compare <A.json> <B.json>
//! lms-benchmark selfcheck
//! ```

mod case;
mod compare;
mod host;
mod json;
mod metrics;
mod run;
mod selfcheck;
mod stats;
mod tet3d;
mod tracer;
mod tri2d;

use std::path::PathBuf;
use std::process::ExitCode;

/// Seed of a run started by hand; the driver always passes its own.
const DEFAULT_SEED: u64 = 42;
/// `run_seconds` of `BENCHMARK.json`, for a run started by hand.
const DEFAULT_SECONDS: f64 = 24.0;

fn usage() -> String {
    format!(
        "usage: lms-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n       \
         lms-benchmark compare <A.json> <B.json>\n       lms-benchmark selfcheck\n\
         workloads: {}",
        run::WORKLOADS.join(", ")
    )
}

fn main_inner() -> Result<bool, String> {
    let mut args = std::env::args().skip(1);
    let mut positional = Vec::new();
    let mut cfg = run::Config {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        smoke: false,
        bench_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")),
    };
    while let Some(arg) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{arg} needs {what}\n{}", usage()));
        match arg.as_str() {
            "--workload" => cfg.workload = value("a workload name")?,
            "--seed" => {
                cfg.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cfg.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => cfg.traced = value("0 or 1")? == "1",
            "--traced" => cfg.traced = true,
            "--smoke" => cfg.smoke = true,
            "-h" | "--help" => {
                println!("{}", usage());
                return Ok(true);
            }
            flag if flag.starts_with('-') => {
                return Err(format!("unknown flag {flag}\n{}", usage()))
            }
            _ => positional.push(arg),
        }
    }
    match positional.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["compare", a, b] => compare::compare(a, b),
        ["selfcheck"] => selfcheck::selfcheck(&cfg.bench_dir).map(|()| true),
        [workload] if cfg.workload.is_empty() => {
            cfg.workload = workload.into();
            run_one(&cfg)
        }
        [] if !cfg.workload.is_empty() => run_one(&cfg),
        _ => Err(usage()),
    }
}

fn run_one(cfg: &run::Config) -> Result<bool, String> {
    let result = run::run_and_report(cfg)?;
    println!("{}", run::contract_line(&result));
    Ok(result.correct())
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(2),
        Err(why) => {
            eprintln!("lms-benchmark: {why}");
            ExitCode::from(1)
        }
    }
}
