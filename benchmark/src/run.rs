//! The closed loop: one client doing back-to-back fresh reps of one
//! workload, untraced for the end-to-end metrics or traced for the layers.

use crate::case::{verify, Case, Phase, Rep, Row};
use crate::host;
use crate::json::{number, quote};
use crate::metrics::{Decl, END_TO_END, PER_LAYER};
use crate::stats::{summarize, Samples, Summary};
use crate::tet3d::OriResident3;
use crate::tracer::Tracer;
use crate::tri2d::{OriDist, RdrResident, RdrSerial};
use lms::part::wire::crc32c;
use std::path::PathBuf;
use std::time::Instant;

/// Workload names; later issues cite them, so they are fixed.
pub const WORKLOADS: [&str; 4] =
    ["tri2d-rdr-serial", "tri2d-rdr-resident", "tri2d-ori-dist", "tet3d-ori-resident"];

/// Timed reps an untraced run makes at least, however short `--seconds` is.
const MIN_TIMED_REPS: usize = 3;
/// A run whose reps keep failing stops instead of filling its time budget.
const MAX_FAILED_REPS: usize = 3;

pub struct Config {
    pub workload: String,
    pub seed: u64,
    /// How long the run measures; ignored at the smoke size.
    pub seconds: f64,
    pub traced: bool,
    /// 96² / 16³ inputs and 2 reps: exercises every code path in seconds.
    pub smoke: bool,
    /// The benchmark's own directory (where it was built); results go to
    /// its `out/`.
    pub bench_dir: PathBuf,
}

pub struct Metric {
    pub decl: &'static Decl,
    pub summary: Summary,
    /// The samples behind the summary, in the order they were taken.
    pub samples: Vec<f64>,
}

pub struct LayerTable {
    pub rows: Vec<Row>,
    /// Median `e2e_s` and `setup_s` of the traced reps the rows describe.
    pub e2e_s: f64,
    pub setup_s: f64,
    /// `e2e_s` minus every row: time between spans and inside constructors
    /// that no standalone timing accounts for.
    pub unattributed_s: f64,
}

pub struct RunResult {
    pub workload: String,
    pub traced: bool,
    pub seed: u64,
    pub provenance: Vec<(String, String)>,
    pub metrics: Vec<Metric>,
    /// `e2e_s` of the discarded warm-up reps, first-touch costs included.
    pub cold_e2e_s: Vec<f64>,
    pub attempted: usize,
    pub failed: usize,
    /// CRC32c of the first verified rep's output coordinates.
    pub digest: Option<u32>,
    pub table: Option<LayerTable>,
    pub trace_file: Option<(PathBuf, usize)>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.digest.is_some()
    }
}

fn build_case(cfg: &Config) -> Result<Box<dyn Case>, String> {
    let (tri, tet) = if cfg.smoke { (96, 16) } else { (768, 48) };
    Ok(match cfg.workload.as_str() {
        "tri2d-rdr-serial" => Box::new(RdrSerial::new(tri, cfg.seed)),
        "tri2d-rdr-resident" => Box::new(RdrResident::new(tri, cfg.seed)),
        "tri2d-ori-dist" => Box::new(OriDist::new(tri, cfg.seed)),
        "tet3d-ori-resident" => Box::new(OriResident3::new(tet, cfg.seed)),
        other => {
            return Err(format!("unknown workload {other:?}; one of {}", WORKLOADS.join(", ")))
        }
    })
}

/// Counts reps and checks each against the oracle.
struct Gate {
    oracle: Vec<u64>,
    expected_quality: Option<f64>,
    attempted: usize,
    failed: usize,
    digest: Option<u32>,
}

impl Gate {
    /// The rep if it ran and its output is right; a failure is counted
    /// and explained on standard error.
    fn admit(&mut self, rep: Result<Rep, String>) -> Option<Rep> {
        self.attempted += 1;
        let checked =
            rep.and_then(|rep| verify(&rep, &self.oracle, self.expected_quality).map(|()| rep));
        match checked {
            Ok(rep) => {
                self.digest.get_or_insert_with(|| {
                    let bytes: Vec<u8> = rep.coords.iter().flat_map(|c| c.to_le_bytes()).collect();
                    crc32c(&bytes)
                });
                Some(rep)
            }
            Err(why) => {
                self.failed += 1;
                eprintln!("rep {} failed: {why}", self.attempted);
                None
            }
        }
    }
}

/// Warm-up reps first (so they pay the first-touch costs), then the
/// oracle, then the warm-ups' verdicts. Also the peak resident set after
/// the very first rep, when the process has done one pass and nothing else.
fn warm_up(cfg: &Config, case: &mut dyn Case, reps: usize) -> (Gate, Vec<f64>, f64) {
    let mut cold = vec![case.fresh(None)];
    let first_pass_rss_mb = host::peak_rss_mb() + host::children_peak_rss_mb();
    cold.extend((1..reps).map(|_| case.fresh(None)));
    let mut gate = Gate {
        oracle: case.oracle(),
        // the recorded qualities are those of the canonical sizes
        expected_quality: (!cfg.smoke).then(|| case.expected_quality()),
        attempted: 0,
        failed: 0,
        digest: None,
    };
    let cold_e2e_s =
        cold.into_iter().filter_map(|rep| gate.admit(rep)).map(|r| r.e2e_s()).collect();
    (gate, cold_e2e_s, first_pass_rss_mb)
}

fn push_rep(samples: &mut Samples, prefix: &str, rep: &Rep) {
    samples.push(&format!("{prefix}e2e_s"), rep.e2e_s());
    samples.push(&format!("{prefix}setup_s"), rep.setup_s);
    samples.push(&format!("{prefix}smooth_s"), rep.smooth_s);
}

/// When a measuring loop stops: at the smoke size after exactly `least`
/// units of work; otherwise after at least that many, before the unit that
/// would overrun `--seconds` — so a run's length is bounded by its budget,
/// not by the budget plus a rep.
struct Budget<'a> {
    cfg: &'a Config,
    start: Instant,
    least: usize,
}

impl Budget<'_> {
    fn spent(&self, done: usize, last_started: Instant) -> bool {
        let next_would_end = self.start.elapsed() + last_started.elapsed();
        done >= self.least && (self.cfg.smoke || next_would_end.as_secs_f64() > self.cfg.seconds)
    }
}

/// Timed fresh reps; samples of the three end-to-end times.
fn measure_untraced(cfg: &Config, case: &mut dyn Case, gate: &mut Gate) -> Samples {
    let mut samples = Samples::default();
    let least = if cfg.smoke { 2 } else { MIN_TIMED_REPS };
    let budget = Budget { cfg, start: Instant::now(), least };
    let mut timed = 0;
    while gate.failed < MAX_FAILED_REPS {
        let rep_start = Instant::now();
        if let Some(rep) = gate.admit(case.fresh(None)) {
            push_rep(&mut samples, "", &rep);
        }
        timed += 1;
        if budget.spent(timed, rep_start) {
            break;
        }
    }
    samples
}

/// The one-time probes, then rounds of an untraced rep beside a traced
/// one; samples of every per-layer metric, the layer table, and the
/// exported trace.
fn measure_traced(
    cfg: &Config,
    case: &mut dyn Case,
    gate: &mut Gate,
) -> Result<(Samples, LayerTable, (PathBuf, usize)), String> {
    let mut tracer = Tracer::new();
    let budget = Budget { cfg, start: Instant::now(), least: if cfg.smoke { 2 } else { 3 } };
    case.probes(&mut tracer.samples);
    let mut rounds = 0;
    while gate.failed < MAX_FAILED_REPS {
        let round_start = Instant::now();
        // The ratio of the two reps is the tracing overhead, measured
        // within this run.
        if let Some(rep) = gate.admit(case.fresh(Some(&mut tracer.samples))) {
            push_rep(&mut tracer.samples, "", &rep);
        }
        if let Some(rep) = gate.admit(case.staged(&mut tracer)) {
            push_rep(&mut tracer.samples, "traced.", &rep);
        }
        rounds += 1;
        if budget.spent(rounds, round_start) {
            break;
        }
    }
    let mut samples = std::mem::take(&mut tracer.samples);
    let rows = case.layers(&mut samples);
    let e2e_s = samples.med("traced.e2e_s");
    let unattributed_s = e2e_s - rows.iter().map(|r| r.secs).sum::<f64>();
    samples.set("trace.overhead_ratio", e2e_s / samples.med("e2e_s"));
    samples.set("trace.unattributed_s", unattributed_s);
    let table = LayerTable { rows, e2e_s, setup_s: samples.med("traced.setup_s"), unattributed_s };

    let json = lms_trace::chrome_trace_json(&tracer.events());
    let events = lms_trace::validate_chrome_trace(&json)
        .map_err(|e| format!("recorded trace does not validate: {e}"))?;
    let path = out_path(cfg, "trace.json")?;
    std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok((samples, table, (path, events)))
}

pub fn run(cfg: &Config) -> Result<RunResult, String> {
    let mut case = build_case(cfg)?;
    let (mut gate, cold_e2e_s, first_pass_rss_mb) =
        warm_up(cfg, case.as_mut(), if cfg.smoke || cfg.traced { 1 } else { 2 });
    let (samples, table, trace_file) = if cfg.traced {
        let (samples, table, trace_file) = measure_traced(cfg, case.as_mut(), &mut gate)?;
        (samples, Some(table), Some(trace_file))
    } else {
        let mut samples = measure_untraced(cfg, case.as_mut(), &mut gate);
        samples.set("peak_rss_mb", first_pass_rss_mb);
        (samples, None, None)
    };

    let decls = if cfg.traced { PER_LAYER } else { END_TO_END };
    let metrics = decls
        .iter()
        .map(|decl| {
            let values = samples.get(decl.name);
            Metric { decl, summary: summarize(values), samples: values.to_vec() }
        })
        .collect();
    let mut provenance = host::provenance();
    provenance.extend(case.describe());
    provenance.extend([
        ("seed".into(), cfg.seed.to_string()),
        ("size".into(), if cfg.smoke { "smoke" } else { "canonical" }.into()),
        ("seconds".into(), cfg.seconds.to_string()),
        ("warm_up_reps".into(), cold_e2e_s.len().to_string()),
        ("timed_reps".into(), samples.get("e2e_s").len().to_string()),
        ("traced_reps".into(), samples.get("traced.e2e_s").len().to_string()),
    ]);
    Ok(RunResult {
        workload: cfg.workload.clone(),
        traced: cfg.traced,
        seed: cfg.seed,
        provenance,
        metrics,
        cold_e2e_s,
        attempted: gate.attempted,
        failed: gate.failed,
        digest: gate.digest,
        table,
        trace_file,
    })
}

fn out_path(cfg: &Config, suffix: &str) -> Result<PathBuf, String> {
    let dir = cfg.bench_dir.join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir.join(format!("{}.{suffix}", cfg.workload)))
}

/// Everything a reader wants to see, by name, before the contract's JSON line.
pub fn print_report(r: &RunResult) {
    let mode = if r.traced { "traced" } else { "untraced" };
    println!("== {} ({mode}, seed {}) ==", r.workload, r.seed);
    println!("provenance:");
    for (key, value) in &r.provenance {
        println!("  {key:<14} {value}");
    }
    let mesh_bytes = r.provenance.iter().find(|(k, _)| k == "mesh_bytes");
    if let Some(bytes) = mesh_bytes.and_then(|(_, v)| v.parse::<f64>().ok()) {
        let times = |level| {
            host::cache_bytes(level).map_or("?".into(), |c| format!("{:.2}", bytes / c as f64))
        };
        println!(
            "  working set    coordinates + connectivity alone are {}x the L2 and {}x the L3 \
             this host reports; no bandwidth figure is claimed",
            times(2),
            times(3)
        );
    }
    let cold: Vec<String> = r.cold_e2e_s.iter().map(|s| format!("{s:.4}")).collect();
    println!("cold_e2e_s (warm-up reps, discarded): [{}]", cold.join(", "));
    println!(
        "{:<36} {:>8} {:>14} {:>14} {:>14} {:>14} {:>4}",
        "metric", "unit", "median", "q1", "q3", "min", "n"
    );
    for m in &r.metrics {
        let s = &m.summary;
        println!(
            "{:<36} {:>8} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>4}{}",
            m.decl.name,
            m.decl.unit,
            s.median,
            s.q1,
            s.q3,
            s.min,
            s.n,
            if m.decl.exact { "  #" } else { "" }
        );
    }
    if let Some(t) = &r.table {
        println!("layer table (median seconds of one traced rep; e2e_s = {:.6}):", t.e2e_s);
        println!(
            "  {:<18} {:<7} {:<44} {:>10} {:>7}",
            "layer", "phase", "call", "seconds", "share"
        );
        let line = |layer: &str, phase: &str, name: &str, secs: f64| {
            println!(
                "  {layer:<18} {phase:<7} {name:<44} {secs:>10.6} {:>6.1}%",
                secs * 100.0 / t.e2e_s
            );
        };
        for row in &t.rows {
            let phase = if row.phase == Phase::Setup { "setup" } else { "smooth" };
            line(row.layer, phase, row.name, row.secs);
        }
        line("-", "-", "unattributed", t.unattributed_s);
        println!(
            "  rows + unattributed = e2e_s; unattributed is {:.1}% of e2e_s and {:.1}% of setup_s",
            t.unattributed_s * 100.0 / t.e2e_s,
            t.unattributed_s * 100.0 / t.setup_s
        );
    }
    if let Some((path, events)) = &r.trace_file {
        println!("trace: {events} events, validated, written to {}", path.display());
    }
    let digest = r.digest.map_or("none".into(), |d| format!("crc32c:{d:08x}"));
    println!("output digest {digest}; reps attempted {} failed {}", r.attempted, r.failed);
}

/// The whole result as JSON, for `compare`.
pub fn result_json(r: &RunResult) -> String {
    let provenance: Vec<String> =
        r.provenance.iter().map(|(k, v)| format!("{}: {}", quote(k), quote(v))).collect();
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            let s = &m.summary;
            let samples: Vec<String> = m.samples.iter().map(|&v| number(v)).collect();
            format!(
                "{}: {{\"value\": {}, \"unit\": {}, \"q1\": {}, \"q3\": {}, \"min\": {}, \
                 \"n\": {}, \"samples\": [{}]}}",
                quote(m.decl.name),
                number(s.median),
                quote(m.decl.unit),
                number(s.q1),
                number(s.q3),
                number(s.min),
                s.n,
                samples.join(", ")
            )
        })
        .collect();
    let cold: Vec<String> = r.cold_e2e_s.iter().map(|&s| number(s)).collect();
    format!(
        "{{\n  \"workload\": {},\n  \"traced\": {},\n  \"provenance\": {{{}}},\n  \
         \"cold_e2e_s\": [{}],\n  \"digest\": {},\n  \"correct\": {},\n  \"attempted\": {},\n  \
         \"failed\": {},\n  \"metrics\": {{\n    {}\n  }}\n}}\n",
        quote(&r.workload),
        r.traced,
        provenance.join(", "),
        cold.join(", "),
        quote(&r.digest.map_or("none".into(), |d| format!("crc32c:{d:08x}"))),
        r.correct(),
        r.attempted,
        r.failed,
        metrics.join(",\n    ")
    )
}

/// The last line of standard output, as the contract words it.
pub fn contract_line(r: &RunResult) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(m.decl.name),
                number(m.summary.median),
                quote(m.decl.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct(),
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

/// Run, report, and leave the result file `compare` reads.
pub fn run_and_report(cfg: &Config) -> Result<RunResult, String> {
    let result = run(cfg)?;
    print_report(&result);
    let path = out_path(cfg, if cfg.traced { "traced.json" } else { "untraced.json" })?;
    std::fs::write(&path, result_json(&result)).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("result: {}", path.display());
    Ok(result)
}
