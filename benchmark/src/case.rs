//! What the driver needs from a workload, and the checks and report
//! readers the workloads share.

use crate::stats::Samples;
use crate::tracer::Tracer;
use lms::part::Partition;
use lms::smooth::SmoothReport;

/// Parts of every decomposition, and ranks of the distributed workload.
pub const PARTS: usize = 4;
/// Jitter of both perturbed-grid generators.
pub const JITTER: f64 = 0.35;

/// One fresh pass of a workload: build everything, smooth, hand back the
/// output for verification.
pub struct Rep {
    /// Input mesh → first sweep: everything that is built before smoothing.
    pub setup_s: f64,
    /// The one `smooth` / `smooth_ft` call.
    pub smooth_s: f64,
    /// Bit patterns of the output coordinates, component by component.
    pub coords: Vec<u64>,
    pub report: SmoothReport,
    /// Recoveries the fault-tolerant driver needed (0 off the dist workload).
    pub recoveries: usize,
}

impl Rep {
    pub fn e2e_s(&self) -> f64 {
        self.setup_s + self.smooth_s
    }
}

/// One row of the layer table: seconds of one rep attributed to one
/// named call, under the crate that did the work.
pub struct Row {
    pub layer: &'static str,
    pub name: &'static str,
    pub phase: Phase,
    pub secs: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Setup,
    Smooth,
}

pub trait Case {
    /// Workload facts for the provenance block (sizes, threads, sweeps).
    fn describe(&self) -> Vec<(String, String)>;

    /// One untraced fresh rep through the convenience path a user calls.
    /// With `extra`, also take the measurements that need this rep's
    /// freshly built engine (done after the clock stops).
    fn fresh(&mut self, extra: Option<&mut Samples>) -> Result<Rep, String>;

    /// The same work through the staged public path, one span per call,
    /// followed (outside the `rep` span) by standalone timings of the
    /// constructors nested inside those calls.
    fn staged(&mut self, tracer: &mut Tracer) -> Result<Rep, String>;

    /// The untimed reference output every rep must equal bit for bit.
    fn oracle(&mut self) -> Vec<u64>;

    /// Measurements taken once per traced run (after [`Case::oracle`]).
    fn probes(&mut self, samples: &mut Samples);

    /// Turn the recorded samples into the per-layer metrics (stored back
    /// under their declared names) and the rows of the layer table.
    fn layers(&self, samples: &mut Samples) -> Vec<Row>;

    /// `final_quality` this workload reaches at its canonical size.
    fn expected_quality(&self) -> f64;
}

/// The correctness gate of one rep.
pub fn verify(rep: &Rep, oracle: &[u64], expected_quality: Option<f64>) -> Result<(), String> {
    if rep.coords != oracle {
        let differing = rep.coords.iter().zip(oracle).filter(|(a, b)| a != b).count();
        return Err(format!(
            "output differs from the oracle in {differing} of {} coordinate components",
            oracle.len()
        ));
    }
    let r = &rep.report;
    if r.final_quality <= r.initial_quality || !r.final_quality.is_finite() {
        return Err(format!(
            "quality did not improve: {} -> {}",
            r.initial_quality, r.final_quality
        ));
    }
    if let Some(expected) = expected_quality {
        if (r.final_quality - expected).abs() > 1e-3 {
            return Err(format!(
                "final quality {} is not within 1e-3 of the recorded {expected}",
                r.final_quality
            ));
        }
    }
    if let Some(x) = r.exchange {
        if (x.full_gathers, x.full_scatters) != (1, 1) {
            return Err(format!(
                "resident run made {} full gathers and {} full scatters",
                x.full_gathers, x.full_scatters
            ));
        }
    }
    if rep.recoveries != 0 {
        return Err(format!("run needed {} recoveries", rep.recoveries));
    }
    Ok(())
}

/// Read a profiled run's report into the `smooth.*` samples: driver
/// phases, per-part sweep times, and the exchange counts.
pub fn push_profile(samples: &mut Samples, report: &SmoothReport) {
    let Some(b) = &report.phase_breakdown else { return };
    let secs = |ns: u64| ns as f64 * 1e-9;
    samples.push("smooth.gather_s", secs(b.gather_ns));
    samples.push("smooth.interior_s", secs(b.interior_ns));
    samples.push("smooth.color_step_s", secs(b.color_step_ns));
    samples.push("smooth.finish_s", secs(b.finish_ns));
    samples.push("smooth.scatter_s", secs(b.scatter_ns));
    let part_ns = b.per_part_sweep_ns();
    let sum_ns: u64 = part_ns.iter().sum();
    samples.push("smooth.part_sweep_max_s", secs(part_ns.iter().copied().max().unwrap_or(0)));
    samples.push("smooth.part_sweep_sum_s", secs(sum_ns));
    let scored = b.transport.scored_elements;
    if scored > 0 {
        samples.push("smooth.ns_per_scored_element", sum_ns as f64 / scored as f64);
    }
    samples.push("smooth.scored_elements", scored as f64);
    let moved: u64 = b.transport.rank_phases.iter().map(|r| r.moved).sum();
    samples.push("smooth.moved_vertices", moved as f64);
    if let Some(x) = report.exchange {
        samples.push("smooth.halo_bytes", x.halo_bytes_sent as f64);
        samples.push("smooth.halo_messages", x.halo_messages_sent as f64);
        samples.push("smooth.exchange_rounds", x.exchange_rounds as f64);
    }
}

/// `lms-part`'s own view of a decomposition.
pub fn push_partition_stats(samples: &mut Samples, partition: &Partition) {
    let stats = partition.stats();
    samples.set("part.edge_cut", stats.edge_cut as f64);
    samples.set("part.halo_ratio", stats.halo_ratio);
    samples.set("part.imbalance", stats.imbalance);
}

/// The driver phases of a profiled resident run as table rows (the
/// checkpoint phase is non-zero only under the fault-tolerant driver),
/// plus what the `smooth` call spent outside them under `rest_name`.
pub fn smooth_phase_rows(
    samples: &Samples,
    layer: &'static str,
    rest_layer: &'static str,
    rest_name: &'static str,
    rows: &mut Vec<Row>,
) {
    let mut inside = 0.0;
    for name in [
        "smooth.gather_s",
        "smooth.interior_s",
        "smooth.color_step_s",
        "smooth.finish_s",
        "dist.checkpoint_s",
        "smooth.scatter_s",
    ] {
        let secs = samples.med(name);
        inside += secs;
        if secs > 0.0 {
            rows.push(Row { layer, name, phase: Phase::Smooth, secs });
        }
    }
    let rest = samples.med("traced.smooth_s") - inside;
    rows.push(Row { layer: rest_layer, name: rest_name, phase: Phase::Smooth, secs: rest });
}

/// Wall-clock seconds of `f`, and its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = lms_trace::now_ns();
    let out = f();
    (out, (lms_trace::now_ns() - t0) as f64 * 1e-9)
}
