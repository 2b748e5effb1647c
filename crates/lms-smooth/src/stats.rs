//! Reports produced by smoothing runs.

use lms_trace::PhaseBreakdown;

/// Quality bookkeeping for one sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationStats {
    /// Sweep number, starting at 1.
    pub iter: usize,
    /// Global quality after the sweep.
    pub quality: f64,
    /// Improvement over the previous global quality (may be negative).
    pub improvement: f64,
}

/// Communication accounting of a resident halo-exchange run
/// ([`crate::ResidentEngine`]): how often whole blocks moved versus how
/// many individual halo coordinates did. The tentpole invariant — between
/// the first gather and the final scatter the engine exchanges **only**
/// halo deltas — shows up here as `full_gathers == 1 && full_scatters == 1`
/// for any iteration count, which the property tests assert.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExchangeVolume {
    /// Whole-block gathers from the global mesh (must be 1: the initial
    /// residency load).
    pub full_gathers: usize,
    /// Whole-mesh write-backs (must be 1: the final disjoint scatter).
    pub full_scatters: usize,
    /// Halo-delta exchange rounds executed (one per interface color step
    /// per iteration).
    pub exchange_rounds: usize,
    /// Individual `(vertex, receiver)` coordinate deliveries routed across
    /// all rounds — the engine's entire inter-part communication volume.
    pub halo_entries_sent: usize,
    /// Coalesced (source part → destination part) messages the deliveries
    /// travelled in: all of a pair's moved deltas within one color step
    /// share one message, so this is what a per-pair-frame transport
    /// actually sends — bounded by `rounds × directed neighbour pairs`,
    /// not by `halo_entries_sent`.
    pub halo_messages_sent: usize,
    /// Wire bytes of those messages under the `lms_part::wire` halo-delta
    /// frame encoding. The in-process transport charges the same formula
    /// (`halo_frame_wire_len`) without serialising, so in-process and
    /// multi-process runs of one workload report identical byte counts.
    pub halo_bytes_sent: usize,
}

/// Outcome of a full smoothing run.
#[derive(Debug, Clone, PartialEq)]
pub struct SmoothReport {
    /// Global quality before the first sweep.
    pub initial_quality: f64,
    /// Global quality after the last sweep.
    pub final_quality: f64,
    /// Per-sweep statistics, in order.
    pub iterations: Vec<IterationStats>,
    /// True when the run stopped because improvement fell below `tol`
    /// (false when it hit `max_iters`).
    pub converged: bool,
    /// Halo-exchange accounting — `Some` only for engines that run the
    /// resident exchange protocol.
    pub exchange: Option<ExchangeVolume>,
    /// Per-phase / per-part timing summary — `Some` only after a
    /// profiled run (`smooth_profiled`); always `None` otherwise, so
    /// report-equality gates between unprofiled runs are unaffected.
    /// Timings are observational: two runs that differ only in this
    /// field computed bit-identical coordinates.
    pub phase_breakdown: Option<PhaseBreakdown>,
}

impl SmoothReport {
    /// A fresh report before the first sweep: final quality mirrors the
    /// initial one until sweeps land, no iterations, not converged.
    pub fn starting(initial_quality: f64) -> Self {
        SmoothReport {
            initial_quality,
            final_quality: initial_quality,
            iterations: Vec::new(),
            converged: false,
            exchange: None,
            phase_breakdown: None,
        }
    }

    /// Number of sweeps executed.
    pub fn num_iterations(&self) -> usize {
        self.iterations.len()
    }

    /// Total quality gained.
    pub fn total_improvement(&self) -> f64 {
        self.final_quality - self.initial_quality
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_accessors() {
        let mut r = SmoothReport::starting(0.5);
        r.final_quality = 0.8;
        r.iterations = vec![
            IterationStats { iter: 1, quality: 0.7, improvement: 0.2 },
            IterationStats { iter: 2, quality: 0.8, improvement: 0.1 },
        ];
        r.converged = true;
        assert_eq!(r.num_iterations(), 2);
        assert!((r.total_improvement() - 0.3).abs() < 1e-15);
        assert_eq!(r.exchange, None);
    }

    #[test]
    fn throughput_counters_from_breakdown() {
        // the counters a throughput figure divides: per-part sweep time
        // (interior + color + finish) and the moved and scored counts
        let mut r = SmoothReport::starting(0.5);
        assert!(r.phase_breakdown.is_none());
        let mut b = PhaseBreakdown::default();
        b.transport.rank_phases = vec![lms_trace::RankPhaseNanos {
            interior_ns: 500_000_000,
            color_ns: 400_000_000,
            finish_ns: 100_000_000,
            moved: 2_000,
        }];
        b.transport.scored_elements = 4_000;
        r.phase_breakdown = Some(b);
        let b = r.phase_breakdown.as_ref().unwrap();
        assert_eq!(b.per_part_sweep_ns(), vec![1_000_000_000]);
        assert_eq!(b.transport.rank_phases[0].moved, 2_000);
        assert_eq!(b.transport.scored_elements, 4_000);
    }

    #[test]
    fn starting_report_is_flat() {
        let r = SmoothReport::starting(0.42);
        assert_eq!(r.initial_quality, 0.42);
        assert_eq!(r.final_quality, 0.42);
        assert_eq!(r.num_iterations(), 0);
        assert!(!r.converged);
        assert_eq!(r.total_improvement(), 0.0);
    }
}
