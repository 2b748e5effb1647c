//! Aggregated phase timings: what a profiled run *returns*, as opposed
//! to the raw event stream the [`crate::Recorder`] captures.
//!
//! Three layers, composed bottom-up:
//!
//! - [`RankPhaseNanos`] — one rank's accumulated sweep time split by
//!   phase, plus its count of interface-span commits (the moves it
//!   routed to neighbouring parts; interior commits are not counted).
//!   Workers in `lms-dist` ship
//!   *deltas* of this in the `Report` wire frame (v3 additive fields);
//!   deltas make the accounting recovery-safe, since a respawned rank
//!   simply restarts its accumulator at zero.
//! - [`TransportProfile`] — what a transport measured about itself:
//!   per-rank phase nanos, the per-(src,dst) halo routing matrix, frame
//!   encode/decode time and poll-wait time (both zero for the
//!   in-process transport, which has no frames and never waits).
//! - [`PhaseBreakdown`] — the driver's span totals merged with the
//!   transport profile; this is what `SmoothReport::phase_breakdown`
//!   carries and what the bench exporters serialise.

/// One rank's accumulated sweep timings and interface-commit count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RankPhaseNanos {
    /// Time in the interior sweep (`sweep_interior`).
    pub interior_ns: u64,
    /// Time in interface color sweeps (`sweep_color`).
    pub color_ns: u64,
    /// Time finalising iterations (`finalize_iteration`).
    pub finish_ns: u64,
    /// Commits of owned interface vertices — the moves the rank routed
    /// to neighbouring parts. Part-interior commits are not counted, so
    /// this is a small fraction of all commits; the wire frame carries
    /// it unchanged.
    pub moved: u64,
}

impl RankPhaseNanos {
    /// Add another sample (a delta from a worker report) into this one.
    pub fn accumulate(&mut self, d: RankPhaseNanos) {
        self.interior_ns += d.interior_ns;
        self.color_ns += d.color_ns;
        self.finish_ns += d.finish_ns;
        self.moved += d.moved;
    }

    /// Total sweep time across all three phases.
    pub fn sweep_ns(&self) -> u64 {
        self.interior_ns + self.color_ns + self.finish_ns
    }
}

/// What a transport measured about its own plumbing during a profiled
/// run. Produced by `InProcessTransport::take_profile` /
/// `ProcessTransport::take_profile`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TransportProfile {
    /// Per-rank accumulated sweep phases, indexed by part id.
    pub rank_phases: Vec<RankPhaseNanos>,
    /// Halo routing time per ordered pair, `[src * parts + dst]`
    /// (empty when unprofiled). For the in-process transport this is the
    /// receiver-side cost of pulling src's batch; for the coordinator it
    /// is the time spent forwarding src's frames to dst.
    pub route_pair_ns: Vec<u64>,
    /// Coordinator time encoding frames onto pipes (0 in-process).
    pub encode_ns: u64,
    /// Coordinator time decoding frames off pipes (0 in-process).
    pub decode_ns: u64,
    /// Coordinator time blocked in `poll(2)` waiting for rank data with
    /// no released compute anywhere to hide behind — genuinely idle at
    /// a dependence (0 in-process).
    pub poll_wait_ns: u64,
    /// Coordinator poll-wait that overlapped rank compute already
    /// released ahead of the round being drained (the overlap
    /// multiplexer's hidden class; 0 in-process and in serialized
    /// mode). `poll_wait_ns + hidden_wait_ns` is the coordinator's
    /// total wall time in `poll(2)` — the split is what proves a
    /// poll-wait reduction came from hiding, not from shifting the
    /// wait elsewhere.
    pub hidden_wait_ns: u64,
    /// Elements scored by the ranks' sweep stars and dirty re-scores —
    /// the denominator-side of the scored-elements/sec throughput
    /// counter. Zero when the transport cannot observe it (remote ranks
    /// do not ship this counter over the wire).
    pub scored_elements: u64,
}

/// Per-phase timing summary of one smoothing run: driver span totals
/// plus the transport's self-measurements. Attached to
/// `SmoothReport::phase_breakdown` by the `smooth_profiled` entry
/// points; `None` on unprofiled runs so report equality gates are
/// unaffected.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseBreakdown {
    /// Driver time in the initial gather (coords + scores out to ranks).
    pub gather_ns: u64,
    /// Driver time across all interior phases.
    pub interior_ns: u64,
    /// Driver time across all color steps (sweep + halo exchange).
    pub color_step_ns: u64,
    /// Driver time across all iteration finishes (delta folds).
    pub finish_ns: u64,
    /// Driver time in the final scatter back into the mesh.
    pub scatter_ns: u64,
    /// Driver time taking checkpoints (fault-tolerant driver only).
    pub checkpoint_ns: u64,
    /// Driver time in recovery (respawn + resync + reload).
    pub recover_ns: u64,
    /// Transport self-measurements (see [`TransportProfile`]).
    pub transport: TransportProfile,
}

impl PhaseBreakdown {
    /// Fold the driver's recorded span totals into the matching fields.
    /// Unknown span names are ignored (forward compatibility).
    pub fn apply_span_totals(&mut self, totals: &[(&'static str, u64, u64)]) {
        for &(name, total, _count) in totals {
            match name {
                "gather" => self.gather_ns += total,
                "interior" => self.interior_ns += total,
                "color_step" => self.color_step_ns += total,
                "finish" => self.finish_ns += total,
                "scatter" => self.scatter_ns += total,
                "checkpoint" => self.checkpoint_ns += total,
                "recover" => self.recover_ns += total,
                _ => {}
            }
        }
    }

    /// Total accumulated sweep nanoseconds per part, indexed by part id.
    /// The input of measured repartitioning.
    pub fn per_part_sweep_ns(&self) -> Vec<u64> {
        self.transport.rank_phases.iter().map(|r| r.sweep_ns()).collect()
    }

    /// Driver wall time across all recorded phases.
    pub fn driver_total_ns(&self) -> u64 {
        self.gather_ns
            + self.interior_ns
            + self.color_step_ns
            + self.finish_ns
            + self.scatter_ns
            + self.checkpoint_ns
            + self.recover_ns
    }

    /// A compact fixed-width summary table: one row per driver phase
    /// with its share of the driver total, then the transport plumbing
    /// costs, then per-part sweep times with interface-commit counts.
    pub fn summary_table(&self) -> String {
        let total = self.driver_total_ns().max(1);
        let mut out = String::new();
        out.push_str("phase         total_ms   share\n");
        let rows = [
            ("gather", self.gather_ns),
            ("interior", self.interior_ns),
            ("color_step", self.color_step_ns),
            ("finish", self.finish_ns),
            ("scatter", self.scatter_ns),
            ("checkpoint", self.checkpoint_ns),
            ("recover", self.recover_ns),
        ];
        for (name, ns) in rows {
            if ns == 0 && !matches!(name, "gather" | "interior" | "color_step") {
                continue;
            }
            out.push_str(&format!(
                "{name:<12} {:>9.3}  {:>5.1}%\n",
                ns as f64 / 1e6,
                ns as f64 * 100.0 / total as f64
            ));
        }
        let t = &self.transport;
        if t.encode_ns + t.decode_ns + t.poll_wait_ns + t.hidden_wait_ns > 0 {
            out.push_str(&format!(
                "transport    encode {:.3}ms  decode {:.3}ms  poll-wait {:.3}ms\n",
                t.encode_ns as f64 / 1e6,
                t.decode_ns as f64 / 1e6,
                t.poll_wait_ns as f64 / 1e6
            ));
        }
        if t.hidden_wait_ns > 0 {
            out.push_str(&format!(
                "overlap      hidden-wait {:.3}ms (poll-wait above is idle-at-dependence only)\n",
                t.hidden_wait_ns as f64 / 1e6
            ));
        }
        if !t.rank_phases.is_empty() {
            out.push_str("part  sweep_ms  interior_ms  color_ms  finish_ms  ifc_moved\n");
            for (p, r) in t.rank_phases.iter().enumerate() {
                out.push_str(&format!(
                    "{p:>4} {:>9.3} {:>12.3} {:>9.3} {:>10.3} {:>10}\n",
                    r.sweep_ns() as f64 / 1e6,
                    r.interior_ns as f64 / 1e6,
                    r.color_ns as f64 / 1e6,
                    r.finish_ns as f64 / 1e6,
                    r.moved
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_phases_accumulate_and_sum() {
        let mut r = RankPhaseNanos::default();
        r.accumulate(RankPhaseNanos { interior_ns: 5, color_ns: 3, finish_ns: 2, moved: 7 });
        r.accumulate(RankPhaseNanos { interior_ns: 1, color_ns: 1, finish_ns: 1, moved: 1 });
        assert_eq!(r.sweep_ns(), 13);
        assert_eq!(r.moved, 8);
    }

    #[test]
    fn span_totals_land_in_the_right_fields() {
        let mut b = PhaseBreakdown::default();
        b.apply_span_totals(&[
            ("gather", 10, 1),
            ("interior", 30, 3),
            ("color_step", 40, 9),
            ("finish", 15, 3),
            ("scatter", 5, 1),
            ("mystery", 999, 1),
        ]);
        assert_eq!(b.gather_ns, 10);
        assert_eq!(b.interior_ns, 30);
        assert_eq!(b.color_step_ns, 40);
        assert_eq!(b.finish_ns, 15);
        assert_eq!(b.scatter_ns, 5);
        assert_eq!(b.driver_total_ns(), 100);
    }

    #[test]
    fn summary_table_lists_phases_and_parts() {
        let mut b = PhaseBreakdown::default();
        b.apply_span_totals(&[("gather", 1_000_000, 1), ("interior", 3_000_000, 3)]);
        b.transport.rank_phases = vec![
            RankPhaseNanos {
                interior_ns: 2_000_000,
                color_ns: 500_000,
                finish_ns: 100_000,
                moved: 42,
            },
            RankPhaseNanos::default(),
        ];
        b.transport.poll_wait_ns = 250_000;
        let table = b.summary_table();
        assert!(table.contains("gather"));
        assert!(table.contains("interior"));
        assert!(table.contains("poll-wait"));
        assert!(table.contains("42"));
        assert!(!table.contains("recover"), "zero-valued optional phases stay hidden");
        assert!(!table.contains("hidden-wait"), "no overlap row without hidden wait");
        b.transport.hidden_wait_ns = 750_000;
        let table = b.summary_table();
        assert!(table.contains("hidden-wait"), "overlap split surfaces when nonzero");
    }

    #[test]
    fn per_part_sweep_feeds_repartitioning() {
        let mut b = PhaseBreakdown::default();
        b.transport.rank_phases = vec![
            RankPhaseNanos { interior_ns: 10, color_ns: 1, finish_ns: 1, moved: 0 },
            RankPhaseNanos { interior_ns: 4, color_ns: 2, finish_ns: 0, moved: 0 },
        ];
        assert_eq!(b.per_part_sweep_ns(), vec![12, 6]);
    }
}
