//! Spans recorded from the benchmark's own files, around the calls into
//! each layer (the library is not instrumented for this).

use crate::stats::Samples;
use lms_trace::{now_ns, Recorder, SpanEvent, TraceSink};
use std::collections::BTreeMap;

/// Thread tag of the harness' own spans; the engines' driver recorders
/// use tag 0, so merged events land on separate, balanced tracks.
const HARNESS_TID: u32 = 1;

/// Records a span per call and keeps, for the rep in progress, the
/// seconds spent under each span name.
pub struct Tracer {
    recorder: Recorder,
    engine_events: Vec<SpanEvent>,
    rep: BTreeMap<&'static str, f64>,
    pub samples: Samples,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            recorder: Recorder::new(HARNESS_TID),
            engine_events: Vec::new(),
            rep: BTreeMap::new(),
            samples: Samples::default(),
        }
    }

    /// Run `f` inside a span called `name`, child of whatever span is
    /// open. Calls that share a name within one rep add up.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.recorder.begin(name, 0, 0);
        let t0 = now_ns();
        let out = f(self);
        let secs = (now_ns() - t0) as f64 * 1e-9;
        self.recorder.end(name);
        *self.rep.entry(name).or_insert(0.0) += secs;
        out
    }

    /// Seconds recorded under `name` in the rep in progress.
    pub fn rep_seconds(&self, name: &str) -> f64 {
        self.rep.get(name).copied().unwrap_or(0.0)
    }

    /// Close the rep: every span name's total becomes one sample.
    pub fn end_rep(&mut self) {
        for (name, secs) in std::mem::take(&mut self.rep) {
            self.samples.push(name, secs);
        }
    }

    /// Forget the rep in progress (it failed; its partial times would
    /// otherwise leak into the next rep's samples).
    pub fn discard_rep(&mut self) {
        self.rep.clear();
    }

    /// Keep the spans an engine's own profiled run recorded, so the
    /// exported timeline shows the driver phases under the `smooth` span.
    pub fn absorb(&mut self, engine: &Recorder) {
        self.engine_events.extend_from_slice(engine.events());
    }

    /// Every event recorded so far: harness track, then engine track.
    pub fn events(&self) -> Vec<SpanEvent> {
        let mut all = self.recorder.events().to_vec();
        all.extend_from_slice(&self.engine_events);
        all
    }
}
