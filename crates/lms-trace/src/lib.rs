//! `lms-trace` — zero-dependency instrumentation for the smoothing
//! engine ladder.
//!
//! The crate provides four small layers, each usable on its own:
//!
//! - [`now_ns`] / [`clock_reads`] — a monotonic nanosecond clock over
//!   raw `clock_gettime(2)` FFI, with a sample counter that lets tests
//!   prove the *disabled* tracing path performs zero clock reads.
//! - [`TraceSink`] / [`NullTrace`] / [`Recorder`] — the compile-time
//!   span switch the resident drivers are generic over, and the
//!   buffering sink that captures thread/rank-tagged [`SpanEvent`]s.
//! - [`RankPhaseNanos`] / [`TransportProfile`] / [`PhaseBreakdown`] —
//!   aggregated per-phase / per-rank timings; `PhaseBreakdown` is what
//!   `SmoothReport` optionally carries after a profiled run.
//! - [`chrome_trace_json`] / [`validate_chrome_trace`] — Chrome
//!   `about://tracing` / Perfetto export and the well-formedness +
//!   balanced-B/E validator CI gates on.
//!
//! Everything here is **observation-only** by construction: nothing in
//! this crate touches coordinates, scores or exchange contents, and the
//! drivers' traced monomorphisations differ from the untraced ones only
//! by clock reads around existing calls.

#![deny(clippy::undocumented_unsafe_blocks)]

mod chrome;
mod clock;
mod profile;
mod span;

pub use chrome::{chrome_trace_json, validate_chrome_trace};
pub use clock::{clock_reads, now_ns};
pub use profile::{PhaseBreakdown, RankPhaseNanos, TransportProfile};
pub use span::{EventPhase, NullTrace, Recorder, SpanEvent, TraceSink};
