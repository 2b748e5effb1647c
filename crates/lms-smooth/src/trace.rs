//! Memory-access tracing.
//!
//! The paper measures reuse distance by "a verbose run noting the data
//! locations being addressed" (§5.2.3). [`AccessSink`] is that hook: the
//! traced engine reports the *storage index* of every vertex record it
//! touches — one event for the vertex being smoothed, then one per
//! neighbour whose coordinates are gathered. The resulting index stream is
//! what `lms-cache` feeds to the reuse-distance analyser and the cache
//! simulator.

/// Receiver for the vertex-access stream of a smoothing run.
pub trait AccessSink {
    /// A vertex record at storage position `idx` was accessed.
    fn access(&mut self, idx: u32);

    /// A sweep over the mesh finished (used to segment Figure 6's
    /// per-iteration profiles). Default: ignore.
    fn end_iteration(&mut self) {}
}

/// Discards all events (lets the traced engine double as the plain one).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl AccessSink for NullSink {
    #[inline]
    fn access(&mut self, _idx: u32) {}
}

/// Records the full access stream and the iteration boundaries.
#[derive(Debug, Default, Clone)]
pub struct VecSink {
    /// Storage indices in access order.
    pub accesses: Vec<u32>,
    /// `accesses` offsets at which each iteration ended.
    pub iteration_ends: Vec<usize>,
}

impl VecSink {
    /// Empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The access slice of iteration `it` (0-based).
    pub fn iteration(&self, it: usize) -> &[u32] {
        let start = if it == 0 { 0 } else { self.iteration_ends[it - 1] };
        let end = self.iteration_ends.get(it).copied().unwrap_or(self.accesses.len());
        &self.accesses[start..end]
    }

    /// Number of completed iterations recorded.
    pub fn num_iterations(&self) -> usize {
        self.iteration_ends.len()
    }
}

impl AccessSink for VecSink {
    #[inline]
    fn access(&mut self, idx: u32) {
        self.accesses.push(idx);
    }

    fn end_iteration(&mut self) {
        self.iteration_ends.push(self.accesses.len());
    }
}

/// Counts events without storing them.
#[derive(Debug, Default, Clone, Copy)]
pub struct CountSink {
    /// Total number of accesses seen.
    pub count: u64,
    /// Number of completed iterations.
    pub iterations: u32,
}

impl AccessSink for CountSink {
    #[inline]
    fn access(&mut self, _idx: u32) {
        self.count += 1;
    }

    fn end_iteration(&mut self) {
        self.iterations += 1;
    }
}

/// One sweep's access trace per static chunk: the vertex index space
/// `0..n` is split into `num_chunks` contiguous ranges (the paper's §5.1
/// OpenMP static schedule, "evenly dividing the vertices" over the
/// threads), and each chunk's trace lists the accesses its thread
/// performs: the interior vertex, then its neighbours.
pub fn chunked_sweep_traces(
    adj: &lms_mesh::Adjacency,
    boundary: &lms_mesh::Boundary,
    num_chunks: usize,
) -> Vec<Vec<u32>> {
    chunked_sweep_traces_opts(adj, boundary, num_chunks, false)
}

/// [`chunked_sweep_traces`] optionally including the per-vertex quality
/// update's triangle-record accesses (element ids `num_vertices + t`), as
/// in [`SmoothEngine::smooth_traced_with_quality`](crate::SmoothEngine::smooth_traced_with_quality).
pub fn chunked_sweep_traces_opts(
    adj: &lms_mesh::Adjacency,
    boundary: &lms_mesh::Boundary,
    num_chunks: usize,
    with_quality: bool,
) -> Vec<Vec<u32>> {
    assert!(num_chunks > 0, "need at least one chunk");
    let n = adj.num_vertices();
    let chunk = n.div_ceil(num_chunks).max(1);
    (0..num_chunks)
        .map(|c| {
            let lo = (c * chunk).min(n);
            let hi = ((c + 1) * chunk).min(n);
            let mut trace = Vec::new();
            for v in lo as u32..hi as u32 {
                if !boundary.is_interior(v) {
                    continue;
                }
                let ns = adj.neighbors(v);
                if ns.is_empty() {
                    continue;
                }
                trace.push(v);
                trace.extend_from_slice(ns);
                if with_quality {
                    for &t in adj.triangles_of(v) {
                        trace.push(n as u32 + t);
                    }
                }
            }
            trace
        })
        .collect()
}

impl<S: AccessSink + ?Sized> AccessSink for &mut S {
    #[inline]
    fn access(&mut self, idx: u32) {
        (**self).access(idx);
    }

    fn end_iteration(&mut self) {
        (**self).end_iteration();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_sink_records_and_segments() {
        let mut s = VecSink::new();
        s.access(3);
        s.access(1);
        s.end_iteration();
        s.access(2);
        s.end_iteration();
        assert_eq!(s.accesses, vec![3, 1, 2]);
        assert_eq!(s.num_iterations(), 2);
        assert_eq!(s.iteration(0), &[3, 1]);
        assert_eq!(s.iteration(1), &[2]);
    }

    #[test]
    fn count_sink_counts() {
        let mut s = CountSink::default();
        for i in 0..10 {
            s.access(i);
        }
        s.end_iteration();
        assert_eq!(s.count, 10);
        assert_eq!(s.iterations, 1);
    }

    #[test]
    fn chunked_traces_concatenate_to_serial_sweep() {
        use lms_mesh::{generators, Adjacency, Boundary};
        let m = generators::perturbed_grid(9, 9, 0.3, 1);
        let adj = Adjacency::build(&m);
        let b = Boundary::detect(&m);
        let serial = chunked_sweep_traces(&adj, &b, 1);
        assert_eq!(serial.len(), 1);
        for p in [2usize, 3, 5] {
            let chunks = chunked_sweep_traces(&adj, &b, p);
            assert_eq!(chunks.len(), p);
            assert_eq!(chunks.concat(), serial[0], "p={p} must cover the same accesses");
        }
    }

    #[test]
    fn chunked_trace_matches_engine_trace() {
        use crate::{SmoothEngine, SmoothParams};
        use lms_mesh::generators;
        let m = generators::perturbed_grid(8, 8, 0.25, 4);
        let engine = SmoothEngine::new(&m, SmoothParams::paper().with_max_iters(1));
        let mut sink = VecSink::new();
        engine.smooth_traced(&mut m.clone(), &mut sink);
        let chunks = chunked_sweep_traces(engine.adjacency(), engine.boundary(), 1);
        assert_eq!(chunks[0], sink.accesses);
    }

    #[test]
    fn sink_by_mut_ref_forwards() {
        let mut s = VecSink::new();
        {
            let by_ref: &mut VecSink = &mut s;
            by_ref.access(9);
            by_ref.end_iteration();
        }
        assert_eq!(s.accesses, vec![9]);
        assert_eq!(s.num_iterations(), 1);
    }
}
