//! # lms-part — geometric domain decomposition
//!
//! The scaling layer between the ordering zoo (`lms-order`) and the
//! smoothing engines (`lms-smooth`): split a mesh into `k` geometrically
//! compact vertex parts so that each part's **interior** can be smoothed
//! as one contiguous, cache-resident block per worker, with only the thin
//! **interface** layer needing cross-part coordination (the colored
//! schedule). This is the classical domain-decomposition structure —
//! owned vertices, interface vertices, and a **halo** of ghost vertices
//! (the out-of-part 1-ring of the interface) per part.
//!
//! * [`Partition`] — the decomposition itself: per-part vertex /
//!   interior / interface / halo CSR structures, a ghost-vertex lookup
//!   ([`Partition::local_of`]), and the edge cut.
//! * [`PartitionMethod`] — the partitioners: balanced k-way recursive
//!   coordinate bisection ([`lms_order::rcb_parts`]) and SFC chunking
//!   over the Hilbert / Morton orders.
//! * [`PartitionStats`] — decomposition-quality metrics: edge cut, halo
//!   ratio, part-size imbalance, interior/interface split.
//! * [`ExchangeSchedule`] / [`MessagePlan`] / [`wire`] — the halo-exchange
//!   communication layer: the per-vertex delivery pattern, its
//!   rank-addressed (src part → dst part) message plan, and the versioned
//!   binary wire format a multi-process transport carries it with.
//!
//! ```
//! use lms_part::{partition_mesh, PartitionMethod};
//! let mesh = lms_mesh::generators::perturbed_grid(20, 20, 0.3, 1);
//! let adj = lms_mesh::Adjacency::build(&mesh);
//! let p = partition_mesh(&mesh, &adj, 4, PartitionMethod::Rcb);
//! let stats = p.stats();
//! assert_eq!(stats.num_parts, 4);
//! assert!(stats.interior_fraction > 0.5, "parts should be mostly interior");
//! ```

#![forbid(unsafe_code)]

pub mod exchange;
pub mod methods;
pub mod partition;
pub mod stats;
pub mod wire;

pub use exchange::{ExchangeSchedule, MessagePlan};
pub use methods::{
    measured_vertex_weights, partition_coords, partition_mesh, repartition_measured,
    sfc_chunk_assignment, vertex_area_weights, PartitionMethod,
};
pub use partition::Partition;
pub use stats::PartitionStats;
