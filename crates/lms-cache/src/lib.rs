//! # lms-cache — the memory-behaviour substrate
//!
//! The paper measures its claims with PAPI hardware counters and verbose
//! reuse-distance traces on a Westmere-EX machine. This crate rebuilds that
//! measurement stack in software (substitution #2 of DESIGN.md):
//!
//! * [`reuse`] — exact LRU reuse-distance analysis (Fenwick-tree based,
//!   `O(log n)` per access) with the quantile statistics of Table 2;
//! * [`histogram`] — log-bucket histograms and the binned profiles of
//!   Figures 1 and 6;
//! * [`cache`] / [`hierarchy`] — a set-associative, line-granular,
//!   inclusive multi-level LRU simulator with the Westmere-EX preset
//!   (32 KiB L1 / 256 KiB L2 / 24 MiB L3, 64-byte lines);
//! * [`address`] — element-index → byte-address layouts (the paper's
//!   66-byte node estimate among them);
//! * [`model`] — the §3.1 stack-distance miss model, the Equation (2)
//!   cycle-cost model, and Table 3's max-elements estimator;
//! * [`multicore`] — private-L1/L2, shared-per-socket-L3 simulation of the
//!   4×8-core machine, for the §5.3 scaling study;
//! * [`opt`] — Belady's offline-optimal (MIN) miss count beside LRU's,
//!   the bound behind the §5.2.3 "quasi-optimal" claim.
//!
//! ```
//! use lms_cache::{address::NodeLayout, hierarchy::CacheHierarchy, reuse::ReuseDistanceAnalyzer};
//!
//! let trace = [0u32, 1, 2, 0, 1, 2];
//! let distances = ReuseDistanceAnalyzer::analyze(&trace, 3);
//! assert_eq!(distances[3], 2); // two distinct elements between the 0s
//!
//! let mut cache = CacheHierarchy::westmere_ex(NodeLayout::paper_66());
//! cache.run_trace(&trace);
//! assert!(cache.stats_of("L1").unwrap().hits > 0);
//! ```

#![forbid(unsafe_code)]

pub mod address;
pub mod cache;
pub mod fenwick;
pub mod hierarchy;
pub mod histogram;
pub mod model;
pub mod multicore;
pub mod opt;
pub mod reuse;

pub use address::NodeLayout;
pub use cache::{CacheConfig, CacheLevel, CacheStats};
pub use fenwick::Fenwick;
pub use hierarchy::{CacheHierarchy, MemoryConfig};
pub use histogram::{binned_means, count_above, LogHistogram};
pub use model::{estimate_max_elements, CostModel, ModelOutcome, StackDistanceModel};
pub use multicore::{simulate, split_static, Affinity, MachineConfig, MulticoreResult};
pub use opt::{belady_misses, compulsory_misses, element_line_trace, lru_misses, OptComparison};
pub use reuse::{quantile, ReuseDistanceAnalyzer, ReuseStats, COLD};
