//! Multi-level inclusive cache hierarchy (the Westmere-EX of §5.1).

use crate::address::NodeLayout;
use crate::cache::{CacheConfig, CacheLevel, CacheStats};

/// Memory access latency used beyond the last cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryConfig {
    /// Cycles per access that misses every cache (paper: 175–290).
    pub latency_cycles: u64,
}

/// An inclusive multi-level LRU cache simulator driven by element indices.
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    levels: Vec<CacheLevel>,
    memory: MemoryConfig,
    layout: NodeLayout,
    memory_accesses: u64,
}

impl CacheHierarchy {
    /// Build from level configs (ordered L1 → LLC) and a record layout.
    pub fn new(configs: Vec<CacheConfig>, memory: MemoryConfig, layout: NodeLayout) -> Self {
        assert!(!configs.is_empty(), "need at least one cache level");
        let line = configs[0].line_bytes;
        assert!(
            configs.iter().all(|c| c.line_bytes == line),
            "all levels must share one line size"
        );
        CacheHierarchy {
            levels: configs.into_iter().map(CacheLevel::new).collect(),
            memory,
            layout,
            memory_accesses: 0,
        }
    }

    /// The Intel Westmere-EX (Xeon E7-8837) of the paper's §5.1: 32 KiB
    /// 8-way L1, 256 KiB 8-way L2, 24 MiB 24-way shared L3, 64-byte lines;
    /// latencies 4 / 10 / ~100 (L3 reported 38–170) / ~230 (memory 175–290).
    pub fn westmere_ex(layout: NodeLayout) -> Self {
        CacheHierarchy::new(
            vec![
                CacheConfig {
                    name: "L1",
                    size_bytes: 32 * 1024,
                    line_bytes: 64,
                    associativity: 8,
                    latency_cycles: 4,
                },
                CacheConfig {
                    name: "L2",
                    size_bytes: 256 * 1024,
                    line_bytes: 64,
                    associativity: 8,
                    latency_cycles: 10,
                },
                CacheConfig {
                    name: "L3",
                    size_bytes: 24 * 1024 * 1024,
                    line_bytes: 64,
                    associativity: 24,
                    latency_cycles: 100,
                },
            ],
            MemoryConfig { latency_cycles: 230 },
            layout,
        )
    }

    /// A deliberately small hierarchy for tests and fast experiments:
    /// capacities scaled down ~256× with the same shape.
    pub fn tiny(layout: NodeLayout) -> Self {
        CacheHierarchy::new(
            vec![
                CacheConfig {
                    name: "L1",
                    size_bytes: 1024,
                    line_bytes: 64,
                    associativity: 4,
                    latency_cycles: 4,
                },
                CacheConfig {
                    name: "L2",
                    size_bytes: 8 * 1024,
                    line_bytes: 64,
                    associativity: 8,
                    latency_cycles: 10,
                },
                CacheConfig {
                    name: "L3",
                    size_bytes: 96 * 1024,
                    line_bytes: 64,
                    associativity: 12,
                    latency_cycles: 100,
                },
            ],
            MemoryConfig { latency_cycles: 230 },
            layout,
        )
    }

    /// Number of cache levels.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// The record layout in use.
    pub fn layout(&self) -> NodeLayout {
        self.layout
    }

    /// Access every cache line of element `idx`: L1 first, descending on
    /// miss; filled lines are inserted at every level on the way back
    /// (inclusive hierarchy).
    pub fn access_element(&mut self, idx: u32) {
        let line_bytes = self.levels[0].config().line_bytes;
        for line in self.layout.lines_of(idx, line_bytes) {
            self.access_line(line);
        }
    }

    /// Access one line address.
    pub fn access_line(&mut self, line: u64) {
        self.access_line_tracked(line);
    }

    /// [`CacheHierarchy::access_line`] reporting which level satisfied the
    /// access: `0` = L1 hit, …, `num_levels()` = served from memory.
    pub fn access_line_tracked(&mut self, line: u64) -> usize {
        for (depth, level) in self.levels.iter_mut().enumerate() {
            if level.access_line(line) {
                return depth;
            }
        }
        self.memory_accesses += 1;
        self.levels.len()
    }

    /// Run a whole element-index trace.
    pub fn run_trace(&mut self, trace: &[u32]) {
        for &idx in trace {
            self.access_element(idx);
        }
    }

    /// Per-level counters, L1 outward.
    pub fn level_stats(&self) -> Vec<CacheStats> {
        self.levels.iter().map(|l| l.stats()).collect()
    }

    /// Per-level configurations, L1 outward.
    pub fn level_configs(&self) -> Vec<CacheConfig> {
        self.levels.iter().map(|l| *l.config()).collect()
    }

    /// Stats of the level called `name` (`"L1"`…).
    pub fn stats_of(&self, name: &str) -> Option<CacheStats> {
        self.levels.iter().find(|l| l.config().name == name).map(|l| l.stats())
    }

    /// Accesses that missed every level.
    pub fn memory_accesses(&self) -> u64 {
        self.memory_accesses
    }

    /// Total simulated cycles: each level charges its latency for every
    /// lookup that reached it, memory charges for full misses. (This is the
    /// additive form of the paper's Equation (2).)
    pub fn total_cycles(&self) -> u64 {
        let mut cycles = 0;
        for level in &self.levels {
            cycles += level.stats().accesses * level.config().latency_cycles;
        }
        cycles + self.memory_accesses * self.memory.latency_cycles
    }

    /// Per-level capacity in elements of the configured layout, under the
    /// paper's theoretical model (§3.1).
    pub fn capacities_in_elements(&self) -> Vec<u64> {
        self.levels
            .iter()
            .map(|l| l.config().capacity_elements(self.layout.bytes_per_node))
            .collect()
    }

    /// Empty all levels, keeping counters.
    pub fn flush(&mut self) {
        for l in &mut self.levels {
            l.flush();
        }
    }

    /// Zero all counters, keeping contents.
    pub fn reset_stats(&mut self) {
        for l in &mut self.levels {
            l.reset_stats();
        }
        self.memory_accesses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h() -> CacheHierarchy {
        CacheHierarchy::tiny(NodeLayout::coords_only())
    }

    #[test]
    fn westmere_preset_shape() {
        let w = CacheHierarchy::westmere_ex(NodeLayout::paper_66());
        assert_eq!(w.num_levels(), 3);
        let caps = w.capacities_in_elements();
        // §5.2.3's orders of magnitude: below reuse distance ~496 no L1
        // miss, ~3970 no L2 miss, ~372k no L3 miss (66-byte nodes). Exact
        // integer division gives 496 / 3971 / 381300.
        assert_eq!(caps[0], 496);
        assert_eq!(caps[1], 3971);
        assert_eq!(caps[2], 381_300);
    }

    #[test]
    fn single_element_hits_after_cold_miss() {
        let mut c = h();
        c.access_element(5);
        c.access_element(5);
        let l1 = c.stats_of("L1").unwrap();
        assert_eq!(l1.misses, 1);
        assert_eq!(l1.hits, 1);
        // L2/L3 saw only the cold miss
        assert_eq!(c.stats_of("L2").unwrap().accesses, 1);
        assert_eq!(c.memory_accesses(), 1);
    }

    #[test]
    fn working_set_between_l1_and_l2_hits_in_l2() {
        let mut c = h(); // L1 1 KiB = 64 coord elements; L2 8 KiB = 512
                         // Cycle over 128 elements (2 KiB > L1, < L2): after warmup, L1
                         // misses but L2 hits.
        let trace: Vec<u32> = (0..128).collect();
        for _ in 0..4 {
            c.run_trace(&trace);
        }
        let l2 = c.stats_of("L2").unwrap();
        assert!(l2.hits > 0, "L2 must absorb L1 capacity misses");
        assert_eq!(c.memory_accesses(), 32, "only the 32 cold line fills reach memory");
    }

    #[test]
    fn sequential_scan_has_spatial_locality() {
        // 4 coord records per 64-B line → ~75% L1 hits on a cold scan.
        let mut c = h();
        let trace: Vec<u32> = (0..256).collect();
        c.run_trace(&trace);
        let l1 = c.stats_of("L1").unwrap();
        assert_eq!(l1.misses, 64);
        assert_eq!(l1.hits, 192);
    }

    #[test]
    fn cycles_accumulate_per_level() {
        let mut c = h();
        c.access_element(0); // cold: L1+L2+L3+mem = 4+10+100+230
        assert_eq!(c.total_cycles(), 344);
        c.access_element(0); // L1 hit: +4
        assert_eq!(c.total_cycles(), 348);
    }

    #[test]
    fn straddling_records_touch_two_lines() {
        let mut c = CacheHierarchy::tiny(NodeLayout::paper_66());
        c.access_element(0); // 66 bytes → 2 lines
        assert_eq!(c.stats_of("L1").unwrap().accesses, 2);
    }

    #[test]
    fn flush_and_reset() {
        let mut c = h();
        c.access_element(1);
        c.reset_stats();
        assert_eq!(c.stats_of("L1").unwrap().accesses, 0);
        assert_eq!(c.memory_accesses(), 0);
        c.access_element(1); // still cached
        assert_eq!(c.stats_of("L1").unwrap().hits, 1);
        c.flush();
        c.access_element(1);
        assert_eq!(c.stats_of("L1").unwrap().misses, 1);
    }

    #[test]
    fn mismatched_line_sizes_rejected() {
        let bad = std::panic::catch_unwind(|| {
            CacheHierarchy::new(
                vec![
                    CacheConfig {
                        name: "A",
                        size_bytes: 1024,
                        line_bytes: 64,
                        associativity: 2,
                        latency_cycles: 1,
                    },
                    CacheConfig {
                        name: "B",
                        size_bytes: 2048,
                        line_bytes: 128,
                        associativity: 2,
                        latency_cycles: 2,
                    },
                ],
                MemoryConfig { latency_cycles: 10 },
                NodeLayout::coords_only(),
            )
        });
        assert!(bad.is_err());
    }
}
