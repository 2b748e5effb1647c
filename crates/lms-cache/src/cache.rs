//! A single set-associative LRU cache level.

/// Static description of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Human-readable name (`"L1"`, `"L2"`, …).
    pub name: &'static str,
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Line size in bytes (must divide `size_bytes`).
    pub line_bytes: usize,
    /// Number of ways per set (`0` is invalid; use `ways == num_lines` for
    /// fully associative).
    pub associativity: usize,
    /// Access latency in cycles (used by the cost model).
    pub latency_cycles: u64,
}

impl CacheConfig {
    /// Number of cache lines.
    pub fn num_lines(&self) -> usize {
        self.size_bytes / self.line_bytes
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        (self.num_lines() / self.associativity).max(1)
    }

    /// Capacity in elements of `elem_bytes` each, under the paper's
    /// theoretical fully-associative model (§3.1 and footnote 1).
    pub fn capacity_elements(&self, elem_bytes: usize) -> u64 {
        (self.size_bytes / elem_bytes.max(1)) as u64
    }
}

/// Hit/miss counters of one level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that reached this level.
    pub accesses: u64,
    /// Lookups satisfied by this level.
    pub hits: u64,
    /// Lookups that had to go further out.
    pub misses: u64,
}

impl CacheStats {
    /// `misses / accesses` (0 when idle).
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// A set-associative LRU cache over 64-bit line addresses.
#[derive(Debug, Clone)]
pub struct CacheLevel {
    config: CacheConfig,
    /// Per-set line tags, most recently used LAST.
    sets: Vec<Vec<u64>>,
    stats: CacheStats,
}

impl CacheLevel {
    /// Build an empty cache.
    pub fn new(config: CacheConfig) -> Self {
        assert!(config.line_bytes > 0 && config.size_bytes.is_multiple_of(config.line_bytes));
        assert!(config.associativity > 0, "associativity must be positive");
        let sets = vec![Vec::with_capacity(config.associativity); config.num_sets()];
        CacheLevel { config, sets, stats: CacheStats::default() }
    }

    /// The level's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Look up line `line_addr` (already divided by the line size), insert
    /// it as most-recently-used, and report whether it was a hit.
    pub fn access_line(&mut self, line_addr: u64) -> bool {
        self.stats.accesses += 1;
        let set_idx = (line_addr % self.sets.len() as u64) as usize;
        let set = &mut self.sets[set_idx];
        if let Some(pos) = set.iter().position(|&t| t == line_addr) {
            // hit: move to MRU position
            let tag = set.remove(pos);
            set.push(tag);
            self.stats.hits += 1;
            true
        } else {
            if set.len() == self.config.associativity {
                set.remove(0); // evict LRU
            }
            set.push(line_addr);
            self.stats.misses += 1;
            false
        }
    }

    /// Drop all cached lines, keeping the counters.
    pub fn flush(&mut self) {
        for set in &mut self.sets {
            set.clear();
        }
    }

    /// Zero the counters, keeping the contents.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(assoc: usize, lines: usize) -> CacheLevel {
        CacheLevel::new(CacheConfig {
            name: "T",
            size_bytes: 64 * lines,
            line_bytes: 64,
            associativity: assoc,
            latency_cycles: 1,
        })
    }

    #[test]
    fn config_derived_quantities() {
        let c = CacheConfig {
            name: "L1",
            size_bytes: 32 * 1024,
            line_bytes: 64,
            associativity: 8,
            latency_cycles: 4,
        };
        assert_eq!(c.num_lines(), 512);
        assert_eq!(c.num_sets(), 64);
        assert_eq!(c.capacity_elements(66), 32 * 1024 / 66);
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = tiny(2, 4);
        assert!(!c.access_line(7));
        assert!(c.access_line(7));
        assert_eq!(c.stats().accesses, 2);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
        assert!((c.stats().miss_rate() - 0.5).abs() < 1e-15);
    }

    #[test]
    fn lru_eviction_within_a_set() {
        // fully associative, 2 lines total
        let mut c = tiny(2, 2);
        c.access_line(0);
        c.access_line(2); // same set in a 1-set cache
        c.access_line(0); // refresh 0 → 2 is now LRU
        c.access_line(4); // evicts 2
        assert!(c.access_line(0), "0 must still be resident");
        assert!(!c.access_line(2), "2 must have been evicted");
    }

    #[test]
    fn set_mapping_separates_conflicts() {
        // 2 sets × 1 way: even lines → set 0, odd lines → set 1.
        let mut c = tiny(1, 2);
        c.access_line(0);
        c.access_line(1);
        assert!(c.access_line(0), "line 0 must not conflict with line 1");
        assert!(c.access_line(1));
    }

    #[test]
    fn flush_clears_content_not_stats() {
        let mut c = tiny(2, 4);
        c.access_line(3);
        c.flush();
        assert!(!c.access_line(3));
        assert_eq!(c.stats().accesses, 2);
    }

    #[test]
    fn reset_stats_keeps_content() {
        let mut c = tiny(2, 4);
        c.access_line(3);
        c.reset_stats();
        assert!(c.access_line(3));
        assert_eq!(c.stats().accesses, 1);
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        // 4-line fully-associative cache, cyclic scan over 8 lines: LRU
        // guarantees 100% misses after warmup.
        let mut c = tiny(4, 4);
        for _ in 0..4 {
            for line in 0..8u64 {
                c.access_line(line);
            }
        }
        assert_eq!(c.stats().hits, 0, "cyclic scan beyond capacity never hits under LRU");
    }
}
