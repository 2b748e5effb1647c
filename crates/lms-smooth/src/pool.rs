//! Per-engine thread-pool reuse.
//!
//! The rayon shim's [`rayon::ThreadPool`] now keeps persistent parked
//! workers — construction is the only moment OS threads are spawned. An
//! engine that built its pool inside every `smooth()` call would still
//! pay `num_threads − 1` spawns *per run*. [`PoolCache`] moves that cost to
//! once per engine lifetime: the first run at a given thread count builds
//! the pool, every later run at the same count reuses the parked workers
//! (regression-tested against [`rayon::spawned_thread_count`]).
//!
//! The cache holds the single most recent thread count — engines are
//! benchmarked at one count per configuration, and a changed count is a
//! deliberate reconfiguration worth one rebuild.

use std::sync::{Arc, Mutex};

/// A lazily-built, engine-owned [`rayon::ThreadPool`] keyed by thread
/// count. Cloning an engine clones the cache *empty* (pools are not
/// shareable state worth copying), and the cache never participates in
/// equality.
pub struct PoolCache {
    slot: Mutex<Option<(usize, Arc<rayon::ThreadPool>)>>,
}

impl PoolCache {
    pub fn new() -> Self {
        PoolCache { slot: Mutex::new(None) }
    }

    /// The cached pool for `num_threads`, building (and caching) it on the
    /// first request or when the count changed.
    pub fn get(&self, num_threads: usize) -> Arc<rayon::ThreadPool> {
        assert!(num_threads >= 1, "need at least one thread");
        let mut slot = self.slot.lock().unwrap();
        if let Some((n, pool)) = &*slot {
            if *n == num_threads {
                return Arc::clone(pool);
            }
        }
        let pool = Arc::new(
            rayon::ThreadPoolBuilder::new()
                .num_threads(num_threads)
                .build()
                .expect("rayon pool construction cannot fail with a positive thread count"),
        );
        *slot = Some((num_threads, Arc::clone(&pool)));
        pool
    }
}

impl Clone for PoolCache {
    fn clone(&self) -> Self {
        PoolCache::new()
    }
}

impl Default for PoolCache {
    fn default() -> Self {
        PoolCache::new()
    }
}

impl std::fmt::Debug for PoolCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let cached = self.slot.lock().map(|s| s.as_ref().map(|(n, _)| *n)).unwrap_or(None);
        f.debug_struct("PoolCache").field("cached_threads", &cached).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_count_reuses_the_pool() {
        let cache = PoolCache::new();
        let a = cache.get(2);
        let b = cache.get(2);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn changed_count_rebuilds() {
        let cache = PoolCache::new();
        let a = cache.get(2);
        let b = cache.get(3);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(b.current_num_threads(), 3);
    }

    #[test]
    fn clone_starts_empty() {
        let cache = PoolCache::new();
        let a = cache.get(2);
        let cloned = cache.clone();
        let b = cloned.get(2);
        assert!(!Arc::ptr_eq(&a, &b));
    }
}
