//! Access sinks: where the interpreter reports every memory access.
//!
//! The interpreter is generic over an [`AccessSink`]; plugging in a cache
//! simulator turns an execution into a trace-driven miss measurement,
//! while [`NullSink`] discards it for plain correctness runs and
//! wall-clock benchmarks.

use sp_cache::{Cache, CacheHierarchy, CacheStats, ClassifyingCache, InfiniteCache};

/// Consumer of the interpreter's memory-access stream.
pub trait AccessSink {
    /// Whether this sink observes the stream at all. Runners may skip
    /// work whose only purpose is to report accesses (the lane-blocked
    /// runner's scalar-order replay) when this is `false`, so a sink
    /// that sets it must ignore every [`AccessSink::access`] call. Only
    /// [`NullSink`] does; every sink with state keeps the default `true`
    /// and sees the exact scalar-order stream.
    const OBSERVES: bool = true;

    /// Called once per scalar access with its byte address.
    fn access(&mut self, addr: u64, is_write: bool);
}

/// Discards accesses; runners skip access-only work for it (see
/// [`AccessSink::OBSERVES`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl AccessSink for NullSink {
    const OBSERVES: bool = false;

    #[inline(always)]
    fn access(&mut self, _addr: u64, _is_write: bool) {}
}

/// Counts loads and stores.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CountingSink {
    /// Read accesses seen.
    pub loads: u64,
    /// Write accesses seen.
    pub stores: u64,
}

impl AccessSink for CountingSink {
    #[inline]
    fn access(&mut self, _addr: u64, is_write: bool) {
        if is_write {
            self.stores += 1;
        } else {
            self.loads += 1;
        }
    }
}

/// Feeds accesses to a cache simulator.
#[derive(Debug)]
pub struct CacheSink {
    /// The simulated cache.
    pub cache: Cache,
}

impl CacheSink {
    /// Wraps a cache.
    pub fn new(cache: Cache) -> Self {
        CacheSink { cache }
    }

    /// Simulation counters so far.
    pub fn stats(&self) -> CacheStats {
        self.cache.stats()
    }
}

impl AccessSink for CacheSink {
    #[inline]
    fn access(&mut self, addr: u64, _is_write: bool) {
        self.cache.access(addr);
    }
}

/// Feeds accesses to a three-way miss classifier (compulsory /
/// capacity / conflict).
#[derive(Debug)]
pub struct ClassifySink {
    /// The classifier.
    pub cache: ClassifyingCache,
}

impl ClassifySink {
    /// Wraps a classifier.
    pub fn new(cache: ClassifyingCache) -> Self {
        ClassifySink { cache }
    }
}

impl AccessSink for ClassifySink {
    #[inline]
    fn access(&mut self, addr: u64, _is_write: bool) {
        self.cache.access(addr);
    }
}

/// Feeds accesses to an infinite cache (compulsory misses only).
#[derive(Debug)]
pub struct InfiniteSink {
    /// The unbounded cache.
    pub cache: InfiniteCache,
}

impl AccessSink for InfiniteSink {
    #[inline]
    fn access(&mut self, addr: u64, _is_write: bool) {
        self.cache.access(addr);
    }
}

/// Feeds accesses through a two-level cache hierarchy.
#[derive(Debug)]
pub struct HierarchySink {
    /// The hierarchy.
    pub cache: CacheHierarchy,
}

impl HierarchySink {
    /// Wraps a hierarchy.
    pub fn new(cache: CacheHierarchy) -> Self {
        HierarchySink { cache }
    }
}

impl AccessSink for HierarchySink {
    #[inline]
    fn access(&mut self, addr: u64, _is_write: bool) {
        self.cache.access(addr);
    }
}

/// Records the full address trace (tests and debugging only — large).
#[derive(Clone, Debug, Default)]
pub struct RecordingSink {
    /// `(address, is_write)` in program order.
    pub trace: Vec<(u64, bool)>,
}

impl AccessSink for RecordingSink {
    #[inline]
    fn access(&mut self, addr: u64, is_write: bool) {
        self.trace.push((addr, is_write));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_cache::CacheConfig;

    #[test]
    fn counting_sink_separates_kinds() {
        let mut s = CountingSink::default();
        s.access(0, false);
        s.access(8, false);
        s.access(16, true);
        assert_eq!(
            s,
            CountingSink {
                loads: 2,
                stores: 1
            }
        );
    }

    #[test]
    fn cache_sink_counts_misses() {
        let mut s = CacheSink::new(Cache::new(CacheConfig::new(256, 64, 1)));
        s.access(0, false);
        s.access(0, true);
        assert_eq!(s.stats().misses, 1);
        assert_eq!(s.stats().accesses, 2);
    }

    #[test]
    fn only_the_null_sink_is_unobserved() {
        // The lane-blocked runner drops its access replay for sinks that
        // do not observe; a stateful sink flagged `false` would silently
        // lose accesses.
        fn observes<S: AccessSink>() -> bool {
            S::OBSERVES
        }
        assert!(!observes::<NullSink>());
        assert!(observes::<CountingSink>());
        assert!(observes::<CacheSink>());
        assert!(observes::<ClassifySink>());
        assert!(observes::<InfiniteSink>());
        assert!(observes::<HierarchySink>());
        assert!(observes::<RecordingSink>());
    }

    #[test]
    fn recording_sink_keeps_order() {
        let mut s = RecordingSink::default();
        s.access(8, false);
        s.access(4, true);
        assert_eq!(s.trace, vec![(8, false), (4, true)]);
    }
}
