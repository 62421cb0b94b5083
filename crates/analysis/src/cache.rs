//! Per-code-hash cache of [`CodeAnalysis`] artifacts.
//!
//! Contract code is immutable once installed, so its analysis can be shared
//! by every frame that ever runs it — across calls, across reentrant
//! subframes and (via [`std::sync::Arc`]) across the experiment harness's
//! worker threads. This is what turns a whole-code analysis into a
//! one-time cost per distinct contract, which pays off for code that runs
//! many times; code that runs once (init code) skips it and decodes only
//! the blocks it executes, through [`crate::LazyBlocks`].
//!
//! The cache is **bounded**: above its capacity the oldest-inserted entry
//! is evicted (insertion-order FIFO — cheap, deterministic, and a close
//! enough proxy for LRU given that hot contracts are re-inserted only after
//! an eviction). A long-lived node that churns through many distinct
//! contracts therefore holds at most `capacity` artifacts, and the
//! [`AnalysisCache::evictions`] counter surfaces the churn to the metrics
//! registry.
//!
//! Caches on one thread also **share** their artifacts: on a miss, a cache
//! first looks for a live analysis of the same code held by any other
//! cache on the thread (a simulated fleet's devices all run the same
//! channel contract) and analyzes only when there is none. Sharing changes
//! what is held, never what a cache counts: a cache's first sight of a
//! code is still its miss.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::{Arc, Weak};

use tinyevm_crypto::keccak256;

use crate::analyzer::{analyze, CodeAnalysis};

/// Default capacity: far above any fleet's live contract count, small
/// enough that a node churning through a whole corpus stays bounded.
pub const DEFAULT_CACHE_CAPACITY: usize = 1024;

thread_local! {
    /// The analyses this thread's caches hold, by code hash.
    static LIVE_ANALYSES: RefCell<LiveAnalyses> = const {
        RefCell::new(LiveAnalyses {
            analyses: BTreeMap::new(),
            sweep_at: 0,
        })
    };
}

/// Weak handles to analyses by code hash, so an analysis lives exactly as
/// long as some cache (or caller) holds it.
struct LiveAnalyses {
    analyses: BTreeMap<[u8; 32], Weak<CodeAnalysis>>,
    /// Size at which handles to dropped analyses are next swept out: twice
    /// what the last sweep left, so sweeping costs O(1) per insert on
    /// average.
    sweep_at: usize,
}

impl LiveAnalyses {
    /// A live analysis of the code hashing to `hash`, or a new one.
    fn analysis(&mut self, hash: [u8; 32], code: &[u8]) -> Arc<CodeAnalysis> {
        if let Some(shared) = self.analyses.get(&hash).and_then(Weak::upgrade) {
            return shared;
        }
        if self.analyses.len() >= self.sweep_at {
            self.analyses
                .retain(|_, analysis| analysis.strong_count() > 0);
            self.sweep_at = 2 * self.analyses.len().max(16);
        }
        let analysis = Arc::new(analyze(code));
        self.analyses.insert(hash, Arc::downgrade(&analysis));
        analysis
    }
}

/// A bounded cache of analysis artifacts keyed by the Keccak-256 hash of
/// the code, evicting its oldest entry at capacity.
#[derive(Debug, Clone)]
pub struct AnalysisCache {
    map: HashMap<[u8; 32], Arc<CodeAnalysis>>,
    /// Insertion order of the live keys, oldest first.
    order: VecDeque<[u8; 32]>,
    capacity: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Default for AnalysisCache {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_CACHE_CAPACITY)
    }
}

impl AnalysisCache {
    /// Creates an empty cache with the default capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty cache holding at most `capacity` artifacts (at
    /// least one).
    pub fn with_capacity(capacity: usize) -> Self {
        AnalysisCache {
            map: HashMap::new(),
            order: VecDeque::new(),
            capacity: capacity.max(1),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Returns the analysis for `code`, memoizing it on first sight of this
    /// code hash. The first sight takes a live analysis of the same code
    /// from another cache on this thread, or runs the analyzer when there
    /// is none.
    pub fn analyze(&mut self, code: &[u8]) -> Arc<CodeAnalysis> {
        self.analyze_hashed(keccak256(code), code)
    }

    /// Like [`AnalysisCache::analyze`], for callers that already know the
    /// code hash.
    pub fn analyze_hashed(&mut self, hash: [u8; 32], code: &[u8]) -> Arc<CodeAnalysis> {
        if let Some(analysis) = self.map.get(&hash) {
            self.hits += 1;
            return Arc::clone(analysis);
        }
        self.misses += 1;
        if self.map.len() == self.capacity {
            if let Some(oldest) = self.order.pop_front() {
                self.map.remove(&oldest);
                self.evictions += 1;
            }
        }
        let analysis = LIVE_ANALYSES.with(|live| live.borrow_mut().analysis(hash, code));
        self.map.insert(hash, Arc::clone(&analysis));
        self.order.push_back(hash);
        analysis
    }

    /// Number of lookups served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of lookups of a code hash this cache did not hold: each one
    /// ran the analyzer or took another cache's live analysis.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of entries dropped to respect the capacity cap.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// The configured capacity cap.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of distinct code blobs currently held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no code has been analyzed yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Drops all cached artifacts and resets the counters.
    pub fn clear(&mut self) {
        self.map.clear();
        self.order.clear();
        self.hits = 0;
        self.misses = 0;
        self.evictions = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caches_by_code_hash() {
        let mut cache = AnalysisCache::new();
        let a = cache.analyze(&[0x60, 0x01, 0x00]);
        let b = cache.analyze(&[0x60, 0x01, 0x00]);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);

        cache.analyze(&[0x00]);
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.len(), 2);

        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.evictions(), 0);
    }

    #[test]
    fn capacity_evicts_oldest_entry_first() {
        let mut cache = AnalysisCache::with_capacity(2);
        // Three distinct one-byte contracts.
        cache.analyze(&[0x00]);
        cache.analyze(&[0x01, 0x00]);
        assert_eq!(cache.evictions(), 0);
        cache.analyze(&[0x60, 0x01, 0x00]);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);

        // The oldest ([0x00]) was evicted: looking it up again misses and
        // in turn evicts the second-oldest.
        cache.analyze(&[0x00]);
        assert_eq!(cache.misses(), 4);
        assert_eq!(cache.evictions(), 2);
        // The newest pre-eviction entry is still warm.
        cache.analyze(&[0x60, 0x01, 0x00]);
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn caches_on_one_thread_share_live_analyses_and_keep_their_own_counts() {
        let code = [0x60, 0x02, 0x60, 0x03, 0x01, 0x00];
        let mut first = AnalysisCache::new();
        let mut second = AnalysisCache::new();
        let a = first.analyze(&code);
        let b = second.analyze(&code);
        assert!(Arc::ptr_eq(&a, &b), "one analysis for both caches");
        second.analyze(&code);
        assert_eq!((first.hits(), first.misses()), (0, 1));
        assert_eq!((second.hits(), second.misses()), (1, 1));

        // Once no cache holds it, the analysis is gone: a third cache
        // analyzes afresh.
        let dropped = Arc::downgrade(&a);
        drop((a, b));
        first.clear();
        second.clear();
        assert!(dropped.upgrade().is_none());
        let mut third = AnalysisCache::new();
        let fresh = third.analyze(&code);
        assert!(!Weak::ptr_eq(&dropped, &Arc::downgrade(&fresh)));
        assert_eq!((third.hits(), third.misses()), (0, 1));
    }

    #[test]
    fn capacity_floor_is_one() {
        let mut cache = AnalysisCache::with_capacity(0);
        assert_eq!(cache.capacity(), 1);
        cache.analyze(&[0x00]);
        cache.analyze(&[0x01, 0x00]);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.evictions(), 1);
    }
}
